"""Fusion-ring core: axioms, dimensions, gradings, hom spaces."""

import functools
import gc
import hashlib
import itertools
import json
import random
import time
import tracemalloc
import warnings
from dataclasses import FrozenInstanceError
from fractions import Fraction
from itertools import permutations
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from modcat import (
    AlgebraicReal,
    DegenerateInputError,
    FusionRing,
    InternalConsistencyError,
    IsingParams,
    MalformedInputError,
    MetricGroup,
    Phase,
    ResourceLimitError,
    RibbonData,
    UnsupportedInputError,
    adjoint_subring,
    build_so_n2,
    asymptotic_dim_ratio,
    condense_boson,
    cyclic_form,
    deligne_product,
    enumerate_cyclic_metric_groups,
    exact_dimensions,
    fp_dimensions,
    gn_grading,
    hom_space_dim,
    invertibles,
    ising_squared_data,
    pointed_ribbon_data,
    structure_census,
    subring_generated,
    universal_grading,
    verify_axioms,
)
import modcat.ring as ring_module
from modcat._abelian import decompose
from modcat.catalog import fibonacci_ring, ising_ring
from modcat.modular import FLOAT_TOL
from modcat.ring import ONE, _is_character, _sum_matrix, is_commutative

import oracles


def pointed_z(n):
    fusion = np.zeros((n, n, n), dtype=np.int64)
    for i in range(n):
        for j in range(n):
            fusion[i, j, (i + j) % n] = 1
    labels = tuple(f"g{i}" for i in range(n))
    dual = tuple((-i) % n for i in range(n))
    return FusionRing(labels, dual, fusion)


# ---------------------------------------------------------------------------
# AlgebraicReal


class TestAlgebraicReal:
    def test_sqrt_canonicalizes_square_factors(self):
        assert AlgebraicReal.sqrt(8) == AlgebraicReal.of(2) * AlgebraicReal.sqrt(2)
        assert AlgebraicReal.sqrt(9) == AlgebraicReal.of(3)
        assert AlgebraicReal.sqrt(1) == AlgebraicReal.of(1)

    def test_arithmetic_and_float(self):
        phi = (AlgebraicReal.of(1) + AlgebraicReal.sqrt(5)) * AlgebraicReal.of(
            1
        ) * AlgebraicReal.from_json([1, 2, 1, 2, 5])
        # (1 + sqrt 5) * (1 + sqrt 5)/2 = 3 + sqrt 5... check numerically
        assert abs(float(phi) - (1 + 5**0.5) * (1 + 5**0.5) / 2) < 1e-12

    def test_squared_golden_ratio(self):
        phi = AlgebraicReal.from_json([1, 2, 1, 2, 5])
        assert float(phi.squared()) == pytest.approx(float(phi) + 1, abs=1e-12)

    def test_json_round_trip(self):
        x = AlgebraicReal.from_json([1, 3, -2, 7, 6])
        assert AlgebraicReal.from_json(x.to_json()) == x

    def test_mixed_radicands_rejected(self):
        with pytest.raises(UnsupportedInputError):
            AlgebraicReal.sqrt(2) + AlgebraicReal.sqrt(3)

    @pytest.mark.parametrize("parts", [
        (0.5,), ("1/2",), (True,), (np.int64(1),), (Fraction(1), 1.5, 2), (Fraction(0), False, 2),
        (Fraction(0), Fraction(1), 2.0), (Fraction(0), Fraction(1), True), (Fraction(0), 1, "2")])
    def test_parts_that_are_not_exact_are_refused(self, parts):
        # unchecked, 0.5 is stored as a float whose to_json() fails, "1/2" as a
        # string, True prints as True and a radicand 2.0 prints as sqrt(2.0)
        with pytest.raises(MalformedInputError):
            AlgebraicReal(*parts)

    @pytest.mark.parametrize("n", [2.0, True, np.int64(2), "2"])
    def test_sqrt_takes_an_int(self, n):
        # unchecked, sqrt(2.0) raises a bare TypeError and sqrt(True) is 1
        with pytest.raises(MalformedInputError, match="sqrt needs a nonnegative int"):
            AlgebraicReal.sqrt(n)

    def test_int_parts_are_stored_as_fractions(self):
        x = AlgebraicReal(1, -2, 6)
        assert type(x.a) is Fraction and type(x.b) is Fraction
        assert x.to_json() == [1, 1, -2, 1, 6]
        assert x == AlgebraicReal(Fraction(1), Fraction(-2), 6)
        assert AlgebraicReal.of(0.5) == AlgebraicReal(Fraction(1, 2))


# ---------------------------------------------------------------------------
# construction and validation


class TestConstruction:
    def test_rejects_bad_shape(self):
        with pytest.raises(MalformedInputError):
            FusionRing(("1", "x"), (0, 1), np.zeros((2, 2, 3), dtype=np.int64))

    def test_rejects_negative_multiplicity(self):
        fusion = pointed_z(2).fusion.copy()
        fusion[1, 1, 0] = -1
        with pytest.raises(MalformedInputError):
            FusionRing(("1", "x"), (0, 1), fusion)

    def test_rejects_non_involutive_dual(self):
        r = pointed_z(3)
        with pytest.raises(MalformedInputError):
            FusionRing(r.labels, (1, 2, 0), r.fusion)

    @pytest.mark.parametrize("dual", [
        (False, True, 2), (0, 1, np.True_), (0.0, 1.0, 2.0), (0, np.float64(1), 2), (0, 1, "2"),
        (0, 1, None)])
    def test_dual_entries_that_are_not_integers_are_refused(self, dual):
        # unchecked, the bools were stored and the integral floats passed the
        # permutation test and raised a bare TypeError at the involution test
        ring = ising_ring()
        with pytest.raises(MalformedInputError, match="dual entry"):
            FusionRing.from_nonzeros(ring.labels, dual, ring.cells, ring.mults)

    def test_numpy_integer_duals_are_taken(self):
        ring = ising_ring()
        for dual in (np.arange(3), (0, np.int32(1), np.uint8(2))):
            assert FusionRing.from_nonzeros(ring.labels, dual, ring.cells, ring.mults) == \
                FusionRing.from_nonzeros(ring.labels, (0, 1, 2), ring.cells, ring.mults)

    def test_wrong_dual_pairing_is_an_axiom_violation(self):
        r = pointed_z(3)
        bad = FusionRing(r.labels, (0, 1, 2), r.fusion)
        assert not verify_axioms(bad).ok

    def test_rejects_duplicate_labels(self):
        r = pointed_z(2)
        with pytest.raises(MalformedInputError):
            FusionRing(("x", "x"), r.dual, r.fusion)

    def test_dumps_is_the_sorted_json_of_the_dict(self):
        from test_catalog import _SO_N2_DIGESTS

        for n in _SO_N2_DIGESTS:
            ring = build_so_n2(n)
            assert ring.dumps() == json.dumps(ring.to_json_dict(), sort_keys=True), n
        r = pointed_z(3)
        for labels in (("1", 'a"b', "c\\d"), ("1", "\u03c3\u2080", "\U0001f600\n")):
            for dims in (None, (ONE,) * 3):
                ring = FusionRing(labels, r.dual, r.fusion, dims)
                assert ring.dumps() == json.dumps(ring.to_json_dict(), sort_keys=True)
                assert FusionRing.loads(ring.dumps()) == ring
        # ribbon data and metric groups share the row writer; a zero form has no q rows
        ribbons = [ising_squared_data(IsingParams(1, 7)), ising_squared_data(IsingParams(3, 5))]
        ribbons += [pointed_ribbon_data(cyclic_form(n, 1)) for n in (3, 5, 8)]
        for rd in ribbons:
            assert rd.dumps() == json.dumps(rd.to_json_dict(), sort_keys=True)
            assert RibbonData.loads(rd.dumps()) == rd
        groups = [m for n in (1, 4, 12, 30) for m in enumerate_cyclic_metric_groups(n)]
        groups += [cyclic_form(9, 2), cyclic_form(16, 3)]
        for mg in groups:
            assert mg.dumps() == json.dumps(mg.to_json_dict(), sort_keys=True)
            assert MetricGroup.loads(mg.dumps()) == mg

    @pytest.mark.parametrize("bad", [-(2**63), 2**63])
    def test_loaders_share_one_int64_reader(self, bad):
        # the fusion rows of a ring and the q rows of a metric group are read
        # by the same strict scan; -2^63 is refused, its negation is no int64
        from modcat import MetricGroup

        ring = {"labels": ["1"], "dual": [0], "fusion": [[0, 0, 0, bad]]}
        with pytest.raises(MalformedInputError, match="a fusion entry lies outside the int64"):
            FusionRing.from_json_dict(ring)
        with pytest.raises(MalformedInputError, match="a q entry lies outside the int64"):
            MetricGroup.from_json_dict({"group": [5], "q": [[1, bad, 5]]})
        for rows in ({}, [[0, 0, 0]], [[0, 0, 0, True]], [(0, 0, 0, 1)]):
            with pytest.raises(MalformedInputError, match="fusion must be a list of rows of 4"):
                FusionRing.from_json_dict({**ring, "fusion": rows})

    def test_index_out_of_range_names_the_first_entry(self, ising):
        # both readers, the list rows and the rows read straight from the text
        data = ising.to_json_dict()
        for bad in ([1, -1, 1], [2, 1, 3], [3, 0, 3]):
            rows = [*data["fusion"][:2], [*bad, 1], [0, 0, 0, 1], [5, 0, 0, 1]]
            want = rf"^fusion entry index out of range: \({bad[0]}, {bad[1]}, {bad[2]}\)$"
            for load in (FusionRing.from_json_dict, lambda d: FusionRing.loads(json.dumps(d))):
                with pytest.raises(MalformedInputError, match=want):
                    load({**data, "fusion": rows})

    def test_json_round_trip(self, ising):
        again = FusionRing.loads(ising.dumps())
        assert again.labels == ising.labels
        assert again.dual == ising.dual
        assert np.array_equal(again.fusion, ising.fusion)
        assert again.dumps() == ising.dumps()

    @pytest.mark.parametrize("n", [12, 13, 14, 117])
    def test_loaded_dims_share_one_object_per_value(self, n):
        ring = build_so_n2(n)
        text = ring.dumps()
        again = FusionRing.loads(text)
        assert again == ring and again.dumps() == text
        assert len({id(d) for d in again.exact_dims}) == len(set(again.exact_dims)) == 3


# the three loaders against `from_json_dict(json.loads(text))`: the rows
# spaced as `dumps` writes them are read straight into int64, and every
# other text must give the same value or the same error


def _reference(cls, what, text):
    try:
        data = json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise MalformedInputError(f"{what} is not valid JSON: {exc}") from None
    return cls.from_json_dict(data)


def _outcome(call):
    try:
        return "value", call()
    except Exception as exc:  # the verdict: the type and message of the error
        return type(exc), str(exc)


def _assert_loads_as_reference(cls, what, text):
    for given_text in (text, text.encode(), bytearray(text.encode())):
        expected = _outcome(lambda: _reference(cls, what, given_text))
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a warning becomes an outcome that differs
            assert _outcome(lambda: cls.loads(given_text)) == expected


@functools.cache
def _canonical_texts():
    """(class, name in errors, text) of rings, ribbon data and metric groups."""
    out = [(FusionRing, "ring", build_so_n2(n).dumps()) for n in (3, 8, 12)]
    out.append((FusionRing, "ring", pointed_z(4).dumps()))
    ribbons = (ising_squared_data(IsingParams(1, 7)),
               pointed_ribbon_data(enumerate_cyclic_metric_groups(6)[0]))
    out += [(RibbonData, "ribbon data", rd.dumps()) for rd in ribbons]
    out += [(MetricGroup, "metric group", mg.dumps())
            for mg in (*enumerate_cyclic_metric_groups(12)[:2], cyclic_form(25, 3))]
    return out


_EDIT_TOKENS = [*"0123456789", "-", ".", "e", "NaN", "[[", "]]", " ", "\n", "\t",
                '"fusion": [', '"q": [', "\ufeff", "\u00e9"]


@st.composite
def _edited_texts(draw):
    cls, what, text = draw(st.sampled_from(_canonical_texts()))
    for _ in range(draw(st.integers(0, 3))):
        at = draw(st.integers(0, len(text)))
        cut = draw(st.integers(0, 2))  # characters the edit replaces
        text = text[:at] + draw(st.sampled_from(_EDIT_TOKENS)) + text[at + cut:]
    return cls, what, text


def _append_row(text, row):
    """The ring text with one more fusion row at the end."""
    return text.replace(']], "labels"', f'], {row}], "labels"')


_FIXED_EDITS = [
    pytest.param(lambda t: t.replace("{", '{"extra": {"fusion": [[0, 0, 0, 1]]}, ', 1),
                 id="nested_key_first"),
    pytest.param(lambda t: t.replace('"fusion"', '"other"').replace(
        "{", '{"extra": {"fusion": [[0, 0, 0, 1]]}, ', 1), id="only_nested_key"),
    pytest.param(lambda t: t[:-1] + ', "fusion": [[0, 0, 0, 1]]}', id="duplicate_key_last"),
    pytest.param(lambda t: '{"fusion": [[0, 0, 0, 1]], ' + t[1:], id="duplicate_key_first"),
    pytest.param(lambda t: _append_row(t, "[12, 12, 12, 1000000000000000000]"),
                 id="19_digits"),
    pytest.param(lambda t: _append_row(t, "[12, 12, 12, 9999999999999999999]"),
                 id="19_nines"),
    pytest.param(lambda t: _append_row(t, "[12, 12, 12, 10000000000000000000]"),
                 id="20_digits"),
    pytest.param(lambda t: _append_row(t, "[12, 12, 12, 99999999999999999999]"),
                 id="20_nines"),
    pytest.param(lambda t: t.replace("[[0, 0, 0, 1]", "[[0, 0, 0, 01]", 1), id="leading_zero"),
    pytest.param(lambda t: t.replace("[[0, 0, 0, 1]", "[[00, 0, 0, 1]", 1), id="zero_zero"),
    pytest.param(lambda t: t.replace("[[0, 0, 0, 1]", "[[-0, 0, 0, 1]", 1), id="minus_zero"),
    pytest.param(lambda t: t.replace("[[0, 0, 0, 1]", "[[, 0, 0, 1]", 1), id="empty_slot"),
    pytest.param(lambda t: t.replace("[[0, 0, 0, 1]", "[[0, 0, 0, 1, 2]", 1), id="long_row"),
    pytest.param(lambda t: t[:t.index('"fusion"')] + '"fusion": [], ' + t[t.index('"labels"'):],
                 id="empty_rows"),
    pytest.param(lambda t: t.replace('"labels": [', '"labels": NaN, "x": [', 1),
                 id="constant_elsewhere"),
    pytest.param(lambda t: "[" + t + "]", id="not_an_object"),
    pytest.param(lambda t: "\ufeff" + t, id="byte_order_mark"),
    # JSON has no digit but in an entry; each of these holds its entries'
    # digits, so only the place of one digit makes the text invalid
    pytest.param(lambda t: t.replace("[[0, 0, 0, 1]", "[[,0 0, 0, 1]", 1), id="digit_after_comma"),
    pytest.param(lambda t: t.replace("[[0, 0, 0, 1]", "[0[, 0, 0, 1]", 1),
                 id="digit_before_first_row"),
    pytest.param(lambda t: t.replace("[[0, 0, 0, 1], [", "[[0, 0, 0, ]1, [", 1),
                 id="digit_after_row"),
    pytest.param(lambda t: t.replace("[[0, 0, 0, 1], [0,", "[[0, 0, 0, 1], 0[,", 1),
                 id="digit_before_row"),
]


class TestJsonReader:
    @settings(max_examples=400, deadline=None)
    @given(_edited_texts())
    def test_edited_texts_load_as_the_list_path_does(self, case):
        _assert_loads_as_reference(*case)

    @pytest.mark.parametrize("edit", _FIXED_EDITS)
    def test_fixed_edits_load_as_the_list_path_does(self, edit):
        _assert_loads_as_reference(FusionRing, "ring", edit(build_so_n2(12).dumps()))

    # the same with chunks of a few bytes, so that chunk cuts fall in every text

    @settings(max_examples=200, deadline=None)
    @given(_edited_texts(), st.sampled_from([1, 5, 64]))
    def test_edited_texts_load_as_the_list_path_does_in_small_chunks(self, case, size):
        with mock.patch.object(ring_module, "_READ_BYTES", size):
            _assert_loads_as_reference(*case)

    @pytest.mark.parametrize("size", [1, 5, 64])
    @pytest.mark.parametrize("edit", _FIXED_EDITS)
    def test_fixed_edits_load_as_the_list_path_does_in_small_chunks(self, edit, size, monkeypatch):
        monkeypatch.setattr(ring_module, "_READ_BYTES", size)
        _assert_loads_as_reference(FusionRing, "ring", edit(build_so_n2(12).dumps()))

    def test_small_chunks_read_canonical_text_without_the_list_path(self, monkeypatch):
        ring = build_so_n2(117)
        text = ring.dumps()
        read = []
        read_chunk = ring_module._read_chunk
        monkeypatch.setattr(ring_module, "_READ_BYTES", 1000)
        monkeypatch.setattr(ring_module, "_read_chunk", lambda *a: read.append(a) or read_chunk(*a))
        monkeypatch.setattr(ring_module, "_list_rows", None)
        for given_text in (text, text.encode()):
            read.clear()
            assert FusionRing.loads(given_text) == ring
            assert len(read) > 50 and all(len(chunk) < 1100 for chunk, _ in read)

    def test_canonical_metric_edits(self):
        text = cyclic_form(25, 3).dumps()
        for edited in ('{"q": [[1, 3, 25]], ' + text[1:], text.replace("[[1,", "[[01,", 1),
                       text.replace('"q": [[', '"q": [[25, 1, 1], [', 1)):
            _assert_loads_as_reference(MetricGroup, "metric group", edited)

    @pytest.mark.parametrize("spacing", [{"separators": (",", ":")}, {"indent": 1}])
    def test_other_spacing_takes_the_list_path(self, spacing, monkeypatch):
        ring = build_so_n2(12)
        text = json.dumps(ring.to_json_dict(), **spacing)
        read = []
        list_rows = ring_module._list_rows
        monkeypatch.setattr(ring_module, "_list_rows", lambda *a: read.append(a) or list_rows(*a))
        assert FusionRing.loads(text) == ring and len(read) == 1
        _assert_loads_as_reference(FusionRing, "ring", text)

    def test_canonical_text_never_reaches_the_list_path(self, monkeypatch):
        ring = build_so_n2(117)
        assert ring.rank == 62
        rd = ising_squared_data(IsingParams(1, 7))
        mg = cyclic_form(25, 3)

        def refuse(*args):
            raise AssertionError("canonical rows took the list path")

        monkeypatch.setattr(ring_module, "_list_rows", refuse)
        for value in (ring, rd, mg):
            text = value.dumps()
            assert type(value).loads(text) == value
            assert type(value).loads(text.encode()) == value

    def test_public_from_json_dict_refuses_arrays(self):
        data = build_so_n2(12).to_json_dict()
        with pytest.raises(MalformedInputError, match="fusion must be a list of rows of 4"):
            FusionRing.from_json_dict({**data, "fusion": np.array(data["fusion"])})
        with pytest.raises(MalformedInputError, match="q must be a list of rows of 3"):
            MetricGroup.from_json_dict({"group": [5], "q": np.array([[1, 1, 5]])})


# int64 values the row writer must spell out: the ends of the range, zero,
# and each side of every power of ten, with its negation
_WRITER_EDGES = sorted({v for k in range(19) for d in (-1, 0, 1) for v in (10**k + d, -(10**k) - d)}
                       | {0, -(2**63), 2**63 - 1, -(2**63) + 1})


@st.composite
def _int64_rows(draw):
    width = draw(st.integers(1, 5))
    entry = st.one_of(st.sampled_from(_WRITER_EDGES), st.integers(-(2**63), 2**63 - 1),
                      st.integers(-1000, 1000))
    rows = draw(st.lists(st.lists(entry, min_size=width, max_size=width), max_size=300))
    return np.array(rows, dtype=np.int64).reshape(len(rows), width)


# sha256 of `dumps()`, recorded before the rows were written by chunks
_DUMPS_DIGESTS = {
    600: "3f69e2cc5380bd910dd949bdd4f68efa8f3aafea6fb1991f6c6b482c91115599",
    2003: "c78eadbb01baa25cd3fadcac945e9531557dde61db5ccaf77b4c45d22704fbbb",
}


_EDGE_ROWS = np.stack([np.roll(np.array(_WRITER_EDGES, dtype=np.int64), shift)
                       for shift in range(5)], axis=1)  # every edge value in every column


class TestJsonWriter:
    @settings(max_examples=150, deadline=None)
    @given(_int64_rows(), st.sampled_from([1, 2, 7, ring_module.CHUNK // 4]))
    @example(_EDGE_ROWS, 7)
    @example(_EDGE_ROWS[:, :1], 1)
    def test_rows_are_their_json(self, rows, chunk):
        # pieces of `chunk` rows
        with mock.patch.object(ring_module, "CHUNK", chunk * rows.shape[1]):
            assert "".join(ring_module._row_pieces(rows)) == json.dumps(rows.tolist())

    @pytest.mark.parametrize("n", sorted(_DUMPS_DIGESTS))
    def test_dumps_bytes_are_pinned(self, n):
        ring = build_so_n2(n)
        if n == 2003:
            assert ring.rank == 1005 and len(ring.cells) > 246 * (ring_module.CHUNK // 4)  # 247 chunks
        assert hashlib.sha256(ring.dumps().encode()).hexdigest() == _DUMPS_DIGESTS[n]

    def test_dumps_and_loads_stay_near_the_text(self):
        # traced peaks in units of the text: 9.4x (dumps) and 4.1x (loads of
        # the bytes) when the rows were formatted and read whole
        ring = build_so_n2(2003)
        tracing = tracemalloc.is_tracing()
        if not tracing:
            tracemalloc.start()
        try:
            gc.collect()
            before = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            text = ring.dumps()
            assert tracemalloc.get_traced_memory()[1] - before <= 5 * len(text)
            data = text.encode()
            del text
            gc.collect()
            before = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            again = FusionRing.loads(data)
            assert tracemalloc.get_traced_memory()[1] - before <= 3.5 * len(data)
        finally:
            if not tracing:
                tracemalloc.stop()
        assert again == ring


class TestStorage:
    @settings(max_examples=200, deadline=None)
    @given(
        st.integers(1, 5).flatmap(
            lambda r: st.tuples(
                st.lists(
                    st.sampled_from((0, 1, 2, 2**32, 2**40)), min_size=r**3, max_size=r**3
                ).map(lambda entries: np.array(entries, dtype=np.int64).reshape(r, r, r)),
                st.booleans(),
                st.booleans(),
                st.booleans(),
            )
        )
    )
    def test_nonzeros_agree_with_dense_oracles(self, case):
        fusion, symmetric, unital, swap = case
        r = len(fusion)
        if symmetric:
            fusion = np.maximum(fusion, fusion.transpose(1, 0, 2))
        if unital:
            fusion[0] = fusion[:, 0] = np.eye(r, dtype=np.int64)
        dual = (0, 2, 1, *range(3, r)) if swap and r >= 3 else tuple(range(r))
        ring = FusionRing(tuple(map(str, range(r))), dual, fusion)

        dense = ring.fusion
        assert dense.dtype == np.int64 and dense.flags.c_contiguous and not dense.flags.writeable
        assert np.array_equal(dense, fusion)
        for i in range(r):
            for j in range(r):
                ks, ms = ring.row(i, j)
                assert ks.tolist() == np.flatnonzero(fusion[i, j]).tolist()
                assert ms.tolist() == fusion[i, j, ks].tolist()
        assert ring.dumps() == json.dumps(ring.to_json_dict(), sort_keys=True)
        assert FusionRing.loads(ring.dumps()) == ring

        assert is_commutative(ring) == oracles.commutative_bruteforce(fusion)
        M = oracles.sum_matrix_bruteforce(fusion)
        if not is_commutative(ring):
            with pytest.raises(UnsupportedInputError):
                _sum_matrix(ring)
        elif M == [list(col) for col in zip(*M)] and min(map(min, M)) > 0:
            assert _sum_matrix(ring).tolist() == M
        else:
            with pytest.raises(MalformedInputError):
                _sum_matrix(ring)

        want = oracles.invertibles_bruteforce(fusion, dual)
        if want is None:
            with pytest.raises(InternalConsistencyError):
                invertibles(ring)
        else:
            group = invertibles(ring)
            assert (group.elements, group.table) == want

    def test_large_ring_never_builds_the_dense_view(self, monkeypatch):
        # with no room for a dense tensor, a layer that built one would raise
        monkeypatch.setattr(ring_module, "DENSE_LIMIT", 0)
        ring = build_so_n2(600)
        assert structure_census(ring, 600).ok
        assert gn_grading(ring).group == (2,)
        assert universal_grading(ring).group == (2, 2)
        assert FusionRing.loads(ring.dumps()) == ring
        with pytest.raises(ResourceLimitError):
            ring.fusion

        # SO(120)_2 passes; a copy with one multiplicity raised and one zero
        # made nonzero reports the oracle's witnesses.  Associativity can only
        # break where a product touches one of the two cells, so the oracle
        # checks those quadruples (4 r^2 per cell), not all r^4.
        ring = build_so_n2(120)
        assert verify_axioms(ring).ok
        r = ring.rank
        raised = int(ring.cells[len(ring.cells) // 2])
        added = int(np.setdiff1d(np.arange(r**3), ring.cells)[r**3 // 3])
        cells = np.sort(np.r_[ring.cells, added])
        mults = np.ones(len(cells), dtype=np.int64)
        mults[np.searchsorted(cells, ring.cells)] = ring.mults
        mults[np.searchsorted(cells, raised)] += 1
        bad = FusionRing.from_nonzeros(ring.labels, ring.dual, cells, mults)
        dense = np.zeros(r**3, dtype=np.int64)
        dense[cells] = mults
        quads = set()
        for a, b, c in (np.unravel_index(cell, (r, r, r)) for cell in (raised, added)):
            for x, y in np.ndindex(r, r):
                quads |= {(a, b, x, y), (x, y, b, c), (x, a, b, y), (a, x, y, c)}
        violations = list(verify_axioms(bad).violations)
        assert any(kind == "associativity" for kind, _ in violations)
        assert violations == oracles.verify_axioms_bruteforce(
            dense.reshape(r, r, r), ring.dual, quads
        )

    def test_dense_view_is_read_only_and_kept(self, ising):
        assert ising.fusion is ising.fusion
        with pytest.raises(ValueError):
            ising.fusion[0, 0, 0] = 2
        with pytest.raises(AttributeError):
            ising.labels = ()

    def test_from_nonzeros_rejects_unsorted_cells(self):
        with pytest.raises(MalformedInputError):
            FusionRing.from_nonzeros(("1", "x"), (0, 1), [3, 0], [1, 1])
        with pytest.raises(MalformedInputError):
            FusionRing.from_nonzeros(("1", "x"), (0, 1), [0, 8], [1, 1])


def _orbit(cell, dual):
    """The cells that Frobenius reciprocity ties to `cell`: its orbit under
    (i, j, k) -> (i*, k, j) and (i, j, k) -> (k, j*, i)."""
    orbit, todo = {cell}, [cell]
    while todo:
        i, j, k = todo.pop()
        for other in ((dual[i], k, j), (k, dual[j], i)):
            if other not in orbit:
                orbit.add(other)
                todo.append(other)
    return orbit


_ASSOCIATIVE = (fibonacci_ring(), ising_ring(), build_so_n2(3), build_so_n2(4), build_so_n2(6),
                build_so_n2(7), pointed_z(5))


@st.composite
def _frobenius_closed(draw):
    """A tensor that passes the unit, duality and Frobenius checks by
    construction, associative or not.  Either an associative ring of rank
    2 to 10 with one orbit of cells raised or lowered, so that associativity
    fails at a few quadruples, or random entries of rank 1 to 5 made
    constant on each orbit, then the cells with an index 0 set by the unit
    and duality axioms (whole orbits as well)."""
    if draw(st.booleans()):
        ring = draw(st.sampled_from(_ASSOCIATIVE))
        fusion, dual = ring.fusion.copy(), list(ring.dual)
        cell = draw(st.tuples(*[st.integers(1, ring.rank - 1)] * 3))
        cells = tuple(np.array(sorted(_orbit(cell, dual))).T)
        fusion[cells] = np.maximum(fusion[cells] + draw(st.sampled_from((-1, 1, 2**32))), 0)
        return fusion, dual
    r = draw(st.integers(1, 5))
    entries = draw(st.lists(st.sampled_from((0, 1, 2, 2**32, 2**40)),
                            min_size=r**3, max_size=r**3))
    perm = draw(st.permutations(range(1, r)))
    dual = list(range(r))
    swaps = draw(st.integers(0, (r - 1) // 2))
    for a, b in zip(perm[: 2 * swaps : 2], perm[1 : 2 * swaps : 2]):
        dual[a], dual[b] = b, a
    drawn = np.array(entries, dtype=np.int64).reshape(r, r, r)
    fusion = np.zeros_like(drawn)
    for cell in np.ndindex(r, r, r):
        fusion[cell] = drawn[min(_orbit(cell, dual))]
    fusion[0] = fusion[:, 0] = np.eye(r, dtype=np.int64)
    fusion[:, :, 0] = 0
    fusion[np.arange(r), dual, 0] = 1
    return fusion, dual


@st.composite
def _edited_nonzeros(draw):
    """(cells, mults, ref_cells, ref_mults): increasing cells below 1000 with
    positive multiplicities, and the same nonzeros shuffled, with at most one
    edit: a multiplicity changed, two multiplicities swapped, a nonzero
    dropped, added or moved, or one nonzero listed in place of another."""
    ref = draw(st.dictionaries(st.integers(0, 999), st.sampled_from((1, 2, 7, 2**40)), max_size=30))
    pairs = draw(st.permutations(sorted(ref.items())))
    edit = draw(st.sampled_from(("none", "mult", "swap", "drop", "add", "move", "twice")))
    at = draw(st.integers(0, max(len(pairs) - 1, 0)))
    other = draw(st.integers(0, max(len(pairs) - 1, 0)))
    if edit == "add":
        pairs.insert(at, (draw(st.integers(0, 999)), draw(st.sampled_from((1, 2, 2**40)))))
    elif pairs and edit == "mult":
        pairs[at] = (pairs[at][0], draw(st.sampled_from((1, 3, 2**40 + 1))))
    elif pairs and edit == "swap":
        pairs[at], pairs[other] = (pairs[at][0], pairs[other][1]), (pairs[other][0], pairs[at][1])
    elif pairs and edit == "drop":
        del pairs[at]
    elif pairs and edit == "move":
        pairs[at] = (draw(st.integers(0, 999)), pairs[at][1])
    elif pairs and edit == "twice":
        pairs[at] = pairs[other]
    cells, mults = np.array(pairs, dtype=np.int64).reshape(-1, 2).T
    ref_cells = np.array(sorted(ref), dtype=np.int64)
    return cells, mults, ref_cells, np.array([ref[c] for c in sorted(ref)], dtype=np.int64)


@st.composite
def _near_commutative(draw):
    """A tensor of rank 2-5 symmetric in its first two indices, but for at
    most one edit: one entry N[i, j, k] with i != j raised or cleared, or
    N[i, j, k] = N[j, i, l] = 1 and N[i, j, l] = N[j, i, k] = 2 for k != l,
    whose swapped nonzeros keep the cells and the multiset of multiplicities."""
    r = draw(st.integers(2, 5))
    entries = draw(st.lists(st.sampled_from((0, 0, 1, 2, 2**40)), min_size=r**3, max_size=r**3))
    fusion = np.array(entries, dtype=np.int64).reshape(r, r, r)
    fusion = np.maximum(fusion, fusion.transpose(1, 0, 2))
    i, j = draw(st.permutations(range(r)))[:2]
    k, l = draw(st.permutations(range(r)))[:2]
    edit = draw(st.sampled_from(("none", "raise", "clear", "cross")))
    if edit == "raise":
        fusion[i, j, k] += draw(st.sampled_from((1, 2**40)))
    elif edit == "clear":
        fusion[i, j, k] = 0
    elif edit == "cross":
        fusion[i, j, k] = fusion[j, i, l] = 1
        fusion[i, j, l] = fusion[j, i, k] = 2
    return fusion


@st.composite
def _keyed_values(draw):
    """(keys, vals, bound) for `_unbalanced`: int64 values whose range takes
    `bits` bits, from 0 to 64 (values of +-(2^63 - 1)), placed at zero, at
    the bottom or the top of int64, or around zero, and a bound whose shift
    by `bits` lies at or next to 2^32 or 2^63.  The keys come from a few
    drawn keys, so that they repeat, and some values come with their
    negation under the same key, so that some keys balance."""
    bits = draw(st.integers(0, 64))
    span = min(2**bits - 1, 2**64 - 2)  # the values lie in [low, low + span]
    lows = (0, -(span // 2), -(2**63 - 1), 2**63 - 1 - span)
    low = draw(st.sampled_from([x for x in lows if -(2**63 - 1) <= x and x + span < 2**63]))
    bound = max(1, (2**draw(st.sampled_from((32, 63))) >> bits) + draw(st.integers(-1, 1)))
    top = min(bound, 2**63) - 1
    key = st.one_of(st.sampled_from((0, top)), st.integers(0, top))
    pool = draw(st.lists(key, min_size=1, max_size=4))
    value = st.one_of(st.sampled_from((low, low + span)), st.integers(low, low + span))
    keys, vals = [], []
    for key, x, mirrored in draw(st.lists(st.tuples(st.sampled_from(pool), value, st.booleans()),
                                          max_size=30)):
        keys.append(key)
        vals.append(x)
        if mirrored and low <= -x <= low + span:
            keys.append(key)
            vals.append(-x)
    return np.array(keys, dtype=np.int64), np.array(vals, dtype=np.int64), bound


def _from_products(labels, dual, products):
    """The commutative ring on `labels` whose products X Y, for the pairs
    listed, are the listed sums, a summand listed twice counted twice; X 1 = X."""
    r = len(labels)
    fusion = np.zeros((r, r, r), dtype=np.int64)
    fusion[0] = fusion[:, 0] = np.eye(r, dtype=np.int64)
    for pair, summands in products.items():
        x, y = sorted(labels.index(name) for name in pair.split())
        for name in summands.split(" + "):
            fusion[x, y, labels.index(name)] += 1
        fusion[y, x] = fusion[x, y]
    return FusionRing(labels, [labels.index(name) for name in dual], fusion)


# g is self-dual, b and b* are dual, h is self-dual.  g g holds three
# objects other than 1 and g, so g alone reaches nothing and G = {g, b, b*}.
# Light's identity holds for g but not for b: the ring is not associative.
_ONE_GENERATOR_SHORT = {
    "g g": "1 + g + b + b* + h",
    "g b": "g + b* + h",
    "g b*": "g + b + h",
    "g h": "g + b + b*",
    "b b": "g + b",
    "b b*": "1 + b + b*",
    "b h": "g + h",
    "b* b*": "g + b*",
    "b* h": "g + h",
    "h h": "1 + b + b*",
}


def _certified(ring):
    """The generators `verify_axioms` certified (None when it went straight
    to the full check), its violations, and whether the full associativity
    check ran: a call of `_associativity` with every object in the middle."""
    masks, real = [], ring_module._associativity

    def spy(*args):
        masks.append(args[-1].copy())  # verify_axioms reuses the mask
        return real(*args)

    with mock.patch.object(ring_module, "_associativity", side_effect=spy):
        violations = list(verify_axioms(ring).violations)
    gens = None if masks[0].all() else np.flatnonzero(masks[0]).tolist()
    return gens, violations, any(mask.all() for mask in masks)


def _certificate(ring) -> list[int]:
    """The generators `_generators` certifies for `ring`, increasing."""
    return np.flatnonzero(ring_module._generators(ring, *ring.nonzero())).tolist()


def _light_accepts(ring, gens) -> bool:
    """Whether Light's test with `gens` in place of the certified set lets
    `verify_axioms` skip the full check."""
    middle = np.zeros(ring.rank, dtype=bool)
    middle[list(gens)] = True
    with mock.patch.object(ring_module, "_generators", return_value=middle):
        return not _certified(ring)[2]


def _decisions(ring):
    """The violations of `verify_axioms(ring)`, and in order every call of
    the equality step and of the witness kernel: ("same", its answer) or
    ("unbalanced", the number of keys it found)."""
    calls, same, unbalanced = [], ring_module._same, ring_module._unbalanced

    def spy_same(*args):
        calls.append(("same", same(*args)))
        return calls[-1][1]

    def spy_unbalanced(*args):
        found = unbalanced(*args)
        calls.append(("unbalanced", len(found)))
        return found

    with mock.patch.object(ring_module, "_same", side_effect=spy_same), \
            mock.patch.object(ring_module, "_unbalanced", side_effect=spy_unbalanced):
        violations = list(verify_axioms(ring).violations)
    return violations, calls


_EMPTY_MIDDLE_SLICES = np.arange(64, dtype=np.int64).reshape(4, 4, 4) % 3
_EMPTY_MIDDLE_SLICES[1:3] = 0

# sha256 of the JSON of `verify_axioms(...).violations` for SO(N)_2 raised by
# one at three distinct non-unit indices, the corruption of the axioms ladder
_CORRUPTED_SO_N2_DIGESTS = {
    (27, (5, 11, 3)): "54be279c92dc3d4fae304b2a1e4cef8b41440a8e67bd0b92bc4c91121cb2c7e4",
    (68, (40, 7, 22)): "feb94f564abe351500e12768cbfe0b7cef2437a9e1a0ac58bbf4dc9b4c73d731",
    (110, (13, 58, 31)): "7218ad0871cd5bfc8227ccbb991dcfc9f38f34c19ecaaf7703abfd33efac75ad",
}


class TestAxioms:
    def test_pointed_and_examples_pass(self, fibonacci, ising):
        for r in (pointed_z(1), pointed_z(6), fibonacci, ising):
            assert verify_axioms(r).ok

    def test_broken_associativity_reported(self, ising):
        fusion = ising.fusion.copy()
        fusion[2, 2, 1] = 2  # sig (x) sig gains an extra psi
        bad = FusionRing(ising.labels, ising.dual, fusion)
        report = verify_axioms(bad)
        assert not report.ok
        assert any("assoc" in name for name, _ in report.violations)
        assert isinstance(report.violations, tuple)
        with pytest.raises(FrozenInstanceError):
            report.violations = ()

    def test_broken_unit_reported(self):
        fusion = np.zeros((2, 2, 2), dtype=np.int64)
        fusion[0, 0, 0] = 1
        fusion[1, 1, 0] = 1
        bad = FusionRing(("1", "x"), (0, 1), fusion)
        assert any("unit" in n for n, _ in verify_axioms(bad).violations)

    def test_associativity_exact_past_int64(self):
        # products of 2**32 entries wrap to 0 in int64; the check must not
        rng = np.random.default_rng(0)
        fusion = (rng.random((3, 3, 3)) < 0.3) * 2**32
        report = verify_axioms(FusionRing(("a", "b", "c"), (0, 1, 2), fusion))
        witnesses = [w for name, w in report.violations if name == "associativity"]
        assert len(witnesses) == 36
        assert witnesses == oracles.associativity_bruteforce(fusion)

    @settings(max_examples=200, deadline=None)
    @given(
        st.integers(1, 4).flatmap(
            lambda r: st.lists(
                st.sampled_from((0, 1, 2, 3, 2**32, 2**40)), min_size=r**3, max_size=r**3
            ).map(lambda entries: np.array(entries, dtype=np.int64).reshape(r, r, r))
        )
    )
    def test_associativity_matches_bruteforce_oracle(self, fusion):
        r = len(fusion)
        ring = FusionRing(tuple(map(str, range(r))), tuple(range(r)), fusion)
        witnesses = [w for name, w in verify_axioms(ring).violations if name == "associativity"]
        assert witnesses == oracles.associativity_bruteforce(fusion)

    @settings(max_examples=200, deadline=None)
    @given(
        st.integers(1, 5).flatmap(
            lambda r: st.tuples(
                st.lists(
                    st.sampled_from((0, 1, 2, 2**32, 2**40)), min_size=r**3, max_size=r**3
                ).map(lambda entries: np.array(entries, dtype=np.int64).reshape(r, r, r)),
                st.permutations(range(r)),
                st.integers(0, r // 2),
                st.booleans(),
                st.sampled_from((1, 7, ring_module.CHUNK)),
            )
        )
    )
    # slices 1 and 2 hold no nonzero, next to batches that end part-way
    # through a slice
    @example((_EMPTY_MIDDLE_SLICES, [0, 1, 2, 3], 0, False, 1))
    @example((_EMPTY_MIDDLE_SLICES, [0, 1, 2, 3], 0, False, 7))
    def test_every_violation_matches_bruteforce_oracle(self, case):
        # mostly non-commutative tensors; the dual swaps `swaps` pairs of a
        # random permutation, the unit among them at times.  Small batches cut
        # the associativity check into single rows (i, j) or a few of them.
        fusion, perm, swaps, unital, batch = case
        r = len(fusion)
        if unital:
            fusion[0] = fusion[:, 0] = np.eye(r, dtype=np.int64)
        dual = list(range(r))
        for a, b in zip(perm[: 2 * swaps : 2], perm[1 : 2 * swaps : 2]):
            dual[a], dual[b] = b, a
        ring = FusionRing(tuple(map(str, range(r))), dual, fusion)
        with mock.patch.object(ring_module, "CHUNK", batch):
            violations = list(verify_axioms(ring).violations)
        assert violations == oracles.verify_axioms_bruteforce(fusion, dual)

    def test_noncommutative_group_ring(self):
        # the group ring of S_3 with X* = X^-1 passes; raising one product
        # breaks Frobenius reciprocity and associativity around it
        perms = list(permutations(range(3)))
        fusion = np.zeros((6, 6, 6), dtype=np.int64)
        for a, p in enumerate(perms):
            for b, q in enumerate(perms):
                fusion[a, b, perms.index(tuple(p[x] for x in q))] = 1
        dual = [perms.index(tuple(p.index(x) for x in range(3))) for p in perms]
        labels = tuple(map(str, range(6)))
        ring = FusionRing(labels, dual, fusion)
        assert not is_commutative(ring) and dual != list(range(6))
        assert verify_axioms(ring).ok
        fusion[3, 4, 5] += 1
        report = verify_axioms(FusionRing(labels, dual, fusion))
        assert {kind for kind, _ in report.violations} == {
            "frobenius_left", "frobenius_right", "associativity"
        }
        assert list(report.violations) == oracles.verify_axioms_bruteforce(fusion, dual)

    @settings(max_examples=400, deadline=None)
    @given(_edited_nonzeros(), st.sampled_from((1000, 2**63 - 1)))
    @example((np.array([3, 5]), np.array([2, 1]), np.array([3, 5]), np.array([1, 2])), 2**63 - 1)
    @example((np.array([3, 5]), np.array([2, 1]), np.array([3, 5]), np.array([1, 2])), 1000)
    def test_same_nonzeros_matches_a_sort_oracle(self, case, bound):
        # cells below 1000: with a multiplicity above 1, a bound of 2^63 - 1
        # leaves no low bits and takes the argsort
        cells, mults, ref_cells, ref_mults = case
        want = sorted(zip(cells.tolist(), mults.tolist())) == list(zip(ref_cells.tolist(), ref_mults.tolist()))
        bits = int(max(mults.max(initial=1), ref_mults.max(initial=1)) - 1).bit_length()
        with mock.patch.object(np, "argsort", wraps=np.argsort) as argsort:
            assert ring_module._same_nonzeros(cells, mults, ref_cells, ref_mults, bound) == want
        assert argsort.called == (bound << bits > 2**63)

    @settings(max_examples=300, deadline=None)
    @given(_near_commutative())
    def test_is_commutative_matches_bruteforce_oracle(self, fusion):
        ring = FusionRing(tuple(map(str, range(len(fusion)))), range(len(fusion)), fusion)
        assert is_commutative(ring) == oracles.commutative_bruteforce(fusion)

    def test_sums_without_packed_positions(self):
        # keys too large to carry their positions in the low bits are argsorted
        rng = np.random.default_rng(0)
        keys, vals = rng.integers(0, 50, 1000), rng.integers(-2, 3, 1000)
        want = [key for key in range(50) if vals[keys == key].sum() != 0]
        assert ring_module._unbalanced(keys, vals, 50).tolist() == want
        big = [key * 2**56 for key in want]
        assert ring_module._unbalanced(keys * 2**56, vals, 2**62).tolist() == big

    @settings(max_examples=500, deadline=None)
    @given(_keyed_values(), st.booleans())
    @example((np.array([], dtype=np.int64), np.array([], dtype=np.int64), 1), False)
    @example((np.array([0, 0, 5]), np.array([2**63 - 1, -(2**63 - 1), 2**63 - 1]), 8), False)
    @example((np.array([2**32, 0]), np.array([1, 1]), 2**32 + 1), False)
    @example((np.array([0, 0, 0]), np.array([0, 2**32 - 1, 5]), 1), False)
    @example((np.array([2**31 - 1, 2**31 - 1, 0]), np.array([-1, 0, 1]), 2**31), False)
    def test_unbalanced_matches_a_counter_oracle(self, case, as_object):
        # int64 sums wrap modulo 2^64, Python ints do not; the argsort takes
        # object values and keys whose bound, shifted by the width of the
        # value range, passes 2^63
        keys, vals, bound = case
        want = oracles.unbalanced_bruteforce(keys, vals, None if as_object else 2**64)
        width = (int(vals.max()) - int(vals.min())).bit_length() if len(vals) else 0
        if as_object:
            vals = vals.astype(object)
        with mock.patch.object(np, "argsort", wraps=np.argsort) as argsort:
            assert ring_module._unbalanced(keys, vals, bound).tolist() == want
        assert argsort.called == (len(keys) > 0 and (as_object or bound << width > 2**63))

    @settings(max_examples=300, deadline=None)
    @given(_keyed_values())
    @example((np.array([2**32 - 1, 0, 2**31]), np.zeros(3, dtype=np.int64), 2**32))
    @example((np.array([2**32, 0, 1]), np.zeros(3, dtype=np.int64), 2**32 + 1))
    def test_same_matches_a_counter_oracle(self, case):
        # 32-bit halves up to a bound of 2^32, keys with the top bit set
        # among them; past it, a key of 2^32 is not the key 0
        keys, _, bound = case
        n = len(keys)
        pair = np.concatenate((keys, np.roll(keys[::-1], 1)))
        cases = [(pair, n), (np.concatenate((keys, keys % 2**32)), n)]
        if n:
            moved = pair.copy()
            moved[-1] = (int(moved[-1]) + 1) % min(bound, 2**63)
            cases += [(moved, n), (pair, n - 1), (pair, n + 1)]
        for halves, split in cases:
            assert ring_module._same(halves, split, bound) == oracles.same_bruteforce(halves, split)

    def test_associativity_keys_past_int64(self):
        # at rank 60000, r^4 > 2^63: slices 0, b and a = r - 1 would share one
        # batch of keys (i, j, k, l) that overflow; X_a X_a = X_b and
        # X_b X_a = X_a give (X_a X_a) X_a = X_a but X_a (X_a X_a) = 0
        r = 60000
        a, b = r - 1, r - 2
        cells = [0, (b * r + a) * r + a, (a * r + a) * r + b]
        ring = FusionRing.from_nonzeros(map(str, range(r)), range(r), cells, [1, 1, 1])
        witnesses = [w for kind, w in verify_axioms(ring).violations if kind == "associativity"]
        assert witnesses == [(b, b, a, a), (b, a, a, b), (a, b, a, b), (a, a, a, a)]

    @pytest.mark.parametrize("r, wide", [(150, False), (200, True)])
    def test_sparse_high_rank_witnesses_match_bruteforce_oracle(self, r, wide):
        # the unit fails, so the full check takes every (i, j) in one batch
        # of bound r^4; its products lie in [-2, 2], three bits under the
        # keys.  At rank 150 the packed keys reach past 2^31 and stay below
        # 2^32, the top bit of 32-bit words; at rank 200 they pass 2^32 and
        # sort as int64.  The products lie among X_0 and the three last objects
        at = np.array([0, r - 3, r - 2, r - 1])
        small = np.zeros((4, 4, 4), dtype=np.int64)  # the products among X_at
        small[0, 0, 0] = small[1, 1, 2] = small[2, 1, 1] = small[3, 3, 3] = small[1, 3, 2] = 1
        small[2, 1, 1] += 1
        i, j, k = np.nonzero(small)
        cells = (at[i] * r + at[j]) * r + at[k]
        order = np.argsort(cells)
        ring = FusionRing.from_nonzeros(map(str, range(r)), range(r), cells[order],
                                        small[i, j, k][order])
        packed, real = [], ring_module._unbalanced

        def spy(keys, vals, bound):
            if len(vals):
                packed.append(bound << (int(vals.max()) - int(vals.min())).bit_length())
            return real(keys, vals, bound)

        with mock.patch.object(ring_module, "_unbalanced", side_effect=spy):
            violations = verify_axioms(ring).violations
        assert packed[-1] > 2**32 if wide else 2**31 <= packed[-1] <= 2**32
        witnesses = [w for kind, w in violations if kind == "associativity"]
        # every witness lies among the objects with products: the oracle's
        # witnesses on the small tensor, in the same order
        assert witnesses and witnesses == [
            tuple(int(at[x]) for x in w) for w in oracles.associativity_bruteforce(small)]

    def test_large_rank_passes(self):
        ring = build_so_n2(160)
        assert ring.rank == 87
        assert verify_axioms(ring).ok

    @settings(max_examples=300, deadline=None)
    @given(_frobenius_closed(), st.sampled_from((1, 7, ring_module.CHUNK)))
    def test_light_test_matches_bruteforce_oracle(self, case, batch):
        # every draw reaches Light's test; batches of 1 and 7 products cut it
        # into single x
        fusion, dual = case
        ring = FusionRing(tuple(map(str, range(len(fusion)))), dual, fusion)
        with mock.patch.object(ring_module, "CHUNK", batch):
            violations = list(verify_axioms(ring).violations)
        assert {kind for kind, _ in violations} <= {"associativity"}
        assert violations == oracles.verify_axioms_bruteforce(fusion, dual)

    def test_unit_failure_takes_the_full_check(self, ising):
        fusion = ising.fusion.copy()
        fusion[0, 2, 1] = 1  # 1 (x) sig gains a psi
        ring = FusionRing(ising.labels, ising.dual, fusion)
        gens, violations, full = _certified(ring)
        assert gens is None and full
        assert {"unit_left", "associativity"} <= {kind for kind, _ in violations}
        assert violations == oracles.verify_axioms_bruteforce(fusion, ising.dual)

    def test_so_n2_rings_take_light_test(self):
        for n in (*range(2, 41), 110, 117):
            gens, violations, full = _certified(build_so_n2(n))
            assert not violations and not full, n

    @pytest.mark.parametrize("dropped", ["first", "last"])
    def test_dropping_a_generator_is_caught(self, dropped):
        if dropped == "last":
            # SO(3)_2 with X1 (x) X1 gaining X1: Light's identity holds for Z
            # but not for V+
            so3 = build_so_n2(3)
            fusion = so3.fusion.copy()
            fusion[4, 4, 4] += 1
            ring = FusionRing(so3.labels, so3.dual, fusion)
        else:
            # b is invertible and fixes a and c, so Light's identity holds
            # for b; it fails for a
            ring = _from_products(("1", "a", "b", "c"), ("1", "a", "b", "c"), {
                "a a": "1 + a + b + c", "a b": "a", "a c": "a + c",
                "b b": "1", "b c": "c", "c c": "1 + a + b + c + c"})
        gens, violations, full = _certified(ring)
        assert gens == [1, 2]
        assert _light_accepts(ring, [2] if dropped == "first" else [1])
        assert full and violations
        assert violations == oracles.verify_axioms_bruteforce(ring.fusion, ring.dual)

    @pytest.mark.parametrize("labels", [("1", "g", "b", "b*", "h"), ("1", "g", "h", "b", "b*")])
    def test_reaching_a_summand_that_is_not_the_only_unreached_one_is_caught(self, labels):
        # taking any unreached summand of g g as reached would reach every
        # object from g alone, and Light's test on g alone passes
        dual = {"1": "1", "g": "g", "b": "b*", "b*": "b", "h": "h"}
        ring = _from_products(labels, [dual[x] for x in labels], _ONE_GENERATOR_SHORT)
        gens, violations, full = _certified(ring)
        assert len(gens) == 3 and gens[0] == 1
        assert _light_accepts(ring, [1])
        assert full and violations
        assert violations == oracles.verify_axioms_bruteforce(ring.fusion, ring.dual)

    def test_generators_match_the_plain_loop_oracle(self):
        # SO(N)_2 in all three residue classes up to rank 69, Ising^2 and
        # pointed rings
        rings = [build_so_n2(n) for n in (*range(2, 41), *range(41, 131, 7), 112, 128, 130)]
        rings.append(ising_squared_data(IsingParams(1, 7)).ring)
        rings += [pointed_ribbon_data(cyclic_form(n, 1)).ring for n in (2, 3, 5, 8, 9, 16, 27)]
        for ring in rings:
            assert _certificate(ring) == oracles.light_generators_bruteforce(ring.fusion), ring

    @settings(max_examples=200, deadline=None)
    @given(_frobenius_closed())
    def test_generators_of_frobenius_closed_tensors_match_the_oracle(self, case):
        fusion, dual = case
        ring = FusionRing(tuple(map(str, range(len(fusion)))), dual, fusion)
        assert _certificate(ring) == oracles.light_generators_bruteforce(fusion)

    @pytest.mark.parametrize("batch", [2**12, ring_module.CHUNK])
    def test_witnesses_past_rank_ten_match_recorded_digests(self, batch):
        # ranks 17, 41 and 62, one N in each residue class: every witness and
        # its order, whatever the batches, where the oracle differentials stop
        wrong = []
        for (n, where), want in _CORRUPTED_SO_N2_DIGESTS.items():
            ring = build_so_n2(n)
            fusion = ring.fusion.copy()
            fusion[where] += 1
            with mock.patch.object(ring_module, "CHUNK", batch):
                violations = verify_axioms(FusionRing(ring.labels, ring.dual, fusion)).violations
            if hashlib.sha256(json.dumps(violations).encode()).hexdigest() != want:
                wrong.append(n)
        assert not wrong

    def test_batches_keep_near_assoc_batch(self):
        # a batch ends at the first row (i, j) past CHUNK products, as
        # estimated from its slice; at rank 62 the estimate is off by less
        # than that, so no batch of Light's test or of the full check reaches
        # twice as many.  A batch of Light's test that balances never reaches
        # `_unbalanced`, so the equality step is spied as well
        sizes, light, real, same = [], [], ring_module._unbalanced, ring_module._same

        def spy(keys, vals, bound):
            sizes.append(len(keys))
            return real(keys, vals, bound)

        def spy_same(keys, n, bound):
            light.append(len(keys))
            return same(keys, n, bound)

        ring = build_so_n2(110)
        fusion = ring.fusion.copy()
        fusion[13, 58, 31] += 1
        with mock.patch.object(ring_module, "_unbalanced", side_effect=spy), \
                mock.patch.object(ring_module, "_same", side_effect=spy_same):
            assert verify_axioms(ring).ok
            assert not verify_axioms(FusionRing(ring.labels, ring.dual, fusion)).ok
        assert len(sizes) > 50 and max(sizes) < 2 * ring_module.CHUNK
        assert len(light) > 1 and max(light) < 2 * ring_module.CHUNK

    def test_multiplicities_above_one_pass_light_test(self):
        # X X = 1 + 2X, and its product with Z_3: with a product above 1,
        # equal keys do not make equal sums, so every batch of Light's test
        # goes to the witness kernel, which finds nothing
        silver = _from_products(("1", "X"), ("1", "X"), {"X X": "1 + X + X"})
        silver = FusionRing(silver.labels, silver.dual, silver.fusion, (ONE, 1 + AlgebraicReal.sqrt(2)))
        for ring in (silver, deligne_product(silver, pointed_z(3))):
            violations, calls = _decisions(ring)
            assert violations == oracles.verify_axioms_bruteforce(ring.fusion, ring.dual) == []
            assert ring.mults.max() == 2 and len(calls) > 3
            assert set(calls) == {("unbalanced", 0)}

    def test_frobenius_partners_with_unequal_multiplicities_are_caught(self):
        # N_{ab}^c = 2 while its Frobenius partners stay 1: the permuted cells
        # are the cells again, but not with the same multiplicities
        ring = build_so_n2(9)
        i, j, k = ring.nonzero()
        where = next((a, b, c) for a, b, c in zip(i.tolist(), j.tolist(), k.tolist())
                     if min(a, b, c) > 0 and len({a, b, c}) == 3)
        fusion = ring.fusion.copy()
        fusion[where] = 2
        violations = list(verify_axioms(FusionRing(ring.labels, ring.dual, fusion)).violations)
        assert {"frobenius_left", "frobenius_right"} <= {kind for kind, _ in violations}
        assert violations == oracles.verify_axioms_bruteforce(fusion, ring.dual)

    def test_light_test_stops_at_its_first_failing_batch(self):
        # raising a zero cell to 1 with all its Frobenius partners keeps the
        # unit, duality and Frobenius checks, and every product 1: Light's
        # test passes some batches by equality, then finds a witness and
        # stops, and the full check lists every witness
        ring = build_so_n2(17)
        fusion = ring.fusion.copy()
        assert not fusion[9, 9, 9]
        for cell in _orbit((9, 9, 9), ring.dual):
            fusion[cell] += 1
        assert fusion.max() == 1
        with mock.patch.object(ring_module, "CHUNK", 64):
            violations, calls = _decisions(FusionRing(ring.labels, ring.dual, fusion))
        assert violations == oracles.verify_axioms_bruteforce(fusion, ring.dual)
        assert {kind for kind, _ in violations} == {"associativity"}
        stop = next(n for n, (step, found) in enumerate(calls) if step == "unbalanced" and found)
        assert calls[:3] == [("unbalanced", 0)] * 3  # unit and duality
        assert {step for step, _ in calls[3:stop]} == {"same"} and ("same", True) in calls[3:stop]
        assert calls[stop + 1:] and {step for step, _ in calls[stop + 1:]} == {"unbalanced"}

    def test_so_1000_within_time_guard(self):
        ring = build_so_n2(1000)
        start = time.perf_counter()
        assert verify_axioms(ring).ok
        assert time.perf_counter() - start < 20


# ---------------------------------------------------------------------------
# dimensions


_PHI = AlgebraicReal(Fraction(1, 2), Fraction(1, 2), 5)
_DIM_VALUES = (ONE, AlgebraicReal.of(2), AlgebraicReal.sqrt(2), AlgebraicReal.sqrt(3), _PHI,
               ONE - _PHI)
_EXAMPLES = (
    fibonacci_ring(),
    ising_ring(),
    build_so_n2(3),
    build_so_n2(4),
    FusionRing(pointed_z(4).labels, pointed_z(4).dual, pointed_z(4).fusion, (ONE,) * 4),
)


@st.composite
def _tensors_with_dims(draw):
    """An example ring with its true dims, their Galois conjugates or up to
    two of them replaced, or a tensor of rank 1 to 5 with arbitrary dims.
    Multiplicities of 2**62 push the check past float64."""
    if draw(st.booleans()):
        ring = draw(st.sampled_from(_EXAMPLES))
        fusion, dual, dims = ring.fusion, ring.dual, list(ring.exact_dims)
        if draw(st.booleans()):
            dims = [AlgebraicReal(d.a, -d.b, d.t) for d in dims]
        for i in draw(st.lists(st.integers(0, ring.rank - 1), max_size=2)):
            dims[i] = draw(st.sampled_from(_DIM_VALUES))
    else:
        r = draw(st.integers(1, 5))
        entries = draw(st.lists(st.sampled_from((0, 1, 2, 2**40, 2**62)),
                                min_size=r**3, max_size=r**3))
        fusion = np.array(entries, dtype=np.int64).reshape(r, r, r)
        dual = tuple(range(r))
        dims = draw(st.lists(st.sampled_from(_DIM_VALUES), min_size=r, max_size=r))
    return fusion, dual, tuple(dims)


def _rank_two(c0, c1):
    """X (x) X = c0 1 + c1 X."""
    fusion = np.zeros((2, 2, 2), dtype=np.int64)
    fusion[0, 0, 0] = fusion[0, 1, 1] = fusion[1, 0, 1] = 1
    fusion[1, 1] = c0, c1
    return fusion


class TestDimensions:
    @settings(max_examples=300, deadline=None)
    @given(_tensors_with_dims())
    # rational parts agree but the sqrt(2) parts do not: 2 = 2 * 1, 0 != 1 * sqrt 2
    @example((_rank_two(2, 1), (0, 1), (ONE, AlgebraicReal.sqrt(2))))
    # a positive character off the unit: d_0 * d_0 = 2 d_0 with d_0 = 2
    @example((np.full((1, 1, 1), 2), (0,), (AlgebraicReal.of(2),)))
    def test_character_check_matches_the_oracle(self, case):
        fusion, dual, dims = case
        r = len(dims)
        ring = FusionRing(tuple(map(str, range(r))), dual, fusion, dims)
        ribbon = RibbonData(ring, dims, (Phase.of(0),) * r)
        dual_invariant = all(dims[dual[i]] == dims[i] for i in range(r))
        try:
            hom = oracles.character_bruteforce(fusion, dims)
        except UnsupportedInputError:
            with pytest.raises(UnsupportedInputError):
                exact_dimensions(ring)
            if dual_invariant:
                with pytest.raises(UnsupportedInputError):
                    ribbon.validate()
            return
        positive = hom and dims[0] == ONE and all(float(d) > 0 for d in dims)
        assert _is_character(ring, dims) == positive
        assert _is_character(ring, dims, positive=False) == hom
        with mock.patch.object(ring_module, "CHUNK", 1):  # a block per first index
            assert _is_character(ring, dims) == positive
            assert _is_character(ring, dims, positive=False) == hom
        if positive:
            assert exact_dimensions(ring) == dims
            assert fp_dimensions(ring).tolist() == [float(d) for d in dims]
        else:
            with pytest.raises(InternalConsistencyError):
                exact_dimensions(ring)
        if dual_invariant and hom:
            ribbon.validate()
        elif dual_invariant:
            with pytest.raises(MalformedInputError):
                ribbon.validate()

    def test_noncommutative_group_ring_dims_are_checked(self):
        # the group ring of S3: a character needs no commutativity, so the
        # attached dims are checked; without them eigh refuses the ring
        perms = sorted(permutations(range(3)))
        index = {g: n for n, g in enumerate(perms)}
        fusion = np.zeros((6, 6, 6), dtype=np.int64)
        for g in perms:
            for h in perms:
                fusion[index[g], index[h], index[tuple(g[x] for x in h)]] = 1
        dual = tuple(index[tuple(g.index(x) for x in range(3))] for g in perms)
        labels = tuple("".join(map(str, g)) for g in perms)
        ring = FusionRing(labels, dual, fusion, (ONE,) * 6)
        assert not is_commutative(ring) and verify_axioms(ring).ok
        assert exact_dimensions(ring) == (ONE,) * 6
        assert fp_dimensions(ring).tolist() == [1.0] * 6
        raised = FusionRing(labels, dual, fusion, (ONE,) * 5 + (AlgebraicReal.of(2),))
        with pytest.raises(InternalConsistencyError):
            exact_dimensions(raised)
        with pytest.raises(InternalConsistencyError):
            fp_dimensions(raised)
        with pytest.raises(UnsupportedInputError):
            fp_dimensions(FusionRing(labels, dual, fusion))

    def test_checked_once_per_ring(self):
        ring = build_so_n2(30)
        before = (repr(ring), ring.dumps())
        with mock.patch.object(ring_module, "_is_character", wraps=_is_character) as check:
            dims = exact_dimensions(ring)
            assert exact_dimensions(ring) is dims is ring.exact_dims
            structure_census(ring, 30)
            gn_grading(ring)
            condense_boson(ring, ring.index("Z"))
            assert check.call_count == 1
            # the rebuilt dims are kept as well
            bare = FusionRing.from_nonzeros(ring.labels, ring.dual, ring.cells, ring.mults)
            rebuilt = exact_dimensions(bare)
            assert rebuilt == dims and exact_dimensions(bare) is rebuilt
            assert check.call_count == 2
        # the kept dims are not part of the value
        assert (repr(ring), ring.dumps()) == before
        assert ring == FusionRing.loads(before[1]) and bare.exact_dims is None

    def test_failed_check_keeps_nothing(self):
        ring = build_so_n2(30)
        wrong = FusionRing.from_nonzeros(ring.labels, ring.dual, ring.cells, ring.mults,
                                         ring.exact_dims[:-1] + (AlgebraicReal.of(2),))
        with mock.patch.object(ring_module, "_is_character", wraps=_is_character) as check:
            for _ in range(2):
                with pytest.raises(InternalConsistencyError):
                    exact_dimensions(wrong)
            assert check.call_count == 2
        fibonacci = fibonacci_ring()
        bare = FusionRing(fibonacci.labels, fibonacci.dual, fibonacci.fusion)
        for _ in range(2):
            with pytest.raises(UnsupportedInputError):
                exact_dimensions(bare)

    def test_character_check_by_blocks(self, monkeypatch):
        # blocks of at most 64 nonzeros; one multiplicity raised changes one
        # row (i, j), which only the block of first index i contracts
        monkeypatch.setattr(ring_module, "CHUNK", 64)
        ring = build_so_n2(30)
        assert _is_character(ring, ring.exact_dims)
        for at in (0, len(ring.cells) // 2, len(ring.cells) - 1):
            mults = ring.mults.copy()
            mults[at] += 1
            raised = FusionRing.from_nonzeros(ring.labels, ring.dual, ring.cells, mults)
            assert not _is_character(raised, ring.exact_dims, positive=False)

    def test_fibonacci_dim(self, fibonacci):
        d = fp_dimensions(fibonacci)
        assert abs(d[1] - (1 + 5**0.5) / 2) < 1e-9

    def test_ising_dim(self, ising):
        d = fp_dimensions(ising)
        assert abs(d[ising.index("sig")] - 2**0.5) < 1e-9

    def test_dims_satisfy_fusion_homomorphism(self, fibonacci, ising, so_rings):
        for r in (fibonacci, ising, so_rings(7), so_rings(12)):
            d = fp_dimensions(r)
            lhs = np.outer(d, d)
            rhs = np.einsum("ijk,k->ij", r.fusion.astype(float), d)
            assert np.max(np.abs(lhs - rhs)) < 1e-9

    def test_dims_at_least_one_and_dual_invariant(self, fibonacci, ising, so_rings):
        for r in (fibonacci, ising, so_rings(9), so_rings(10), so_rings(16)):
            d = fp_dimensions(r)
            assert np.all(d >= 1 - FLOAT_TOL)
            assert np.max(np.abs(d[list(r.dual)] - d)) < 1e-9

    def test_global_dim(self, ising):
        assert (fp_dimensions(ising) ** 2).sum() == pytest.approx(4.0, abs=1e-9)

    def test_exact_dim_mismatch_raises(self, ising):
        wrong = (AlgebraicReal.of(1), AlgebraicReal.of(1), AlgebraicReal.of(2))
        bad = FusionRing(ising.labels, ising.dual, ising.fusion, exact_dims=wrong)
        with pytest.raises(InternalConsistencyError):
            fp_dimensions(bad)

    def test_galois_conjugate_dims_rejected(self, fibonacci):
        # (1 - sqrt 5) / 2 satisfies every fusion rule but is not positive
        conjugate = (AlgebraicReal.of(1), AlgebraicReal(Fraction(1, 2), Fraction(-1, 2), 5))
        bad = FusionRing(fibonacci.labels, fibonacci.dual, fibonacci.fusion, conjugate)
        with pytest.raises(InternalConsistencyError):
            fp_dimensions(bad)

    def test_exact_check_past_float_precision(self):
        # X (x) X = 1 + m X has d = (m + sqrt(m^2 + 4)) / 2; at m = 2**14 the
        # products of the check pass 2**53 and run on Python ints
        m = 2**14
        fusion = np.zeros((2, 2, 2), dtype=np.int64)
        fusion[0, 0, 0] = fusion[0, 1, 1] = fusion[1, 0, 1] = fusion[1, 1, 0] = 1
        fusion[1, 1, 1] = m
        d = AlgebraicReal.sqrt(m * m + 4) * Fraction(1, 2) + Fraction(m, 2)
        ring = FusionRing(("1", "x"), (0, 1), fusion, (AlgebraicReal.of(1), d))
        assert fp_dimensions(ring)[1] == pytest.approx(float(d), rel=1e-15)
        off = FusionRing(ring.labels, ring.dual, fusion, (AlgebraicReal.of(1), d + Fraction(1, 2**40)))
        with pytest.raises(InternalConsistencyError):
            fp_dimensions(off)

    def test_sum_matrix_exact_past_int64(self):
        # three multiplicities of 2**63 - 1 wrapped to 2**63 - 3 in int64
        big = 2**63 - 1
        ring = FusionRing(("a", "b", "c"), (0, 1, 2), np.full((3, 3, 3), big))
        assert _sum_matrix(ring)[0, 0] == 3 * big

    def test_vanishing_square_is_malformed(self):
        # x (x) x = 0: the sum of the fusion matrices has a zero entry
        fusion = np.zeros((2, 2, 2), dtype=np.int64)
        fusion[0, 0, 0] = fusion[0, 1, 1] = fusion[1, 0, 1] = 1
        with pytest.raises(MalformedInputError):
            fp_dimensions(FusionRing(("1", "x"), (0, 1), fusion))

    def test_exact_dimensions_rebuilt_without_attached_dims(self):
        ring = build_so_n2(12)
        data = ring.to_json_dict()
        del data["dims"]
        bare = FusionRing.from_json_dict(data)
        assert bare.exact_dims is None
        assert exact_dimensions(bare) == ring.exact_dims
        assert gn_grading(bare) == gn_grading(ring)

    def test_fibonacci_without_dims(self, fibonacci):
        bare = FusionRing(fibonacci.labels, fibonacci.dual, fibonacci.fusion)
        assert fp_dimensions(bare)[1] == pytest.approx((1 + 5**0.5) / 2, abs=1e-12)
        with pytest.raises(UnsupportedInputError):
            exact_dimensions(bare)
        with pytest.raises(UnsupportedInputError):
            gn_grading(bare)

    def test_noncommutative_rejected(self):
        # left-regular representation of S3 is not a valid commutative input;
        # fake a minimal non-commutative tensor that still passes construction
        fusion = np.zeros((3, 3, 3), dtype=np.int64)
        for i in range(3):
            fusion[0, i, i] = fusion[i, 0, i] = 1
        fusion[1, 1, 0] = fusion[2, 2, 0] = 1
        fusion[1, 2, 1] = 1
        fusion[2, 1, 2] = 1
        r = FusionRing(("1", "a", "b"), (0, 1, 2), fusion)
        assert not is_commutative(r)
        with pytest.raises(UnsupportedInputError):
            fp_dimensions(r)


# ---------------------------------------------------------------------------
# hom spaces and asymptotics


class TestHom:
    def test_matches_bruteforce_oracle(self, fibonacci, ising, so_rings):
        rings = [fibonacci, ising, pointed_z(5), so_rings(5), so_rings(8)]
        for r in rings:
            if r.rank > 8:
                continue
            for word_len in range(1, 7):
                word = [(3 * i + 1) % r.rank for i in range(word_len)]
                for target in range(r.rank):
                    assert hom_space_dim(r, word, target) == oracles.hom_dim_bruteforce(
                        r, word, target
                    )

    def test_ising_sigma_powers(self, ising):
        sig = ising.index("sig")
        for n in range(1, 11):
            assert hom_space_dim(ising, [sig] * (2 * n), 0) == 2 ** (n - 1)

    def test_fibonacci_ratio_squares(self, fibonacci):
        phi = (1 + 5**0.5) / 2
        assert asymptotic_dim_ratio(fibonacci, 1, 30) == pytest.approx(
            phi * phi, abs=1e-6
        )

    def test_ising_ratio_exact(self, ising):
        assert asymptotic_dim_ratio(ising, ising.index("sig"), 20) == 2.0

    def test_too_small_power_rejected(self, ising):
        with pytest.raises(MalformedInputError):
            asymptotic_dim_ratio(ising, ising.index("sig"), 0)

    def test_so_n2_ratio_is_d_to_the_period(self, so_rings):
        # dimension as a quantum statistic: over one period k, the least
        # power with Hom(1, X^k) != 0, invariants grow by d^k
        for n in range(2, 13):
            r = so_rings(n)
            dims = exact_dimensions(r)
            for i in range(r.rank):
                k = next(k for k in range(1, r.rank + 1) if hom_space_dim(r, [i] * k, 0))
                want = float(dims[i]) ** k
                assert asymptotic_dim_ratio(r, i, 60) == pytest.approx(want, rel=2e-3), (n, i)
        # the N = 2 mod 4 spinors have period 4: SO(6)_2's V+ gives 3^2, not 3
        r = so_rings(6)
        v = r.index("V+")
        assert [hom_space_dim(r, [v] * k, 0) for k in range(1, 5)] == [0, 0, 0, 1]
        assert asymptotic_dim_ratio(r, v, 60) == pytest.approx(9, rel=2e-3)

    @pytest.mark.parametrize("word, target", [([], 0), ([3], 0), ([0, 3], 0), ([2, 2], 3)])
    def test_word_outside_the_basis_rejected(self, ising, word, target):
        with pytest.raises(MalformedInputError):
            hom_space_dim(ising, word, target)

    @pytest.mark.parametrize("bad", [-1, 3])
    def test_index_outside_the_basis_is_named(self, ising, bad):
        # the message names the index; 3 is the rank
        for call in (lambda: ising.row(0, bad), lambda: ising.row(bad, 0),
                     lambda: hom_space_dim(ising, [1, bad], 0),
                     lambda: hom_space_dim(ising, [1], bad)):
            with pytest.raises(MalformedInputError, match=rf"^{bad} is not a basis index"):
                call()

    @pytest.mark.parametrize("bad", [1.0, 1.5, True, np.float64(1), np.bool_(True), "1", None])
    def test_index_that_is_not_an_integer_is_refused(self, bad):
        # unchecked, row(1.0, 2) gives ([3.], [1]), True passes as 1 and
        # hom_space_dim(ring, [1, 2], 1.5) gives 0
        ring = build_so_n2(12)
        for call in (lambda: ring.row(bad, 2), lambda: ring.row(2, bad),
                     lambda: hom_space_dim(ring, [1, 2], bad), lambda: hom_space_dim(ring, [bad], 0),
                     lambda: subring_generated(ring, [bad])):
            with pytest.raises(MalformedInputError, match="is not a basis index"):
                call()

    @pytest.mark.parametrize("word", [
        np.array([4, 4]), iter([4, 4]), (x for x in (4, 4))])
    def test_word_is_any_iterable_of_indices(self, word):
        # numpy arrays raised numpy's bare ValueError, iterators a TypeError
        ring = build_so_n2(12)
        assert hom_space_dim(ring, word, 0) == hom_space_dim(ring, [4, 4], 0) == 1

    @pytest.mark.parametrize("word", [4, None, 1.5, np.int64(1)])
    def test_word_that_is_not_iterable_is_refused(self, ising, word):
        with pytest.raises(MalformedInputError, match="not an iterable of indices"):
            hom_space_dim(ising, word, 0)

    @pytest.mark.parametrize("n", [2.5, np.int64(3), True, "3", None])
    def test_asymptotic_ratio_takes_an_int_n(self, ising, n):
        # unchecked, 2.5 raised a bare TypeError and np.int64(3) was accepted
        with pytest.raises(MalformedInputError, match="needs an int n >= 2"):
            asymptotic_dim_ratio(ising, ising.index("sig"), n)

    def test_numpy_integer_indices_are_accepted(self):
        ring = build_so_n2(12)
        for got, want in zip(ring.row(np.int64(1), np.int32(2)), ring.row(1, 2)):
            assert np.array_equal(got, want)
        assert hom_space_dim(ring, [np.int64(4), 4], np.uint8(0)) == hom_space_dim(ring, [4, 4], 0)
        assert subring_generated(ring, [np.int64(1)]) == subring_generated(ring, [1])


# ---------------------------------------------------------------------------
# invertibles, subrings, gradings


class TestStructure:
    def test_invertibles_are_the_dim_one_objects(self, so_rings):
        for n in (6, 8, 9):
            r = so_rings(n)
            d = fp_dimensions(r)
            grp = invertibles(r)
            assert set(grp.elements) == {
                i for i in range(r.rank) if d[i] <= 1 + FLOAT_TOL
            }
            # closure under fusion
            for a in grp.elements:
                for b in grp.elements:
                    k = int(np.nonzero(r.fusion[a, b])[0][0])
                    assert k in grp.elements

    def test_invertible_group_structure(self, so_rings):
        assert invertibles(so_rings(7)).invariant_factors() == [2]
        assert invertibles(so_rings(12)).invariant_factors() == [2, 2]
        assert invertibles(so_rings(10)).invariant_factors() == [4]
        # a value: frozen, and hashable since the group law is a tuple table
        group = invertibles(so_rings(12))
        assert hash(group) == hash(invertibles(so_rings(12)))
        with pytest.raises(FrozenInstanceError):
            group.table = ()

    def test_decompose_every_small_abelian_group(self):
        # Z_d1 x ... x Z_dk with its elements relabelled at random: the
        # factors are the chain, and the exponents an isomorphism onto it
        rng = random.Random(0)
        for order in range(1, 65):
            for chain in oracles._chains(order):
                elems = list(itertools.product(*(range(d) for d in chain)))
                label = rng.sample(range(order), order)
                at = {x: label[n] for n, x in enumerate(elems)}
                table = [[0] * order for _ in elems]
                for x in elems:
                    for y in elems:
                        z = tuple((a + b) % d for a, b, d in zip(x, y, chain))
                        table[at[x]][at[y]] = at[z]
                invs, exps = decompose(table, at[elems[0]])
                assert invs == chain
                assert sorted(exps) == elems
                for x in range(order):
                    for y in range(order):
                        assert exps[table[x][y]] == tuple(
                            (a + b) % d for a, b, d in zip(exps[x], exps[y], chain)
                        ), (chain, x, y)

    @pytest.mark.parametrize("name", ["S3", "D4", "A4", "Heisenberg"])
    def test_decompose_refuses_non_abelian_groups(self, name):
        if name == "Heisenberg":
            # exponent 3 and the torsion counts of Z3^3: only commutativity tells
            elems = list(itertools.product(range(3), repeat=3))

            def law(x, y):
                return tuple((a + b + (x[0] * y[1] if i == 2 else 0)) % 3
                             for i, (a, b) in enumerate(zip(x, y)))
        else:
            perms = {
                "S3": permutations(range(3)),
                "D4": [(0, 1, 2, 3), (1, 2, 3, 0), (2, 3, 0, 1), (3, 0, 1, 2),
                       (3, 2, 1, 0), (0, 3, 2, 1), (1, 0, 3, 2), (2, 1, 0, 3)],
                "A4": [p for p in permutations(range(4))
                       if sum(p[a] > p[b] for a in range(4) for b in range(a)) % 2 == 0],
            }[name]
            elems = list(perms)

            def law(x, y):
                return tuple(x[i] for i in y)
        table = [[elems.index(law(x, y)) for y in elems] for x in elems]
        with pytest.raises(UnsupportedInputError, match="not abelian"):
            decompose(table, 0)

    def test_decompose_refuses_tables_that_are_no_group(self):
        # commutative, with a unit and inverses, but not associative
        with pytest.raises(InternalConsistencyError, match="torsion counts"):
            decompose([[0, 1, 2], [1, 0, 0], [2, 0, 0]], 0)
        with pytest.raises(InternalConsistencyError, match="do not span"):
            decompose([[0, 1, 2, 3], [1, 0, 2, 1], [2, 2, 0, 2], [3, 1, 2, 0]], 0)

    def test_grading_of_a_large_elementary_group_is_fast(self):
        # generators are picked greedily, not searched among all tuples
        fusion = oracles.pointed_fusion_bruteforce((2,) * 5)
        ring = FusionRing(tuple(map(str, range(32))), tuple(range(32)), fusion)
        start = time.perf_counter()
        grading = universal_grading(ring)
        assert time.perf_counter() - start < 0.5
        assert grading.group == (2,) * 5

    def test_subring_generated_contains_seeds_and_closes(self, so_rings):
        r = so_rings(12)
        seed = next(i for i, lab in enumerate(r.labels) if lab.startswith("X"))
        sub = subring_generated(r, [seed])
        for i in sub:
            for j in sub:
                for k in np.nonzero(r.fusion[i, j])[0]:
                    assert int(k) in sub

    def test_subring_generated_refuses_an_index_outside_the_basis(self, so_rings):
        # -1 would wrap around to W2, the last object
        r = so_rings(12)
        for bad in (-1, r.rank):
            with pytest.raises(MalformedInputError, match=rf"^{bad} is not a basis index"):
                subring_generated(r, [1, bad])

    def test_adjoint_equals_trivial_component(self, fibonacci, so_rings):
        for r in (fibonacci, so_rings(5), so_rings(6), so_rings(8), so_rings(12)):
            g = universal_grading(r)
            zero = tuple(0 for _ in g.group)
            comps = g.components()
            trivial = comps.get(zero, tuple(range(r.rank)))
            assert tuple(sorted(adjoint_subring(r))) == tuple(sorted(trivial))

    def test_grading_faithful_and_equidimensional(self, so_rings):
        for n in (5, 6, 8, 9, 12, 14):
            r = so_rings(n)
            g = universal_grading(r)
            assert oracles.grading_bruteforce(g, r.fusion) == (True, True)
            d = fp_dimensions(r)
            comps = g.components()
            sizes = [sum(d[i] ** 2 for i in comp) for comp in comps.values()]
            assert max(sizes) - min(sizes) < 1e-6

    def test_gn_grading_trivial_for_integral_spinors(self, so_rings):
        assert gn_grading(so_rings(8)).group == ()
        assert gn_grading(so_rings(18)).group == ()

    def test_gn_grading_z2_for_irrational_spinors(self, so_rings):
        for n in (5, 6, 12):
            assert gn_grading(so_rings(n)).group == (2,)

    def test_gn_grading_rejects_non_weakly_integral(self, fibonacci):
        with pytest.raises(UnsupportedInputError):
            gn_grading(fibonacci)
