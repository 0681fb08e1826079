"""Ribbon data, S-matrices, modularity, centralizers, boson/fermion tests."""

import re
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest

from modcat import (
    AlgebraicReal,
    FusionRing,
    MalformedInputError,
    Phase,
    PreconditionError,
    ResourceLimitError,
    RibbonData,
    centralizer,
    classify_invertible,
    gauss_sums,
    is_modular,
    muger_center,
    s_matrix,
)
from modcat.metric import (
    cyclic_form,
    cyclic_metric_group,
    enumerate_cyclic_metric_groups,
    enumerate_forms,
    pointed_ribbon_data,
    standard_cyclic_metric_group,
)
from modcat.modular import FLOAT_TOL, format_complex
from modcat import catalog
import modcat.modular as modular_module
import modcat.ring as ring_module
from modcat.ring import ONE

import oracles
from test_ring import pointed_z


def semion_data():
    return pointed_ribbon_data(cyclic_metric_group(2, Fraction(1, 4)))


def rep_z2_data():
    return pointed_ribbon_data(cyclic_metric_group(2, Fraction(0)))


def svec_data():
    return pointed_ribbon_data(cyclic_metric_group(2, Fraction(1, 2)))


def all_ising_data():
    return [catalog.ising_squared_data(catalog.IsingParams(nu1, nu2))
            for nu1 in range(1, 16, 2) for nu2 in range(1, 16, 2)]


class TestPhase:
    def test_reduction_and_ops(self):
        assert Phase.of(5, 4).r == Fraction(1, 4)
        assert (Phase.of(1, 3) * Phase.of(2, 3)).r == 0
        assert Phase.of(1, 8).inverse().r == Fraction(7, 8)
        assert (Phase.of(1, 8) ** 4).r == Fraction(1, 2)
        assert complex(Phase.of(1, 2)) == pytest.approx(-1)

    @pytest.mark.parametrize("r", [0.1, "1/3", True, np.int64(1), None])
    def test_refuses_what_is_not_exact(self, r):
        # unchecked, 0.1 became e(2pi*3602879701896397/2^55) and "1/3" was parsed
        with pytest.raises(MalformedInputError, match="must be an int or a Fraction"):
            Phase(r)

    @pytest.mark.parametrize("n", [True, Fraction(1, 2), 1.5, np.int64(2), "2"])
    def test_power_takes_only_an_int(self, n):
        # unchecked, True gave e(2pi/8), 1/2 picked the root e(2pi/16), and 1.5
        # was refused as the product 0.1875 named "a phase"
        with pytest.raises(MalformedInputError, match=re.escape(f"exponent must be an int, got {n!r}")):
            Phase.of(1, 8) ** n


class TestRibbonData:
    def test_validate_catches_unit_twist(self):
        rd = semion_data()
        bad = RibbonData(rd.ring, rd.dims, (Phase.of(1, 4), Phase.of(1, 4)))
        with pytest.raises(MalformedInputError):
            bad.validate()

    def test_validate_catches_dual_twist_mismatch(self):
        ring = pointed_z(3)
        dims = tuple(AlgebraicReal.of(1) for _ in range(3))
        bad = RibbonData(ring, dims, (Phase.of(0), Phase.of(1, 3), Phase.of(2, 3)))
        with pytest.raises(MalformedInputError):
            bad.validate()

    def test_validate_catches_non_homomorphic_dims(self, request):
        ring = pointed_z(2)
        bad = RibbonData(
            ring,
            (AlgebraicReal.of(1), AlgebraicReal.of(2)),
            (Phase.of(0), Phase.of(0)),
        )
        with pytest.raises(MalformedInputError):
            bad.validate()

    def test_refuses_twists_that_are_not_phases(self):
        # unchecked, these were built, and `validate` or `s_matrix` raised a
        # bare AttributeError
        ising = catalog.ising_ring()
        for twists in [(Fraction(0), Fraction(1, 2), Fraction(1, 16)), (Phase.of(0), Phase.of(1, 2), 0)]:
            with pytest.raises(MalformedInputError, match="twists must be Phase values"):
                RibbonData(ising, ising.exact_dims, twists)

    @pytest.mark.parametrize("dim", [1.0, True, "1", np.int64(1), None])
    def test_refuses_dims_that_are_not_exact(self, dim):
        # unchecked, 1.0 and "1" were converted and True read as 1
        ring = pointed_z(2)
        twists = (Phase.of(0), Phase.of(1, 2))
        assert RibbonData(ring, (1, Fraction(1)), twists).dims == (ONE, ONE)
        with pytest.raises(MalformedInputError, match="a dimension must be an int or a Fraction"):
            RibbonData(ring, (ONE, dim), twists)

    def test_json_round_trip(self):
        rd = catalog.ising_squared_data(catalog.IsingParams(1, 7))
        again = RibbonData.loads(rd.dumps())
        assert again.dumps() == rd.dumps()
        assert again.twists == rd.twists

    @pytest.mark.parametrize(
        "key, value",
        [
            pytest.param("dims", None, id="missing_dims"),
            pytest.param("twists", None, id="missing_twists"),
            pytest.param("twists", [[0, 1], [1, 2]], id="too_few_twists"),
            pytest.param("twists", [[0, 1], [1, 2], [1]], id="short_twist_row"),
            pytest.param("twists", [[0, 1], [1, 2], [1.5, 4]], id="float_twist"),
            pytest.param("twists", [[0, 1], [1, 2], [1, 0]], id="zero_denominator"),
            pytest.param("dims", [[1, 1, 0, 1, 1]] * 2 + [[0, 1, 1, 0, 2]], id="zero_dims_denominator"),
        ],
    )
    def test_strict_loader(self, key, value):
        data = {**catalog.ising_ring().to_json_dict(), "twists": [[0, 1], [1, 2], [1, 16]]}
        assert RibbonData.from_json_dict(data).ring.rank == 3
        if value is None:
            del data[key]
        else:
            data[key] = value
        with pytest.raises(MalformedInputError):
            RibbonData.from_json_dict(data)

    def test_loads_rejects_invalid_json(self):
        with pytest.raises(MalformedInputError):
            RibbonData.loads('{"labels": ["1"], "dual": [0')


class TestSMatrix:
    def test_row_zero_is_the_dim_vector(self):
        for rd in (
            semion_data(),
            svec_data(),
            catalog.ising_squared_data(catalog.IsingParams(3, 5)),
            pointed_ribbon_data(cyclic_form(5, 1)),
        ):
            S = s_matrix(rd).entries
            d = np.array([float(x) for x in rd.dims])
            assert np.max(np.abs(S[0] - d)) < 1e-12

    def test_symmetric_for_all_catalog_data(self):
        # construction itself validates symmetry within 1e-9
        for nu1 in (1, 3, 5, 7):
            for nu2 in (9, 11, 13, 15):
                s_matrix(catalog.ising_squared_data(catalog.IsingParams(nu1, nu2)))
        for n in (3, 4, 5, 8):
            for mg in enumerate_cyclic_metric_groups(n):
                s_matrix(pointed_ribbon_data(mg))

    def test_ribbon_layer_never_builds_the_dense_view(self, monkeypatch):
        # with no room for a dense tensor, a layer that built one would raise
        monkeypatch.setattr(ring_module, "DENSE_LIMIT", 0)
        data = [pointed_ribbon_data(mg) for mg in enumerate_cyclic_metric_groups(24)]
        data += all_ising_data()
        for rd in data:
            rd.validate()
            S = s_matrix(rd).entries
            assert np.max(np.abs(S - oracles.s_matrix_dense(rd))) < FLOAT_TOL
            assert is_modular(rd) and muger_center(rd) == (0,)
            for i in (i for i, d in enumerate(rd.dims) if d == 1):
                # an invertible has X (x) X = 1 exactly when it is self-dual
                verdict, twist = classify_invertible(rd, i)
                want = {Fraction(0): "boson", Fraction(1, 2): "fermion"}.get(twist.r)
                assert verdict == (want if rd.ring.dual[i] == i and want else "not-order-2")
                assert twist == rd.twists[i]
            with pytest.raises(ResourceLimitError):
                rd.ring.fusion

    def test_asymmetric_rejected(self):
        from modcat.modular import SMatrix

        with pytest.raises(MalformedInputError):
            SMatrix(np.array([[1.0, 2.0], [3.0, 1.0]]))


class TestSharedView:
    def count_checks(self):
        return mock.patch.object(modular_module, "_is_character", wraps=ring_module._is_character)

    def test_one_validation_and_one_s_per_datum(self):
        for rd in (catalog.ising_squared_data(catalog.IsingParams(3, 5)),
                   pointed_ribbon_data(enumerate_forms((24,), nondegenerate_only=False)[5])):
            with self.count_checks() as check:
                gauss_sums(rd)
                assert check.call_count == 0  # Gauss sums do not validate
                for _ in range(2):
                    s_matrix(rd), is_modular(rd), muger_center(rd), gauss_sums(rd)
            assert check.call_count == 1
            assert s_matrix(rd) is s_matrix(rd)

    def test_invalid_data_raises_on_every_call(self):
        rd = semion_data()
        unit_twist = RibbonData(rd.ring, rd.dims, (Phase.of(1, 4), Phase.of(1, 4)))
        not_character = RibbonData(pointed_z(2), (AlgebraicReal.of(1), AlgebraicReal.of(2)),
                                   (Phase.of(0), Phase.of(0)))
        readers = (s_matrix, is_modular, muger_center, lambda rd: centralizer(rd, (0,)))
        for bad in (unit_twist, not_character):
            with self.count_checks() as check:
                for _ in range(2):
                    for reader in readers:
                        with pytest.raises(MalformedInputError):
                            reader(bad)
            assert check.call_count == (8 if bad is not_character else 0)
            gauss_sums(bad)  # still unvalidated

    def test_entries_are_read_only(self):
        rd = catalog.ising_squared_data(catalog.IsingParams(1, 7))
        S = s_matrix(rd).entries
        kept = S.copy()
        with pytest.raises(ValueError):
            S[0, 0] = 0
        with pytest.raises(ValueError):
            S[:, 1] *= 2
        assert np.array_equal(s_matrix(rd).entries, kept)


class TestModularity:
    def test_semion_modular_rep_z2_not(self):
        assert is_modular(semion_data())
        assert is_modular(svec_data()) is False
        assert is_modular(rep_z2_data()) is False

    def test_modular_iff_nondegenerate_cyclic(self):
        for n in range(2, 33):
            for mg in enumerate_forms((n,), nondegenerate_only=False):
                assert is_modular(pointed_ribbon_data(mg)) == mg.is_nondegenerate

    def test_log_determinant_agrees_with_the_determinant(self):
        for n in range(2, 61):
            for mg in enumerate_forms((n,), nondegenerate_only=False):
                rd = pointed_ribbon_data(mg)
                assert is_modular(rd) == oracles.is_modular_det(rd), (n, mg.q[1])

    def test_large_rank_does_not_overflow(self):
        # D^{r/2} = 300^150 is past the largest float
        assert is_modular(pointed_ribbon_data(standard_cyclic_metric_group(300)))
        degenerate = cyclic_metric_group(300, Fraction(1, 150))  # radical of order 4
        assert is_modular(pointed_ribbon_data(degenerate)) is False

    def test_modular_iff_nondegenerate_products(self):
        for facs in [(2, 2), (2, 4), (2, 6), (2, 8), (3, 3), (4, 4), (2, 2, 2)]:
            for mg in enumerate_forms(facs, nondegenerate_only=False):
                assert is_modular(pointed_ribbon_data(mg)) == mg.is_nondegenerate


class TestCentralizer:
    def test_contains_unit_and_is_antitone(self):
        rd = pointed_ribbon_data(cyclic_metric_group(8, Fraction(1, 16)))
        chains = [(0,), (0, 4), (0, 2, 4, 6), tuple(range(8))]
        cents = [centralizer(rd, sub) for sub in chains]
        for c in cents:
            assert 0 in c
        for small, big in zip(cents[1:], cents[:-1]):
            assert set(small) <= set(big)

    def test_muger_center_trivial_iff_modular(self):
        assert muger_center(semion_data()) == (0,)
        assert len(muger_center(rep_z2_data())) == 2

    def test_matches_the_double_loop(self):
        subgroups = [tuple(range(0, 24, d)) for d in (1, 2, 3, 4, 6, 8, 12, 24)]
        for mg in enumerate_forms((24,), nondegenerate_only=False):
            rd = pointed_ribbon_data(mg)
            for sub in subgroups:
                assert centralizer(rd, sub) == oracles.centralizer_bruteforce(rd, sub)
        for rd in all_ising_data():
            invertibles = tuple(i for i, d in enumerate(rd.dims) if d == 1)
            for sub in ((0,), invertibles, tuple(range(rd.ring.rank))):
                assert centralizer(rd, sub) == oracles.centralizer_bruteforce(rd, sub)

    def test_rejects_non_closed_subbasis(self):
        rd = pointed_ribbon_data(cyclic_metric_group(4, Fraction(1, 8)))
        with pytest.raises(MalformedInputError):
            centralizer(rd, (0, 1))

    @pytest.mark.parametrize("bad", [-1, 4])
    def test_rejects_an_index_outside_the_basis(self, bad):
        rd = pointed_ribbon_data(cyclic_metric_group(4, Fraction(1, 8)))
        with pytest.raises(MalformedInputError, match=rf"^{bad} is not a basis index"):
            centralizer(rd, (0, bad))


class TestClassifyInvertible:
    def test_boson_fermion_semion(self):
        assert classify_invertible(rep_z2_data(), 1)[0] == "boson"
        assert classify_invertible(svec_data(), 1)[0] == "fermion"
        verdict, tw = classify_invertible(semion_data(), 1)
        assert verdict == "not-order-2"
        assert tw == Phase.of(1, 4)

    def test_rejects_non_invertible(self):
        rd = catalog.ising_squared_data(catalog.IsingParams(1, 1))
        sig = rd.ring.index("sig*sig")
        with pytest.raises(PreconditionError):
            classify_invertible(rd, sig)

    @pytest.mark.parametrize("bad", [-1, 2])
    def test_rejects_an_index_outside_the_basis(self, bad):
        # -1 would read the last object, the fermion
        with pytest.raises(MalformedInputError, match=rf"^{bad} is not a basis index"):
            classify_invertible(svec_data(), bad)

    def test_invariant_under_relabeling(self):
        rd = pointed_ribbon_data(cyclic_metric_group(4, Fraction(1, 8)))
        perm = [0, 2, 1, 3]  # unit fixed
        inv = {p: i for i, p in enumerate(perm)}
        ring = rd.ring
        fusion = np.zeros_like(ring.fusion)
        for i in range(4):
            for j in range(4):
                for k in range(4):
                    fusion[inv[i], inv[j], inv[k]] = ring.fusion[i, j, k]
        relabeled = FusionRing(
            tuple(ring.labels[p] for p in perm),
            tuple(inv[ring.dual[p]] for p in perm),
            fusion,
        )
        rd2 = RibbonData(
            relabeled,
            tuple(rd.dims[p] for p in perm),
            tuple(rd.twists[p] for p in perm),
        )
        for i in range(4):
            assert classify_invertible(rd2, inv[i]) == classify_invertible(rd, i)


class TestGaussSums:
    def test_pointed_gauss_sum_magnitude(self):
        # for modular pointed data |tau| = sqrt(|A|)
        for n in (3, 4, 5, 8):
            mg = enumerate_cyclic_metric_groups(n)[0]
            plus, minus = gauss_sums(pointed_ribbon_data(mg))
            assert abs(plus) == pytest.approx(n**0.5, abs=1e-9)
            assert abs(minus) == pytest.approx(n**0.5, abs=1e-9)
            assert plus * minus == pytest.approx(n, abs=1e-9)

    def test_match_the_per_object_sums(self):
        for rd in all_ising_data():
            for got, want in zip(gauss_sums(rd), oracles.gauss_sums_bruteforce(rd)):
                assert abs(got - want) < 1e-12


class TestFormatting:
    def test_gaussian_rationals_render_exactly(self):
        assert format_complex(1.0 + 0j) == "1"
        assert format_complex(0.0 - 1.0j) == "-1i"
        assert format_complex(0.5 + 0.5j) == "1/2+1/2i"
        assert format_complex(0.123456789 + 0j) == "0.123457+0.000000i"
