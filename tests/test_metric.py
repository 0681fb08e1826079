"""Metric groups: forms, enumeration, equivalence, automorphisms."""

import time
from fractions import Fraction
from functools import cache
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from modcat import FusionRing, MalformedInputError, MetricGroup, ParameterError, ResourceLimitError
import modcat.metric as metric_module
from modcat.metric import (
    classify_forms,
    cyclic_class_coefficients,
    cyclic_form,
    cyclic_metric_group,
    enumerate_cyclic_metric_groups,
    enumerate_forms,
    equivalence_test,
    form_preserving_autos,
    ORDER_LIMIT,
    pointed_ribbon_data,
    standard_cyclic_metric_group,
)

import oracles


class TestConstruction:
    def test_rejects_nonvanishing_at_zero(self):
        with pytest.raises(MalformedInputError):
            MetricGroup((2,), (Fraction(1, 2), Fraction(0)))

    def test_rejects_asymmetric_q(self):
        with pytest.raises(MalformedInputError):
            MetricGroup(
                (5,), tuple(Fraction(a, 5) for a in range(5))
            )

    def test_rejects_nonbilinear_polarization(self):
        with pytest.raises(MalformedInputError):
            MetricGroup(
                (4,),
                (Fraction(0), Fraction(1, 8), Fraction(1, 8), Fraction(1, 8)),
            )

    def test_all_constructed_forms_are_quadratic(self):
        # exact re-verification of q(-a) = q(a) and full bilinearity
        for n in (5, 8, 12):
            for mg in enumerate_cyclic_metric_groups(n):
                for a in mg.elements():
                    assert mg.q_of(mg.neg(a)) == mg.q_of(a)
                    for b in mg.elements():
                        for c in mg.elements():
                            assert mg.sigma(mg.add(a, b), c) == (
                                mg.sigma(a, c) + mg.sigma(b, c)
                            ) % 1

    def test_rejects_zero_factor(self):
        with pytest.raises(MalformedInputError):
            MetricGroup((0, 5), ())

    @pytest.mark.parametrize("facs", [("4",), (True, 2), (4.5,), (2.0,), (np.int64(4),), (np.bool_(True),)])
    def test_rejects_factors_that_are_not_ints(self, facs):
        # unchecked, "4" and True pass as ints and 4.5 is truncated to Z_4;
        # numpy integers are refused as for N (`_check_order`)
        with pytest.raises(MalformedInputError, match="invariant factors must be ints"):
            MetricGroup(facs, [Fraction(0)] * 4)

    @pytest.mark.parametrize("facs, message", [
        ([True], "must be ints"), ([2, 3], "divisor chain"), ([0], "positive")])
    def test_loader_checks_factors_as_the_constructor_does(self, facs, message):
        with pytest.raises(MalformedInputError, match=message):
            MetricGroup.from_json_dict({"group": facs, "q": []})

    def test_loader_caps_the_order_before_allocating(self):
        for facs in ([ORDER_LIMIT + 1], [10**12], [1000, 1000, 2]):
            with pytest.raises(ResourceLimitError):
                MetricGroup.from_json_dict({"group": facs, "q": []})

    def test_json_round_trip(self):
        mg = cyclic_form(9, 2)
        again = MetricGroup.loads(mg.dumps())
        assert again.facs == mg.facs and again.q == mg.q
        assert again.dumps() == mg.dumps()


@cache
def _forms(facs):
    return enumerate_forms(facs, nondegenerate_only=False)


@st.composite
def symmetric_tables(draw, facs_options):
    """A table with q(0) = 0 and q(-a) = q(a): a quadratic form or random
    multiples of 1/den, then perhaps with one pair {a, -a} moved."""
    facs = draw(st.sampled_from(facs_options))
    elems = list(product(*(range(d) for d in facs)))
    index = {a: i for i, a in enumerate(elems)}
    neg = [index[tuple((-x) % d for x, d in zip(a, facs))] for a in elems]
    den = draw(st.integers(1, 4 * len(elems)))
    if draw(st.booleans()):
        q = list(draw(st.sampled_from(_forms(facs))).q)
    else:
        q = [Fraction(0)] * len(elems)
        for i in range(1, len(elems)):
            q[i] = q[neg[i]] if neg[i] < i else Fraction(draw(st.integers(0, den - 1)), den)
    if draw(st.booleans()):
        i = draw(st.integers(1, len(elems) - 1))
        q[i] = q[neg[i]] = (q[i] + Fraction(draw(st.integers(1, den)), den)) % 1
    return facs, tuple(q)


def accepted(facs, q) -> bool:
    try:
        MetricGroup(facs, q)
    except MalformedInputError:
        return False
    return True


class TestBilinearityCheck:
    def test_dense_check_accepts_every_cyclic_form(self):
        for n in range(2, 41):
            for mg in enumerate_forms((n,), nondegenerate_only=False):
                assert oracles.cyclic_bilinear_dense(mg.q), (n, mg.q)

    @settings(max_examples=250, deadline=None)
    @given(symmetric_tables([(n,) for n in range(2, 41)]))
    def test_cyclic_check_matches_dense_check(self, table):
        facs, q = table
        assert accepted(facs, q) == oracles.cyclic_bilinear_dense(q)

    @settings(max_examples=100, deadline=None)
    @given(symmetric_tables([(2, 2), (2, 4), (2, 6), (3, 3), (4, 4), (2, 2, 2)]))
    def test_product_check_matches_bruteforce(self, table):
        facs, q = table
        assert accepted(facs, q) == oracles.bilinear_bruteforce(facs, q)


class TestCyclicForms:
    def test_standard_group_is_the_first_class(self):
        for n in [*range(1, 100), 720]:
            assert standard_cyclic_metric_group(n) == enumerate_cyclic_metric_groups(n)[0], n

    def test_odd_prime_power_units(self):
        assert cyclic_form(5, 1).q_of((1,)) == Fraction(1, 5)
        assert cyclic_form(5, 2).q_of((1,)) == Fraction(2, 5)
        with pytest.raises(ParameterError):
            cyclic_form(5, 5)

    def test_two_power_units(self):
        assert cyclic_form(2, 1).q_of((1,)) == Fraction(1, 4)
        assert cyclic_form(8, 3).q_of((1,)) == Fraction(3, 16)
        with pytest.raises(ParameterError):
            cyclic_form(8, 2)

    def test_rejects_non_prime_power(self):
        for p_power in (12, 1, 0, -4):
            with pytest.raises(ParameterError, match="not a prime power"):
                cyclic_form(p_power, 1)


class TestEnumeration:
    def test_class_counts(self):
        assert len(enumerate_cyclic_metric_groups(5)) == 2
        assert len(enumerate_cyclic_metric_groups(4)) == 4
        assert len(enumerate_cyclic_metric_groups(12)) == 8

    @pytest.mark.parametrize("make", [
        enumerate_cyclic_metric_groups, standard_cyclic_metric_group, cyclic_class_coefficients,
        lambda n: cyclic_metric_group(n, Fraction(1, 5))])
    @pytest.mark.parametrize("n", [5.0, 12.0, True, np.int64(5), "5"])
    def test_rejects_n_that_is_not_an_int(self, make, n):
        # True would be the trivial group Z_1, 12.0 a TypeError from range
        with pytest.raises(ParameterError, match="positive int"):
            make(n)

    def test_pairwise_inequivalent(self):
        for n in (4, 5, 12, 15):
            forms = enumerate_cyclic_metric_groups(n)
            for i, m1 in enumerate(forms):
                for m2 in forms[i + 1 :]:
                    assert not equivalence_test(m1, m2)

    def test_all_nondegenerate(self):
        for n in range(2, 20):
            for mg in enumerate_cyclic_metric_groups(n):
                assert mg.is_nondegenerate

    def test_matches_bruteforce_classification(self):
        for n in range(2, 17):
            assert len(oracles.classify_forms_bruteforce(n)) == len(
                enumerate_cyclic_metric_groups(n)
            )

    def test_enumerate_forms_exhausts_cyclic_tables(self):
        # every brute-force form on Z_N appears in the parametrized family
        for n in (2, 3, 4, 6, 8, 9):
            tables = {m.q for m in enumerate_forms((n,), nondegenerate_only=False)}
            assert set(oracles.all_forms_bruteforce(n)) == tables

    @pytest.mark.parametrize("facs, message", [
        ((2, 3), "divisor chain"), ((0,), "positive"), ((-2,), "positive"),
        ((True,), "must be ints"), ((2.0,), "must be ints"), (("4",), "must be ints")])
    def test_enumerate_forms_checks_factors_as_the_constructor_does(self, facs, message):
        # unchecked, (2, 3) gives 4 groups the loader refuses, (0,) a
        # divide-by-zero warning and a ValueError, (True,) and (2.0,) a TypeError
        with pytest.raises(MalformedInputError, match=message):
            enumerate_forms(facs)
        with pytest.raises(MalformedInputError, match=message):
            MetricGroup(facs, [Fraction(0)] * 6)

    def test_enumerate_forms_is_refused_before_any_table(self, monkeypatch):
        # few Gram values, so that without the limit this fails fast rather
        # than filling memory: 4096 forms x 2048, 2049 x 2049 and 65 536 x
        # 1024 q entries
        def refuse(*args):
            raise AssertionError("a table was built")

        monkeypatch.setattr(metric_module, "_tables", refuse)
        for facs in ((2048,), (2049,), (16, 64)):
            with pytest.raises(ResourceLimitError, match="above the limit"):
                enumerate_forms(facs)

    def test_enumerate_forms_limit_is_forms_times_order(self, monkeypatch):
        # (2, 6): Gram values 4 x 12 x 2 = 96 forms of 12 entries each
        monkeypatch.setattr(metric_module, "ENUMERATION_LIMIT", 96 * 12)
        assert len(enumerate_forms((2, 6), nondegenerate_only=False)) == 96
        monkeypatch.setattr(metric_module, "ENUMERATION_LIMIT", 96 * 12 - 1)
        with pytest.raises(ResourceLimitError):
            enumerate_forms((2, 6))

    @pytest.mark.parametrize("facs", [(2, 2), (2, 4), (3, 3), (2, 6), (24,), ()])
    def test_enumerated_forms_load_back_from_their_json(self, facs):
        for mg in enumerate_forms(facs, nondegenerate_only=False):
            assert MetricGroup.loads(mg.dumps()) == mg

    def test_klein_form_classes(self):
        forms = enumerate_forms((2, 2))
        classes = classify_forms(forms)
        # Toric Code, 3-fermion, semion^2, conjugate-semion^2, and the
        # semion x conjugate-semion form
        assert len(classes) == 5
        fermion_bearing = [
            c for c in classes if Fraction(1, 2) in c[0].q
        ]
        assert len(fermion_bearing) == 4


class TestEquivalence:
    def test_inequivalent_residue_classes_mod_5(self):
        # 1 and 4 = (+-1)^2 are squares mod 5; 2 is not
        assert equivalence_test(
            cyclic_metric_group(5, Fraction(1, 5)),
            cyclic_metric_group(5, Fraction(4, 5)),
        )
        assert not equivalence_test(
            cyclic_metric_group(5, Fraction(1, 5)),
            cyclic_metric_group(5, Fraction(2, 5)),
        )

    def test_group_mismatch(self):
        assert not equivalence_test(cyclic_form(4, 1), cyclic_form(8, 1))

    def test_search_size_is_bounded(self):
        # the zero form on (Z_2)^5 could reach 32^5 choices of generator
        # images; the unbounded search ran 14 s
        zero = MetricGroup((2,) * 5, [Fraction(0)] * 32)
        start = time.perf_counter()
        with pytest.raises(ResourceLimitError, match="isomorphism search"):
            equivalence_test(zero, zero)
        assert time.perf_counter() - start < 1.0


class TestAutomorphisms:
    def test_contains_identity_and_negation(self):
        for n in range(3, 33):
            for mg in enumerate_cyclic_metric_groups(n):
                autos = form_preserving_autos(mg)
                ident = tuple(range(n))
                assert ident in autos
                assert tuple((-a) % n for a in range(n)) in autos

    def test_exactly_the_form_preserving_units(self):
        # brute-force check against the definition: units u with q(u a) = q(a)
        from math import gcd

        for n in range(3, 33):
            for mg in enumerate_cyclic_metric_groups(n):
                autos = form_preserving_autos(mg)
                expected = {
                    tuple((u * a) % n for a in range(n))
                    for u in range(1, n)
                    if gcd(u, n) == 1
                    and all(mg.q[(u * a) % n] == mg.q[a] for a in range(n))
                }
                assert set(autos) == expected

    def test_search_size_is_bounded(self):
        # the zero form on Z_6^3 has 1.9 million automorphisms: refused at once
        start = time.perf_counter()
        with pytest.raises(ResourceLimitError):
            form_preserving_autos(MetricGroup((6, 6, 6), [Fraction(0)] * 216))
        assert time.perf_counter() - start < 1.0
        # every group whose autos perfbench's forms_sweep lists stays admitted:
        # Z_n for n = 2pq in [66, 78], and the classes on four small groups
        for n in (66, 70, 78):
            for mg in enumerate_cyclic_metric_groups(n):
                assert form_preserving_autos(mg)
        for facs in ((2, 2), (2, 4), (3, 3), (2, 6)):
            for cls in classify_forms(enumerate_forms(facs)):
                assert form_preserving_autos(cls[0])

    def test_prime_powers_have_only_plus_minus_one(self):
        for n in (3, 4, 5, 7, 8, 9, 11, 13, 16, 17, 19, 23, 25, 27, 29, 31, 32):
            for mg in enumerate_cyclic_metric_groups(n):
                assert len(form_preserving_autos(mg)) == 2


class TestPointedData:
    def test_modular_for_every_nondegenerate_cyclic_form(self):
        for n in range(2, 33):
            for mg in enumerate_cyclic_metric_groups(n):
                from modcat import is_modular

                assert is_modular(pointed_ribbon_data(mg))

    def test_twists_are_the_form_values(self):
        mg = cyclic_form(5, 2)
        rd = pointed_ribbon_data(mg)
        assert [t.r for t in rd.twists] == [mg.q_of(a) for a in mg.elements()]


class TestAgainstOracles:
    """Class tables, automorphisms, equivalences, nondegeneracy and pointed
    rings against the per-element Fraction oracles of `oracles`."""

    GROUPS = [(2, 2), (2, 4), (3, 3), (2, 6), (4, 4), (2, 2, 2)] + [(n,) for n in range(1, 41)]

    def test_cyclic_classes_match_the_crt_oracle(self):
        for n in [*range(1, 151), 428, 795, 1973]:
            forms = enumerate_cyclic_metric_groups(n)
            assert [m.q for m in forms] == oracles.cyclic_classes_bruteforce(n), n
            assert len(forms) == len(cyclic_class_coefficients(n)[0])

    def test_enumeration_is_capped(self):
        forms = enumerate_cyclic_metric_groups(30030)
        assert len(forms) == 64 and len(set(forms)) == 64
        assert forms[0] == standard_cyclic_metric_group(30030)
        with pytest.raises(ResourceLimitError):
            enumerate_cyclic_metric_groups(ORDER_LIMIT + 1)

    def test_enumeration_refuses_many_classes_before_any_table(self, monkeypatch):
        # 128 classes on Z_720720, 92 M q entries: refused from the
        # factorization alone
        def no_tables(*args):
            raise AssertionError("a table was built")

        monkeypatch.setattr(metric_module, "_cyclic", no_tables)
        start = time.perf_counter()
        with pytest.raises(ResourceLimitError, match="128 classes"):
            enumerate_cyclic_metric_groups(720720)
        assert time.perf_counter() - start < 1.0
        assert 30030 * 64 <= metric_module.ENUMERATION_LIMIT < 720720 * 128

    @settings(max_examples=150, deadline=None)
    @given(st.sampled_from(GROUPS), st.data())
    def test_autos_nondegeneracy_and_pointed_ring(self, facs, data):
        mg = data.draw(st.sampled_from(_forms(facs)))
        assert form_preserving_autos(mg) == oracles.autos_bruteforce(facs, mg.q)
        assert mg.is_nondegenerate == oracles.is_nondegenerate_bruteforce(facs, mg.q)
        ring = pointed_ribbon_data(mg).ring
        dense = FusionRing(ring.labels, ring.dual, oracles.pointed_fusion_bruteforce(facs),
                           ring.exact_dims)
        assert ring == dense

    @settings(max_examples=150, deadline=None)
    @given(st.sampled_from(GROUPS), st.data())
    def test_equivalence(self, facs, data):
        forms = _forms(facs)
        m1 = data.draw(st.sampled_from(forms))
        # half of the time a relabelled copy of m1 under a random automorphism
        if data.draw(st.booleans()):
            phi = data.draw(st.sampled_from(list(oracles.element_automorphisms(facs))))
            m2 = MetricGroup(facs, tuple(m1.q[phi[i]] for i in range(m1.order)))
        else:
            m2 = data.draw(st.sampled_from(forms))
        want = oracles.equivalent_bruteforce(facs, m1.q, facs, m2.q)
        assert equivalence_test(m1, m2) == want
        assert equivalence_test(m2, m1) == want

    def test_trivial_group(self):
        mg = MetricGroup((), (Fraction(0),))
        assert mg.is_nondegenerate and form_preserving_autos(mg) == [(0,)]
        assert equivalence_test(mg, enumerate_cyclic_metric_groups(1)[0])
        assert pointed_ribbon_data(mg).ring.rank == 1
