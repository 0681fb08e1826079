"""Z2 cohomology, particle-hole gauging, condensation, counting."""

import time

import numpy as np
import pytest

from modcat import (
    GaugingDatum,
    ParameterError,
    PreconditionError,
    RedirectError,
    UnsupportedInputError,
    Z2Module,
    condense_boson,
    count_gaugings_per_form,
    count_metaplectic,
    gauge_particle_hole,
    invertibles,
    verify_axioms,
    z2_cohomology,
)
from modcat.metric import enumerate_cyclic_metric_groups, enumerate_forms
from modcat.ring import fp_dimensions, global_fp_dim

import oracles


def first_form(n):
    return enumerate_cyclic_metric_groups(n)[0]


# ---------------------------------------------------------------------------
# cohomology


class TestCohomology:
    def test_negation_on_z_n(self):
        for n in range(2, 20):
            mod = Z2Module((n,), "negation")
            expected = (2,) if n % 2 == 0 else ()
            assert z2_cohomology(mod, 2) == expected

    def test_q_mod_z(self):
        qz = Z2Module("Q/Z")
        assert z2_cohomology(qz, 3) == (2,)
        assert z2_cohomology(qz, 4) == ()

    def test_matches_bruteforce_for_all_small_modules(self):
        for order in range(1, 17):
            for chain in oracles._chains(order):
                for action in ("trivial", "negation"):
                    mod = Z2Module(chain, action)
                    for n in (2, 3):
                        assert z2_cohomology(mod, n) == oracles.cohomology_bruteforce(
                            mod, n
                        ), (chain, action, n)

    def test_explicit_swap_action(self):
        for d in (2, 3, 4):
            elems = [(a, b) for a in range(d) for b in range(d)]
            table = tuple((b, a) for a, b in elems)
            mod = Z2Module((d, d), table)
            for n in (2, 3):
                assert z2_cohomology(mod, n) == oracles.cohomology_bruteforce(mod, n)

    def test_explicit_rho_matches_table_lookup(self):
        cases = [
            ((3, 3), lambda a, b: (b, a)),
            ((2, 2, 2), lambda a, b, c: (b, a, c)),
            ((2, 4), lambda a, b: (a, (b + 2 * a) % 4)),
            ((5,), lambda a: ((-a) % 5,)),
            ((2, 3, 6), lambda a, b, c: (a, (-b) % 3, c)),
        ]
        for facs, f in cases:
            elems = Z2Module(facs).elements()
            table = tuple(f(*a) for a in elems)
            mod = Z2Module(facs, table)
            lookup = dict(zip(elems, table))
            assert [mod.rho(a) for a in elems] == [lookup[a] for a in elems], facs
            # an unreduced representative acts as its residue, as in `add`
            shifted = [tuple(x + d for x, d in zip(a, facs)) for a in elems]
            assert [mod.rho(a) for a in shifted] == [lookup[a] for a in elems], facs
            for n in (2, 3):
                assert z2_cohomology(mod, n) == oracles.cohomology_bruteforce(mod, n)

    def test_rejects_non_involutive_action(self):
        from modcat import MalformedInputError

        table = tuple(((a + 1) % 3,) for a in range(3))
        with pytest.raises(MalformedInputError):
            Z2Module((3,), table)

    def test_rejects_non_additive_involution(self):
        from modcat import MalformedInputError

        # 1 <-> 2 on Z_5 is an involution, but rho(1) + rho(1) = 4 != rho(2)
        table = ((0,), (2,), (1,), (3,), (4,))
        with pytest.raises(MalformedInputError, match="not additive"):
            Z2Module((5,), table)

    def test_additivity_on_generators_matches_all_pairs(self):
        from modcat import MalformedInputError

        def involutions(n):
            if n == 0:
                yield {}
                return
            for rest in involutions(n - 1):  # n - 1 fixed
                yield {**rest, n - 1: n - 1}
            for m in range(n - 1):  # n - 1 swapped with m
                for rest in involutions(n - 2):
                    rest = {x + (x >= m): y + (y >= m) for x, y in rest.items()}
                    yield {**rest, m: n - 1, n - 1: m}

        for facs in [(2, 2), (6,), (2, 4), (1, 4), (2, 1, 3)]:
            elems = Z2Module(facs).elements()
            add = Z2Module(facs).add
            for inv in involutions(len(elems)):
                rho = {a: elems[inv[n]] for n, a in enumerate(elems)}
                table = tuple(rho[a] for a in elems)
                if all(rho[add(a, b)] == add(rho[a], rho[b]) for a in elems for b in elems):
                    assert Z2Module(facs, table).rho(elems[-1]) == rho[elems[-1]]
                else:
                    with pytest.raises(MalformedInputError, match="not additive"):
                        Z2Module(facs, table)

    def test_swap_on_a_large_square_builds_fast(self):
        # additivity is checked against the generators, not on all pairs
        elems = [(a, b) for a in range(30) for b in range(30)]
        start = time.perf_counter()
        mod = Z2Module((30, 30), tuple((b, a) for a, b in elems))
        assert time.perf_counter() - start < 0.5
        assert mod.rho((1, 2)) == (2, 1)

    def test_rejects_nontrivial_action_on_q_mod_z(self):
        with pytest.raises(UnsupportedInputError):
            Z2Module("Q/Z", "negation")

    def test_rejects_bad_degree(self):
        with pytest.raises(ParameterError):
            z2_cohomology(Z2Module((2,), "trivial"), 1)


# ---------------------------------------------------------------------------
# gauging data


class TestGaugingDatum:
    def test_alpha_rejected_for_odd_n(self):
        with pytest.raises(ParameterError):
            GaugingDatum(5, alpha=1)

    def test_omega_defaults_to_half_n(self):
        assert GaugingDatum(12, alpha=1).omega == 6
        assert GaugingDatum(12, alpha=0).omega == 0

    def test_inconsistent_omega_rejected(self):
        with pytest.raises(ParameterError):
            GaugingDatum(12, alpha=1, omega=3)


# ---------------------------------------------------------------------------
# gauging


class TestGauging:
    def test_axioms_and_global_dim(self):
        for n in range(2, 26):
            ring = gauge_particle_hole(first_form(n))
            assert verify_axioms(ring).ok, n
            assert global_fp_dim(ring) == pytest.approx(4 * n, abs=1e-6)

    def test_invertible_group(self):
        assert invertibles(gauge_particle_hole(first_form(5))).invariant_factors() == [
            2
        ]
        assert invertibles(gauge_particle_hole(first_form(12))).invariant_factors() == [
            2,
            2,
        ]
        assert invertibles(gauge_particle_hole(first_form(10))).invariant_factors() == [
            4
        ]

    def test_omega_twist_invariance_for_four_divides(self):
        for n in (8, 12, 16):
            mg = first_form(n)
            r0 = gauge_particle_hole(mg, GaugingDatum(n, alpha=0))
            r1 = gauge_particle_hole(mg, GaugingDatum(n, alpha=1))
            assert r0.labels == r1.labels
            assert np.array_equal(r0.fusion, r1.fusion)

    def test_alpha_changes_ring_for_two_mod_four(self):
        mg = first_form(6)
        r0 = gauge_particle_hole(mg, GaugingDatum(6, alpha=0))
        r1 = gauge_particle_hole(mg, GaugingDatum(6, alpha=1))
        assert verify_axioms(r1).ok
        assert not np.array_equal(r0.fusion, r1.fusion)

    def test_rejects_degenerate_form(self):
        from fractions import Fraction

        from modcat.metric import cyclic_metric_group

        degenerate = cyclic_metric_group(4, Fraction(1, 4))
        assert not degenerate.is_nondegenerate
        with pytest.raises(PreconditionError):
            gauge_particle_hole(degenerate)


# ---------------------------------------------------------------------------
# condensation


class TestCondensation:
    def test_round_trip_recovers_cyclic_group(self):
        for n in range(3, 25):
            ring = gauge_particle_hole(first_form(n))
            report = condense_boson(ring, ring.index("z"))
            assert report.total_dim == pytest.approx(2 * n, abs=1e-6)
            assert report.group_order == n
            if n == 4:
                assert report.ambiguous and report.is_cyclic is None
            else:
                assert report.is_cyclic is True

    def test_round_trip_pointed_smallest_case(self):
        ring = gauge_particle_hole(first_form(2))
        report = condense_boson(ring, ring.index("z"))
        # the gauged Z_2 theory is pointed; condensing z halves it to a
        # cyclic group of order 4 whose index-2 subgroup is the original Z_2
        assert report.group_order == 4
        assert report.is_cyclic is True

    def test_dimension_bookkeeping(self, so_rings):
        ring = so_rings(12)
        report = condense_boson(ring, ring.index("fg"))
        assert report.total_dim == pytest.approx(24, abs=1e-9)
        assert len(report.split) * 2 + len(report.free_pairs) == len(report.labels)
        # split objects halve, free pairs keep their dimension
        for lab in report.split:
            assert f"{lab}^(1)" in report.labels and f"{lab}^(2)" in report.labels

    def test_rejects_non_boson_candidates(self, so_rings):
        ring = so_rings(12)
        with pytest.raises(PreconditionError):
            condense_boson(ring, 0)  # the unit is not a nontrivial invertible
        xs = next(i for i, lab in enumerate(ring.labels) if lab.startswith("X"))
        with pytest.raises(PreconditionError):
            condense_boson(ring, xs)  # dimension 2, not invertible

    def test_fermion_condensation_reports_partial_data(self, so_rings):
        # f fixes the spinors V1, V2 of dimension sqrt(6), so the condensed
        # fusion rules are not determined at the based-ring level
        ring = so_rings(12)
        report = condense_boson(ring, ring.index("f"))
        assert report.fusion is None
        assert report.reason is not None

    def test_report_json(self, so_rings):
        ring = so_rings(8)
        report = condense_boson(ring, ring.index("fg"))
        payload = report.to_json_dict()
        assert payload["group_order"] == 8
        assert payload["is_cyclic"] is True
        assert len(payload["labels"]) == len(report.labels)

    def test_general_shape_reports_orbits_only(self, ising):
        # Deligne square of Ising: condensing psi*psi leaves dim-sqrt(2)
        # fixed objects, so only orbit data can be reported
        from modcat.catalog import _ising_squared_ring

        ring = _ising_squared_ring()
        report = condense_boson(ring, ring.index("psi*psi"))
        assert report.fusion is None
        assert report.reason is not None


# ---------------------------------------------------------------------------
# counting


class TestCounting:
    def test_gaugings_per_form(self):
        assert count_gaugings_per_form(5) == 2
        assert count_gaugings_per_form(6) == 2
        assert count_gaugings_per_form(12) == 3
        assert count_gaugings_per_form(16) == 3

    def test_headline_values(self):
        assert count_metaplectic(15) == 8
        assert count_metaplectic(6) == 8
        assert count_metaplectic(16) == 12
        assert count_metaplectic(20) == 24

    def test_product_identity(self):
        for n in range(2, 101):
            if n == 4:
                continue
            assert count_metaplectic(n) == len(
                enumerate_cyclic_metric_groups(n)
            ) * count_gaugings_per_form(n)

    def test_n_four_redirects(self):
        with pytest.raises(RedirectError):
            count_metaplectic(4)
