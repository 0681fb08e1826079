"""Acceptance suite: one test per headline guarantee of the package.

Each test states its tolerance inline; together these pin down the
deliverable behavior of every module at desk scale.
"""

from math import gcd

import numpy as np
import pytest

from modcat import (
    AlgebraicReal,
    RedirectError,
    Z2Module,
    based_ring_isomorphism,
    boson_fermion_census,
    condense_boson,
    count_gaugings_per_form,
    count_metaplectic,
    gauge_particle_hole,
    is_modular,
    ising_squared_data,
    ising_squared_enumeration,
    ising_squared_total_count,
    sixteen_m_component_census,
    structure_census,
    universal_grading,
    verify_axioms,
    z2_cohomology,
)
from modcat.catalog import IsingParams, fibonacci_ring, ising_ring
from modcat.metric import enumerate_cyclic_metric_groups, form_preserving_autos
from modcat.ring import asymptotic_dim_ratio, fp_dimensions, hom_space_dim

import oracles

PHI = (1 + 5**0.5) / 2


def test_01_fibonacci_dimension_and_ratio():
    fib = fibonacci_ring()
    assert abs(fp_dimensions(fib)[1] - PHI) < 1e-9
    assert abs(asymptotic_dim_ratio(fib, 1, 30) - PHI * PHI) < 1e-6


def test_02_ising_dimension_hom_spaces_and_ratio():
    ising = ising_ring()
    sig = ising.index("sig")
    assert abs(fp_dimensions(ising)[sig] - 2**0.5) < 1e-9
    for n in range(1, 11):
        assert hom_space_dim(ising, [sig] * (2 * n), 0) == 2 ** (n - 1)
    assert asymptotic_dim_ratio(ising, sig, 20) == 2.0


def test_03_so_n2_axioms_dimension_and_census(so_rings):
    for n in range(2, 41):
        ring = so_rings(n)
        assert verify_axioms(ring).ok, n
        assert abs((fp_dimensions(ring) ** 2).sum() - 4 * n) < 1e-6, n
        census = structure_census(ring, n)
        assert census.ok, (n, census.mismatches)


def test_04_universal_gradings(so_rings):
    for n in range(8, 41, 4):
        g = universal_grading(so_rings(n))
        assert g.group == (2, 2), n
        sizes = sorted(len(c) for c in g.components().values())
        assert sizes == sorted([4 + n // 4 - 1, n // 4, 2, 2]), n
    for n in range(3, 40, 2):
        ring = so_rings(n)
        g = universal_grading(ring)
        assert g.group == (2,), n
        # trivial component: 1, z and the (N - 1)/2 orbits; the other: s1, s2
        assert sorted(len(c) for c in g.components().values()) == [2, (n + 3) // 2], n
        d = fp_dimensions(ring)
        totals = [sum(d[i] ** 2 for i in c) for c in g.components().values()]
        assert max(totals) - min(totals) < 1e-6, n


def test_05_condensation_cyclic_and_the_n4_ambiguity(so_rings):
    for n in (8, 12, 16, 20, 24):
        ring = so_rings(n)
        report = condense_boson(ring, ring.index("fg"))
        assert abs(report.total_dim - 2 * n) < 1e-6
        assert report.group_order == n
        assert report.is_cyclic is True
    ring = so_rings(4)
    report = condense_boson(ring, ring.index("fg"))
    assert report.ambiguous
    assert report.is_cyclic is None


def test_06_gauge_round_trip_isomorphism(so_rings):
    for n in range(2, 25):
        mg = enumerate_cyclic_metric_groups(n)[0]
        gauged = gauge_particle_hole(mg)
        target = so_rings(n)
        phi = based_ring_isomorphism(gauged, target)
        assert phi is not None, n
        perm = np.array(phi)
        assert np.array_equal(target.fusion[np.ix_(perm, perm, perm)], gauged.fusion)


def test_07_counts():
    assert count_metaplectic(15) == 8
    assert count_metaplectic(6) == 8
    assert count_metaplectic(16) == 12
    assert count_metaplectic(20) == 24
    assert len(enumerate_cyclic_metric_groups(5)) == 2
    assert len(enumerate_cyclic_metric_groups(4)) == 4
    assert len(enumerate_cyclic_metric_groups(12)) == 8
    for n in range(2, 101):
        if n == 4:
            with pytest.raises(RedirectError):
                count_metaplectic(4)
            continue
        assert count_metaplectic(n) == len(
            enumerate_cyclic_metric_groups(n)
        ) * count_gaugings_per_form(n)


def test_08_ising_squared_enumeration():
    e = ising_squared_enumeration()
    assert e["count"] == 20
    assert e["histogram"] == {2: 8, 4: 12}
    t = ising_squared_total_count()
    assert (t["cyclic-gauged"], t["klein-gauged"], t["total"]) == (12, 8, 20)
    for nu1 in range(1, 16, 2):
        for nu2 in range(1, 16, 2):
            assert is_modular(ising_squared_data(IsingParams(nu1, nu2)))


def test_09_cohomology():
    for n in range(2, 20):
        expected = (2,) if n % 2 == 0 else ()
        assert z2_cohomology(Z2Module((n,), "negation"), 2) == expected
    qz = Z2Module("Q/Z")
    assert z2_cohomology(qz, 3) == (2,)
    assert z2_cohomology(qz, 4) == ()
    for order in range(1, 17):
        for chain in oracles._chains(order):
            for action in ("trivial", "negation"):
                mod = Z2Module(chain, action)
                for n in (2, 3):
                    assert z2_cohomology(mod, n) == oracles.cohomology_bruteforce(
                        mod, n
                    ), (chain, action, n)


def test_10_metric_groups():
    # automorphisms: +-1 always; nothing else whenever N is a prime power
    # (composite N gains the extra square roots of unity, checked exactly)
    for n in range(3, 33):
        square_roots = {
            u for u in range(1, n) if gcd(u, n) == 1 and (u * u) % n == 1
        }
        prime_power = len({p for p in range(2, n + 1) if n % p == 0 and _prime(p)}) == 1
        for mg in enumerate_cyclic_metric_groups(n):
            autos = {tuple(a) for a in form_preserving_autos(mg)}
            ident = tuple(range(n))
            neg = tuple((-a) % n for a in range(n))
            assert {ident, neg} <= autos
            assert autos <= {tuple((u * a) % n for a in range(n)) for u in square_roots}
            if prime_power:
                assert autos == {ident, neg}
    # modular iff nondegenerate: tests/test_modular.py::TestModularity
    # brute-force classification matches the enumerated class counts
    for n in range(2, 17):
        assert len(oracles.classify_forms_bruteforce(n)) == len(
            enumerate_cyclic_metric_groups(n)
        )


def _prime(p):
    return p > 1 and all(p % d for d in range(2, int(p**0.5) + 1))


def test_11_boson_fermion_census(so_rings):
    for n in range(4, 41, 4):
        ring = so_rings(n)
        fg = ring.index("fg")
        fixed = [
            x
            for x in range(ring.rank)
            if ring.fusion[fg, x, x] == 1 and x != 0
        ]
        assert fixed, n
        verdicts = boson_fermion_census(n)
        assert verdicts["fg"] == "boson"
        expected = "boson" if n % 8 == 0 else "fermion"
        assert verdicts["f"] == expected and verdicts["g"] == expected


def test_12_sixteen_m_census():
    for m in (3, 5, 7, 15):
        report = sixteen_m_component_census(m)
        assert report["ok"], (m, report["checks"])
        assert report["spinor_dim"] == AlgebraicReal.sqrt(2 * m)


def test_13_hom_space_oracle(so_rings):
    from modcat.ring import hom_space_dim

    for ring in (fibonacci_ring(), ising_ring(), so_rings(5), so_rings(8)):
        if ring.rank > 8:
            continue
        for word_len in range(2, 7):
            word = [(2 * i + 1) % ring.rank for i in range(word_len)]
            for target in range(ring.rank):
                assert hom_space_dim(ring, word, target) == oracles.hom_dim_bruteforce(
                    ring, word, target
                )
