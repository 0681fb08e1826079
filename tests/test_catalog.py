"""Metaplectic family constructors, censuses, Deligne products, Ising^2 data,
based isomorphism."""

import dataclasses
import gc
import hashlib
import json
import time
import tracemalloc
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from modcat import (
    AlgebraicReal,
    FusionRing,
    GaugingDatum,
    InternalConsistencyError,
    MalformedInputError,
    ParameterError,
    Phase,
    ResourceLimitError,
    RibbonData,
    UnsupportedInputError,
    based_ring_isomorphism,
    boson_fermion_census,
    build_so_n2,
    count_metaplectic,
    deligne_product,
    deligne_ribbon,
    exact_dimensions,
    gauge_particle_hole,
    gauss_sums,
    invertibles,
    is_modular,
    ising_squared_data,
    ising_squared_enumeration,
    ising_squared_total_count,
    s_matrix,
    sixteen_m_component_census,
    structure_census,
    universal_grading,
    verify_axioms,
)
import modcat.ring as ring_module
from modcat import catalog, gauging
from modcat.catalog import IsingParams
from modcat.metric import (
    enumerate_cyclic_metric_groups,
    enumerate_forms,
    pointed_ribbon_data,
    standard_cyclic_metric_group,
)
from modcat.ring import fp_dimensions

import oracles
from test_ring import pointed_z


def ring_digest(ring, dense=True) -> str:
    """sha256 of json([labels, dual, exact dims]) followed by the bytes of
    `ring.fusion`, fed one i-plane at a time from the nonzeros so that the
    dense tensor is never held, or with dense=False by the bytes of the
    cells and then the mults."""
    h = hashlib.sha256()
    h.update(json.dumps(
        [list(ring.labels), list(ring.dual), [d.to_json() for d in ring.exact_dims]]
    ).encode())
    if not dense:
        h.update(ring.cells.tobytes())
        h.update(ring.mults.tobytes())
        return h.hexdigest()
    r = ring.rank
    ends = np.searchsorted(ring.cells, np.arange(r + 1) * r * r).tolist()
    plane = np.zeros(r * r, dtype=np.int64)
    for i, (lo, hi) in enumerate(zip(ends, ends[1:])):
        plane[:] = 0
        plane[ring.cells[lo:hi] - i * r * r] = ring.mults[lo:hi]
        h.update(plane)
    return h.hexdigest()


class TestBuild:
    def test_axioms_and_global_dim_full_range(self, so_rings):
        for n in range(2, 41):
            r = so_rings(n)
            assert verify_axioms(r).ok, n
            assert (fp_dimensions(r) ** 2).sum() == pytest.approx(4 * n, abs=1e-6), n

    def test_census_full_range(self, so_rings):
        for n in range(2, 41):
            census = structure_census(so_rings(n), n)
            assert census.ok, (n, census.mismatches)

    @pytest.mark.parametrize("build", [
        build_so_n2, boson_fermion_census, catalog.so_n2_rules, gauging.count_gaugings_per_form,
        count_metaplectic])
    @pytest.mark.parametrize("n", [12.0, 13.0, True, np.int64(12), "12"])
    def test_rejects_n_that_is_not_an_int(self, build, n):
        # a float, bool, numpy integer or string is refused, not read as an int
        with pytest.raises(ParameterError, match="int N"):
            build(n)

    @pytest.mark.parametrize("m", [3.0, 15.0, True, np.int64(15)])
    def test_sixteen_m_rejects_m_that_is_not_an_int(self, m):
        with pytest.raises(ParameterError, match="int"):
            sixteen_m_component_census(m)

    def test_census_is_frozen(self, so_rings):
        good = structure_census(so_rings(12), 12)
        assert good.mismatches == () and good.ok
        # SO(12)_2 read as SO(10)_2: every count and the global dimension disagree
        bad = structure_census(so_rings(12), 10)
        assert isinstance(bad.mismatches, tuple) and not bad.ok
        assert "dim2_count: got 5, expected 4" in bad.mismatches
        with pytest.raises(dataclasses.FrozenInstanceError):
            bad.mismatches = ()
        with pytest.raises(AttributeError):
            bad.mismatches.append("x")

    def test_census_counts_odd(self, so_rings):
        c = structure_census(so_rings(9), 9)
        assert c.invertible_count == 2
        assert c.dim2_count == 4
        assert c.spinor_count == 2
        assert c.spinor_dim == AlgebraicReal.of(3)

    def test_census_counts_four_divides(self, so_rings):
        c = structure_census(so_rings(12), 12)
        assert c.invertible_count == 4
        assert c.dim2_count == 5
        assert c.spinor_count == 4
        assert c.spinor_dim == AlgebraicReal.sqrt(6)

    def test_census_counts_two_mod_four(self, so_rings):
        c = structure_census(so_rings(10), 10)
        assert c.invertible_count == 4
        assert c.dim2_count == 4
        assert c.spinor_count == 4
        assert c.spinor_dim == AlgebraicReal.sqrt(5)

    def test_self_duality_pattern(self, so_rings):
        for n in (5, 8, 12, 16):
            assert all(structure_census(so_rings(n), n).self_dual)
        for n in (6, 10, 14):
            c = structure_census(so_rings(n), n)
            assert sum(not s for s in c.self_dual) == 6

    def test_spinor_squared_dimension(self, so_rings):
        for n in (5, 7, 12, 20):
            r = so_rings(n)
            d = fp_dimensions(r)
            spin = max(range(r.rank), key=lambda i: d[i])
            assert d[spin] ** 2 == pytest.approx(n if n % 2 else n / 2, abs=1e-6)

    @pytest.mark.parametrize("n", [433, 501, 603, 1000])
    def test_fp_dimensions_are_the_exact_dims_at_large_n(self, n):
        ring = build_so_n2(n)
        assert fp_dimensions(ring).tolist() == [float(d) for d in ring.exact_dims]
        assert structure_census(ring, n).ok

    def test_rejects_bad_n(self):
        with pytest.raises(ParameterError):
            build_so_n2(1)

    def test_size_cap_counts_the_nonzeros_exactly(self, monkeypatch):
        # with the cap at a ring's own nonzero count the ring is built, and
        # one below it is refused, on both routes and for every alpha
        for n in range(2, 70):
            mg = standard_cyclic_metric_group(n)
            builds = [lambda: build_so_n2(n)] + [
                lambda a=a: gauge_particle_hole(mg, GaugingDatum(n, a)) for a in range(2 - n % 2)
            ]
            for build in builds:
                nonzeros = len(build().cells)
                monkeypatch.setattr(gauging, "NONZERO_LIMIT", nonzeros)
                build()
                monkeypatch.setattr(gauging, "NONZERO_LIMIT", nonzeros - 1)
                with pytest.raises(ResourceLimitError, match="nonzeros"):
                    build()
                monkeypatch.undo()

    def test_bit_identical_to_recorded_digests(self):
        # labels, duality, exact dims and the tensor, order included, for
        # every N in the table; the large points are where the orbit and
        # X/Y blocks carry almost all of the products
        wrong = [n for n, want in _SO_N2_DIGESTS.items() if ring_digest(build_so_n2(n)) != want]
        assert wrong == []

    def test_past_the_dense_limit_bit_identical_to_recorded_nonzeros(self):
        # ranks 551-553, where the dense view is refused
        wrong = [
            n for n, want in _SO_N2_NONZERO_DIGESTS.items()
            if ring_digest(build_so_n2(n), dense=False) != want
        ]
        assert wrong == []

    def test_explicit_v_fusion_for_twelve(self, so_rings):
        # V1 (x) V1 = 1 + f + all X_i ; V1 (x) V2 = g + fg + all X_i
        r = so_rings(12)
        v1, v2 = r.index("V1"), r.index("V2")
        xs = [i for i, lab in enumerate(r.labels) if lab.startswith("X")]
        row = r.fusion[v1, v1]
        assert row[r.index("1")] == 1 and row[r.index("f")] == 1
        assert all(row[x] == 1 for x in xs)
        assert row.sum() == 2 + len(xs)
        row = r.fusion[v1, v2]
        assert row[r.index("g")] == 1 and row[r.index("fg")] == 1
        assert all(row[x] == 1 for x in xs)
        assert row.sum() == 2 + len(xs)


class TestMemory:
    """Peaks of the traced allocations against the storage of the ring,
    its int64 cells and multiplicities, on both build routes."""

    @pytest.fixture(scope="class", autouse=True)
    def traced(self):
        if tracemalloc.is_tracing():
            yield
            return
        tracemalloc.start()
        yield
        tracemalloc.stop()

    @pytest.mark.parametrize("n", [3000, 3001, 3002])
    def test_build_and_census_stay_near_the_ring_storage(self, n):
        gc.collect()
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        ring = build_so_n2(n)
        storage = ring.cells.nbytes + ring.mults.nbytes
        assert tracemalloc.get_traced_memory()[1] - before <= 1.3 * storage
        held = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        assert structure_census(ring, n).ok
        assert tracemalloc.get_traced_memory()[1] - held <= 0.1 * storage


class TestGradings:
    def test_four_divides_population(self, so_rings):
        for n in (8, 12, 16, 20, 24, 28, 32, 36, 40):
            g = universal_grading(so_rings(n))
            assert g.group == (2, 2)
            sizes = sorted(len(v) for v in g.components().values())
            assert sizes == sorted([4 + n // 4 - 1, n // 4, 2, 2])

    def test_odd_grading(self, so_rings):
        for n in (3, 5, 7, 9, 11):
            r = so_rings(n)
            g = universal_grading(r)
            assert g.group == (2,)
            d = fp_dimensions(r)
            comps = list(g.components().values())
            s = [sum(d[i] ** 2 for i in comp) for comp in comps]
            assert abs(s[0] - s[1]) < 1e-6

    def test_two_mod_four_grading(self, so_rings):
        for n in (6, 10, 14):
            g = universal_grading(so_rings(n))
            assert g.group == (4,)


def carries(phi, r1, r2) -> bool:
    """phi is a permutation fixing the unit and taking the nonzeros of r1,
    with their multiplicities, onto those of r2, and duals to duals."""
    phi = np.array(phi)
    r = r1.rank
    i, j, k = r1.nonzero()
    cells = (phi[i] * r + phi[j]) * r + phi[k]
    at = np.argsort(cells)
    return (
        sorted(phi.tolist()) == list(range(r))
        and phi[0] == 0
        and all(phi[r1.dual[x]] == r2.dual[phi[x]] for x in range(r))
        and np.array_equal(cells[at], r2.cells)
        and np.array_equal(r1.mults[at], r2.mults)
    )


def relabelled(ring, perm):
    """The copy of `ring` in which object i is called perm[i]."""
    perm = np.asarray(perm)
    r = ring.rank
    i, j, k = ring.nonzero()
    cells = (perm[i] * r + perm[j]) * r + perm[k]
    at = np.argsort(cells)
    dual = [0] * r
    for x in range(r):
        dual[perm[x]] = int(perm[ring.dual[x]])
    return FusionRing.from_nonzeros(ring.labels, dual, cells[at], ring.mults[at])


def moved(ring, src, dst):
    """`ring` with the multiplicity of its nonzero number `src` moved to
    the zero cell number `dst`: same rank, same number of nonzeros."""
    free = np.setdiff1d(np.arange(ring.rank**3), ring.cells)
    cells = ring.cells.copy()
    cells[src] = free[dst % len(free)]
    at = np.argsort(cells)
    return FusionRing.from_nonzeros(ring.labels, ring.dual, cells[at], ring.mults[at])


KNOWN_SMALL = [
    catalog.fibonacci_ring(),
    catalog.ising_ring(),
    *map(pointed_z, range(1, 7)),
    *(ring for ring in map(build_so_n2, range(2, 9)) if ring.rank <= 6),
]


@st.composite
def small_rings(draw):
    """A ring of rank at most 6: a known based ring, or a random tensor
    with a random involutive dual, symmetric and unital or not."""
    if draw(st.booleans()):
        return draw(st.sampled_from(KNOWN_SMALL))
    r = draw(st.integers(1, 6))
    fusion = np.array(
        draw(st.lists(st.sampled_from((0, 0, 1, 2, 2**40)), min_size=r**3, max_size=r**3)),
        dtype=np.int64,
    ).reshape(r, r, r)
    if draw(st.booleans()):
        fusion = np.maximum(fusion, fusion.transpose(1, 0, 2))
    if draw(st.booleans()):
        fusion[0] = fusion[:, 0] = np.eye(r, dtype=np.int64)
    order = draw(st.permutations(range(r)))
    dual = list(range(r))
    for t in range(draw(st.integers(0, r // 2))):
        a, b = order[2 * t], order[2 * t + 1]
        dual[a], dual[b] = b, a
    return FusionRing(tuple(map(str, range(r))), dual, fusion)


class TestRoundTripIsomorphism:
    def test_gauge_matches_catalog(self, so_rings):
        # the 196-204 rings are built here, not cached, so that their dense
        # views are freed after the check
        for n in [*range(2, 61), 100, *range(196, 205)]:
            mg = enumerate_cyclic_metric_groups(n)[0]
            gauged = gauge_particle_hole(mg)
            target = so_rings(n) if n <= 100 else build_so_n2(n)
            phi = based_ring_isomorphism(gauged, target)
            assert phi is not None, n
            assert carries(phi, gauged, target), n
            # verify the bijection carries the tensor exactly, on the dense view
            perm = np.array(phi)
            assert np.array_equal(
                target.fusion[np.ix_(perm, perm, perm)], gauged.fusion
            ), n

    def test_round_trip_past_the_dense_cap(self, monkeypatch):
        # with no room for a dense tensor, a search that built one would raise
        monkeypatch.setattr(ring_module, "DENSE_LIMIT", 0)
        for n in (120, 121, 122):
            gauged = gauge_particle_hole(enumerate_cyclic_metric_groups(n)[0])
            target = build_so_n2(n)
            phi = based_ring_isomorphism(gauged, target)
            assert phi is not None and carries(phi, gauged, target), n
            with pytest.raises(ResourceLimitError):
                target.fusion

    def test_round_trip_at_300_is_fast(self):
        start = time.perf_counter()
        gauged = gauge_particle_hole(enumerate_cyclic_metric_groups(300)[0])
        target = build_so_n2(300)
        phi = based_ring_isomorphism(gauged, target)
        elapsed = time.perf_counter() - start
        assert phi is not None and carries(phi, gauged, target)
        assert elapsed < 2.0, elapsed

    @settings(max_examples=300, deadline=None)
    @given(small_rings(), st.data())
    def test_matches_bruteforce_oracle(self, ring, data):
        r = ring.rank
        perm = (0, *data.draw(st.permutations(range(1, r))))
        copy = relabelled(ring, perm)
        phi = based_ring_isomorphism(ring, copy)
        assert phi is not None and carries(phi, ring, copy)
        if len(ring.cells) == 0 or len(ring.cells) == r**3:
            return
        other = moved(copy, data.draw(st.integers(0, len(copy.cells) - 1)),
                      data.draw(st.integers(0, r**3)))
        phi = based_ring_isomorphism(ring, other)
        want = oracles.based_ring_isomorphism_bruteforce(ring, other)
        assert (phi is None) == (want is None)
        assert phi is None or carries(phi, ring, other)

    def test_the_unit_maps_to_the_unit(self):
        # swapping 0 and 1 carries one tensor onto the other, but moves the unit
        one = np.zeros((2, 2, 2), dtype=np.int64)
        one[1, 1, 1] = 1
        r1 = FusionRing(("a", "b"), (0, 1), one)
        r2 = FusionRing(("a", "b"), (0, 1), one[::-1, ::-1, ::-1])
        assert oracles.based_ring_isomorphism_bruteforce(r1, r2) is None
        assert based_ring_isomorphism(r1, r2) is None

    def test_duals_must_correspond(self):
        # the tensor of Z_5 with the pairs {1, 2} and {3, 4} called dual:
        # no automorphism of Z_5 takes the pairs {a, -a} there, and the
        # fusion rules alone do not tell the two apart
        ring = pointed_z(5)
        for dual in ((0, 2, 1, 4, 3), (0, 1, 2, 3, 4)):
            other = FusionRing(ring.labels, dual, ring.fusion)
            assert oracles.based_ring_isomorphism_bruteforce(ring, other) is None
            assert based_ring_isomorphism(ring, other) is None

    def test_ties_left_by_refinement_are_searched(self):
        # N[i, j, 0] = 1 for distinct vertices i, j of a graph, 2 on its
        # edges: a 6-cycle and two triangles are both 2-regular, so colour
        # refinement cannot tell them apart, but they are not isomorphic
        def graph_ring(edges):
            fusion = np.zeros((7, 7, 7), dtype=np.int64)
            for i in range(1, 7):
                for j in range(1, 7):
                    fusion[i, j, 0] = (i != j) * (1 + ((min(i, j), max(i, j)) in edges))
            return FusionRing(tuple(map(str, range(7))), tuple(range(7)), fusion)

        hexagon = graph_ring({(1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (1, 6)})
        triangles = graph_ring({(1, 2), (2, 3), (1, 3), (4, 5), (5, 6), (4, 6)})
        assert based_ring_isomorphism(hexagon, triangles) is None
        copy = relabelled(hexagon, (0, 3, 5, 1, 6, 2, 4))
        phi = based_ring_isomorphism(hexagon, copy)
        assert phi is not None and carries(phi, hexagon, copy)

    def test_no_isomorphism_across_sizes(self, so_rings):
        assert based_ring_isomorphism(so_rings(5), so_rings(7)) is None

    def test_no_isomorphism_same_rank_different_rules(self, so_rings):
        # SO(8)_2 and the pointed ring on its invertibles x anything: compare
        # two genuinely different rank-9 rings
        assert based_ring_isomorphism(so_rings(8), pointed_z(9)) is None

    def test_no_isomorphism_with_one_multiplicity_moved(self, so_rings):
        # same rank and number of nonzeros; the moved copy breaks an axiom,
        # so it cannot be isomorphic to a based ring
        for n in (12, 15, 30, 31):
            ring = so_rings(n)
            for src in (0, len(ring.cells) // 3, len(ring.cells) - 1):
                bad = moved(ring, src, ring.rank**3 // 2)
                assert len(bad.cells) == len(ring.cells)
                assert not verify_axioms(bad).ok
                assert based_ring_isomorphism(ring, bad) is None, (n, src)
                assert based_ring_isomorphism(bad, ring) is None, (n, src)


class TestBosonFermion:
    def test_fg_always_boson(self):
        for n in range(4, 41, 4):
            assert boson_fermion_census(n)["fg"] == "boson"

    def test_f_g_pattern_follows_eight_divisibility(self):
        for n in range(4, 41, 4):
            verdicts = boson_fermion_census(n)
            expected = "boson" if n % 8 == 0 else "fermion"
            assert verdicts["f"] == expected
            assert verdicts["g"] == expected

    def test_rejects_other_n(self):
        with pytest.raises(ParameterError):
            boson_fermion_census(6)

    @staticmethod
    def rebuilt(ring, labels=None, drop=()):
        """`ring` with other labels, or without the nonzeros (i, j, k) in
        `drop`, keeping its keys."""
        r = ring.rank
        keep = ~np.isin(ring.cells, [(i * r + j) * r + k for i, j, k in drop])
        return FusionRing.from_nonzeros(labels or ring.labels, ring.dual, ring.cells[keep],
                                        ring.mults[keep], ring.exact_dims, ring.keys)

    def test_the_cross_check_finds_the_middle_y_by_key(self):
        # the labels play no part: renamed, the census answers as before
        for n in (12, 20, 28, 44):
            ring = build_so_n2(n)
            renamed = self.rebuilt(ring, labels=[f"o{i}" for i in range(ring.rank)])
            assert catalog._boson_fermion(renamed, n) == boson_fermion_census(n)

    def test_the_cross_check_catches_a_missing_invertible(self):
        # Y1, key 7, is the middle Y of SO(12)_2, and Y1 (x) Y1 = 1 + f + g + fg
        ring = build_so_n2(12)
        y1, f = ring.index("Y1"), ring.index("f")
        assert ring.keys[[y1, f]].tolist() == [7, 1]
        assert ring.row(y1, y1)[0].tolist() == sorted(ring.index(x) for x in ("1", "f", "g", "fg"))
        bad = self.rebuilt(ring, drop=[(y1, y1, f)])
        assert len(bad.cells) == len(ring.cells) - 1
        with pytest.raises(InternalConsistencyError, match="middle Y square"):
            catalog._boson_fermion(bad, 12)


class TestExampleRings:
    """The Fibonacci and Ising rings come from rule blocks, and equal the
    rings built from their dense tables."""

    @staticmethod
    def dense(labels, table, dims):
        r = len(labels)
        fusion = np.zeros((r, r, r), dtype=np.int64)
        for (i, j), ks in table.items():
            fusion[i, j, ks] = 1
        return FusionRing(labels, tuple(range(r)), fusion, dims)

    def test_fibonacci(self):
        phi = AlgebraicReal(Fraction(1, 2), Fraction(1, 2), 5)
        table = {(0, 0): [0], (0, 1): [1], (1, 0): [1], (1, 1): [0, 1]}
        want = self.dense(("1", "X"), table, (AlgebraicReal.of(1), phi))
        ring = catalog.fibonacci_ring()
        assert ring == want and ring.dumps() == want.dumps()
        assert ring.keys.tolist() == [0, 1] and verify_axioms(ring).ok

    def test_ising(self):
        table = {(0, 0): [0], (0, 1): [1], (0, 2): [2], (1, 0): [1], (1, 1): [0], (1, 2): [2],
                 (2, 0): [2], (2, 1): [2], (2, 2): [0, 1]}
        dims = (AlgebraicReal.of(1), AlgebraicReal.of(1), AlgebraicReal.sqrt(2))
        want = self.dense(("1", "psi", "sig"), table, dims)
        ring = catalog.ising_ring()
        assert ring == want and ring.dumps() == want.dumps()
        assert ring.keys.tolist() == [0, 1, 2] and verify_axioms(ring).ok


class TestIsingSquared:
    def test_orbit_count_and_histogram(self):
        e = ising_squared_enumeration()
        assert e["count"] == 20
        assert e["histogram"] == {2: 8, 4: 12}
        covered = {p for orbit in e["orbits"] for p in orbit}
        assert len(covered) == 64

    def test_total_count_breakdown(self):
        t = ising_squared_total_count()
        assert t["cyclic-gauged"] == 12
        assert t["klein-gauged"] == 8
        assert t["total"] == 20

    def test_all_64_data_modular(self):
        for nu1 in range(1, 16, 2):
            for nu2 in range(1, 16, 2):
                assert is_modular(ising_squared_data(IsingParams(nu1, nu2)))

    def test_orbit_members_share_t_multisets(self):
        e = ising_squared_enumeration()
        for orbit in e["orbits"]:
            tsets = []
            for nu1, nu2 in orbit:
                rd = ising_squared_data(IsingParams(nu1, nu2))
                tsets.append(
                    sorted((float(d), t.r) for d, t in zip(rd.dims, rd.twists))
                )
            assert all(t == tsets[0] for t in tsets)

    def test_rejects_even_parameters(self):
        with pytest.raises(ParameterError):
            IsingParams(2, 1)

    @pytest.mark.parametrize("nu1, nu2", [(1.5, 3), (1, 3.0), (True, 3), (1, "3")])
    def test_rejects_parameters_that_are_not_ints(self, nu1, nu2):
        # nothing is coerced: a float, bool or string is refused, not read mod 16
        with pytest.raises(ParameterError, match="ints"):
            IsingParams(nu1, nu2)

    def test_all_64_data_bit_identical_to_recorded_digest(self):
        # `dumps` of every datum in (nu1, nu2) order, recorded from the
        # construction that split the product labels to add the twists
        h = hashlib.sha256()
        for nu1 in range(1, 16, 2):
            for nu2 in range(1, 16, 2):
                h.update(ising_squared_data(IsingParams(nu1, nu2)).dumps().encode())
        assert h.hexdigest() == "2a868452b47f6439177c0bb4645168b758866a929d4908baeec4eb12c361c656"

    def test_ring_bit_identical_to_recorded_digest(self):
        # recorded from the per-pair Counter construction
        ring = catalog.deligne_product(catalog.ising_ring(), catalog.ising_ring())
        assert ring_digest(ring) == (
            "07b0016c60fa230b588974973bb17ad38e115ed73e5f800adcbebe2ac5dc3a84"
        )


def ising_data(nu: int) -> RibbonData:
    ising = catalog.ising_ring()
    return RibbonData(ising, ising.exact_dims, (Phase.of(0), Phase.of(1, 2), Phase.of(nu, 16)))


def silver_ring() -> FusionRing:
    # X (x) X = 1 + 2X
    fusion = np.zeros((2, 2, 2), dtype=np.int64)
    fusion[0, 0, 0] = fusion[0, 1, 1] = fusion[1, 0, 1] = fusion[1, 1, 0] = 1
    fusion[1, 1, 1] = 2
    return FusionRing(("1", "X"), (0, 1), fusion, (AlgebraicReal.of(1), 1 + AlgebraicReal.sqrt(2)))


def factor_positions(r1, r2, ring) -> list[int]:
    """Per object `a*b` of the product ring, a * r2 + b in the factors' indices."""
    return [r1.labels.index(a) * r2.rank + r2.labels.index(b)
            for a, b in (label.split("*") for label in ring.labels)]


class TestDeligne:
    def check_product(self, r1, r2):
        ring = deligne_product(r1, r2)
        at = factor_positions(r1, r2, ring)
        r = r1.rank * r2.rank
        dense = np.einsum("ace,bdf->abcdef", r1.fusion, r2.fusion).reshape(r, r, r)
        assert np.array_equal(ring.fusion, dense[np.ix_(at, at, at)])
        duals = [r1.dual[x // r2.rank] * r2.rank + r2.dual[x % r2.rank] for x in at]
        assert [at[k] for k in ring.dual] == duals
        d1, d2 = exact_dimensions(r1), exact_dimensions(r2)
        assert exact_dimensions(ring) == tuple(d1[x // r2.rank] * d2[x % r2.rank] for x in at)
        assert verify_axioms(ring).ok
        return ring

    def test_products_of_verified_rings_within_one_field(self):
        ising, z = catalog.ising_ring(), pointed_z
        pairs = [(ising, ising), (ising, z(3)), (z(2), z(3)), (z(3), z(6)), (z(4), z(4)),
                 (build_so_n2(4), ising), (build_so_n2(8), ising), (build_so_n2(5), z(3)),
                 (z(2), build_so_n2(6)), (build_so_n2(10), z(4)), (build_so_n2(12), z(5))]
        for r1, r2 in pairs:
            self.check_product(r1, r2)

    def test_a_multiplicity_two_rule_gives_the_product_of_multiplicities(self):
        silver = silver_ring()
        for other in (silver, catalog.ising_ring(), pointed_z(3)):
            labels, dims, blocks = catalog.deligne_rules(silver, other)
            assert len(oracles.stack_rows(blocks)[0]) == 6 * int(other.mults.sum())
            assert self.check_product(silver, other).mults.max() == 2 * other.mults.max()

    def test_keys_past_one_byte(self):
        # 272 objects: Z_16 x Z_17 is the cyclic group of order 272
        ring = deligne_product(pointed_z(16), pointed_z(17))
        assert ring.rank == 272 and verify_axioms(ring).ok
        assert invertibles(ring).invariant_factors() == [272]

    def test_s_matrix_is_the_kronecker_product_and_gauss_sums_multiply(self):
        forms = [pointed_ribbon_data(mg) for n in (2, 3, 4, 5) for mg in enumerate_forms((n,))[:2]]
        pairs = [(ising_data(1), ising_data(3)), (ising_data(5), forms[0]), (forms[2], ising_data(7)),
                 (forms[1], forms[4]), (forms[3], forms[6]), (forms[5], forms[7])]
        for rd1, rd2 in pairs:
            rd = deligne_ribbon(rd1, rd2)
            at = factor_positions(rd1.ring, rd2.ring, rd.ring)
            kron = np.kron(s_matrix(rd1).entries, s_matrix(rd2).entries)
            assert np.allclose(s_matrix(rd).entries, kron[np.ix_(at, at)], atol=1e-9)
            r2 = rd2.ring.rank
            assert rd.twists == tuple(rd1.twists[x // r2] * rd2.twists[x % r2] for x in at)
            (p, m), (p1, m1), (p2, m2) = gauss_sums(rd), gauss_sums(rd1), gauss_sums(rd2)
            assert abs(p - p1 * p2) < 1e-9 and abs(m - m1 * m2) < 1e-9
            assert is_modular(rd)

    def test_a_degenerate_factor_leaves_the_product_not_modular(self):
        zero = [mg for mg in enumerate_forms((2,), nondegenerate_only=False) if not any(mg.num)]
        rd = deligne_ribbon(ising_data(1), pointed_ribbon_data(zero[0]))
        assert not is_modular(rd)

    def test_so4_is_ising_squared(self):
        ising = catalog.ising_ring()
        so4, square = build_so_n2(4), deligne_product(ising, ising)
        phi = based_ring_isomorphism(so4, square)
        assert phi is not None
        assert [exact_dimensions(square)[k] for k in phi] == list(exact_dimensions(so4))

    def test_refuses_past_the_nonzero_limit_before_any_block(self):
        # SO(1000)_2 has 515 032 nonzeros: its square would list 2.7e11
        big = build_so_n2(1000)
        tracemalloc.start()
        try:
            with pytest.raises(ResourceLimitError, match="265257961024 products"):
                deligne_product(big, big)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    @pytest.mark.parametrize("pair", ["so5_so3", "fibonacci_ising"])
    def test_refuses_dims_that_leave_one_quadratic_field(self, pair):
        r1, r2 = {"so5_so3": (build_so_n2(5), build_so_n2(3)),
                  "fibonacci_ising": (catalog.fibonacci_ring(), catalog.ising_ring())}[pair]
        with pytest.raises(UnsupportedInputError, match="quadratic field"):
            deligne_product(r1, r2)

    def test_ribbon_matches_the_label_reference(self):
        # every Ising x Ising datum, and Ising against pointed data both ways
        data = [ising_data(nu) for nu in range(1, 16, 2)]
        pointed = [pointed_ribbon_data(mg) for n in (2, 3, 5, 12) for mg in enumerate_forms((n,))[:2]]
        pairs = [(a, b) for a in data for b in data]
        pairs += [pair for rd in pointed for pair in ((data[1], rd), (rd, data[2]))]
        for rd1, rd2 in pairs:
            rd = deligne_ribbon(rd1, rd2)
            reference = oracles.deligne_ribbon_reference(rd1, rd2)
            assert rd == reference and rd.dumps() == reference.dumps()
            assert rd.ring.keys.tolist() == factor_positions(rd1.ring, rd2.ring, rd.ring)

    def test_labels_that_collide_are_refused(self):
        # 1 x 1*1 and 1*1 x 1 would both be labelled 1*1*1
        z2 = pointed_z(2)
        twice = FusionRing(("1", "1*1"), z2.dual, z2.fusion)
        with pytest.raises(MalformedInputError, match="distinct"):
            deligne_product(twice, twice)


class TestSixteenM:
    def test_census_passes(self):
        for m in (3, 5, 7, 15):
            report = sixteen_m_component_census(m)
            assert report["ok"], (m, report["checks"])
            assert report["spinor_dim"] == AlgebraicReal.sqrt(2 * m)

    def test_rejects_bad_m(self):
        for m in (1, 4, 9):
            with pytest.raises(ParameterError):
                sixteen_m_component_census(m)

    def test_builds_and_checks_the_ring_once(self, monkeypatch):
        for m in (3, 35):
            want = sixteen_m_component_census(m)
            builds = []
            monkeypatch.setattr(catalog, "build_so_n2",
                                lambda n: builds.append(n) or build_so_n2(n))
            with mock.patch.object(ring_module, "_is_character",
                                   wraps=ring_module._is_character) as check:
                assert sixteen_m_component_census(m) == want
            assert builds == [4 * m] and check.call_count == 1
            monkeypatch.undo()


# sha256 of json([labels, dual, exact dims]) followed by fusion.tobytes(),
# recorded from the per-pair Counter construction of build_so_n2 for
# N in 2-130, 196-204 and 597-603
_SO_N2_DIGESTS = {
    2: "8d0b74c205e0c4a34c9bf17fa174376c99f061007d0d0f289f4ee1b98fc7f164",
    3: "66c21615cdc95cabb5dfa8f5eb3163fbbd5986873cb2196073c2b61975d3ef3c",
    4: "dbff527011905494f8417734a1e212d6a4567e156800819e470c56335c451a69",
    5: "f644f5e193bf217936b1d2e18f748ae857f77a3d029458ec41edf025c307db09",
    6: "623726f7d3b5523114552f3ec3cb6270987d40bf3286f11ed853d921b283568d",
    7: "b4b3697605357cb694ced9a9ed528ae6482ea9416eb850f174d45665658078c9",
    8: "8615010e9a437cfb7964f934e805bb95f871281ac9bd918c5d26604437630421",
    9: "2cf698232ae43f7af50289f2232cf53ba737539b84fa6d4d9d3579ae4070015c",
    10: "7582690201ec7aa7cf15b923daa5d91f74e774e93615a7be3dce17d9109847a2",
    11: "9ecd67e5b1d31ba5d3b13d3d9388a78d0e71e360ccbaf26673d3553583588098",
    12: "ed7e536758d8001c35bf169d891ed7c57ef1380a8d2eb9a5dcd2b08c5201b57a",
    13: "1d50d68ef73355d9ea5b72925212c0892eecda04fd8272aeaadaf22103646945",
    14: "b970fff5ba37571cd44c095135b8b53ee713d6a76eb1354fc166fcf77544859c",
    15: "bac1e632f5d49a001e72e34b9d16493a0ffff353b982cbb26de18b1d20e712f5",
    16: "4af570ceb653700324e171407624a08b114fe7a33c005c91479f79ad35c24886",
    17: "6fc500765657f07b18b9b13379fd57e055ef3f7a61c2cb14387101f6b87a6a9e",
    18: "ffbd68eb405686b7a1829d74413e65cb0dabbd6b26d57a2a83aaa68cbd1481b9",
    19: "521cf6ec004c0af6c809db10489e58d1211e2d7a6d0871327f43808e90fb751f",
    20: "52a1d07980803ba6f5e33b448ed12b741359393f460c6fa1bc8b1737766af4f8",
    21: "0620094d48a0f2382e748cc0e56915a44ee7918a1fa2c1ce746bde7933dd4a0b",
    22: "1c9e7dddcbdf89d993a1b63accbf3e0c91dae3eeab16ab685750a4ba6ba0d936",
    23: "2a728d5e3ea9fea048b69eafee18464eb7ff194f8500d065435e15b6679a03b0",
    24: "9a85a372ada7f61c041b206ffe0c8d215a4d08ec5df5377593cfc41068a20771",
    25: "1d1fc1edb8d2ac9feefebd7425a38ba7fffc3d1f326fca29172434faae088ba7",
    26: "bd45f8b57b937d82355720a0a3dc0c6fbc3b4b340ace13a37b4a5875afae5c6b",
    27: "11c1e07956e42527f5044bd3a8a1ce9bcc1450c98fe64a3a96903bc6dde6b53e",
    28: "a2086ae2cb520937d7c8bde202e4c817a88372418117045833fb0f474245856f",
    29: "67f8bc2e7ce9702f835a10f67342aaadd50a2dcfb17d1b0a7f8f250a251e5c08",
    30: "84c9678ad14c5b359d655deda324e7e4a6b8009b485ee3a975433b74bfaf84c4",
    31: "18f9109dcbefbdefc3637ff3bb1db2572a694d6b7bd6a600f984b03f971ea95f",
    32: "eaac767ae79e1ae41dd92cad1ad02893bb734faae6c5094250a5e7551809e677",
    33: "f31156f899e126a6141398a355c17df9e3e6213b1ee54cd5dbb93509fd9a9069",
    34: "5d7a6489ed06edba5e14bd0835e6854145e428119c1c58150548d12a116b66b3",
    35: "8a54055fcb953c467311b591f86d365b1e5f61d34579be0ee24148ba00914ddc",
    36: "550e225d13b6ff0ec669d46afd336e74967091573ede84d3ad8bdbdfcef6ac3a",
    37: "e65be0df7f5ba8e050826aa0ac926fc60f3c107057403e6ac6717f3c4a4becae",
    38: "9cf5d48701d87edc0444756959c2e57eef8c23989bf6a6f11fe44f0158b851eb",
    39: "4fddeecbb06f3ad3cc9f291fdd8ceefe65060bb4fb4d63b2d54a0131622141b5",
    40: "c4e9af484eafe4d3178ac39ce94c43ff373b674753dd0f2283286f55133383fb",
    41: "f98f8bd974a333a14734bd5a8f9cbec0175b179f32315e03be5959db404221a5",
    42: "179fa64df34b86d67b641b2b8ae2612c832bab3a7c2ed23f0a2fb594cf9a6d71",
    43: "7baea5e2b9c369ebc2d9f9818432e5ab5bb042a0a2ca2465e238baaa84f9673b",
    44: "c0b44e8b9403bc975cb744475d19739a92fa6a0feb74892d029bfec4baa43fe1",
    45: "8ab8fce8e44085f8dd219043c81c8e2fcd54128c392ba6e78e0b017315777c0b",
    46: "8e57b99fe89cd2a6b4051ae6942d80f2a5223666267b16efe68f6c0d6002482b",
    47: "dba421d5fb5548ab04d9290726628b719766b2bd40dac36a23118b5d62dc2207",
    48: "bb95ebebc3226275cbcb217898f30322d6e565259845d2059404de08fe700602",
    49: "aa00edb44a158b957f5504c7194a2153daa4fd2aac6df2899cf80e11a2231f1a",
    50: "7f458fecc5435adb08f86690d34fc189039399eadd171bd8528d5823e74ca984",
    51: "02ee4bd06209518c649bc78ca0fc04acd54281a1d2648b2c63944c6eaf2598dd",
    52: "2509c0a49a0661afa04d4b86645ff80ead1cd7d7e1cdcb8d7d35f2df5c7cdb41",
    53: "ee276dc5b3ccf5307f2d6093f441302c9244497b6849431dd1aaa6b4f8c29f6e",
    54: "fa80a3000472a963a64dbea395be9a2aace24db2210c9cb9eb6d22d76b194301",
    55: "c3a1a3cbe4d6afd17b0e9e1e5e1ed865451e1549cbfb0973844273750f5b80f8",
    56: "f6ab310482da062899703454764a9019979a47f7904ea1fe4423b1bd40e7682e",
    57: "b2fd35c4b803dd75a65ec180d323fa71ed9aacce76093316dbf3a5aa72cc20f7",
    58: "1a98d5140944687adf19cc44002b56a78c4f0ac294d96930011f07a6f680c4a0",
    59: "f99e5215d9f07b7e103f9a4d15f61f804f96f995031aa7417dc7235e9c51d595",
    60: "d958376790ca5940eb30756e93ef3db900940b185f0430f29379a24c0a4dbf33",
    61: "77d3c0a35dbc4f4f28cfa0d5ada8d5f14115c91cb4394abad2b8599e1c9d7904",
    62: "14e03542132c2c3c5d22d37fe357dc81caeb1c7bc05ac8230c9eedbf9d8ef4fc",
    63: "9ab1f73501339ae76017c035a7d7b0bf63f7b9d3a1580d5ac0afb7ce82470571",
    64: "d140d4c631739d974e66c40482f6f5f8de8359082e1bb274b9d5755bc8f294ef",
    65: "d82e763689aeecbaff3bd9bc6356d5821195a0419b6a0de18b282f188044d77a",
    66: "5751af38c04da11f496e4245261abaec97da65d994ea685f796bc20502b4ba35",
    67: "a9538d2efe17b5149b23aba58346738e0d09d66e9ee8e41be54cd458a0ea9e31",
    68: "f79916e3f009363fb2620efb957c06d23ff5c2884a8b39caa18adc5a78531c06",
    69: "c421f1a7ab22c2d5b8ef9b73e41e21d8ffe670900666e37b33524c4a8e600b9f",
    70: "61b63ad9038e44bba64f35be8851fd61307594743a7919743c0354eb3b33c7a5",
    71: "1ba57e4596eb417e8e66ab0356fd431e9de133f44467a358cd7f615e8157a13f",
    72: "16716b1efc2eb7861f049a312adcee94d2944c8ad46b7db5dc3fd9dd25ec0e6b",
    73: "447bd61cc5b3ba45de99ac8112f151abc08f308088d2500129e9b53561afd829",
    74: "3162f3f648d3adfb4d626d3af154c2b5e1a160018073f314b617f2c351d6a978",
    75: "16d78cff1745adbefe505b0b33fc46f3a30505538863033fd4b53c94db95d21d",
    76: "04499269cbd35878d8653a80faf59db0bb946bc7d15fdc7ffd0d444e69623529",
    77: "6c3c67d5bb2b922d2ecb5fe2f45fdac78928834eaf58341d491f64767180c8bd",
    78: "503dddcc3e4b3781dd71b33e9d0647f7949b3131711344977e4a3365380d40de",
    79: "cd6fa21d7785937a13b2a2aadfb830d8f9df5ba17974fb7262207f3eb19bf656",
    80: "3a0019466cc15c341cd786d155ce1eb05de164f484587858ab1e9e4b3bc49fb6",
    81: "48f951af0d473847cb3bb40049ac239a43ff8315bb024097c2b6d5c207626a22",
    82: "b38e5434c93d7ab3a0565c23303990583a7f98349924aeac2bf39c39f16ff389",
    83: "7eb83f4cf8fea01ac775d0ba0084344a01f96195be478d5798de9528255afe11",
    84: "65a501892258d84e09454a1095f8f73ff3c9d314d638a2f5d5cdea3d7c59586b",
    85: "08d221c0864002bda2cb28e62da615b94ac36f99fd8e34b205adb53ce22e6740",
    86: "de3edab3899418e58347dda888f44ca05151f4488468c6fb763b17e9f2f18b32",
    87: "78fb0e465a97d9b19cdf73e7f2ccaa86dccfed7267d70f160f0b8bda8845eb65",
    88: "78d77c91eef790873a9fe2d40077062d4ff8fb560cdd9eab8a5aee309c5dd5a0",
    89: "63485935363256dfd7fc94edda0ce11f75cb4b33b34cdb47410bea4a590794d4",
    90: "dc0ef45fd68c5a51aeab567af67196d792aa0ecfd72f47e0dc69a361f4edfc8f",
    91: "10db7cfdc0b3a6057373117fd7caa3b3bd0b7cec1f6eaabc900b2ba36e80ff81",
    92: "07ba4f89d1b109aae5a4b4307587921aefae6a3a6504cf701e09492b93f8ae37",
    93: "4e44f8adb48f5d6af49713aa822f4a54746c983b924f315a45dc69fc7bed283c",
    94: "805810840f6c80a9d329836ed5b91106d9eb1645be82f2120a97e26fa2430f8e",
    95: "f8223c4f98f19067692122bc03dc86d15e65429d2cc417535c40c1badb77607c",
    96: "3537ae7da0d4eff9ed0c23b296b3828dc07af8fa43750486c0393dc9398195bf",
    97: "6a910fabd89009c91b9e9e8381fa3263e2bfa21cadd2439567a467fd088dc74e",
    98: "aa6c522d468022cf79711ba0a7d653bb0c3b7e4d61a8eec4aeb883e6d21ed550",
    99: "f671d9738574b94bc0a6dd638e2460c573999516f385f6c6db4319d9e8e50242",
    100: "3918b89478562dbd048363665ec1036063306b87d64f45e6fb06513f26d03543",
    101: "8bc71b06b0d52fafb1e5eac956b8b9e6e69163ef9583e956fcbd2d1f05934466",
    102: "0b1fd8bb16adafccd126ed539bd1c4dfc87bc920cfb1a9ea34ae161bdbe1b749",
    103: "1a8d3b345095f042098546138a6ec8515216c8b068473218f84132853cbfef0f",
    104: "046db302e654467fea4a8784d4762909bc5dd87669d941a529f3b656f077c01f",
    105: "b2555aaceed06eebfd4d9eccc519dc4ea53b4acb8bc155afdbf2c9cf0ba440e7",
    106: "e9681d93715860e7859c9245db3bb73eafb74456562e23a9852f5c8e5987aed3",
    107: "786c6b4b65eeea069252eb76d6df2ce053c1757966f54ac61642e161fbc69077",
    108: "2fb749dca43aef753a36464b234704bbc913ef80f5ad1360903a4a35637ee460",
    109: "9ad73923f8a74e3cd1c8134790a1f1c25c251b01291c2c7ec6fcfb919e565c0b",
    110: "3773c80851b5140ede8e3c81df3dae346ba25e36503c0dc643d03830efd3870f",
    111: "9d24284d91bdc632928aecade03cebf5eb2a54c17b6eb28f242aca97b0f2b465",
    112: "d5b6bdbddc7422151a1396277f1da904f5679ec08153b13c2095f88e87da124c",
    113: "aa5d89ef29fbb5388d0fce8c9b22fe54ad8483c9c222cc685f800e4a62485bd9",
    114: "dba5781aeed1fe9d97196c5db8d626761e2de2a2ded9e1dfa22ef93ab5c89f52",
    115: "fd3f018c2a3b63e1d12d774c647658fa3e9c76e21f2657cb2ddcd0b228b25ed8",
    116: "e87511cde503c5bea768ba633da4682028c54cecd3182c809c00e73b39a7124d",
    117: "564a205978983a658886946c1c96cc8c98334fc4a9d306c4968cea45deba5993",
    118: "bdc78d73c5c06e56e896d9768729893379a46b3116791bfab5fc5b78db7c1724",
    119: "3ef7613f210c44e1eb144d8556823f5a810e6babd998986e3a23aec8563b9c31",
    120: "ffef0caecd20cd575d37bbc0f6639a3d95e92ad828a43040eaa7b77418a0823b",
    121: "848b565a520e5bc8b8fef0d582103e083fcfed6e3358ee0b7b7fc7bda5b5967e",
    122: "8327402899ade9f0687a75217d2734a1043fb3a22fd2baa08a93584120bf3267",
    123: "ed1a38f743caa2e6f6847b74535c9faeaa093ff82d0b8bd3bb0d688e52c439c2",
    124: "649a377bb245faa65d1fa6eaea91c8092727374f67a729af83d1aeaef88a76e6",
    125: "3a8fd44f5e4cbd1d3422cce2d226aed0e745a646842ff9fecaa59a1989a6b666",
    126: "7d2bff5c743a4eb2ea5403319b64761eb2006ee8a82e0fae700eacf4dae9766e",
    127: "52d4afa8299e871bc5d88a4671b67f8fdb7ba0278888c1fea3cbaab94eb93ad7",
    128: "0d4d1aabc79a862f851c9e0e488cec86990a8564b7fa2600a8ab2962c8a952ad",
    129: "996c0ca5ed80aae808f3473eb8522ff64cbe4b00bf7f5cb595bfa8bfbd8a0c5a",
    130: "4301e05376a92926a625166f7de9f0bc464e4216d3af7ea13e23b78c1efc9bdb",
    196: "5f50f0fd7da48e5a1f3b2e8c0d2d350785556814a4269c4223dd98f6500a9e2d",
    197: "dfb8258d18781f9bc74609e0784ab32819cbca674f2a1f7365d6b611968915a3",
    198: "84560dad4b6490bdf39533ce7d3d143410570ba07b5a4b7478ecb81682167875",
    199: "99ddc3924815c596c1063c855c80039af2612084c1db4dc3372404aa2f356f5d",
    200: "f49917521d84d28f9d859f42cc6335f637bd54f485b25dd8b21d868ca98f2fd2",
    201: "2d095c906b0833be930a08ea45fcee9a9cedb67f781b95bf40780190a9b60f69",
    202: "37d924f1d26877feded328f532c680c63c429d807115272deb247ee90f1f9aa8",
    203: "326fedb2c519d08b469bedc3362e82a7157e14a942c067c3785624ee4c2f827f",
    204: "f7c686ac97159baf6200767cf422d5967f8bfe8ad7f191daf608fe71514bd2fe",
    597: "b1ade91b6516d29c36525147f2ea36ecaa83c3ff66fd6e4449a446c79853be32",
    598: "c96abf54616b12a94282eb5bf1ef07c4ed68e582951c1e56a549a10ff2811805",
    599: "fa4ef1cd58c091a52e07b66ddfd9ed455d04767ffa148c1439bebff46a7c54e6",
    600: "5a7f8255e94fb32c8838c3de82f08e5754b568733dacef58eca439b053bc476d",
    601: "a37070adc8438ab257f8f9ee80e768961d2e9259dd25caad46c4451af1359f27",
    602: "b66d11e9fa00f4ae5374a4e4dda90593ced60f79a240e698a6d6f9d5cce1ef70",
    603: "26e2103313c45f5a7398b98e33427a6f4e9618db00f9805bc2c9b0e0fb4a2f39",
}


# ring_digest(build_so_n2(n), dense=False), recorded from the per-pair
# Counter construction of build_so_n2
_SO_N2_NONZERO_DIGESTS = {
    1100: "94b74b4f13b7abc29226e7a860a021bfe55a1994fc2c8d78357d217fa6f7d829",
    1101: "5921a784262c95dbf90ab653b1cc35f8b3cf5aae29f84b8dc3508553948ba1b9",
    1102: "c0f00c2fa428201095fd68b0a12bc91bf24b9f7efa4dee7edb678d9459425613",
    1103: "c1153ba7cfc442df03c0224ca3446c8b0bc47feb2398d2d4a229897f12b6ab6c",
}
