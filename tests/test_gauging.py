"""Z2 cohomology, particle-hole gauging, condensation, counting."""

import dataclasses
import json
import time
from fractions import Fraction

import numpy as np
import pytest

from modcat import (
    FusionRing,
    GaugingDatum,
    MalformedInputError,
    ParameterError,
    PreconditionError,
    RedirectError,
    ResourceLimitError,
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
import modcat.gauging as gauging_module
import modcat.ring as ring_module
from modcat.catalog import build_so_n2, deligne_product, deligne_rules, ising_ring, so_n2_rules
from modcat.gauging import assemble_ring, particle_hole_rules
from modcat.metric import (
    enumerate_cyclic_metric_groups,
    enumerate_forms,
    pointed_ribbon_data,
    standard_cyclic_metric_group,
)
from modcat.ring import AlgebraicReal, exact_dimensions, fp_dimensions

import oracles
from test_catalog import ring_digest


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

    @pytest.mark.parametrize("n", [2.0, np.int64(3), np.int64(2)])
    def test_rejects_degree_that_is_not_an_int(self, n):
        # unchecked, 2.0 and np.int64(3) were answered as degrees 2 and 3
        with pytest.raises(ParameterError, match="is not supported"):
            z2_cohomology(Z2Module((2,), "negation"), n)

    @pytest.mark.parametrize("facs", [(0,), (-3,), (2, 0)])
    def test_rejects_non_positive_factors(self, facs):
        for action in ("trivial", "negation"):
            with pytest.raises(MalformedInputError, match="must be positive"):
                z2_cohomology(Z2Module(facs, action), 2)

    @pytest.mark.parametrize(
        "args",
        [((2.5,),), (("4",),), ((True, 2),), ((3,), ((0,), (2.0,), (1.0,))), ("Z2",),
         ((3,), ((5,), (1,), (2,))), ((3,), ((0,), (2,), (1,), (0,)))],
        ids=["float_factor", "str_factor", "bool_factor", "float_images", "unknown_name",
             "image_outside_group", "action_too_long"],
    )
    def test_rejects_what_is_not_a_module(self, args):
        # nothing is coerced: a float, string or bool is refused, not read as an int
        with pytest.raises(MalformedInputError):
            Z2Module(*args)


# ---------------------------------------------------------------------------
# gauging data


class TestGaugingDatum:
    def test_alpha_rejected_for_odd_n(self):
        with pytest.raises(ParameterError):
            GaugingDatum(5, alpha=1)

    @pytest.mark.parametrize("args", [(6.0,), (6, True), (6, 1.0), (6.0, 1), ("6",)])
    def test_rejects_parameters_that_are_not_ints(self, args):
        # nothing is coerced: a float, bool or string is refused, not read as an int
        with pytest.raises(ParameterError, match="ints"):
            GaugingDatum(*args)


# ---------------------------------------------------------------------------
# ring assembly


class TestAssembleRing:
    ONE, SILVER = AlgebraicReal.of(1), AlgebraicReal(Fraction(1), Fraction(1), 2)

    def test_a_row_listed_twice_has_multiplicity_two(self):
        # X (x) X = 1 + 2X, the product (X, X, X) listed once more in a
        # block of scalars
        ring = assemble_ring(
            ["1", "X"], [self.ONE, self.SILVER],
            [([0, 0, 1, 1, 1], [0, 1, 0, 1, 1], [0, 1, 1, 0, 1]), (1, 1, 1)],
        )
        assert [m.tolist() for m in ring.row(1, 1)] == [[0, 1], [1, 2]]
        assert verify_axioms(ring).ok
        assert exact_dimensions(ring) == (self.ONE, self.SILVER)

    @pytest.mark.parametrize("n, alpha", [(12, 0), (15, 0), (18, 0), (18, 1), (20, 1)])
    def test_row_order_does_not_matter(self, n, alpha):
        # every product as a row, the rows shuffled and cut into blocks at
        # random places
        labels, dims, blocks = particle_hole_rules(GaugingDatum(n, alpha=alpha))
        ijk = oracles.stack_rows(blocks)
        rng = np.random.default_rng(n)
        shuffle = rng.permutation(len(ijk[0]))
        cuts = [0, *sorted(rng.integers(0, len(shuffle), 6).tolist()), len(shuffle)]
        rows = [tuple(x[shuffle[lo:hi]] for x in ijk) for lo, hi in zip(cuts, cuts[1:])]
        assert assemble_ring(labels, dims, rows) == assemble_ring(labels, dims, blocks)

    def test_no_unique_dual_is_malformed(self):
        # X (x) X = X: no object pairs with X to the unit
        with pytest.raises(MalformedInputError, match="no unique dual"):
            assemble_ring(
                ["1", "X"], [self.ONE, self.ONE], [([0, 0, 1, 1], [0, 1, 0, 1], [0, 1, 1, 1])],
            )


class TestAssemblyOracle:
    """`assemble_ring` against the stack-and-sort route of `oracles`, with
    chunks of one cell, of a few cells and of the default size."""

    @pytest.fixture(params=[1, 7, gauging_module.CHUNK], autouse=True)
    def chunk(self, request, monkeypatch):
        monkeypatch.setattr(gauging_module, "CHUNK", request.param)

    def test_every_so_n2_ring(self):
        for n in range(2, 131):
            rules = so_n2_rules(n)
            assert assemble_ring(*rules) == oracles.assemble_ring_reference(*rules), n

    def test_every_gauging(self):
        for n in range(2, 61):
            for alpha in (0, 1)[:2 - n % 2]:
                rules = particle_hole_rules(GaugingDatum(n, alpha=alpha))
                assert assemble_ring(*rules) == oracles.assemble_ring_reference(*rules), (n, alpha)

    def test_ising_squared(self):
        # every product listed twice as well, so that each multiplicity is 2
        labels, dims, blocks = deligne_rules(ising_ring(), ising_ring())
        for twice in (blocks, blocks + blocks):
            ring = assemble_ring(labels, dims, twice)
            assert ring == oracles.assemble_ring_reference(labels, dims, twice)
            assert set(ring.mults.tolist()) == {len(twice)}

    @pytest.mark.parametrize("n", [12, 13, 14, 40, 41, 42])
    def test_block_order_does_not_matter(self, n):
        labels, dims, blocks = so_n2_rules(n)
        shuffle = np.random.default_rng(n).permutation(len(blocks)).tolist()
        ring = assemble_ring(labels, dims, [blocks[b] for b in shuffle])
        assert ring == oracles.assemble_ring_reference(labels, dims, blocks)


def built_rings(n):
    """(rules, ring) of SO(N)_2 and of the gauging of the standard form on
    Z_N by every allowed alpha, each ring built by its public constructor."""
    yield so_n2_rules(n), build_so_n2(n)
    for alpha in (0, 1)[:2 - n % 2]:
        datum = GaugingDatum(n, alpha=alpha)
        yield particle_hole_rules(datum), gauge_particle_hole(standard_cyclic_metric_group(n), datum)


class TestKeys:
    """`keys[i]` is the key number object i had in its rules, for every ring
    `assemble_ring` builds, and None for every other ring."""

    def test_every_built_ring_keeps_the_key_of_each_object(self):
        for n in range(2, 61):
            for (labels, dims, blocks), ring in built_rings(n):
                keys = ring.keys
                assert keys.dtype == np.int64 and not keys.flags.writeable
                assert sorted(keys.tolist()) == list(range(ring.rank))
                assert tuple(labels[k] for k in keys) == ring.labels, n
                assert tuple(dims[k] for k in keys) == ring.exact_dims, n
                reference = oracles.assemble_ring_reference(labels, dims, blocks)
                assert np.array_equal(reference.keys, keys), n

    def test_defects_come_before_the_orbit_at_three(self):
        # sqrt(3) < 2 puts s1 and s2 (keys 3 and 4) ahead of the orbit <1> (key 2)
        for _, ring in built_rings(3):
            assert ring.keys.tolist() == [0, 1, 3, 4, 2]
            assert ring.labels[2:] in (("V+", "V-", "X1"), ("s1", "s2", "O1"))

    def test_keys_are_not_part_of_the_value(self):
        ring = build_so_n2(12)
        again = FusionRing.loads(ring.dumps())
        assert again.keys is None and again == ring and again.dumps() == ring.dumps()
        assert repr(again) == repr(ring)
        bare = FusionRing.from_nonzeros(ring.labels, ring.dual, ring.cells, ring.mults,
                                        ring.exact_dims)
        assert bare.keys is None and bare == ring
        assert pointed_ribbon_data(standard_cyclic_metric_group(6)).ring.keys is None
        assert FusionRing(ring.labels, ring.dual, ring.fusion, ring.exact_dims).keys is None

    def test_from_nonzeros_keeps_a_read_only_copy(self):
        ring = ising_ring()
        given = np.array([0, 2, 1], dtype=np.int32)
        keyed = FusionRing.from_nonzeros(ring.labels, ring.dual, ring.cells, ring.mults,
                                         ring.exact_dims, given)
        assert keyed.keys.tolist() == [0, 2, 1] and keyed.keys.dtype == np.int64
        assert not keyed.keys.flags.writeable and given.flags.writeable

    @pytest.mark.parametrize("keys", [
        [0, 0, 1], [0, 1], [0, 1, 2, 3], [1, 2, 3], [-1, 0, 1], [[0, 1, 2]],
        [0.0, 1.0, 2.0], [False, True, True], ["0", "1", "2"], [],
    ])
    def test_from_nonzeros_refuses_keys_that_are_not_a_permutation(self, keys):
        ring = ising_ring()
        with pytest.raises(MalformedInputError, match="keys must be a permutation"):
            FusionRing.from_nonzeros(ring.labels, ring.dual, ring.cells, ring.mults,
                                     ring.exact_dims, keys)


# ---------------------------------------------------------------------------
# gauging


class TestGauging:
    def test_bit_identical_to_recorded_digests(self):
        # labels, duality, exact dims and the tensor of every gauging in the
        # table, order included
        wrong = [
            (n, alpha) for (n, alpha), want in _GAUGED_DIGESTS.items()
            if ring_digest(gauge_particle_hole(
                standard_cyclic_metric_group(n), GaugingDatum(n, alpha=alpha)
            )) != want
        ]
        assert wrong == []

    def test_axioms_and_global_dim(self):
        for n in range(2, 26):
            ring = gauge_particle_hole(first_form(n))
            assert verify_axioms(ring).ok, n
            assert (fp_dimensions(ring) ** 2).sum() == pytest.approx(4 * n, abs=1e-6)

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


def same_condensation(ring, b):
    """condense_boson against the row-by-row oracle: equal reports, field by
    field, or the same PreconditionError.  Returns the report or None."""
    try:
        want = oracles.condense_bruteforce(ring, b)
    except PreconditionError as exc:
        with pytest.raises(PreconditionError) as got:
            condense_boson(ring, b)
        assert str(got.value) == str(exc)
        return None
    report = condense_boson(ring, b)
    for f in dataclasses.fields(report):
        got, expected = getattr(report, f.name), getattr(want, f.name)
        if f.name == "table" and expected is not None:
            assert np.array_equal(got, expected)
        else:
            assert got == expected, f.name
    return report


def _all_condensations(ring) -> int:
    """Compare every nontrivial invertible and the first non-invertible
    object; returns how many gave a report."""
    group = invertibles(ring)
    others = [x for x in range(ring.rank) if x not in group.elements]
    return sum(same_condensation(ring, b) is not None for b in [*group.elements[1:], *others[:1]])


class TestCondensation:
    def test_matches_oracle_on_so_n2(self, so_rings):
        reports = sum(_all_condensations(so_rings(n)) for n in (*range(2, 131), *range(196, 205)))
        assert reports > 200

    def test_matches_oracle_on_gauged_rings(self):
        for n in range(2, 131):
            for alpha in (0, 1) if n % 2 == 0 else (0,):
                ring = gauge_particle_hole(first_form(n), GaugingDatum(n, alpha))
                assert _all_condensations(ring) >= 1

    def test_matches_oracle_on_pointed_and_ising_squared(self):
        for facs in ((2,), (4,), (6,), (8,), (2, 2), (2, 4), (2, 2, 2), (3, 3)):
            for mg in enumerate_forms(facs)[:3]:
                _all_condensations(pointed_ribbon_data(mg).ring)
        assert _all_condensations(deligne_product(ising_ring(), ising_ring())) == 3

    def test_precondition_errors_match_oracle(self):
        # b (x) x = 1 + b: the dims (1, 1, 2) are a positive character, yet b
        # does not permute the basis
        fusion = np.zeros((3, 3, 3), dtype=np.int64)
        for a in range(3):
            fusion[0, a, a] = fusion[a, 0, a] = 1
        fusion[1, 1, 0] = fusion[1, 2, 0] = fusion[1, 2, 1] = fusion[2, 1, 0] = fusion[2, 1, 1] = 1
        fusion[2, 2, 2] = 2
        one, two = AlgebraicReal.of(1), AlgebraicReal.of(2)
        ring = FusionRing(("1", "b", "x"), (0, 1, 2), fusion, (one, one, two))
        assert same_condensation(ring, 1) is None
        with pytest.raises(PreconditionError, match="does not permute"):
            condense_boson(ring, 1)
        # b fixes x and y from the left, but x (x) b = y: x* (x) b != x*
        fusion = np.zeros((4, 4, 4), dtype=np.int64)
        for a in range(4):
            fusion[0, a, a] = fusion[a, 0, a] = 1
        fusion[1, 1, 0] = fusion[1, 2, 2] = fusion[1, 3, 3] = fusion[2, 1, 3] = fusion[3, 1, 2] = 1
        fusion[2, 2, 2] = fusion[2, 3, 3] = fusion[3, 2, 2] = fusion[3, 3, 3] = 2
        ring = FusionRing(("1", "b", "x", "y"), (0, 1, 2, 3), fusion, (one, one, two, two))
        assert exact_dimensions(ring)
        assert same_condensation(ring, 1) is None
        with pytest.raises(PreconditionError, match="dual object"):
            condense_boson(ring, 1)

    @pytest.mark.parametrize("bad", [-1, 13])
    def test_rejects_an_index_outside_the_basis(self, so_rings, bad):
        # SO(12)_2 has rank 13; -1 would wrap around to its last object
        with pytest.raises(MalformedInputError, match=rf"^{bad} is not a basis index"):
            condense_boson(so_rings(12), bad)

    def test_matches_oracle_on_large_pointed_rings(self):
        for n in (100, 200):
            ring = pointed_ribbon_data(standard_cyclic_metric_group(n)).ring
            report = same_condensation(ring, n // 2)
            assert (report.group_order, report.is_cyclic) == (n // 2, True)

    def test_pointed_condensation_builds_no_dense_tensor(self, monkeypatch):
        # Z_2000 by its element of order 2: the quotient Z_1000 as a dense
        # (m, m, m) tensor would take 7.5 GiB; with the dense limit at zero
        # neither that nor the ring's own dense view can be built
        ring = pointed_ribbon_data(standard_cyclic_metric_group(2000)).ring
        monkeypatch.setattr(ring_module, "DENSE_LIMIT", 0)
        report = condense_boson(ring, 1000)
        assert (report.group_order, report.is_cyclic) == (1000, True)
        assert report.table.shape == (1000, 1000)
        a = np.arange(1000)
        assert np.array_equal(report.table, (a[:, None] + a) % 1000)

    def test_json_fusion_rows_come_from_the_oracle_table(self):
        # the rows [i, j, k, 1] of the dense quotient tensor, in index order
        for n in (12, 20):
            ring = pointed_ribbon_data(standard_cyclic_metric_group(n)).ring
            m, table = n // 2, oracles.condense_bruteforce(ring, n // 2).table
            dense = np.zeros((m, m, m), dtype=np.int64)
            dense[np.arange(m)[:, None], np.arange(m), table] = 1
            want = [[*map(int, ijk), 1] for ijk in zip(*np.nonzero(dense))]
            got = condense_boson(ring, n // 2).to_json_dict()["fusion"]
            assert json.dumps(got) == json.dumps(want), n

    def test_reports_are_frozen(self, so_rings):
        # pointed Z_12 by its element of order 2, and SO(12)_2 by its boson fg
        pointed = pointed_ribbon_data(standard_cyclic_metric_group(12)).ring
        for ring, b in ((pointed, 6), (so_rings(12), so_rings(12).index("fg"))):
            report = condense_boson(ring, b)
            for name in ("is_cyclic", "table", "free_pairs", "reason"):
                with pytest.raises(dataclasses.FrozenInstanceError):
                    setattr(report, name, None)
            assert isinstance(report.free_pairs, tuple) and isinstance(report.split, tuple)
        assert report.table is None
        table = condense_boson(pointed, 6).table
        assert not table.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            table[0, 0] = 5

    def test_walks_skip_starts_inside_a_walked_subgroup(self, so_rings, monkeypatch):
        # condensing fg walked from every candidate start, 50 on SO(200)_2 and
        # 250 on SO(1000)_2, though a start inside a proper subgroup already
        # walked cannot generate the whole group
        walk, calls = gauging_module._generator_walk, []

        def counted(*args):
            calls.append(args[2])
            return walk(*args)

        monkeypatch.setattr(gauging_module, "_generator_walk", counted)
        for n in (200, 1000):
            calls.clear()
            ring = so_rings(n)
            report = condense_boson(ring, ring.index("fg"))
            assert (report.group_order, report.is_cyclic) == (n, True)
            assert 1 <= len(calls) <= 2, (n, len(calls))

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
        assert report.table is None
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
        ring = deligne_product(ising_ring(), ising_ring())
        report = condense_boson(ring, ring.index("psi*psi"))
        assert report.table is None
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

    def test_refuses_n_above_the_limit_before_factoring(self):
        from modcat._abelian import COUNT_LIMIT

        assert count_metaplectic(COUNT_LIMIT) == 24  # 2^12 5^12
        start = time.perf_counter()
        for n in (COUNT_LIMIT + 1, 10**18 + 3):  # 10^18 + 3 is prime
            with pytest.raises(ResourceLimitError, match="limit"):
                count_metaplectic(n)
        assert time.perf_counter() - start < 0.1


# ring_digest of gauge_particle_hole(standard_cyclic_metric_group(n),
# GaugingDatum(n, alpha)) for N in 2-130 and 196-204, recorded from the
# per-pair Counter construction
_GAUGED_DIGESTS = {
    (2, 0): "51366d9f0ca34d6f417c69e95f006ef939c88d00d7ac8185db4dd5ffcee5c675",
    (2, 1): "fafc70bf41844bc68c4caf6f4b3a89a4504529486bb7ab53fdd40610bfae1ca1",
    (3, 0): "846a7265d8cccec597e2edef19cfec1599538162b2c421c799976693b0f5df58",
    (4, 0): "e70133ae8dca2115d8e073b41838d5c1e7f19a7cbe1d4fdccce2de362a11d344",
    (4, 1): "e70133ae8dca2115d8e073b41838d5c1e7f19a7cbe1d4fdccce2de362a11d344",
    (5, 0): "c4793cefea95a48c9ce5a458f90c1cc12435883606057d50bef2cf0a2b557ab5",
    (6, 0): "6564b957241e94fc86e759de331df386d4ec7b342a98c78237a62e442e1a1fda",
    (6, 1): "74759798634c3633f97fedb6ecc58b1b63b51f88964261567aba9bafd4b46fe1",
    (7, 0): "b0b868a77c446e7c69106fcefae925702fc5e12f9a15521bdc16604ac127d505",
    (8, 0): "a1ef69b56488f32e2b7f7b415032742b8eef82e6f8741494961a8d10c9a00457",
    (8, 1): "a1ef69b56488f32e2b7f7b415032742b8eef82e6f8741494961a8d10c9a00457",
    (9, 0): "62278f5bf0c28d4651ea72514282bcb4e2eb2bf1da014fc7ed24fd9e87e6c8d9",
    (10, 0): "b6d33f24d747be86428ce76d0c0d390a0f0693bc7b91ce5cbdbe0225492d9931",
    (10, 1): "b514faf8c4c9f6972088dc3d36d453a0878efd26733e8ee1d9d4aaee51c3b97f",
    (11, 0): "95cba0d9fb213eb20c8969b69a0875b734137d63521091673650f0efdf6a22f0",
    (12, 0): "9796e92da71ce61918e7bbe6abc4a4386778370b4db3b9e8e73f3b0313c5a169",
    (12, 1): "9796e92da71ce61918e7bbe6abc4a4386778370b4db3b9e8e73f3b0313c5a169",
    (13, 0): "82dd93535f875b55ed766bf602f22e88f6cdee454284cca2721685dea4c96a43",
    (14, 0): "6e1065682d990f349454a4d01be4a98eec9621a64a25aec67a5cfa2f51ac58fd",
    (14, 1): "5a690ce04f15bc52fc84c4f86df63d9dcbe522c3ee898c068fddeb52d46908e7",
    (15, 0): "e024ab539822afbc52e9fb690b52e2e1db4e19626d71a5fa1e7a3976b37bb385",
    (16, 0): "d08dd3416c1855432f1252dd382569da32a5759a2b176dc0f15cf56b6d1810b3",
    (16, 1): "d08dd3416c1855432f1252dd382569da32a5759a2b176dc0f15cf56b6d1810b3",
    (17, 0): "08c32eec12940df5242ffa3fb402fb930dbf98382bcea03d2c543fbfba395246",
    (18, 0): "9356617bf1cba616b558c8a6900093aebff455b7f772bea9d4df9efa34286a5a",
    (18, 1): "0ca38dde72e9cdd3c690f498a4118df6f06b9938f8f7e1438ba6dd671c89ec45",
    (19, 0): "64ead84d21053f21fbcbc7dd42aa686fdeca1800e18d83e8f453685c70406b8d",
    (20, 0): "7e7f085ec5e12c7ad88201ad9e2eba1af2dd1964086168119321c3166625580e",
    (20, 1): "7e7f085ec5e12c7ad88201ad9e2eba1af2dd1964086168119321c3166625580e",
    (21, 0): "619cce0c7d2167dcc6a0666291d99cd4eb5167c04ed8567ab679904f38677f5c",
    (22, 0): "cf456d886836088771da6d997eab799c894ebaac8c901d0ee75bce192f532873",
    (22, 1): "41cb941e2792395cb1f9882dfd5b795e53254c7f7b755f5ef99c123a7c36218a",
    (23, 0): "898c5257b4bcd459c5295eb3c6e2b556554b50ececa92a4cc9f490eea7e1ecea",
    (24, 0): "8b9c887cabbf79480c20203a6e3e952622a10a2ad41f20d5b8cf37d73b85b79d",
    (24, 1): "8b9c887cabbf79480c20203a6e3e952622a10a2ad41f20d5b8cf37d73b85b79d",
    (25, 0): "63bbcfa3a29b4a84f35b9c6ed7b639293646759a2890585cc4bc204324640051",
    (26, 0): "116b888573435f6e577e59db22b1a80daa635c3d8dbaacb1c4bc2c8d5d2891e6",
    (26, 1): "d8a0aa2032ad4b066da639e300a8afc8895033f2f7844c45b07b8201937e6126",
    (27, 0): "61548403680f65d0d3d92e63efc2b30ad5e3a23b26cd52caa3ab0843ab017b95",
    (28, 0): "062ed791dcafc1e530372c8f403c75e7038f4998da935e8bac57fa9bfdbaf203",
    (28, 1): "062ed791dcafc1e530372c8f403c75e7038f4998da935e8bac57fa9bfdbaf203",
    (29, 0): "4d7b49e03e6bf1f74e96a8130f31442322ab066e51b13a1f1567e73a4abb3e62",
    (30, 0): "ac52ca50d695ee2eea6875719dbf4886efedda6e6dec49a8841deac33c4f57bb",
    (30, 1): "6fc1c633770a8573a09fb04c7c1c2a26f0ad3ee5e16ff6da2edbf7aae75d6965",
    (31, 0): "3302e06257bf21547b95aec400464d20d86c082b66dcb8d09c6691a475d14aff",
    (32, 0): "f46ca49cfc4272d450a325564ee7ba3257c3927dfe09594568ea9c8db88c0d55",
    (32, 1): "f46ca49cfc4272d450a325564ee7ba3257c3927dfe09594568ea9c8db88c0d55",
    (33, 0): "6627e3a8ac9c1bf6cf1cc1c230c25eec262832d1ba33b8a5dc09b57e49507dcf",
    (34, 0): "330b186925f56f2ee67cd1d64b96c356d54554f2d654bd2d5a8da09b54d10511",
    (34, 1): "0451cb7581a997a1d62b946e8daeb1f40ef3636982958f3543b29d4d7b1db40b",
    (35, 0): "b8fdce8f723a104a21c5353eda5548167616ad5ba70467e9b40df7ea97331d28",
    (36, 0): "bc7738fcdbd68f55be78af62b3a165d6e8ad9d1524c60e84785a4cf88aaa3702",
    (36, 1): "bc7738fcdbd68f55be78af62b3a165d6e8ad9d1524c60e84785a4cf88aaa3702",
    (37, 0): "59301192c99b69ba4d1520b23395e7d8dfae923658ab5d88e616ce14f1114be0",
    (38, 0): "566a5a2ba60fcd59bef8489fd605bf465d0dac261b08a17b1b8107710c460539",
    (38, 1): "5a99a36ce2b8cad89e249f7d3a014ef2ee63845cf688b542e5a37436122f64e7",
    (39, 0): "0d721c4c96e851e9a9ae1b8108ceb4768a90ba458efb9ff40549a4676634687d",
    (40, 0): "8b0796c88420caeca6ae460e133157839b5557cd5ce89f88ffb4562698013fdc",
    (40, 1): "8b0796c88420caeca6ae460e133157839b5557cd5ce89f88ffb4562698013fdc",
    (41, 0): "121ed67fc97fb02a4432822909d970120816de191b77bca95b3840ad06260b78",
    (42, 0): "90fc6cc44d7329b2a6e82cb34372f5f5803cf093e15e33141189df9d16c9da3e",
    (42, 1): "8058ff43159e35ecfb1c75bf39482b59cef2961db739515cd2e9830418354cd9",
    (43, 0): "c78c976bb9949cf85570b93136ef7ed81bc29372ca53d5bcb25510da0baf48bf",
    (44, 0): "7885886a108eee866e1d10dc5bda03f7de15176775813d9a0363b7f229c335ef",
    (44, 1): "7885886a108eee866e1d10dc5bda03f7de15176775813d9a0363b7f229c335ef",
    (45, 0): "468b5d4fc7eec0d7924f639ab1d2e26a7894e31853cff00cdde21a5fccd5d0ea",
    (46, 0): "dfe6fde9db864175f764f7a3ee21cd6b02b74fe1d0f2990f5c0f38d1ae6fcfb2",
    (46, 1): "ed3df2331d26d432d75fb5c5aefb3342499500d457391e597015ec11624cadb0",
    (47, 0): "0d389fa1bd7015f4b033705c5774ce580fbbada15b5a744e4df8bbc166f280c1",
    (48, 0): "44968733745aa64e52cf0a0a1c89ffdea5eb85aeafc6a3c9482885828fef4f62",
    (48, 1): "44968733745aa64e52cf0a0a1c89ffdea5eb85aeafc6a3c9482885828fef4f62",
    (49, 0): "d4545ed41407abf2bfcde7a3f9384341b609d26cdc7b152b3be11239dabd11ee",
    (50, 0): "7f629d2d644cdee523264c7c9c2a00f5ab449a3ee693c00714655d1bc471b7ed",
    (50, 1): "7cc80195088d85af16553891abb16da696696b6ab8f5000cbbb10d750bbfa7ee",
    (51, 0): "fa78b9a39e46f57d808674aff48ef55f7d90ff3f407b49af0ed3133f7460f2b3",
    (52, 0): "d43fc68dc9eab462950e6553d940a8ab8b1efc31befa282d24304af39acbc16e",
    (52, 1): "d43fc68dc9eab462950e6553d940a8ab8b1efc31befa282d24304af39acbc16e",
    (53, 0): "5dd545164582207018f246fe0007092bf8b46403ced19e3bc1c1f00744fc04ff",
    (54, 0): "579c970b97c103475f052e24e6027301a55659548d8950f6c24e603d8db7e8ed",
    (54, 1): "cf75fdd22f10a746df4d10b0ff79bee2122422a43686ceee9bb11a680227ae9f",
    (55, 0): "a71f446036fc2fef6e871944ae2191ef9522a958d37463393c9f33302c83188c",
    (56, 0): "51aae9f918f8dad3551a07f103c06bfc3ff35c9cdd3f9efbeaf5cb65ed6f8dce",
    (56, 1): "51aae9f918f8dad3551a07f103c06bfc3ff35c9cdd3f9efbeaf5cb65ed6f8dce",
    (57, 0): "33cb1cc55e66f97562bee8b6006f6454ee48a7d7325bc324d773e4d4a3d5dbb2",
    (58, 0): "5441e9fcf14771f3c1dce4b1909991e8bde66f578faaf2fb56515807ac8d8e5b",
    (58, 1): "19acc187fd589935b4de4270fed37fc9e425d922ba4138cdd39cb627c2a4e34b",
    (59, 0): "6e3fc3e7b178dd281f68a5ba83eeb43e9e901d4584cd12c662ebb22f67713b8f",
    (60, 0): "ea9a2327a8e9319365f32b99741d6fa002f45bed219abe72930fccf0ac73bd5a",
    (60, 1): "ea9a2327a8e9319365f32b99741d6fa002f45bed219abe72930fccf0ac73bd5a",
    (61, 0): "7fa18f12029324362e35c02c5315f8dd0ac1ca361a07a6ce8cb349d6ce33fc91",
    (62, 0): "8f7e9af3f1911175955174ad324de379865bd0915424e655904e3875c078daeb",
    (62, 1): "cdac8ffbaea44b14e14d268118faf4c0766a14285c8854b74d24e25ed174890d",
    (63, 0): "ac19deae7bf04a36fc89d3cd591190b919e0de242687bf4edb837f9e96668517",
    (64, 0): "f2d3a7700a73613134cc2f290bd737ef536ba5db5f42f1cbdbafb3bd1d7e1832",
    (64, 1): "f2d3a7700a73613134cc2f290bd737ef536ba5db5f42f1cbdbafb3bd1d7e1832",
    (65, 0): "1a0ea0fbb3c00a05dff501b1c44c35725fe8caecbcb48f45b308d7da15d509aa",
    (66, 0): "316ac67cb19d67e23f406888ff9627ea3a40ff9f2db0b7a10e91219109dc3d86",
    (66, 1): "67cb231d270075314f2fa6e7e46d6da0c474e9a6aec062c15ee5a058453e343d",
    (67, 0): "6c17c89854f78bbcdcf053832fdb8a830153055629e8420387e8d893237abfd2",
    (68, 0): "2872d3aeb854d85b9dca82dcfa02cf426774c4ff8fcfec731c74f5e280f48073",
    (68, 1): "2872d3aeb854d85b9dca82dcfa02cf426774c4ff8fcfec731c74f5e280f48073",
    (69, 0): "2cbc476ab990fc1fcdfcd637c67d941aa82b11cf706c280be1304323faed27f5",
    (70, 0): "4f3dcf1ebd32769b0cc327f1ae7aede016a6f11f4bb1dea01e57e4425b03114a",
    (70, 1): "48e04d70f02860a2f33a0f58bf2dbc4db9a40976093e5f1a1d0d86cfac696628",
    (71, 0): "804079deb4635bdf71640eb89ceccfd29f454cc28901626f20c9429e0983c8ff",
    (72, 0): "dc48f4873c38521cad281eb0680fbab394d8ca5c194c5de4afa405072d519a50",
    (72, 1): "dc48f4873c38521cad281eb0680fbab394d8ca5c194c5de4afa405072d519a50",
    (73, 0): "078362e41250fda638c4cc1f3a766257e66d0b155b5810eb5900d4349961f0dc",
    (74, 0): "eedd3c63771c04be096a0e82105c4c54628599273511457b86f903b3e3c289c8",
    (74, 1): "774f71dfdcf29dd04402d6d6bd54b936b9db2b501f615f15b85c3e165c3e53a6",
    (75, 0): "96924018a21c46cda09e609f27b0763a40bdd75c5108c8e85dbc964253a1901d",
    (76, 0): "9cd8cdb46669bedf61b8e3ebb066255b89eae26c6950322a6aa06a376fa1170c",
    (76, 1): "9cd8cdb46669bedf61b8e3ebb066255b89eae26c6950322a6aa06a376fa1170c",
    (77, 0): "4a302d87218ef4f812ee77eb2dc2034fe81b3c3cb48e2d135c330a246c0eb28d",
    (78, 0): "6c8dd5f3f98f092f950778740cc660ebd522b991a2aba4d792c225c6e25f7348",
    (78, 1): "4685a8ac7a41f05d82fb1283230c5e71a7c7707644647967139c9637ae2dbb1b",
    (79, 0): "9a79803b36ee4dbd1d296825887fc7bed9b0962b0784fa49cf8e46a100a2c642",
    (80, 0): "b1b9d30e271f433c6bf3ae3e9571698f4902d380130537892497dfb80b0b5444",
    (80, 1): "b1b9d30e271f433c6bf3ae3e9571698f4902d380130537892497dfb80b0b5444",
    (81, 0): "3c76398c1a5090ed01a934948c8ce6c5d65bc36dd0ddd7b13756e0f154d581b8",
    (82, 0): "7b4aafef67e8fbc06bc6acf949aa33a8d0a987cf2548f4abdf90c2452f881496",
    (82, 1): "f983730b749f30239511568f3c7e407fb0030dd8189a1e3f1de02b5bdaa08467",
    (83, 0): "a58bc5893d8fb1ac1400027aa43bf63d3d9912a65cab49a943f28b443f1d8f11",
    (84, 0): "7521ce6d6aa9a0d6dbff417d441299b2050e451e364d0641439f5b31ce7883b2",
    (84, 1): "7521ce6d6aa9a0d6dbff417d441299b2050e451e364d0641439f5b31ce7883b2",
    (85, 0): "36ccc5a445f78a98124b76920c4e8c28c2b3a8312f98a09c62236c3b28deddbb",
    (86, 0): "75ef3aa697d20a5425b662376ae00d15199a4972467156b2dd274f1ab224189e",
    (86, 1): "7163158fac86a39d57cb365438490bcaa54946bb1f88d1c1c1efc0dfaa400b99",
    (87, 0): "fbdc33e0bdd94f784d1bb86f834870b4619b90c7c91ee107b8e63858c5892860",
    (88, 0): "2e4dbd2c4c16140d8be82877a1d5a80ae5d6b00c34bcb2ec7b90dc07b308c087",
    (88, 1): "2e4dbd2c4c16140d8be82877a1d5a80ae5d6b00c34bcb2ec7b90dc07b308c087",
    (89, 0): "76d3fc1143e91878b95aadeec69494cbd757d62579aa5d03f92d7cac9d5688f7",
    (90, 0): "486fa2732b07bdae6f75b0c63b6d90e8a39d7d7954d6d77701d8d0d209b4a292",
    (90, 1): "1769026c0656c1d89573f6c1297a0ef1ef000d9eb34faf56d9d9d512f52d0933",
    (91, 0): "b57798ca8123663475036913ed4c6844f3ef502fd624b91e63bf4cff837c6fc0",
    (92, 0): "308d637f8bde480bd1e2cd0e57c23e74766c907a5d442ddf4eff25304b28677f",
    (92, 1): "308d637f8bde480bd1e2cd0e57c23e74766c907a5d442ddf4eff25304b28677f",
    (93, 0): "b24a853b264589f6db42328477d88b8cba2607edfc1e66519638a06f33ec556a",
    (94, 0): "0bbc138cb0fa4c3ec800e78c8f51dbd327436237a4dcb70ca32df6f276f04f9a",
    (94, 1): "3dfcfaa87023a5eaae0b199abc33c0ee28697d6eb1d87996feeb0db6537181aa",
    (95, 0): "4b431d953c7d0f7e4b6288e19a0108cffa65a46c4bda05c6ca83cada0f88277e",
    (96, 0): "15a9f5d7854bc4cbd94498ee88d310a52fe04cf98b3e6af3dbf8c7e45ef98254",
    (96, 1): "15a9f5d7854bc4cbd94498ee88d310a52fe04cf98b3e6af3dbf8c7e45ef98254",
    (97, 0): "f8317e9179a70f41cdd68657dd4eb3f95d6b31cc875ca7e931e187b7f6484615",
    (98, 0): "348f819806311c87e6a49b150f6c2dc2dbf397302347b262c779852fbdfb5381",
    (98, 1): "932ab61f28d4092fc64cd13584584008838179baa36a5257f3d4489e6abf5282",
    (99, 0): "9c5c189f038bec1d9c842f81b4f7077a67fdd9122938a8555c27d49b30f6696c",
    (100, 0): "bb9842da1cd6f08eabe87004de321ffb37acaec7c868c0acff678a0d7be3b8e5",
    (100, 1): "bb9842da1cd6f08eabe87004de321ffb37acaec7c868c0acff678a0d7be3b8e5",
    (101, 0): "14d5be90e696139741c94d5c2c8e68f76cc1dbc8ef29e2a9bd29375cae8a4f54",
    (102, 0): "b9e97da1e566e4d172de564cbbbe35c21756e8223c6e6269653f593f35922a31",
    (102, 1): "b6358b4b75d7e0a4fcfc14ffcdf5f4992206555b270463341de4986eab36f0e6",
    (103, 0): "4ec57c155bd1b6a1feebed383091745f320b20e514ba085392c9b78765e00325",
    (104, 0): "5ffc1917fa0e65255d9013317f9dec4bdb7b0e1db9999b0570f74e70be3739ce",
    (104, 1): "5ffc1917fa0e65255d9013317f9dec4bdb7b0e1db9999b0570f74e70be3739ce",
    (105, 0): "c96de4914144aafceb717946a4676a11c664a66a275d5a4dbfd0b0c435123cef",
    (106, 0): "30509124c157c822cbc1d9d61bd5661855a3bf7bce32523517be311d8443848a",
    (106, 1): "0566e7880d23869183796192ed1c7b5f246144bb7908b67685e8c5ca0a122e34",
    (107, 0): "28ce5aef3346fda891c9669e1a7d9f24f7f1db141d22458ce5bd509eed0b83d6",
    (108, 0): "37b704d63d87fb0006afb69c5a7b273d599f1db72183a4318e047134ec5b72b2",
    (108, 1): "37b704d63d87fb0006afb69c5a7b273d599f1db72183a4318e047134ec5b72b2",
    (109, 0): "59e49ef28fff22d0df624e5820af33d07edb63902da5dc508ef0b034f394d9b0",
    (110, 0): "4d02c2778ebbecec422f72fa50e8000f1c0eb2bb3522a62bd28b72c24afee8b1",
    (110, 1): "b48491c00ecc6f71e69ebe290d032e56fd944a9cfadd0116aa755cb81831c97f",
    (111, 0): "8b8d89ddf3b345273f9c6b6c3afa53a5eb3e5b70891b3acfa7c523caeb48c39d",
    (112, 0): "65c84699c30c23df44a080fca2319811c1d69d36e7c89e97f4f951389f4a6b3f",
    (112, 1): "65c84699c30c23df44a080fca2319811c1d69d36e7c89e97f4f951389f4a6b3f",
    (113, 0): "130e12b53d7715aba86030d0d8eea33b6adf83182706bc13b56473385a7dced7",
    (114, 0): "2a32773a25d3b45b658029eba63b277019dc8e593efa437767226a5fa4b43589",
    (114, 1): "0dd83653db414af761a0d47e3df21e1635310ba98aa2ccc69412644fec220813",
    (115, 0): "24545fb5e67e728e4d5e1a7768682bfd56e2e9197ad3122cfbcf88f7d7ea56be",
    (116, 0): "362619b95c7f422b606e7fe83a38caaad9d222fe281641af84223993be535276",
    (116, 1): "362619b95c7f422b606e7fe83a38caaad9d222fe281641af84223993be535276",
    (117, 0): "b8d6defe59620b45244fb1050df3bb5d4f8138aff1957a1e685ed19a3e6ad5e4",
    (118, 0): "19cd97cadb12183b57b6bc4a8d74c93d4e63011b1d022375347abd6bddca3c27",
    (118, 1): "f0495f33bd23bffd383af58b7d09e404eb1362c65a8061e89184ff53d602a736",
    (119, 0): "a16c3246650e4fed12b7d9f213b6ef69ce2afff68e261cab1f46cbc43d748143",
    (120, 0): "e61d44063c5af80602422f8fb677bada768c53b0517b3335649436d2f8b50544",
    (120, 1): "e61d44063c5af80602422f8fb677bada768c53b0517b3335649436d2f8b50544",
    (121, 0): "71f397f336a7de1015de36e5b88f540edda6b7d578b8a8838a93ec6128f21a30",
    (122, 0): "69e387aa93b1fc6bd1fdacaf402c988fb17a840b2dac5bbd086a62c08396f14b",
    (122, 1): "114fd778e8309454e4c6fb1a6d82326de47eaf3055c4225debae3c00842015e9",
    (123, 0): "02b3de420c7d78c9c087dc7e1ce362d6bbe5a768daad52060201db09a1a98c60",
    (124, 0): "a73caed045f5d066af69dbf0316393113ec73ae81da4ef9b5143932a90616054",
    (124, 1): "a73caed045f5d066af69dbf0316393113ec73ae81da4ef9b5143932a90616054",
    (125, 0): "3fbcd2f1804ed7bb41fae3aab5d7c392d501e6d04b4f0e0f4026f4c27b305926",
    (126, 0): "226894bdd7da1c6d8bd991c8f0eece58c695a69d9c789a912c9ce8aa44d23d11",
    (126, 1): "0c8893458b333e6ccbba32daccc23d3771e34b2d70a0346d206f9e6a80706ab9",
    (127, 0): "7b05396747c78ca93ca716ea5645a7cbe3add17e282a69ae2458977658a5d509",
    (128, 0): "1aae27df6448d158486654a625dbdc9f7b2aa1befd65dc9177fab17c44db18af",
    (128, 1): "1aae27df6448d158486654a625dbdc9f7b2aa1befd65dc9177fab17c44db18af",
    (129, 0): "5e5200dc8c84a2ae1093b50e6cca45661e2a05bd5b9b7e377d7b6be474b94da6",
    (130, 0): "b09960a1b15720748426bb67298cbb9dc90bef168b8653055652a5ed894032db",
    (130, 1): "5580f0fc12f11847edfc58ab6e5e5a6cb8aa77756bd77e4b3560dd4a965c1a51",
    (196, 0): "2865216870d944807867dd30b840d1b634d5cba327ffe09302134e29f7981383",
    (196, 1): "2865216870d944807867dd30b840d1b634d5cba327ffe09302134e29f7981383",
    (197, 0): "5d4bbb8853c471c1b9d4156b614cd96892dd6000e30f3e071df50524040656bc",
    (198, 0): "fb405982f79ff6b795b0b6f3967f0201ba5925a82a9498153f32de5a60948427",
    (198, 1): "e2ce338ae2457ff5407537d9fcd57c5b012ee8537f0f698389b3ce3f23466ef9",
    (199, 0): "3c5fe95aa1816fc2ed533b6f0d1f6b69f8e216a27b6ffd76ab7f3630adaa8047",
    (200, 0): "e5fc60ee0fe16b5f5afc3a2a050cd30401963f947276f457b2b990b0b1d938f9",
    (200, 1): "e5fc60ee0fe16b5f5afc3a2a050cd30401963f947276f457b2b990b0b1d938f9",
    (201, 0): "0d980f4408f1b3640cb71d833addd70d280f5e28f7bb36f73eb3b938925df913",
    (202, 0): "7acb1a16ba1e4e0d99e5fd082a36ba029471105a71aa45ffe14a15739d5d534c",
    (202, 1): "4531de8d5f41651aad636187a9a373a3f57f339cbea2f8bac32a3bb067974508",
    (203, 0): "1bef7f983c6175d26f44e705c39c23e5dd0838a15240b5e673cb89ab3b2d8300",
    (204, 0): "2349680bd6cf1894fa99d3e5704d98b624909353631140caedd0775793c08329",
    (204, 1): "2349680bd6cf1894fa99d3e5704d98b624909353631140caedd0775793c08329",
}
