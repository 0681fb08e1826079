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

    @pytest.mark.parametrize("args", [(True, 8), (1, 0), (1.5, 2), (1, True), (np.int64(1), 4),
                                      (Fraction(1, 2), 3), (1, "8")])
    def test_of_takes_an_int_over_a_nonzero_int(self, args):
        # unchecked, of(True, 8) was e(2pi/8), of(1, 0) raised a bare
        # ZeroDivisionError and of(1.5, 2) a bare TypeError
        with pytest.raises(MalformedInputError, match="an int over a nonzero int"):
            Phase.of(*args)

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


def ising_phases(nu):
    return (Phase.of(0), Phase.of(1, 2), Phase.of(nu, 16))


def ising_factor(nu):
    ising = catalog.ising_ring()
    return RibbonData(ising, ising.exact_dims, ising_phases(nu))


def array_path_cases():
    """(label, data made on the twist arrays, ring, dims, the twists as a
    `Phase` tuple made apart from them): every form on Z_n for n <= 30,
    degenerate ones included, from its q table; every Ising x Ising datum
    and Ising x pointed products both ways, by labels from `Phase` products."""
    for n in range(1, 31):
        for k, mg in enumerate(enumerate_forms((n,), nondegenerate_only=False)):
            rd = pointed_ribbon_data(mg)
            yield f"Z{n} form {k}", rd, rd.ring, rd.dims, tuple(map(Phase, mg.q))
    for nu1 in range(1, 16, 2):
        for nu2 in range(1, 16, 2):
            parts = oracles.deligne_parts(ising_factor(nu1), ising_factor(nu2),
                                          ising_phases(nu1), ising_phases(nu2))
            yield f"Ising {nu1} {nu2}", catalog.ising_squared_data(catalog.IsingParams(nu1, nu2)), *parts
    for n in (1, 2, 3, 4, 6):
        for k, mg in enumerate(enumerate_forms((n,), nondegenerate_only=False)):
            pointed, phases = pointed_ribbon_data(mg), tuple(map(Phase, mg.q))
            for nu in (1, 7):
                ising = ising_factor(nu)
                parts = oracles.deligne_parts(ising, pointed, ising_phases(nu), phases)
                yield f"Ising {nu} x Z{n} form {k}", catalog.deligne_ribbon(ising, pointed), *parts
                parts = oracles.deligne_parts(pointed, ising, phases, ising_phases(nu))
                yield f"Z{n} form {k} x Ising {nu}", catalog.deligne_ribbon(pointed, ising), *parts


def invalid_variants(ring, dims, twists):
    """Edits of valid data that `validate` must refuse, by name."""
    out = {"unit_twist": (dims, (Phase.of(1, 4),) + twists[1:])}
    two = AlgebraicReal.of(2)
    out["not_a_character"] = (tuple(two * d for d in dims), twists)
    moved = [i for i in range(ring.rank) if ring.dual[i] != i]
    if moved:
        i = moved[0]
        out["dual_twist"] = (dims, twists[:i] + (twists[i] * Phase.of(1, 3),) + twists[i + 1:])
        out["dual_dim"] = (dims[:i] + (two * dims[i],) + dims[i + 1:], twists)
        out["twist_and_dim"] = (out["dual_dim"][0], out["dual_twist"][1])  # the twist is named
        # the first index at fault decides the message: j and its dual come after i
        later = [j for j in moved if j not in (i, ring.dual[i])]
        if later:
            j = later[0]
            late_twist = twists[:j] + (twists[j] * Phase.of(1, 5),) + twists[j + 1:]
            out["dim_before_twist"] = (out["dual_dim"][0], late_twist)
            late_dim = dims[:j] + (two * dims[j],) + dims[j + 1:]
            out["twist_before_dim"] = (late_dim, out["dual_twist"][1])
    return out


def outcome(check, *args):
    try:
        check(*args)
    except Exception as exc:
        return type(exc), str(exc)
    return None


class TestTwistArrays:
    """The twist arrays against the `Phase` path they replace."""

    def test_twists_s_gauss_sums_and_bytes_match_the_phase_path(self):
        count = 0
        for label, rd, ring, dims, phases in array_path_cases():
            assert rd.ring == ring and rd.dims == dims, label
            assert rd.twists == phases, label
            reference = RibbonData(ring, dims, phases)
            assert rd == reference, label
            by_phase = mock.Mock(ring=ring, dims=dims, twists=phases)  # the oracles read these alone
            S = s_matrix(rd).entries
            assert np.max(np.abs(S - oracles.s_matrix_dense(by_phase))) < FLOAT_TOL, label
            for got, want in zip(gauss_sums(rd), oracles.gauss_sums_bruteforce(by_phase)):
                assert abs(got - want) < FLOAT_TOL, label
            text = oracles.ribbon_json_reference(ring, dims, phases)
            assert rd.dumps() == reference.dumps() == text, label
            assert RibbonData.loads(text) == rd, label
            count += 1
        forms = {n: len(enumerate_forms((n,), nondegenerate_only=False)) for n in range(1, 31)}
        assert count == sum(forms.values()) + 64 + 4 * sum(forms[n] for n in (1, 2, 3, 4, 6)) == 881

    def test_validate_refuses_as_the_phase_path_does(self):
        seen = set()
        for label, rd, ring, dims, phases in array_path_cases():
            if ring.rank > 9:  # the character oracle is cubic in Python
                continue
            assert outcome(rd.validate) is None is outcome(oracles.ribbon_validate_reference, ring, dims, phases)
            for kind, (bad_dims, bad_twists) in invalid_variants(ring, dims, phases).items():
                want = outcome(oracles.ribbon_validate_reference, ring, bad_dims, bad_twists)
                assert want is not None, (label, kind)
                bad = RibbonData(ring, bad_dims, bad_twists)
                assert outcome(bad.validate) == want, (label, kind)
                assert outcome(RibbonData.loads(bad.dumps()).validate) == want, (label, kind)
                seen.add((kind, want[1].split(" at index")[0]))
        assert seen == {
            ("unit_twist", "twist of the unit must be 1"),
            ("not_a_character", "dims do not satisfy the fusion homomorphism"),
            ("dual_twist", "twist of dual differs"), ("twist_before_dim", "twist of dual differs"),
            ("twist_and_dim", "twist of dual differs"),
            ("dual_dim", "dimension of dual differs"), ("dim_before_twist", "dimension of dual differs"),
        }

    @pytest.mark.parametrize("rows", [[[0, 1], [1, 2], [1, 16]], [[0, 5], [3, -2], [-1, 16]],
                                      [[-4, -2], [2**70 + 1, 2], [15, -16]], [[7, 7], [0, -3], [48, 32]]])
    def test_loader_reads_each_row_as_a_fraction(self, rows):
        # as `Phase(Fraction(num, den))` of each row did
        data = {**catalog.ising_ring().to_json_dict(), "twists": rows}
        rd = RibbonData.from_json_dict(data)
        assert rd.twists == tuple(Phase(Fraction(*row)) for row in rows)
        assert rd.dumps() == oracles.ribbon_json_reference(rd.ring, rd.dims, rd.twists)

    def test_a_common_denominator_past_2_62_is_refused(self):
        ring, dims = pointed_z(2), (ONE, ONE)
        top = modular_module.TWIST_DEN_LIMIT
        assert top == 2**62
        assert RibbonData(ring, dims, (Phase.of(0), Phase.of(1, top))).twist_den == top
        p, q = 2**31 - 1, 2**61 - 1  # primes, so their lcm is their product
        for twists, den in [((Phase.of(0), Phase.of(1, top + 2)), top + 2),
                            ((Phase.of(1, p), Phase.of(1, q)), p * q)]:
            with pytest.raises(ResourceLimitError, match=f"common denominator {den} exceeds the limit {top}$"):
                RibbonData(ring, dims, twists)
            data = {**ring.to_json_dict(), "dims": [[1, 1, 0, 1, 1]] * 2,
                    "twists": [[t.r.numerator, t.r.denominator] for t in twists]}
            with pytest.raises(ResourceLimitError, match=f"common denominator {den} "):
                RibbonData.from_json_dict(data)
        # a product adds numerators over the lcm: at the limit they stay exact
        left = RibbonData(ring, dims, (Phase.of(0), Phase.of(top - 1, top)))
        right = RibbonData(ring, dims, (Phase.of(0), Phase.of(2**31 - 1, 2**31)))
        product = catalog.deligne_ribbon(left, right)
        assert product.twist_den == top
        assert product == oracles.deligne_ribbon_reference(left, right)
        with pytest.raises(ResourceLimitError, match=f"common denominator {p * q} exceeds"):
            catalog.deligne_ribbon(RibbonData(ring, dims, (Phase.of(0), Phase.of(1, p))),
                                   RibbonData(ring, dims, (Phase.of(0), Phase.of(1, q))))

    def test_storage(self):
        rd = catalog.ising_squared_data(catalog.IsingParams(3, 5))
        assert rd.twist_num.dtype == np.int64 and rd.twist_den == 16
        with pytest.raises(ValueError):
            rd.twist_num[0] = 1
        with pytest.raises(AttributeError):
            rd.twist_den = 8
        assert rd._phases is None  # built on first access, then kept
        assert rd.twists is rd.twists
        with pytest.raises(TypeError):
            hash(rd)
        # numerators are reduced to the least common denominator
        ring = pointed_z(2)
        assert RibbonData._of(ring, (ONE, ONE), (0, 4), 8) == RibbonData(ring, (ONE, ONE), (Phase.of(0), Phase.of(1, 2)))


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
