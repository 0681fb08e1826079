"""Z2 group cohomology, particle-hole gauging of cyclic metric groups,
boson condensation at the fusion-rule level, and gauging counts.

Gauging here is the Grothendieck shadow of equivariantization of the
Z2-crossed extension of a pointed cyclic category: free <a, -a> orbits
become dimension-2 objects, the fixed points 0 (and N/2 for even N) split
into invertible pairs, and the defect sector contributes 2 objects of
dimension sqrt(N) for odd N or 4 objects of dimension sqrt(N/2) for even N.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import product

import numpy as np

from ._abelian import factorint, invariant_factors
from .errors import (
    MalformedInputError,
    ParameterError,
    PreconditionError,
    RedirectError,
    UnsupportedInputError,
)
from .metric import MetricGroup
from .modular import transparency_constraint
from .ring import AlgebraicReal, FusionRing, exact_dimensions


# ---------------------------------------------------------------------------
# Z2 cohomology


@dataclass(frozen=True)
class Z2Module:
    """Coefficient module for Z2 cohomology: a finite abelian group given by
    invariant factors with an involutive action, or the divisible group Q/Z
    ("Q/Z") with the trivial action."""

    facs: tuple[int, ...] | str
    action: str | tuple = "trivial"

    def __post_init__(self):
        if self.facs == "Q/Z":
            if self.action != "trivial":
                raise UnsupportedInputError("only the trivial action on Q/Z is supported")
            return
        object.__setattr__(self, "facs", tuple(int(d) for d in self.facs))
        if isinstance(self.action, str):
            if self.action not in ("trivial", "negation"):
                raise MalformedInputError(f"unknown action {self.action!r}")
            return
        # explicit involution given as image tuples per element
        object.__setattr__(self, "action", tuple(tuple(a) for a in self.action))
        elems = self.elements()
        rho = dict(zip(elems, self.action))
        if len(rho) != len(elems):
            raise MalformedInputError("action table length does not match group order")
        # additive iff rho(a + e) = rho(a) + rho(e) for every a and every
        # generator e (one coordinate 1, the rest 0), by induction on the
        # length of a word in the generators
        gens = [e for e in elems if sum(e) == 1]
        for a in elems:
            if rho[rho[a]] != a:
                raise MalformedInputError("action is not an involution")
            for e in gens:
                if rho[self.add(a, e)] != self.add(rho[a], rho[e]):
                    raise MalformedInputError("action is not additive")

    def elements(self) -> list[tuple[int, ...]]:
        return list(product(*(range(d) for d in self.facs)))

    def add(self, a, b) -> tuple[int, ...]:
        return tuple((x + y) % d for x, y, d in zip(a, b, self.facs))

    def neg(self, a) -> tuple[int, ...]:
        return tuple((-x) % d for x, d in zip(a, self.facs))

    def rho(self, a) -> tuple[int, ...]:
        if self.action == "trivial":
            return a
        if self.action == "negation":
            return self.neg(a)
        # the position of a in `elements()`, read as a mixed-radix number
        pos = 0
        for x, d in zip(a, self.facs):
            pos = pos * d + x % d
        return self.action[pos]


def _quotient_invariants(mod: Z2Module, top: set, bottom: set) -> tuple[int, ...]:
    """Invariant factors of top/bottom for subgroups of a finite module."""
    reps = []
    index = {}
    for a in sorted(top):
        if a not in index:
            for b in bottom:
                index[mod.add(a, b)] = len(reps)
            reps.append(a)
    table = [[index[mod.add(x, y)] for y in reps] for x in reps]
    e = index[tuple(0 for _ in mod.facs)]
    return tuple(invariant_factors(table, e))


def z2_cohomology(mod: Z2Module, n: int) -> tuple[int, ...]:
    """H^n(Z2, M) with the given action, as invariant factors (2-periodic:
    H^{even >= 2} = M^rho / im(1 + rho), H^{odd} = ker(1 + rho) / im(1 - rho))."""
    if n not in (2, 3, 4):
        raise ParameterError(f"cohomological degree {n} is not supported")
    if mod.facs == "Q/Z":
        # Q/Z is divisible, so the norm map is onto in even degree; in odd
        # degree ker(2) = {0, 1/2} and im(0) = 0.
        return () if n % 2 == 0 else (2,)
    elems = mod.elements()
    zero = tuple(0 for _ in mod.facs)
    if n % 2 == 0:
        top = {a for a in elems if mod.rho(a) == a}
        bottom = {mod.add(a, mod.rho(a)) for a in elems}
    else:
        top = {a for a in elems if mod.add(a, mod.rho(a)) == zero}
        bottom = {mod.add(a, mod.neg(mod.rho(a))) for a in elems}
    if not bottom <= top:
        raise MalformedInputError("boundary image escapes the cocycle group")
    return _quotient_invariants(mod, top, bottom)


# ---------------------------------------------------------------------------
# gauging data


@dataclass(frozen=True)
class GaugingDatum:
    """Labels one Z2 gauging: alpha in H^2_rho(Z2, Z_N), beta in H^3(Z2, U(1)),
    and the normalized 2-cocycle representative omega(1, 1) in Z_N."""

    n: int
    alpha: int = 0
    beta: int = 0
    omega: int = field(default=-1)

    def __post_init__(self):
        if self.n < 2:
            raise ParameterError("gauging needs N >= 2")
        if self.alpha not in (0, 1) or self.beta not in (0, 1):
            raise ParameterError("alpha and beta must be 0 or 1")
        if self.alpha == 1 and self.n % 2:
            raise ParameterError(
                f"H^2 of Z_{self.n} under negation is trivial; alpha must be 0"
            )
        expected = (self.n // 2) * self.alpha
        if self.omega == -1:
            object.__setattr__(self, "omega", expected)
        elif self.omega % self.n != expected:
            raise ParameterError(
                f"cocycle representative omega(1,1) = {self.omega} does not "
                f"match alpha = {self.alpha}"
            )


# ---------------------------------------------------------------------------
# ring assembly from an abstract object algebra


def assemble_ring(objects: dict, dims: dict, prod, unit=None, bulk=None) -> FusionRing:
    """Build a FusionRing from an object-key algebra.

    objects: key -> label; dims: key -> AlgebraicReal; unit: the unit key
    (defaults to the key labeled '1').  Keys are numbered in the order of
    `objects`.  bulk: None, or (block, i, j, k) with `block` a range of key
    numbers and i, j, k equal-length integer arrays of key numbers, each
    row adding one to N[i, j, k]; together the rows give every product of
    two keys in the block.  prod(k1, k2) -> Counter of keys gives every
    other product.  Objects are put in canonical order (unit, then
    invertibles by label, then the rest by (dim, label)).
    """
    keys = list(objects)
    if unit is None:
        unit = next(k for k in keys if objects[k] == "1")
    invs = sorted(
        (k for k in keys if k != unit and dims[k] == 1),
        key=lambda k: objects[k],
    )
    rest = sorted(
        (k for k in keys if k != unit and k not in invs),
        key=lambda k: (float(dims[k]), objects[k]),
    )
    order = [unit] + invs + rest
    r = len(order)
    number = {k: n for n, k in enumerate(keys)}
    pos = np.empty(r, dtype=np.int64)
    pos[[number[k] for k in order]] = np.arange(r)

    block, *bulk_ijk = bulk if bulk is not None else (range(0), (), (), ())
    outside = [n for n in range(r) if n not in block]
    rows = [
        (n1, n2, number[k3], mult)
        for n1 in range(r)
        for n2 in (range(r) if n1 not in block else outside)
        for k3, mult in prod(keys[n1], keys[n2]).items()
    ]
    coo = np.array(rows, dtype=np.int64).reshape(-1, 4)
    # the raveled cells (i * r + j) * r + k of all rows in canonical numbers,
    # sorted once, with the repeated ones summed in int64
    cells = np.zeros(len(bulk_ijk[0]) + len(coo), dtype=np.int64)
    for c, a in enumerate(bulk_ijk):
        cells *= r
        cells += pos[np.concatenate([np.asarray(a, dtype=np.int64), coo[:, c]])]
    mult = np.concatenate([np.ones(len(cells) - len(coo), dtype=np.int64), coo[:, 3]])
    by_cell = np.argsort(cells)
    cells = cells[by_cell]
    first = np.flatnonzero(np.concatenate([[True], cells[1:] != cells[:-1]]))
    cells, mult = cells[first], np.add.reduceat(mult[by_cell], first)
    # X (x) Y contains the unit for exactly one Y, the dual of X
    x, y = np.divmod(cells[cells % r == 0] // r, r)
    once = np.bincount(x, minlength=r) == 1
    if not once.all():
        raise MalformedInputError(f"object {int(np.flatnonzero(~once)[0])} has no unique dual")
    return FusionRing.from_nonzeros(
        tuple(objects[k] for k in order),
        tuple(y.tolist()),
        cells,
        mult,
        tuple(dims[k] for k in order),
    )


# ---------------------------------------------------------------------------
# particle-hole gauging


def gauge_particle_hole(mg: MetricGroup, datum: GaugingDatum | None = None) -> FusionRing:
    """Metaplectic fusion ring from gauging the a -> -a symmetry of (Z_N, q)."""
    if len(mg.facs) != 1:
        raise ParameterError("particle-hole gauging needs a cyclic group")
    n = mg.facs[0]
    if n < 2:
        raise ParameterError("gauging needs N >= 2")
    if not mg.is_nondegenerate:
        raise PreconditionError("the metric group must be nondegenerate")
    if datum is None:
        datum = GaugingDatum(n)
    elif datum.n != n:
        raise ParameterError("datum built for a different N")
    objects, dims, prod, bulk = particle_hole_rules(datum)
    return assemble_ring(objects, dims, prod, bulk=bulk)


def particle_hole_rules(datum: GaugingDatum) -> tuple:
    """The gauged object algebra as `assemble_ring` arguments
    (objects, dims, prod, bulk); it depends on N and the datum only."""
    if datum.n % 2:
        return _gauge_odd(datum.n)
    return _gauge_even(datum.n, datum)


def _orbit_block(n: int, first: int, fixed: dict) -> tuple:
    """The orbit x orbit products <a> (x) <b> = [a + b] + [a - b] as the bulk
    block of `assemble_ring`.

    The orbit <c>, 0 < c < N/2, has key number first + c - 1; [c] is the
    orbit of c, or the two invertible key numbers fixed[c] when c is fixed
    by negation.
    """
    m = (n - 1) // 2
    a, b = (x.ravel() for x in np.meshgrid(np.arange(1, m + 1), np.arange(1, m + 1),
                                           indexing="ij"))
    i, j, k = [], [], []

    def emit(mask, key):
        i.append(a[mask] + first - 1)
        j.append(b[mask] + first - 1)
        k.append(np.broadcast_to(key, a.shape)[mask])

    for c in (a + b, a - b):
        c = np.minimum(c % n, -c % n)
        split = np.isin(c, list(fixed))
        emit(~split, c + first - 1)
        for point, pair in fixed.items():
            for key in pair:
                emit(c == point, key)
    block = range(first, first + m)
    return block, np.concatenate(i), np.concatenate(j), np.concatenate(k)


def _gauge_odd(n: int) -> tuple:
    orbit_reps = list(range(1, (n + 1) // 2))
    width = len(str(max(orbit_reps, default=1)))
    objects = {("inv", 0): "1", ("inv", 1): "z"}
    dims = {("inv", 0): AlgebraicReal.of(1), ("inv", 1): AlgebraicReal.of(1)}
    for a in orbit_reps:
        objects[("orb", a)] = f"O{a:0{width}d}"
        dims[("orb", a)] = AlgebraicReal.of(2)
    for j in (1, 2):
        objects[("def", j)] = f"s{j}"
        dims[("def", j)] = AlgebraicReal.sqrt(n)

    def prod(x, y) -> Counter:
        if x[0] != "inv" and y[0] == "inv":
            x, y = y, x
        if x[0] == "inv":
            g = x[1]
            if y[0] == "inv":
                return Counter({("inv", (g + y[1]) % 2): 1})
            if y[0] == "orb":
                return Counter({y: 1})
            return Counter({("def", y[1] if g == 0 else 3 - y[1]): 1})
        if x[0] == "orb" or y[0] == "orb":
            # orbit times defect; orbit times orbit is the bulk block
            return Counter({("def", 1): 1, ("def", 2): 1})
        # defect times defect
        out = Counter({("inv", 0 if x[1] == y[1] else 1): 1})
        for a in orbit_reps:
            out[("orb", a)] += 1
        return out

    return objects, dims, prod, _orbit_block(n, 2, {0: (0, 1)})


def _gauge_even(n: int, datum: GaugingDatum) -> tuple:
    h = n // 2
    # defect parity: the orbit part of a defect square runs over this parity
    # class.  Base convention: even for 4|N (the sigma+ (x) sigma+ rule), odd
    # for N = 2 mod 4 (forced by the non-self-dual spinor census); the
    # alpha-twist tensors defect squares by [N/2], flipping parity iff N/2 is
    # odd -- hence a no-op exactly when 4|N.
    base_p = 0 if h % 2 == 0 else 1
    p = (base_p + datum.alpha * h) % 2
    klein = h % 2 == 0  # invertible group Z2 x Z2 when N/2 even, Z4 otherwise

    orbit_reps = list(range(1, h))
    width = len(str(max(orbit_reps, default=1)))
    inv_keys = ["1", "u1", "u2", "z"]
    objects = {("inv", g): g for g in inv_keys}
    dims = {("inv", g): AlgebraicReal.of(1) for g in inv_keys}
    for a in orbit_reps:
        objects[("orb", a)] = f"O{a:0{width}d}"
        dims[("orb", a)] = AlgebraicReal.of(2)
    for s in ("v", "w"):
        for j in (1, 2):
            objects[("def", s, j)] = f"{s}{j}"
            dims[("def", s, j)] = AlgebraicReal.sqrt(h)

    # invertible group law: Klein on {1, u1, u2, z = u1 u2} when N/2 is even,
    # cyclic of order 4 generated by u1 (u1^2 = z, u1^3 = u2) when N/2 is odd
    if klein:
        enc = {"1": (0, 0), "u1": (1, 0), "u2": (0, 1), "z": (1, 1)}
        dec = {v: k for k, v in enc.items()}

        def gmul(a, b):
            return dec[tuple((x + y) % 2 for x, y in zip(enc[a], enc[b]))]
    else:
        enc = {"1": 0, "u1": 1, "z": 2, "u2": 3}
        dec = {v: k for k, v in enc.items()}

        def gmul(a, b):
            return dec[(enc[a] + enc[b]) % 4]

    # invertibles acting on defects, per case (derived by closing the orbit
    # algebra under associativity; z always swaps the two splits)
    if klein:
        act = {
            ("u1", "v", 1): ("v", 1), ("u1", "v", 2): ("v", 2),
            ("u1", "w", 1): ("w", 2), ("u1", "w", 2): ("w", 1),
        }
    elif p == 1:
        act = {
            ("u1", "v", 1): ("w", 2), ("u1", "v", 2): ("w", 1),
            ("u1", "w", 1): ("v", 1), ("u1", "w", 2): ("v", 2),
        }
    else:
        act = {
            ("u1", "v", 1): ("w", 1), ("u1", "v", 2): ("w", 2),
            ("u1", "w", 1): ("v", 2), ("u1", "w", 2): ("v", 1),
        }

    def act_on_defect(g, s, j):
        if g == "1":
            return ("def", s, j)
        if g == "z":
            return ("def", s, 3 - j)
        if g == "u1":
            s2, j2 = act[("u1", s, j)]
            return ("def", s2, j2)
        # u2 = z * u1
        _, s2, j2 = act_on_defect("u1", s, j)
        return ("def", s2, 3 - j2)

    def orbit_sum(parity: int) -> Counter:
        return Counter({("orb", a): 1 for a in orbit_reps if a % 2 == parity})

    # defect x defect invertible parts, per case
    def defect_product(s1, j1, s2, j2) -> Counter:
        same_split = j1 == j2
        if s1 == s2:
            orbits = orbit_sum(p)
            if klein:
                u = "u1" if s1 == "v" else "u2"
                invs = ("1", u) if same_split else ("z", gmul("z", u))
            elif p == 1:
                invs = (("u1",) if same_split else ("u2",)) if s1 == "v" else (
                    ("u2",) if same_split else ("u1",)
                )
            else:
                invs = (("1",) if same_split else ("z",)) if s1 == "v" else (
                    ("z",) if same_split else ("1",)
                )
        else:
            orbits = orbit_sum((p + h) % 2) if not klein else orbit_sum(1)
            if klein:
                invs = ()
            elif p == 1:
                invs = ("1",) if same_split else ("z",)
            else:
                invs = ("u1",) if same_split else ("u2",)
        out = orbits
        for g in invs:
            out[("inv", g)] += 1
        return out

    def prod(x, y) -> Counter:
        if x[0] != "inv" and y[0] == "inv":
            x, y = y, x
        if x[0] == "inv":
            g = x[1]
            if y[0] == "inv":
                return Counter({("inv", gmul(g, y[1])): 1})
            if y[0] == "orb":
                # u1 and u2 shift by N/2: <a> -> <h - a>, never a fixed point
                return Counter({y if g in ("1", "z") else ("orb", h - y[1]): 1})
            return Counter({act_on_defect(g, y[1], y[2]): 1})
        if x[0] == "def" and y[0] == "orb":
            x, y = y, x
        if x[0] == "orb":
            # orbit times defect; orbit times orbit is the bulk block
            s = y[1] if x[1] % 2 == 0 else ("w" if y[1] == "v" else "v")
            return Counter({("def", s, 1): 1, ("def", s, 2): 1})
        return defect_product(x[1], x[2], y[1], y[2])

    # key numbers: 1, u1, u2, z are 0..3 and the orbits start at 4
    return objects, dims, prod, _orbit_block(n, 4, {0: (0, 3), h: (1, 2)})


# ---------------------------------------------------------------------------
# boson condensation (de-equivariantization at the fusion-rule level)


@dataclass
class CondensationReport:
    free_pairs: list[tuple[str, str]]
    split: list[str]
    labels: tuple[str, ...]
    dims: tuple[AlgebraicReal, ...]
    total_dim: float
    trivial_component: tuple[str, ...] | None = None
    group_order: int | None = None
    is_cyclic: bool | None = None
    ambiguous: bool = False
    fusion: np.ndarray | None = None
    reason: str | None = None

    def to_json_dict(self) -> dict:
        out = {
            "free_pairs": [list(p) for p in self.free_pairs],
            "split": list(self.split),
            "labels": list(self.labels),
            "dims": [d.to_json() for d in self.dims],
            "dims_float": [float(d) for d in self.dims],
            "total_dim": self.total_dim,
            "trivial_component": (
                list(self.trivial_component) if self.trivial_component else None
            ),
            "group_order": self.group_order,
            "is_cyclic": self.is_cyclic,
            "ambiguous": self.ambiguous,
            "reason": self.reason,
        }
        if self.fusion is not None:
            out["fusion"] = [
                [int(i), int(j), int(k), int(m)]
                for i, j, k in zip(*np.nonzero(self.fusion))
                for m in [self.fusion[i, j, k]]
            ]
        return out


def condense_boson(ring: FusionRing, b: int) -> CondensationReport:
    """De-equivariantize by the order-2 invertible boson b.

    Free (x)b-orbits map to one simple of the same dimension; objects fixed
    by b split into two simples of half dimension.  When every fixed object
    has dimension 2 (the generalized Tambara-Yamagami shape) the group of
    invertibles in the trivial component is probed for cyclicity by the
    inductive generator walk; otherwise only orbit data is reported.
    """
    dims = exact_dimensions(ring)
    r = ring.rank
    if b == 0 or dims[b] != 1:
        raise PreconditionError("condensation object must be a nontrivial invertible")
    ks, ms = ring.row(b, b)
    if ms[ks == 0].tolist() != [1]:
        raise PreconditionError("condensation object must have order 2")

    partner = []
    for x in range(r):
        ks, ms = ring.row(b, x)
        if len(ks) != 1 or ms[0] != 1:
            raise PreconditionError("boson action does not permute the basis")
        partner.append(int(ks[0]))

    fixed = [x for x in range(r) if partner[x] == x]
    free = sorted({tuple(sorted((x, partner[x]))) for x in range(r) if partner[x] != x})
    for x in fixed:
        # boson-compatibility: transparency against the fixed object forces
        # twist 1, so the collapse below is consistent
        transparency_constraint(ring, dims, b, x)

    half = Fraction(1, 2)
    labels: list[str] = []
    out_dims: list[AlgebraicReal] = []
    image_of_pair = {}
    for x, y in free:
        image_of_pair[(x, y)] = len(labels)
        labels.append(ring.labels[x])
        out_dims.append(dims[x])
    split_images = {}
    for x in fixed:
        split_images[x] = (len(labels), len(labels) + 1)
        labels.append(f"{ring.labels[x]}^(1)")
        labels.append(f"{ring.labels[x]}^(2)")
        d_half = dims[x] * half
        out_dims.extend([d_half, d_half])

    total = sum(float(d) ** 2 for d in out_dims)
    report = CondensationReport(
        free_pairs=[(ring.labels[x], ring.labels[y]) for x, y in free],
        split=[ring.labels[x] for x in fixed],
        labels=tuple(labels),
        dims=tuple(out_dims),
        total_dim=total,
    )

    if all(d == 1 for d in dims):
        _condense_pointed(ring, free, report)
        return report

    if fixed and all(dims[x] == 2 for x in fixed):
        _probe_cyclicity(ring, dims, b, fixed, free, report)
        return report

    report.reason = (
        "input is not of generalized Tambara-Yamagami shape; the condensed "
        "fusion rules are not determined by the based ring"
    )
    return report


def _condense_pointed(ring: FusionRing, free, report: CondensationReport) -> None:
    """Full quotient-group fusion when the input ring is pointed."""
    pos = {pair: i for i, pair in enumerate(free)}
    reps = [pair[0] for pair in free]

    def image(x: int) -> int:
        for pair in free:
            if x in pair:
                return pos[pair]
        raise PreconditionError("pointed condensation hit a fixed object")

    m = len(free)
    fusion = np.zeros((m, m, m), dtype=np.int64)
    table = [[0] * m for _ in range(m)]
    for i, x in enumerate(reps):
        for j, y in enumerate(reps):
            k = image(int(ring.row(x, y)[0][0]))
            fusion[i, j, k] = 1
            table[i][j] = k
    report.fusion = fusion
    report.trivial_component = report.labels
    report.group_order = m
    from ._abelian import is_cyclic

    report.is_cyclic = is_cyclic(table, image(0))


def _probe_cyclicity(ring, dims, b, fixed, free, report: CondensationReport) -> None:
    inv_pairs = [p for p in free if dims[p[0]] == 1]
    n_inv = 2 * len(fixed) + len(inv_pairs)
    report.group_order = n_inv
    trivial = [ring.labels[x] for x, _ in inv_pairs]
    for x in fixed:
        trivial.append(f"{ring.labels[x]}^(1)")
        trivial.append(f"{ring.labels[x]}^(2)")
    report.trivial_component = tuple(sorted(trivial))

    def squares_to_one_and_b(y) -> bool:
        square = dict(zip(*(x.tolist() for x in ring.row(y, y))))
        return square.get(0) == 1 and square.get(b) == 1

    candidates = [y for y in fixed if squares_to_one_and_b(y)]
    fixed_set = set(fixed)
    inv_pair_set = {frozenset(p) for p in inv_pairs}
    best = None
    for start in candidates:
        outcome = _generator_walk(ring, b, start, fixed_set, inv_pair_set)
        if outcome is None:
            continue
        order, visited = outcome
        if order == n_inv and len(visited) == len(fixed):
            best = (order, visited)
            break
    if best is None:
        report.is_cyclic = False
        return
    if best[0] == 4 and n_inv == 4:
        # the only relation seen is Y^2 = 1 + b + (invertible pair), which a
        # Klein-group assignment satisfies equally well
        report.ambiguous = True
        report.is_cyclic = None
        report.reason = (
            "generator walk terminates immediately; both the cyclic group of "
            "order 4 and Z2 x Z2 are consistent with the fusion rules"
        )
        return
    report.is_cyclic = True


def _generator_walk(ring, b, start, fixed_set, inv_pair_set):
    """Walk Y, Y^2, Y^3, ... through the fixed dimension-2 objects.

    Each step peels the previous term off Y (x) current; the walk succeeds
    either when the remainder is a free invertible pair other than {1, b}
    (the image of the order-2 element, cyclic subgroup of even order 2m) or
    when it folds back onto the current term (Y (x) c_m = c_{m-1} + c_m,
    cyclic subgroup of odd order 2m - 1).  Returns (subgroup order, visited
    fixed objects) or None.
    """
    prev = None
    cur = start
    visited = [start]
    m = 1
    while True:
        m += 1
        rest = Counter(dict(zip(*(x.tolist() for x in ring.row(start, cur)))))
        if m == 2:
            if rest[0] != 1 or rest[b] != 1:
                return None
            rest[0] -= 1
            rest[b] -= 1
        else:
            if rest[prev] < 1:
                return None
            rest[prev] -= 1
        rest = +rest
        keys = sorted(rest)
        if len(keys) == 1 and rest[keys[0]] == 1 and keys[0] in fixed_set:
            nxt = keys[0]
            if nxt == cur:
                return (2 * m - 1, visited)
            if nxt in visited:
                return None
            visited.append(nxt)
            prev, cur = cur, nxt
            continue
        if (
            len(keys) == 2
            and all(rest[k] == 1 for k in keys)
            and frozenset(keys) in inv_pair_set
            and 0 not in keys
        ):
            return (2 * m, visited)
        return None


# ---------------------------------------------------------------------------
# counting


def count_gaugings_per_form(n: int) -> int:
    """Distinct gaugings per fixed cyclic metric group: 3 when 4 | N, else 2
    (the (1,-1) and (-1,1) pairs are identified by relabeling)."""
    if n < 2:
        raise ParameterError("counting needs N >= 2")
    return 3 if n % 4 == 0 else 2


def count_metaplectic(n: int) -> int:
    """Number of inequivalent metaplectic modular categories of dimension 4N:
    2^{s+1+a} when a <= 1, 3 * 2^{s+2} when a > 1, for N = 2^a p1^a1 ... ps^as."""
    if n < 2:
        raise ParameterError("counting needs N >= 2")
    if n == 4:
        raise RedirectError(
            "N = 4 is degenerate; use the Ising-squared enumeration "
            "(catalog.ising_squared_total_count), which yields 20"
        )
    fac = factorint(n)
    a = fac.get(2, 0)
    s = len([p for p in fac if p != 2])
    if a <= 1:
        return 2 ** (s + 1 + a)
    return 3 * 2 ** (s + 2)
