"""Z2 group cohomology, particle-hole gauging of cyclic metric groups,
boson condensation at the fusion-rule level, and gauging counts.

Gauging here is the Grothendieck shadow of equivariantization of the
Z2-crossed extension of a pointed cyclic category: free <a, -a> orbits
become dimension-2 objects, the fixed points 0 (and N/2 for even N) split
into invertible pairs, and the defect sector contributes 2 objects of
dimension sqrt(N) for odd N or 4 objects of dimension sqrt(N/2) for even N.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from math import prod

import numpy as np

from ._abelian import is_cyclic
from .errors import (
    MalformedInputError,
    ParameterError,
    PreconditionError,
    ResourceLimitError,
    UnsupportedInputError,
)
from .metric import MetricGroup
from .ring import CHUNK, AlgebraicReal, FusionRing, _check_indices, _distinct, exact_dimensions

# nonzeros of the largest metaplectic ring built: 1 GiB of int64 cells and
# multiplicities, about N = 11 600
NONZERO_LIMIT = 2**26


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
        if isinstance(self.facs, str) or any(type(d) is not int for d in self.facs):
            raise MalformedInputError(f"invariant factors must be ints, got {self.facs!r:.80}")
        object.__setattr__(self, "facs", tuple(self.facs))
        if any(d < 1 for d in self.facs):
            raise MalformedInputError("invariant factors must be positive")
        if isinstance(self.action, str):
            if self.action not in ("trivial", "negation"):
                raise MalformedInputError(f"unknown action {self.action!r}")
            return
        # explicit involution given as image tuples per element
        object.__setattr__(self, "action", tuple(tuple(a) for a in self.action))
        elems = self.elements()
        rho = dict(zip(elems, self.action))
        if len(self.action) != len(elems):
            raise MalformedInputError("action table length does not match group order")
        images = set(self.action)
        if not images <= set(elems) or any(type(x) is not int for a in images for x in a):
            raise MalformedInputError("action images must be group elements, as tuples of ints")
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


def z2_cohomology(mod: Z2Module, n: int) -> tuple[int, ...]:
    """H^n(Z2, M) with the given action, as invariant factors (2-periodic:
    H^{even >= 2} = M^rho / im(1 + rho), H^{odd} = ker(1 + rho) / im(1 - rho)).

    For n >= 1 the order 2 of the group kills H^n (Brown, Cohomology of
    Groups, III.10), so H^n is (Z2)^k with 2^k = |top| / |bottom|."""
    if type(n) is not int or n not in (2, 3, 4):
        raise ParameterError(f"cohomological degree {n} is not supported")
    if mod.facs == "Q/Z":
        # Q/Z is divisible, so the norm map is onto in even degree; in odd
        # degree ker(2) = {0, 1/2} and im(0) = 0.
        return () if n % 2 == 0 else (2,)
    elems = mod.elements()
    if n % 2 == 0:
        top = {a for a in elems if mod.rho(a) == a}
        bottom = {mod.add(a, mod.rho(a)) for a in elems}
    else:
        top = {a for a in elems if not any(mod.add(a, mod.rho(a)))}
        bottom = {mod.add(a, mod.neg(mod.rho(a))) for a in elems}
    if not bottom <= top:
        raise MalformedInputError("boundary image escapes the cocycle group")
    return (2,) * ((len(top) // len(bottom)).bit_length() - 1)


# ---------------------------------------------------------------------------
# gauging data


@dataclass(frozen=True)
class GaugingDatum:
    """Labels one Z2 gauging of Z_N by alpha in H^2_rho(Z2, Z_N), whose
    cocycle is omega(1, 1) = (N/2) alpha; the fusion ring depends on N and
    alpha alone."""

    n: int
    alpha: int = 0

    def __post_init__(self):
        if type(self.n) is not int or type(self.alpha) is not int:
            raise ParameterError(f"N and alpha must be ints, got {self.n!r}, {self.alpha!r}")
        if self.n < 2:
            raise ParameterError("gauging needs N >= 2")
        if self.alpha not in (0, 1):
            raise ParameterError("alpha must be 0 or 1")
        if self.alpha == 1 and self.n % 2:
            raise ParameterError(
                f"H^2 of Z_{self.n} under negation is trivial; alpha must be 0"
            )


# ---------------------------------------------------------------------------
# ring assembly from an abstract object algebra


def assemble_ring(labels: list, dims: list, blocks) -> FusionRing:
    """Build a FusionRing from the products of an object algebra.

    labels and dims are lists indexed by key number, with the unit at key 0.
    Each block is a tuple (i, j, k) of integer arrays of key numbers,
    broadcast together; each entry adds one to N[i, j, k], so a product
    listed twice gives multiplicity 2.  Objects are put in canonical order,
    kept as the ring's `keys`: unit, invertibles by label, the rest by (dim, label).
    """
    # each distinct dims object is ranked once: callers share them
    distinct = {id(d): d for d in dims}
    rank = {at: (d != 1, float(d)) for at, d in distinct.items()}
    order = [0] + sorted(range(1, len(labels)),
                         key=lambda key: (*rank[id(dims[key])], labels[key]))
    r = len(order)
    pos = np.empty(r, dtype=np.int64)
    pos[order] = np.arange(r)

    # the raveled cells (i * r + j) * r + k in canonical numbers, each block
    # written into its slice by chunks of leading rows, so that a temporary
    # holds at most CHUNK cells, or one row
    blocks = [tuple(map(np.asarray, block)) for block in blocks]
    grids = [np.broadcast(*block) for block in blocks]
    ends = np.cumsum([0] + [grid.size for grid in grids]).tolist()
    cells = np.empty(ends[-1], dtype=np.int64)
    high, mid = pos * (r * r), pos * r
    units = [high[:0]]  # i * r + j in canonical numbers wherever k is the unit
    for block, grid, lo, hi in zip(blocks, grids, ends, ends[1:]):
        shape = grid.shape or (1,)
        out = cells[lo:hi].reshape(shape)
        step = max(1, CHUNK // max(prod(shape[1:]), 1))
        for top in range(0, shape[0], step):
            # an entry that does not run along the leading axis is used whole
            i, j, k = block if step >= shape[0] else (
                x[top:top + step] if x.ndim == len(shape) and len(x) > 1 else x for x in block)
            part = out[top:top + step]
            np.add(high[i], mid[j], out=part)
            part += pos[k]
            unit = k == 0
            if unit.any():
                at = np.zeros(part.shape, dtype=bool)
                at |= unit
                units.append(part[at] // r)
    # sorted in place; a cell's multiplicity is the length of its run.  Each
    # block writes its cells in row order, and the stable sort (timsort)
    # merges those runs: on 2 vCPUs it sorts SO(3000)_2's 4.5 M cells in
    # 34 ms, not the 55 ms of the default sort, and SO(600)_2's in 0.8 ms,
    # not 1.4 ms
    cells.sort(kind="stable")
    repeat = cells[1:] == cells[:-1]
    if repeat.any():
        start = np.flatnonzero(np.r_[True, ~repeat])
        mult = np.diff(start, append=len(cells))
        cells = cells[start]
    else:
        mult = np.ones(len(cells), dtype=np.int64)
    del repeat  # before the ring's own checks allocate theirs
    # X (x) Y contains the unit for exactly one Y, the dual of X
    xy = np.sort(np.concatenate(units))
    x, y = np.divmod(xy[np.concatenate(([True], xy[1:] != xy[:-1]))], r)
    once = np.bincount(x, minlength=r) == 1
    if not once.all():
        raise MalformedInputError(f"object {int(np.flatnonzero(~once)[0])} has no unique dual")
    return FusionRing.from_nonzeros(tuple(labels[key] for key in order), tuple(y.tolist()),
                                    cells, mult, tuple(dims[key] for key in order), order)


def _hankel(x: np.ndarray, rows: int, cols: int) -> np.ndarray:
    """The rows x cols table H[a, b] = x[a + b], as a read-only view of the
    first rows + cols - 1 entries of x, so that a rule table costs no memory
    beyond x (`sliding_window_view` builds the same view in 16 us, not 2)."""
    x = np.ascontiguousarray(x[:max(rows + cols - 1, 0)])
    table = np.ndarray((rows, cols), x.dtype, x, strides=2 * x.strides)
    table.flags.writeable = False
    return table


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
    return assemble_ring(*particle_hole_rules(datum))


def particle_hole_rules(datum: GaugingDatum) -> tuple:
    """The gauged object algebra as `assemble_ring` arguments
    (labels, dims, blocks); it depends on N and alpha only."""
    check_ring_size(datum.n)
    if datum.n % 2:
        return _gauge_odd(datum.n)
    return _gauge_even(datum.n, datum.alpha)


def check_ring_size(n: int) -> None:
    """Refuse, before any rule is emitted, a ring of SO(N)_2 or of the
    particle-hole gauging of Z_N whose nonzeros would pass NONZERO_LIMIT."""
    # every multiplicity is 1, for both routes and every alpha: 2h^2 + 30h + 32
    # nonzeros for N = 2h and 2h^2 + 17h + 16 for N = 2h + 1
    h = n // 2
    nonzeros = 2 * h * h + (17 * h + 16 if n % 2 else 30 * h + 32)
    if nonzeros > NONZERO_LIMIT:
        raise ResourceLimitError(
            f"the ring for N = {n} would have {nonzeros} nonzeros, "
            f"above the limit {NONZERO_LIMIT}")


def _invertible_blocks(action) -> list:
    """The blocks g (x) x and x (x) g = action[g, x] for every invertible key
    number g, which are the first len(action) keys."""
    g, keys = len(action), np.arange(action.shape[1])
    x = np.arange(g)[:, None]
    return [(x, keys, action), (keys[g:], x, action[:, g:])]


def _orbit_block(n: int, first: int, fixed: dict) -> list:
    """The orbit x orbit products <a> (x) <b> = [a + b] + [a - b] as blocks.

    The orbit <c>, 0 < c < N/2, has key number first + c - 1; [c] is the
    orbit of c, or the two invertible key numbers fixed[c] when c = -c.
    """
    m = (n - 1) // 2
    c = np.arange(n)
    image = first - 1 + np.minimum(c, n - c)  # [c] per residue c, first fixed key
    for point, pair in fixed.items():
        image[point] = pair[0]
    a = np.arange(1, m + 1)
    left, right = a[:, None] + first - 1, a + first - 1
    # [a + b] with 0 < a + b < N, and [a - b] read at its residue, as views
    # of `image`: the second is the Hankel table of the residues from 1 - m
    # up, with its columns reversed
    blocks = [(left, right, _hankel(image[2:], m, m)),
              (left, right, _hankel(image[np.arange(1 - m, m) % n], m, m)[:, ::-1])]
    # the second key of each fixed point c, where a + b = c or a - b = c
    for point, pair in fixed.items():
        for b in ((point - a) % n, (a - point) % n):
            hit = (b >= 1) & (b <= m)
            blocks.append((a[hit] + first - 1, b[hit] + first - 1, pair[1]))
    return blocks


def _gauge_odd(n: int) -> tuple:
    m = (n - 1) // 2
    one, two, root = AlgebraicReal.of(1), AlgebraicReal.of(2), AlgebraicReal.sqrt(n)
    # key numbers: 1 and z are 0 and 1, <a> is 1 + a, s1 and s2 follow
    w = len(str(m))
    labels = ["1", "z", *(f"O{a:0{w}d}" for a in range(1, m + 1)), "s1", "s2"]
    dims = [one, one] + [two] * m + [root, root]
    orbits, s = np.arange(2, m + 2), np.array([m + 2, m + 3])
    # z fixes every orbit and swaps s1 and s2
    action = np.array([np.r_[0, 1, orbits, s], np.r_[1, 0, orbits, s[::-1]]])
    # <a> (x) s_j = s1 + s2, and s_i (x) s_j = 1 (z when i != j) + every orbit
    a, d = orbits[:, None, None], s[:, None]
    return labels, dims, (
        _invertible_blocks(action)
        + _orbit_block(n, 2, {0: (0, 1)})
        + [(a, d, s), (d, a, s), (d, s, 1 - np.eye(2, dtype=np.int64)), (d[..., None], d, orbits)]
    )


def _gauge_even(n: int, alpha: int) -> tuple:
    h = n // 2
    # defect parity: the orbit part of a defect square runs over this parity
    # class.  Base convention: even for 4|N (the sigma+ (x) sigma+ rule), odd
    # for N = 2 mod 4 (forced by the non-self-dual spinor census); the
    # alpha-twist tensors defect squares by [N/2], flipping parity iff N/2 is
    # odd -- hence a no-op exactly when 4|N.
    base_p = 0 if h % 2 == 0 else 1
    p = (base_p + alpha * h) % 2
    klein = h % 2 == 0  # invertible group Z2 x Z2 when N/2 even, Z4 otherwise

    one, two, root = AlgebraicReal.of(1), AlgebraicReal.of(2), AlgebraicReal.sqrt(h)
    # key numbers: 1, u1, u2, z are 0..3, <a> is 3 + a, and v1, v2, w1, w2
    # are h + 3 + d for d = 0..3
    w = len(str(h - 1))
    labels = ["1", "u1", "u2", "z", *(f"O{a:0{w}d}" for a in range(1, h)), "v1", "v2", "w1", "w2"]
    dims = [one] * 4 + [two] * (h - 1) + [root] * 4
    g = np.arange(4)
    orbits = np.arange(4, h + 3)
    # invertible group law: Klein on {1, u1, u2, z = u1 u2} when N/2 is even,
    # cyclic of order 4 generated by u1 (u1^2 = z, u1^3 = u2) when N/2 is
    # odd; the key of u1^e and the power of u1 at key e are both power[e]
    power = np.array([0, 1, 3, 2])
    gmul = g[:, None] ^ g if klein else power[(power[:, None] + power) % 4]
    # invertibles acting on defects, per case (derived by closing the orbit
    # algebra under associativity; z always swaps the two splits)
    if klein:
        u1 = np.array([0, 1, 3, 2])
    elif p == 1:
        u1 = np.array([3, 2, 0, 1])
    else:
        u1 = np.array([2, 3, 1, 0])
    on_defects = np.array([g, u1, u1 ^ 1, g ^ 1])  # u2 = z u1
    # u1 and u2 shift by N/2: <a> -> <h - a>, never a fixed point
    on_orbits = np.array([orbits, orbits[::-1], orbits[::-1], orbits])
    action = np.hstack([gmul, on_orbits, h + 3 + on_defects])

    # <a> (x) (s, j) = (s', 1) + (s', 2), s' = s for even a, the other for odd
    a, d = np.arange(1, h)[:, None, None], g[:, None]
    e = h + 3 + 2 * ((d >> 1) ^ (a & 1)) + np.arange(2)
    blocks = [(3 + a, h + 3 + d, e), (h + 3 + d, 3 + a, e)]

    # defect x defect.  For an invertible g, N_XY^g = N_{X* g}^Y (Frobenius
    # reciprocity), so g is in X (x) Y exactly when g X* = Y; the defect
    # duals are v1, v2, w1, w2 for Klein, v_j <-> w_j for p = 1, and
    # w1 <-> w2 for p = 0.  The orbit part runs over one parity class.
    dual = g if klein else g ^ 2 if p == 1 else g ^ (g >> 1)
    blocks.append((h + 3 + g, h + 3 + on_defects[:, dual], g[:, None]))
    parity = np.array([p, 1 if klein else (p + h) % 2])  # same letter, other letter
    # <a> is orbits[a - 1]; one block per parity class
    x, y = np.divmod(np.arange(16), 4)
    start = 1 - parity[(x ^ y) >> 1]
    blocks += [(h + 3 + x[start == s, None], h + 3 + y[start == s, None], orbits[s::2])
               for s in (0, 1)]
    return labels, dims, (
        _invertible_blocks(action) + _orbit_block(n, 4, {0: (0, 3), h: (1, 2)}) + blocks
    )


# ---------------------------------------------------------------------------
# boson condensation (de-equivariantization at the fusion-rule level)


@dataclass(frozen=True)
class CondensationReport:
    free_pairs: tuple[tuple[str, str], ...]
    split: tuple[str, ...]
    labels: tuple[str, ...]
    dims: tuple[AlgebraicReal, ...]
    total_dim: float
    trivial_component: tuple[str, ...] | None = None
    group_order: int | None = None
    is_cyclic: bool | None = None
    ambiguous: bool = False
    table: np.ndarray | None = None  # pointed input: (m, m) quotient group law
    reason: str | None = None

    def __post_init__(self):
        if self.table is not None:
            self.table.flags.writeable = False

    def to_json_dict(self) -> dict:
        out = {
            "free_pairs": [list(p) for p in self.free_pairs],
            "split": list(self.split),
            "labels": list(self.labels),
            "dims": [d.to_json() for d in self.dims],
            "dims_float": [float(d) for d in self.dims],
            "total_dim": self.total_dim,
            "trivial_component": list(self.trivial_component) if self.trivial_component else None,
            "group_order": self.group_order,
            "is_cyclic": self.is_cyclic,
            "ambiguous": self.ambiguous,
            "reason": self.reason,
        }
        if self.table is not None:
            out["fusion"] = [[i, j, k, 1] for i, row in enumerate(self.table.tolist())
                             for j, k in enumerate(row)]
        return out


def condense_boson(ring: FusionRing, b: int) -> CondensationReport:
    """De-equivariantize by the order-2 invertible boson b.

    Free (x)b-orbits map to one simple of the same dimension; objects fixed
    by b split into two simples of half dimension.  When every fixed object
    has dimension 2 (the generalized Tambara-Yamagami shape) the group of
    invertibles in the trivial component is probed for cyclicity by the
    inductive generator walk; otherwise only orbit data is reported.

    The rows b (x) x, x* (x) b and y (x) y are read for every x or y in one
    array step each, and each dimension test is made once per distinct
    dimension.
    """
    _check_indices(ring, b)
    values, of = _distinct(exact_dimensions(ring))
    one = [d == 1 for d in values]
    r, cells, mults = ring.rank, ring.cells, ring.mults
    if b == 0 or not one[of[b]]:
        raise PreconditionError("condensation object must be a nontrivial invertible")
    ks, ms = ring.row(b, b)
    if ms[ks == 0].tolist() != [1]:
        raise PreconditionError("condensation object must have order 2")

    every = np.arange(r)
    ends = np.searchsorted(cells, (b * r + np.arange(r + 1)) * r)  # of the rows (b, x)
    if not (np.diff(ends) == 1).all() or (mults[ends[:-1]] != 1).any():
        raise PreconditionError("boson action does not permute the basis")
    partner = cells[ends[:-1]] % r
    moved = np.flatnonzero(partner != every)
    pairs = np.sort(np.minimum(moved, partner[moved]) * r + np.maximum(moved, partner[moved]))
    free = [divmod(p, r) for p in pairs[np.diff(pairs, prepend=-1) != 0].tolist()]
    fixed = np.flatnonzero(partner == every)

    # the fixing relation x* (x) b = x* for every fixed x, so that each
    # fixed object splits consistently
    dual = np.asarray(ring.dual)[fixed]
    row = (dual * r + b) * r
    lo, hi = np.searchsorted(cells, row), np.searchsorted(cells, row + r)
    if not ((hi - lo == 1).all() and (cells[lo] == row + dual).all() and (mults[lo] == 1).all()):
        raise PreconditionError("fixing relation fails on the dual object")

    fixed = fixed.tolist()
    halves = [d * Fraction(1, 2) for d in values]
    out_dims = [values[of[x]] for x, _ in free] + [halves[of[x]] for x in fixed for _ in (1, 2)]
    square = {id(d): float(d) ** 2 for d in values + halves}
    labels = tuple([ring.labels[x] for x, _ in free]
                   + [f"{ring.labels[x]}^({s})" for x in fixed for s in (1, 2)])
    two = [d == 2 for d in values]
    if all(one):
        fields = {"trivial_component": labels, **_condense_pointed(ring, free)}
    elif fixed and all(two[of[x]] for x in fixed):
        fields = _probe_cyclicity(ring, b, fixed, [p for p in free if one[of[p[0]]]])
    else:
        fields = {"reason": (
            "input is not of generalized Tambara-Yamagami shape; the condensed "
            "fusion rules are not determined by the based ring"
        )}
    return CondensationReport(
        free_pairs=tuple((ring.labels[x], ring.labels[y]) for x, y in free),
        split=tuple(ring.labels[x] for x in fixed),
        labels=labels,
        dims=tuple(out_dims),
        total_dim=sum(square[id(d)] for d in out_dims),
        **fields,
    )


def _condense_pointed(ring: FusionRing, free) -> dict:
    """The quotient group law as a table when the input ring is pointed:
    each row x (x) y is one object, read for every pair of representatives
    at once."""
    m, r = len(free), ring.rank
    pairs = np.array(free, dtype=np.int64).reshape(m, 2)
    image = np.full(r, -1)  # object -> position of its pair
    image[pairs[:, 0]] = image[pairs[:, 1]] = np.arange(m)
    rows = (pairs[:, :1] * r + pairs[:, 0]) * r
    table = image[ring.cells[np.searchsorted(ring.cells, rows)] % r]
    if (table < 0).any():
        raise PreconditionError("pointed condensation hit a fixed object")
    return {"table": table, "group_order": m, "is_cyclic": is_cyclic(table.tolist(), int(image[0]))}


def _probe_cyclicity(ring, b, fixed, inv_pairs) -> dict:
    n_inv = 2 * len(fixed) + len(inv_pairs)
    trivial = [ring.labels[x] for x, _ in inv_pairs]
    trivial += [f"{ring.labels[x]}^({s})" for x in fixed for s in (1, 2)]
    fields = {"group_order": n_inv, "trivial_component": tuple(sorted(trivial))}

    # the fixed y whose square holds 1 and b once each
    r, cells, mults = ring.rank, ring.cells, ring.mults
    y = np.array(fixed)
    want = ((y * r + y) * r)[:, None] + [0, b]
    at = np.minimum(np.searchsorted(cells, want), len(cells) - 1)
    candidates = y[((cells[at] == want) & (mults[at] == 1)).all(axis=1)].tolist()
    fixed_set = set(fixed)
    inv_pair_set = {frozenset(p) for p in inv_pairs}
    covered = set()  # a start inside a proper subgroup already walked generates no more
    for start in candidates:
        if start in covered:
            continue
        outcome = _generator_walk(ring, b, start, fixed_set, inv_pair_set)
        if outcome is not None and outcome[0] == n_inv and len(outcome[1]) == len(fixed):
            break
        if outcome is not None and outcome[0] < n_inv:
            covered |= outcome[1]
    else:
        return {**fields, "is_cyclic": False}
    if n_inv == 4:
        # the only relation seen is Y^2 = 1 + b + (invertible pair), which a
        # Klein-group assignment satisfies equally well
        return {**fields, "ambiguous": True, "reason": (
            "generator walk terminates immediately; both the cyclic group of "
            "order 4 and Z2 x Z2 are consistent with the fusion rules"
        )}
    return {**fields, "is_cyclic": True}


def _generator_walk(ring, b, start, fixed_set, inv_pair_set):
    """Walk Y, Y^2, Y^3, ... through the fixed dimension-2 objects.

    Each step peels the previous term off Y (x) current; the walk succeeds
    either when the remainder is a free invertible pair other than {1, b}
    (the image of the order-2 element, cyclic subgroup of even order 2m) or
    when it folds back onto the current term (Y (x) c_m = c_{m-1} + c_m,
    cyclic subgroup of odd order 2m - 1).  Returns (subgroup order, set of
    visited fixed objects) or None.  The products Y (x) c are read from the
    nonzeros of first index Y, listed once per walk.
    """
    r = ring.rank
    lo, hi = np.searchsorted(ring.cells, (start * r * r, (start + 1) * r * r))
    c, k = np.divmod(ring.cells[lo:hi] - start * r * r, r)
    ends = np.searchsorted(c, np.arange(r + 1)).tolist()  # of the rows (Y, c)
    k, ms = k.tolist(), ring.mults[lo:hi].tolist()
    prev, cur, visited, m = None, start, {start}, 1
    while True:
        m += 1
        row = slice(ends[cur], ends[cur + 1])
        rest = dict(zip(k[row], ms[row]))
        if m == 2:
            if rest.get(0) != 1 or rest.get(b) != 1:
                return None
            del rest[0], rest[b]
        elif prev not in rest:
            return None
        elif rest[prev] == 1:
            del rest[prev]
        else:
            rest[prev] -= 1
        keys = sorted(rest)
        if len(keys) == 1 and rest[keys[0]] == 1 and keys[0] in fixed_set:
            nxt = keys[0]
            if nxt == cur:
                return (2 * m - 1, visited)
            if nxt in visited:
                return None
            visited.add(nxt)
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
    if type(n) is not int or n < 2:
        raise ParameterError(f"counting needs an int N >= 2, got {n!r}")
    return 3 if n % 4 == 0 else 2
