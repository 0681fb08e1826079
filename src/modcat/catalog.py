"""Explicit constructors and censuses for the metaplectic family SO(N)_2,
Deligne products of rings and of ribbon data, the Ising x Ising modular data
as one such product, and the dimension-16m component census.

The 4|N fusion rules are hand-coded from the generator relations of the
family (V1^2 = 1 + f + sum X_i, the X/Y index case formulas, and f/g
translation); rings for 4-nondividing N are produced by the particle-hole
gauging construction.  Each route emits its rules as blocks of key numbers,
broadcast arrays whose tables are views of one vector, and the two share no
fusion arithmetic, only `assemble_ring`, which orders the objects and writes
each block's cells into the ring; that is what makes the based-ring
isomorphism check between them meaningful.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import TYPE_CHECKING

import numpy as np

from ._abelian import squarefree_part
from .errors import InternalConsistencyError, ParameterError, ResourceLimitError
from .gauging import (
    NONZERO_LIMIT,
    GaugingDatum,
    _hankel,
    _invertible_blocks,
    assemble_ring,
    check_ring_size,
    count_gaugings_per_form,
    particle_hole_rules,
)
from .metric import classify_forms, enumerate_cyclic_metric_groups, enumerate_forms
from .ring import (
    ONE,
    AlgebraicReal,
    FusionRing,
    _distinct,
    _same_nonzeros,
    exact_dimensions,
    universal_grading,
)

if TYPE_CHECKING:
    from .modular import RibbonData


# ---------------------------------------------------------------------------
# small example rings


def fibonacci_ring() -> FusionRing:
    """Basis 1, X with X^2 = 1 + X, so that X has the golden ratio as dimension."""
    blocks = _invertible_blocks(np.arange(2)[None]) + [(1, 1, [0, 1])]
    return assemble_ring(["1", "X"], [ONE, AlgebraicReal(Fraction(1, 2), Fraction(1, 2), 5)], blocks)


def ising_ring() -> FusionRing:
    """Basis 1, psi, sig with psi^2 = 1, psi sig = sig and sig^2 = 1 + psi."""
    blocks = _invertible_blocks(np.array([[0, 1, 2], [1, 0, 2]])) + [(2, 2, [0, 1])]
    return assemble_ring(["1", "psi", "sig"], [ONE, ONE, AlgebraicReal.sqrt(2)], blocks)


# ---------------------------------------------------------------------------
# SO(N)_2


def _four_divides_rules(n: int) -> tuple:
    """The 4|N metaplectic ring's listed fusion rules as `assemble_ring`
    arguments (labels, dims, blocks).

    Basis 1, f, g, fg, X_0..X_{r-1}, Y_0..Y_r, V_1, V_2, W_1, W_2 with
    r = N/4 - 1; X_i and Y_i have dimension 2, V/W have dimension
    sqrt(N/2).  Index reflections xi (X-range) and rho (Y-range) fold
    out-of-range sums back into the basis.
    """
    check_ring_size(n)
    r = n // 4 - 1
    h = n // 2
    one, two, root = AlgebraicReal.of(1), AlgebraicReal.of(2), AlgebraicReal.sqrt(h)
    wx, wy = len(str(r - 1)), len(str(r))
    labels = ["1", "f", "g", "fg", *(f"X{i:0{wx}d}" for i in range(r)),
              *(f"Y{i:0{wy}d}" for i in range(r + 1)), "V1", "V2", "W1", "W2"]
    dims = [one] * 4 + [two] * (2 * r + 1) + [root] * 4
    return labels, dims, _four_divides_products(r)


def _four_divides_products(r: int) -> list:
    """Every product of the 4|N ring as blocks of `assemble_ring`, in key
    numbers: 1, f, g, fg are 0..3, X_m is 4 + m, Y_m is 4 + r + m and
    V1, V2, W1, W2 are 5 + 2r + d for d = 0..3."""
    one, f, g, fg = range(4)
    a = np.arange(4)
    xs, ys, vw = 4 + np.arange(r), 4 + r + np.arange(r + 1), 5 + 2 * r + a
    # the invertibles: the Klein law is the xor of key numbers; f and g
    # reflect the X and Y indices; V is fixed by 1 and f, W by 1 and g, and
    # the others swap the split
    action = np.hstack([
        a[:, None] ^ a,
        [xs, xs[::-1], xs[::-1], xs],
        [ys, ys[::-1], ys[::-1], ys],
        vw[[[0, 1, 2, 3], [0, 1, 3, 2], [1, 0, 2, 3], [1, 0, 3, 2]]],
    ])
    blocks = _invertible_blocks(action)
    # X_i (x) V_j = V_1 + V_2, Y_i (x) V_j = W_1 + W_2, and alike for W
    d = a[:, None]
    for left, swap in ((xs, 0), (ys, 1)):
        e = vw[2 * ((d >> 1) ^ swap) + np.arange(2)]
        blocks += [(left[:, None, None], vw[d], e), (vw[d], left[:, None, None], e)]
    # V_i V_i = 1 + f + sum X, V_1 V_2 = g + fg + sum X, and alike for W
    # with f and g exchanged; V_i W_j = sum Y
    x, y = np.divmod(np.arange(16), 4)
    same = x >> 1 == y >> 1
    blocks.append((vw[x[~same], None], vw[y[~same], None], ys))
    x, y = vw[x[same]], vw[y[same]]
    fixer = np.where(x < vw[2], f, g)
    blocks += [(x, y, np.where(x == y, one, fg ^ fixer)), (x, y, np.where(x == y, fixer, fg)),
             (x[:, None], y[:, None], xs)]

    # X_i X_j = xi(i + j + 1) + (1 + fg if i = j, else X_{|i - j| - 1}) and
    # Y_i Y_j = xi(i + j) + the same second term, where xi(m) = X_m, folded
    # to X_{2r - m} past r, and f + g at the fixed point m = r; both tables
    # are views, the second of near[|m|] from m = 1 - size up with its
    # columns reversed
    m = np.arange(2 * r + 1)
    xi = 4 + np.minimum(m, 2 * r - m)
    xi[r] = f
    near = 4 + m - 1
    near[0] = one
    for size, start, shift in ((r, 4, 1), (r + 1, 4 + r, 0)):
        p = np.arange(size)
        left, right = p[:, None] + start, p + start
        blocks += [
            (left, right, _hankel(xi[shift:], size, size)),
            (left, right, _hankel(near[abs(np.arange(1 - size, size))], size, size)[:, ::-1]),
            # the second keys: g where i + j + shift = r, fg where i = j
            (p + start, r - shift - p + start, g),
            (p + start, p + start, fg),
        ]

    # X_p Y_q = Y_{rho(q - p - 1)} + Y_{rho(p + q + 1)}, and Y_q X_p alike;
    # rho folds m into 0..r, to -m - 1 below 0 and 2r + 1 - m past r, and
    # is tabled here at m + r for m = -r..2r.  Both tables are views: the
    # first is the Hankel table of rho from m = -r, rows reversed
    m = np.arange(-r, 2 * r + 1)
    rho = 4 + r + np.where(m < 0, -m - 1, np.where(m > r, 2 * r + 1 - m, m))
    p, q = np.arange(r)[:, None], np.arange(r + 1)
    for key in (_hankel(rho, r, r + 1)[::-1], _hankel(rho[r + 1:], r, r + 1)):
        blocks += [(4 + p, 4 + r + q, key), (4 + r + q, 4 + p, key)]
    return blocks


_RELABEL_ODD = {"z": "Z", "s1": "V+", "s2": "V-"}
_RELABEL_EVEN = {
    "z": "Z", "u1": "U1", "u2": "U2",
    "v1": "V+", "v2": "V-", "w1": "W+", "w2": "W-",
}


def build_so_n2(n: int) -> FusionRing:
    """Metaplectic fusion ring of SO(N)_2 with exact dimensions attached."""
    return assemble_ring(*so_n2_rules(n))


def so_n2_rules(n: int) -> tuple:
    """The rules of SO(N)_2 as `assemble_ring` arguments (labels, dims,
    blocks): the listed 4|N rules, or else the particle-hole gauging under
    the SO(N)_2 labels, which keep the canonical order of `assemble_ring`."""
    if type(n) is not int or n < 2:
        raise ParameterError(f"SO(N)_2 needs an int N >= 2, got {n!r}")
    if n % 4 == 0:
        return _four_divides_rules(n)
    labels, dims, blocks = particle_hole_rules(GaugingDatum(n))
    table = _RELABEL_ODD if n % 2 else _RELABEL_EVEN
    return [table.get(lab, lab.replace("O", "X")) for lab in labels], dims, blocks


# ---------------------------------------------------------------------------
# censuses


@dataclass(frozen=True)
class MetaplecticCensus:
    n: int
    rank: int
    invertible_count: int
    dim2_count: int
    spinor_count: int
    spinor_dim: AlgebraicReal | None
    self_dual: tuple[bool, ...]
    mismatches: tuple[str, ...] = ()

    @property
    def ok(self) -> bool:
        return not self.mismatches


def structure_census(ring: FusionRing, n: int) -> MetaplecticCensus:
    """Count sectors of a metaplectic ring against the three-case table of
    SO(n)_2."""
    dims, of = _distinct(exact_dimensions(ring))
    counts = np.bincount(of, minlength=len(dims)).tolist()
    total = sum((d * d * c for d, c in zip(dims, counts)), AlgebraicReal.of(0))
    # dimension classifies except in the degenerate cases N = 2 and N = 8,
    # where the defect dimension collides with 1 or 2; there the V/W labels
    # carried by every constructed metaplectic ring decide
    by_dim = ["invertible" if d == 1 else "dim2" if d == 2 else "spinor" for d in dims]
    sectors = ["spinor" if lab[0] in ("V", "W") else by_dim[v] for lab, v in zip(ring.labels, of)]
    inv = sectors.count("invertible")
    dim2 = sectors.count("dim2")
    spin = sectors.count("spinor")
    spinor_dims = {dims[v] for v, s in zip(of, sectors) if s == "spinor"}
    spinor_dim = spinor_dims.pop() if len(spinor_dims) == 1 else None
    self_dual = tuple(ring.dual[i] == i for i in range(ring.rank))

    if n % 2:
        expected = (2, (n - 1) // 2, 2, AlgebraicReal.sqrt(n))
    else:
        expected = (4, n // 2 - 1, 4, AlgebraicReal.sqrt(n // 2))
    mismatches = [
        f"{name}: got {got}, expected {want}"
        for name, got, want in (
            ("invertible_count", inv, expected[0]),
            ("dim2_count", dim2, expected[1]),
            ("spinor_count", spin, expected[2]),
        )
        if got != want
    ]
    if spinor_dim is not None and spinor_dim != expected[3]:
        mismatches.append(f"spinor_dim: got {spinor_dim}, expected {expected[3]}")
    if len(spinor_dims) > 1:
        mismatches.append("spinor dimensions are not all equal")
    if total != 4 * n:
        mismatches.append(f"global dimension {total} != 4N = {4 * n}")
    non_self_dual = [i for i in range(ring.rank) if ring.dual[i] != i]
    if n % 4 == 2 and n > 2:
        bad = [i for i in non_self_dual if sectors[i] == "dim2"]
        if len(non_self_dual) != 6 or bad:
            mismatches.append(
                "expected exactly one invertible pair and all four spinors "
                "to be non-self-dual"
            )
    elif n != 2 and non_self_dual:
        mismatches.append("all objects should be self-dual")
    return MetaplecticCensus(
        n=n, rank=ring.rank, invertible_count=inv, dim2_count=dim2,
        spinor_count=spin, spinor_dim=spinor_dim, self_dual=self_dual,
        mismatches=tuple(mismatches),
    )


def boson_fermion_census(n: int) -> dict[str, str]:
    """Expected boson/fermion verdicts for f, g, fg, with structural checks."""
    if type(n) is not int or n % 4:
        raise ParameterError(f"the boson/fermion census needs an int N with 4 | N, got {n!r}")
    return _boson_fermion(build_so_n2(n), n)


def _boson_fermion(ring: FusionRing, n: int) -> dict[str, str]:
    """`boson_fermion_census` on the already built SO(n)_2, 4 | n."""
    r = n // 4 - 1
    all_bosons = n % 8 == 0
    # structural cross-check: when 8 does not divide N, r is even and the middle
    # Y (key 4 + r + r/2) is fixed by every invertible, so its square holds keys 0..3
    if not all_bosons:
        mid = ring.keys.tolist().index(4 + r + r // 2)
        if not np.isin(np.arange(4), ring.keys[ring.row(mid, mid)[0]]).all():
            raise InternalConsistencyError("middle Y square does not reach all invertibles")
    verdict = "boson" if all_bosons else "fermion"
    return {"fg": "boson", "f": verdict, "g": verdict}


# ---------------------------------------------------------------------------
# Deligne products, and Ising x Ising as one


def deligne_rules(r1: FusionRing, r2: FusionRing) -> tuple:
    """r1 x r2 as `assemble_ring` arguments (labels, dims, blocks): (a, b) is
    key a * r2 + b, labelled `a*b`, of dimension d_a d_b, and one block lists
    every pair of nonzeros m1 m2 times, as N[(a, b), (c, d), (e, f)] =
    N1[a, c, e] N2[b, d, f].  Before the block is built, `ResourceLimitError`
    refuses more than NONZERO_LIMIT products and `UnsupportedInputError` dims
    that leave one quadratic field."""
    listed = int(r1.mults.sum()) * int(r2.mults.sum())
    if listed > NONZERO_LIMIT:
        raise ResourceLimitError(f"the product would list {listed} products, "
                                 f"above the limit {NONZERO_LIMIT}")
    (v1, of1), (v2, of2) = _distinct(exact_dimensions(r1)), _distinct(exact_dimensions(r2))
    table = [[x * y for y in v2] for x in v1]  # one shared object per pair of values
    labels = [f"{a}*{b}" for a in r1.labels for b in r2.labels]
    dims = [table[u][v] for u in of1 for v in of2]
    # the keys in the least dtype that holds them: int16 or narrower for every
    # product of fusion rings passed, which have r^2 nonzeros or more
    key = np.min_scalar_type(r1.rank * r2.rank)
    ijk1, ijk2 = ([np.repeat(x.astype(key), ring.mults) for x in ring.nonzero()]
                  for ring in (r1, r2))
    return labels, dims, [tuple(r2.rank * x[:, None] + y for x, y in zip(ijk1, ijk2))]


def deligne_product(r1: FusionRing, r2: FusionRing) -> FusionRing:
    """The Deligne product of two fusion rings (`deligne_rules`)."""
    return assemble_ring(*deligne_rules(r1, r2))


def deligne_ribbon(rd1: RibbonData, rd2: RibbonData) -> RibbonData:
    """The Deligne product of two ribbon data: dims and twists multiply, each
    object of the product ring matched to its factors by its key."""
    ring = deligne_product(rd1.ring, rd2.ring)
    at = [divmod(key, rd2.ring.rank) for key in ring.keys.tolist()]  # (a, b) has key a r2 + b
    made = {}  # one object per value, as the ring shares its dims
    dims = tuple(made.setdefault(d, d) for d in (rd1.dims[x] * rd2.dims[y] for x, y in at))
    return type(rd1)(ring, dims, tuple(rd1.twists[x] * rd2.twists[y] for x, y in at))


@dataclass(frozen=True)
class IsingParams:
    nu1: int
    nu2: int

    def __post_init__(self):
        if not all(type(nu) is int and nu % 2 for nu in (self.nu1, self.nu2)):
            raise ParameterError("Ising parameters must be odd ints, residues mod 16, "
                                 f"got {self.nu1!r}, {self.nu2!r}")
        object.__setattr__(self, "nu1", self.nu1 % 16)
        object.__setattr__(self, "nu2", self.nu2 % 16)


def ising_squared_data(p: IsingParams) -> RibbonData:
    """Ribbon data of Ising^{nu1} x Ising^{nu2}: the Deligne product of the
    Ising data with twists 1, -1 and e^{pi i nu / 8}."""
    from .modular import Phase, RibbonData  # only the ribbon data loads modular

    ising, unit, fermion = ising_ring(), Phase(Fraction(0)), Phase(Fraction(1, 2))
    return deligne_ribbon(*(
        RibbonData(ising, ising.exact_dims, (unit, fermion, Phase(Fraction(nu, 16))))
        for nu in (p.nu1, p.nu2)))


def ising_squared_total_count() -> dict:
    """20 = 12 particle-hole gaugings of (Z_4, q) + 8 gaugings of the four
    fermion-bearing Klein metric groups."""
    cyclic = len(enumerate_cyclic_metric_groups(4)) * count_gaugings_per_form(4)
    klein_classes = classify_forms(enumerate_forms((2, 2)))
    with_fermion = [
        cls
        for cls in klein_classes
        if np.any(2 * cls[0].num == cls[0].den)  # q takes the value 1/2
    ]
    klein = 2 * len(with_fermion)
    return {"cyclic-gauged": cyclic, "klein-gauged": klein, "total": cyclic + klein}


# ---------------------------------------------------------------------------
# dimension-16m component census


def sixteen_m_component_census(m: int) -> dict:
    """Per-component census of SO(4m)_2 for odd square-free m > 1."""
    if type(m) is not int or m <= 1 or m % 2 == 0 or squarefree_part(m) != m:
        raise ParameterError(f"m must be an odd, square-free int > 1, got {m!r}")
    n = 4 * m
    ring = build_so_n2(n)
    dims = exact_dimensions(ring)
    grading = universal_grading(ring)
    if grading.group != (2, 2):
        raise InternalConsistencyError("universal grading is not Z2 x Z2")
    comps = grading.components()
    trivial = comps[(0, 0)]
    inv0 = [i for i in trivial if dims[i] == 1]
    dim2_0 = [i for i in trivial if dims[i] == 2]
    bf = _boson_fermion(ring, n)
    others = [comps[g] for g in comps if g != (0, 0)]
    dim2_comps = [c for c in others if all(dims[i] == 2 for i in c)]
    spinor_comps = [c for c in others if c not in dim2_comps]
    target = AlgebraicReal.sqrt(2 * m)
    checks = [
        ("C0 has 4 invertibles", len(inv0) == 4),
        ("C0 has m-1 objects of dimension 2", len(dim2_0) == m - 1),
        ("one boson and two fermions expected among f, g, fg",
         sorted(bf.values()) == ["boson", "fermion", "fermion"]),
        ("one component of m dimension-2 objects",
         len(dim2_comps) == 1 and len(dim2_comps[0]) == m),
        ("two components of 2 objects of dimension sqrt(2m)",
         len(spinor_comps) == 2
         and all(len(c) == 2 and all(dims[i] == target for i in c) for c in spinor_comps)),
    ]
    return {"m": m, "n": n, "rank": ring.rank, "checks": checks,
            "ok": all(ok for _, ok in checks), "spinor_dim": target}


# ---------------------------------------------------------------------------
# based-ring isomorphism search


def based_ring_isomorphism(r1: FusionRing, r2: FusionRing):
    """A bijection phi of basis indices with phi(0) = 0, N2[phi i, phi j,
    phi k] = N1[i, j, k] for all i, j, k and phi(i*) = phi(i)*, or None.

    Reads only the nonzeros.  Colour refinement over both rings at once
    splits the objects into classes an isomorphism must preserve; the
    objects of r1 are then assigned in product order, so that an object
    reached as a summand of X_a (x) X_b may only map into the row of
    phi(a), phi(b), and a seed no product reaches into its colour class.
    Each trial compares the nonzeros among assigned objects that touch the
    new one, and the map found is checked on every nonzero.
    """
    r = r1.rank
    if r != r2.rank or len(r1.cells) != len(r2.cells):
        return None
    touch1, touch2 = _touching(r1), _touching(r2)
    ijk1, nz1, _, off1 = touch1
    ijk2, nz2, _, off2 = touch2
    colour = _refine(r1, r2, touch1, touch2)
    c1, c2 = colour[:r], colour[r:]
    size = np.bincount(c1, minlength=colour.max() + 1)
    if not np.array_equal(size, np.bincount(c2, minlength=size.size)):
        return None
    order, parent = _product_order(ijk1, nz1, off1, c1, size)
    members = [np.flatnonzero(c2 == c) for c in range(size.size)]

    phi = np.full(r, -1)
    inv = np.full(r, -1)

    def candidates(i):
        n = parent[i]
        if n < 0:
            return members[c1[i]]
        a, b = phi[ijk1[n, :2]]
        ks, ms = r2.row(a, b)
        return ks[(ms == r1.mults[n]) & (c2[ks] == c1[i])]

    def fits(i, j):
        # phi[i] = j is set; the dual pairs and the nonzeros touching i
        # among assigned objects must match those touching j in the image
        if phi[r1.dual[i]] not in (-1, r2.dual[j]):
            return False
        n1 = nz1[off1[i]:off1[i + 1]]
        img = phi[ijk1[n1]]
        inside = (img >= 0).all(axis=1)
        n1, img = n1[inside], img[inside]
        n2 = nz2[off2[j]:off2[j + 1]]
        n2 = n2[(inv[ijk2[n2]] >= 0).all(axis=1)]
        if len(n1) != len(n2):
            return False
        cells = (img[:, 0] * r + img[:, 1]) * r + img[:, 2]
        at = np.argsort(cells, kind="stable")
        return np.array_equal(cells[at], r2.cells[n2]) and np.array_equal(
            r1.mults[n1[at]], r2.mults[n2]
        )

    tried = [None] * r  # per position: the candidates and the next one to try
    pos = 0
    while 0 <= pos < r:
        i = order[pos]
        if tried[pos] is None:
            tried[pos] = [candidates(i), 0]
        elif phi[i] >= 0:
            inv[phi[i]] = -1
            phi[i] = -1
        cands, at = tried[pos]
        while at < len(cands):
            j = cands[at]
            at += 1
            if inv[j] < 0:
                phi[i], inv[j] = j, i
                if fits(i, j):
                    break
                phi[i] = inv[j] = -1
        tried[pos][1] = at
        if phi[i] >= 0:
            pos += 1
        else:
            tried[pos] = None
            pos -= 1
    if pos < 0:
        return None
    cells = (phi[ijk1[:, 0]] * r + phi[ijk1[:, 1]]) * r + phi[ijk1[:, 2]]
    if not _same_nonzeros(cells, r1.mults, r2.cells, r2.mults, r**3):
        raise InternalConsistencyError("the isomorphism found does not carry the nonzeros")
    return tuple(phi.tolist())


def _touching(ring: FusionRing) -> tuple[np.ndarray, ...]:
    """(ijk, nz, role, off): the (i, j, k) of every nonzero as rows, and the
    nonzeros touching each object, from one sort: object x touches the
    nonzeros nz[off[x]:off[x + 1]], in increasing order, once per role
    (0, 1, 2 for i, j, k) it plays there, given in the same slice of `role`."""
    r = ring.rank
    # object indices fit int32, since r^3 fits int64
    ijk = np.stack(ring.nonzero(), axis=1).astype(np.int32)
    flat = ijk.ravel()
    nz, role = np.divmod(np.argsort(flat, kind="stable"), 3)
    role = role.astype(np.int8)
    off = np.zeros(r + 1, dtype=np.int64)
    np.cumsum(np.bincount(flat, minlength=r), out=off[1:])
    return ijk, nz, role, off


def _refine(r1, r2, *touching) -> np.ndarray:
    """Stable colours of the objects of r1 (indices 0..r-1) and r2 (r..2r-1)
    under one naming.  The start colour is (is unit, is self-dual); each
    round an object's colour becomes its old colour with the multiset of
    (role, colours of the other two objects, multiplicity) over the
    nonzeros it touches, until the number of colours stops growing."""
    r = r1.rank
    values = np.sort(np.concatenate([r1.mults, r2.mults]))
    values = values[np.diff(values, prepend=-1) != 0]
    rings = []
    for shift, ring, (ijk, nz, role, off) in zip((0, r), (r1, r2), touching):
        other = ijk[nz[:, None], (role[:, None] + (1, 2)) % 3] + shift
        role_mult = 3 * np.searchsorted(values, ring.mults[nz]) + role
        rings.append((shift, other[:, 0], other[:, 1], role_mult, off.tolist()))
    start = {}
    colour = [start.setdefault((x == 0, ring.dual[x] == x), len(start))
              for ring in (r1, r2) for x in range(r)]
    count = len(start)
    while True:
        now, seen = np.array(colour), {}
        for shift, a, b, role_mult, off in rings:
            # an int64 wrap only merges keys, which coarsens the colours but
            # keeps them invariant under isomorphism
            key = (role_mult * count + now[a]) * count + now[b]
            colour[shift:shift + r] = [
                seen.setdefault((c, np.sort(key[lo:hi]).tobytes()), len(seen))
                for c, lo, hi in zip(colour[shift:shift + r], off, off[1:])
            ]
        if len(seen) == count:
            return now
        count = len(seen)


def _product_order(ijk, nz, off, colour, size):
    """The objects of r1 in search order, and for each the nonzero
    (a, b, i) that reached it, or -1 for a seed.  The unit comes first;
    each round reaches every unassigned summand of a product of assigned
    objects; when a round reaches nothing, the unassigned object of the
    smallest colour class becomes a seed."""
    r = len(off) - 1
    parent = np.full(r, -1)
    done = np.zeros(r, dtype=bool)
    done[0] = True
    order = [0]
    front = [0]
    while len(order) < r:
        if front:
            n = np.concatenate([nz[off[x]:off[x + 1]] for x in front])
            i, j, k = ijk[n].T
            hit = np.flatnonzero(done[i] & done[j] & ~done[k])
            # each new summand once, with the first nonzero that reached it
            hit = hit[np.argsort(k[hit], kind="stable")]
            hit = hit[np.diff(k[hit], prepend=-1) != 0]
            front = k[hit]
            parent[front] = n[hit]
        else:
            rest = np.flatnonzero(~done)
            front = rest[[np.argmin(size[colour[rest]])]]
        front = front.tolist()
        done[front] = True
        order += front
    return order, parent
