"""Independent brute-force oracles used to cross-check the library.

Each oracle deliberately uses a different algorithm from the production
code: the based-ring axioms, Light's-test generators, commutativity, the
sum of the fusion matrices, characters and the invertibles by nested loops
over the dense tensor in Python ints, the S-matrix by one dense einsum, and
modularity, centralizers and Gauss sums from it by det, a double loop and
one object at a time,
based-ring isomorphisms by trying every permutation on the dense tensor,
hom-space dimensions by divide-and-conquer multiset expansion, gradings
by every cell of the dense tensor, boson condensation by one fusion row
at a time,
Z2-cohomology by direct evaluation of the inhomogeneous cochain
differential on coordinate tuples, quadratic-form classification on Z_N by exhaustive
parametrization plus unit-permutation canonicalization, cyclic classes by
the per-element CRT product of prime-power forms, and automorphisms and
equivalences of metric groups by checking whole element maps in Fractions,
ring assembly by stacking every block into (i, j, k) rows and sorting
their cells whole, Deligne products of ribbon data by matching labels,
ribbon validation on `Phase` twists one object at a time and ribbon JSON by
`json.dumps`, and the sort kernels of the associativity join by Counters.
"""

from __future__ import annotations

import json
from collections import Counter
from fractions import Fraction
from itertools import permutations, product

import numpy as np


# ---------------------------------------------------------------------------
# ring assembly


def stack_rows(blocks) -> tuple:
    """Every block broadcast and stacked into int32 rows (i, j, k)."""
    grids = [np.broadcast(*block) for block in blocks]
    ends = np.cumsum([0] + [grid.size for grid in grids]).tolist()
    out = np.empty((3, ends[-1]), dtype=np.int32)
    for block, grid, lo, hi in zip(blocks, grids, ends, ends[1:]):
        for row, x in zip(out, block):
            row[lo:hi].reshape(grid.shape)[...] = x
    return tuple(out)


def assemble_ring_reference(labels, dims, blocks):
    """`assemble_ring` by the stack-and-sort route: the rows of every block
    at once, their cells sorted whole, a multiplicity per run of equal
    cells and the duals read off the rows with k = 0.  The keys are the
    canonical order itself."""
    from modcat.errors import MalformedInputError
    from modcat.ring import FusionRing

    i, j, k = stack_rows(blocks)
    rank = {id(d): (d != 1, float(d)) for d in dims}
    order = [0] + sorted(range(1, len(labels)), key=lambda key: (*rank[id(dims[key])], labels[key]))
    r = len(order)
    pos = np.empty(r, dtype=np.int64)
    pos[order] = np.arange(r)
    cells = (pos[i] * r + pos[j]) * r + pos[k]
    cells, mult = np.unique(cells, return_counts=True)
    xy = np.unique(pos[i[k == 0]] * r + pos[j[k == 0]])
    x, y = np.divmod(xy, r)
    once = np.bincount(x, minlength=r) == 1
    if not once.all():
        raise MalformedInputError(f"object {int(np.flatnonzero(~once)[0])} has no unique dual")
    return FusionRing.from_nonzeros(tuple(labels[key] for key in order), tuple(y.tolist()),
                                    cells, mult, tuple(dims[key] for key in order), order)


def deligne_parts(rd1, rd2, twists1, twists2):
    """(ring, dims, twists) of `deligne_ribbon` by labels: each object `a*b`
    of the product ring is matched to its factors through a dict of every
    formatted pair, and its twist is the product of the factors' `Phase`s in
    `twists1` and `twists2`."""
    from modcat.catalog import deligne_product

    ring = deligne_product(rd1.ring, rd2.ring)
    pairs = {f"{a}*{b}": (x, y)
             for x, a in enumerate(rd1.ring.labels) for y, b in enumerate(rd2.ring.labels)}
    at = [pairs[label] for label in ring.labels]
    made = {}  # one object per value, as the ring shares its dims
    dims = tuple(made.setdefault(d, d) for d in (rd1.dims[x] * rd2.dims[y] for x, y in at))
    return ring, dims, tuple(twists1[x] * twists2[y] for x, y in at)


def deligne_ribbon_reference(rd1, rd2):
    """`deligne_ribbon` by labels (`deligne_parts`)."""
    return type(rd1)(*deligne_parts(rd1, rd2, rd1.twists, rd2.twists))


def ribbon_validate_reference(ring, dims, twists) -> None:
    """`RibbonData.validate` on `Phase` twists, one object at a time: the
    unit twist, then index by index the twist and the dim of the dual, then
    the character check of `character_bruteforce` on a dense tensor filled
    here."""
    from modcat import MalformedInputError

    if twists[0].r != 0:
        raise MalformedInputError("twist of the unit must be 1")
    for i in range(ring.rank):
        if twists[ring.dual[i]] != twists[i]:
            raise MalformedInputError(f"twist of dual differs at index {i}")
        if dims[ring.dual[i]] != dims[i]:
            raise MalformedInputError(f"dimension of dual differs at index {i}")
    r = ring.rank
    dense = np.zeros(r**3, dtype=np.int64)
    dense[ring.cells] = ring.mults
    if not character_bruteforce(dense.reshape(r, r, r), dims):
        raise MalformedInputError("dims do not satisfy the fusion homomorphism")


def ribbon_json_reference(ring, dims, twists) -> str:
    """The JSON text of ribbon data by `json.dumps` of the ring's dict, the
    dims' rows and one [numerator, denominator] row per `Phase`."""
    data = {**ring.to_json_dict(), "dims": [d.to_json() for d in dims],
            "twists": [[t.r.numerator, t.r.denominator] for t in twists]}
    return json.dumps(data, sort_keys=True)


# ---------------------------------------------------------------------------
# associativity


def _ints(fusion):
    """The dense tensor as nested lists of Python ints."""
    return [[[int(x) for x in row] for row in plane] for plane in fusion]


def associativity_bruteforce(fusion, quads=None):
    """Every (i, j, k, l) with sum_m N_ij^m N_mk^l != sum_m N_jk^m N_im^l,
    among all quadruples or among `quads` when given.

    One sum per quadruple over Python ints, so nothing can overflow; the
    witnesses come out in lexicographic order.
    """
    N = _ints(fusion)
    r = len(N)
    out = []
    for i, j, k, l in sorted(quads) if quads is not None else product(range(r), repeat=4):
        lhs = sum(N[i][j][m] * N[m][k][l] for m in range(r))
        rhs = sum(N[j][k][m] * N[i][m][l] for m in range(r))
        if lhs != rhs:
            out.append((i, j, k, l))
    return out


def verify_axioms_bruteforce(fusion, dual, quads=None):
    """Every violation of the based-ring axioms, kind by kind in the order
    of `verify_axioms` and each kind in index order, by comparing entries
    of the dense tensor one at a time; associativity as in
    `associativity_bruteforce`."""
    N = _ints(fusion)
    r = len(N)
    pairs = list(product(range(r), repeat=2))
    cells = list(product(range(r), repeat=3))
    return (
        [("dual_of_unit", (0,))] * (dual[0] != 0)
        + [("unit_left", (0, j, k)) for j, k in pairs if N[0][j][k] != (j == k)]
        + [("unit_right", (j, 0, k)) for j, k in pairs if N[j][0][k] != (j == k)]
        + [("duality_pairing", (i, j, 0)) for i, j in pairs if N[i][j][0] != (j == dual[i])]
        + [("frobenius_left", (i, j, k)) for i, j, k in cells if N[i][j][k] != N[dual[i]][k][j]]
        + [("frobenius_right", (i, j, k)) for i, j, k in cells if N[i][j][k] != N[k][dual[j]][i]]
        + [("associativity", w) for w in associativity_bruteforce(fusion, quads)]
    )


def unbalanced_bruteforce(keys, vals, modulus=None) -> list[int]:
    """The keys whose values do not sum to zero, increasing: one Counter of
    Python ints, each sum taken modulo `modulus` when it is given."""
    sums = Counter()
    for key, val in zip(keys.tolist(), vals.tolist()):
        sums[key] += val
    if modulus:
        sums = {key: total % modulus for key, total in sums.items()}
    return sorted(key for key, total in sums.items() if total)


def same_bruteforce(keys, n: int) -> bool:
    """Whether the first n keys and the rest are one multiset, by Counters."""
    keys = keys.tolist()
    return Counter(keys[:n]) == Counter(keys[n:])


# ---------------------------------------------------------------------------
# scans of the dense tensor, entry by entry


def light_generators_bruteforce(fusion) -> list[int]:
    """The generators `_generators` certifies, by the rule of its docstring
    on the dense tensor, one product at a time: every object reached takes
    effect at once, the products X_a g and g X_a are looked at again until
    none reaches anything, and then the least unreached object joins G."""
    r = len(fusion)
    summands = [[np.flatnonzero(fusion[a, b]).tolist() for b in range(r)] for a in range(r)]
    reached, gens = [True] + [False] * (r - 1), []
    while not all(reached):
        c = reached.index(False)
        gens.append(c)
        reached[c] = True
        changed = True
        while changed:
            changed = False
            for g in gens:
                for a in range(r):
                    for row in (summands[a][g], summands[g][a]):
                        unreached = [x for x in row if not reached[x]]
                        if reached[a] and len(unreached) == 1:
                            reached[unreached[0]] = changed = True
    return gens


def commutative_bruteforce(fusion) -> bool:
    N = _ints(fusion)
    r = len(N)
    return all(N[i][j][k] == N[j][i][k] for i in range(r) for j in range(r) for k in range(r))


def sum_matrix_bruteforce(fusion):
    """M[j][k] = sum_i N[i][j][k] in Python ints."""
    N = _ints(fusion)
    r = len(N)
    return [[sum(N[i][j][k] for i in range(r)) for k in range(r)] for j in range(r)]


def character_bruteforce(fusion, dims) -> bool:
    """d_i d_j == sum_k N[i][j][k] d_k for every i, j, each entry summed in
    `AlgebraicReal` arithmetic; every entry is evaluated, so dims from two
    quadratic fields raise `UnsupportedInputError` from a product."""
    from modcat import AlgebraicReal

    N = _ints(fusion)
    r = len(N)
    zero = AlgebraicReal.of(0)
    entries = [
        dims[i] * dims[j] == sum((N[i][j][k] * dims[k] for k in range(r)), zero)
        for i in range(r)
        for j in range(r)
    ]
    return all(entries)


def s_matrix_dense(rd):
    """S[i, j] = sum_k N[i*, j, k] d_k theta_k / (theta_i theta_j) by one
    einsum over a dense tensor filled from the nonzeros here, so that no
    dense view of the ring is built."""
    ring, r = rd.ring, rd.ring.rank
    dense = np.zeros(r**3, dtype=np.int64)
    dense[ring.cells] = ring.mults
    d = np.array([float(x) for x in rd.dims])
    th = np.array([complex(t) for t in rd.twists])
    S = np.einsum("ijk,k->ij", dense.reshape(r, r, r), d * th)
    return S[list(ring.dual)] / np.outer(th, th)


def is_modular_det(rd) -> bool:
    """|det S| > D^{r/2} / 2 for the dense S, with D = sum_i d_i^2: the
    plain determinant, which overflows a float at large rank."""
    S = s_matrix_dense(rd)
    D = sum(float(d) ** 2 for d in rd.dims)
    return bool(abs(np.linalg.det(S)) > 0.5 * D ** (len(S) / 2))


def centralizer_bruteforce(rd, sub, tol=1e-9) -> tuple[int, ...]:
    """i with |S[i, j] - d_i d_j| < tol for every j in `sub`, entry by entry."""
    S = s_matrix_dense(rd)
    d = [float(x) for x in rd.dims]
    return tuple(
        i for i in range(rd.ring.rank) if all(abs(S[i, j] - d[i] * d[j]) < tol for j in sub)
    )


def gauss_sums_bruteforce(rd) -> tuple[complex, complex]:
    """sum_i d_i^2 theta_i^{+-1}, one object at a time."""
    plus = sum(float(d) ** 2 * complex(t) for d, t in zip(rd.dims, rd.twists))
    minus = sum(float(d) ** 2 * complex(t.inverse()) for d, t in zip(rd.dims, rd.twists))
    return complex(plus), complex(minus)


def invertibles_bruteforce(fusion, dual):
    """(elements, table) for the X with X (x) X* = 1, where elements[table[a][b]]
    is the product of elements[a] and elements[b], or None when a product of
    two of them is not a single one of them."""
    N = _ints(fusion)
    r = len(N)
    elems = [i for i in range(r) if sum(N[i][dual[i]]) == 1]
    table = []
    for a in elems:
        table.append([])
        for b in elems:
            ks = [k for k in range(r) if N[a][b][k]]
            if len(ks) != 1 or N[a][b][ks[0]] != 1 or ks[0] not in elems:
                return None
            table[-1].append(elems.index(ks[0]))
    return tuple(elems), tuple(map(tuple, table))


def grading_bruteforce(grading, fusion) -> tuple[bool, bool]:
    """(faithful, tensor-compatible) of a grading, over every cell of the
    dense tensor: every element of the group has an object, and every
    nonzero N[i, j, k] has deg k = deg i + deg j."""
    group, deg = grading.group, grading.assignment
    faithful = set(deg) == set(product(*(range(d) for d in group)))
    r = len(deg)
    compatible = all(
        deg[k] == tuple((a + b) % d for a, b, d in zip(deg[i], deg[j], group))
        for i in range(r) for j in range(r) for k in range(r) if fusion[i, j, k]
    )
    return faithful, compatible


def based_ring_isomorphism_bruteforce(r1, r2):
    """The first permutation phi fixing 0, in lexicographic order, with
    r2.fusion[phi i, phi j, phi k] == r1.fusion[i, j, k] everywhere and
    phi(i*) = phi(i)*, or None; every permutation is tried, so ranks up to 6."""
    r = r1.rank
    if r != r2.rank:
        return None
    if r > 6:
        raise ValueError("the brute-force isomorphism search is for ranks up to 6")
    for rest in permutations(range(1, r)):
        phi = (0, *rest)
        if all(phi[r1.dual[i]] == r2.dual[phi[i]] for i in range(r)) and np.array_equal(
            r2.fusion[np.ix_(phi, phi, phi)], r1.fusion
        ):
            return phi
    return None


# ---------------------------------------------------------------------------
# hom-space dimensions


def hom_dim_bruteforce(ring, word, target):
    """dim Hom(x_1 (x) ... (x) x_n, target) by recursive halving.

    Splits the word in the middle, fully decomposes each half into a
    multiset of simples, then contracts the two multisets through the
    fusion tensor directly.
    """
    counts = _expand(ring, list(word))
    return counts.get(target, 0)


def _expand(ring, word) -> Counter:
    if len(word) == 1:
        return Counter({word[0]: 1})
    mid = len(word) // 2
    left = _expand(ring, word[:mid])
    right = _expand(ring, word[mid:])
    out: Counter = Counter()
    for a, ma in left.items():
        for b, mb in right.items():
            row = ring.fusion[a, b]
            for k in range(ring.rank):
                if row[k]:
                    out[k] += ma * mb * int(row[k])
    return out


# ---------------------------------------------------------------------------
# boson condensation, one fusion row at a time


def condense_bruteforce(ring, b):
    """`condense_boson` computed row by row: b (x) x, the fixing relation
    x* (x) b = x* and every step of the generator walk each read one
    `ring.row`, and every dimension is tested per object."""
    from modcat.errors import PreconditionError
    from modcat.gauging import CondensationReport
    from modcat.ring import exact_dimensions

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
        ks, ms = ring.row(ring.dual[x], b)
        if ks.tolist() != [ring.dual[x]] or ms.tolist() != [1]:
            raise PreconditionError("fixing relation fails on the dual object")

    labels, out_dims = [], []
    for x, _ in free:
        labels.append(ring.labels[x])
        out_dims.append(dims[x])
    for x in fixed:
        labels += [f"{ring.labels[x]}^(1)", f"{ring.labels[x]}^(2)"]
        out_dims += [dims[x] * Fraction(1, 2)] * 2
    if all(d == 1 for d in dims):
        fields = {"trivial_component": tuple(labels), **_condense_pointed_bruteforce(ring, free)}
    elif fixed and all(dims[x] == 2 for x in fixed):
        fields = _probe_cyclicity_bruteforce(ring, dims, b, fixed, free)
    else:
        fields = {"reason": (
            "input is not of generalized Tambara-Yamagami shape; the condensed "
            "fusion rules are not determined by the based ring"
        )}
    return CondensationReport(
        free_pairs=tuple((ring.labels[x], ring.labels[y]) for x, y in free),
        split=tuple(ring.labels[x] for x in fixed),
        labels=tuple(labels),
        dims=tuple(out_dims),
        total_dim=sum(float(d) ** 2 for d in out_dims),
        **fields,
    )


def _condense_pointed_bruteforce(ring, free):
    from modcat._abelian import is_cyclic
    from modcat.errors import PreconditionError

    def image(x):
        for n, pair in enumerate(free):
            if x in pair:
                return n
        raise PreconditionError("pointed condensation hit a fixed object")

    m = len(free)
    table = [[0] * m for _ in range(m)]
    for i, (x, _) in enumerate(free):
        for j, (y, _) in enumerate(free):
            table[i][j] = image(int(ring.row(x, y)[0][0]))
    return {
        "table": np.array(table, dtype=np.int64).reshape(m, m),
        "group_order": m,
        "is_cyclic": is_cyclic(table, image(0)),
    }


def _probe_cyclicity_bruteforce(ring, dims, b, fixed, free):
    inv_pairs = [p for p in free if dims[p[0]] == 1]
    n_inv = 2 * len(fixed) + len(inv_pairs)
    trivial = [ring.labels[x] for x, _ in inv_pairs]
    for x in fixed:
        trivial += [f"{ring.labels[x]}^(1)", f"{ring.labels[x]}^(2)"]
    fields = {"group_order": n_inv, "trivial_component": tuple(sorted(trivial))}

    def square(y):
        return dict(zip(*(x.tolist() for x in ring.row(y, y))))

    candidates = [y for y in fixed if square(y).get(0) == 1 and square(y).get(b) == 1]
    inv_pair_set = {frozenset(p) for p in inv_pairs}
    best = None
    for start in candidates:
        outcome = _walk_bruteforce(ring, b, start, set(fixed), inv_pair_set)
        if outcome is not None and outcome[0] == n_inv and len(outcome[1]) == len(fixed):
            best = outcome
            break
    if best is None:
        fields["is_cyclic"] = False
    elif best[0] == 4 and n_inv == 4:
        fields["ambiguous"] = True
        fields["is_cyclic"] = None
        fields["reason"] = (
            "generator walk terminates immediately; both the cyclic group of "
            "order 4 and Z2 x Z2 are consistent with the fusion rules"
        )
    else:
        fields["is_cyclic"] = True
    return fields


def _walk_bruteforce(ring, b, start, fixed_set, inv_pair_set):
    prev, cur, visited, m = None, start, [start], 1
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
        if (len(keys) == 2 and all(rest[k] == 1 for k in keys)
                and frozenset(keys) in inv_pair_set and 0 not in keys):
            return (2 * m, visited)
        return None


# ---------------------------------------------------------------------------
# Z2 cohomology by cochain enumeration


class _TupleModule:
    """The module's group as coordinate tuples in lexicographic order, which
    is the element order of `MetricGroup`, with its own arithmetic; the
    action is read from `mod.facs` and `mod.action` alone."""

    def __init__(self, mod):
        self.facs = mod.facs
        self.elements = list(product(*(range(d) for d in mod.facs)))
        if mod.action == "trivial":
            images = self.elements
        elif mod.action == "negation":
            images = [self.neg(a) for a in self.elements]
        else:
            images = [self.elements[i] for i in mod.action]
        self.image = dict(zip(self.elements, images))

    def add(self, a, b):
        return tuple((x + y) % d for x, y, d in zip(a, b, self.facs))

    def neg(self, a):
        return tuple((-x) % d for x, d in zip(a, self.facs))


def _coboundary(mod, n, f):
    """The inhomogeneous differential d: C^n(Z2, M) -> C^{n+1}(Z2, M).

    (df)(g_1..g_{n+1}) = g_1 f(g_2..g_{n+1})
                         + sum_i (-1)^i f(.., g_i g_{i+1}, ..)
                         + (-1)^{n+1} f(g_1..g_n).
    Cochains are dicts keyed by tuples in {0,1}^n.
    """
    out = {}
    for args in product((0, 1), repeat=n + 1):
        head = f[args[1:]]
        val = mod.image[head] if args[0] else head
        for i in range(1, n + 1):
            merged = args[: i - 1] + ((args[i - 1] + args[i]) % 2,) + args[i + 1 :]
            term = f[merged]
            val = mod.add(val, term if i % 2 == 0 else mod.neg(term))
        tail = f[args[:-1]]
        val = mod.add(val, tail if (n + 1) % 2 == 0 else mod.neg(tail))
        out[args] = val
    return out


def _normalized_cochains(mod, n):
    """All cochains vanishing when any argument is the identity.

    On Z2 such a cochain is determined by its value at (1, ..., 1)."""
    zero = tuple(0 for _ in mod.facs)
    ones = tuple(1 for _ in range(n))
    for m in mod.elements:
        f = {args: (m if args == ones else zero) for args in product((0, 1), repeat=n)}
        yield m, f


def cohomology_bruteforce(mod, n):
    """H^n(Z2, M) for finite M as invariant factors, via normalized cochains."""
    mod = _TupleModule(mod)
    zero = tuple(0 for _ in mod.facs)
    ones = tuple(1 for _ in range(n))
    cocycles = set()
    for m, f in _normalized_cochains(mod, n):
        if all(v == zero for v in _coboundary(mod, n, f).values()):
            cocycles.add(m)
    boundaries = set()
    for _, f in _normalized_cochains(mod, n - 1):
        boundaries.add(_coboundary(mod, n - 1, f)[ones])
    assert boundaries <= cocycles
    return _subquotient_invariants(mod, cocycles, boundaries)


def _subquotient_invariants(mod, top, bottom):
    """Invariant factors of top/bottom, both subgroups of the module."""
    elems = sorted(top)
    cosets = {}
    reps = []
    for a in elems:
        for b in bottom:
            key = mod.add(a, b)
            if key in cosets:
                cosets[a] = cosets[key]
                break
        else:
            cosets[a] = len(reps)
            reps.append(a)
    order = len(reps)
    if order == 1:
        return ()
    # element orders in the quotient determine a finite abelian group
    quot_order = {}
    for a in reps:
        k, acc = 1, a
        while cosets[acc] != cosets[mod.add(a, mod.neg(a))]:
            acc = mod.add(acc, a)
            k += 1
        quot_order[cosets[a]] = k
    return _invariants_from_orders(order, sorted(quot_order.values()))


def _invariants_from_orders(order, orders):
    """Reconstruct invariant factors from the multiset of element orders."""
    target = Counter(orders)
    for chain in _chains(order):
        got = Counter()
        for elem in product(*[range(d) for d in chain]):
            got[_lcm_order(chain, elem)] += 1
        if got == target:
            return tuple(chain)
    raise AssertionError(f"no abelian group of order {order} matches {orders}")


def _lcm_order(chain, elem):
    from math import gcd

    out = 1
    for d, x in zip(chain, elem):
        o = d // gcd(d, x) if x else 1
        out = out * o // gcd(out, o)
    return out


def divisors(n):
    return [d for d in range(1, n + 1) if n % d == 0]


def _chains(order):
    """All invariant-factor chains (d_1 | d_2 | ... , product = order)."""
    if order == 1:
        yield ()
        return

    def rec(remaining, max_d):
        if remaining == 1:
            yield ()
            return
        for d in divisors(remaining):
            if d > 1 and max_d % d == 0:
                for rest in rec(remaining // d, d):
                    yield rest + (d,)

    yield from rec(order, order)


# ---------------------------------------------------------------------------
# quadratic forms on Z_N by exhaustive parametrization


def all_forms_bruteforce(n):
    """Every q: Z_N -> Q/Z with q(-a) = q(a) and bilinear polarization.

    Enumerates q(1) in (1/2N)Z and sigma(1,1) in (1/N)Z, extends by the
    quadratic recurrence q(a+1) = q(a) + q(1) + a*sigma(1,1), and keeps the
    tables that close up consistently.  Returns a sorted list of q-tuples.
    """
    seen = set()
    for j in range(2 * n):
        q1 = Fraction(j, 2 * n)
        for t in range(n):
            s = Fraction(t, n)
            q = [Fraction(0)]
            for a in range(1, n + 1):
                q.append((q[a - 1] + q1 + (a - 1) * s) % 1)
            if q[n] != 0:
                continue
            q = q[:n]
            if any(q[(-a) % n] != q[a] for a in range(n)):
                continue
            if not _polarization_bilinear(q, n):
                continue
            seen.add(tuple(q))
    return sorted(seen)


def _polarization_bilinear(q, n):
    sig = [(q[(a + 1) % n] - q[a] - q[1]) % 1 for a in range(n)]
    return all(
        (sig[(a + b) % n] - sig[a] - sig[b]) % 1 == 0
        for a in range(n)
        for b in range(n)
    )


def cyclic_bilinear_dense(q):
    """Polarization of q on Z_N bilinear, by the full N x N additivity table
    of sigma(., 1) over one common denominator (the construction check
    before it became O(N))."""
    n = len(q)
    denom = 1
    for x in q:
        denom = denom * x.denominator // _gcd(denom, x.denominator)
    qi = np.array([x.numerator * (denom // x.denominator) for x in q])
    idx = np.arange(n)
    s1 = (qi[(idx + 1) % n] - qi - qi[1]) % denom
    defect = (s1[(idx[:, None] + idx[None, :]) % n] - s1[:, None] - s1[None, :]) % denom
    return not np.any(defect)


def bilinear_bruteforce(facs, q):
    """sigma(a + b, c) = sigma(a, c) + sigma(b, c) for all a, b, c of the
    group with invariant factors facs; q is indexed in lexicographic order."""
    elems = list(product(*(range(d) for d in facs)))
    index = {a: i for i, a in enumerate(elems)}

    def add(a, b):
        return tuple((x + y) % d for x, y, d in zip(a, b, facs))

    def sigma(a, b):
        return (q[index[add(a, b)]] - q[index[a]] - q[index[b]]) % 1

    return all(
        sigma(add(a, b), c) == (sigma(a, c) + sigma(b, c)) % 1
        for a in elems
        for b in elems
        for c in elems
    )


def is_nondegenerate_bruteforce(facs, q):
    """No a != 0 has sigma(a, b) = 0 for every b, over all pairs."""
    elems = list(product(*(range(d) for d in facs)))
    index = {a: i for i, a in enumerate(elems)}

    def q_of(a):
        return q[index[tuple(x % d for x, d in zip(a, facs))]]

    for a in elems[1:]:
        if all((q_of(tuple(x + y for x, y in zip(a, b))) - q_of(a) - q_of(b)) % 1 == 0
               for b in elems):
            return False
    return True


def classify_forms_bruteforce(n):
    """Partition all nondegenerate forms on Z_N into unit-equivalence classes.

    Two forms are equivalent iff some unit u of Z_N carries one q-table onto
    the other; each class is keyed by its lexicographically least member.
    """
    units = [u for u in range(1, n) if _gcd(u, n) == 1] or [1]
    classes = set()
    for q in all_forms_bruteforce(n):
        if not is_nondegenerate_bruteforce((n,), q):
            continue
        rep = min(tuple(q[(u * a) % n] for a in range(n)) for u in units)
        classes.add(rep)
    return sorted(classes)


def _gcd(a, b):
    from math import gcd

    return gcd(a, b)


# ---------------------------------------------------------------------------
# metric groups: per-element Fraction tables, whole element maps


def cyclic_classes_bruteforce(n):
    """The class tables of nondegenerate forms on Z_N, in class order: each
    class is the per-element CRT sum of prime-power forms u a^2 / p^k (odd p,
    u = 1 or the least non-residue) and u a^2 / 2^{k+1} (u = 1, 3, or
    1, 3, 5, 7 when k >= 2), taken in the product order of the units."""
    from modcat._abelian import factorint

    parts = []
    for p, k in sorted(factorint(n).items()):
        pk = p**k
        if p == 2:
            units, den = ([1, 3] if k == 1 else [1, 3, 5, 7]), 2 * pk
        else:
            squares = {(x * x) % p for x in range(1, p)}
            units, den = [1, next(u for u in range(2, p) if u not in squares)], pk
        parts.append([(pk, [Fraction(u * a * a, den) % 1 for a in range(pk)]) for u in units])
    return [
        tuple(sum((table[a % m] for m, table in combo), Fraction(0)) % 1 for a in range(n))
        for combo in product(*parts)
    ]


def _group(facs):
    elems = list(product(*(range(d) for d in facs)))
    return elems, {a: i for i, a in enumerate(elems)}


def element_automorphisms(facs):
    """Every group automorphism as an index tuple: all generator images whose
    orders divide the factors, expanded over every element, kept when the
    map is a bijection."""
    elems, index = _group(facs)
    cands = [[x for x in elems if all(c * d % f == 0 for c, f in zip(x, facs))] for d in facs]
    for images in product(*cands):
        phi = tuple(
            index[tuple(sum(c * g[i] for c, g in zip(a, images)) % f for i, f in enumerate(facs))]
            for a in elems
        )
        if len(set(phi)) == len(phi):
            yield phi


def autos_bruteforce(facs, q):
    """Every automorphism phi with q(phi(a)) = q(a) for all a, sorted."""
    return sorted(phi for phi in element_automorphisms(facs)
                  if all(q[phi[i]] == q[i] for i in range(len(q))))


def equivalent_bruteforce(facs1, q1, facs2, q2):
    """Some isomorphism phi: A1 -> A2 has q2(phi(a)) = q1(a) for all a.
    Groups in invariant factors are isomorphic iff the factors agree."""
    return tuple(facs1) == tuple(facs2) and any(
        all(q2[phi[i]] == q1[i] for i in range(len(q1))) for phi in element_automorphisms(facs1)
    )


def pointed_fusion_bruteforce(facs):
    """The dense fusion tensor of the group ring: N[a, b, a + b] = 1."""
    elems, index = _group(facs)
    n = len(elems)
    fusion = np.zeros((n, n, n), dtype=np.int64)
    for a in elems:
        for b in elems:
            fusion[index[a], index[b], index[tuple((x + y) % d for x, y, d in zip(a, b, facs))]] = 1
    return fusion
