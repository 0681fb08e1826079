"""Integer arithmetic without numpy: factorization, small finite abelian
groups, and the closed-form counts (`count_metaplectic`, the Ising x Ising
orbit enumeration), so that `modcat count` and `modcat ising2 --count`
never import numpy.

Groups produced inside this package (universal grading groups, invertible
object groups, cohomology quotients) arrive as multiplication tables on
0..n-1.  This module recovers their invariant-factor decomposition and an
explicit isomorphism onto Z_{d1} x ... x Z_{dk}.  Everything here is desk
scale (n <= a few hundred), so brute force is fine.
"""

from __future__ import annotations

from collections import Counter
from itertools import product
from math import gcd, prod

from .errors import InternalConsistencyError, ParameterError, RedirectError, ResourceLimitError

# the largest N that `count_metaplectic` factors: trial division up to
# sqrt(N) then tries at most 5 * 10^5 odd divisors, about 0.1 s
COUNT_LIMIT = 10**12


def factorint(n: int) -> dict[int, int]:
    """Prime factorization by trial division."""
    if n < 1:
        raise ValueError(f"factorint needs a positive integer, got {n}")
    out: dict[int, int] = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def squarefree_part(n: int) -> int:
    """Largest square-free divisor t with n = b^2 * t."""
    t = 1
    for p, k in factorint(n).items():
        if k % 2:
            t *= p
    return t


def divisors(n: int) -> list[int]:
    ds = [1]
    for p, k in factorint(n).items():
        ds = [d * p**i for d in ds for i in range(k + 1)]
    return sorted(ds)


def _power(table: list[list[int]], e: int, g: int, m: int) -> int:
    acc = e
    for _ in range(m):
        acc = table[acc][g]
    return acc


def element_order(table: list[list[int]], e: int, g: int) -> int:
    acc = g
    order = 1
    while acc != e:
        acc = table[acc][g]
        order += 1
        if order > len(table):
            raise InternalConsistencyError("element order exceeds group size")
    return order


def _invariant_chains(n: int, max_factor: int | None = None) -> list[list[int]]:
    """All chains d1 | d2 | ... | dk (ascending) with product n and dk <= max_factor."""
    if n == 1:
        return [[]]
    out = []
    for dk in divisors(n):
        if dk == 1 or (max_factor is not None and dk > max_factor):
            continue
        for head in _invariant_chains(n // dk, dk):
            if not head or dk % head[-1] == 0:
                out.append(head + [dk])
    return out


def invariant_factors(table: list[list[int]], e: int) -> list[int]:
    """Invariant factors [d1, ..., dk], d_i | d_{i+1}, of an abelian group table.

    Matches the multiset of m-torsion counts #{x : x^m = e} against every
    candidate divisor chain; for abelian groups the match is unique.
    """
    n = len(table)
    orders = [element_order(table, e, g) for g in range(n)]
    counts = {m: sum(1 for o in orders if m % o == 0) for m in divisors(n)}
    matches = []
    for chain in _invariant_chains(n):
        if all(counts[m] == prod(gcd(m, d) for d in chain) for m in counts):
            matches.append(chain)
    if len(matches) != 1:
        raise InternalConsistencyError(
            f"torsion counts do not determine a unique abelian group (order {n})"
        )
    return matches[0]


def assignment(table: list[list[int]], e: int, invs: list[int]) -> list[tuple[int, ...]]:
    """Explicit isomorphism: element index -> exponent tuple in Z_d1 x ... x Z_dk.

    Brute-force search over generator tuples of the right orders.
    """
    n = len(table)
    if not invs:
        return [()] if n == 1 else _fail(n)
    orders = [element_order(table, e, g) for g in range(n)]
    candidates = [[g for g in range(n) if orders[g] == d] for d in invs]
    for gens in product(*candidates):
        elt_of: dict[tuple[int, ...], int] = {}
        ok = True
        for exps in product(*(range(d) for d in invs)):
            x = e
            for g, a in zip(gens, exps):
                x = table[x][_power(table, e, g, a)]
            if exps in elt_of:
                ok = False
                break
            elt_of[exps] = x
        if ok and len(set(elt_of.values())) == n:
            back = {v: k for k, v in elt_of.items()}
            return [back[g] for g in range(n)]
    return _fail(n)


def _fail(n: int):
    raise InternalConsistencyError(f"no generator tuple realizes the decomposition (order {n})")


def is_cyclic(table: list[list[int]], e: int) -> bool:
    return any(element_order(table, e, g) == len(table) for g in range(len(table)))


def count_metaplectic(n: int) -> int:
    """Number of inequivalent metaplectic modular categories of dimension 4N:
    2^{s+1+a} when a <= 1, 3 * 2^{s+2} when a > 1, for N = 2^a p1^a1 ... ps^as.
    `ResourceLimitError` before factoring when N > COUNT_LIMIT."""
    if n < 2:
        raise ParameterError("counting needs N >= 2")
    if n > COUNT_LIMIT:
        raise ResourceLimitError(f"N = {n} is above the limit {COUNT_LIMIT} for factoring")
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


def ising_squared_enumeration() -> dict:
    """Orbits of odd parameter pairs of Ising x Ising under swap and the
    joint +8 shift."""
    units = [1, 3, 5, 7, 9, 11, 13, 15]
    seen = set()
    orbits = []
    for nu1 in units:
        for nu2 in units:
            if (nu1, nu2) in seen:
                continue
            orbit = {
                (nu1, nu2),
                (nu2, nu1),
                ((nu1 + 8) % 16, (nu2 + 8) % 16),
                ((nu2 + 8) % 16, (nu1 + 8) % 16),
            }
            seen |= orbit
            orbits.append(sorted(orbit))
    histogram = dict(Counter(len(o) for o in orbits))
    return {"orbits": orbits, "count": len(orbits), "histogram": histogram}
