"""Integer arithmetic without numpy: factorization, small finite abelian
groups, and the closed-form counts (`count_metaplectic`, the Ising x Ising
orbit enumeration), so that `modcat count` and `modcat ising2 --count`
never import numpy.

Groups produced inside this package (universal and dimension grading
groups, invertible objects) arrive as multiplication tables on 0..n-1.
`decompose` recovers their invariant factors and an explicit isomorphism
onto Z_{d1} x ... x Z_{dk}.
"""

from __future__ import annotations

from collections import Counter
from math import gcd, prod

from .errors import (
    InternalConsistencyError, ParameterError, RedirectError, ResourceLimitError,
    UnsupportedInputError,
)

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


def element_order(table: list[list[int]], e: int, g: int) -> int:
    acc = g
    order = 1
    while acc != e:
        acc = table[acc][g]
        order += 1
        if order > len(table):
            raise InternalConsistencyError("element order exceeds group size")
    return order


def decompose(table, e: int) -> tuple[tuple[int, ...], list[tuple[int, ...]]]:
    """Invariant factors (d1, ..., dk), d_i | d_{i+1}, of an abelian group
    table, and an isomorphism: element index -> exponent tuple in
    Z_d1 x ... x Z_dk.

    For Z_d1 x ... x Z_dk the m-torsion count #{x : x^m = e} is the product
    of gcd(m, d_i).  So with the top factors F found and the rest of order
    R, the next factor is the least m with count R * prod(gcd(m, d), d in F),
    and it divides both R and the last factor found.  Generators follow
    greedily, largest factor first: the first element of that order whose
    powers meet the span so far only in e maps onto a largest cyclic
    summand of the quotient, so no choice is undone.  The commutativity
    check reads n^2 / 2 cells; the rest takes O(n * exponent) lookups.
    """
    n = len(table)
    if any(table[a][b] != table[b][a] for a in range(n) for b in range(a)):
        raise UnsupportedInputError(f"the group of order {n} is not abelian")
    orders = [element_order(table, e, g) for g in range(n)]
    how_many = Counter(orders)

    def torsion(m):
        return sum(c for o, c in how_many.items() if m % o == 0)

    top: list[int] = []
    rest = last = n
    while rest > 1:
        bound = gcd(last, rest)
        last = next((m for m in range(2, bound + 1) if bound % m == 0
                     and torsion(m) == rest * prod(gcd(m, d) for d in top)), 0)
        if not last:
            raise InternalConsistencyError(f"torsion counts fit no abelian group of order {n}")
        top.append(last)
        rest //= last
    invs = top[::-1]
    span = {e: (0,) * len(invs)}
    for i in sorted(range(len(invs)), key=lambda i: -invs[i]):
        for g in (g for g in range(n) if orders[g] == invs[i]):
            powers = [e, g]
            while len(powers) < invs[i]:
                powers.append(table[powers[-1]][g])
            if not any(x in span for x in powers[1:]):
                break
        else:
            raise InternalConsistencyError(f"no generator of order {invs[i]} (group order {n})")
        span = {table[x][y]: v[:i] + (a,) + v[i + 1:] for x, v in span.items()
                for a, y in enumerate(powers)}
    if len(span) != n:
        raise InternalConsistencyError(f"the generators do not span the group of order {n}")
    return tuple(invs), [span[x] for x in range(n)]


def is_cyclic(table: list[list[int]], e: int) -> bool:
    return any(element_order(table, e, g) == len(table) for g in range(len(table)))


def count_metaplectic(n: int) -> int:
    """Number of inequivalent metaplectic modular categories of dimension 4N:
    2^{s+1+a} when a <= 1, 3 * 2^{s+2} when a > 1, for N = 2^a p1^a1 ... ps^as.
    `ResourceLimitError` before factoring when N > COUNT_LIMIT."""
    if type(n) is not int or n < 2:
        raise ParameterError(f"counting needs an int N >= 2, got {n!r}")
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
