"""Finite abelian groups with quadratic forms into Q/Z (metric groups).

A quadratic form here is any q with q(-a) = q(a) whose polarization
sigma(a, b) = q(a+b) - q(a) - q(b) is bilinear; nondegeneracy of sigma is
tracked as a property rather than required at construction, so that the
"pointed data modular iff sigma nondegenerate" equivalence is testable in
both directions.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from math import gcd, prod

import numpy as np

from ._abelian import factorint
from .errors import (
    MalformedInputError,
    ParameterError,
    ResourceLimitError,
)
from .modular import Phase, RibbonData
from .ring import AlgebraicReal, FusionRing, _parse_json

BRUTE_FORCE_LIMIT = 10_000
ORDER_LIMIT = 1_000_000  # largest group order the JSON loader accepts


@dataclass(frozen=True)
class MetricGroup:
    """Group Z_{d1} x ... x Z_{dk} (d_i | d_{i+1}) with q: A -> Q/Z.

    Elements are coordinate tuples, indexed in lexicographic product order;
    q is stored as one reduced fraction per element index.
    """

    facs: tuple[int, ...]
    q: tuple[Fraction, ...]

    def __post_init__(self):
        facs = tuple(int(d) for d in self.facs)
        object.__setattr__(self, "facs", facs)
        object.__setattr__(self, "q", tuple(Fraction(x) % 1 for x in self.q))
        if any(d < 1 for d in facs):
            raise MalformedInputError("invariant factors must be positive")
        for a, b in zip(facs, facs[1:]):
            if b % a:
                raise MalformedInputError("invariant factors must form a divisor chain")
        if len(self.q) != self.order:
            raise MalformedInputError("q table length does not match group order")
        if self.q[0] != 0:
            raise MalformedInputError("q(0) must vanish")
        self._validate()

    def _validate(self) -> None:
        # Checking additivity of the polarization against each generator
        # suffices: the defect T(a, b, c) = sigma(a+b, c) - sigma(a, c)
        # - sigma(b, c) is symmetric in all three slots and additive in the
        # third once it vanishes there on generators.  By induction on b,
        # sigma(., g) is additive once sigma(a + h, g) = sigma(a, g) +
        # sigma(h, g) for every a and every generator h: O(n k^2) work.
        n = self.order
        if n == 1:
            return
        denom = 1
        for x in self.q:
            denom = denom * x.denominator // gcd(denom, x.denominator)
        qi = np.array([x.numerator * (denom // x.denominator) for x in self.q])
        if len(self.facs) == 1:
            idx = np.arange(n)
            if not np.array_equal(qi[(-idx) % n], qi):
                raise MalformedInputError("q(-a) != q(a)")
            # the same with k = 1: sigma(a, 1) = a sigma(1, 1) for a < n and
            # n sigma(1, 1) = 0, as sigma(a + 1, 1) = sigma(a, 1) + sigma(1, 1)
            s1 = (qi[(idx + 1) % n] - qi - qi[1]) % denom
            if np.any((np.roll(s1, -1) - s1 - s1[1]) % denom):
                raise MalformedInputError("polarization is not bilinear")
            return
        elems = self.elements()
        for a in elems:
            if self.q_of(self.neg(a)) != self.q_of(a):
                raise MalformedInputError(f"q(-a) != q(a) at {a}")
        gens = [
            tuple(1 if i == j else 0 for j in range(len(self.facs)))
            for i in range(len(self.facs))
        ]
        for g in gens:
            sig = {a: self.sigma(a, g) for a in elems}
            for a in elems:
                for b in gens:
                    if sig[self.add(a, b)] != (sig[a] + sig[b]) % 1:
                        raise MalformedInputError(
                            f"polarization not bilinear at {(a, b, g)}"
                        )

    # -- group structure --

    @property
    def order(self) -> int:
        n = 1
        for d in self.facs:
            n *= d
        return n

    def elements(self) -> list[tuple[int, ...]]:
        return list(product(*(range(d) for d in self.facs)))

    def index(self, a: tuple[int, ...]) -> int:
        idx = 0
        for c, d in zip(a, self.facs):
            idx = idx * d + c % d
        return idx

    def add(self, a, b) -> tuple[int, ...]:
        return tuple((x + y) % d for x, y, d in zip(a, b, self.facs))

    def neg(self, a) -> tuple[int, ...]:
        return tuple((-x) % d for x, d in zip(a, self.facs))

    # -- the form --

    def q_of(self, a) -> Fraction:
        return self.q[self.index(a)]

    def sigma(self, a, b) -> Fraction:
        return (self.q_of(self.add(a, b)) - self.q_of(a) - self.q_of(b)) % 1

    @property
    def is_nondegenerate(self) -> bool:
        elems = self.elements()
        for a in elems[1:]:
            if all(self.sigma(a, b) == 0 for b in elems):
                return False
        return True

    # -- JSON --

    def to_json_dict(self) -> dict:
        return {
            "group": list(self.facs),
            "q": [
                [i, x.numerator, x.denominator] for i, x in enumerate(self.q) if x != 0
            ],
        }

    def dumps(self) -> str:
        return json.dumps(self.to_json_dict(), sort_keys=True)

    @classmethod
    def from_json_dict(cls, data: dict) -> "MetricGroup":
        """Strict inverse of `to_json_dict`: a missing key or an entry of the
        wrong type or range raises `MalformedInputError`, nothing is coerced.
        Keys other than group and q are ignored."""
        if not isinstance(data, dict):
            raise MalformedInputError("a metric group must be a JSON object")
        missing = [key for key in ("group", "q") if key not in data]
        if missing:
            raise MalformedInputError(
                f"metric group is missing key(s) {', '.join(missing)}"
            )
        facs = data["group"]
        if type(facs) is not list or not all(type(d) is int for d in facs):
            raise MalformedInputError("group must be a list of integers")
        order = prod(facs)
        if order > ORDER_LIMIT:
            raise ResourceLimitError(f"group order {order} exceeds the limit {ORDER_LIMIT}")
        rows = data["q"]
        if type(rows) is not list or not all(
            type(row) is list and len(row) == 3 and all(type(x) is int for x in row)
            for row in rows
        ):
            raise MalformedInputError("q must be a list of [index, num, den] integer rows")
        q = [Fraction(0)] * order
        seen = set()
        for i, num, den in rows:
            if not 0 <= i < order:
                raise MalformedInputError(f"q index {i} out of range for order {order}")
            if den == 0:
                raise MalformedInputError(f"q entry at index {i} has a zero denominator")
            if i in seen:
                raise MalformedInputError(f"q index {i} is listed twice")
            seen.add(i)
            q[i] = Fraction(num, den)
        return cls(tuple(facs), tuple(q))

    @classmethod
    def loads(cls, text: str | bytes) -> "MetricGroup":
        return cls.from_json_dict(_parse_json(text, "metric group"))


def cyclic_metric_group(n: int, coeff: Fraction) -> MetricGroup:
    """Form q(a) = coeff * a^2 on Z_n (coeff a rational mod 1)."""
    q = tuple(Fraction(coeff * a * a) % 1 for a in range(n))
    return MetricGroup((n,) if n > 1 else (), q)


def cyclic_form(p_power: int, u: int) -> MetricGroup:
    """Standard form on Z_{p^k}: q(a) = u a^2 / p^k for odd p (u a unit),
    q(a) = u a^2 / 2^{k+1} for p = 2 (u odd)."""
    fac = factorint(p_power)
    if len(fac) != 1:
        raise ParameterError(f"{p_power} is not a prime power")
    (p, k), = fac.items()
    if p == 2:
        if u % 2 == 0:
            raise ParameterError(f"u = {u} is even; p = 2 needs an odd unit")
        return cyclic_metric_group(p_power, Fraction(u, 2 * p_power))
    if gcd(u, p) != 1:
        raise ParameterError(f"u = {u} is not a unit modulo {p}")
    return cyclic_metric_group(p_power, Fraction(u, p_power))


def _crt_product(parts: list[MetricGroup], n: int) -> MetricGroup:
    """Assemble a form on cyclic Z_n from forms on its coprime prime-power parts."""
    q = []
    for a in range(max(n, 1)):
        total = Fraction(0)
        for part in parts:
            m = part.order
            total += part.q_of((a % m,)) if part.facs else Fraction(0)
        q.append(total % 1)
    return MetricGroup((n,) if n > 1 else (), tuple(q) if n > 1 else (Fraction(0),))


def _least_nonresidue(p: int) -> int:
    squares = {(x * x) % p for x in range(1, p)}
    return next(u for u in range(2, p) if u % p not in squares)


def enumerate_cyclic_metric_groups(n: int) -> list[MetricGroup]:
    """One representative per equivalence class of nondegenerate forms on Z_n.

    Prime-power representatives: two unit classes for odd p (1 and a
    non-residue), q(1) in {1/4, 3/4} for Z_2, and u in Z_8^* for Z_{2^k},
    k >= 2; classes multiply over the coprime factorization.
    """
    if n < 1:
        raise ParameterError("n must be positive")
    if n == 1:
        return [MetricGroup((), (Fraction(0),))]
    per_factor = []
    for p, k in sorted(factorint(n).items()):
        pk = p**k
        if p == 2:
            units = [1, 3] if k == 1 else [1, 3, 5, 7]
        else:
            units = [1, _least_nonresidue(p)]
        per_factor.append([cyclic_form(pk, u) for u in units])
    out = []
    for combo in product(*per_factor):
        out.append(_crt_product(list(combo), n))
    return out


def standard_cyclic_metric_group(n: int) -> MetricGroup:
    """The first class of `enumerate_cyclic_metric_groups(n)`, built alone.

    Every prime-power part takes the unit u = 1, and the CRT product of the
    forms a^2 / p^k (odd p) and a^2 / 2^{k+1} (p = 2) is q(a) = c a^2, with c
    the sum of their coefficients.
    """
    if n < 1:
        raise ParameterError("n must be positive")
    c = sum(
        (Fraction(1, 2 * p**k if p == 2 else p**k) for p, k in factorint(n).items()),
        Fraction(0),
    )
    return cyclic_metric_group(n, c)


def _isomorphisms(m1: MetricGroup, m2: MetricGroup):
    """Yield every group isomorphism A1 -> A2 as an element map (dict)."""
    if m1.facs != m2.facs:
        return
    elems2 = m2.elements()
    # generator images: any tuple of elements whose orders divide the factors
    def order_divides(a, d):
        return all((c * d) % f == 0 for c, f in zip(a, m2.facs))

    candidates = [[a for a in elems2 if order_divides(a, d)] for d in m1.facs]
    elems1 = m1.elements()
    for images in product(*candidates):
        phi = {}
        for a in elems1:
            img = tuple(0 for _ in m2.facs)
            for coord, gen_img in zip(a, images):
                scaled = tuple((coord * x) % f for x, f in zip(gen_img, m2.facs))
                img = m2.add(img, scaled)
            phi[a] = img
        if len(set(phi.values())) == len(elems1):
            yield phi


def equivalence_test(m1: MetricGroup, m2: MetricGroup) -> bool:
    """True iff some isomorphism phi has q2(phi(a)) = q1(a) for all a."""
    if m1.order != m2.order:
        return False
    if m1.order > BRUTE_FORCE_LIMIT:
        raise ResourceLimitError(f"group order {m1.order} exceeds brute-force limit")
    if m1.facs != m2.facs:
        return False
    if sorted(m1.q) != sorted(m2.q):
        return False
    for phi in _isomorphisms(m1, m2):
        if all(m2.q_of(phi[a]) == m1.q_of(a) for a in m1.elements()):
            return True
    return False


def form_preserving_autos(mg: MetricGroup) -> list[tuple[int, ...]]:
    """All automorphisms preserving q, as index-permutation tuples, sorted."""
    if mg.order > BRUTE_FORCE_LIMIT:
        raise ResourceLimitError(f"group order {mg.order} exceeds brute-force limit")
    elems = mg.elements()
    out = []
    for phi in _isomorphisms(mg, mg):
        if all(mg.q_of(phi[a]) == mg.q_of(a) for a in elems):
            out.append(tuple(mg.index(phi[a]) for a in elems))
    return sorted(set(out))


def negation_auto(mg: MetricGroup) -> tuple[int, ...]:
    return tuple(mg.index(mg.neg(a)) for a in mg.elements())


def enumerate_forms(facs, nondegenerate_only: bool = True) -> list[MetricGroup]:
    """Every quadratic form on the given group, by direct parametrization.

    A form is determined by diagonal coefficients c_i (q on each cyclic
    factor is c_i a^2 with 2 d_i c_i integral, and d_i c_i integral when d_i
    is odd) and cross coefficients b_ij killed by gcd(d_i, d_j):
    q(a) = sum c_i a_i^2 + sum_{i<j} b_ij a_i a_j.
    """
    facs = tuple(facs)
    k = len(facs)
    diag_choices = []
    for d in facs:
        if d % 2:
            diag_choices.append([Fraction(m, d) for m in range(d)])
        else:
            diag_choices.append([Fraction(m, 2 * d) for m in range(2 * d)])
    pairs = [(i, j) for i in range(k) for j in range(i + 1, k)]
    cross_choices = [
        [Fraction(m, gcd(facs[i], facs[j])) for m in range(gcd(facs[i], facs[j]))]
        for i, j in pairs
    ]
    elems = list(product(*(range(d) for d in facs)))
    out = []
    for cs in product(*diag_choices):
        for bs in product(*cross_choices):
            q = []
            for a in elems:
                val = sum((c * x * x for c, x in zip(cs, a)), Fraction(0))
                for (i, j), b in zip(pairs, bs):
                    val += b * a[i] * a[j]
                q.append(val % 1)
            mg = MetricGroup(facs, tuple(q))
            if not nondegenerate_only or mg.is_nondegenerate:
                out.append(mg)
    return out


def classify_forms(forms: list[MetricGroup]) -> list[list[MetricGroup]]:
    """Partition a list of metric groups into equivalence classes."""
    classes: list[list[MetricGroup]] = []
    for mg in forms:
        for cls in classes:
            if equivalence_test(cls[0], mg):
                cls.append(mg)
                break
        else:
            classes.append([mg])
    return classes


def pointed_ribbon_data(mg: MetricGroup) -> RibbonData:
    """Pointed ribbon data: fusion = group law, dims 1, twist of a = q(a)."""
    elems = mg.elements()
    n = len(elems)
    width = len(str(n - 1))
    labels = tuple(f"g{mg.index(a):0{width}d}" for a in elems)
    dual = tuple(mg.index(mg.neg(a)) for a in elems)
    fusion = np.zeros((n, n, n), dtype=np.int64)
    for a in elems:
        for b in elems:
            fusion[mg.index(a), mg.index(b), mg.index(mg.add(a, b))] = 1
    one = AlgebraicReal(Fraction(1))
    ring = FusionRing(labels, dual, fusion, tuple(one for _ in range(n)))
    twists = tuple(Phase(mg.q_of(a)) for a in elems)
    return RibbonData(ring, ring.exact_dims, twists)
