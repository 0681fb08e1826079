"""Finite abelian groups with quadratic forms into Q/Z (metric groups).

A quadratic form here is any q with q(-a) = q(a) whose polarization
sigma(a, b) = q(a+b) - q(a) - q(b) is bilinear; nondegeneracy of sigma is
tracked as a property rather than required at construction, so that the
"pointed data modular iff sigma nondegenerate" equivalence is testable in
both directions.

On Z_{d1} x ... x Z_{dk} with generators e_i, a form is fixed by its Gram
values c_i = q(e_i), b_ij = sigma(e_i, e_j): q(a) = sum c_i a_i^2 +
sum_{i<j} b_ij a_i a_j.  Tables are built from them, isomorphisms tested on them.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product
from math import gcd, lcm, prod
from typing import TYPE_CHECKING

import numpy as np

from ._abelian import factorint
from .errors import MalformedInputError, ParameterError, ResourceLimitError
from .ring import AlgebraicReal, FusionRing, _int_rows, _Wire

if TYPE_CHECKING:
    from .modular import RibbonData

BRUTE_FORCE_LIMIT = 10_000
ORDER_LIMIT = 1_000_000  # largest group order the JSON loader and enumeration accept
# most q entries, classes x n, `enumerate_cyclic_metric_groups` tables: 32 MiB
# of int64 numerators; Z_30030 (64 classes, 1.9 M entries) passes and
# Z_720720 (128 classes, 92 M entries, 0.74 GB) is refused
ENUMERATION_LIMIT = 2**22
# largest product of the generator-image candidate counts an isomorphism search
# makes: (Z_2)^4 with the zero form (65 536, 20 160 automorphisms) takes 2 s
# on a 2-vCPU VM; (Z_6)^3 with the zero form (10^7, 1.9 M automorphisms) is refused
AUTOS_SEARCH_LIMIT = 100_000


# -- index arithmetic on Z_{d1} x ... x Z_{dk}; the trivial group is Z_1 --


def _coords(shape) -> np.ndarray:
    """Coordinates of every element in index order, one row per factor."""
    return np.indices(shape, dtype=np.int64).reshape(len(shape), -1)


def _ravel(coords, shape) -> np.ndarray:
    """Indices of the elements with these coordinates (first axis), mod the factors."""
    return np.ravel_multi_index(tuple(coords), shape, mode="wrap")


def _gram(num, den: int, shape) -> tuple[np.ndarray, np.ndarray]:
    """Numerators over den of c_i = q(e_i) and of the matrix b_ij = sigma(e_i, e_j)."""
    eye = np.eye(len(shape), dtype=np.int64)
    c = num[_ravel(eye, shape)]
    b = (num[_ravel(eye[:, :, None] + eye[:, None, :], shape)] - c[:, None] - c[None, :]) % den
    return c, b


def _tables(shape, coeffs, den: int) -> np.ndarray:
    """Numerators over den of sum c_i a_i^2 + sum_{i<j} b_ij a_i a_j at every
    element, one row per coefficient row (c_1, .., c_k, b_12, b_13, .., b_{k-1,k})."""
    a, k = _coords(shape), len(shape)
    iu, ju = np.triu_indices(k, 1)
    mono = a[np.r_[:k, iu]] * a[np.r_[:k, ju]] % den
    return np.asarray(coeffs, dtype=np.int64).reshape(-1, len(mono)) @ mono % den


def _nondegenerate(nums, den: int, shape) -> np.ndarray:
    """Per row of nums: no a != 0 has sigma(a, e_j) = 0 for every generator.
    sigma(a, .) is a homomorphism, so that is the whole radical."""
    a = _coords(shape)
    radical = np.ones(nums.shape, dtype=bool)
    for e in np.eye(len(shape), dtype=np.int64)[:, :, None]:
        radical &= (nums[:, _ravel(a + e, shape)] - nums - nums[:, _ravel(e, shape)]) % den == 0
    return radical.sum(axis=1) == 1


class MetricGroup(_Wire):
    """Group Z_{d1} x ... x Z_{dk} (d_i | d_{i+1}) with q: A -> Q/Z.

    Elements are coordinate tuples, indexed in lexicographic product order.
    The form is `num`, a read-only int64 vector, over the least common
    denominator `den`: q(element i) = num[i] / den.  `q`, the same table as
    reduced `Fraction`s, is built on first access.
    """

    __slots__ = ("facs", "num", "den", "_q")
    _WIRE = ("metric group", "q", 3)

    def __init__(self, facs, q):
        facs = _check_facs(facs)
        q = [Fraction(x) % 1 for x in q]
        den = lcm(*(x.denominator for x in q))
        self._init(facs, [x.numerator * (den // x.denominator) for x in q], den)

    def _init(self, facs, num, den: int) -> None:
        """Check and store the form num / den, num in [0, den), on checked factors."""
        if len(num) != prod(facs):
            raise MalformedInputError("q table length does not match group order")
        if num[0] != 0:
            raise MalformedInputError("q(0) must vanish")
        # 2 e q(a) = e sigma(a, a) = 0 for a form on a group of exponent e
        if (2 * max(facs, default=1)) % den:
            raise MalformedInputError("q takes a value outside (1/2e)Z, e the exponent")
        self._set(facs, num, den)
        self._validate()

    @classmethod
    def _of(cls, facs, num, den: int) -> "MetricGroup":
        """The form num / den (a quadratic form by construction), reduced."""
        mg = cls.__new__(cls)
        g = gcd(den, int(np.gcd.reduce(num)))
        mg._set(facs, num // g, den // g)
        return mg

    def _set(self, facs, num, den) -> None:
        num = np.ascontiguousarray(num, dtype=np.int64)
        num.setflags(write=False)
        for name, value in zip(self.__slots__, (facs, num, int(den), None)):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError("MetricGroup is immutable")

    def __eq__(self, other) -> bool:
        if not isinstance(other, MetricGroup):
            return NotImplemented
        return (self.facs, self.den) == (other.facs, other.den) and np.array_equal(self.num, other.num)

    def __hash__(self):
        return hash((self.facs, self.den, self.num.tobytes()))

    def __repr__(self) -> str:
        return f"MetricGroup(facs={self.facs}, num={self.num.tolist()}, den={self.den})"

    @property
    def q(self) -> tuple[Fraction, ...]:
        if self._q is None:
            object.__setattr__(self, "_q", tuple(Fraction(x, self.den) for x in self.num.tolist()))
        return self._q

    @property
    def _shape(self) -> tuple[int, ...]:
        return self.facs or (1,)

    def _validate(self) -> None:
        # q is a form iff it is the expansion of its Gram values and that is well
        # defined on the group: 2 d_i c_i, d_i^2 c_i, gcd(d_i, d_j) b_ij in Z.  Both
        # are necessary (q(m a) = m^2 q(a)); together they pull a form back from Z^k.
        shape, den = self._shape, self.den
        c, b = _gram(self.num, den, shape)
        i, j = np.triu_indices(len(shape), 1)
        if not np.array_equal(_tables(shape, np.concatenate([c, b[i, j]]), den)[0], self.num):
            raise MalformedInputError("q is not the quadratic form of its Gram values")
        d = np.array(shape, dtype=np.int64)
        if np.any(np.r_[2 * d * c, d * d % den * c, np.gcd(d[i], d[j]) * b[i, j]] % den):
            raise MalformedInputError("q is not well defined on the group")

    # -- group structure (coordinate tuples) --

    @property
    def order(self) -> int:
        return len(self.num)

    def elements(self) -> list[tuple[int, ...]]:
        return list(product(*map(range, self.facs)))

    def index(self, a: tuple[int, ...]) -> int:
        return int(np.ravel_multi_index(a, self.facs, mode="wrap"))

    def add(self, a, b) -> tuple[int, ...]:
        return tuple((x + y) % d for x, y, d in zip(a, b, self.facs))

    def neg(self, a) -> tuple[int, ...]:
        return tuple((-x) % d for x, d in zip(a, self.facs))

    def q_of(self, a) -> Fraction:
        return Fraction(int(self.num[self.index(a)]), self.den)

    def sigma(self, a, b) -> Fraction:
        return (self.q_of(self.add(a, b)) - self.q_of(a) - self.q_of(b)) % 1

    @property
    def is_nondegenerate(self) -> bool:
        return bool(_nondegenerate(self.num[None], self.den, self._shape)[0])

    # -- JSON --

    def _json(self) -> dict:
        """`to_json_dict` with the q rows as an (n, 3) int64 array."""
        idx = np.flatnonzero(self.num)
        g = np.gcd(self.num[idx], self.den)
        rows = np.column_stack([idx, self.num[idx] // g, self.den // g])
        return {"group": list(self.facs), "q": rows}

    @classmethod
    def from_json_dict(cls, data: dict) -> "MetricGroup":
        """Strict inverse of `to_json_dict`: a missing key or an entry of the
        wrong type or range raises `MalformedInputError`, nothing is coerced.
        Keys other than group and q are ignored."""
        if not isinstance(data, dict):
            raise MalformedInputError("a metric group must be a JSON object")
        missing = [key for key in ("group", "q") if key not in data]
        if missing:
            raise MalformedInputError(f"metric group is missing key(s) {', '.join(missing)}")
        if type(data["group"]) is not list:
            raise MalformedInputError("group must be a list of integers")
        facs = _check_facs(data["group"], ORDER_LIMIT)
        order = prod(facs)
        idx, num, den = _int_rows(data["q"], 3, "q").T
        outside = (idx < 0) | (idx >= order)
        if outside.any():
            raise MalformedInputError(f"q index {idx[outside][0]} out of range for order {order}")
        if np.any(den == 0):
            raise MalformedInputError(f"q entry at index {idx[den == 0][0]} has a zero denominator")
        listed = np.bincount(idx, minlength=order)
        if listed.max() > 1:
            raise MalformedInputError(f"q index {np.argmax(listed > 1)} is listed twice")
        # every value over 2e, e the largest factor: reduced, its denominator must divide 2e
        top = 2 * max(facs, default=1)
        num, den = np.where(den < 0, -num, num), np.abs(den)
        g = np.gcd(num, den)
        num, den = num // g, den // g
        if np.any(top % den):
            raise MalformedInputError("q takes a value outside (1/2e)Z, e the exponent")
        q = np.zeros(order, dtype=np.int64)
        q[idx] = num % den * (top // den)
        g = gcd(top, int(np.gcd.reduce(q)))
        mg = cls.__new__(cls)
        mg._init(facs, q // g, top // g)
        return mg


def _check_facs(facs, limit: int | None = None) -> tuple[int, ...]:
    """`facs` as a tuple of ints (bools and numpy integers refused), each at
    least 1 and dividing the next; `MalformedInputError` otherwise, and
    `ResourceLimitError` when their product passes `limit`."""
    facs = tuple(facs)
    if not all(type(d) is int for d in facs):
        raise MalformedInputError(f"invariant factors must be ints, got {facs!r:.80}")
    if any(d < 1 for d in facs):
        raise MalformedInputError("invariant factors must be positive")
    if limit is not None and prod(facs) > limit:
        raise ResourceLimitError(f"group order {prod(facs)} exceeds the limit {limit}")
    if any(b % a for a, b in zip(facs, facs[1:])):
        raise MalformedInputError("invariant factors must form a divisor chain")
    return facs


def _check_order(n: int) -> None:
    # also keeps every numerator product below den^2 <= 4 ORDER_LIMIT^2 < 2^63
    if type(n) is not int or n < 1:
        raise ParameterError(f"n must be a positive int, got {n!r}")
    if n > ORDER_LIMIT:
        raise ResourceLimitError(f"group order {n} exceeds the limit {ORDER_LIMIT}")


def _cyclic(n: int, coeffs, den: int) -> list[MetricGroup]:
    """The forms q(a) = c a^2 / den on Z_n, one per numerator c."""
    sq = np.arange(n, dtype=np.int64) ** 2 % den
    return [MetricGroup._of((n,) if n > 1 else (), c * sq % den, den) for c in coeffs]


def cyclic_metric_group(n: int, coeff: Fraction) -> MetricGroup:
    """Form q(a) = coeff * a^2 on Z_n (coeff a rational mod 1); it is well
    defined when coeff * n is an integer (odd n) or coeff * 2n is (even n)."""
    _check_order(n)
    den = n if n % 2 else 2 * n
    c = Fraction(coeff) * den
    if n > 1 and c.denominator != 1:
        raise MalformedInputError(f"q(a) = {Fraction(coeff)} a^2 is not well defined on Z_{n}")
    return _cyclic(n, [int(c) % den], den)[0]


def cyclic_form(p_power: int, u: int) -> MetricGroup:
    """Standard form on Z_{p^k}: q(a) = u a^2 / p^k for odd p (u a unit),
    q(a) = u a^2 / 2^{k+1} for p = 2 (u odd)."""
    fac = factorint(p_power) if p_power > 0 else {}
    if len(fac) != 1:
        raise ParameterError(f"{p_power} is not a prime power")
    (p, k), = fac.items()
    if gcd(u, p) != 1:
        raise ParameterError(f"u = {u} is not a unit modulo {p}")
    return cyclic_metric_group(p_power, Fraction(u, 2 * p_power if p == 2 else p_power))


def _least_nonresidue(p: int) -> int:
    return next(u for u in range(2, p) if pow(u, (p - 1) // 2, p) == p - 1)


def cyclic_class_coefficients(n: int) -> tuple[list[int], int]:
    """(numerators c, den) of the classes c a^2 / den of nondegenerate forms
    on Z_n, in the order of `enumerate_cyclic_metric_groups`.  A class sums
    its prime-power parts u / p^k (odd p; u = 1 or a non-residue) and
    u / 2^{k+1} (p = 2; u in {1, 3}, or Z_8^* when k >= 2)."""
    _check_order(n)
    den = n if n % 2 else 2 * n
    parts = []
    for p, k in sorted(factorint(n).items()):
        units = ([1, 3] if k == 1 else [1, 3, 5, 7]) if p == 2 else [1, _least_nonresidue(p)]
        step = den // (2 * p**k if p == 2 else p**k)
        parts.append([u * step for u in units])
    return [sum(c) % den for c in product(*parts)], den


def enumerate_cyclic_metric_groups(n: int) -> list[MetricGroup]:
    """One representative per equivalence class of nondegenerate forms on Z_n;
    `ResourceLimitError` before any table is built when classes x n passes
    ENUMERATION_LIMIT."""
    coeffs, den = cyclic_class_coefficients(n)
    if len(coeffs) * n > ENUMERATION_LIMIT:
        raise ResourceLimitError(
            f"the {len(coeffs)} classes of forms on Z_{n} have {len(coeffs) * n} q entries, "
            f"above the limit {ENUMERATION_LIMIT}")
    return _cyclic(n, coeffs, den)


def standard_cyclic_metric_group(n: int) -> MetricGroup:
    """The first class of `enumerate_cyclic_metric_groups(n)`, built alone (every u = 1)."""
    coeffs, den = cyclic_class_coefficients(n)
    return _cyclic(n, coeffs[:1], den)[0]


def _isomorphisms(m1: MetricGroup, m2: MetricGroup):
    """Yield the element map (index array) of every isomorphism A1 -> A2
    carrying q1 to q2.  Each generator image x_i is chosen in turn among the
    x with d_i x = 0, q2(x) = q1(e_i) and sigma2(x_j, x) = sigma1(e_j, e_i)
    for the x_j already chosen: a homomorphism keeping these Gram values
    keeps q, so only complete choices are expanded, and kept if bijective.
    `ResourceLimitError` before the search when the leaves could pass
    AUTOS_SEARCH_LIMIT, by the product of the candidate counts of the x_i."""
    if m1.facs != m2.facs or m1.den != m2.den:
        return
    shape, den, num = m1._shape, m2.den, m2.num
    x = _coords(shape)
    c, b = _gram(m1.num, den, shape)
    cands = [
        np.flatnonzero((num == c[i]) & ~np.any(x * d % np.array(shape)[:, None], axis=0))
        for i, d in enumerate(shape)
    ]
    leaves = prod(map(len, cands))
    if leaves > AUTOS_SEARCH_LIMIT:
        raise ResourceLimitError(
            f"the isomorphism search on {m1.facs} could reach {leaves} choices of "
            f"generator images, above the limit of {AUTOS_SEARCH_LIMIT}"
        )

    def extend(images):
        i = len(images)
        if i == len(shape):
            phi = _ravel(x[:, images] @ x, shape)
            if np.all(np.bincount(phi, minlength=len(num))):
                yield phi
            return
        ok = cands[i]
        for j, y in enumerate(images):
            s = (num[_ravel(x[:, ok] + x[:, [y]], shape)] - num[ok] - num[y]) % den
            ok = ok[s == b[j, i]]
        for y in ok.tolist():
            yield from extend(images + [y])

    yield from extend([])


def equivalence_test(m1: MetricGroup, m2: MetricGroup) -> bool:
    """True iff some isomorphism phi has q2(phi(a)) = q1(a) for all a;
    refused when the search could pass AUTOS_SEARCH_LIMIT leaves."""
    if m1.order != m2.order:
        return False
    if m1.order > BRUTE_FORCE_LIMIT:
        raise ResourceLimitError(f"group order {m1.order} exceeds brute-force limit")
    if (m1.facs, m1.den) != (m2.facs, m2.den) or not np.array_equal(np.sort(m1.num), np.sort(m2.num)):
        return False
    return next(_isomorphisms(m1, m2), None) is not None


def form_preserving_autos(mg: MetricGroup) -> list[tuple[int, ...]]:
    """All automorphisms preserving q, as index-permutation tuples, sorted;
    refused when the search could pass AUTOS_SEARCH_LIMIT leaves."""
    if mg.order > BRUTE_FORCE_LIMIT:
        raise ResourceLimitError(f"group order {mg.order} exceeds brute-force limit")
    return sorted(tuple(phi.tolist()) for phi in _isomorphisms(mg, mg))


def enumerate_forms(facs, nondegenerate_only: bool = True) -> list[MetricGroup]:
    """Every quadratic form on the given group, by its Gram values: c_i with
    2 d_i c_i integral (d_i c_i when d_i is odd) and b_ij killed by gcd(d_i, d_j).
    `ResourceLimitError` before any table is built when forms x order passes
    ENUMERATION_LIMIT."""
    facs = _check_facs(facs)
    shape = facs or (1,)
    i, j = np.triu_indices(len(shape), 1)
    sizes = [d if d % 2 else 2 * d for d in shape] + [gcd(shape[x], shape[y]) for x, y in zip(i, j)]
    if prod(sizes) * prod(shape) > ENUMERATION_LIMIT:
        raise ResourceLimitError(
            f"the {prod(sizes)} forms on {facs} have {prod(sizes) * prod(shape)} q entries, "
            f"above the limit {ENUMERATION_LIMIT}")
    den = lcm(*sizes)
    coeffs = np.array(list(product(*map(range, sizes))), dtype=np.int64)
    nums = _tables(shape, coeffs * (den // np.array(sizes)), den)
    if nondegenerate_only:
        nums = nums[_nondegenerate(nums, den, shape)]
    return [MetricGroup._of(facs, row, den) for row in nums]


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
    from .modular import Phase, RibbonData  # only the ribbon data loads modular

    n, shape = mg.order, mg._shape
    width = len(str(n - 1))
    labels = tuple(f"g{i:0{width}d}" for i in range(n))
    a = _coords(shape)
    dual = _ravel(-a, shape).tolist()
    idx = np.arange(n, dtype=np.int64)
    cells = (idx[:, None] * n + idx[None, :]) * n + _ravel(a[:, :, None] + a[:, None, :], shape)
    dims = (AlgebraicReal(Fraction(1)),) * n
    ring = FusionRing.from_nonzeros(labels, dual, cells.ravel(), np.ones(n * n), dims)
    twists = tuple(Phase(Fraction(x, mg.den)) for x in mg.num.tolist())
    return RibbonData(ring, ring.exact_dims, twists)
