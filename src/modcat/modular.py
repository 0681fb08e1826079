"""Ribbon data on a fusion ring: twists as exact roots of unity, integer
numerators over one denominator, the S-matrix from the balancing relation,
modularity and centralizers.

The only S-matrix definition in this package is the balancing relation

    S[i, j] = (theta_i * theta_j)^(-1) * sum_k N[i*, j, k] * d_k * theta_k,

evaluated in complex double precision from exact inputs.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm

import numpy as np

from .errors import MalformedInputError, PreconditionError, ResourceLimitError, UnsupportedInputError
from .ring import (
    ONE,
    AlgebraicReal,
    FusionRing,
    _check_indices,
    _distinct,
    _encode,
    _exact,
    _int_row,
    _is_character,
    _Wire,
)

# the one float tolerance, for the complex S-matrix numerics only (and the
# printing of complex values); dimension and isomorphism questions are
# decided exactly
FLOAT_TOL = 1e-9


@dataclass(frozen=True)
class Phase:
    """Root of unity e^{2 pi i r} stored as the reduced fraction r in [0, 1)."""

    r: Fraction

    def __post_init__(self):
        object.__setattr__(self, "r", _exact(self.r, "a phase") % 1)

    @classmethod
    def of(cls, num: int, den: int = 1) -> "Phase":
        if type(num) is not int or type(den) is not int or den == 0:
            raise MalformedInputError(
                f"a phase needs an int over a nonzero int, got {num!r:.40} / {den!r:.40}")
        return cls(Fraction(num, den))

    def __mul__(self, other: "Phase") -> "Phase":
        return Phase(self.r + other.r)

    def inverse(self) -> "Phase":
        return Phase(-self.r)

    def __pow__(self, n: int) -> "Phase":
        if type(n) is not int:
            raise MalformedInputError(f"a phase exponent must be an int, got {n!r:.80}")
        return Phase(self.r * n)

    def __complex__(self) -> complex:
        return cmath.exp(2j * cmath.pi * float(self.r))

    def __repr__(self) -> str:
        return f"e(2pi*{self.r})"


# the largest common denominator of the twists: two numerators below it, as
# a product of ribbon data adds them, stay within int64
TWIST_DEN_LIMIT = 2**62


def _twist_den(den: int) -> int:
    """`den`, or `ResourceLimitError` naming it when it passes TWIST_DEN_LIMIT."""
    if den > TWIST_DEN_LIMIT:
        raise ResourceLimitError(
            f"the twists' common denominator {den} exceeds the limit {TWIST_DEN_LIMIT}")
    return den


def _numerators(pairs) -> tuple[list[int], int]:
    """The fractions n / d of the int `pairs` (d != 0) mod 1, as numerators
    over their least common denominator, and that denominator."""
    reduced = [(n // g, d // g) for n, d in pairs for g in (gcd(n, d),)]
    den = lcm(*(d for _, d in reduced))  # positive; n % d and den // d share the sign of d
    return [n % d * (den // d) for n, d in reduced], den


class RibbonData(_Wire):
    """Twists and dims on a fusion ring.

    The twist of object i is e^{2 pi i twist_num[i] / twist_den}: `twist_num`
    is a read-only int64 vector in [0, twist_den) over the least common
    denominator, at most TWIST_DEN_LIMIT.  `dims` are `AlgebraicReal`s, and
    the constructor encodes them once, from their distinct values, as the
    integer vectors that `validate` checks (`_encode`).  The constructor takes
    `Phase` twists; `twists`, that tuple again, is built on first access.
    Kept on first use, outside the value: the read-only float dims and
    complex twists (`_floats`), and the S-matrix once `validate()` has passed;
    a failed validation keeps nothing."""

    __slots__ = ("ring", "dims", "twist_num", "twist_den", "_values", "_value_of", "_code",
                 "_phases", "_float_pair", "_smatrix")
    _WIRE = ("ribbon data", "fusion", 4)

    def __init__(self, ring: FusionRing, dims, twists):
        dims = tuple(d if isinstance(d, AlgebraicReal) else AlgebraicReal(_exact(d, "a dimension"))
                     for d in dims)
        twists = tuple(twists)
        if not all(isinstance(t, Phase) for t in twists):
            raise MalformedInputError(f"twists must be Phase values, got {twists!r:.80}")
        self._set(ring, dims, *_numerators((t.r.numerator, t.r.denominator) for t in twists))

    @classmethod
    def _of(cls, ring: FusionRing, dims: tuple[AlgebraicReal, ...], num, den: int) -> "RibbonData":
        """The data with twists num / den, num in [0, den) (reduced here)."""
        rd = cls.__new__(cls)
        rd._set(ring, dims, num, den)
        return rd

    def _set(self, ring, dims, num, den: int) -> None:
        if not len(dims) == len(num) == ring.rank:
            raise MalformedInputError("dims/twists length does not match rank")
        _twist_den(den)
        num = np.asarray(num, dtype=np.int64)
        g = gcd(den, int(np.gcd.reduce(num)))
        if g > 1:
            num, den = num // g, den // g
        num.setflags(write=False)
        values, of = _distinct(dims)
        of = np.array(of, dtype=np.intp)
        try:
            code = _encode(ring, values, of)
        except UnsupportedInputError:  # dims from two quadratic fields, which `validate` refuses
            code = None
        for name, value in zip(self.__slots__, (ring, dims, num, int(den), values, of, code,
                                                None, None, None)):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError("RibbonData is immutable")

    def __eq__(self, other) -> bool:
        if not isinstance(other, RibbonData):
            return NotImplemented
        return (self.twist_den == other.twist_den and np.array_equal(self.twist_num, other.twist_num)
                and self.dims == other.dims and self.ring == other.ring)

    def __repr__(self) -> str:
        return f"RibbonData(ring={self.ring!r}, dims={self.dims!r}, twists={self.twists!r})"

    @property
    def twists(self) -> tuple[Phase, ...]:
        if self._phases is None:
            den = self.twist_den
            phases = tuple(Phase(Fraction(n, den)) for n in self.twist_num.tolist())
            object.__setattr__(self, "_phases", phases)
        return self._phases

    def validate(self) -> None:
        """Raise unless the ribbon invariants hold exactly."""
        num, of = self.twist_num, self._value_of
        if num[0] != 0:
            raise MalformedInputError("twist of the unit must be 1")
        dual = np.array(self.ring.dual, dtype=np.intp)
        twist, dim = num[dual] != num, of[dual] != of
        bad = twist | dim
        if bad.any():
            i = int(bad.argmax())
            what = "twist" if twist[i] else "dimension"
            raise MalformedInputError(f"{what} of dual differs at index {i}")
        code = self._code or _encode(self.ring, self._values, of)  # raises when it is None
        if not _is_character(self.ring, code, positive=False):
            raise MalformedInputError("dims do not satisfy the fusion homomorphism")

    @property
    def _floats(self) -> tuple[np.ndarray, np.ndarray]:
        if self._float_pair is None:
            d = np.array([float(x) for x in self._values])[self._value_of]
            th = np.exp(2j * np.pi * (self.twist_num / self.twist_den))
            d.flags.writeable = th.flags.writeable = False
            object.__setattr__(self, "_float_pair", (d, th))
        return self._float_pair

    @property
    def _s_matrix(self) -> SMatrix:
        if self._smatrix is None:
            self.validate()
            d, th = self._floats
            # sum_k N[i, j, k] d_k theta_k from the nonzeros, then rows i*
            r = self.ring.rank
            ij, k = np.divmod(self.ring.cells, r)
            w = self.ring.mults * (d * th)[k]
            S = np.empty(r * r, dtype=complex)
            S.real, S.imag = np.bincount(ij, w.real, r * r), np.bincount(ij, w.imag, r * r)
            S = S.reshape(r, r)[np.array(self.ring.dual)] / (th[:, None] * th)
            S.flags.writeable = False
            object.__setattr__(self, "_smatrix", SMatrix(S))
        return self._smatrix

    @property
    def global_dim(self) -> float:
        return float(self._floats[0] @ self._floats[0])

    # -- JSON: the ring format plus "dims" and "twists" rows --

    def _json(self) -> dict:
        """`to_json_dict` with the fusion rows as `_NonzeroRows` and the
        reduced [num, den] twist rows as an (n, 2) int64 array."""
        out = self.ring._json()
        out["dims"] = [d.to_json() for d in self.dims]
        g = np.gcd(self.twist_num, self.twist_den)
        out["twists"] = np.stack([self.twist_num // g, self.twist_den // g], axis=1)
        return out

    @classmethod
    def from_json_dict(cls, data: dict) -> "RibbonData":
        """Strict like `FusionRing.from_json_dict`, which reads the dims;
        twists are one [num, den] row of integers per label."""
        ring = FusionRing.from_json_dict(data)
        rows = data.get("twists")
        if ring.exact_dims is None or type(rows) is not list or len(rows) != ring.rank:
            raise MalformedInputError("ribbon data needs dims and one twists row per label")
        rows = [_int_row(row, 2, "twists row") for row in rows]
        if any(den == 0 for _, den in rows):
            raise MalformedInputError("twists row has a zero denominator")
        return cls._of(ring, ring.exact_dims, *_numerators(rows))


@dataclass(frozen=True)
class SMatrix:
    entries: np.ndarray

    def __post_init__(self):
        entries = np.asarray(self.entries, dtype=complex)
        object.__setattr__(self, "entries", entries)
        if np.max(np.abs(entries - entries.T)) >= FLOAT_TOL:
            raise MalformedInputError("S-matrix is not symmetric")

    @property
    def rank(self) -> int:
        return self.entries.shape[0]


def s_matrix(rd: RibbonData) -> SMatrix:
    """Balancing-relation S-matrix in complex doubles: the one `rd` keeps."""
    return rd._s_matrix


def is_modular(rd: RibbonData) -> bool:
    """Invertibility of S, scale-aware: for modular data |det S| = D^{r/2}, in logs."""
    S = s_matrix(rd)
    log_det = np.linalg.slogdet(S.entries)[1]
    return bool(log_det > np.log(0.5) + S.rank / 2 * np.log(rd.global_dim))


def centralizer(rd: RibbonData, sub) -> tuple[int, ...]:
    """Indices i with S[i, j] = d_i d_j for every j in the sub-basis."""
    sub = sorted(set(sub))
    _check_indices(rd.ring, *sub)
    inside = np.zeros(rd.ring.rank, dtype=bool)
    inside[sub] = True
    i, j, k = rd.ring.nonzero()
    if not inside[k[inside[i] & inside[j]]].all():
        raise MalformedInputError("sub-basis is not fusion-closed")
    S = s_matrix(rd).entries
    d = rd._floats[0]
    near = np.abs(S[:, sub] - np.outer(d, d[sub])) < FLOAT_TOL
    return tuple(np.flatnonzero(near.all(axis=1)).tolist())


def muger_center(rd: RibbonData) -> tuple[int, ...]:
    return centralizer(rd, range(rd.ring.rank))


def classify_invertible(rd: RibbonData, i: int) -> tuple[str, Phase]:
    """Verdict ('boson' | 'fermion' | 'not-order-2') plus the twist."""
    _check_indices(rd.ring, i)
    if rd.dims[i] != ONE:
        raise PreconditionError(f"object {rd.ring.labels[i]} is not invertible")
    num, den = int(rd.twist_num[i]), rd.twist_den
    t = Phase(Fraction(num, den))
    ks, ms = rd.ring.row(i, i)
    if ms[ks == 0].tolist() == [1]:
        if num == 0:
            return ("boson", t)
        if 2 * num == den:
            return ("fermion", t)
    return ("not-order-2", t)


def gauss_sums(rd: RibbonData) -> tuple[complex, complex]:
    """(tau_plus, tau_minus) = sum_i d_i^2 theta_i^{+-1}, unvalidated."""
    d, th = rd._floats
    return (complex(d * d @ th), complex(d * d @ th.conj()))


def format_complex(z: complex) -> str:
    """Exact-looking string when z rounds to a Gaussian rational, else decimals."""
    for den in (1, 2, 4, 8):
        re, im = round(z.real * den), round(z.imag * den)
        if abs(z.real - re / den) < FLOAT_TOL and abs(z.imag - im / den) < FLOAT_TOL:
            re_s = str(Fraction(re, den))
            im_s = str(Fraction(im, den))
            if im == 0:
                return re_s
            if re == 0:
                return f"{im_s}i"
            sign = "+" if im > 0 else "-"
            return f"{re_s}{sign}{str(Fraction(abs(im), den))}i"
    return f"{z.real:.6f}{z.imag:+.6f}i"
