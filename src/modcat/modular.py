"""Ribbon data on a fusion ring: twists as exact roots of unity, the
S-matrix from the balancing relation, modularity and centralizers.

The only S-matrix definition in this package is the balancing relation

    S[i, j] = (theta_i * theta_j)^(-1) * sum_k N[i*, j, k] * d_k * theta_k,

evaluated in complex double precision from exact inputs.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

import numpy as np

from .errors import MalformedInputError, PreconditionError
from .ring import (
    ONE,
    AlgebraicReal,
    FusionRing,
    _check_indices,
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


@dataclass(frozen=True)
class RibbonData(_Wire):
    """Twists and dims on a fusion ring.  Kept on first use, outside the value:
    `_floats`, the read-only float dims and complex twists, and `_s_matrix`,
    built once `validate()` has passed; a failed validation keeps nothing."""

    ring: FusionRing
    dims: tuple[AlgebraicReal, ...]
    twists: tuple[Phase, ...]
    _WIRE = ("ribbon data", "fusion", 4)

    def __post_init__(self):
        dims = (d if isinstance(d, AlgebraicReal) else AlgebraicReal(_exact(d, "a dimension"))
                for d in self.dims)
        object.__setattr__(self, "dims", tuple(dims))
        object.__setattr__(self, "twists", tuple(self.twists))
        if not all(isinstance(t, Phase) for t in self.twists):
            raise MalformedInputError(f"twists must be Phase values, got {self.twists!r:.80}")
        if not len(self.dims) == len(self.twists) == self.ring.rank:
            raise MalformedInputError("dims/twists length does not match rank")

    def validate(self) -> None:
        """Raise unless the ribbon invariants hold exactly."""
        dual = self.ring.dual
        if self.twists[0].r != 0:
            raise MalformedInputError("twist of the unit must be 1")
        for i in range(self.ring.rank):
            if self.twists[dual[i]] != self.twists[i]:
                raise MalformedInputError(f"twist of dual differs at index {i}")
            if self.dims[dual[i]] != self.dims[i]:
                raise MalformedInputError(f"dimension of dual differs at index {i}")
        if not _is_character(self.ring, self.dims, positive=False):
            raise MalformedInputError("dims do not satisfy the fusion homomorphism")

    @cached_property
    def _floats(self) -> tuple[np.ndarray, np.ndarray]:
        d = np.array([float(x) for x in self.dims])
        th = np.array([complex(t) for t in self.twists])
        d.flags.writeable = th.flags.writeable = False
        return d, th

    @cached_property
    def _s_matrix(self) -> SMatrix:
        self.validate()
        d, th = self._floats
        # sum_k N[i, j, k] d_k theta_k from the nonzeros, then rows i*
        r = self.ring.rank
        ij, k = np.divmod(self.ring.cells, r)
        w = self.ring.mults * (d * th)[k]
        S = np.bincount(ij, w.real, r * r) + 1j * np.bincount(ij, w.imag, r * r)
        S = S.reshape(r, r)[list(self.ring.dual)] / np.outer(th, th)
        S.flags.writeable = False
        return SMatrix(S)

    @property
    def global_dim(self) -> float:
        return float(self._floats[0] @ self._floats[0])

    # -- JSON: the ring format plus "dims" and "twists" rows --

    def _json(self) -> dict:
        """`to_json_dict` with the fusion rows as an (n, 4) int64 array."""
        out = self.ring._json()
        out["dims"] = [d.to_json() for d in self.dims]
        out["twists"] = [[t.r.numerator, t.r.denominator] for t in self.twists]
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
        return cls(ring, ring.exact_dims, tuple(Phase(Fraction(*row)) for row in rows))


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
    t = rd.twists[i]
    ks, ms = rd.ring.row(i, i)
    if ms[ks == 0].tolist() == [1]:
        if t.r == 0:
            return ("boson", t)
        if t.r == Fraction(1, 2):
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
