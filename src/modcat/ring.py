"""Fusion ring core: exact quadratic irrationals, axiom verification,
Frobenius-Perron dimensions, subrings and gradings.

A fusion ring is an ordered basis (index 0 = unit), a dual involution and
the multiplicities N[i, j, k] of X_k in X_i (x) X_j, stored as the sorted
nonzeros of that tensor.  Every function of the package reads the
nonzeros; the dense tensor is a lazy view for callers.
"""

from __future__ import annotations

import json
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain
from math import isqrt, lcm, prod

import numpy as np

from ._abelian import decompose, squarefree_part
from .errors import (
    DegenerateInputError,
    InternalConsistencyError,
    MalformedInputError,
    ResourceLimitError,
    UnsupportedInputError,
)

DENSE_LIMIT = 2**30  # bytes: the largest dense fusion tensor built (rank 512)
# elements a pass over the nonzeros takes at a time, so that its temporaries
# stay small: the products of an associativity batch, the nonzeros of a
# character block, the cells `assemble_ring` encodes at once, the values of
# a piece of JSON rows.  Least ms of 3-14 fresh runs on 2 shared vCPUs, at
# 2^13 / 2^14 / 2^15 / 2^16 / 2^17:
#   first `structure_census` of SO(600)_2     4.1 / 4.0 / 4.2 / 5.3 / 8.4
#   `build_so_n2(600)`, `build_so_n2(3000)`   4.4 / 4.0 / 3.9 / 3.9 / 4.1, 96 / 90 / 89 / 90 / 91
#   full check of SO(117)_2 raised by one     51 / 41 / 44 / 42 / 58
#   `dumps` of SO(600)_2                      23 / 21 / 19 / 21 / 20
#   verify of SO(1000)_2 (Light's test)       378 / 312 / 269 / 284 / 274
CHUNK = 2**15


# ---------------------------------------------------------------------------
# exact scalars a + b*sqrt(t)


@dataclass(frozen=True)
class AlgebraicReal:
    """Exact real of the form a + b*sqrt(t) with t square-free positive.

    Canonical form: b == 0 implies t == 1.  Products are defined whenever
    they stay in the same quadratic field (equal t, or one factor rational),
    which covers every dimension appearing in the metaplectic family.
    """

    a: Fraction
    b: Fraction = Fraction(0)
    t: int = 1

    def __post_init__(self):
        object.__setattr__(self, "a", _exact(self.a, "rational part"))
        object.__setattr__(self, "b", _exact(self.b, "coefficient"))
        if type(self.t) is not int or self.t < 1 or squarefree_part(self.t) != self.t:
            raise MalformedInputError(f"radicand {self.t!r:.80} is not a square-free positive int")
        if self.b == 0 and self.t != 1:
            object.__setattr__(self, "t", 1)
        if self.b != 0 and self.t == 1:
            object.__setattr__(self, "a", self.a + self.b)
            object.__setattr__(self, "b", Fraction(0))

    @classmethod
    def of(cls, x) -> "AlgebraicReal":
        if isinstance(x, AlgebraicReal):
            return x
        return cls(Fraction(x))

    @classmethod
    def sqrt(cls, n: int) -> "AlgebraicReal":
        if type(n) is not int or n < 0:
            raise MalformedInputError(f"sqrt needs a nonnegative int, got {n!r:.80}")
        if n == 0:
            return cls(Fraction(0))
        t = squarefree_part(n)
        return cls(Fraction(0), Fraction(isqrt(n // t)), t)

    @property
    def is_rational(self) -> bool:
        return self.b == 0

    def __float__(self) -> float:
        return float(self.a) + float(self.b) * float(self.t) ** 0.5

    def __add__(self, other) -> "AlgebraicReal":
        other = AlgebraicReal.of(other)
        if self.b == 0:
            return AlgebraicReal(self.a + other.a, other.b, other.t)
        if other.b == 0:
            return AlgebraicReal(self.a + other.a, self.b, self.t)
        if self.t != other.t:
            raise UnsupportedInputError("sum leaves the quadratic field")
        return AlgebraicReal(self.a + other.a, self.b + other.b, self.t)

    def __mul__(self, other) -> "AlgebraicReal":
        other = AlgebraicReal.of(other)
        if self.b == 0:
            return AlgebraicReal(self.a * other.a, self.a * other.b, other.t)
        if other.b == 0:
            return AlgebraicReal(self.a * other.a, self.b * other.a, self.t)
        if self.t != other.t:
            raise UnsupportedInputError("product leaves the quadratic field")
        return AlgebraicReal(
            self.a * other.a + self.b * other.b * self.t,
            self.a * other.b + self.b * other.a,
            self.t,
        )

    __radd__ = __add__
    __rmul__ = __mul__

    def __sub__(self, other) -> "AlgebraicReal":
        other = AlgebraicReal.of(other)
        return self + AlgebraicReal(-other.a, -other.b, other.t)

    def __eq__(self, other) -> bool:
        if not isinstance(other, AlgebraicReal):
            try:
                other = AlgebraicReal.of(other)
            except (TypeError, ValueError):
                return NotImplemented
        return (self.a, self.b, self.t) == (other.a, other.b, other.t)

    def __hash__(self):
        return hash((self.a, self.b, self.t))

    def squared(self) -> "AlgebraicReal":
        return self * self

    def __repr__(self) -> str:
        if self.b == 0:
            return str(self.a)
        rad = f"sqrt({self.t})"
        s = rad if self.b == 1 else f"{self.b}*{rad}"
        return s if self.a == 0 else f"{self.a}+{s}"

    def to_json(self) -> list[int]:
        return [
            self.a.numerator, self.a.denominator,
            self.b.numerator, self.b.denominator,
            self.t,
        ]

    @classmethod
    def from_json(cls, row) -> "AlgebraicReal":
        an, ad, bn, bd, t = row
        return cls(Fraction(an, ad), Fraction(bn, bd), t)


def _exact(x, what: str) -> Fraction:
    """An int or Fraction `x` as a Fraction; anything else, bools included, is refused."""
    if type(x) not in (int, Fraction):
        raise MalformedInputError(f"{what} must be an int or a Fraction, got {x!r:.80}")
    return x if type(x) is Fraction else Fraction(x)


ONE = AlgebraicReal(Fraction(1))


# ---------------------------------------------------------------------------
# the ring itself, and the JSON wire form it shares


class _Wire:
    """The JSON wire form of rings, metric groups and ribbon data.  A subclass
    gives `_json()`, its `to_json_dict` with one block of integer rows as an
    (n, width) int64 array, a strict `from_json_dict`, and `_WIRE = (what,
    key, width)`: its name in messages, the key of the rows and their width."""

    __slots__ = ()

    def to_json_dict(self) -> dict:
        return {key: value.tolist() if isinstance(value, np.ndarray) else value
                for key, value in self._json().items()}

    def dumps(self) -> str:
        """`json.dumps(self.to_json_dict(), sort_keys=True)`, with the rows
        written by `_row_pieces` instead of built as lists, and the whole
        text made by one join."""
        data, parts = self._json(), ["{"]
        for key in sorted(data):
            value = data[key]
            parts += (", " if len(parts) > 1 else "", json.dumps(key), ": ")
            if isinstance(value, np.ndarray):
                parts += _row_pieces(value)
            else:
                parts.append(json.dumps(value, sort_keys=True))
        parts.append("}")
        return "".join(parts)

    @classmethod
    def loads(cls, text: str | bytes):
        """`from_json_dict` of the parsed text, or `MalformedInputError` when
        it is not JSON.  Rows spaced as `dumps` writes them come out as
        `_ReadRows` (`_read_rows`); any other text takes `json.loads` alone."""
        what, key, width = cls._WIRE
        data = _read_rows(text, key, width)
        if data is None:
            try:
                data = json.loads(text)
            except (ValueError, RecursionError) as exc:
                raise MalformedInputError(f"{what} is not valid JSON: {exc}") from None
        return cls.from_json_dict(data)


class FusionRing(_Wire):
    """A based ring stored as its nonzeros.

    `cells` holds the raveled index (i * r + j) * r + k of every nonzero
    N[i, j, k], strictly increasing, and `mults` the multiplicities there.
    The constructor takes the dense r x r x r tensor; `from_nonzeros` takes
    the cells.  `fusion` is the dense tensor again, a read-only view built
    from the nonzeros on first access and kept; `exact_dimensions` keeps the
    dims it has checked in the same way.  `keys` gives each object's rule key
    when `assemble_ring` built the ring, else None.  None of the three is part of the value.
    """

    __slots__ = ("labels", "dual", "cells", "mults", "exact_dims", "keys", "_dense", "_checked_dims")
    _WIRE = ("ring", "fusion", 4)

    def __init__(self, labels, dual, fusion, exact_dims=None):
        labels = tuple(labels)
        r = len(labels)
        fusion = np.asarray(fusion, dtype=np.int64)
        if fusion.shape != (r, r, r):
            raise MalformedInputError(
                f"fusion tensor shape {fusion.shape} does not match rank {r}"
            )
        cells = np.flatnonzero(fusion)
        self._set(labels, dual, cells, fusion.ravel()[cells], exact_dims)

    @classmethod
    def from_nonzeros(cls, labels, dual, cells, mults, exact_dims=None, keys=None) -> "FusionRing":
        """The ring with N = mults at the raveled `cells`, strictly increasing
        (zero multiplicities are dropped), and `keys` None or a permutation."""
        ring = cls.__new__(cls)
        ring._set(tuple(labels), dual, np.asarray(cells, dtype=np.int64),
                  np.asarray(mults, dtype=np.int64), exact_dims, keys)
        return ring

    def _set(self, labels, dual, cells, mults, exact_dims, keys=None):
        r = len(labels)
        if r == 0:
            raise MalformedInputError("a fusion ring needs at least the unit object")
        if keys is not None:
            keys = np.asarray(keys)
            if keys.dtype.kind not in "iu" or not np.array_equal(np.sort(keys), np.arange(r)):
                raise MalformedInputError("keys must be a permutation of the indices")
            keys = keys.astype(np.int64)  # a copy, so that it can be made read-only
            keys.setflags(write=False)
        dual = tuple(dual)
        if not set(map(type, dual)) <= {int}:  # a bool or an integral float passes the test below
            for x in dual:
                if isinstance(x, bool) or not isinstance(x, (int, np.integer)):
                    raise MalformedInputError(f"dual entry {x!r:.80} is not an integer")
        if len(dual) != r or sorted(dual) != list(range(r)):
            raise MalformedInputError("dual must be a permutation of the indices")
        if any(dual[dual[i]] != i for i in range(r)):
            raise MalformedInputError("dual must be an involution")
        if mults.min(initial=0) < 0:
            raise MalformedInputError("fusion multiplicities must be nonnegative")
        if len(cells) != len(mults) or np.any(cells[1:] <= cells[:-1]) or (
            len(cells) and (cells[0] < 0 or cells[-1] >= r**3)
        ):
            raise MalformedInputError("fusion cells must be strictly increasing and below r^3")
        if len(set(labels)) != r:
            raise MalformedInputError("labels must be distinct")
        if exact_dims is not None and len(exact_dims) != r:
            raise MalformedInputError("exact_dims length does not match rank")
        keep = mults != 0
        cells, mults = (cells, mults) if keep.all() else (cells[keep], mults[keep])
        cells.setflags(write=False)
        mults.setflags(write=False)
        values = (labels, dual, cells, mults, exact_dims, keys, None, None)
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError("FusionRing is immutable")

    def __eq__(self, other) -> bool:
        if not isinstance(other, FusionRing):
            return NotImplemented
        return (
            (self.labels, self.dual, self.exact_dims) == (other.labels, other.dual, other.exact_dims)
            and np.array_equal(self.cells, other.cells)
            and np.array_equal(self.mults, other.mults)
        )

    def __repr__(self) -> str:
        return f"FusionRing(labels={self.labels!r}, nonzeros={len(self.cells)})"

    @property
    def rank(self) -> int:
        return len(self.labels)

    @property
    def fusion(self) -> np.ndarray:
        """The dense tensor N[i, j, k]; `ResourceLimitError` before allocating
        when it would take more than DENSE_LIMIT bytes."""
        if self._dense is None:
            r = self.rank
            if 8 * r**3 > DENSE_LIMIT:
                raise ResourceLimitError(
                    f"the dense fusion tensor of rank {r} needs {8 * r**3 / 2**30:.1f} GiB, "
                    f"above the limit of {DENSE_LIMIT / 2**30:g} GiB"
                )
            dense = np.zeros(r**3, dtype=np.int64)
            dense[self.cells] = self.mults
            dense = dense.reshape(r, r, r)
            dense.setflags(write=False)
            object.__setattr__(self, "_dense", dense)
        return self._dense

    def nonzero(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(i, j, k) of every nonzero, in the order of `cells` and `mults`."""
        ij, k = np.divmod(self.cells, self.rank)
        return (*np.divmod(ij, self.rank), k)

    def row(self, i: int, j: int) -> tuple[np.ndarray, np.ndarray]:
        """X_i (x) X_j: the k with N[i, j, k] > 0, increasing, and their
        multiplicities."""
        _check_indices(self, i, j)
        base = (i * self.rank + j) * self.rank
        lo, hi = np.searchsorted(self.cells, (base, base + self.rank))
        return self.cells[lo:hi] - base, self.mults[lo:hi]

    def index(self, label: str) -> int:
        return self.labels.index(label)

    # -- JSON wire format: only nonzero entries are listed --

    def _json(self) -> dict:
        """`to_json_dict` with the fusion rows as an (n, 4) int64 array."""
        out = {
            "labels": list(self.labels),
            "dual": list(self.dual),
            "fusion": np.stack([*self.nonzero(), self.mults], axis=1),
        }
        if self.exact_dims is not None:
            out["dims"] = [d.to_json() for d in self.exact_dims]
        return out

    @classmethod
    def from_json_dict(cls, data: dict) -> "FusionRing":
        """Strict inverse of `to_json_dict`: a missing key or an entry of the
        wrong type or range raises `MalformedInputError`, nothing is coerced.
        Keys other than labels, dual, fusion and dims are ignored."""
        if not isinstance(data, dict):
            raise MalformedInputError("a ring must be a JSON object")
        missing = [key for key in ("labels", "dual", "fusion") if key not in data]
        if missing:
            raise MalformedInputError(f"ring is missing key(s) {', '.join(missing)}")
        labels = data["labels"]
        if not isinstance(labels, list) or not all(isinstance(x, str) for x in labels):
            raise MalformedInputError("labels must be a list of strings")
        r = len(labels)
        if r**3 > np.iinfo(np.int64).max:
            raise ResourceLimitError(f"rank {r} is too large to index its fusion cells")
        dual = _int_row(data["dual"], r, "dual")
        entries = _int_rows(data["fusion"], 4, "fusion")
        ijk, mult = entries[:, :3], entries[:, 3]
        if len(ijk) and (ijk.min() < 0 or ijk.max() >= r):
            # the per-row scan only names the first entry out of range
            bad = tuple(map(int, ijk[np.any((ijk < 0) | (ijk >= r), axis=1)][0]))
            raise MalformedInputError(f"fusion entry index out of range: {bad}")
        cells = (ijk[:, 0] * r + ijk[:, 1]) * r + ijk[:, 2]
        order = np.argsort(cells)
        cells = cells[order]
        if np.any(cells[1:] == cells[:-1]):
            raise MalformedInputError("a fusion entry (i, j, k) is listed twice")
        dims = None
        if "dims" in data:
            if not isinstance(data["dims"], list):
                raise MalformedInputError("dims must be a list of five-integer rows")
            rows = [tuple(_int_row(row, 5, "dims row")) for row in data["dims"]]
            if any(row[1] == 0 or row[3] == 0 for row in rows):
                raise MalformedInputError("dims row has a zero denominator")
            # one object per distinct row, shared as `build_so_n2` shares them
            made = {row: AlgebraicReal.from_json(row) for row in dict.fromkeys(rows)}
            dims = tuple(map(made.__getitem__, rows))
        return cls.from_nonzeros(labels, dual, cells, mult[order], dims)


def _check_indices(ring: FusionRing, *indices) -> None:
    """`MalformedInputError` naming the first of `indices` not an integer in [0, rank), or a bool."""
    for x in indices:
        if isinstance(x, bool) or not isinstance(x, (int, np.integer)) or not 0 <= x < ring.rank:
            raise MalformedInputError(f"{x} is not a basis index of a ring of rank {ring.rank}")


class _ReadRows:
    """An (n, width) int64 array of rows that `_read_rows` read straight
    from the text.  Only `_int_rows` takes it, so `from_json_dict` itself
    still refuses anything but lists of rows."""

    __slots__ = ("array",)

    def __init__(self, array: np.ndarray):
        self.array = array


# bytes of JSON text the row reader takes at a time: reading SO(3000)_2 took
# the same from 2^16 to 2^22 bytes on 2 vCPUs
_READ_BYTES = 2**20
_DIGITS = b"0123456789"


def _row_pieces(rows: np.ndarray) -> list[str]:
    """`json.dumps(rows.tolist())` of an (n, width) int64 array, as pieces
    to join, one per CHUNK // width rows."""
    step = max(1, CHUNK // rows.shape[1])
    pieces = ["[", *(_row_text(rows[top:top + step]) for top in range(0, len(rows), step))]
    pieces[-1] = pieces[-1].removesuffix(", ")
    pieces.append("]")
    return pieces


def _row_text(rows: np.ndarray) -> str:
    """`[a, b, ...], [c, d, ...], ` for an (m, width) int64 array.

    Each row is a line of a uint8 grid copied from one template: per value
    its separator, a sign byte if the chunk has a negative value, and as
    many digit bytes as the widest value of the chunk takes; then `], `.
    The bytes left NUL are deleted at the end.  The digits come from floor
    division by a scalar ten, which numpy does many times faster than
    division by an array of powers of ten."""
    m, width = rows.shape
    q = np.abs(rows).view(np.uint64)  # |-2^63| wraps to -2^63, whose bits are 2^63
    sign, digits = int(rows.min() < 0), len(str(int(q.max())))
    pad = b"\0" * (sign + digits)
    line = b"\0[" + pad + (b", " + pad) * (width - 1) + b"], "
    grid = np.empty((m, len(line)), dtype=np.uint8)
    grid[:] = np.frombuffer(line, dtype=np.uint8)
    slots = grid[:, :-3].reshape(m, width, 2 + sign + digits)
    if sign:
        np.multiply(rows < 0, np.uint8(ord("-")), out=slots[:, :, 2])
    for at in range(-1, -1 - digits, -1):
        shown = q != 0  # else a leading zero, left NUL unless it is the units digit
        digit = q.astype(np.uint8)
        q //= np.uint64(10)
        digit -= q.astype(np.uint8) * np.uint8(10)
        digit += np.uint8(ord("0"))
        slots[:, :, at] = digit if at == -1 else digit * shown
    return grid.tobytes().translate(None, b"\0").decode("ascii")


def _read_rows(text, key: str, width: int):
    """`json.loads(text)` with `data[key]` read into int64 in a few C-level
    passes, when it is `[[a, b, ...], [c, d, ...], ...]` of `width` decimal
    integers in [0, 10^18) spaced by ", "; None for any other text.

    The rows are the slice from the first `"key": [` to the first `]]`
    after it.  They are n rows, one more than the `], [` between them, and
    `_read_chunk` reads them by chunks, each the rows up to the first `], [`
    at least _READ_BYTES past its start, into one (n, width) array: a pass
    holds one chunk, never a second copy of the whole slice, and a slice of
    one chunk keeps that chunk's array.  The rest parses with
    `NaN` for the slice, which must come out as the one constant of the
    document, at `key` of the top-level object: a nested or duplicate key
    or another constant fails there."""
    head, close, cut, nan = f'"{key}": [', "]]", "], [", "NaN"
    if isinstance(text, (bytes, bytearray)):
        if json.detect_encoding(text) not in ("utf-8", "utf-8-sig"):
            return None
        head, close, cut, nan = head.encode(), b"]]", b"], [", b"NaN"
    elif not isinstance(text, str):
        return None
    start = text.find(head)
    end = text.find(close, start) + 2
    if start < 0 or end < 2:
        return None
    start += len(head) - 1
    n = text.count(cut, start, end) + 1
    values, done, at = None, 0, start + 1
    while at < end - 1:
        stop = text.find(cut, at + _READ_BYTES, end) + 1 or end - 1
        got = _read_chunk(text[at:stop], width)
        # a row count other than n means a digit next to a `], [`
        if got is None or done + len(got) > n:
            return None
        if values is None:  # one chunk of all n rows is kept as it is
            values = got if len(got) == n else np.empty((n, width), dtype=np.int64)
        if values is not got:
            values[done:done + len(got)] = got
        done, at = done + len(got), stop + 2
    if done != n:
        return None
    made = []  # every constant the parse makes; `made` itself stands for each

    def constant(name):
        made.append(name)
        return made

    try:
        data = json.loads(text[:start] + nan + text[end:], parse_constant=constant)
    except (ValueError, RecursionError):
        return None
    if len(made) != 1 or type(data) is not dict or data.get(key) is not made:
        return None
    data[key] = _ReadRows(values)
    return data


def _read_chunk(chunk, width: int):
    """`[a, b, ...], [c, d, ...], ...`, m rows of `width` decimal integers
    in [0, 10^18) spaced by ", ", as an (m, width) int64 array; None for
    any other text.

    With its digits deleted the chunk must be the skeleton of m rows, so
    its digits stand only where entries go or next to a bracket or comma.
    It must start with `[` and have a space after every comma, which leaves
    each entry's run of digits apart from the others once the brackets and
    spaces are deleted.  Split at the commas, no entry may then be empty,
    and the m * width values must take exactly as many digits written out
    as the chunk holds, so none has leading zeros or overflowed."""
    if isinstance(chunk, str):
        if not chunk.isascii():
            return None
        chunk = chunk.encode("ascii")
    chunk = bytes(chunk)  # np.fromstring takes no bytearray
    skeleton = chunk.translate(None, _DIGITS)
    row = b"[" + b", " * (width - 1) + b"]"
    m, extra = divmod(len(skeleton) + 2, len(row) + 2)
    if extra or skeleton != (row + b", ") * (m - 1) + row:
        return None
    chars = np.frombuffer(chunk, dtype=np.uint8)
    pairs = chars[:-1] == ord(",")
    pairs &= chars[1:] == ord(" ")
    if chars[0] != ord("[") or np.count_nonzero(pairs) != m * width - 1:
        return None
    entries = chunk.translate(None, b"[] ")
    comma = np.frombuffer(entries, dtype=np.uint8) == ord(",")
    if comma[0] or (comma[1:] & comma[:-1]).any():  # an empty entry, which np.fromstring refuses
        return None
    values = np.fromstring(entries, dtype=np.int64, sep=",")
    if len(values) != m * width or values.min() < 0 or values.max() >= 10**18:
        return None
    # the digits written out: one per value, plus one per power of ten it reaches
    written = len(values) + sum(
        int(np.count_nonzero(values >= 10**p)) for p in range(1, len(str(values.max()))))
    if written != len(chunk) - len(skeleton):
        return None
    return values.reshape(m, width)


def _int_rows(rows, width: int, what: str) -> np.ndarray:
    """`rows` as an (n, width) int64 array: the array of `_ReadRows`, or
    `_list_rows` of a list."""
    return rows.array if type(rows) is _ReadRows else _list_rows(rows, width, what)


def _list_rows(rows, width: int, what: str) -> np.ndarray:
    """`rows`, a list of rows of `width` JSON integers each (bools rejected),
    as an (n, width) int64 array.  An entry outside the int64 range or equal
    to -2^63, whose negation is no int64, is refused."""
    # C-level scans: every row a list of `width`, then every entry an int
    flat = []
    if type(rows) is list and set(map(type, rows)) <= {list} and set(map(len, rows)) <= {width}:
        flat = list(chain.from_iterable(rows))
    if type(rows) is not list or len(flat) != width * len(rows) or not set(map(type, flat)) <= {int}:
        raise MalformedInputError(f"{what} must be a list of rows of {width} integers")
    try:
        entries = np.array(flat, dtype=np.int64).reshape(-1, width)
        if (entries == np.iinfo(np.int64).min).any():
            raise OverflowError
    except OverflowError:
        raise MalformedInputError(f"a {what} entry lies outside the int64 range") from None
    return entries


def _int_row(row, length: int, what: str) -> list[int]:
    """`row` as a list of exactly `length` JSON integers (bools rejected)."""
    if type(row) is not list or len(row) != length or not all(type(x) is int for x in row):
        raise MalformedInputError(f"{what} must be a list of {length} integers, got {row!r:.80}")
    return row


@dataclass(frozen=True)
class AxiomReport:
    violations: tuple[tuple[str, tuple[int, ...]], ...] = ()

    @property
    def ok(self) -> bool:
        return not self.violations


def _unbalanced(keys: np.ndarray, vals: np.ndarray, bound: int) -> np.ndarray:
    """The distinct keys, all in [0, bound), whose values do not sum to zero,
    increasing: one sort and one `np.add.reduceat`, exact when the positive
    and the negative values of each key each sum within the dtype of `vals`.
    Integer values, shifted to start at 0, ride in the low bits of the keys
    through one `np.sort`, several times faster than `np.argsort`: as 32-bit
    words when they fit, else in int64.  Object values, or keys too wide to
    carry them in int64, are argsorted."""
    if not len(keys):
        return keys
    wide = vals.dtype == object
    if not wide:
        low = int(vals.min())  # the range in Python ints: max - min may pass int64
        bits = (int(vals.max()) - low).bit_length()
        wide = bound << bits > 2**63
    if wide:
        order = np.argsort(keys)
        keys, vals = keys[order], vals[order]
    else:
        word = np.uint32 if bound << bits <= 2**32 else np.int64
        packed = keys.astype(word)
        packed <<= bits
        packed |= (vals - low).astype(word, copy=False)
        packed.sort()
        keys = packed >> bits
        vals = (packed & ((1 << bits) - 1)).astype(np.int64, copy=False)
        vals += low
    first = np.flatnonzero(np.concatenate(([True], keys[1:] != keys[:-1])))
    return keys[first[np.add.reduceat(vals, first) != 0]].astype(np.int64, copy=False)


def _segments(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Every position of the segments [start, start + count), concatenated."""
    return np.arange(counts.sum()) + np.repeat(starts - np.cumsum(counts) + counts, counts)


def verify_axioms(ring: FusionRing) -> AxiomReport:
    """Check the based-ring axioms; returns every violation with a witness.

    Every check reads the nonzeros only and compares two sparse tensors.
    The Frobenius checks (`_same_nonzeros`), and Light's test when every
    product is 1, first ask only whether the sides, each sorted alone, agree.
    A check that fails sorts the keys together, so a witness where one side
    is zero is found as well, and the witnesses of each kind come out in
    index order.

    Associativity is one join, `_associativity`, over a mask of middles.
    When the unit, duality and Frobenius checks found nothing, the middles
    are a certified generating set (`_generators`), a few r^2 products
    each: that is Light's test, and when it passes it decides.  Otherwise
    every object is a middle, about 8r^3 products on SO(N)_2, to list the
    witnesses.  SO(3000)_2 (69 MB of nonzeros) verifies in 2.6-3.6 s on 2
    shared vCPUs, and the process peaks at 397-418 MB, against 104-106 MB
    after the build.
    """
    r, cells, mults = ring.rank, ring.cells, ring.mults
    dual = np.asarray(ring.dual)
    found: list[tuple[str, tuple[int, ...]]] = []

    if dual[0] != 0:
        found.append(("dual_of_unit", (0,)))

    i, jk = np.divmod(cells, r * r)
    j, k = np.divmod(jk, r)
    every, one = np.arange(r), np.ones(r, dtype=np.int64)

    def compare(kind, keep, other_cells, other_mults):
        """Witness every cell where N restricted to `keep` and the other
        tensor differ, a zero on one side included."""
        keys = np.concatenate((cells[keep], other_cells))
        vals = np.concatenate((mults[keep], -other_mults))
        for c in _unbalanced(keys, vals, r**3).tolist():
            found.append((kind, (c // (r * r), c // r % r, c % r)))

    compare("unit_left", i == 0, every * (r + 1), one)  # N[0, a, a] = 1
    compare("unit_right", j == 0, every * (r * r + 1), one)  # N[a, 0, a] = 1
    compare("duality_pairing", k == 0, (every * r + dual) * r, one)  # N[a, a*, 0] = 1
    # Frobenius reciprocity: N_{ij}^k = N_{i*k}^j = N_{kj*}^i, so the
    # nonzero N_{ab}^c must appear at (a*, c, b) and at (c, b*, a); each
    # permutation of the cells is built only for its own check
    def frobenius(kind, other):
        if not _same_nonzeros(other, mults, cells, mults, r**3):
            compare(kind, slice(None), other, mults)

    frobenius("frobenius_left", (dual[i] * r + k) * r + j)
    frobenius("frobenius_right", (k * r + dual[j]) * r + i)

    # sums of products N N are bounded by r * max(N)^2: int64 below 2^63,
    # Python ints above
    vals = mults if r * int(mults.max(initial=0)) ** 2 < 2**63 else mults.astype(object)
    block = np.searchsorted(cells, np.arange(r + 1) * r * r)  # nonzeros of first index m
    # Light's test (Clifford and Preston, The Algebraic Theory of Semigroups,
    # vol. 1, 1.2) takes the generators as middles.  It is exact: the a with
    # (x a) y = x (a y) for all x, y form a subalgebra, which holds the unit
    # when the unit axioms hold; holding the generators it is the whole ring
    middle = np.ones(r, dtype=bool)
    if not found:
        middle = _generators(ring, i, j, k)
        if not _associativity(ring, vals, block, i, j, k, jk, middle):
            return AxiomReport()
        middle[:] = True
    found += _associativity(ring, vals, block, i, j, k, jk, middle)
    return AxiomReport(tuple(found))


def _generators(ring: FusionRing, i, j, k) -> np.ndarray:
    """The mask of a set of objects G that generates the ring as an algebra.

    The certificate: the unit is reached, and an object is reached when it
    is the only unreached summand of X_a g or g X_a for a reached X_a and g
    in G, so every reached object lies in the subalgebra that G and the
    unit span.  While an object is unreached the least one joins G.  The
    rule is applied to every such product at once until it reaches nothing
    more: a product X_a X_b with a or b in G counts when both are reached.
    """
    r = ring.rank
    reached, gens = np.arange(r) == 0, np.zeros(r, dtype=bool)
    while not reached.all():
        c = int(np.argmin(reached))
        reached[c] = gens[c] = True
        on = np.flatnonzero(gens[i] | gens[j])  # the nonzeros of the products
        a, b, x = i[on], j[on], k[on]
        row = np.unique(a * r + b, return_inverse=True)[1]
        while True:
            pending = reached[a] & reached[b] & ~reached[x]
            alone = pending & (np.bincount(row[pending], minlength=len(row))[row] == 1)
            if not alone.any():
                break
            reached[x[alone]] = True
    return gens


def _associativity(ring: FusionRing, vals, block, i, j, k, jk, middle) -> list:
    """Every associativity witness (i, j, k, l) with `middle[j]`, in index
    order: sum_m N_{ij}^m N_{mk}^l = sum_m N_{jk}^m N_{im}^l fails there.

    The left side joins each nonzero (i, j, m) with the block of first index
    m, the right side each nonzero (i, m, l) with every (j, k, m); both go
    under the key (i, j, k, l), with opposite signs, for a batch of rows
    (i, j) at a time.  When `middle` is not every object, this is Light's
    test: when every product is 1, a batch whose sides hold the same keys
    (`_same`) has no witness, and it stops at the first batch that has one."""
    r, cells, light = ring.rank, ring.cells, not middle.all()
    # when every product is 1, a batch whose sides hold the same keys balances
    same = light and int(vals.max(initial=1)) == 1
    block_len = np.diff(block)
    mid = np.flatnonzero(middle[j])  # the nonzeros (i, j, m) with j in the middle
    mid_ij, mid_m, mid_vals = cells[mid] // r, k[mid], vals[mid]
    by_last = np.flatnonzero(middle[i])  # the (j, k, m) with j in the middle, by m
    by_last = by_last[np.argsort(k[by_last], kind="stable")]
    last_first = k[by_last] * r + i[by_last]  # their (m, j), increasing
    m0 = np.arange(r) * r  # the key (m, 0) of each m
    m_first = np.searchsorted(last_first, m0)  # the (j, k, m) of m from m_first[m] on
    m_stop = np.append(m_first[1:], len(last_first))
    ij_by_last, vals_by_last = cells[by_last] // r * r, vals[by_last]
    # batches: rows up to the first one past CHUNK products, those of
    # slice i taken as spread evenly over its rows (i, j) in the middle; keys
    # stay below 2^63
    made = np.concatenate(([0], np.cumsum(  # products before each slice
        middle[j] * block_len[k] + np.bincount(k[by_last], minlength=r)[j])))[block].tolist()
    cols, span = np.flatnonzero(middle).tolist() + [r], (2**63 - 1) // r**2
    mids = len(cols) - 1
    rows = [0]
    while rows[-1] < r * r:
        a, c = divmod(rows[-1], r)
        x = bisect_left(cols, c)  # the middles of slice a before row (a, c)
        target = made[a] + (made[a + 1] - made[a]) * x // max(mids, 1) + CHUNK
        b = bisect_right(made, target) - 1  # the slice where the batch ends
        end = r * r
        if b < r:  # at the first middle of slice b at or past the target
            end = b * r + cols[-((made[b] - target) * mids // (made[b + 1] - made[b]))]
        # past one more middle row at least, and `span` rows at most
        rows.append(min(max(end, a * r + cols[min(x + 1, mids)]), rows[-1] + span))
    found = []
    for p0, p1 in zip(rows, rows[1:]):
        s = slice(*np.searchsorted(mid_ij, (p0, p1)))  # left: (i, j, m) in the rows
        left = block_len[mid_m[s]]
        u = _segments(block[mid_m[s]], left)
        a0, a1 = p0 // r, -(-p1 // r)  # right: (i, m, l) in slices a0 to a1 - 1
        t = slice(block[a0], block[a1])
        m = j[t]
        first, stop = m_first[m], m_stop[m]  # a whole slice: the (j, k, m) of every j
        if p0 > a0 * r:  # slice a0 from row (a0, p0 - a0 r) on: bounds per m, gathered
            head = block[a0 + 1] - block[a0]
            first[:head] = np.searchsorted(last_first, m0 + (p0 - a0 * r))[m[:head]]
        if p1 < a1 * r:  # slice a1 - 1 before row (a1 - 1, p1 - (a1 - 1) r)
            tail = block[a1 - 1] - block[a0]
            stop[tail:] = np.searchsorted(last_first, m0 + (p1 - (a1 - 1) * r))[m[tail:]]
        right = stop - first
        v = _segments(first, right)
        keys = np.concatenate((
            np.repeat((mid_ij[s] - p0) * r * r, left) + jk[u],
            np.repeat((i[t] * r - p0) * r * r + k[t], right) + ij_by_last[v],
        ))
        if same and _same(keys, len(u), (p1 - p0) * r * r):
            continue
        sums = np.concatenate((np.repeat(mid_vals[s], left) * vals[u],
                               np.repeat(-vals[t], right) * vals_by_last[v]))
        for key in _unbalanced(keys, sums, (p1 - p0) * r * r).tolist():
            key += p0 * r * r
            found.append(("associativity", (key // r**3, key // (r * r) % r, key // r % r, key % r)))
        if light and found:
            break
    return found


def _same(keys, n: int, bound: int) -> bool:
    """Whether the first n keys and the rest, all in [0, bound), are one
    multiset: each half sorted alone, as 32-bit words when the bound allows."""
    if 2 * n != len(keys):
        return False
    keys = keys.astype(np.uint32 if bound <= 2**32 else np.int64)
    keys[:n].sort()
    keys[n:].sort()
    return np.array_equal(keys[:n], keys[n:])


def _same_nonzeros(cells, mults, ref_cells, ref_mults, bound: int) -> bool:
    """Whether the nonzeros (cells, mults), in any order, are (ref_cells,
    ref_mults), cells increasing, all in [0, bound), mults positive.  N - 1
    rides in the low bits of the cells through one `np.sort` when that fits
    int64, else the cells are argsorted; at most three arrays of n at once."""
    bits = int(max(mults.max(initial=1), ref_mults.max(initial=1)) - 1).bit_length()
    if bound << bits <= 2**63:
        return np.array_equal(np.sort(cells << bits | (mults - 1)), ref_cells << bits | (ref_mults - 1))
    order = np.argsort(cells)
    return np.array_equal(cells[order], ref_cells) and np.array_equal(mults[order], ref_mults)


def is_commutative(ring: FusionRing) -> bool:
    """N[i, j, k] = N[j, i, k]: the nonzeros with i and j swapped are the
    nonzeros again."""
    r, cells = ring.rank, ring.cells
    swapped = cells // (r * r) * r + cells // r % r * (r * r) + cells % r  # no i, j, k held
    return _same_nonzeros(swapped, ring.mults, cells, ring.mults, r**3)


def _sum_matrix(ring: FusionRing) -> np.ndarray:
    """M[j, k] = sum_i N[i, j, k]: symmetric by Frobenius reciprocity, and
    positive for a commutative fusion ring, whose dimensions are then its
    Perron vector, M d = (sum_i d_i) d.  Exact: every entry is at most
    r * max(N), summed in float64 below 2**53 and in Python ints above."""
    if not is_commutative(ring):
        raise UnsupportedInputError("fp_dimensions requires a commutative fusion ring")
    r = ring.rank
    jk = ring.cells % (r * r)
    if r * int(ring.mults.max(initial=0)) < 2**53:
        M = np.bincount(jk, weights=ring.mults, minlength=r * r).astype(np.int64)
    else:
        M = np.zeros(r * r, dtype=object)
        np.add.at(M, jk, ring.mults.astype(object))
    M = M.reshape(r, r)
    if not np.array_equal(M, M.T) or M.min() <= 0:
        raise MalformedInputError("sum of the fusion matrices is not symmetric and positive")
    return M


def _encode(dims, m: int):
    """dims as (A + B sqrt(t)) / D with integer vectors A, B and D > 0.

    The exact checks multiply A and B by each other and sum them against
    multiplicities in [0, m]; every such value and partial sum is at most
    r * max|A, B| * (D m + (1 + t) max|A, B|).  Below 2**53 A and B are
    float64, exact in those sums, and Python ints otherwise.
    """
    t = max(d.t for d in dims)
    if any(d.t not in (1, t) for d in dims):
        raise UnsupportedInputError("dimensions leave one quadratic field")
    D = lcm(*(x.denominator for d in dims for x in (d.a, d.b)))
    A = [d.a.numerator * (D // d.a.denominator) for d in dims]
    B = [d.b.numerator * (D // d.b.denominator) for d in dims]
    top = max(map(abs, A + B))
    dtype = np.float64 if len(dims) * top * (D * m + (1 + t) * top) < 2**53 else object
    return np.array(A, dtype=dtype), np.array(B, dtype=dtype), D, t


def _is_character(ring: FusionRing, dims, positive: bool = True) -> bool:
    """Exactly: d_i d_j = sum_k N[i, j, k] d_k for every i, j and, when
    `positive`, d_0 = 1 and every d_i > 0.  A positive character of a fusion
    ring is its Frobenius-Perron dimension (EGNO, Tensor Categories, Prop.
    3.3.6); ribbon dims may be Galois conjugates and skip that part."""
    r, cells = ring.rank, ring.cells
    A, B, D, t = _encode(dims, int(ring.mults.max(initial=0)))
    # A + B sqrt(t) takes the sign of whichever of A^2, t B^2 is larger
    if positive and not (dims[0] == ONE and np.where(A * A > t * B * B, A > 0, B > 0).all()):
        return False
    # blocks of first index, each ending at the last i that keeps it within
    # CHUNK nonzeros, or after one index
    starts = np.searchsorted(cells, np.arange(r + 1) * r * r).tolist()
    ends = [0]
    while ends[-1] < r:
        top = bisect_right(starts, starts[ends[-1]] + CHUNK) - 1
        ends.append(max(top, ends[-1] + 1))
    for i0, i1 in zip(ends, ends[1:]):
        part = slice(starts[i0], starts[i1])
        ij, k = np.divmod(cells[part] - i0 * r * r, r)
        mults, size = ring.mults[part], (i1 - i0) * r

        def contract(x):  # sum_k N[i, j, k] x_k, raveled over the (i, j) of the block
            if x.dtype != object:
                return np.bincount(ij, weights=mults * x[k], minlength=size)
            out = np.zeros(size, dtype=object)
            np.add.at(out, ij, mults.astype(object) * x[k])
            return out

        a, b = A[i0:i1], B[i0:i1]
        if not (np.array_equal(D * contract(A), (np.outer(a, A) + t * np.outer(b, B)).ravel())
                and np.array_equal(D * contract(B), (np.outer(a, B) + np.outer(b, A)).ravel())):
            return False
    return True


def _eigh_dims(M: np.ndarray) -> np.ndarray:
    top = np.abs(np.linalg.eigh(M.astype(np.float64))[1][:, -1])
    return top / top[0]


def fp_dimensions(ring: FusionRing) -> np.ndarray:
    """Frobenius-Perron dimension of every simple object: the attached exact
    dims once `exact_dimensions` has checked them, or else the top
    eigenvector of M from one `eigh`, normalized to d_0 = 1."""
    if ring.exact_dims is None:
        return _eigh_dims(_sum_matrix(ring))
    return np.array([float(d) for d in exact_dimensions(ring)])


def exact_dimensions(ring: FusionRing) -> tuple[AlgebraicReal, ...]:
    """The exact Frobenius-Perron dimensions: the attached dims, or else
    sqrt(round(d^2)) of the eigenvector, either kept only when it is a
    positive character of the ring.  The ring keeps the dims that pass, and
    later calls return them unchecked; a failed check keeps nothing, so
    every call raises again."""
    if ring._checked_dims is None:
        if ring.exact_dims is not None:
            dims = ring.exact_dims
            if not _is_character(ring, dims):
                raise InternalConsistencyError("exact dimensions are not a positive character")
        else:
            dims = tuple(AlgebraicReal.sqrt(round(x * x)) for x in _eigh_dims(_sum_matrix(ring)))
            if not _is_character(ring, dims):
                raise UnsupportedInputError("ring is not weakly integral")
        object.__setattr__(ring, "_checked_dims", dims)
    return ring._checked_dims


def _distinct(dims) -> tuple[list, list[int]]:
    """The distinct values among `dims`, in order of first appearance, and
    for each entry the position of its value there.  An object that several
    entries share is hashed once, so the dims of a built ring, which share
    one object per value, cost a few hashes."""
    objects = {}
    for d in dims:
        objects.setdefault(id(d), d)
    values = {}
    position = {at: values.setdefault(d, len(values)) for at, d in objects.items()}
    return list(values), [position[id(d)] for d in dims]


def hom_space_dim(ring: FusionRing, word: list[int], target: int) -> int:
    """Multiplicity of X_target in the ordered product of the word.

    Exact integer arithmetic (tensor powers overflow int64 quickly).
    """
    try:
        word = list(word)
    except TypeError:
        raise MalformedInputError(f"tensor word {word!r:.80} is not an iterable of indices") from None
    if not word:
        raise MalformedInputError("tensor word must be nonempty")
    _check_indices(ring, *word, target)
    v = {word[0]: 1}
    for w in word[1:]:
        nxt: dict[int, int] = {}
        for a, va in v.items():
            for k, m in zip(*(x.tolist() for x in ring.row(a, w))):
                nxt[k] = nxt.get(k, 0) + va * m
        v = nxt
    return v.get(target, 0)


def asymptotic_dim_ratio(ring: FusionRing, i: int, n: int) -> float:
    """dim Hom(1, X^(kn)) / dim Hom(1, X^(k(n-1))) for X = X_i, k the least
    power with Hom(1, X^k) != 0: the growth of invariants over one period,
    which tends to d_i^k, not d_i^2.  The spinors of SO(N)_2 with N = 2
    mod 4 have k = 4, so SO(6)_2's V+ (d = sqrt(3)) gives 9."""
    if type(n) is not int or n < 2:
        raise MalformedInputError(f"asymptotic ratio needs an int n >= 2, got {n!r:.80}")
    k = next((k for k in range(1, ring.rank + 1) if hom_space_dim(ring, [i] * k, 0) > 0), None)
    if k is None:
        raise DegenerateInputError(
            f"no tensor power of {ring.labels[i]} up to the rank contains the unit"
        )
    hi = hom_space_dim(ring, [i] * (k * n), 0)
    lo = hom_space_dim(ring, [i] * (k * (n - 1)), 0)
    if lo == 0:
        raise DegenerateInputError("vanishing invariants at the detected period")
    return float(Fraction(hi, lo))


# ---------------------------------------------------------------------------
# invertibles and subrings


@dataclass(frozen=True)
class InvertibleGroup:
    """The invertible objects, increasing, and their fusion group law:
    elements[table[a][b]] = elements[a] (x) elements[b]."""

    elements: tuple[int, ...]
    table: tuple[tuple[int, ...], ...]

    def invariant_factors(self) -> list[int]:
        # the unit, object 0, is the first element
        return list(decompose(self.table, 0)[0])


def invertibles(ring: FusionRing) -> InvertibleGroup:
    """The objects X with X (x) X* = 1, and their group law."""
    r = ring.rank
    i, j, k = ring.nonzero()
    pairing = j == np.asarray(ring.dual)[i]
    # X (x) X* = 1 exactly when that product has one nonzero, of multiplicity 1
    inv = (np.bincount(i[pairing], minlength=r) == 1) & (
        np.bincount(i[pairing & (ring.mults == 1)], minlength=r) == 1
    )
    elems = tuple(np.flatnonzero(inv).tolist())
    # a group law: every product of two invertibles is one invertible, once
    among = inv[i] & inv[j]
    pairs = (i * r + j)[among]
    if (
        len(pairs) != len(elems) ** 2
        or np.any(pairs[1:] == pairs[:-1])
        or np.any(ring.mults[among] != 1)
        or not inv[k[among]].all()
    ):
        raise InternalConsistencyError("invertible objects are not closed under fusion")
    pos = np.cumsum(inv) - 1
    table = np.empty((len(elems), len(elems)), dtype=np.int64)
    table[pos[i[among]], pos[j[among]]] = pos[k[among]]
    return InvertibleGroup(elems, tuple(map(tuple, table.tolist())))


def subring_generated(ring: FusionRing, seeds) -> tuple[int, ...]:
    """Smallest fusion- and dual-closed sub-basis containing the unit and seeds."""
    _check_indices(ring, *seeds)
    i, j, k = ring.nonzero()
    dual = np.asarray(ring.dual)
    current = np.zeros(ring.rank, dtype=bool)
    current[[0, *seeds]] = True
    while True:
        new = current.copy()
        new[k[current[i] & current[j]]] = True
        new |= new[dual]
        if np.array_equal(new, current):
            return tuple(np.flatnonzero(current).tolist())
        current = new


def adjoint_subring(ring: FusionRing) -> tuple[int, ...]:
    """Sub-basis generated by all X (x) X*."""
    i, j, k = ring.nonzero()
    seeds = np.zeros(ring.rank, dtype=bool)
    seeds[k[j == np.asarray(ring.dual)[i]]] = True
    return subring_generated(ring, np.flatnonzero(seeds).tolist())


# ---------------------------------------------------------------------------
# gradings


@dataclass(frozen=True)
class Grading:
    """Faithful grading: invariant factors of the group and the degree of
    each simple object as an exponent tuple."""

    group: tuple[int, ...]
    assignment: tuple[tuple[int, ...], ...]

    def components(self) -> dict[tuple[int, ...], tuple[int, ...]]:
        out: dict[tuple[int, ...], list[int]] = {}
        for i, g in enumerate(self.assignment):
            out.setdefault(g, []).append(i)
        return {g: tuple(v) for g, v in out.items()}

    @property
    def order(self) -> int:
        return prod(self.group)


def universal_grading(ring: FusionRing) -> Grading:
    """Finest faithful grading; trivial component = adjoint subring."""
    r = ring.rank
    adj = adjoint_subring(ring)
    i, j, k = ring.nonzero()

    # X_i and X_k share a component when N[i, a, k] > 0 for an adjoint a;
    # every object takes the least label it is joined to, until none moves
    in_adj = np.zeros(r, dtype=bool)
    in_adj[list(adj)] = True
    left, right = i[in_adj[j]], k[in_adj[j]]
    label = np.arange(r)
    while True:
        new = label.copy()
        np.minimum.at(new, left, label[right])
        np.minimum.at(new, right, label[left])
        new = new[new]
        if np.array_equal(new, label):
            break
        label = new
    # components numbered in the order of their least objects
    root = np.zeros(r, dtype=bool)
    root[label] = True
    comp = (np.cumsum(root) - 1)[label]
    n_comp = int(comp.max()) + 1

    if not np.array_equal(np.flatnonzero(comp == comp[0]), adj):
        raise InternalConsistencyError("trivial component differs from adjoint subring")

    # the component product table from the distinct (c_i, c_j, c_k)
    triples = np.sort((comp[i] * n_comp + comp[j]) * n_comp + comp[k])
    triples = triples[np.diff(triples, prepend=-1) != 0]
    counts = np.bincount(triples // n_comp, minlength=n_comp * n_comp)
    if np.any(counts != 1):
        c1, c2 = divmod(int(np.flatnonzero(counts != 1)[0]), n_comp)
        raise InternalConsistencyError(
            f"component product not well defined for components {c1}, {c2}"
        )
    table = (triples % n_comp).reshape(n_comp, n_comp).tolist()

    invs, comp_assign = decompose(table, int(comp[0]))
    return Grading(group=invs, assignment=tuple(comp_assign[c] for c in comp.tolist()))


def gn_grading(ring: FusionRing) -> Grading:
    """Grading by square-free parts of squared dimensions (elementary 2-group)."""
    dims, of = _distinct(exact_dimensions(ring))
    parts = []  # per distinct dimension
    for d in dims:
        sq = d.squared()
        if not sq.is_rational or sq.a.denominator != 1:
            raise UnsupportedInputError("ring is not weakly integral")
        parts.append(squarefree_part(int(sq.a)))

    values = sorted(set(parts))
    pos = {t: n for n, t in enumerate(values)}
    table = [[-1] * len(values) for _ in values]
    for t1 in values:
        for t2 in values:
            t3 = squarefree_part(t1 * t2)
            if t3 not in pos:
                raise InternalConsistencyError("square-free parts are not closed")
            table[pos[t1]][pos[t2]] = pos[t3]
    invs, comp_assign = decompose(table, pos[1])
    return Grading(group=invs, assignment=tuple(comp_assign[pos[parts[v]]] for v in of))
