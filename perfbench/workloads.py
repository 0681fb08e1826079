"""The four benchmark workloads: seeded, stratified inputs and the op list
each one runs, with every answer checked against a closed form.

A workload is a list of groups; a group is a list of ops on one subject
(one N, one metric group, one CLI script) that share a small state dict, so
a built ring is passed to the census op without being part of its timing.
Ops are independent: an op whose input is missing because an earlier op
failed builds that input in an untimed `prep` step, so one failure never
skips later work.

Expectations come from closed forms of the metaplectic family and from
brute force written here, never from the package's own answer:
rank and sector counts, global dimension 4N, grading groups, the
`count_metaplectic` formula, 2 ** s forms per cyclic group, the Ising x Ising
Gauss sums and its 20 classes, the violation kinds of a corrupted ring, and
the CLI exit-code contract (0 ok, 1 check failed, 2 usage/input error).
"""

from __future__ import annotations

import ast
import cmath
import json
import math
import os
import random
import subprocess
import sys
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import product
from typing import Any, Callable

import numpy as np

from modcat import (
    FusionRing,
    InternalConsistencyError,
    RedirectError,
    Z2Module,
    based_ring_isomorphism,
    boson_fermion_census,
    build_so_n2,
    condense_boson,
    count_metaplectic,
    fp_dimensions,
    gauge_particle_hole,
    gauss_sums,
    gn_grading,
    is_modular,
    ising_squared_data,
    muger_center,
    s_matrix,
    sixteen_m_component_census,
    structure_census,
    universal_grading,
    verify_axioms,
    z2_cohomology,
)
from modcat.catalog import IsingParams
from modcat.metric import (
    classify_forms,
    enumerate_cyclic_metric_groups,
    enumerate_forms,
    form_preserving_autos,
    pointed_ribbon_data,
)

# ---------------------------------------------------------------------------
# ops


@dataclass(frozen=True)
class KnownDefect:
    """A failure the program shows today, listed so that it is counted as a
    failed op without marking the run incorrect."""

    name: str
    description: str
    matches: Callable[[Any, BaseException | None], bool]


@dataclass
class Op:
    id: str
    span: str  # "<layer>.<function>", the span the traced run records
    call: Callable[[dict], Any]  # the timed part
    check: Callable[[Any, dict], str | None]  # None when the answer is right
    needs: tuple[str, ...] = ()  # state keys the group's prep supplies if missing
    keep: Callable[[Any, dict], None] | None = None  # store a correct result
    defect: KnownDefect | None = None
    attrs: Callable[[Any, dict], dict] | None = None  # span counters, traced run only


@dataclass
class Group:
    subject: str
    ops: list[Op]
    prep: dict[str, Callable[[dict], Any]] = field(default_factory=dict)


@dataclass
class Workload:
    name: str
    inputs: dict  # the generated inputs, printed so a run can be reproduced
    groups: list[Group]


def _keep(key: str):
    def keep(result, state):
        state[key] = result
    return keep


def _expect(want):
    def check(got, state):
        return None if got == want else f"got {got!r}, expected {want!r}"
    return check


def _raises(exc_type, fn, *args):
    """Call fn; an exception of exc_type is the expected answer and is returned."""
    try:
        return fn(*args)
    except exc_type as exc:
        return exc


FP_FALSE_ALARM = KnownDefect(
    "fp_dimensions_false_inconsistency",
    "fp_dimensions raises InternalConsistencyError ('exact dimension ... disagrees "
    "with eigenvector') at some N >= 433: power iteration stops before the "
    "eigenvector error drops under FP_TOL",
    lambda result, err: isinstance(err, InternalConsistencyError)
    and "disagrees with eigenvector" in str(err),
)
CLI_MALFORMED_JSON = KnownDefect(
    "cli_malformed_json_traceback",
    "modcat verify --ring <malformed JSON> exits 1 with a JSONDecodeError "
    "traceback; the exit-code contract says 2",
    lambda run, err: err is None and run.exit == 1 and run.traceback,
)
CLI_MISSING_KEY = KnownDefect(
    "cli_missing_key_traceback",
    "modcat verify --ring <JSON without 'fusion'> exits 1 with a KeyError "
    "traceback; the exit-code contract says 2",
    lambda run, err: err is None and run.exit == 1 and run.traceback,
)
FP_DEFECT_FROM = 433


# ---------------------------------------------------------------------------
# closed forms


def factorize(n: int) -> dict[int, int]:
    out: dict[int, int] = {}
    p = 2
    while p * p <= n:
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
        p += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def is_prime(n: int) -> bool:
    return n > 1 and factorize(n) == {n: 1}


@dataclass(frozen=True)
class Shape:
    """Sector counts of SO(N)_2: invertibles, dimension-2 objects and
    spinors of squared dimension N (odd N) or N/2 (even N)."""

    n: int
    inv: int
    dim2: int
    spin: int
    spinor_sq: int

    @classmethod
    def of(cls, n: int) -> "Shape":
        if n % 2:
            return cls(n, 2, (n - 1) // 2, 2, n)
        return cls(n, 4, n // 2 - 1, 4, n // 2)

    @property
    def rank(self) -> int:
        return self.inv + self.dim2 + self.spin

    def dims_sq(self) -> Counter:
        return Counter({1: self.inv}) + Counter({4: self.dim2}) + Counter({self.spinor_sq: self.spin})

    def dims(self) -> list[float]:
        return sorted([1.0] * self.inv + [2.0] * self.dim2 + [math.sqrt(self.spinor_sq)] * self.spin)

    def universal_group(self) -> tuple[int, ...]:
        if self.n % 2:
            return (2,)
        return (2, 2) if self.n % 4 == 0 else (4,)

    def gn_group(self) -> tuple[int, ...]:
        return () if math.isqrt(self.spinor_sq) ** 2 == self.spinor_sq else (2,)


def rank_of(n: int) -> int:
    return Shape.of(n).rank


def expected_count(n: int) -> int:
    """2^(s+1+a) for a <= 1 and 3 * 2^(s+2) for a > 1, N = 2^a * (s odd primes)."""
    fac = factorize(n)
    a = fac.get(2, 0)
    s = len([p for p in fac if p != 2])
    return 2 ** (s + 1 + a) if a <= 1 else 3 * 2 ** (s + 2)


def expected_cyclic_forms(n: int) -> int:
    """Classes of nondegenerate forms on Z_n: 2 per odd prime, and 2 or 4 for
    the 2-part 2 or 2^k (k >= 2)."""
    out = 1
    for p, k in factorize(n).items():
        out *= 4 if p == 2 and k >= 2 else 2
    return out


def cyclic_radical(n: int, q1: Fraction) -> int:
    """Size of the radical of sigma(a, b) = 2 q(1) a b on Z_n."""
    return n // ((2 * q1) % 1).denominator


def _dims_sq(ring: FusionRing) -> Counter:
    return Counter(round(float(d) ** 2) for d in ring.exact_dims)


def _close(xs, ys, tol=1e-7) -> bool:
    return len(xs) == len(ys) and all(abs(x - y) <= tol * max(1.0, abs(y)) for x, y in zip(xs, ys))


# Nondegenerate metric-group classes on small non-cyclic groups: Z2^2 has the
# five of Wall's list (toric code, three-fermion, and the three semion
# products); Z3^2 has two (discriminant square or not); Z2 x Z6 splits as
# Z2^2 (+) Z3 into 5 * 2; Z2 x Z4 has 2 * 4 orthogonal sums identified in
# pairs by Wall's relation A_2^u (+) A_4^v = A_2^(u+2v) (+) A_4^(v+2u),
# leaving the four Gauss-sum phases.
SMALL_CLASSES = {(2, 2): 5, (3, 3): 2, (2, 4): 4, (2, 6): 10}


def _elements(facs):
    return list(product(*(range(d) for d in facs)))


def _index(a, facs) -> int:
    idx = 0
    for c, d in zip(a, facs):
        idx = idx * d + c
    return idx


def brute_autos(facs, q) -> set[tuple[int, ...]]:
    """Form-preserving automorphisms by generator images, as index tuples."""
    elems = _elements(facs)

    def images_ok(x, d):
        return all((c * d) % f == 0 for c, f in zip(x, facs))

    out = set()
    for imgs in product(*([x for x in elems if images_ok(x, d)] for d in facs)):
        perm = tuple(
            _index(tuple(sum(c * g[i] for c, g in zip(a, imgs)) % facs[i] for i in range(len(facs))), facs)
            for a in elems
        )
        if len(set(perm)) == len(elems) and all(q[perm[i]] == q[i] for i in range(len(elems))):
            out.add(perm)
    return out


def nondegenerate(facs, q) -> bool:
    elems = _elements(facs)

    def qa(a):
        return q[_index(tuple(x % d for x, d in zip(a, facs)), facs)]

    for a in elems[1:]:
        if all((qa(tuple(x + y for x, y in zip(a, b))) - qa(a) - qa(b)) % 1 == 0 for b in elems):
            return False
    return True


# ---------------------------------------------------------------------------
# strata


def _pick(rng: random.Random, xs):
    xs = list(xs)
    if not xs:
        raise ValueError("empty stratum")
    return rng.choice(xs)


def _in_class(n: int, cls: str) -> bool:
    return {"0mod4": n % 4 == 0, "2mod4": n % 4 == 2, "odd": n % 2 == 1}[cls]


CLASSES = ("0mod4", "2mod4", "odd")


def _n_with_rank(cls: str, lo: int, hi: int) -> list[int]:
    """N of one residue class whose SO(N)_2 rank lies in [lo, hi]."""
    return [n for n in range(5, 2 * hi + 1) if _in_class(n, cls) and lo <= rank_of(n) <= hi]


def _corruption(rng: random.Random, rank: int) -> tuple[int, int, int]:
    # three distinct non-unit indices: the entry and both of its Frobenius
    # partners differ, so reciprocity must break on both sides
    return tuple(rng.sample(range(1, rank), 3))


# ---------------------------------------------------------------------------
# axioms_ladder


def _corrupt(ring: FusionRing, where) -> FusionRing:
    fusion = ring.fusion.copy()
    fusion[where] += 1
    return FusionRing(ring.labels, ring.dual, fusion)


def _ladder_group(n: int, corrupt_at) -> Group:
    shape = Shape.of(n)
    tag = f"ax.n{n}"

    def check_build(ring, st):
        if ring.rank != shape.rank:
            return f"rank {ring.rank}, expected {shape.rank}"
        if _dims_sq(ring) != shape.dims_sq():
            return f"squared dims {dict(_dims_sq(ring))}, expected {dict(shape.dims_sq())}"
        return None

    def roundtrip(st):
        return FusionRing.loads(st["ring"].dumps())

    def check_json(rt, st):
        ring = st["ring"]
        same = (rt.labels == ring.labels and rt.dual == ring.dual
                and rt.exact_dims == ring.exact_dims and np.array_equal(rt.fusion, ring.fusion))
        return None if same else "JSON round trip changed the ring"

    def check_verify(report, st):
        kinds = {k for k, _ in report.violations}
        if corrupt_at is None:
            return None if not kinds else f"violations {sorted(kinds)} on a valid ring"
        want = {"frobenius_left", "frobenius_right"}
        if not want <= kinds <= want | {"associativity"}:
            return f"violation kinds {sorted(kinds)}, expected {sorted(want)} (+ associativity)"
        return None

    def check_dims(dims, st):
        return None if _close(sorted(dims), shape.dims()) else "dimensions differ from 1, 2, sqrt(N')"

    def verify_attrs(report, st):
        r = st["subject"].rank
        return {"rank": r, "assoc_mb": 2 * r**4 * 8 / 1e6,
                "corrupted": int(corrupt_at is not None),
                "corrupt_detected": int(corrupt_at is not None and not report.ok)}

    prep = {
        "ring": lambda st: build_so_n2(n),
        "rt": lambda st: roundtrip(st | {"ring": st.get("ring") or build_so_n2(n)}),
        "subject": lambda st: st["rt"] if corrupt_at is None else _corrupt(st["rt"], corrupt_at),
    }
    ops = [
        Op(f"{tag}.build", "catalog.build_so_n2", lambda st: build_so_n2(n), check_build,
           keep=_keep("ring"), attrs=_build_attrs),
        Op(f"{tag}.json", "ring.json", roundtrip, check_json, needs=("ring",), keep=_keep("rt")),
        Op(f"{tag}.verify", "ring.verify_axioms", lambda st: verify_axioms(st["subject"]),
           check_verify, needs=("rt", "subject"), attrs=verify_attrs),
        Op(f"{tag}.dims", "ring.fp_dimensions", lambda st: fp_dimensions(st["rt"]), check_dims,
           needs=("rt",), defect=FP_FALSE_ALARM if n >= FP_DEFECT_FROM else None),
    ]
    return Group(f"N={n}" + (f" corrupted at {corrupt_at}" if corrupt_at else ""), ops, prep)


def _build_attrs(ring, st):
    r = ring.rank
    return {"rank": r, "dense_mb": r**3 * 8 / 1e6,
            "nnz": int(np.count_nonzero(ring.fusion)), "cells": r**3}


# rank windows per residue class; cost grows like rank^5, so the costly
# windows are narrow and the seed moves the run's length by a few percent
LADDER_WINDOWS = [(8, 20), (22, 32), (36, 39), (45, 46)]
LADDER_TOP_RANK = 62  # N = 110 (2 mod 4) or 117 (odd): 236 MB of r^4 tensors
LADDER_TINY = [(8, 12), (13, 16)]


def axioms_ladder(seed: int, tiny: bool = False) -> Workload:
    rng = random.Random(f"axioms_ladder:{seed}")
    rungs = []  # (n, corrupt)
    windows = LADDER_TINY if tiny else LADDER_WINDOWS
    for w, (lo, hi) in enumerate(windows):
        corrupt_cls = _pick(rng, CLASSES) if w < 3 else None
        for cls in CLASSES:
            rungs.append((_pick(rng, _n_with_rank(cls, lo, hi)), cls == corrupt_cls))
    if not tiny:
        # first in the pass, so that the peak RSS it sets does not depend on
        # what the smaller rungs left in the heap
        top = [n for cls in CLASSES for n in _n_with_rank(cls, LADDER_TOP_RANK, LADDER_TOP_RANK)]
        rungs.insert(0, (_pick(rng, top), False))
    groups, inputs = [], []
    for n, corrupt in rungs:
        where = _corruption(rng, rank_of(n)) if corrupt else None
        groups.append(_ladder_group(n, where))
        inputs.append({"n": n, "rank": rank_of(n), "corrupt": where})
    return Workload("axioms_ladder", {"rungs": inputs}, groups)


# ---------------------------------------------------------------------------
# catalog_sweep


def _catalog_group(n: int, full: bool) -> Group:
    shape = Shape.of(n)
    tag = f"cat.n{n}"
    ring = lambda st: st["ring"]  # noqa: E731

    def check_build(r, st):
        if r.rank != shape.rank or _dims_sq(r) != shape.dims_sq():
            return f"rank {r.rank} / squared dims differ from the SO({n})_2 sector table"
        return None

    def check_census(c, st):
        got = (c.rank, c.invertible_count, c.dim2_count, c.spinor_count)
        want = (shape.rank, shape.inv, shape.dim2, shape.spin)
        if got != want:
            return f"census {got}, expected {want}"
        if c.spinor_dim is None or round(float(c.spinor_dim) ** 2) != shape.spinor_sq:
            return f"spinor dimension {c.spinor_dim}, expected sqrt({shape.spinor_sq})"
        return None if not c.mismatches else f"mismatches {c.mismatches}"

    def check_ug(g, st):
        if g.group != shape.universal_group():
            return f"group {g.group}, expected {shape.universal_group()}"
        comps = g.components().values()
        share = 4 * n / g.order
        dims = st["ring"].exact_dims
        if len(comps) != g.order or any(abs(sum(float(dims[i]) ** 2 for i in c) - share) > 1e-6 * n
                                        for c in comps):
            return f"components are not {g.order} of dimension {share}"
        return None

    def check_gn(g, st):
        if g.group != shape.gn_group():
            return f"group {g.group}, expected {shape.gn_group()}"
        sizes = sorted(len(c) for c in g.components().values())
        want = [shape.rank] if g.group == () else sorted([shape.inv + shape.dim2, shape.spin])
        return None if sizes == want else f"component sizes {sizes}, expected {want}"

    boson = "fg" if n % 4 == 0 else "Z"

    def check_condense(rep, st):
        got = (rep.group_order, rep.is_cyclic, rep.ambiguous)
        if got != (n, True, False) or abs(rep.total_dim - 2 * n) > 1e-6 * n:
            return f"(order, cyclic, ambiguous, dim) = {got + (rep.total_dim,)}, expected ({n}, True, False, {2 * n})"
        return None

    ops = [
        Op(f"{tag}.build", "catalog.build_so_n2", lambda st: build_so_n2(n), check_build,
           keep=_keep("ring"), attrs=_build_attrs),
        Op(f"{tag}.census", "catalog.structure_census", lambda st: structure_census(ring(st), n),
           check_census, needs=("ring",),
           defect=FP_FALSE_ALARM if n >= FP_DEFECT_FROM else None),
        Op(f"{tag}.gn", "ring.gn_grading", lambda st: gn_grading(ring(st)), check_gn, needs=("ring",)),
    ]
    if full:
        ops += [
            Op(f"{tag}.ug", "ring.universal_grading", lambda st: universal_grading(ring(st)),
               check_ug, needs=("ring",)),
            Op(f"{tag}.condense", "gauging.condense_boson",
               lambda st: condense_boson(ring(st), ring(st).index(boson)), check_condense,
               needs=("ring",)),
        ]
    if full and n % 4 == 0:
        verdict = "boson" if n % 8 == 0 else "fermion"
        ops.append(Op(f"{tag}.bf", "catalog.boson_fermion_census",
                      lambda st: boson_fermion_census(n),
                      _expect({"fg": "boson", "f": verdict, "g": verdict})))
    return Group(f"N={n}", ops, {"ring": lambda st: build_so_n2(n)})


def _iso_group(n: int) -> Group:
    """The hand-coded 4 | N ring against the particle-hole gauging route."""
    shape = Shape.of(n)

    def check_gauge(g, st):
        ok = g.rank == shape.rank and _dims_sq(g) == shape.dims_sq()
        return None if ok else f"gauged ring has rank {g.rank}, expected {shape.rank}"

    def check_iso(phi, st):
        if phi is None:
            return "no isomorphism found between the two constructions"
        perm = np.array(phi)
        same = np.array_equal(st["ring"].fusion[np.ix_(perm, perm, perm)], st["gauged"].fusion)
        return None if same else "returned map does not carry one fusion tensor onto the other"

    prep = {
        "mg": lambda st: enumerate_cyclic_metric_groups(n)[0],
        "ring": lambda st: build_so_n2(n),
        "gauged": lambda st: gauge_particle_hole(st["mg"]),
    }
    ops = [
        Op(f"iso.n{n}.gauge", "gauging.gauge_particle_hole", lambda st: gauge_particle_hole(st["mg"]),
           check_gauge, needs=("mg",), keep=_keep("gauged")),
        Op(f"iso.n{n}.iso", "catalog.based_ring_isomorphism",
           lambda st: based_ring_isomorphism(st["gauged"], st["ring"]), check_iso,
           needs=("mg", "gauged", "ring"), attrs=lambda phi, st: {"found": int(phi is not None)}),
    ]
    return Group(f"iso N={n}", ops, prep)


def _sixteen_m_group(m: int) -> Group:
    def check(rep, st):
        got = (rep["ok"], rep["n"], rep["rank"], round(float(rep["spinor_dim"]) ** 2))
        want = (True, 4 * m, 2 * m + 7, 2 * m)
        return None if got == want else f"(ok, n, rank, spinor_dim^2) = {got}, expected {want}"

    op = Op(f"16m.m{m}", "catalog.sixteen_m_component_census",
            lambda st: sixteen_m_component_census(m), check)
    return Group(f"m={m}", [op])


# N windows per residue class; the costly windows are narrow, and the two
# construction routes (hand-coded 4 | N, gauging otherwise) differ in cost,
# so every window holds one N of each class
CATALOG_WINDOWS = [(10, 40), (90, 110), (196, 204)]
# near 600 the dense r^3 tensor is ~230 MB and these rings set the peak RSS,
# which moves by 8 % with the even N drawn (heap layout left by one build
# under the next), so the even classes have one N each and the seed draws
# the odd one
CATALOG_FAR = {"0mod4": (600, 600), "2mod4": (602, 602), "odd": (597, 603)}
CATALOG_ISO = (88, 100)
SIXTEEN_M = {"prime": (11, 19), "two_primes": (33, 35)}
CATALOG_TINY = [(10, 20)]


def _odd_squarefree(lo, hi, primes):
    return [m for m in range(lo, hi + 1) if m % 2 and all(k == 1 for k in factorize(m).values())
            and len(factorize(m)) == primes]


def catalog_sweep(seed: int, tiny: bool = False) -> Workload:
    rng = random.Random(f"catalog_sweep:{seed}")
    sweep = [_pick(rng, [n for n in range(lo, hi + 1) if _in_class(n, cls)])
             for lo, hi in (CATALOG_TINY if tiny else CATALOG_WINDOWS) for cls in CLASSES]
    far = [] if tiny else [
        _pick(rng, [n for n in range(CATALOG_FAR[cls][0], CATALOG_FAR[cls][1] + 1) if _in_class(n, cls)])
        for cls in CLASSES
    ]
    lo, hi = (8, 16) if tiny else CATALOG_ISO
    iso_n = _pick(rng, range(lo, hi + 1, 4))
    ms = [_pick(rng, _odd_squarefree(*((3, 7) if tiny else SIXTEEN_M["prime"]), 1)),
          _pick(rng, _odd_squarefree(*((15, 15) if tiny else SIXTEEN_M["two_primes"]), 2))]
    # the dense near-600 rings first, so that the peak RSS they set does not
    # depend on what smaller ops left in the heap
    groups = [_catalog_group(n, False) for n in far]
    groups += [_catalog_group(n, True) for n in sweep]
    groups.append(_iso_group(iso_n))
    groups += [_sixteen_m_group(m) for m in ms]
    inputs = {"sweep": sweep, "near_600": far, "isomorphism_n": iso_n, "sixteen_m": ms}
    return Workload("catalog_sweep", inputs, groups)


# ---------------------------------------------------------------------------
# forms_sweep


def _cyclic_enum_group(n: int, autos: bool) -> Group:
    want = expected_cyclic_forms(n)

    def check(forms, st):
        if len(forms) != want:
            return f"{len(forms)} forms, expected {want}"
        if any(mg.facs != (n,) or cyclic_radical(n, mg.q[1]) != 1 for mg in forms):
            return "a form is not a nondegenerate form on Z_n"
        return None

    ops = [Op(f"ecmg.n{n}", "metric.enumerate_cyclic_metric_groups",
              lambda st: enumerate_cyclic_metric_groups(n), check, keep=_keep("forms"),
              attrs=lambda forms, st: {"forms": len(forms), "elements": len(forms) * n})]
    prep = {"forms": lambda st: enumerate_cyclic_metric_groups(n)}
    if autos:
        units = [u for u in range(1, n) if math.gcd(u, n) == 1]
        for k in range(want):
            def call(st, k=k):
                return form_preserving_autos(st["forms"][k])

            def check_autos(result, st, k=k):
                q = st["forms"][k].q
                good = {tuple((u * a) % n for a in range(n)) for u in units if q[u] == q[1]}
                return None if set(result) == good else f"{len(result)} autos, expected {len(good)}"

            ops.append(Op(f"autos.n{n}.f{k}", "metric.form_preserving_autos", call, check_autos,
                          needs=("forms",), attrs=lambda r, st: {"autos": len(r)}))
    return Group(f"Z_{n}", ops, prep)


def _small_forms_group(facs) -> Group:
    tag = "forms." + "x".join(map(str, facs))

    def check_enum(forms, st):
        bad = [mg for mg in forms if not nondegenerate(facs, mg.q)]
        return None if forms and not bad else f"{len(bad)} degenerate forms returned"

    def check_classes(classes, st):
        if len(classes) != SMALL_CLASSES[facs]:
            return f"{len(classes)} classes, expected {SMALL_CLASSES[facs]}"
        if any(len({tuple(sorted(m.q)) for m in cls}) != 1 for cls in classes):
            return "a class mixes forms with different value multisets"
        return None

    prep = {
        "forms": lambda st: enumerate_forms(facs),
        "classes": lambda st: classify_forms(st["forms"]),
    }
    ops = [
        Op(f"{tag}.enum", "metric.enumerate_forms", lambda st: enumerate_forms(facs), check_enum,
           keep=_keep("forms")),
        Op(f"{tag}.classify", "metric.classify_forms", lambda st: classify_forms(st["forms"]),
           check_classes, needs=("forms",), keep=_keep("classes"),
           attrs=lambda c, st: {"classes": len(c)}),
    ]
    for k in range(SMALL_CLASSES[facs]):
        def call(st, k=k):
            return form_preserving_autos(st["classes"][k][0])

        def check(result, st, k=k):
            want = brute_autos(facs, st["classes"][k][0].q)
            return None if set(result) == want else f"{len(result)} autos, expected {len(want)}"

        ops.append(Op(f"{tag}.autos{k}", "metric.form_preserving_autos", call, check,
                      needs=("forms", "classes"), attrs=lambda r, st: {"autos": len(r)}))
    return Group(f"forms on {facs}", ops, prep)


def _pointed_groups(n: int, picks) -> list[Group]:
    """Forms on Z_n, degenerate ones too: modular iff nondegenerate."""
    groups = []
    forms = enumerate_forms((n,), nondegenerate_only=False)
    for k in picks:
        mg = forms[k]
        radical = cyclic_radical(n, mg.q[1])
        tag = f"pointed.n{n}.f{k}"

        def check_rd(rd, st):
            return None if rd.ring.rank == n else f"rank {rd.ring.rank}, expected {n}"

        ops = [
            Op(f"{tag}.data", "metric.pointed_ribbon_data", lambda st, mg=mg: pointed_ribbon_data(mg),
               check_rd, keep=_keep("rd")),
            Op(f"{tag}.modular", "modular.is_modular", lambda st: is_modular(st["rd"]),
               _expect(radical == 1), needs=("rd",)),
            Op(f"{tag}.muger", "modular.muger_center", lambda st: len(muger_center(st["rd"])),
               _expect(radical), needs=("rd",)),
        ]
        groups.append(Group(f"Z_{n} form {k}", ops, {"rd": lambda st, mg=mg: pointed_ribbon_data(mg)}))
    return groups


def _ising_group(nu1: int, nu2: int) -> Group:
    # tau_+ of Ising^nu is 2 e^{i pi nu / 8}, so the product has 4 e^{i pi (nu1+nu2) / 8}
    tau = 4 * cmath.exp(1j * math.pi * (nu1 + nu2) / 8)

    def check_s(S, st):
        m = S.entries
        ok = np.allclose(m, m.T, atol=1e-9) and np.allclose(m @ m.conj().T, 16 * np.eye(9), atol=1e-9)
        return None if ok else "S is not symmetric with S S^* = D^2 I"

    def check_gauss(sums, st):
        ok = abs(sums[0] - tau) < 1e-9 and abs(sums[1] - tau.conjugate()) < 1e-9
        return None if ok else f"Gauss sums {sums}, expected ({tau}, {tau.conjugate()})"

    tag = f"ising.{nu1}.{nu2}"
    ops = [
        Op(f"{tag}.s", "modular.s_matrix", lambda st: s_matrix(st["rd"]), check_s, needs=("rd",)),
        Op(f"{tag}.modular", "modular.is_modular", lambda st: is_modular(st["rd"]), _expect(True),
           needs=("rd",)),
        Op(f"{tag}.gauss", "modular.gauss_sums", lambda st: gauss_sums(st["rd"]), check_gauss,
           needs=("rd",)),
    ]
    return Group(f"Ising^{nu1} x Ising^{nu2}", ops,
                 {"rd": lambda st: ising_squared_data(IsingParams(nu1, nu2))})


def _cohomology_group(modules) -> Group:
    ops = []
    for facs, action, degree in modules:
        if facs == "Q/Z":
            want = () if degree % 2 == 0 else (2,)
        else:
            want = (2,) * sum(d % 2 == 0 for d in facs)
        ops.append(Op(f"h{degree}.{facs}.{action}", "gauging.z2_cohomology",
                      lambda st, f=facs, a=action, d=degree: z2_cohomology(Z2Module(f, a), d),
                      _expect(want)))
    return Group("Z2 cohomology", ops)


def _count_group(ns) -> Group:
    ops = [Op(f"count.n{n}", "gauging.count_metaplectic", lambda st, n=n: count_metaplectic(n),
              _expect(expected_count(n))) for n in ns]

    def redirect(result, st):
        return None if isinstance(result, RedirectError) else f"got {result!r}, expected RedirectError"

    ops.append(Op("count.n4", "gauging.count_metaplectic",
                  lambda st: _raises(RedirectError, count_metaplectic, 4), redirect))
    return Group("counts", ops)


# n for enumerate_cyclic_metric_groups, whose cost is about forms * n^2:
# each stratum fixes the factorization shape, hence the number of forms,
# and a narrow size window
FORMS_STRATA = {
    "odd_prime": (1950, 2000),  # 2 forms
    "four_times_prime": (428, 460),  # 4 p: 8 forms
    "three_odd_primes": (740, 800),  # 8 forms
    "autos_two_odd_primes": (66, 78),  # 2 p q: 8 forms, brute-force autos
}
POINTED_N = 24  # 48 forms on Z_24, half of them drawn by the seed
SMALL_GROUPS = [(2, 2), (2, 4), (3, 3), (2, 6)]
COHOMOLOGY = [("odd", (101, 121)), ("even", (100, 120)), ("2x", (48, 60)), ("3x", (33, 45))]
ODD_UNITS = range(1, 16, 2)


def forms_sweep(seed: int, tiny: bool = False) -> Workload:
    rng = random.Random(f"forms_sweep:{seed}")
    if tiny:
        strata = {"odd_prime": (11, 20), "four_times_prime": (20, 30),
                  "three_odd_primes": (105, 105), "autos_two_odd_primes": (30, 42)}
    else:
        strata = FORMS_STRATA

    def window(key):
        lo, hi = strata[key]
        return range(lo, hi + 1)

    def shape(n):
        return sorted(factorize(n).items())

    ecmg = {
        "odd_prime": _pick(rng, [n for n in window("odd_prime") if n > 2 and is_prime(n)]),
        "four_times_prime": _pick(rng, [n for n in window("four_times_prime")
                                        if n % 8 == 4 and is_prime(n // 4)]),
        "three_odd_primes": _pick(rng, _odd_squarefree(*strata["three_odd_primes"], 3)),
    }
    autos_n = _pick(rng, [n for n in window("autos_two_odd_primes")
                          if n % 4 == 2 and len(shape(n)) == 3 and all(k == 1 for _, k in shape(n))])
    small = SMALL_GROUPS[:1] if tiny else SMALL_GROUPS
    pointed_n = 6 if tiny else POINTED_N
    # the seed draws half of the forms on Z_n, half of them from each of the
    # degenerate and nondegenerate strata
    forms = enumerate_forms((pointed_n,), nondegenerate_only=False)
    strata_k = [[k for k, mg in enumerate(forms) if (cyclic_radical(pointed_n, mg.q[1]) == 1) == nd]
                for nd in (True, False)]
    pointed = sorted(k for ks in strata_k for k in rng.sample(ks, len(ks) // 2))
    pairs = [(a, b) for a in ODD_UNITS for b in ODD_UNITS]
    if tiny:
        pairs = pairs[:3]
    modules = []
    for kind, (lo, hi) in COHOMOLOGY[: 1 if tiny else None]:
        if kind in ("odd", "even"):
            facs = (_pick(rng, [n for n in range(lo, hi + 1) if n % 2 == (kind == "odd")]),)
        else:
            d = int(kind[0])
            facs = (d, _pick(rng, [n for n in range(lo, hi + 1) if n % d == 0]))
        modules += [(facs, action, degree) for action in ("trivial", "negation") for degree in (2, 3)]
    modules += [("Q/Z", "trivial", 3), ("Q/Z", "trivial", 4)]
    # N = 2^a m, m odd: the formula has one case for a <= 1 and one for a > 1
    counts = [2**a * rng.randrange(3, 10**5, 2) for a in (0, 1, 2, 5) for _ in range(5)]

    groups = [_cyclic_enum_group(n, False) for n in ecmg.values()]
    groups.append(_cyclic_enum_group(autos_n, True))
    groups += [_small_forms_group(facs) for facs in small]
    groups += _pointed_groups(pointed_n, pointed)
    groups += [_ising_group(a, b) for a, b in pairs]
    groups.append(_cohomology_group(modules))
    groups.append(_count_group(counts))
    inputs = {"cyclic_enumerate": ecmg, "cyclic_autos_n": autos_n, "small_groups": small,
              "pointed_n": pointed_n, "pointed_forms": pointed, "ising_pairs": len(pairs),
              "cohomology": modules,
              "counts": counts}
    return Workload("forms_sweep", inputs, groups)


# ---------------------------------------------------------------------------
# cli_session


@dataclass
class CliRun:
    exit: int
    out: str
    err: str

    @property
    def traceback(self) -> bool:
        return "Traceback (most recent call last)" in self.err


class CliRunner:
    """Runs `python -m modcat.cli` one invocation at a time, in the checkout.

    Output goes to files inside the work directory, so the child can be
    reaped with os.wait4, which also returns that child's own peak RSS.
    """

    def __init__(self, root, workdir):
        self.root = str(root)
        self.workdir = str(workdir)
        self.env = dict(os.environ, PYTHONPATH=os.path.join(self.root, "src"))
        self.max_rss_kb = 0

    def path(self, name: str) -> str:
        os.makedirs(self.workdir, exist_ok=True)
        return os.path.join(self.workdir, name)

    def __call__(self, argv) -> CliRun:
        out_path, err_path = self.path("stdout"), self.path("stderr")
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            proc = subprocess.Popen([sys.executable, "-m", "modcat.cli", *argv],
                                    stdout=out, stderr=err, cwd=self.root, env=self.env)
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            proc.returncode = os.waitstatus_to_exitcode(status)
        self.max_rss_kb = max(self.max_rss_kb, usage.ru_maxrss)
        with open(out_path) as out, open(err_path) as err:
            return CliRun(proc.returncode, out.read(), err.read())


def _write(path: str, text: str) -> str:
    with open(path, "w") as fh:
        fh.write(text)
    return path


def cli_session(seed: int, tiny: bool = False, runner: CliRunner | None = None) -> Workload:
    rng = random.Random(f"cli_session:{seed}")
    hi = 16 if tiny else 40
    # 4 | N, so fg is a boson to condense; small enough that verifying it
    # stays below the sixteen-m child, which sets the peak RSS
    n1 = _pick(rng, range(12, 16 if tiny else 28, 4))
    n2 = _pick(rng, range(10, hi + 1))
    n3 = _pick(rng, range(10, hi + 1))
    mm = _pick(rng, [n for n in range(30, 61) if len(factorize(n)) >= 2])
    g = _pick(rng, range(10, hi + 1, 2))
    c1, c2 = rng.randrange(5, 10**6), rng.randrange(5, 10**6)
    # the largest child sets peak RSS: keep it within one size bucket
    m1 = _pick(rng, _odd_squarefree(3, 7 if tiny else 13, 1))
    m2 = _pick(rng, _odd_squarefree(*((15, 15) if tiny else (33, 35)), 2))
    nu = (rng.choice(ODD_UNITS), rng.choice(ODD_UNITS))
    inputs = {"so2_n": n1, "census_n": n2, "dims_grading_n": n3, "metric_n": mm, "gauge_n": g,
              "count_n": [c1, c2], "sixteen_m": [m1, m2], "ising2_data": nu}
    s1, s2, s3 = Shape.of(n1), Shape.of(n2), Shape.of(n3)
    run = runner or (lambda argv: None)

    def json_dims_sq(rows):
        return Counter(round((Fraction(a, b) + Fraction(c, d) * math.sqrt(t)) ** 2) for a, b, c, d, t in rows)

    def cmd(sub, argv, want_exit, check=None, needs=(), keep=None, defect=None, span=None):
        def call(st):
            return run([a.format(**st) if "{" in a else a for a in argv])

        def full_check(res, st):
            if res.exit != want_exit:
                return f"exit {res.exit}, expected {want_exit}" + (" (traceback)" if res.traceback else "")
            return check(res.out, st) if check else None

        def attrs(res, st):
            fmt_json = "--format" in argv and argv[argv.index("--format") + 1] == "json"
            return {"exit": res.exit, "expected_exit": want_exit, "traceback": int(res.traceback),
                    "json_bytes": len(res.out.encode()) if fmt_json else 0}

        op_id = f"cli.{len(ops):02d}.{sub}"
        ops.append(Op(op_id, span or f"cli.{sub}", call, full_check, needs=needs, keep=keep,
                      defect=defect, attrs=attrs))

    def keep_file(name):
        def keep(res, st):
            st[name] = _write(runner.path(name + ".json"), res.out)
        return keep

    def so2_json(out, st):
        data = json.loads(out)
        if len(data["labels"]) != s1.rank or json_dims_sq(data["dims"]) != s1.dims_sq():
            return f"ring JSON has rank {len(data['labels'])}, expected {s1.rank}"
        return None

    def first_line(want):
        def check(out, st):
            got = out.splitlines()[0] if out else ""
            return None if got == want else f"first line {got!r}, expected {want!r}"
        return check

    def census_json(out, st):
        p = json.loads(out)
        got = (p["rank"], p["invertible"], p["dim2"], p["spinor"], p["mismatches"])
        want = (s2.rank, s2.inv, s2.dim2, s2.spin, [])
        return None if got == want else f"census {got}, expected {want}"

    def census_table(out, st):
        p = ast.literal_eval(out.strip())
        return None if p["rank"] == s2.rank and p["mismatches"] == [] else f"census {p}"

    def verify_json(out, st):
        return _expect({"violations": []})(json.loads(out), st)

    def verify_bad(out, st):
        return None if "violations" in out.splitlines()[-1] else "no violation count printed"

    def dims_json(out, st):
        return None if _close(sorted(json.loads(out)["dims"]), s1.dims()) else "dims differ"

    def dims_table(out, st):
        vals = sorted(float(line.split()[1]) for line in out.splitlines())
        return None if _close(vals, s3.dims(), 1e-8) else "dims differ"

    def grading_json(out, st):
        return _expect(list(s1.universal_group()))(json.loads(out)["group"], st)

    def grading_gn(out, st):
        return _expect(list(s3.gn_group()))(ast.literal_eval(out.strip())["group"], st)

    n_forms = expected_cyclic_forms(mm)

    def enum_json(out, st):
        return _expect(n_forms)(len(json.loads(out)), st)

    def keep_form(res, st):
        st["form_file"] = _write(runner.path("form.json"), json.dumps(json.loads(res.out)[0]))

    def autos_json(out, st):
        return _expect(_autos_of(st["form_file"], mm))(len(json.loads(out)), st)

    def autos_table(out, st):
        return first_word(out, _autos_of(st["form_file"], mm))

    def first_word(out, want):
        got = out.split()[0] if out else ""
        return None if got == str(want) else f"printed {got!r}, expected {want}"

    def gauge_json(out, st):
        return _expect(Shape.of(g).rank)(len(json.loads(out)["labels"]), st)

    def condense(out, st):
        p = json.loads(out)
        return _expect((n1, True))((p["group_order"], p["is_cyclic"]), st)

    def ising_count(out, st):
        p = json.loads(out)
        return _expect((20, {"2": 8, "4": 12}))((p["total"], p["histogram"]), st)

    def sixteen_json(out, st):
        p = json.loads(out)
        return _expect((True, 2 * m1 + 7))((p["ok"], p["rank"]), st)

    def sixteen_table(out, st):
        return _expect(True)(ast.literal_eval(out.strip())["ok"], st)

    ring_text = lambda: build_so_n2(n1).dumps()  # noqa: E731
    prep = {
        "ring_file": lambda st: _write(runner.path("ring_file.json"), ring_text()),
        "form_file": lambda st: _write(runner.path("form.json"),
                                       enumerate_cyclic_metric_groups(mm)[0].dumps()),
        "corrupt_file": lambda st: _write(runner.path("corrupt.json"),
                                          _corrupt(FusionRing.loads(_read(st["ring_file"])),
                                                   _corruption(random.Random(seed), s1.rank)).dumps()),
        "malformed_file": lambda st: _write(runner.path("malformed.json"), ring_text()[:-7]),
        "missing_key_file": lambda st: _write(runner.path("missing_key.json"), json.dumps(
            {k: v for k, v in json.loads(ring_text()).items() if k != "fusion"})),
    }
    ops: list[Op] = []
    ring = ("ring_file",)
    cmd("startup", ["--help"], 0, lambda out, st: None if out.startswith("usage") else "no usage text",
        span="cli.startup")
    cmd("so2", ["so2", "--n", str(n1), "--format", "json"], 0, so2_json, keep=keep_file("ring_file"))
    cmd("so2", ["so2", "--n", str(n1)], 0, first_line(f"rank {s1.rank}"))
    cmd("census", ["census", "--n", str(n2), "--format", "json"], 0, census_json)
    cmd("census", ["census", "--n", str(n2)], 0, census_table)
    cmd("verify", ["verify", "--ring", "{ring_file}", "--format", "json"], 0, verify_json, needs=ring)
    cmd("verify", ["verify", "--ring", "{ring_file}"], 0, first_line("pass"), needs=ring)
    cmd("verify", ["verify", "--ring", "{corrupt_file}"], 1, verify_bad, needs=ring + ("corrupt_file",))
    cmd("dims", ["dims", "--ring", "{ring_file}", "--format", "json"], 0, dims_json, needs=ring)
    cmd("dims", ["dims", "--n", str(n3)], 0, dims_table)
    cmd("grading", ["grading", "--ring", "{ring_file}", "--format", "json"], 0, grading_json, needs=ring)
    cmd("grading", ["grading", "--n", str(n3), "--gn"], 0, grading_gn)
    cmd("metric", ["metric", "enumerate", "--n", str(mm), "--format", "json"], 0, enum_json,
        keep=keep_form)
    cmd("metric", ["metric", "enumerate", "--n", str(mm)], 0, first_line(f"{n_forms} classes"))
    cmd("metric", ["metric", "autos", "--file", "{form_file}", "--format", "json"], 0, autos_json,
        needs=("form_file",))
    cmd("metric", ["metric", "autos", "--file", "{form_file}"], 0, autos_table, needs=("form_file",))
    cmd("gauge", ["gauge", "--n", str(g), "--format", "json"], 0, gauge_json)
    cmd("gauge", ["gauge", "--n", str(g), "--alpha", "1"], 0, first_line(f"rank {Shape.of(g).rank}"))
    cmd("condense", ["condense", "--ring", "{ring_file}", "--boson", "fg", "--format", "json"], 0,
        condense, needs=ring)
    cmd("condense", ["condense", "--ring", "{ring_file}", "--boson", "fg"], 0, condense, needs=ring)
    cmd("count", ["count", "--n", str(c1), "--format", "json"], 0,
        lambda out, st: _expect(expected_count(c1))(int(out), st))
    cmd("count", ["count", "--n", str(c2)], 0, lambda out, st: _expect(expected_count(c2))(int(out), st))
    cmd("ising2", ["ising2", "--count", "--format", "json"], 0, ising_count)
    cmd("ising2", ["ising2", "--data", str(nu[0]), str(nu[1])], 0,
        lambda out, st: None if "modular: True" in out else "not reported modular")
    cmd("sixteen-m", ["sixteen-m", "--m", str(m1), "--format", "json"], 0, sixteen_json)
    cmd("sixteen-m", ["sixteen-m", "--m", str(m2)], 0, sixteen_table)
    cmd("so2", ["so2"], 2)
    cmd("metric", ["metric", "enumerate"], 2)
    cmd("verify", ["verify", "--ring", "{malformed_file}"], 2, needs=("malformed_file",),
        defect=CLI_MALFORMED_JSON)
    cmd("verify", ["verify", "--ring", "{missing_key_file}"], 2, needs=("missing_key_file",),
        defect=CLI_MISSING_KEY)
    return Workload("cli_session", inputs, [Group("modcat script", ops, prep)])


def _read(path: str) -> str:
    with open(path) as fh:
        return fh.read()


def _autos_of(form_file: str, n: int) -> int:
    form = json.loads(_read(form_file))
    q = [Fraction(0)] * n
    for i, num, den in form["q"]:
        q[i] = Fraction(num, den)
    return sum(1 for u in range(1, n) if math.gcd(u, n) == 1 and q[u] == q[1])


WORKLOADS = {
    "axioms_ladder": axioms_ladder,
    "catalog_sweep": catalog_sweep,
    "forms_sweep": forms_sweep,
    "cli_session": cli_session,
}
