"""Span records for the benchmark's traced run, and the per-layer metrics
derived from them.

One span record is a flat JSON object:

    {"kind": "span", "name": "ring.verify_axioms", "layer": "ring",
     "id": 17, "parent": 3, "op": "ax.n117.verify", "pass": 2,
     "start_s": 12.0031, "end_s": 14.2290, "attrs": {"rank": 62, ...}}

`name` is `<layer>.<function>`, `start_s`/`end_s` are `time.perf_counter()`
readings, `parent` is the id of the enclosing span (a pass span here, a stage
span once the package emits its own), and `attrs` holds the counters recorded
at the same boundary.  The package's opt-in trace can emit these records as
JSON lines unchanged, so that this module reads both.
"""

from __future__ import annotations

import json
import statistics
import time
from contextlib import contextmanager

LAYERS = ("ring", "modular", "metric", "gauging", "catalog", "cli")
SPAN_KEYS = ("kind", "name", "layer", "id", "parent", "op", "pass", "start_s", "end_s", "attrs")

CLI_SUBCOMMANDS = (
    "so2", "census", "verify", "dims", "grading", "metric", "gauge",
    "condense", "count", "ising2", "sixteen-m",
)


class Tracer:
    """Keeps span records in memory; `write` saves them as JSON lines."""

    on = True

    def __init__(self):
        self.records: list[dict] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str, op: str | None = None, pass_no: int = 0):
        rec = {
            "kind": "span", "name": name, "layer": name.split(".", 1)[0],
            "id": len(self.records), "parent": self._stack[-1] if self._stack else None,
            "op": op, "pass": pass_no, "start_s": time.perf_counter(), "end_s": None,
            "attrs": {},
        }
        self.records.append(rec)
        self._stack.append(rec["id"])
        try:
            yield rec["attrs"]
        finally:
            rec["end_s"] = time.perf_counter()
            self._stack.pop()

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for rec in self.records:
                fh.write(json.dumps(rec, sort_keys=True) + "\n")


class NullTracer:
    """Tracing off: spans cost one generator frame and record nothing."""

    on = False

    @contextmanager
    def span(self, name: str, op: str | None = None, pass_no: int = 0):
        yield {}


def read_spans(path) -> list[dict]:
    """Parse a span file, rejecting records that do not follow the schema."""
    out = []
    with open(path) as fh:
        for line in fh:
            rec = json.loads(line)
            if tuple(sorted(rec)) != tuple(sorted(SPAN_KEYS)) or rec["kind"] != "span":
                raise ValueError(f"not a span record: {line[:120]}")
            if rec["layer"] != rec["name"].split(".", 1)[0] or rec["end_s"] < rec["start_s"]:
                raise ValueError(f"inconsistent span record: {line[:120]}")
            out.append(rec)
    return out


# ---------------------------------------------------------------------------
# per-layer metrics
#
# (name, unit, better).  Every metric is reported on every workload; a layer
# a workload does not touch reads 0 there, which is the prediction recorded
# in README.md.  Counts are per pass over the op list; times are the median
# over traced passes of the per-pass sum.

PER_LAYER = [
    ("ring.verify_axioms.calls", "count", "lower"),
    ("ring.verify_axioms.busy_s", "s", "lower"),
    ("ring.verify_axioms.failed", "count", "lower"),
    ("ring.verify_axioms.max_rank", "count", "higher"),
    ("ring.verify_axioms.assoc_mb_computed", "MB", "lower"),
    ("ring.verify_axioms.corrupt_detected_share", "1", "higher"),
    ("ring.fp_dimensions.calls", "count", "lower"),
    ("ring.fp_dimensions.busy_s", "s", "lower"),
    ("ring.fp_dimensions.failed", "count", "lower"),
    ("ring.universal_grading.busy_s", "s", "lower"),
    ("ring.gn_grading.busy_s", "s", "lower"),
    ("ring.json.busy_s", "s", "lower"),
    ("catalog.build_so_n2.calls", "count", "lower"),
    ("catalog.build_so_n2.busy_s", "s", "lower"),
    ("catalog.build_so_n2.failed", "count", "lower"),
    ("catalog.build_so_n2.dense_mb_computed", "MB", "lower"),
    ("catalog.build_so_n2.nnz_share", "1", "higher"),
    ("catalog.structure_census.busy_s", "s", "lower"),
    ("catalog.structure_census.failed", "count", "lower"),
    ("catalog.based_ring_isomorphism.busy_s", "s", "lower"),
    ("catalog.based_ring_isomorphism.found", "count", "higher"),
    ("catalog.boson_fermion_census.busy_s", "s", "lower"),
    ("catalog.sixteen_m_component_census.busy_s", "s", "lower"),
    ("gauging.gauge_particle_hole.busy_s", "s", "lower"),
    ("gauging.condense_boson.busy_s", "s", "lower"),
    ("gauging.condense_boson.failed", "count", "lower"),
    ("gauging.z2_cohomology.busy_s", "s", "lower"),
    ("gauging.count_metaplectic.busy_s", "s", "lower"),
    ("metric.enumerate_cyclic_metric_groups.busy_s", "s", "lower"),
    ("metric.enumerate_cyclic_metric_groups.forms", "count", "higher"),
    ("metric.enumerate_cyclic_metric_groups.elements", "count", "higher"),
    ("metric.enumerate_forms.busy_s", "s", "lower"),
    ("metric.classify_forms.busy_s", "s", "lower"),
    ("metric.classify_forms.classes", "count", "higher"),
    ("metric.form_preserving_autos.busy_s", "s", "lower"),
    ("metric.form_preserving_autos.autos", "count", "higher"),
    ("metric.pointed_ribbon_data.busy_s", "s", "lower"),
    ("modular.s_matrix.busy_s", "s", "lower"),
    ("modular.is_modular.busy_s", "s", "lower"),
    ("modular.muger_center.busy_s", "s", "lower"),
    ("modular.gauss_sums.busy_s", "s", "lower"),
    ("cli.startup_ms", "ms", "lower"),
    *((f"cli.{sub}.p50_ms", "ms", "lower") for sub in CLI_SUBCOMMANDS),
    ("cli.exit_mismatch", "count", "lower"),
    ("cli.tracebacks", "count", "lower"),
    ("cli.json_bytes", "B", "lower"),
    ("trace.spans", "count", "lower"),
    ("trace.overhead_s", "s", "lower"),
]


def _per_pass(spans: list[dict]) -> dict[int, list[dict]]:
    out: dict[int, list[dict]] = {}
    for s in spans:
        if s["name"] != "bench.pass":
            out.setdefault(s["pass"], []).append(s)
    return out


def layer_metrics(spans: list[dict], overhead_s: float) -> dict[str, float]:
    """Per-layer metrics from the op spans of the traced passes."""
    passes = _per_pass(spans)
    if not passes:
        raise ValueError("no traced pass recorded")

    def med(per_pass_value) -> float:
        return statistics.median(per_pass_value(ss) for ss in passes.values())

    def of(ss, name):
        return [s for s in ss if s["name"] == name]

    def busy(name):
        return med(lambda ss: sum(s["end_s"] - s["start_s"] for s in of(ss, name)))

    def total(name, attr):
        return med(lambda ss: sum(s["attrs"].get(attr, 0) for s in of(ss, name)))

    def peak(name, attr):
        return med(lambda ss: max((s["attrs"].get(attr, 0) for s in of(ss, name)), default=0))

    def calls(name):
        return med(lambda ss: len(of(ss, name)))

    def ratio(name, num, den):
        def one(ss):
            d = sum(s["attrs"].get(den, 0) for s in of(ss, name))
            return sum(s["attrs"].get(num, 0) for s in of(ss, name)) / d if d else 0.0
        return med(one)

    def cli_ms(name):
        xs = [1e3 * (s["end_s"] - s["start_s"]) for ss in passes.values() for s in of(ss, name)]
        return statistics.median(xs) if xs else 0.0

    m: dict[str, float] = {}
    for fn in ("ring.verify_axioms", "ring.fp_dimensions", "catalog.build_so_n2"):
        m[f"{fn}.calls"] = calls(fn)
        m[f"{fn}.failed"] = total(fn, "failed")
    m["ring.verify_axioms.max_rank"] = peak("ring.verify_axioms", "rank")
    m["ring.verify_axioms.assoc_mb_computed"] = peak("ring.verify_axioms", "assoc_mb")
    m["ring.verify_axioms.corrupt_detected_share"] = ratio(
        "ring.verify_axioms", "corrupt_detected", "corrupted")
    m["catalog.build_so_n2.dense_mb_computed"] = peak("catalog.build_so_n2", "dense_mb")
    m["catalog.build_so_n2.nnz_share"] = ratio("catalog.build_so_n2", "nnz", "cells")
    m["catalog.structure_census.failed"] = total("catalog.structure_census", "failed")
    m["catalog.based_ring_isomorphism.found"] = total("catalog.based_ring_isomorphism", "found")
    m["gauging.condense_boson.failed"] = total("gauging.condense_boson", "failed")
    m["metric.enumerate_cyclic_metric_groups.forms"] = total(
        "metric.enumerate_cyclic_metric_groups", "forms")
    m["metric.enumerate_cyclic_metric_groups.elements"] = total(
        "metric.enumerate_cyclic_metric_groups", "elements")
    m["metric.classify_forms.classes"] = total("metric.classify_forms", "classes")
    m["metric.form_preserving_autos.autos"] = total("metric.form_preserving_autos", "autos")
    m["cli.startup_ms"] = cli_ms("cli.startup")
    for sub in CLI_SUBCOMMANDS:
        m[f"cli.{sub}.p50_ms"] = cli_ms(f"cli.{sub}")
    cli_spans = lambda ss: [s for s in ss if s["layer"] == "cli"]  # noqa: E731
    m["cli.exit_mismatch"] = med(lambda ss: sum(
        s["attrs"]["exit"] != s["attrs"]["expected_exit"] for s in cli_spans(ss)))
    m["cli.tracebacks"] = med(lambda ss: sum(s["attrs"]["traceback"] for s in cli_spans(ss)))
    m["cli.json_bytes"] = med(lambda ss: sum(s["attrs"]["json_bytes"] for s in cli_spans(ss)))
    m["trace.spans"] = med(len)
    m["trace.overhead_s"] = overhead_s
    for name, _, _ in PER_LAYER:
        if name.endswith(".busy_s"):
            m[name] = busy(name[: -len(".busy_s")])
    return {name: float(m[name]) for name, _, _ in PER_LAYER}
