"""modcat benchmark: one workload per run, every answer checked, every metric
printed by name with its unit; the last line of stdout is one JSON object.

    python3 perfbench/run.py --workload axioms_ladder --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --smoke

Run from anywhere inside a checkout of the repository: the package is
imported from the checkout's `src/`, never from an installed copy.

With --trace 0 the run measures the end-to-end metrics with tracing off.
With --trace 1 it alternates untraced and traced passes over the same op
list, derives the per-layer metrics from the traced passes' spans and reports
the tracing overhead as traced minus untraced run time.  Metric definitions,
workload reasons and the layer -> end-to-end predictions are in README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SETUP_SAMPLES = 15  # fresh starts per run after one discarded warm-up start
TAIL_BEYOND = 10  # samples beyond the tail percentile, per pass
REF_LOOP = 30_000  # iterations of the reference job
REF_EVERY_S = 0.05  # least time between two reference samples
# About the reference job's median time on a quiet 2-vCPU x86 VM with
# Python 3.11: setup_s and run_s are given in seconds at that host speed.
REF_NOMINAL_S = 2.5e-3

# The metrics of the result line, the same on every workload.
END_TO_END = [("setup_s", "s"), ("run_s", "s"), ("peak_rss_mb", "MB")]
# Printed too: the wall times setup_s and run_s are scaled from, fail_share on
# every workload (attempted and failed ride on the result line), spawn-to-exit
# latencies on cli_session only.
PRINTED = END_TO_END + [("setup_wall_s", "s"), ("run_wall_s", "s"), ("fail_share", "1"),
                        ("cmd_p50_ms", "ms"), ("cmd_tail_ms", "ms")]


def _blas_threads() -> None:
    # one closed loop, one BLAS thread: with a thread per core, the modcat
    # children of cli_session used 1.5 cores' CPU time per second of wall
    # time on 2 vCPUs, and their spinning threads slowed whatever ran beside
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, "1")


def _import_package():
    # users run modcat with compiled bytecode (pip writes it on install), so
    # the warm-up start compiles it and the measured starts find it warm
    os.environ.pop("PYTHONDONTWRITEBYTECODE", None)
    sys.dont_write_bytecode = False
    src = ROOT / "src"
    if not (src / "modcat" / "__init__.py").is_file():
        sys.exit(f"error: no modcat package at {src}; run inside a checkout of the repository")
    sys.path[:0] = [str(HERE), str(src)]
    import modcat

    if Path(modcat.__file__).resolve().parent != (src / "modcat").resolve():
        sys.exit(f"error: imported modcat from {modcat.__file__}, not from {src}")


def _steal_ticks() -> int | None:
    try:
        with open("/proc/stat") as fh:
            fields = fh.readline().split()
        return int(fields[8])
    except (OSError, IndexError, ValueError):
        return None


# ---------------------------------------------------------------------------
# one pass over the op list


class Ledger:
    """Per-op wall times and outcomes over every pass of one run."""

    def __init__(self):
        self.times: dict[str, list[float]] = defaultdict(list)
        self.outcome: dict[str, str] = {}  # op id -> "ok" | "known:<defect>" | "failed"
        self.reasons: dict[str, str] = {}
        self.pass_s: list[float] = []

    def record(self, op_id, dt, outcome, reason):
        self.times[op_id].append(dt)
        # an op that fails in any pass counts as failed for the run, and an
        # unexpected failure outranks a listed one
        if self.outcome.get(op_id, "ok") == "ok" or outcome == "failed":
            self.outcome[op_id] = outcome
            if reason:
                self.reasons[op_id] = reason

    @property
    def attempted(self) -> int:
        return len(self.outcome)

    @property
    def failed(self) -> int:
        return sum(o != "ok" for o in self.outcome.values())

    @property
    def unexpected(self) -> list[str]:
        return [op for op, o in self.outcome.items() if o == "failed"]


def run_pass(workload, tracer, pass_no: int, ledger: Ledger, between_ops=lambda: None) -> None:
    """Run every op once, recording op times, outcomes and the pass's total."""
    total = 0.0
    with tracer.span("bench.pass", pass_no=pass_no):
        for group in workload.groups:
            state: dict = {}
            for op in group.ops:
                for key in op.needs:
                    if key not in state:
                        state[key] = group.prep[key](state)
                result = error = None
                t0 = time.perf_counter()
                with tracer.span(op.span, op.id, pass_no) as attrs:
                    try:
                        result = op.call(state)
                    except Exception as exc:  # a failing op is counted; the run goes on
                        error = exc
                dt = time.perf_counter() - t0
                total += dt
                reason = f"raised {type(error).__name__}: {error}" if error else None
                if error is None:
                    try:
                        reason = op.check(result, state)
                    except Exception as exc:  # an unreadable answer is a wrong answer
                        reason = f"answer not readable: {type(exc).__name__}: {exc}"
                if reason is None:
                    outcome = "ok"
                    if op.keep:
                        op.keep(result, state)
                elif op.defect and op.defect.matches(result, error):
                    outcome = f"known:{op.defect.name}"
                else:
                    outcome = "failed"
                if tracer.on and error is None and op.attrs:
                    attrs.update(op.attrs(result, state))
                attrs["failed"] = int(outcome != "ok")
                ledger.record(op.id, dt, outcome, reason)
                del result, error
                between_ops()
    ledger.pass_s.append(total)


# ---------------------------------------------------------------------------
# a run


def reference_job() -> float:
    """Wall time of a fixed pure-Python loop that calls nothing in modcat."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(REF_LOOP):
        acc += i * i % 7
    return time.perf_counter() - t0


class HostSpeed:
    """The reference job's times, taken between ops all through the run.

    On a shared machine the same code runs up to 1.5x slower in one run than
    in another, with the load of other tenants. The reference job slows with
    it, and setup_s and run_s scale the run's wall times by REF_NOMINAL_S
    over the job's median time in the same run. Samples are at least
    REF_EVERY_S apart, so they follow the run's wall time and not its op
    count.
    """

    def __init__(self):
        self.samples: list[float] = []
        self.last = float("-inf")

    def due(self) -> None:
        if time.perf_counter() - self.last >= REF_EVERY_S:
            self.samples.append(reference_job())
            self.last = time.perf_counter()


class SetupProbe:
    """Spawn-to-exit time of a fresh interpreter that imports modcat and
    generates the seeded inputs, which is everything before the first op.

    The samples are spread evenly over the run, between ops, so that their
    median sees the same slow and fast stretches of a shared machine as the
    passes do, instead of the few seconds before the first pass.
    """

    def __init__(self, name: str, seed: int, count: int, seconds: float):
        self.cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
                    "--workload", name, "--seed", str(seed)]
        self.samples: list[float] = []
        self.count = count
        self.every = seconds / count
        self()  # warm-up start, discarded: it compiles the bytecode
        self.t0 = time.perf_counter()

    def __call__(self) -> float:
        t0 = time.perf_counter()
        subprocess.run(self.cmd, check=True, cwd=ROOT, stdout=subprocess.DEVNULL)
        return time.perf_counter() - t0

    def due(self) -> None:
        """Take the next sample once its share of the run has elapsed."""
        if len(self.samples) < self.count and \
                time.perf_counter() - self.t0 >= self.every * len(self.samples):
            self.samples.append(self())

    def finish(self) -> None:
        while len(self.samples) < self.count:
            self.samples.append(self())

    @property
    def pycache_warm(self) -> bool:
        tag = sys.implementation.cache_tag
        return (ROOT / "src" / "modcat" / "__pycache__" / f"ring.{tag}.pyc").is_file()


def tail(latencies: list[float]) -> tuple[float, float]:
    """The latency with TAIL_BEYOND samples above it, and its percentile."""
    xs = sorted(latencies)
    i = max(len(xs) - TAIL_BEYOND - 1, 0)
    return xs[i], 100.0 * (i + 1) / len(xs)


def measure(name: str, seed: int, seconds: float, trace: bool, tiny: bool = False,
            extra_ops=()) -> dict:
    import spans
    import workloads

    steal0, cpu0 = _steal_ticks(), os.times()
    runner = None
    if name == "cli_session":
        runner = workloads.CliRunner(ROOT, OUT / f"cli-{os.getpid()}")
        wl = workloads.cli_session(seed, tiny, runner)
    else:
        wl = workloads.WORKLOADS[name](seed, tiny)
    if extra_ops:
        wl.groups.append(workloads.Group("planted", list(extra_ops)))
    probe = SetupProbe(name, seed, 1 if tiny else SETUP_SAMPLES, seconds)
    host = HostSpeed()

    def between_ops():
        host.due()
        probe.due()

    plain, traced = Ledger(), Ledger()
    tracer = spans.Tracer()
    null = spans.NullTracer()
    t_start = time.perf_counter()
    pass_no = 0
    try:
        while True:
            # with tracing, untraced and traced passes alternate
            if trace and pass_no % 2:
                run_pass(wl, tracer, pass_no + 1, traced, between_ops)
            else:
                run_pass(wl, null, pass_no + 1, plain, between_ops)
            pass_no += 1
            # stop before a pass that would end past the measuring time
            elapsed = time.perf_counter() - t_start
            if (traced.pass_s or not trace) and elapsed * (pass_no + 1) / pass_no > seconds:
                break
        probe.finish()
    finally:
        if runner:
            shutil.rmtree(runner.workdir, ignore_errors=True)
    wall = time.perf_counter() - t_start
    cpu1, steal1 = os.times(), _steal_ticks()

    op_s = {op: statistics.median(ts) for op, ts in plain.times.items()}
    rss_kb = runner.max_rss_kb if runner else resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    ref_s = statistics.median(host.samples)
    e2e = {
        "setup_s": statistics.median(probe.samples) * REF_NOMINAL_S / ref_s,
        "setup_wall_s": statistics.median(probe.samples),
        "run_s": sum(op_s.values()) * REF_NOMINAL_S / ref_s,
        "run_wall_s": sum(op_s.values()),
        "ref_ms": ref_s * 1e3,
        "peak_rss_mb": rss_kb / 1024,
        "fail_share": plain.failed / plain.attempted,
    }
    if runner:
        per_pass = [[plain.times[op][p] * 1e3 for op in plain.times] for p in range(len(plain.pass_s))]
        tails = [tail(p) for p in per_pass]
        e2e["cmd_p50_ms"] = statistics.median(x for p in per_pass for x in p)
        e2e["cmd_tail_ms"] = statistics.median(t for t, _ in tails)
        e2e["cmd_tail_percentile"] = tails[0][1]
    result = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
        "inputs": wl.inputs,
        "attempted": plain.attempted, "failed": plain.failed,
        "unexpected": plain.unexpected + [op for op in traced.unexpected if op not in plain.unexpected],
        "outcomes": {op: o for op, o in plain.outcome.items() if o != "ok"},
        "reasons": plain.reasons,
        "passes": len(plain.pass_s), "traced_passes": len(traced.pass_s),
        "pass_s": plain.pass_s, "traced_pass_s": traced.pass_s,
        "op_median_s": op_s,
        "setup_samples": probe.samples, "ref_samples": len(host.samples), "pycache_warm": probe.pycache_warm,
        "end_to_end": e2e,
        "diagnostics": {
            "wall_s": wall,
            "cpu_s": (cpu1.user + cpu1.system) - (cpu0.user + cpu0.system),
            "children_cpu_s": (cpu1.children_user + cpu1.children_system)
            - (cpu0.children_user + cpu0.children_system),
            "steal_ticks": None if steal0 is None else steal1 - steal0,
            "loadavg": list(os.getloadavg()),
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": __import__("numpy").__version__,
            "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        },
    }
    if trace:
        overhead = sum(statistics.median(ts) for ts in traced.times.values()) - e2e["run_wall_s"]
        OUT.mkdir(exist_ok=True)
        span_file = OUT / f"spans-{name}-seed{seed}.jsonl"
        tracer.write(span_file)
        result["span_file"] = str(span_file.relative_to(ROOT))
        result["per_layer"] = spans.layer_metrics(tracer.records, overhead)
    return result


def report(result: dict) -> dict:
    """Print the human-readable lines; return the final JSON object."""
    import spans

    d, e2e = result["diagnostics"], result["end_to_end"]
    print(f"modcat benchmark  workload={result['workload']} seed={result['seed']} "
          f"seconds={result['seconds']} trace={result['trace']}")
    print("inputs:", json.dumps(result["inputs"], sort_keys=True))
    print(f"noise: wall_s={d['wall_s']:.2f} cpu_s={d['cpu_s']:.2f} "
          f"children_cpu_s={d['children_cpu_s']:.2f} steal_ticks={d['steal_ticks']} "
          f"loadavg={d['loadavg']} nproc={d['nproc']} python={d['python']} "
          f"numpy={d['numpy']} blas_threads={d['blas_threads']}")
    print(f"host: reference job median {e2e['ref_ms']:.4f} ms over {result['ref_samples']} "
          f"samples between ops, {REF_NOMINAL_S * 1e3:g} ms nominal; "
          f"setup_s and run_s are scaled to the nominal speed")
    print(f"setup: median of {len(result['setup_samples'])} fresh starts spread over the run, "
          f"after 1 discarded warm-up; __pycache__ warm: {result['pycache_warm']}")
    print(f"passes: {result['passes']} untraced, {result['traced_passes']} traced; "
          f"{len(result['op_median_s'])} ops per pass; pass_s="
          + ",".join(f"{x:.3f}" for x in result["pass_s"]))
    print(f"ops: attempted {result['attempted']}, failed {result['failed']} "
          f"(unexpected {len(result['unexpected'])})")
    for op, outcome in result["outcomes"].items():
        print(f"  failed op {op}: {outcome}: {result['reasons'].get(op, '')[:160]}")
    if "cmd_tail_ms" in e2e:
        print(f"cmd_tail_ms is p{e2e['cmd_tail_percentile']:.1f} of "
              f"{len(result['op_median_s'])} invocations per pass ({TAIL_BEYOND} beyond it), "
              f"median over {result['passes']} passes")
    for name, unit in PRINTED:
        if name in e2e:
            print(f"metric {name} {e2e[name]:.6g} {unit}")
    if result["trace"]:
        print(f"spans: {result['span_file']}")
        for name, unit, _ in spans.PER_LAYER:
            print(f"layer {name} {result['per_layer'][name]:.6g} {unit}")
        metrics = {n: {"value": result["per_layer"][n], "unit": u} for n, u, _ in spans.PER_LAYER}
    else:
        metrics = {n: {"value": e2e[n], "unit": u} for n, u in END_TO_END}
    return {"correct": not result["unexpected"], "attempted": result["attempted"],
            "failed": result["failed"], "metrics": metrics}


# ---------------------------------------------------------------------------
# smoke mode: the benchmark's own tests on tiny inputs


def smoke() -> None:
    import spans
    import workloads
    from modcat import count_metaplectic

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    layers = set()
    for name in workloads.WORKLOADS:
        for trace in (False, True):
            res = measure(name, 1, 0.0, trace, tiny=True)
            out = report(res)
            assert out["correct"], (name, res["unexpected"], res["reasons"])
            want = bench["per_layer"] if trace else bench["end_to_end"]
            for m in want:
                got = out["metrics"][m["name"]]
                assert got["unit"] == m["unit"] and isinstance(got["value"], float), (name, m, got)
            if trace:
                recs = spans.read_spans(ROOT / res["span_file"])
                layers |= {r["layer"] for r in recs if r["name"] != "bench.pass"}
    assert layers == set(spans.LAYERS), f"traced layers {sorted(layers)}"

    planted = workloads.Op("planted.count.n6", "gauging.count_metaplectic",
                           lambda st: count_metaplectic(6), workloads._expect(9))
    res = measure("forms_sweep", 1, 0.0, False, tiny=True, extra_ops=[planted])
    assert res["outcomes"].get("planted.count.n6") == "failed", res["outcomes"]
    assert res["unexpected"] == ["planted.count.n6"], res["unexpected"]
    out = report(res)
    assert not out["correct"] and out["failed"] >= 1
    print("smoke: ok")


def main() -> None:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=("axioms_ladder", "catalog_sweep", "forms_sweep",
                                          "cli_session"))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true", help="run the benchmark's own tests")
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args()
    _blas_threads()
    _import_package()
    if args.smoke:
        smoke()
        return
    if args.workload is None:
        p.error("--workload is required")
    if args.setup_probe:
        import workloads

        workloads.WORKLOADS[args.workload](args.seed)
        return
    result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    OUT.mkdir(exist_ok=True)
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(result, indent=1, sort_keys=True, default=str))
    final = report(result)
    print(json.dumps(final, sort_keys=True))


if __name__ == "__main__":
    main()
