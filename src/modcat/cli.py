"""Command-line front end: build, verify and classify metaplectic data.

Exit codes: 0 = success / all checks pass, 1 = a check failed,
2 = usage error.
"""

from __future__ import annotations

import argparse
import gc
import json
import signal
import sys

from .errors import ModcatError, ParameterError

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2


def _parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="modcat", description=__doc__)
    sub = p.add_subparsers(dest="cmd", required=True)

    def add(name, **kwargs):
        sp = sub.add_parser(name, **kwargs)
        sp.add_argument("--format", choices=("json", "table"), default="table")
        return sp

    sp = add("so2", help="build the SO(N)_2 fusion ring")
    sp.add_argument("--n", type=int, required=True)

    sp = add("census", help="structure census of SO(N)_2")
    sp.add_argument("--n", type=int, required=True)

    sp = add("verify", help="check the fusion-ring axioms of a JSON ring")
    sp.add_argument("--ring", required=True)

    sp = add("dims", help="Frobenius-Perron dimensions")
    g = sp.add_mutually_exclusive_group(required=True)
    g.add_argument("--ring")
    g.add_argument("--n", type=int)

    sp = add("grading", help="universal (and GN) grading")
    g = sp.add_mutually_exclusive_group(required=True)
    g.add_argument("--ring")
    g.add_argument("--n", type=int)
    sp.add_argument("--gn", action="store_true")

    sp = add("metric", help="metric-group operations")
    sp.add_argument("action", choices=("enumerate", "autos"))
    sp.add_argument("--n", type=int)
    sp.add_argument("--file")

    sp = add("gauge", help="gauge the particle-hole symmetry of (Z_N, q)")
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--alpha", type=int, choices=(0, 1), default=0)

    sp = add("condense", help="condense a boson in a JSON ring")
    sp.add_argument("--ring", required=True)
    sp.add_argument("--boson", required=True)

    sp = add("count", help="count metaplectic modular categories")
    sp.add_argument("--n", type=int, required=True)

    sp = add("ising2", help="Ising x Ising enumeration and data")
    g = sp.add_mutually_exclusive_group(required=True)
    g.add_argument("--count", action="store_true")
    g.add_argument("--orbits", action="store_true")
    g.add_argument("--data", nargs=2, type=int, metavar=("NU1", "NU2"))

    sp = add("sixteen-m", help="component census of SO(4m)_2")
    sp.add_argument("--m", type=int, required=True)
    return p


def _load_ring(path: str):
    from .ring import FusionRing
    with open(path, "rb") as fh:
        return FusionRing.loads(fh.read())


def _ring_or_so_n2(args):
    # the catalog, and with it the gauging and metric modules, only for --n
    if args.ring is not None:
        return _load_ring(args.ring)
    from .catalog import build_so_n2
    return build_so_n2(args.n)


def _print_ring(r, fmt: str) -> None:
    from .ring import fp_dimensions
    if fmt == "json":
        print(r.dumps())
        return
    dims = fp_dimensions(r)
    print(f"rank {r.rank}")
    for i, lab in enumerate(r.labels):
        exact = r.exact_dims[i] if r.exact_dims else ""
        print(f"  {lab:>6}  dim {dims[i]:.6f}  {exact}")


def run(argv) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code else EXIT_OK
    try:
        return _dispatch(args)
    except (ModcatError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def _dispatch(args) -> int:
    # each command imports only the modules it runs, so that `--help`,
    # usage errors, `count` and `ising2 --count` start without numpy
    fmt = args.format
    if args.cmd == "so2":
        from . import catalog
        _print_ring(catalog.build_so_n2(args.n), fmt)
        return EXIT_OK

    if args.cmd == "census":
        from . import catalog
        r = catalog.build_so_n2(args.n)
        census = catalog.structure_census(r, args.n)
        payload = {
            "n": census.n, "rank": census.rank,
            "invertible": census.invertible_count,
            "dim2": census.dim2_count, "spinor": census.spinor_count,
            "spinor_dim": str(census.spinor_dim),
            "mismatches": list(census.mismatches),
        }
        print(json.dumps(payload) if fmt == "json" else payload)
        return EXIT_OK if census.ok else EXIT_CHECK_FAILED

    if args.cmd == "verify":
        from . import ring as ring_mod
        report = ring_mod.verify_axioms(_load_ring(args.ring))
        if fmt == "json":
            print(json.dumps({"violations": [list(map(str, v)) for v in report.violations]}))
        else:
            for name, where in report.violations:
                print(f"violated {name} at {where}")
            print("pass" if report.ok else f"{len(report.violations)} violations")
        return EXIT_OK if report.ok else EXIT_CHECK_FAILED

    if args.cmd == "dims":
        from . import ring as ring_mod
        r = _ring_or_so_n2(args)
        dims = ring_mod.fp_dimensions(r)
        if fmt == "json":
            print(json.dumps({"labels": list(r.labels), "dims": list(map(float, dims))}))
        else:
            for lab, d in zip(r.labels, dims):
                print(f"{lab:>6}  {d:.9f}")
        return EXIT_OK

    if args.cmd == "grading":
        from . import ring as ring_mod
        r = _ring_or_so_n2(args)
        g = ring_mod.gn_grading(r) if args.gn else ring_mod.universal_grading(r)
        comps = {
            ",".join(map(str, k)): [r.labels[i] for i in v]
            for k, v in sorted(g.components().items())
        }
        payload = {"group": list(g.group), "components": comps}
        print(json.dumps(payload) if fmt == "json" else payload)
        return EXIT_OK

    if args.cmd == "metric":
        if args.action == "enumerate":
            if args.n is None:
                raise ParameterError("metric enumerate needs --n")
            from . import metric
            forms = metric.enumerate_cyclic_metric_groups(args.n)
            if fmt == "json":
                print(json.dumps([m.to_json_dict() for m in forms]))
            else:
                print(f"{len(forms)} classes")
                for m in forms:
                    print(" ", m.dumps())
        else:
            if args.file is None:
                raise ParameterError("metric autos needs --file")
            from . import metric
            with open(args.file, "rb") as fh:
                mg = metric.MetricGroup.loads(fh.read())
            autos = metric.form_preserving_autos(mg)
            print(json.dumps([list(a) for a in autos]) if fmt == "json"
                  else f"{len(autos)} automorphisms: {autos}")
        return EXIT_OK

    if args.cmd == "gauge":
        from . import gauging, metric
        mg = metric.standard_cyclic_metric_group(args.n)
        datum = gauging.GaugingDatum(args.n, alpha=args.alpha)
        _print_ring(gauging.gauge_particle_hole(mg, datum), fmt)
        return EXIT_OK

    if args.cmd == "condense":
        from . import gauging
        r = _load_ring(args.ring)
        if args.boson not in r.labels:
            raise ParameterError(f"no object labeled {args.boson!r}")
        report = gauging.condense_boson(r, r.index(args.boson))
        print(json.dumps(report.to_json_dict()))
        return EXIT_OK

    if args.cmd == "count":
        from ._abelian import count_metaplectic
        print(count_metaplectic(args.n))
        return EXIT_OK

    if args.cmd == "ising2":
        if args.count or args.orbits:
            from ._abelian import ising_squared_enumeration
            e = ising_squared_enumeration()
            payload = {"histogram": e["histogram"], "total": e["count"]}
            if args.orbits:
                payload["orbits"] = [[list(p) for p in o] for o in e["orbits"]]
            print(json.dumps(payload) if fmt == "json" else payload)
            return EXIT_OK
        from . import catalog, modular
        rd = catalog.ising_squared_data(catalog.IsingParams(*args.data))
        if fmt == "json":
            print(rd.dumps())
        else:
            S = modular.s_matrix(rd).entries
            for i, lab in enumerate(rd.ring.labels):
                print(f"{lab:>8}  dim {float(rd.dims[i]):.6f}  twist {rd.twists[i]}")
            print("modular:", modular.is_modular(rd))
            print("S-matrix:")
            for row in S:
                print("  " + "  ".join(modular.format_complex(z) for z in row))
        return EXIT_OK

    if args.cmd == "sixteen-m":
        from . import catalog
        report = catalog.sixteen_m_component_census(args.m)
        payload = {
            "m": report["m"], "n": report["n"], "rank": report["rank"],
            "checks": [[name, ok] for name, ok in report["checks"]],
            "spinor_dim": str(report["spinor_dim"]),
            "ok": report["ok"],
        }
        print(json.dumps(payload) if fmt == "json" else payload)
        return EXIT_OK if report["ok"] else EXIT_CHECK_FAILED

    raise ParameterError(f"unknown command {args.cmd!r}")  # pragma: no cover


def main() -> None:
    # a reader that closes the pipe early (`modcat so2 ... | head`) ends the
    # process as it does other command-line tools, instead of raising the
    # OSError that `run` reports as an input error
    if hasattr(signal, "SIGPIPE"):
        signal.signal(signal.SIGPIPE, signal.SIG_DFL)
    code = run(sys.argv[1:])
    # the answer is printed: freezing moves every object numpy and modcat
    # allocated into the permanent generation, which the full collections
    # at shutdown skip; atexit handlers and stream flushes still run
    gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    main()
