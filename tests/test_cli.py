"""CLI: dispatch, exit codes, JSON round trips, malformed input files."""

import gc
import io
import json
import os
import subprocess
import sys
import tempfile
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import modcat
from modcat import FusionRing, build_so_n2
from modcat.cli import EXIT_CHECK_FAILED, EXIT_OK, EXIT_USAGE, run


@pytest.fixture()
def ring_file(tmp_path):
    path = tmp_path / "ring.json"
    path.write_text(build_so_n2(8).dumps())
    return str(path)


class TestExitCodes:
    def test_usage_errors(self, capsys):
        assert run([]) == EXIT_USAGE
        assert run(["bogus"]) == EXIT_USAGE
        assert run(["so2"]) == EXIT_USAGE
        assert run(["so2", "--n", "1"]) == EXIT_USAGE

    def test_tolerance_environment_is_not_read(self, monkeypatch, capsys):
        monkeypatch.setenv("MODCAT_TOLERANCE", "abc")
        assert run(["count", "--n", "6"]) == EXIT_OK

    def test_missing_file(self, capsys):
        assert run(["verify", "--ring", "/nonexistent.json"]) == EXIT_USAGE
        # an empty path is a file that is not there, not a missing --n
        assert run(["dims", "--ring", ""]) == EXIT_USAGE
        assert run(["grading", "--ring", ""]) == EXIT_USAGE

    def test_verify_pass_and_fail(self, tmp_path, capsys):
        good = tmp_path / "good.json"
        good.write_text(build_so_n2(6).dumps())
        assert run(["verify", "--ring", str(good)]) == EXIT_OK

        r = build_so_n2(6)
        fusion = r.fusion.copy()
        fusion[1, 1, 2] += 1
        bad_ring = FusionRing(r.labels, r.dual, fusion)
        bad = tmp_path / "bad.json"
        bad.write_text(bad_ring.dumps())
        assert run(["verify", "--ring", str(bad)]) == EXIT_CHECK_FAILED

    @pytest.mark.parametrize(
        "text",
        [
            pytest.param('{"labels": ["1"], "dual": [0], "fusion": [[0, 0', id="malformed_json"),
            pytest.param('{"dual": [0], "fusion": [[0, 0, 0, 1]]}', id="missing_labels"),
            pytest.param('{"labels": ["1"], "fusion": [[0, 0, 0, 1]]}', id="missing_dual"),
            pytest.param('{"labels": ["1"], "dual": [0]}', id="missing_fusion"),
            pytest.param('{"labels": ["1"], "dual": [0], "fusion": [[0, 0, 1]]}',
                         id="short_fusion_row"),
            pytest.param('{"labels": ["1"], "dual": [0], "fusion": [[0, 0, 0, true]]}',
                         id="bool_multiplicity"),
            pytest.param('{"labels": ["1"], "dual": [0], "fusion": [[0, 0, 0, 1.7]]}',
                         id="float_multiplicity"),
            pytest.param('{"labels": ["1"], "dual": [0], "fusion": [[0, 0, 0, %d]]}' % 2**63,
                         id="multiplicity_past_int64"),
            pytest.param('{"labels": [], "dual": [], "fusion": []}', id="empty_ring"),
            pytest.param('{"labels": ["1"], "dual": [0], "fusion": [[0, 0, 0, %d]]}' % -(2**63),
                         id="multiplicity_at_int64_min"),
            pytest.param('{"labels": ["1"], "dual": [0], "fusion": {}}', id="fusion_not_a_list"),
        ],
    )
    def test_malformed_ring_is_a_usage_error(self, tmp_path, capsys, text):
        f = tmp_path / "ring.json"
        f.write_text(text)
        assert run(["verify", "--ring", str(f)]) == EXIT_USAGE
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err.startswith("error: ") and "Traceback" not in out.err

    @pytest.mark.parametrize(
        "text",
        [
            pytest.param('{"group": [5], "q": [[1', id="malformed_json"),
            pytest.param('{"q": [[1, 1, 5]]}', id="missing_group"),
            pytest.param('{"group": [5]}', id="missing_q"),
            pytest.param('{"group": [5.0], "q": [[1, 1, 5]]}', id="float_factor"),
            pytest.param('{"group": [2], "q": [[1, true, 4]]}', id="bool_numerator"),
            pytest.param('{"group": [5], "q": [[1, 1, 0]]}', id="zero_denominator"),
            pytest.param('{"group": [5], "q": [[5, 1, 5]]}', id="index_out_of_range"),
            pytest.param('{"group": [2, %d], "q": []}' % -(2**63), id="negative_factor"),
            pytest.param('{"group": [5], "q": [[1, %d, 5]]}' % -(2**63), id="q_at_int64_min"),
            pytest.param('{"group": [5], "q": [[1, 1, %d]]}' % 2**63, id="q_past_int64"),
            pytest.param('{"group": [5], "q": [[1, 1]]}', id="short_q_row"),
            pytest.param('{"group": [5], "q": {}}', id="q_not_a_list"),
        ],
    )
    def test_malformed_metric_group_is_a_usage_error(self, tmp_path, capsys, text):
        f = tmp_path / "form.json"
        f.write_text(text)
        assert run(["metric", "autos", "--file", str(f)]) == EXIT_USAGE
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err.startswith("error: ") and "Traceback" not in out.err

    def test_huge_metric_group_is_a_usage_error(self, tmp_path, capsys):
        f = tmp_path / "form.json"
        f.write_text('{"group": [1000000000000], "q": []}')
        assert run(["metric", "autos", "--file", str(f)]) == EXIT_USAGE
        out = capsys.readouterr()
        assert out.err.startswith("error: ") and "Traceback" not in out.err

    def test_metric_autos_refuses_oversized_search(self, tmp_path, capsys):
        # the zero form on Z_6^3: 10^7 choices of generator images, refused before any
        f = tmp_path / "form.json"
        f.write_text('{"group": [6, 6, 6], "q": []}')
        start = time.perf_counter()
        assert run(["metric", "autos", "--file", str(f)]) == EXIT_USAGE
        assert time.perf_counter() - start < 1.0
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err.startswith("error: ") and "Traceback" not in out.err

    @pytest.mark.parametrize("argv", [["dims"], ["grading", "--gn"], ["condense", "--boson", "fg"]])
    def test_wrong_attached_dims_are_a_usage_error(self, tmp_path, capsys, argv):
        # SO(12)_2 with the dimension 2 of X0 edited to sqrt 6
        data = build_so_n2(12).to_json_dict()
        data["dims"][data["labels"].index("X0")] = modcat.AlgebraicReal.sqrt(6).to_json()
        f = tmp_path / "ring.json"
        f.write_text(json.dumps(data))
        assert run([*argv, "--ring", str(f)]) == EXIT_USAGE
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err.startswith("error: ") and "Traceback" not in out.err

    def test_ring_without_fusion_rows_fails_the_unit_axiom(self, tmp_path, capsys):
        # verify reads only the nonzeros, so no 201 GiB dense tensor at rank 3000
        f = tmp_path / "ring.json"
        r = 3000
        f.write_text(json.dumps({"labels": [f"x{i}" for i in range(r)],
                                 "dual": list(range(r)), "fusion": []}))
        start = time.perf_counter()
        assert run(["verify", "--ring", str(f)]) == EXIT_CHECK_FAILED
        assert time.perf_counter() - start < 5.0
        out = capsys.readouterr()
        assert "violated unit_left at (0, 0, 0)" in out.out
        assert "Traceback" not in out.err

    def test_metric_enumerate_refuses_oversized_output(self, capsys):
        # 128 classes of 720720 entries: refused from the factorization, before any table
        start = time.perf_counter()
        assert run(["metric", "enumerate", "--n", "720720"]) == EXIT_USAGE
        assert time.perf_counter() - start < 1.0
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err.startswith("error: ") and "Traceback" not in out.err

    def test_count_refuses_a_large_n_fast(self, capsys):
        # a prime of 19 digits would take minutes of trial division
        start = time.perf_counter()
        assert run(["count", "--n", "1000000000000000003"]) == EXIT_USAGE
        assert time.perf_counter() - start < 1.0
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err.startswith("error: ") and "Traceback" not in out.err

    def test_census_ok(self, capsys):
        assert run(["census", "--n", "12"]) == EXIT_OK

    def test_census_table_lists_no_mismatches(self, capsys):
        # the table format prints the payload dict; its mismatches stay a list
        assert run(["census", "--n", "30"]) == EXIT_OK
        assert "'mismatches': []" in capsys.readouterr().out

    def test_dims_and_census_near_n_600(self, capsys):
        assert run(["dims", "--n", "501"]) == EXIT_OK
        assert run(["census", "--n", "599"]) == EXIT_OK

    def test_count_redirect_for_four(self, capsys):
        assert run(["count", "--n", "4"]) == EXIT_USAGE
        assert "ising" in capsys.readouterr().err.lower()


class TestOutputs:
    def test_count_value(self, capsys):
        assert run(["count", "--n", "16"]) == EXIT_OK
        assert capsys.readouterr().out.strip() == "12"

    def test_so2_json_round_trip(self, capsys):
        assert run(["so2", "--n", "9", "--format", "json"]) == EXIT_OK
        text = capsys.readouterr().out
        again = FusionRing.loads(text)
        direct = build_so_n2(9)
        assert again.labels == direct.labels
        assert np.array_equal(again.fusion, direct.fusion)
        assert again.dumps() == text.strip()

    def test_dims_from_file(self, ring_file, capsys):
        assert run(["dims", "--ring", ring_file, "--format", "json"]) == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert payload["labels"][0] == "1"
        assert max(payload["dims"]) == pytest.approx(2.0, abs=1e-9)

    def test_grading_json(self, capsys):
        assert run(["grading", "--n", "12", "--format", "json"]) == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert payload["group"] == [2, 2]
        assert len(payload["components"]) == 4

    def test_metric_enumerate(self, capsys):
        assert run(["metric", "enumerate", "--n", "5", "--format", "json"]) == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert len(payload) == 2

    def test_metric_autos(self, tmp_path, capsys):
        assert run(["metric", "enumerate", "--n", "7", "--format", "json"]) == EXIT_OK
        forms = json.loads(capsys.readouterr().out)
        f = tmp_path / "form.json"
        f.write_text(json.dumps(forms[0]))
        assert run(["metric", "autos", "--file", str(f), "--format", "json"]) == EXIT_OK
        autos = json.loads(capsys.readouterr().out)
        assert len(autos) == 2

    def test_metric_autos_on_a_large_cyclic_form(self, tmp_path, capsys):
        # Z_11571, past the order cap of 10^4 the search once had: 16 isometries
        f = tmp_path / "form.json"
        f.write_text(modcat.enumerate_cyclic_metric_groups(11571)[0].dumps())
        assert run(["metric", "autos", "--file", str(f), "--format", "json"]) == EXIT_OK
        autos = json.loads(capsys.readouterr().out)
        assert len(autos) == 16 and autos[0] == list(range(11571))

    def test_gauge_and_condense(self, tmp_path, capsys):
        assert run(["gauge", "--n", "8", "--format", "json"]) == EXIT_OK
        text = capsys.readouterr().out
        f = tmp_path / "gauged.json"
        f.write_text(text)
        assert run(["condense", "--ring", str(f), "--boson", "z"]) == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert payload["group_order"] == 8
        assert payload["is_cyclic"] is True

    def test_condense_unknown_boson(self, ring_file, capsys):
        assert run(["condense", "--ring", ring_file, "--boson", "nope"]) == EXIT_USAGE

    def test_ising2_count(self, capsys):
        assert run(["ising2", "--count", "--format", "json"]) == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert payload["total"] == 20
        assert payload["histogram"] == {"2": 8, "4": 12}

    def test_ising2_data(self, capsys):
        assert run(["ising2", "--data", "1", "7", "--format", "json"]) == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert len(payload["labels"]) == 9
        assert run(["ising2", "--data", "2", "7"]) == EXIT_USAGE

    def test_sixteen_m(self, capsys):
        assert run(["sixteen-m", "--m", "3", "--format", "json"]) == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert payload["ok"] is True
        assert run(["sixteen-m", "--m", "4"]) == EXIT_USAGE


# JSON-ish values, documents shaped like a metric group or a ring, and texts
# cut short.  Groups have up to three factors: `metric autos` refuses a search
# as large as the one for the zero form on Z_6^3 (1.9 million automorphisms).
_ints = st.one_of(st.integers(-2, 12), st.sampled_from([2**63, -(2**63), 10**12, 10**6 + 1]))
_scalars = st.one_of(st.none(), st.booleans(), st.floats(allow_nan=False), st.text(max_size=3),
                     _ints)
_values = st.recursive(_scalars, lambda inner: st.one_of(
    st.lists(inner, max_size=2),
    st.dictionaries(st.sampled_from(["group", "q", "labels", "dual", "fusion", "x"]), inner,
                    max_size=3),
), max_leaves=8)


def _rows(width):
    return st.lists(st.one_of(st.lists(_ints, min_size=width, max_size=width), _values),
                    max_size=6)


_documents = st.one_of(
    _values,
    st.fixed_dictionaries({"group": st.one_of(st.lists(_ints, max_size=3), _values),
                           "q": st.one_of(_rows(3), _values)}),
    st.fixed_dictionaries({"labels": st.one_of(st.lists(st.text(max_size=2), max_size=3), _values),
                           "dual": st.one_of(st.lists(_ints, max_size=3), _values),
                           "fusion": st.one_of(_rows(4), _values)}),
)


@st.composite
def _json_texts(draw):
    text = json.dumps(draw(_documents))
    if draw(st.integers(0, 3)) == 0:
        text = text[: draw(st.integers(0, len(text)))]
    return text


class TestLoaderFuzz:
    @settings(max_examples=200, deadline=None)
    @given(_json_texts(), st.sampled_from([["metric", "autos", "--file"], ["verify", "--ring"]]))
    def test_any_text_exits_by_the_contract(self, text, argv):
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "input.json")
            with open(path, "w") as fh:
                fh.write(text)
            err = io.StringIO()
            with redirect_stdout(io.StringIO()), redirect_stderr(err):
                code = run([*argv, path])
        assert code in (EXIT_OK, EXIT_CHECK_FAILED, EXIT_USAGE)
        assert "Traceback" not in err.getvalue()


def test_import_loads_no_heavy_optional_module():
    # setup_s pays for every eager import; numpy, scipy, sympy and networkx stay lazy
    src = str(Path(modcat.__file__).resolve().parents[1])
    code = ("import sys, modcat; print(','.join(m for m in ('numpy', 'scipy', 'sympy', 'networkx') "
            "if m in sys.modules))")
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         check=True)
    assert out.stdout.strip() == ""


def _python(*args, text=True):
    """A fresh interpreter on this checkout's package, with its output captured."""
    src = str(Path(modcat.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    return subprocess.run([sys.executable, *args], env=env, capture_output=True, text=text)


def _fresh(code: str) -> str:
    proc = _python("-c", code)
    proc.check_returncode()
    return proc.stdout.strip()


# the names `import modcat` exported before they were loaded lazily
EXPORTED = [
    "AlgebraicReal", "AxiomReport", "CondensationReport", "DegenerateInputError", "FusionRing",
    "GaugingDatum", "Grading", "InternalConsistencyError", "InvertibleGroup", "IsingParams",
    "MalformedInputError", "MetaplecticCensus", "MetricGroup", "ModcatError", "ParameterError",
    "Phase", "PreconditionError", "RedirectError", "ResourceLimitError", "RibbonData",
    "SMatrix", "UnsupportedInputError", "Z2Module", "adjoint_subring", "asymptotic_dim_ratio",
    "based_ring_isomorphism", "boson_fermion_census", "build_so_n2", "centralizer",
    "classify_invertible", "condense_boson", "count_gaugings_per_form", "count_metaplectic",
    "cyclic_form", "deligne_product", "deligne_ribbon", "enumerate_cyclic_metric_groups",
    "equivalence_test", "exact_dimensions",
    "form_preserving_autos", "fp_dimensions", "gauge_particle_hole", "gauss_sums",
    "gn_grading", "hom_space_dim", "invertibles", "is_modular",
    "ising_squared_data", "ising_squared_enumeration", "ising_squared_total_count",
    "muger_center", "pointed_ribbon_data", "s_matrix", "sixteen_m_component_census",
    "structure_census", "subring_generated", "universal_grading",
    "verify_axioms", "z2_cohomology",
]


@pytest.mark.parametrize("argv, code", [
    (["--help"], EXIT_OK),
    (["so2"], EXIT_USAGE),
    (["metric", "enumerate"], EXIT_USAGE),
    (["count", "--n", "30"], EXIT_OK),
    (["ising2", "--count", "--format", "json"], EXIT_OK),
    (["count", "--n", "1000000000000000003"], EXIT_USAGE),
])
def test_commands_that_start_without_numpy(argv, code):
    out = _fresh("import io, sys; from contextlib import redirect_stdout, redirect_stderr; "
                 "from modcat.cli import run\n"
                 f"with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()): c = run({argv!r})\n"
                 "print(c, 'numpy' in sys.modules)")
    assert out == f"{code} False"


def test_lazy_exports_keep_the_public_names():
    out = _fresh("import json, modcat; ns = {}; exec('from modcat import *', ns); "
                 "print(json.dumps([sorted(modcat.__all__), sorted(set(ns) - {'__builtins__'})]))")
    assert json.loads(out) == [EXPORTED, EXPORTED]
    assert modcat.count_metaplectic is modcat._abelian.count_metaplectic
    with pytest.raises(AttributeError, match="no_such_name"):
        modcat.no_such_name  # noqa: B018


def test_a_reader_that_closes_the_pipe_early_is_no_input_error(tmp_path):
    src = str(Path(modcat.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}

    def main(*argv):
        return [sys.executable, "-c", f"import sys; from modcat.cli import main; "
                f"sys.argv[1:] = {list(argv)!r}; main()"]

    with open(tmp_path / "err", "w+") as err:
        proc = subprocess.Popen(main("so2", "--n", "2000", "--format", "json"), env=env,
                                stdout=subprocess.PIPE, stderr=err)
        proc.stdout.read(50)
        proc.stdout.close()
        code = proc.wait(timeout=60)
        err.seek(0)
        assert "error:" not in err.read()
    assert code != EXIT_USAGE
    # a ring file that is not there is still an input error
    missing = subprocess.run(main("grading", "--ring", str(tmp_path / "none.json")), env=env,
                             capture_output=True, text=True)
    assert missing.returncode == EXIT_USAGE and missing.stderr.startswith("error:")


def test_gradings_and_isomorphism_load_no_masked_arrays():
    # the first np.unique in a process imports numpy.ma, about 16 ms
    src = str(Path(modcat.__file__).resolve().parents[1])
    code = ("import sys; from modcat import *; from modcat.catalog import based_ring_isomorphism; "
            "r = build_so_n2(12); universal_grading(r); gn_grading(r); "
            "g = gauge_particle_hole(enumerate_cyclic_metric_groups(12)[0]); "
            "assert based_ring_isomorphism(g, r) is not None; "
            "z2_cohomology(Z2Module((2, 4), 'trivial'), 2); "
            "z2_cohomology(Z2Module((2, 4), 'negation'), 3); "
            "z2_cohomology(Z2Module((2, 2), (0, 2, 1, 3)), 2); print('numpy.ma' in sys.modules)")
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         check=True)
    assert out.stdout.strip() == "False"


@pytest.mark.parametrize("cmd", [
    "so2 --n 10000000", "sixteen-m --m 10001", "so2 --n 40000", "so2 --n 40001",
    "so2 --n 999998", "so2 --n 999999", "gauge --n 999999",
])
def test_oversized_builds_are_refused_fast(cmd):
    # under a 3 GiB address space, so that a build that is not refused fails
    # in the child instead of filling the memory of the host; the modules are
    # imported before the clock starts
    proc = _python("-c", "import resource, time\n"
                   "_, hard = resource.getrlimit(resource.RLIMIT_AS)\n"
                   "resource.setrlimit(resource.RLIMIT_AS, (3 << 30, hard))\n"
                   "import modcat.catalog; from modcat.cli import run\n"
                   f"start = time.perf_counter(); code = run({cmd.split()!r})\n"
                   "print(code, time.perf_counter() - start)")
    assert proc.stderr.startswith("error: ") and "Traceback" not in proc.stderr
    code, seconds = proc.stdout.split()
    assert int(code) == EXIT_USAGE and float(seconds) < 1.0


def test_main_keeps_the_exit_contract(tmp_path, capsys):
    # main() freezes the heap before it exits; the output is still flushed
    # in full and the exit code is still run's
    def main(*argv):
        return _python("-m", "modcat.cli", *argv, text=False)

    big = main("so2", "--n", "600", "--format", "json")
    assert big.returncode == EXIT_OK
    assert run(["so2", "--n", "600", "--format", "json"]) == EXIT_OK
    assert big.stdout == capsys.readouterr().out.encode()

    r = build_so_n2(6)
    fusion = r.fusion.copy()
    fusion[1, 1, 2] += 1
    bad = tmp_path / "bad.json"
    bad.write_text(FusionRing(r.labels, r.dual, fusion).dumps())
    assert main("verify", "--ring", str(bad)).returncode == EXIT_CHECK_FAILED
    assert main("so2").returncode == EXIT_USAGE
    # only main() freezes: in-process callers keep a heap the collector can clear
    assert gc.get_freeze_count() == 0


@pytest.mark.parametrize("cmd, loaded", [
    ("so2 --n 12", "catalog gauging"),
    ("census --n 12", "catalog gauging"),
    ("gauge --n 12", "gauging"),
    ("condense --ring {ring} --boson fg", "gauging"),
    ("metric enumerate --n 12", ""),
    ("metric autos --file {form}", ""),
    ("sixteen-m --m 3", "catalog gauging"),
    ("verify --ring {ring}", ""),
    ("dims --ring {ring}", ""),
    ("grading --ring {ring}", ""),
    ("ising2 --data 1 3", "catalog gauging modular"),
])
def test_each_command_loads_only_the_modules_it_runs(tmp_path, cmd, loaded):
    ring, form = tmp_path / "ring.json", tmp_path / "form.json"
    ring.write_text(build_so_n2(12).dumps())
    form.write_text(modcat.enumerate_cyclic_metric_groups(7)[0].dumps())
    argv = [a.format(ring=ring, form=form) for a in cmd.split()]
    out = _fresh("import io, sys; from contextlib import redirect_stdout, redirect_stderr; "
                 "from modcat.cli import run\n"
                 f"with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()): c = run({argv!r})\n"
                 "print(c, *(m for m in ('catalog', 'gauging', 'modular') if 'modcat.' + m in sys.modules))")
    assert out == f"{EXIT_OK} {loaded}".strip()
