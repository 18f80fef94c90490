"""Self-tests of the benchmark: `python3 -m pytest perfbench -q` from the
repository root."""

from __future__ import annotations

import contextlib
import io
import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import reference  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from run import CHUNK_S, BenchError, Checker, Launcher, calibrated  # noqa: E402

from kbonacci import cli, graph, polyomino, series, verify, words  # noqa: E402


def kbonacci_output(argv: list[str]) -> str:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert cli.main(argv) == 0
    return buf.getvalue()


# -- the reference values are right -----------------------------------

def test_reference_matches_kbonacci_brute_force():
    oracle = reference.Oracle()
    for k in range(2, 7):
        for n in range(1, 9):
            assert oracle.count(n, k) == words.count_words(n, k)
            assert oracle.totals(k, n) == verify.brute_totals(n, k)
            for family in reference.FAMILY_VARS:
                assert oracle.poly(family, k, n) == verify.brute_stats_poly(n, k, family).terms


def test_odd_run_rule_matches_backtracking():
    for n in range(1, 11):
        for w in words.iter_words(n, n + 1):
            g = graph.build_graph(polyomino.from_word(w))
            assert reference.is_hamiltonian(w.text) == graph.is_hamiltonian(g), w.text


def test_transfer_matrix_totals_match_series():
    oracle = reference.Oracle()
    for k in (2, 3, 5):
        for name in reference.TOTALS:
            coeffs = series.expand_ints(series.gf_named_total(name, k), 150)
            assert [oracle.totals(k, n)[name] for n in range(1, 151)] == coeffs[1:], (name, k)


# -- the checker ------------------------------------------------------

def _checked(tmp_path, op: dict, out: str, code=0, raised=None) -> Checker:
    (tmp_path / "0.out").write_text(out)
    (tmp_path / "0.err").write_text("error: boom\n" if code else "")
    checker = Checker([op])
    checker({"codes": [code], "raised": [raised]}, tmp_path)
    return checker


@pytest.mark.parametrize("argv", [
    ["count", "--n", "20", "--k", "3"],
    ["series", "--family", "poly", "--k", "3", "--terms", "9"],
    ["series", "--family", "degree", "--k", "4", "--terms", "9", "--format", "json"],
    ["series", "--family", "graph", "--k", "3", "--terms", "9", "--vars-at-1", "q"],
    ["series", "--family", "ham-total", "--k", "4", "--terms", "30"],
    ["series", "--family", "edges-total", "--k", "3", "--terms", "30", "--format", "json"],
    ["enumerate", "--n", "6", "--k", "3", "--with-stats", "--format", "csv"],
    ["asymptotics", "--degree", "3", "--n", "300"],
    ["verify", "--suite", "all", "--max-n", "5", "--max-k", "3", "--ham-cap", "4",
     "--format", "json"],
])
def test_checker_accepts_right_and_flags_corrupted_values(tmp_path, argv):
    op = {"kind": "cli", "argv": argv}
    out = kbonacci_output(argv)
    good = _checked(tmp_path, op, out)
    assert (good.failed, good.wrong) == (0, 0), good.reasons
    # shift one digit by 5: the last one, or in verify's report the first
    # one of a checked value rather than of a timing
    start = out.index('"actual": "') if argv[0] == "verify" else 0
    digits = [i for i in range(start, len(out)) if out[i].isdigit()]
    pos = digits[0] if argv[0] == "verify" else digits[-1]
    corrupted = out[:pos] + str((int(out[pos]) + 5) % 10) + out[pos + 1:]
    bad = _checked(tmp_path, op, corrupted)
    assert (bad.failed, bad.wrong) == (1, 1)


def test_checker_flags_wrong_brute_totals(tmp_path):
    op = {"kind": "brute_totals", "n": 6, "k": 3}
    totals = verify.brute_totals(6, 3)
    assert _checked(tmp_path, op, json.dumps(totals)).failed == 0
    totals["deg3"] += 1
    assert _checked(tmp_path, op, json.dumps(totals)).wrong == 1


def test_checker_flags_nonzero_exit_and_exception(tmp_path):
    op = {"kind": "cli", "argv": ["count", "--n", "5", "--k", "2"]}
    exited = _checked(tmp_path, op, "", code=2)
    assert (exited.failed, exited.wrong) == (1, 0)
    assert exited.reasons[0] == "exit 2: error: boom"
    raised = _checked(tmp_path, op, "13\n", code=None, raised="RuntimeError: x")
    assert (raised.failed, raised.wrong) == (1, 0)


# -- tracing ----------------------------------------------------------

class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_self_time_on_a_synthetic_span_tree():
    clock = FakeClock()
    tracer = tracing.Tracer(clock)

    def work(seconds):
        clock.now += seconds

    def leaf():
        work(1)

    def recurse(depth):  # same-name nesting: calls and time count once
        work(2)
        if depth:
            recurse_t(depth - 1)

    def mid():
        work(3)
        leaf_t()
        recurse_t(1)
        leaf_t()

    def root():
        work(5)
        mid_t()

    leaf_t = tracer.wrap("leaf", leaf)
    recurse_t = tracer.wrap("recurse", recurse)
    mid_t = tracer.wrap("mid", mid)
    root_t = tracer.wrap("root", root)
    root_t()
    assert [tracer.calls(n) for n in ("root", "mid", "leaf", "recurse")] == [1, 1, 2, 1]
    assert tracer.inclusive("root") == 14
    assert tracer.inclusive("mid") == 9
    assert tracer.inclusive("recurse") == 4
    assert tracer.self_time("root") == 5
    assert tracer.self_time("mid") == 3
    assert tracer.self_time("leaf") == 2
    assert tracer.self_time("recurse") == 4
    assert sum(s[2] for s in tracer.stats.values()) == tracer.inclusive("root")


def test_generator_time_counts_only_inside_next():
    clock = FakeClock()
    tracer = tracing.Tracer(clock)

    def gen():
        for i in range(3):
            clock.now += 1
            yield i

    for _ in tracer.wrap_iter("g", gen)():
        clock.now += 10  # the consumer's time
    assert (tracer.calls("g"), tracer.inclusive("g"), tracer.counts["g.items"]) == (1, 3, 3)


INSTALL_CHECK = """
import sys
sys.path[:0] = [{src!r}, {here!r}]
import kbonacci.cli, tracing
originals = {{}}
for module, attr, name in tracing.TARGETS:
    owner = sys.modules["kbonacci." + module]
    if "." not in attr:
        originals[attr] = getattr(owner, attr)
tracing.install(tracing.Tracer())
left = []
for mname, m in list(sys.modules.items()):
    if not mname.startswith("kbonacci"):
        continue
    for binding, value in vars(m).items():
        values = value.values() if isinstance(value, dict) else [value]
        left += [f"{{mname}}.{{binding}}" for v in values
                 if any(v is o for o in originals.values())]
import kbonacci.formulas as f
assert all(hasattr(getattr(f, n), "__wrapped__")
           for n in ("expand", "expand_ints", "gf_named_total", "enumerate_words"))
print(left)
"""


def test_install_replaces_every_binding_site():
    code = INSTALL_CHECK.format(src=str(ROOT / "src"), here=str(HERE))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True).stdout
    assert out.strip() == "[]"


def test_traced_and_untraced_outputs_are_identical(tmp_path):
    ops = [
        {"kind": "cli", "argv": ["series", "--family", "degree", "--k", "3", "--terms", "8"]},
        {"kind": "cli", "argv": ["enumerate", "--n", "5", "--k", "3", "--with-stats"]},
        {"kind": "cli", "argv": ["verify", "--suite", "ham", "--max-n", "5", "--max-k", "3"]},
        {"kind": "cli", "argv": ["count", "--n", "40", "--k", "4"]},
        {"kind": "brute_totals", "n": 5, "k": 3},
    ]
    outputs = {}
    with Launcher() as launcher:
        for trace in (False, True):
            outdir = tmp_path / str(trace)
            outdir.mkdir()
            report = launcher.spawn(ops, trace, outdir)
            assert report["codes"] == [0] * len(ops)
            outputs[trace] = [(outdir / f"{i}.out").read_bytes() for i in range(len(ops))]
    assert outputs[True] == outputs[False]
    metrics = report["trace"]
    assert abs(1 - metrics["trace.self_coverage"]) <= tracing.COVERAGE_TOLERANCE
    assert metrics["cli.verify.calls"] == metrics["cli.series.calls"] == 1
    assert metrics["verify.brute_totals.calls"] == 1
    assert metrics["words.Word.calls"] > 0


# -- the calibrated clock ---------------------------------------------

def test_calibrated_time_scales_by_the_mean_sample():
    assert calibrated(3.0, [CHUNK_S, CHUNK_S]) == pytest.approx(3.0)
    # the machine ran at half speed on average: half the time counts
    assert calibrated(3.0, [CHUNK_S, 3 * CHUNK_S]) == pytest.approx(1.5)
    with pytest.raises(BenchError):
        calibrated(3.0, [])


def test_worker_samples_speed_during_operations_and_after_set_up(tmp_path):
    import worker
    ops = [{"kind": "cli", "argv": ["series", "--family", "degree", "--k", "3",
                                    "--terms", "40"]}]
    with Launcher() as launcher:
        probe = launcher.spawn([], False, tmp_path)
        report = launcher.spawn(ops, False, tmp_path)
        traced = launcher.spawn(ops, True, tmp_path)
    assert len(probe["clock"]) == worker.PROBE_SAMPLES
    # one sample per TICK_S of wall time, give or take the ones a long C
    # call delays
    assert 0 < len(report["clock"]) <= report["wall_s"] / worker.TICK_S + 1
    assert sum(report["clock"]) < report["wall_s"]
    assert traced["clock"] == []


# -- workloads and BENCHMARK.json ------------------------------------

def test_operations_depend_only_on_the_seed():
    for name in workloads.NAMES:
        assert workloads.operations(name, 7) == workloads.operations(name, 7)
        assert any(workloads.operations(name, s) != workloads.operations(name, 0)
                   for s in range(1, 6))


def test_benchmark_json_lists_the_metrics_the_runs_report():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.NAMES)
    assert {m["name"] for m in spec["end_to_end"]} == {
        "wall_s", "setup_s", "peak_rss_mb", "ok_ratio"}
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} == tracing.METRICS
