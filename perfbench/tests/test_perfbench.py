"""Self-tests of the benchmark itself.

    python3 -m pytest perfbench/tests -q
"""

import itertools
import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import compare  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def first_inputs(name, seed, tmp_path, n=12):
    wl = run.make_workload(name, seed, tmp_path)
    return list(itertools.islice(wl.inputs(), n))


@pytest.mark.parametrize("name", WORKLOADS)
def test_seed_determines_inputs(name, tmp_path):
    assert first_inputs(name, 1, tmp_path) == first_inputs(name, 1, tmp_path)
    assert first_inputs(name, 1, tmp_path) != first_inputs(name, 2, tmp_path)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", WORKLOADS)
def test_tiny_run_prints_every_metric_with_unit(name, trace, tmp_path):
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", name,
         "--seed", "3", "--seconds", "0.1", "--trace", str(trace),
         "--out", str(tmp_path)],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        k: v["unit"] for k, v in result["metrics"].items()}
    for k, v in result["metrics"].items():
        assert isinstance(v["value"], (int, float)), k
        assert k in proc.stdout.split(json.dumps(result))[0]


def test_mislabelled_form_raises_wrong_verdict_share(monkeypatch):
    # a sum of squares is not Lorentzian; labelling it positive must count
    monkeypatch.setitem(workloads.CATALOGUE, "mislabelled", (
        workloads.diagonal_form([1, 1, 1]), None, "exact", workloads.POSITIVE))
    wl = workloads.Forms(0)
    wl.setup()
    tally = workloads.Tally(wl.open_defects)
    item = ("mislabelled", 7, 5)
    wl.check(item, wl.run(item), tally)
    assert tally.summary()["wrong_verdict_share"] > 0
    assert not tally.correct


def test_mislabelled_lti_raises_wrong_verdict_share():
    wl = workloads.LTI(0)
    wl.setup()
    payload = {"n": 2, "rows": [[-1, 0], [0, -2]]}
    report, text = wl.run(payload)
    report["lti_report"]["conclusion"] = "unstable"
    tally = workloads.Tally()
    wl.check(payload, (report, text), tally)
    assert tally.wrong == 1 and not tally.correct


def test_open_defects_count_but_keep_correct():
    tally = workloads.Tally(workloads.OPEN_DEFECTS)
    key = ("e3_4", "hessian_signature")
    tally.label(False, key, key)
    tally.label(True, ("e2_4", "hessian_signature"))
    assert tally.summary()["wrong_verdict_share"] == 0.5
    assert tally.correct


def test_tracer_restores_bindings_and_splits_self_time():
    import conestab.hurwitz
    import conestab.verdict
    original = (conestab.hurwitz.leading_minors,
                conestab.verdict.InequalityLedger.require)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        from conestab.cli import RunConfig, cmd_unipoly
        tracer.op = 0
        tracer.span("op", cmd_unipoly, {"coeffs": [1, 3, 3, 1]}, RunConfig())
    finally:
        tracer.uninstall()
    assert (conestab.hurwitz.leading_minors,
            conestab.verdict.InequalityLedger.require) == original
    agg = tracer.aggregate()
    assert agg["numerics.leading_minors"]["calls"] == 1
    assert agg["verdict.require"]["calls"] > 0
    op = agg["op"]
    assert 0 <= op["self_ns"] < op["total_ns"]
    children = sum(a["self_ns"] for k, a in agg.items() if k != "op")
    assert children + op["self_ns"] == op["total_ns"]


def test_compare_marks_wide_spread_unresolved():
    parent = [100, 150, 80, 120, 90]
    change = [95, 140, 85, 110, 100]
    verdict, _ = compare.judge(parent, change, "lower", 0.1,
                               list(zip(change, parent)))
    assert verdict == "unresolved"
    verdict, wins = compare.judge([100, 101, 99, 100], [80, 81, 79, 80],
                                  "lower", 0.1, [(80, 100), (81, 101),
                                                 (79, 99), (80, 100)])
    assert (verdict, wins) == ("better", 4)


def test_run_refuses_a_tree_without_sources(tmp_path):
    copy = tmp_path / "perfbench"
    copy.mkdir()
    for f in BENCH.glob("*.py"):
        (copy / f.name).write_text(f.read_text())
    proc = subprocess.run([sys.executable, str(copy / "run.py"), "--workload",
                           "sweep", "--seed", "1", "--seconds", "1"],
                          cwd=tmp_path, capture_output=True, text=True,
                          timeout=60)
    assert proc.returncode != 0 and proc.stdout == ""
