"""The paper scripts draw the same inputs in every process, and the
instances they build meet the checks they count against."""

import importlib
import json
import math
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from conestab import (Cone, alpha_criterion, clc_d_le_4_criterion,
                      lti_report, quintic_criterion, restrict_line,
                      restriction_realization_check, routh_hurwitz_stable)

ROOT = Path(__file__).resolve().parents[1]

# A small sufficiency sweep that prints the coefficients it hands to the
# exact Routh-Hurwitz test.
SWEEP = """
import json
import sufficiency_sweep as sweep

drawn = []
decide = sweep.routh_hurwitz_stable


def recording(p, *args, **kwargs):
    drawn.append([str(c) for c in p.coeffs])
    return decide(p, *args, **kwargs)


sweep.routh_hurwitz_stable = recording
sweep.main(["--count", "3"])
print(json.dumps(drawn))
"""


def scripts_env(**extra) -> dict:
    path = [str(ROOT / "src"), str(ROOT / "scripts")]
    if os.environ.get("PYTHONPATH"):
        path.append(os.environ["PYTHONPATH"])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(path), **extra)


def drawn_under(hash_seed: int) -> list:
    out = subprocess.run([sys.executable, "-c", SWEEP],
                         env=scripts_env(PYTHONHASHSEED=str(hash_seed)),
                         capture_output=True, text=True, check=True)
    return json.loads(out.stdout.splitlines()[-1])


def test_sufficiency_sweep_draws_the_same_polynomials_in_every_process():
    # str hashes are salted per process, so a seed taken from hash() would
    # draw other polynomials under another PYTHONHASHSEED
    first = drawn_under(1)
    assert len(first) == 9
    assert drawn_under(2) == first


def test_lti_sufficiency_holds_on_realized_linear_form_products():
    # products of positive linear forms, restricted along interior lines of
    # the orthant and realized as matrices, pass the realization check
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "lti_sufficiency.py"),
         "--count", "5"], env=scripts_env(), capture_output=True, text=True)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    lines = [line for line in proc.stdout.splitlines()
             if line.startswith("linear-form products")]
    assert len(lines) == 1 and lines[0].endswith(", 0 counterexamples")


def script_module(monkeypatch, name):
    monkeypatch.syspath_prepend(str(ROOT / "scripts"))
    return importlib.import_module(name)


# the criterion that implies stability of a real-rooted restriction of
# each degree: the first of the report's criteria that holds
CRITERION_BY_DEGREE = {1: "clc_d_le_4", 2: "clc_d_le_4", 3: "clc_d_le_4",
                       4: "clc_d_le_4", 5: "quintic", 6: "alpha_square",
                       8: "alpha_square"}


@pytest.mark.parametrize("d", sorted(CRITERION_BY_DEGREE))
@pytest.mark.parametrize("n", [2, 3, 4])
def test_realized_linear_form_product_implies_stability(monkeypatch, n, d):
    # one instance of the lti_sufficiency.py realization family: the
    # restriction has the real negative roots -a.x0 / a.v, one per form
    script = script_module(monkeypatch, "lti_sufficiency")
    rng = random.Random(f"linear-form product {n}/{d}")
    rows = [[rng.randint(1, 9) for _ in range(n)] for _ in range(d)]
    f = script.linear_form_product(rows)
    x = [rng.randint(-5, 5) for _ in range(n)]
    assert f.eval(x) == math.prod(sum(a * xi for a, xi in zip(row, x))
                                  for row in rows)
    x0, v = ([rng.randint(1, 9) for _ in range(n)] for _ in range(2))
    restriction = restrict_line(f, x0, v)
    A = script.realize(rng, restriction.monic())
    check = restriction_realization_check(f, Cone.orthant(n), x0, v, A)
    assert check.is_holds, check.witness
    assert check.witness["implied_stable"] is True
    assert check.witness["criterion"] == CRITERION_BY_DEGREE[d]
    report = lti_report(A)
    assert report.char_poly.coeffs == restriction.monic().coeffs
    assert report.conclusion == "stable"


@pytest.mark.parametrize("family,d,criterion", [
    *(("strict_newton_poly", d, clc_d_le_4_criterion) for d in range(1, 5)),
    ("strict_newton_poly", 5, quintic_criterion),
    *(("alpha_square_poly", d, lambda p: alpha_criterion(p, "square"))
      for d in range(5, 11)),
])
def test_sweep_instances_are_exactly_stable(monkeypatch, family, d,
                                            criterion):
    # the sufficiency sweep's ground truth on its own generators: every
    # drawn polynomial that meets the criterion passes the exact minor test
    make = getattr(script_module(monkeypatch, "sufficiency_sweep"), family)
    rng = random.Random(f"sufficiency sweep {family}/{d}")
    kept = 0
    for _ in range(40):
        p = make(rng, d)
        assert p.degree == d and p.is_exact
        if criterion(p).is_holds:
            kept += 1
            assert routh_hurwitz_stable(p).is_holds, list(p.coeffs)
    assert kept > 0


def write_records(directory: Path, workload: str, metrics_by_seed: dict):
    """Untraced records in the layout ``perfbench/run.py --out`` writes."""
    directory.mkdir(exist_ok=True)
    for seed, metrics in metrics_by_seed.items():
        record = {"workload": workload, "seed": seed, "trace": 0,
                  "seconds": 25, "correct": True, "failed": 0,
                  "metrics": metrics, "machine": {"nproc": 2}}
        (directory / f"{workload}-seed{seed}-trace0.json").write_text(
            json.dumps(record))


def test_bench_record_writes_quartiles_wins_and_verdicts(tmp_path):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    steady = {m["name"]: 10.0 for m in spec["end_to_end"]}
    seeds = range(1, 11)
    parent, change = tmp_path / "parent", tmp_path / "change"
    # the change halves latency_p50_ms on every seed; the parent's runs
    # read 300, 301, ..., 309 ms
    write_records(parent, "cli", {
        s: dict(steady, latency_p50_ms=299.0 + s) for s in seeds})
    write_records(change, "cli", {
        s: dict(steady, latency_p50_ms=(299.0 + s) / 2) for s in seeds})
    # a workload run on the parent alone
    write_records(parent, "lti", {1: steady})
    # traced runs: cli seed 3 on both sides, seed 4 on the parent alone
    for directory, layers in ((parent, {"cli.import_ms": 120.0, "x": 1.0}),
                              (change, {"cli.import_ms": 60.0})):
        (directory / "cli-seed3-trace1.json").write_text(json.dumps(
            {"workload": "cli", "seed": 3, "trace": 1, "metrics": layers}))
    (parent / "cli-seed4-trace1.json").write_text(json.dumps(
        {"workload": "cli", "seed": 4, "trace": 1, "metrics": {"x": 1.0}}))
    out = tmp_path / "BENCH_7.json"
    command = [sys.executable, str(ROOT / "scripts" / "bench_record.py"),
               str(parent), str(change), "--pr", "7",
               "--parent-commit", "abc123", "--out", str(out)]
    proc = subprocess.run(command, capture_output=True, text=True)
    # a workload missing on one side reads bad, as in perfbench/compare.py
    assert proc.returncode == 1, proc.stderr
    doc = json.loads(out.read_text())
    assert (doc["pr"], doc["parent_commit"], doc["machine"]) == (
        7, "abc123", {"nproc": 2})
    cli = doc["workloads"]["cli"]
    assert cli["notes"] == []
    assert cli["traced"] == [{"seed": 3, "layers": {
        "cli.import_ms": {"parent": 120.0, "change": 60.0}}}]
    p50 = cli["metrics"]["latency_p50_ms"]
    assert p50 == {
        "parent": {"q1": 301.75, "median": 304.5, "q3": 307.25},
        "change": {"q1": 150.875, "median": 152.25, "q3": 153.625},
        "wins": 10, "pairs": 10, "verdict": "better"}
    assert set(cli["metrics"]) == set(steady)
    for name, m in cli["metrics"].items():
        if name != "latency_p50_ms":
            assert (m["wins"], m["verdict"]) == (0, "same"), name
    assert doc["workloads"]["lti"] == {
        "metrics": {}, "notes": ["missing on one side"]}

    # runs from two machines are not one comparison
    out.unlink()
    write_records(change, "cli", {1: dict(steady, latency_p50_ms=150.0)})
    record = change / "cli-seed1-trace0.json"
    record.write_text(record.read_text().replace('"nproc": 2', '"nproc": 4'))
    proc = subprocess.run(command, capture_output=True, text=True)
    assert proc.returncode != 0
    assert "2 machines" in proc.stderr
    assert not out.exists()


def test_report_digests_stops_at_the_first_non_standard_report(monkeypatch,
                                                               capsys):
    monkeypatch.syspath_prepend(str(ROOT / "scripts"))
    import report_digests

    entries = [(name, "unipoly", {"coeffs": [1, 1]}, None, [])
               for name in ("first", "second", "third")]
    monkeypatch.setattr(report_digests, "corpus", lambda: iter(entries))
    reports = iter(['{"x": 1.5}', '{"x": NaN}', '{"x": 2}'])

    def cli_main(argv):
        print(next(reports))
        return 0

    monkeypatch.setattr(report_digests.cli, "main", cli_main)
    assert report_digests.main() == 1
    out, err = capsys.readouterr()
    assert [line.split()[0] for line in out.splitlines()] == ["first"]
    assert err.startswith("second: report is not standard JSON")


def test_report_digests_stall_group_stalls_the_minor_recurrence(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "scripts"))
    import report_digests

    from conestab import hurwitz_matrix, numerics
    from conestab.unipoly import unipoly_from_json

    stalled = [unipoly_from_json(payload)
               for name, _, payload, _, _ in report_digests.corpus()
               if name.startswith("unipoly/stall/")]
    assert len(stalled) == 20
    for p in stalled:
        (first, second), _ = numerics._integer_rows(hurwitz_matrix(p).rows[:2])
        assert numerics._routh_minors(first, second) is None, p
