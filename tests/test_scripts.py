"""The paper scripts draw the same inputs in every process."""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# A small sufficiency sweep that prints the coefficients it hands to the
# root oracle.
SWEEP = """
import json
import sufficiency_sweep as sweep

drawn = []
oracle = sweep.root_oracle_verdict


def recording(p, *args, **kwargs):
    drawn.append([str(c) for c in p.coeffs])
    return oracle(p, *args, **kwargs)


sweep.root_oracle_verdict = recording
sweep.main(["--count", "3"])
print(json.dumps(drawn))
"""


def drawn_under(hash_seed: int) -> list:
    path = [str(ROOT / "src"), str(ROOT / "scripts")]
    if os.environ.get("PYTHONPATH"):
        path.append(os.environ["PYTHONPATH"])
    env = dict(os.environ, PYTHONHASHSEED=str(hash_seed),
               PYTHONPATH=os.pathsep.join(path))
    out = subprocess.run([sys.executable, "-c", SWEEP], env=env,
                         capture_output=True, text=True, check=True)
    return json.loads(out.stdout.splitlines()[-1])


def test_sufficiency_sweep_draws_the_same_polynomials_in_every_process():
    # str hashes are salted per process, so a seed taken from hash() would
    # draw other polynomials under another PYTHONHASHSEED
    first = drawn_under(1)
    assert len(first) == 9
    assert drawn_under(2) == first


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
