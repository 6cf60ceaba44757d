#!/usr/bin/env python3
"""Record a parent/change benchmark comparison as ``BENCH_<pr>.json``.

    python3 scripts/bench_record.py PARENT_DIR CHANGE_DIR --pr N \\
        --parent-commit SHA [--out FILE]

PARENT_DIR and CHANGE_DIR hold the untraced records that
``perfbench/run.py --out DIR`` writes for each side.  The comparison is
``perfbench/compare.py``'s: runs paired by workload and seed, and per
workload and end-to-end metric each side's q1/median/q3 over its runs,
the pairs the change wins, and the verdict.  Traced records
(``--trace 1``) of one workload and seed on both sides add that
workload's per-layer metrics, side by side, under ``traced``, so the
record shows in which layers the time moved.  The file also names the
machine, which every record must share.  The change is the commit that
adds the file (``git log -- BENCH_<N>.json``).  ``--out`` defaults to
``BENCH_<N>.json`` in the repository root.  Exits with 1 where
``compare.py`` would.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "perfbench"))

from compare import BENCHMARK, compare, load  # noqa: E402


def machine(*dirs) -> dict:
    """The one machine that ran every record in DIRS."""
    seen = {json.dumps(r["machine"], sort_keys=True)
            for d in dirs for recs in load(d).values() for r in recs.values()}
    if len(seen) != 1:
        raise SystemExit(f"records come from {len(seen)} machines, not one")
    return json.loads(seen.pop())


def traced(directory) -> dict:
    """(workload, seed) -> per-layer metrics, for traced records."""
    out = {}
    for path in sorted(Path(directory).glob("*-trace1.json")):
        rec = json.loads(path.read_text())
        out[rec["workload"], rec["seed"]] = rec["metrics"]
    return out


def bench_record(parent_dir, change_dir, pr, parent_commit) -> tuple:
    """(the BENCH_<pr>.json document, whether compare.py reads it bad)."""
    rows, bad = compare(parent_dir, change_dir,
                        json.loads(BENCHMARK.read_text()))
    workloads = {}
    for row in rows:
        entry = workloads.setdefault(row[0], {"metrics": {}, "notes": []})
        if len(row) == 2:
            entry["notes"].append(row[1])
            continue
        _, name, _, pq, cq, wins, pairs, verdict, _ = row
        entry["metrics"][name] = {
            "parent": dict(zip(("q1", "median", "q3"), pq)),
            "change": dict(zip(("q1", "median", "q3"), cq)),
            "wins": wins, "pairs": pairs, "verdict": verdict}
    parent_traced, change_traced = traced(parent_dir), traced(change_dir)
    for name, seed in sorted(parent_traced.keys() & change_traced.keys()):
        p, c = parent_traced[name, seed], change_traced[name, seed]
        workloads.setdefault(name, {"metrics": {}, "notes": []}).setdefault(
            "traced", []).append({"seed": seed, "layers": {
                layer: {"parent": p[layer], "change": c[layer]}
                for layer in sorted(p.keys() & c.keys())}})
    doc = {"pr": pr, "parent_commit": parent_commit,
           "machine": machine(parent_dir, change_dir),
           "workloads": workloads}
    return doc, bad


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent_dir")
    ap.add_argument("change_dir")
    ap.add_argument("--pr", type=int, required=True)
    ap.add_argument("--parent-commit", required=True)
    ap.add_argument("--out")
    args = ap.parse_args(argv)
    doc, bad = bench_record(args.parent_dir, args.change_dir, args.pr,
                            args.parent_commit)
    out = Path(args.out) if args.out else ROOT / f"BENCH_{args.pr}.json"
    out.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
