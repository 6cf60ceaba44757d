#!/usr/bin/env python3
"""Compare two sets of benchmark records, parent against change.

    python3 perfbench/compare.py PARENT_DIR CHANGE_DIR

Each directory holds the ``<workload>-seed<n>-trace0.json`` records that
``run.py --out DIR`` writes.  Runs are paired by workload and seed.  For
every workload and end-to-end metric of BENCHMARK.json the output gives
each side's median and quartiles, the pairs the change wins, and a
verdict:

* ``better``      the change wins at least 9/10 of the pairs and the
                  medians differ by more than the parent's quartile distance;
* ``worse``       the change's median is worse than the parent's by more
                  than the metric's bound;
* ``unresolved``  either side's quartile distance is wider than the bound
                  (unless every change run beats every parent run);
* ``same``        none of the above.

Exits with 1 when any metric reads ``worse`` or a change run is incorrect.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import stats  # noqa: E402

BENCHMARK = Path(__file__).resolve().parents[1] / "BENCHMARK.json"


def load(directory) -> dict:
    """workload -> seed -> record, for untraced records."""
    out = {}
    for path in sorted(Path(directory).glob("*-trace0.json")):
        rec = json.loads(path.read_text())
        out.setdefault(rec["workload"], {})[rec["seed"]] = rec
    return out


def judge(parent, change, better, bound, pairs) -> tuple:
    """(verdict, wins) for one metric; values are per-run medians."""
    def is_better(c, p):
        return c > p if better == "higher" else c < p

    wins = sum(is_better(c, p) for c, p in pairs)
    p1, pm, p3 = stats.quartiles(parent)
    _, cm, _ = stats.quartiles(change)
    worse_by = (cm - pm) / pm if better == "lower" else (pm - cm) / pm
    all_better = all(is_better(c, p) for c in change for p in parent)
    if max(stats.spread(parent), stats.spread(change)) > bound and not all_better:
        return "unresolved", wins
    if pairs and wins >= 0.9 * len(pairs) and abs(cm - pm) > p3 - p1:
        return "better", wins
    if worse_by > bound:
        return "worse", wins
    return "same", wins


def compare(parent_dir, change_dir, spec) -> tuple:
    parent, change = load(parent_dir), load(change_dir)
    rows = []
    bad = False
    for workload in sorted(set(parent) | set(change)):
        p_runs, c_runs = parent.get(workload, {}), change.get(workload, {})
        if not p_runs or not c_runs:
            rows.append((workload, "missing on one side"))
            bad = True
            continue
        seeds = sorted(set(p_runs) & set(c_runs))
        incorrect = {side: [s for s, r in runs.items()
                            if not r["correct"] or r["failed"]]
                     for side, runs in (("parent", p_runs), ("change", c_runs))}
        bad |= bool(incorrect["change"])
        for m in spec["end_to_end"]:
            name = m["name"]
            pv = [r["metrics"][name] for r in p_runs.values()]
            cv = [r["metrics"][name] for r in c_runs.values()]
            pairs = [(c_runs[s]["metrics"][name], p_runs[s]["metrics"][name])
                     for s in seeds]
            verdict, wins = judge(pv, cv, m["better"], m["bound"], pairs)
            bad |= verdict == "worse"
            rows.append((workload, name, m["unit"], stats.quartiles(pv),
                         stats.quartiles(cv), wins, len(pairs), verdict,
                         m["bound"]))
        if any(incorrect.values()):
            rows.append((workload, f"seeds of incorrect or failed runs: {incorrect}"))
    return rows, bad


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    spec = json.loads(BENCHMARK.read_text())
    rows, bad = compare(argv[0], argv[1], spec)
    print(f"{'workload':9s} {'metric':18s} {'unit':5s} "
          f"{'parent q1/median/q3':>32s} {'change q1/median/q3':>32s} "
          f"{'wins':>7s} verdict (bound)")
    for row in rows:
        if len(row) == 2:
            print(f"{row[0]:9s} {row[1]}")
            continue
        workload, name, unit, pq, cq, wins, n, verdict, bound = row
        fmt = "/".join(f"{v:.4g}" for v in pq), "/".join(f"{v:.4g}" for v in cq)
        print(f"{workload:9s} {name:18s} {unit:5s} {fmt[0]:>32s} {fmt[1]:>32s} "
              f"{wins:>3d}/{n:<3d} {verdict} ({bound})")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
