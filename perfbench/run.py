#!/usr/bin/env python3
"""conestab benchmark runner.

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 0

Run from the repository root; conestab is imported from ``src/``.  With
``--trace 0`` the last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics`` (every
end-to-end metric); ``--trace 1`` reports every per-layer metric instead.
The lines before it give the same numbers with units, the correctness
counts and the input properties.  The full record, and on traced runs the
spans of the first traced pass, are written under ``--out`` (default
``.perfbench/``).

The runner itself imports nothing of conestab.  It starts the measuring
worker as a child, several times over on untraced runs: the worker
reports when its set-up (interpreter start, import, input generation,
warm-up) is done, and ``setup_s`` is the median of those set-up times.
Only the last worker goes on to measure.  Every workload is a closed loop
with one caller and at most one CLI child at a time.

Every time metric is CPU time: of the worker process, plus that of its
CLI children on ``cli``.  The workloads wait for nothing but the CLI
children they start, while on a shared host wall time also counts the
stretches in which other tenants hold the CPU, a noise wider than any
bound a change could be judged by.  Wall times are kept in the record
beside them.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import stats  # noqa: E402

WORKLOADS = ("sweep", "forms", "lti", "cli")
SETUP_SAMPLES = 5
CHILD_TIMEOUT_S = 170
# Inputs per traced pass: the same fixed set is run untraced and traced,
# alternately, until the run's time is up.
TRACED_SET = {"sweep": 256, "forms": 9, "lti": 8, "cli": 10}
# Inputs re-run after the timed loop; outputs must be byte-identical.
RERUN = 4
# The tail percentile of each workload: the highest with at least ten of
# a run's samples beyond it, at the speed of the commit that defined the
# benchmark.  It is fixed so that a faster change, which collects more
# samples, is not judged at a higher percentile than its parent.
TAIL = {"sweep": 99, "forms": 75, "lti": 95, "cli": 75}
PROBES = 3

E2E_UNITS = {"throughput_ops_s": "1/s", "latency_p50_ms": "ms",
             "latency_tail_ms": "ms", "form_ms_per_trial": "ms",
             "peak_rss_mb": "MB", "setup_s": "s"}


def cpu_seconds() -> float:
    """CPU seconds used so far by this process and its waited-for children."""
    ru = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + ru.ru_utime + ru.ru_stime


def make_workload(name, seed, out_dir):
    import workloads
    if name == "cli":
        return workloads.CLI(seed, ROOT, out_dir / "cli")
    return {"sweep": workloads.Sweep, "forms": workloads.Forms,
            "lti": workloads.LTI}[name](seed)


# ------------------------------------------------------------------ worker

def worker(args) -> int:
    if args.workload != "cli":
        sys.path.insert(0, str(ROOT / "src"))
        import conestab
        if Path(conestab.__file__).resolve().parent != ROOT / "src" / "conestab":
            raise SystemExit(f"conestab imported from {conestab.__file__}, "
                             f"not from {ROOT / 'src'}")
    wl = make_workload(args.workload, args.seed, Path(args.out))
    wl.setup()
    print(f"READY {cpu_seconds()!r}", flush=True)
    if args.setup_only:
        return 0
    record = traced(wl, args) if args.trace else measured(wl, args)
    print(json.dumps(record), flush=True)
    return 0


def _run_one(wl, item, tally, check=True):
    """Run one operation, and check its output against the workload's
    labels unless ``check`` is false; returns (CPU seconds, wall seconds,
    output or None)."""
    c0, t0 = cpu_seconds(), time.perf_counter()
    try:
        out = wl.run(item)
    except Exception as e:  # an operation that raises counts as failed
        out = None
        tally.error((item, repr(e)))
    cpu, wall = cpu_seconds() - c0, time.perf_counter() - t0
    tally.ops += 1
    if check and out is not None:
        wl.check(item, out, tally)
    return cpu, wall, out


def measured(wl, args) -> dict:
    from workloads import Tally
    tally = Tally(wl.open_defects)
    pass_size = wl.pass_size()
    latencies = []
    wall_busy = 0.0
    trials = 0
    kept = []
    inputs = wl.inputs()
    deadline = time.perf_counter() + args.seconds
    n = 0
    while True:
        item = next(inputs)
        dt, wall, out = _run_one(wl, item, tally)
        n += 1
        if out is not None:
            latencies.append(dt)
            wall_busy += wall
            trials += wl.trials_of(out) if hasattr(wl, "trials_of") else 1
            if wl.name != "cli" and len(kept) < RERUN:
                kept.append((item, out[1]))
        if n % pass_size == 0 and time.perf_counter() >= deadline:
            break
    for item, text in kept:
        _, _, out = _run_one(wl, item, tally, check=False)
        if out is not None and out[1] != text:
            tally.error(("rerun output differs", item))
    if not latencies:
        raise SystemExit("no operation completed")
    busy = sum(latencies)
    tail_p = stats.tail_percentile(len(latencies), TAIL[wl.name])
    who = resource.RUSAGE_CHILDREN if wl.name == "cli" else resource.RUSAGE_SELF
    metrics = {
        "throughput_ops_s": len(latencies) / busy,
        "latency_p50_ms": stats.percentile(latencies, 50) * 1e3,
        "latency_tail_ms": stats.percentile(latencies, tail_p) * 1e3,
        "form_ms_per_trial": busy * 1e3 / trials,
        "peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024,
    }
    return {"correct": tally.correct, "attempted": tally.ops,
            "failed": tally.failed, "metrics": metrics,
            "latency": {"samples": len(latencies), "tail_percentile": tail_p,
                        "cpu_busy_s": busy, "wall_busy_s": wall_busy,
                        "trials": trials, "passes": n // pass_size,
                        "ops_per_pass": pass_size},
            "correctness": tally.summary(),
            "properties": wl.properties(len(latencies))}


def traced(wl, args) -> dict:
    import workloads
    from tracing import LAYER_METRICS, Tracer, layer_metrics, merge_counters
    tally = workloads.Tally(wl.open_defects)
    inputs = wl.inputs()
    fixed = [next(inputs) for _ in range(TRACED_SET[wl.name])]
    out_dir = Path(args.out)
    spans_path = out_dir / f"{wl.name}-seed{args.seed}-spans.jsonl"
    tracer = Tracer()
    agg = {}
    counters = {}
    cpu = {"untraced": [], "traced": []}
    imports = {"cli.import_ms": [], "cli.numpy_import_ms": []}
    deadline = time.perf_counter() + args.seconds
    passes = 0
    while passes == 0 or time.perf_counter() < deadline:
        c0 = cpu_seconds()
        untraced = [_run_one(wl, item, tally)[2] for item in fixed]
        cpu["untraced"].append(cpu_seconds() - c0)
        c0 = cpu_seconds()
        if wl.name == "cli":
            outs = _cli_traced_pass(wl, fixed, out_dir, tracer, imports)
        else:
            outs = _traced_pass(wl, fixed, tracer, tally)
        cpu["traced"].append(cpu_seconds() - c0)
        for a, b in zip(untraced, outs):
            if a is not None and b is not None and _text(a) != _text(b):
                tally.error("traced output differs from untraced output")
        for name, a in tracer.aggregate().items():
            dst = agg.setdefault(name, dict.fromkeys(a, 0))
            for k in dst:
                dst[k] += a[k]
        merge_counters(counters, tracer.counters)
        if passes == 0:
            with open(spans_path, "w") as fh:
                tracer.dump_spans(fh)
        tracer.spans.clear()
        tracer.counters.clear()
        passes += 1
    values = layer_metrics(agg, counters, passes)
    values["trace.overhead_share"] = (statistics.median(cpu["traced"])
                                      / statistics.median(cpu["untraced"]) - 1)
    probe = _startup_probes()
    values["cli.interpreter_ms"] = probe["cli.interpreter_ms"]
    for key, samples in imports.items():
        values[key] = statistics.median(samples + probe[key])
    metrics = {name: values[name] for name in LAYER_METRICS}
    return {"correct": tally.correct, "attempted": tally.ops,
            "failed": tally.failed, "metrics": metrics,
            "trace": {"passes": passes, "inputs_per_pass": len(fixed),
                      "cpu_s": cpu, "spans_file": spans_path.name},
            "correctness": tally.summary(),
            "properties": wl.properties(tally.ops)}


def _text(out):
    """The bytes an operation printed: the CLI's stdout, or the report."""
    return out.stdout if isinstance(out, subprocess.CompletedProcess) else out[1]


def _traced_pass(wl, fixed, tracer, tally):
    import workloads
    tracer.install()
    workloads.dumps = tracer.wrap("cli.dumps", workloads.dumps)
    outs = []
    try:
        for k, item in enumerate(fixed):
            tracer.op = k
            try:
                outs.append(tracer.span("op", wl.run, item))
            except Exception as e:  # counted like an untraced failure
                tally.error((item, repr(e)))
                outs.append(None)
    finally:
        workloads.dumps = workloads.dumps.__wrapped__
        tracer.uninstall()
    return outs


def _cli_traced_pass(wl, fixed, out_dir, tracer, imports):
    """Run the CLI children under the tracer stand-in and -X importtime;
    their spans join the parent's tracer, one operation per child."""
    from tracing import merge_counters
    child_path = out_dir / "cli-child-spans.json"
    wl.tracer_argv = ["-X", "importtime", str(HERE / "cli_child.py"),
                      str(child_path), "--"]
    outs = []
    try:
        for k, item in enumerate(fixed):
            child_path.unlink(missing_ok=True)
            proc = wl.run(item)
            outs.append(proc)
            child = json.loads(child_path.read_text())
            base = len(tracer.spans)
            tracer.spans.extend(
                (name, t0, t1, parent + base if parent >= 0 else -1, k)
                for name, t0, t1, parent, _ in child["spans"])
            merge_counters(tracer.counters, child["counters"])
            for key, name in (("cli.import_ms", "conestab"),
                              ("cli.numpy_import_ms", "numpy")):
                ms = _importtime_ms(proc.stderr, name)
                if ms is not None:
                    imports[key].append(ms)
    finally:
        wl.tracer_argv = None
    return outs


def _importtime_ms(stderr: str, module: str):
    """Cumulative import time of ``module`` from ``-X importtime`` output."""
    for line in stderr.splitlines():
        if line.startswith("import time:"):
            parts = line[len("import time:"):].split("|")
            if len(parts) == 3 and parts[2].strip() == module:
                return int(parts[1]) / 1e3
    return None


def _startup_probes() -> dict:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    interp, conestab_ms, numpy_ms = [], [], []
    for _ in range(PROBES):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], check=True, env=env,
                       timeout=60)
        interp.append((time.perf_counter() - t0) * 1e3)
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c",
                               "import conestab"], check=True, env=env,
                              capture_output=True, text=True, timeout=60)
        conestab_ms.append(_importtime_ms(proc.stderr, "conestab"))
        numpy_ms.append(_importtime_ms(proc.stderr, "numpy"))
    return {"cli.interpreter_ms": statistics.median(interp),
            "cli.import_ms": conestab_ms, "cli.numpy_import_ms": numpy_ms}


# ------------------------------------------------------------ orchestrator

def orchestrate(workload, seed, seconds, trace, out_dir) -> dict:
    """Spawn the workers, time their set-up, return the full record."""
    deadline = time.monotonic() + CHILD_TIMEOUT_S
    samples = []
    walls = []
    record = None
    n = 1 if trace else SETUP_SAMPLES
    for i in range(n):
        cmd = [sys.executable, str(HERE / "run.py"), "--worker",
               "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(trace),
               "--out", str(out_dir)]
        if i < n - 1:
            cmd.append("--setup-only")
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                                cwd=ROOT)
        timer = threading.Timer(max(deadline - time.monotonic(), 1), proc.kill)
        timer.start()
        try:
            ready = proc.stdout.readline()
            t_ready = time.perf_counter()
            rest = proc.stdout.read()
            code = proc.wait()
        finally:
            timer.cancel()
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        word, _, cpu = ready.partition(" ")
        if code != 0 or word != "READY":
            raise SystemExit(f"{workload} worker exited with code {code}")
        samples.append(float(cpu))
        walls.append(t_ready - t0)
        if i == n - 1:
            record = json.loads(rest.strip().splitlines()[-1])
    if not trace:
        record["metrics"]["setup_s"] = statistics.median(samples)
    record.update({"workload": workload, "seed": seed, "seconds": seconds,
                   "trace": trace, "setup_samples_s": samples,
                   "setup_wall_s": walls,
                   "machine": machine()})
    return record


def machine() -> dict:
    model = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        numpy_version = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy_version = None
    return {"python": platform.python_version(), "numpy": numpy_version,
            "nproc": os.cpu_count(), "cpu_model": model,
            "platform": platform.platform()}


def units(trace) -> dict:
    if trace:
        from tracing import LAYER_METRICS
        return {k: u for k, (u, _) in LAYER_METRICS.items()}
    return E2E_UNITS


def result_line(record) -> dict:
    u = units(record["trace"])
    return {"correct": record["correct"], "attempted": record["attempted"],
            "failed": record["failed"],
            "metrics": {k: {"value": v, "unit": u[k]}
                        for k, v in record["metrics"].items()}}


def report(record):
    u = units(record["trace"])
    print(f"workload {record['workload']}  seed {record['seed']}  "
          f"trace {record['trace']}")
    for k, v in record["metrics"].items():
        print(f"  {k:40s} {v:14.6g} {u[k]}")
    c = record["correctness"]
    print(f"  correct={record['correct']} attempted={record['attempted']} "
          f"failed={record['failed']} wrong_verdict_share={c['wrong_verdict_share']:.4g} "
          f"unknown_share={c['unknown_share']:.4g} error_share={c['error_share']:.4g}")
    if "latency" in record:
        lat = record["latency"]
        print(f"  latency_tail_ms is p{lat['tail_percentile']} of "
              f"{lat['samples']} samples")
    print("  properties " + json.dumps(record["properties"], sort_keys=True))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", default=str(ROOT / ".perfbench"))
    ap.add_argument("--worker", action="store_true", help=argparse.SUPPRESS)
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "conestab" / "__init__.py").is_file():
        print(f"no conestab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    if args.worker:
        return worker(args)
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    records = []
    for name in names:
        record = orchestrate(name, args.seed, args.seconds, args.trace, out_dir)
        path = out_dir / f"{name}-seed{args.seed}-trace{args.trace}.json"
        path.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
        report(record)
        records.append(record)
    if len(records) == 1:
        final = result_line(records[0])
    else:
        lines = [result_line(r) for r in records]
        final = {"correct": all(r["correct"] for r in lines),
                 "attempted": sum(r["attempted"] for r in lines),
                 "failed": sum(r["failed"] for r in lines),
                 "metrics": {f"{rec['workload']}.{k}": v
                             for rec, r in zip(records, lines)
                             for k, v in r["metrics"].items()}}
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
