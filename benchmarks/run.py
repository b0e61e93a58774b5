"""branchlab benchmark: one workload, one closed-loop run.

Usage (from the root of a checkout):

    python3 benchmarks/run.py --workload tree --seed 1 --seconds 30 --trace 0

Workloads are defined in workloads.py. A run warms up once untimed, then
runs operations one after another until their summed time reaches
``--seconds``, checking each operation's outputs after it, outside the timed
region. Between the operations it sets up SETUP_PROBES times, each in a
fresh interpreter (``setup_s``). The metric names and units must match
BENCHMARK.json, which run.py checks before it starts.

``--trace 0`` reports the end-to-end metrics. ``--trace 1`` alternates an
untraced and a traced operation and reports the per-layer metrics: per-span
calls, self and total seconds and work counters from tracer.py, averaged per
traced operation, plus import times and the tracing overhead.

Every metric is printed as ``name value unit``; the last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``. A fuller record, with the environment and the ``src/`` line
count, is written to benchmarks/out/.
"""
from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import platform
import re
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(BENCH, "out")

# Set-ups per run, each in a fresh interpreter, spread between the operations.
SETUP_PROBES = 9

# Modules whose cumulative import time ``python -X importtime`` reports.
IMPORT_MODULES = ("numpy", "branchlab.renewal", "branchlab.distributions", "branchlab.gaussian_limit")

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "peak_rss_mb": "MB",
}


def per_layer_units() -> dict:
    """Name -> unit of every metric a traced run reports."""
    from tracer import COUNTER_UNITS, SPAN_NAMES

    units = {}
    for name in SPAN_NAMES:
        units[f"{name}.calls"] = "count"
        units[f"{name}.self_s"] = "s"
        units[f"{name}.total_s"] = "s"
    units.update(COUNTER_UNITS)
    units["runner.map_replicated.wait_s"] = "s"
    for mod in IMPORT_MODULES:
        units[f"setup.import.{mod}_s"] = "s"
    units.update({
        "trace_overhead_s": "s",
        "verify_serial_s": "s",
        "verify_w2_s": "s",
        "error_rate": "ratio",
    })
    return units


def _check_declared_metrics() -> None:
    """Fail unless BENCHMARK.json declares exactly the metrics this file reports."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        declared = json.load(f)
    for key, units in (("end_to_end", END_TO_END), ("per_layer", per_layer_units())):
        listed = {m["name"]: m["unit"] for m in declared[key]}
        if listed != units:
            raise RuntimeError(f"BENCHMARK.json {key} differs from the metrics run.py reports: "
                               f"missing {sorted(units.keys() - listed.keys())}, "
                               f"extra {sorted(listed.keys() - units.keys())}, units "
                               f"{sorted(n for n in units.keys() & listed.keys() if units[n] != listed[n])}")


def _parse_args(argv):
    p = argparse.ArgumentParser(description="Run one branchlab benchmark workload.")
    p.add_argument("--workload", required=True, choices=("tree", "registry"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return args


def _import_branchlab():
    """Import branchlab from this checkout's src/, never from elsewhere."""
    if not os.path.isfile(os.path.join(SRC, "branchlab", "__init__.py")):
        raise RuntimeError(f"no branchlab sources under {SRC}")
    sys.path.insert(0, SRC)
    import branchlab
    import branchlab.cli  # noqa: F401  (loads every branchlab module)

    if os.path.dirname(os.path.dirname(os.path.abspath(branchlab.__file__))) != SRC:
        raise RuntimeError(f"branchlab imported from {branchlab.__file__}, not {SRC}")


def _parse_importtime(stderr: str) -> dict:
    """Cumulative seconds per module from ``python -X importtime`` output."""
    out = {}
    for line in stderr.splitlines():
        m = re.match(r"import time:\s*\d+\s*\|\s*(\d+)\s*\|\s*(\S+)\s*$", line)
        if m and m.group(2) in IMPORT_MODULES:
            out[m.group(2)] = int(m.group(1)) * 1e-6
    return out


def setup_probe(workload, seed, workdir, importtime):
    """Set up once in a fresh interpreter.

    Returns the set-up time and, with ``importtime``, the cumulative import
    time of each module in IMPORT_MODULES.
    """
    cmd = [sys.executable] + (["-X", "importtime"] if importtime else [])
    cmd += [os.path.join(BENCH, "setup_probe.py"), workload, str(seed), workdir]
    start = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed:\n{proc.stderr}")
    return float(proc.stdout.split()[-1]) - start, _parse_importtime(proc.stderr)


def run_op(wl, inputs, serial, parallel):
    """One timed operation, then its checks.

    Returns (seconds, output, errors, peak RSS in MB when the operation ended,
    before its checks).
    """
    start = time.perf_counter()
    try:
        out = wl.op(inputs, serial, parallel)
    except Exception:
        traceback.print_exc(file=sys.stderr)
        return time.perf_counter() - start, None, ["operation raised"], _peak_rss_mb()
    elapsed = time.perf_counter() - start
    peak_mb = _peak_rss_mb()
    try:
        errors = wl.check(inputs, out)
    except Exception:
        traceback.print_exc(file=sys.stderr)
        errors = ["correctness check raised"]
    for e in errors:
        print(f"check failed: {e}", file=sys.stderr)
    return elapsed, out, errors, peak_mb


def _peak_rss_mb() -> float:
    """Largest max RSS so far of this process and of its reaped children."""
    # ru_maxrss is in KiB on Linux.
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def _environment() -> dict:
    import numpy
    import scipy

    src_lines = 0
    for dirpath, _, files in os.walk(SRC):
        for name in files:
            if name.endswith(".py"):
                with open(os.path.join(dirpath, name), encoding="utf-8") as f:
                    src_lines += sum(1 for _ in f)
    return {
        "cores": os.cpu_count(),
        "cores_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "src_lines": src_lines,
    }


def benchmark(args, workdir):
    """Run the workload; returns the run record and the tracer (None untraced)."""
    import tracer as tracing
    import workloads

    wl = workloads.WORKLOADS[args.workload]
    inputs = wl.prepare(args.seed, workdir)
    wl.warmup(inputs)

    setups = []

    def set_up_until(n):
        while len(setups) < n:
            setups.append(setup_probe(args.workload, args.seed, workdir, bool(args.trace)))

    null = contextlib.nullcontext()
    plain, traced, phases, failures, peaks = [], [], {}, [], []
    serial_tracer = tracing.Tracer()
    wait_tracer = tracing.Tracer(only={"runner.map_replicated"})
    started = time.perf_counter()
    while sum(plain) + sum(traced) < args.seconds:
        elapsed, out, errors, peak_mb = run_op(wl, inputs, null, null)
        plain.append(elapsed)
        failures.append(errors)
        peaks.append(peak_mb)
        for key, value in (out or {}).get("phases", {}).items():
            phases.setdefault(key, []).append(value)
        if args.trace:
            elapsed, _, errors, _ = run_op(wl, inputs, serial_tracer, wait_tracer)
            traced.append(elapsed)
            failures.append(errors)
        # Set-ups go after the first operation, so that its peak RSS counts
        # no set-up child, and keep pace with the operations.
        done = min(1.0, (sum(plain) + sum(traced)) / args.seconds)
        set_up_until(math.ceil(SETUP_PROBES * done))
    set_up_until(SETUP_PROBES)

    loop_s = time.perf_counter() - started
    attempted = len(failures)
    failed = sum(1 for e in failures if e)
    if args.trace:
        metrics = serial_tracer.summary(len(traced))
        wait = wait_tracer.summary(len(traced))
        metrics["runner.map_replicated.wait_s"] = wait["runner.map_replicated.total_s"]
        for mod in IMPORT_MODULES:
            secs = [imports[mod] for _, imports in setups if mod in imports]
            metrics[f"setup.import.{mod}_s"] = statistics.median(secs) if secs else 0.0
        metrics["trace_overhead_s"] = statistics.median(traced) - statistics.median(plain)
        for key in ("verify_serial_s", "verify_w2_s"):
            metrics[key] = statistics.median(phases[key]) if key in phases else 0.0
        metrics["error_rate"] = failed / attempted
        units = per_layer_units()
    else:
        metrics = {
            "setup_s": statistics.median(t for t, _ in setups),
            "wall_s": statistics.median(plain),
            # The first operation's peak: later ones would also count the
            # checks and set-ups that ran before them.
            "peak_rss_mb": peaks[0],
        }
        units = END_TO_END
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": _environment(),
        "setup_times_s": [t for t, _ in setups],
        "peak_rss_mb_per_op": peaks,
        "op_times_s": plain,
        "traced_op_times_s": traced,
        "phase_times_s": phases,
        "loop_s": loop_s,
        "error_rate": failed / attempted,
        "failures": [e for e in failures if e],
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    return record, (serial_tracer if args.trace else None)


def main(argv=None) -> int:
    args = _parse_args(argv)
    try:
        _check_declared_metrics()
        _import_branchlab()
    except (OSError, RuntimeError, ImportError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    os.makedirs(OUT, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="work-", dir=OUT)
    try:
        record, span_tracer = benchmark(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    stem = os.path.join(OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    if span_tracer is not None:
        span_tracer.dump(stem + "-spans.jsonl")
    with open(stem + ".json", "w", encoding="utf-8") as f:
        json.dump(record, f, indent=2)

    print(f"workload {args.workload} seed {args.seed}: {record['attempted']} operations, "
          f"{record['failed']} failed, error_rate {record['error_rate']:.6g}")
    for name, m in record["metrics"].items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    print(json.dumps({
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": record["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
