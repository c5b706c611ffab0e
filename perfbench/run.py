"""Benchmark of ttgad: source training, test-time adaptation, checkpoint scoring.

Run from the repository root:

    python3 perfbench/run.py --workload {train,adapt,score} --seed N \\
        --seconds S --trace {0,1}

Inputs are generated from ``--seed``. With ``--trace 0`` the run prints the
end-to-end metrics; with ``--trace 1`` it installs the span tracer around
ttgad's public functions and prints the per-layer metrics, self time per
span name and the tracing overhead, and writes the spans to
``perfbench/out/spans-<workload>-<seed>.jsonl``. Human-readable lines come
first; the last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.

Before a workload starts, its peak memory is estimated from its directed
slot count and the run refuses to start (exit code 3) when the estimate
exceeds ``MemAvailable``. Inputs live in a scratch directory under
``perfbench/out`` that is removed at the end.
"""

import argparse
import json
import os
import shutil
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

# Peak RSS per directed slot of the largest graph a tape runs over, and per
# slot of the largest graph only scored (eval forward, no tape); measured on
# the adapt and score workloads, plus the interpreter and numpy themselves.
TAPE_BYTES_PER_SLOT = 21_000
EVAL_BYTES_PER_SLOT = 3_000
BASE_BYTES = 150_000_000


def estimate_peak_bytes(workload):
    taped = max(workload.source.slots, workload.target.slots)
    scored = workload.scored.slots if workload.scored is not None else 0
    return BASE_BYTES + max(taped * TAPE_BYTES_PER_SLOT, scored * EVAL_BYTES_PER_SLOT)


def mem_available_bytes():
    with open("/proc/meminfo", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("MemAvailable:"):
                return int(line.split()[1]) * 1024
    raise OSError("MemAvailable missing from /proc/meminfo")


def memory_refusal(workload, available):
    """A refusal message when the workload would not fit, else None."""
    need = estimate_peak_bytes(workload)
    if need <= available:
        return None
    return (f"workload {workload.name} needs about {need / 1e9:.2f} GB at peak "
            f"({TAPE_BYTES_PER_SLOT} B per taped slot, {EVAL_BYTES_PER_SLOT} B per "
            f"scored slot) but only {available / 1e9:.2f} GB is available; refusing to start")


def _process_threads():
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("Threads:"):
                return int(line.split()[1])
    return None


def _blas_threads():
    """OpenBLAS thread count of the loaded numpy, or None if not found."""
    import ctypes
    with open("/proc/self/maps", encoding="utf-8") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line}
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def machine_facts():
    import platform

    import numpy as np
    blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
    with open("/proc/meminfo", encoding="ascii") as fh:
        total_kb = int(fh.readline().split()[1])
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "mem_total_gb": round(total_kb / 1e6, 2),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "process_threads": _process_threads(),
    }


def _fmt(value):
    return f"{value:.6g}"


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    sys.path.insert(0, str(SRC))
    try:
        import workloads
    except ImportError as e:
        print(f"perfbench: cannot import ttgad from {SRC}: {e}", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload]
    refusal = memory_refusal(workload, mem_available_bytes())
    if refusal:
        print(f"perfbench: {refusal}", file=sys.stderr)
        return 3

    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    root = Path(tempfile.mkdtemp(dir=out_dir, prefix=f"work-{workload.name}-"))
    try:
        result, lines = run(workloads, workload, args.seed, args.seconds, args.trace,
                            root, out_dir / f"spans-{workload.name}-{args.seed}.jsonl")
    finally:
        shutil.rmtree(root, ignore_errors=True)
    for line in lines:
        print(line)
    print(json.dumps(result))
    return 0


def run(workloads, workload, seed, seconds, trace, root, spans_path):
    """One benchmark run; returns (result object, report lines)."""
    facts = machine_facts()
    lines = [f"workload {workload.name}  seed {seed}  seconds {seconds}  trace {trace}",
             f"machine {json.dumps(facts, sort_keys=True)}"]
    if trace:
        ledger, per_layer, self_times = workloads.run_traced(workload, seed, seconds,
                                                             root, spans_path)
    else:
        ledger, e2e = workloads.run_untraced(workload, seed, seconds, root)
    threads = _process_threads()
    ledger.check("process threads within nproc",
                 None if threads is None or threads <= facts["nproc"]
                 else f"{threads} threads on {facts['nproc']} CPUs")
    if trace:
        names = workloads.PER_LAYER
        metrics = {name: {"value": per_layer[name], "unit": unit}
                   for name, unit in names.items() if name in per_layer}
        lines.extend(f"  {name:44s} {_fmt(m['value']):>12s} {m['unit']}"
                     for name, m in metrics.items())
        lines.append("  self time per span name, timed rounds (s):")
        for name, secs in sorted(self_times.items(), key=lambda kv: -kv[1]):
            lines.append(f"    {name:42s} {secs:10.4f}")
        lines.append(f"  spans written to {spans_path}")
    else:
        e2e["error_rate"] = {"median": ledger.failed / ledger.attempted,
                             "n": ledger.attempted}
        for name, unit in workloads.END_TO_END.items():
            if name in e2e:
                extra = "  ".join(f"{k} {_fmt(v)}" for k, v in e2e[name].items()
                                  if k != "median")
                lines.append(f"  {name:14s} {_fmt(e2e[name]['median']):>12s} {unit:8s} {extra}")
        # error_rate reads 0 on a correct run, so the result line carries it
        # as attempted and failed rather than as a metric
        metrics = {name: {"value": e2e[name]["median"], "unit": unit}
                   for name, unit in workloads.END_TO_END.items()
                   if name in e2e and name != "error_rate"}
    lines.extend(f"  FAILED {message}" for message in ledger.failures)
    lines.append(f"  operations {ledger.attempted} attempted, {ledger.failed} failed")
    result = {"correct": ledger.failed == 0, "attempted": ledger.attempted,
              "failed": ledger.failed, "metrics": metrics}
    return result, lines


if __name__ == "__main__":
    sys.exit(main())
