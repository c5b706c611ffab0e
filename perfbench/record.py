"""Record one untraced and one traced run of every workload into a BENCH file.

Run from the repository root:

    python3 perfbench/record.py --label baseline --seed 1

writes ``perfbench/BENCH_<label>.json`` with each run's result line, the
self time per span name of each traced run, and the machine the runs were
made on (CPUs, memory, numpy and OpenBLAS versions, BLAS threads). Each
workload runs as its own process, one after another, for the
``run_seconds`` that ``BENCHMARK.json`` sets.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(workload, seed, seconds, trace):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, check=True)
    lines = proc.stdout.splitlines()
    machine = next(json.loads(line.split(" ", 1)[1]) for line in lines
                   if line.startswith("machine "))
    record = {"result": json.loads(lines[-1])}
    if trace:
        start = next(i for i, line in enumerate(lines) if "self time per span name" in line)
        self_time = {}
        for line in lines[start + 1:]:
            parts = line.split()
            if len(parts) != 2:
                break
            self_time[parts[0]] = float(parts[1])
        record["self_time_s"] = self_time
    return machine, record


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--label", required=True)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    runs = {}
    machine = None
    for workload in (w["name"] for w in spec["workloads"]):
        runs[workload] = {}
        for trace, key in ((0, "untraced"), (1, "traced")):
            machine, runs[workload][key] = run_once(workload, args.seed, seconds, trace)
            print(f"{workload} {key}: correct={runs[workload][key]['result']['correct']}",
                  file=sys.stderr)
    out = HERE / f"BENCH_{args.label}.json"
    out.write_text(json.dumps({"label": args.label, "seed": args.seed, "seconds": seconds,
                               "machine": machine, "runs": runs}, indent=1) + "\n")
    print(out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
