"""Repeat the benchmark over seeds and report how steady each metric is.

    python3 perfbench/collect.py --seeds 10                  # every workload
    python3 perfbench/collect.py --workloads certify --seeds 5
    python3 perfbench/collect.py --seeds 10 --baseline perfbench/baseline.json

For each workload it runs `run.py --trace 0` once per seed, one run at a
time, and prints each end-to-end metric's median and its spread: the
distance between the first and third quartiles of the runs, as a share
of their median, next to the metric's bound in BENCHMARK.json.  With
`--baseline` it also makes two traced runs per workload on the first
seed, checks that the counts which should repeat exactly do, and writes
the machine, each workload's spec (spaces, thread count), the seeds, the
medians, the spreads and the counts to the given file.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from workloads import SPECS  # noqa: E402

# per-layer counts that repeat exactly for a given seed
EXACT_COUNTS = ("orbits.calls", "orbits.states", "orbits.hook_batches",
                "normalize.calls", "normalize.cert_tokens_mean",
                "normalize.cert_tokens_max", "sl2.clear_alpha.calls",
                "sl2.solve_pair.calls", "sl2.generate.calls",
                "action.replay.calls", "action.replay.tokens",
                "space.decode.calls", "invariants.vanishing_array.calls",
                "euler.cocycle.calls", "euler.cocycle.rejected")


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, cwd=ROOT, timeout=200)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if proc.returncode != 0 or not result["correct"]:
        raise SystemExit(f"{workload} seed {seed} failed:\n{proc.stderr}")
    return result


def spread(values: list) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def machine() -> dict:
    model = "unknown"
    with open("/proc/cpuinfo") as info:
        for line in info:
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    import numpy
    return {"nproc": os.cpu_count(), "cpu": model,
            "python": platform.python_version(), "numpy": numpy.__version__}


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", nargs="+", choices=names, default=names)
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--baseline", type=Path)
    args = parser.parse_args(argv)

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    seeds = list(range(args.first_seed, args.first_seed + args.seeds))
    record = {"machine": machine(), "seconds": args.seconds, "seeds": seeds,
              "workloads": {}}
    steady = True
    for workload in args.workloads:
        runs = [run_once(workload, seed, args.seconds, 0) for seed in seeds]
        entry = record["workloads"].setdefault(
            workload, {"spec": SPECS[workload], "median": {}, "spread": {}})
        print(f"{workload}  ({len(runs)} seeds)")
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in runs]
            median = statistics.median(values)
            share = spread(values) if len(values) > 1 else 0.0
            entry["median"][name] = median
            entry["spread"][name] = share
            flag = "" if name == "setup_s" or share < bound / 3 else "  <-- over a third of bound"
            steady &= name == "setup_s" or share <= bound
            print(f"  {name:14s} median {median:12.6g}  spread {share:6.1%}  "
                  f"bound {bound:.0%}{flag}")
            print("      runs: " + " ".join(f"{v:.4g}" for v in values))
        if args.baseline:
            traced = [run_once(workload, seeds[0], args.seconds, 1) for _ in range(2)]
            counts = {name: traced[0]["metrics"][name]["value"] for name in EXACT_COUNTS
                      if name in traced[0]["metrics"]}
            repeat = {name: traced[1]["metrics"].get(name, {}).get("value") for name in counts}
            if counts != repeat:
                print(f"  counts differ between traced runs: {counts} vs {repeat}")
                steady = False
            entry["counts_seed"] = seeds[0]
            entry["counts"] = counts
            entry["per_layer"] = {name: m["value"] for name, m in traced[0]["metrics"].items()}
    if args.baseline:
        args.baseline.write_text(json.dumps(record, indent=2) + "\n")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
