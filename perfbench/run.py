"""Benchmark of mcgorbits, run from the root of a checkout:

    python3 perfbench/run.py --workload certify --seed 1 --seconds 10 --trace 0

Workloads (see workloads.py for the inputs and gates):

  census           enumerate_orbits on (4,6), (5,4), (7,3) at one thread
  census_2t        the same spaces at thread_count=2
  certify          criterion 5's exhaustive spaces through the batch hook,
                   plus seeded states of the census spaces: normalize each
                   state and replay its certificate independently
  certify_large_n  seeded states at (16,30) and (26,50), each unit in a
                   fresh interpreter, so the sl2 tables start cold
  verify           `mcgorbits verify --suite all --seed <seed>` through
                   cli.main, one fresh interpreter per invocation

With `--trace 0` the last line of standard output is a JSON object whose
metrics are the end-to-end ones:

  setup_s       median wall time of several fresh set-ups, each from
                interpreter start to mcgorbits imported and inputs built
  items_per_s   median over units of items per second: states for
                census and certify*, invocations for verify
  call_p50_ms   median latency of the timed call: enumerate_orbits
                (census), normalize (certify*), one whole invocation
                including import (verify)
  call_p95_ms   95th percentile of the same latencies
  peak_rss_mib  peak resident memory of the benchmark process and of
                every child it waited for (ru_maxrss)

Each unit and each set-up runs pinned to the CPU a short probe finds
fastest (see pin_to_quieter_cpu); census_2t keeps both.  Operations
that fail a gate or overrun their wall-clock cap count in `failed`; the
run exits 1 when any did.  With `--trace 1` the run
alternates untraced and traced units, and the metrics are the per-layer
ones of the first traced unit (spans.PER_LAYER) plus the tracing
overhead; that unit's spans are written to perfbench/out/.  `--workload all`
runs every workload in turn and prints one summary per workload.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from types import SimpleNamespace

# one BLAS thread per process: the library's own thread count is the only
# parallelism the benchmark measures
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
sys.path.insert(0, str(HERE))

import spans  # noqa: E402
from workloads import (  # noqa: E402
    DESCRIPTIONS, FRESH_PROCESS, MIN_CALLS, SPECS, UNITS, OpTimeout, Tally,
    build_inputs, deadline, verify_error,
)

LIB_MODULES = ("space", "action", "orbits", "normalize", "sl2", "invariants",
               "euler", "cli")
SETUP_PROBES = 3
OP_CAP_S = 60.0        # wall-clock cap on one operation or child unit
RUN_BUDGET_S = 150.0   # no unit starts a cap that would end past this
PROCESS_START = time.perf_counter()
_ALL_CPUS = tuple(os.sched_getaffinity(0))

END_TO_END = (
    ("setup_s", "s"),
    ("items_per_s", "1/s"),
    ("call_p50_ms", "ms"),
    ("call_p95_ms", "ms"),
    ("peak_rss_mib", "MiB"),
)

# the names the metrics go by for each workload in the printed summary
ALIASES = {
    "census": {"items_per_s": "census_states_per_s"},
    "census_2t": {"items_per_s": "census_2t_states_per_s"},
    "certify": {"items_per_s": "certify_states_per_s",
                "call_p50_ms": "normalize_p50_ms", "call_p95_ms": "normalize_p95_ms"},
    "certify_large_n": {"items_per_s": "certify_states_per_s",
                        "call_p50_ms": "normalize_p50_ms",
                        "call_p95_ms": "normalize_p95_ms"},
    "verify": {"call_p50_ms": "verify_wall_s x 1000"},
}


def check_sources() -> None:
    if not (SRC / "mcgorbits" / "__init__.py").is_file():
        sys.exit(f"perfbench: no mcgorbits package under {SRC}; "
                 "run from the root of a checkout")


def load_library() -> SimpleNamespace:
    """Import mcgorbits from this checkout's src/, timing the import."""
    check_sources()
    sys.path.insert(0, str(SRC))
    start = time.perf_counter()
    importlib.import_module("mcgorbits.cli")
    import_s = time.perf_counter() - start
    package = sys.modules["mcgorbits"]
    if Path(package.__file__).resolve().parent != (SRC / "mcgorbits").resolve():
        sys.exit(f"perfbench: imported mcgorbits from {package.__file__}, not {SRC}")
    modules = {name: importlib.import_module(f"mcgorbits.{name}") for name in LIB_MODULES}
    return SimpleNamespace(import_s=import_s, **modules)


def child_env() -> dict:
    return dict(os.environ, PYTHONPATH=str(SRC))


def pin_to_quieter_cpu(threads: int) -> None:
    """Pin this process, and the children it starts, to the CPU on which a
    fixed loop runs fastest just now.

    The virtual CPUs of a shared host slow down in turns, some tens of
    seconds at a time, as neighbours load them; measured on a 2-vCPU
    sandbox, the same loop took 72 ms on one and 123 ms on the other at
    once.  A unit left on either by chance reads fast or slow by chance.
    A unit that needs several threads keeps every CPU.
    """
    cpus = sorted(os.sched_getaffinity(0) | set(_ALL_CPUS))
    if threads > 1 or len(cpus) < 2:
        os.sched_setaffinity(0, cpus)
        return

    def probe(cpu):
        os.sched_setaffinity(0, {cpu})
        best = float("inf")
        for _ in range(3):
            start = time.perf_counter()
            total = 0
            for i in range(20_000):
                total += i * i % 7
            best = min(best, time.perf_counter() - start)
        return best

    os.sched_setaffinity(0, {min(cpus, key=probe)})


def time_left() -> float:
    return RUN_BUDGET_S - (time.perf_counter() - PROCESS_START)


def _launch(flag: str, payload: dict, timeout: float):
    """Run this script in a fresh interpreter; waits for it to end."""
    return subprocess.run(
        [sys.executable, str(HERE / "run.py"), flag, json.dumps(payload)],
        capture_output=True, text=True, timeout=timeout, env=child_env(), cwd=ROOT)


def probe_setup(spec: dict, seed: int) -> float:
    """Wall time of one fresh set-up: interpreter, import, inputs."""
    pin_to_quieter_cpu(1)
    start = time.perf_counter()
    try:
        proc = _launch("--probe-setup", {"spec": spec, "seed": seed}, OP_CAP_S)
    except subprocess.TimeoutExpired:
        sys.exit(f"perfbench: set-up took over {OP_CAP_S:.0f} s")
    elapsed = time.perf_counter() - start
    if proc.returncode != 0:
        sys.exit(f"perfbench: set-up failed:\n{proc.stderr[-2000:]}")
    return elapsed


class Runner:
    """Runs one unit of a workload, traced or not, in or out of process."""

    def __init__(self, spec: dict, seed: int, tally: Tally):
        self.spec, self.seed, self.tally = spec, seed, tally
        self.in_process = spec["kind"] not in FRESH_PROCESS
        self.lib = self.inputs = None
        if self.in_process:
            self.lib = load_library()
            self.inputs = build_inputs(self.lib, spec, seed)

    def unit(self, run: int, traced: bool):
        """Returns (unit seconds, spans, import seconds, missing), or None
        when the unit did not finish."""
        cap = min(OP_CAP_S, time_left())
        pin_to_quieter_cpu(self.spec.get("threads", 1))
        if not self.in_process:
            return self._child_unit(run, traced, cap)
        tracer = spans.Tracer() if traced else None
        context = tracer if traced else contextlib.nullcontext()
        if traced:
            tracer.run = run
        start = time.perf_counter()
        with context:
            UNITS[self.spec["kind"]](self.lib, self.spec, self.inputs, self.tally, cap)
        unit_s = time.perf_counter() - start
        if not traced:
            return unit_s, [], self.lib.import_s, []
        return unit_s, tracer.spans, self.lib.import_s, tracer.missing

    def _child_unit(self, run: int, traced: bool, cap: float):
        payload = {"spec": self.spec, "seed": self.seed, "trace": int(traced),
                   "run": run, "cap": cap}
        start = time.perf_counter()
        try:
            proc = _launch("--child", payload, cap + 20)
        except subprocess.TimeoutExpired:
            self.tally.record(f"{self.spec['kind']} unit {run} ran past its cap")
            return None
        wall = time.perf_counter() - start
        try:
            out = json.loads(proc.stdout.strip().splitlines()[-1])
        except (IndexError, ValueError):
            self.tally.record(f"{self.spec['kind']} unit {run} exited "
                              f"{proc.returncode}: {proc.stderr.strip()[-500:]}")
            return None
        if self.spec["kind"] == "verify":
            self.tally.latencies.append(wall)
            self.tally.rates.append(1.0 / wall)
            self.tally.record(verify_error(out["code"], out["last_line"]))
        else:
            self.tally.merge(out["tally"])
        return out["unit_s"], out["spans"], out["import_s"], out["missing"]


def child_main(payload: dict) -> int:
    """One unit in this fresh interpreter; prints its results as JSON."""
    lib = load_library()
    spec, cap = payload["spec"], payload["cap"]
    tally = Tally()
    tracer = spans.Tracer() if payload["trace"] else None
    if tracer:
        tracer.run = payload["run"]
    context = tracer if tracer else contextlib.nullcontext()
    code, last_line = 0, ""
    if spec["kind"] == "verify":
        argv = build_inputs(lib, spec, payload["seed"])["argv"]
        printed = io.StringIO()
        start = time.perf_counter()
        try:
            with deadline(cap), context, contextlib.redirect_stdout(printed):
                code = lib.cli.main(argv)
        except OpTimeout as exc:
            code = -1
            printed.write(f"\nverify {exc}\n")
        unit_s = time.perf_counter() - start
        lines = printed.getvalue().strip().splitlines()
        last_line = lines[-1] if lines else ""
    else:
        inputs = build_inputs(lib, spec, payload["seed"])
        start = time.perf_counter()
        with context:
            UNITS[spec["kind"]](lib, spec, inputs, tally, cap)
        unit_s = time.perf_counter() - start
    print(json.dumps({
        "code": code, "last_line": last_line, "tally": tally.as_dict(),
        "unit_s": unit_s, "import_s": lib.import_s,
        "spans": tracer.spans if tracer else [],
        "missing": tracer.missing if tracer else []}))
    return 0


def peak_rss_mib() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def _enough(tally: Tally, kind: str, started: float, seconds: float) -> bool:
    return (time.perf_counter() - started >= seconds
            and len(tally.latencies) >= MIN_CALLS[kind])


def measure(runner: Runner, seconds: float) -> int:
    """Untraced units until the run has lasted `seconds`; returns units run."""
    kind = runner.spec["kind"]
    started = time.perf_counter()
    units = 0
    while True:
        runner.unit(units, traced=False)
        units += 1
        if _enough(runner.tally, kind, started, seconds) or time_left() < OP_CAP_S / 2:
            return units


def measure_traced(runner: Runner, seconds: float, name: str, seed: int):
    """Untraced and traced units in turn; per-layer metrics and the spans
    written out are the first traced unit's, the overhead comes from the
    medians of both kinds of unit."""
    started = time.perf_counter()
    plain, traced, first = [], [], None
    pair = 0
    while True:
        done = runner.unit(2 * pair, traced=False)
        if done:
            plain.append(done[0])
        done = runner.unit(2 * pair + 1, traced=True)
        if done:
            traced.append(done[0])
            first = first or done
        pair += 1
        if time.perf_counter() - started >= seconds or time_left() < OP_CAP_S / 2:
            break
    if first is None:
        return {}, {}, pair
    overhead = (statistics.median(traced) / statistics.median(plain) - 1.0
                if plain else 0.0)
    unit_s, unit_spans, import_s, missing = first
    if missing:
        print(f"perfbench: traced functions not found, metrics left out: "
              f"{', '.join(missing)}", file=sys.stderr)
    OUT.mkdir(exist_ok=True)
    spans.write_jsonl(unit_spans, OUT / f"spans-{name}-seed{seed}.jsonl.gz")
    metrics = spans.per_layer(unit_spans, import_s, unit_s, overhead, missing)
    return metrics, spans.layer_shares(unit_spans, unit_s), pair


def end_to_end(tally: Tally, setup: list, rss_mib: float) -> dict:
    latencies = sorted(1000.0 * s for s in tally.latencies) or [0.0]
    p95 = (statistics.quantiles(latencies, n=20, method="inclusive")[18]
           if len(latencies) > 1 else latencies[0])
    values = {
        "setup_s": statistics.median(setup),
        "items_per_s": statistics.median(tally.rates) if tally.rates else 0.0,
        "call_p50_ms": statistics.median(latencies),
        "call_p95_ms": p95,
        "peak_rss_mib": rss_mib,
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}


def summary(name: str, spec: dict, seed: int, tally: Tally, metrics: dict,
            units: int, shares: dict | None) -> list:
    item, call = DESCRIPTIONS[spec["kind"]]
    lines = [f"perfbench {name} seed={seed} units={units} "
             f"items={item} call={call} calls={len(tally.latencies)}"]
    aliases = ALIASES.get(name, {})
    for metric, entry in metrics.items():
        alias = f"  ({aliases[metric]})" if metric in aliases else ""
        lines.append(f"  {metric:34s} {entry['value']:>14.6g} {entry['unit']}{alias}")
    if "call_p50_ms" in metrics and name == "verify":
        lines.append(f"  {'verify_wall_s':34s} "
                     f"{metrics['call_p50_ms']['value'] / 1000:>14.6g} s")
    lines.append(f"  {'failed_frac':34s} "
                 f"{tally.failed / max(tally.attempted, 1):>14.6g} "
                 f"({tally.failed}/{tally.attempted})")
    if shares:
        lines.append("  self-time share of the traced unit: " + ", ".join(
            f"{layer} {share:.1%}" for layer, share in
            sorted(shares.items(), key=lambda item: -item[1])))
    return lines


def run_workload(name: str, spec: dict, seed: int, seconds: float, trace: bool,
                 probes: int = SETUP_PROBES):
    """Returns (result object, summary lines)."""
    check_sources()
    setup = [] if trace else [probe_setup(spec, seed) for _ in range(probes)]
    tally = Tally()
    runner = Runner(spec, seed, tally)
    shares = None
    if trace:
        metrics, shares, units = measure_traced(runner, seconds, name, seed)
    else:
        units = measure(runner, seconds)
        # read before the statistics below allocate anything
        metrics = end_to_end(tally, setup, peak_rss_mib())
    correct = tally.failed == 0 and tally.attempted > 0 and bool(metrics)
    result = {"correct": correct, "attempted": max(tally.attempted, 1),
              "failed": tally.failed if tally.attempted else 1, "metrics": metrics}
    lines = summary(name, spec, seed, tally, metrics, units, shares)
    for error in tally.errors:
        print(f"perfbench: FAILED {error}", file=sys.stderr)
    return result, lines


def run_all(args) -> int:
    """Every workload in its own process, one after another."""
    worst = 0
    for name in SPECS:
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)], cwd=ROOT, timeout=200)
        worst = max(worst, proc.returncode)
    return worst


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=tuple(SPECS) + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--child", help=argparse.SUPPRESS)
    parser.add_argument("--probe-setup", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.child:
        return child_main(json.loads(args.child))
    if args.probe_setup:
        payload = json.loads(args.probe_setup)
        build_inputs(load_library(), payload["spec"], payload["seed"])
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    if args.workload == "all":
        return run_all(args)
    result, lines = run_workload(args.workload, SPECS[args.workload], args.seed,
                                 args.seconds, bool(args.trace))
    print("\n".join(lines))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
