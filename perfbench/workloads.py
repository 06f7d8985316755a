"""The benchmark's workloads, their seeded inputs and correctness gates.

A workload is a spec (a JSON-able dict) plus a unit of work that is
repeated while the run lasts.  `census` and `certify` run their units in
the benchmark process; `certify_large_n` and `verify` run each unit in a
fresh interpreter (see run.py's `--child`), so every unit starts with
cold caches and, for `verify`, pays the import as a user's shell does.

Every unit reports into a `Tally`: operations attempted and failed, the
latency of each timed library call, and the unit's throughput in items
per second.  A gate that fails, an exception and an overrun of the
per-operation cap all count as a failed operation.
"""

from __future__ import annotations

import random
import re
import signal
import time
from array import array
from contextlib import contextmanager

# criterion 5's spaces; the exhaustive part of `certify` takes every one
# up to EXHAUSTIVE_MAX states
ODD_CASES = ((2, 1), (3, 1), (4, 3), (7, 3))
EVEN_CASES = ((2, 2), (3, 2), (3, 4), (4, 2), (4, 6), (5, 2), (5, 4))
EXHAUSTIVE_MAX = 6561

CENSUS_SPACES = ((4, 6), (5, 4), (7, 3))

SPECS = {
    "census": {"kind": "census", "spaces": CENSUS_SPACES, "threads": 1},
    "census_2t": {"kind": "census", "spaces": CENSUS_SPACES, "threads": 2},
    "certify": {"kind": "certify",
                "exhaustive": tuple(c for c in ODD_CASES + EVEN_CASES
                                    if c[1] ** (2 * c[0]) <= EXHAUSTIVE_MAX),
                "random": tuple((g, n, 2000) for g, n in CENSUS_SPACES)},
    # three quarters at n=50, so that the median and p95 calls both fall
    # inside one population instead of on the edge between the two; forty
    # states a unit, so that a run's median rests on several cold units
    "certify_large_n": {"kind": "certify_large_n",
                        "random": ((16, 30, 10), (26, 50, 30))},
    "verify": {"kind": "verify", "argv": ("verify", "--suite", "all")},
}

# how an item and a timed call read for each kind, for the printed summary
DESCRIPTIONS = {
    "census": ("states enumerated", "enumerate_orbits call"),
    "certify": ("states normalized and replayed", "normalize call"),
    "certify_large_n": ("states normalized and replayed", "normalize call"),
    "verify": ("verify invocations", "verify invocation, fresh interpreter"),
}

# kinds whose every unit runs in a fresh interpreter
FRESH_PROCESS = ("certify_large_n", "verify")

# fewest timed calls a run needs so that ten lie beyond its p95
MIN_CALLS = {"census": 1, "certify": 200, "certify_large_n": 200, "verify": 1}

_CHECKS_LINE = re.compile(r"(\d+)/(\d+) checks passed$")


class OpTimeout(BaseException):
    """An operation ran past its wall-clock cap.

    A BaseException, like KeyboardInterrupt, so that no `except Exception`
    in the library or in a unit swallows it.
    """


@contextmanager
def deadline(seconds: float):
    """Raise OpTimeout in the main thread once `seconds` have passed."""
    def expire(signum, frame):
        raise OpTimeout(f"over its {seconds:.0f} s cap")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, max(seconds, 0.001))
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


class Tally:
    """Operations attempted and failed, call latencies, unit rates."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        # unboxed, so that the benchmark's own bookkeeping barely moves peak RSS
        self.latencies = array("d")
        self.rates: list = []
        self.errors: list = []

    def record(self, error: str | None) -> None:
        self.attempted += 1
        if error is not None:
            self.failed += 1
            if len(self.errors) < 5:
                self.errors.append(error)

    def merge(self, other: dict) -> None:
        """Add the tally a child process returned."""
        self.attempted += other["attempted"]
        self.failed += other["failed"]
        self.latencies.extend(other["latencies"])
        self.rates.extend(other["rates"])
        self.errors.extend(other["errors"][:max(0, 5 - len(self.errors))])

    def as_dict(self) -> dict:
        return {"attempted": self.attempted, "failed": self.failed,
                "latencies": self.latencies.tolist(), "rates": self.rates,
                "errors": self.errors}


# --- inputs -----------------------------------------------------------------

def random_states(lib, spaces, seed: int) -> list:
    """`count` uniform states of each (g, n, count), from `seed` alone."""
    states = []
    for g, n, count in spaces:
        params = lib.space.SpaceParams(g, n)
        rng = random.Random(f"{seed}:{g}:{n}")
        for _ in range(count):
            states.append(lib.space.make_element(
                params, [rng.randrange(n) for _ in range(2 * g)]))
    return states


def build_inputs(lib, spec: dict, seed: int) -> dict:
    """Everything a unit needs, built before any timing starts."""
    kind = spec["kind"]
    if kind == "census":
        return {"spaces": [lib.space.SpaceParams(g, n) for g, n in spec["spaces"]]}
    if kind == "certify":
        return {"spaces": [lib.space.SpaceParams(g, n) for g, n in spec["exhaustive"]],
                "states": random_states(lib, spec["random"], seed)}
    if kind == "certify_large_n":
        return {"states": random_states(lib, spec["random"], seed)}
    if kind == "verify":
        return {"argv": list(spec["argv"]) + ["--seed", str(seed)]}
    raise ValueError(f"unknown workload kind {kind!r}")


# --- gates ------------------------------------------------------------------

def replay_error(lib, word, x, target) -> str | None:
    """None when the word, replayed on x, lands on target."""
    image = lib.action.apply_word(word, x)
    if image != target:
        return f"certificate for {x} replays to {image}, not {target}"
    return None


def canonical_error(form) -> str | None:
    """None when the representative has the shape (0, ..., 0, t)."""
    rep = form.representative
    n = rep.params.n
    t = rep.coords[-1]
    allowed = (0,) if n % 2 else (0, 1)
    if any(rep.coords[:-1]) or t not in allowed or form.parity_class != t:
        return f"representative {rep} (class {form.parity_class}) is not canonical"
    return None


def census_error(lib, params, report) -> str | None:
    """Orbit count, sizes, vanishing numbers, and a normalizer cross-check."""
    g, n = params.g, params.n
    expected = 1 if n % 2 else 2
    if report.orbit_count != expected:
        return f"(g={g}, n={n}) has {report.orbit_count} orbits, expected {expected}"
    total = sum(o.size for o in report.orbits)
    if total != params.size:
        return f"(g={g}, n={n}) orbit sizes sum to {total}, not {params.size}"
    if n % 2 == 0 and sorted(o.vanishing_number for o in report.orbits) != [0, 1]:
        return f"(g={g}, n={n}) vanishing numbers do not separate the orbits"
    # second method: each representative normalizes, and to a different class
    classes = set()
    for orbit in report.orbits:
        form, cert = lib.normalize.normalize(orbit.representative, verify=False)
        error = (replay_error(lib, cert.word, orbit.representative, form.representative)
                 or canonical_error(form))
        if error:
            return error
        classes.add(form.representative)
    if len(classes) != report.orbit_count:
        return f"(g={g}, n={n}) representatives share a canonical form"
    return None


def verify_error(code: int, last_line: str) -> str | None:
    match = _CHECKS_LINE.search(last_line.strip())
    if code != 0 or match is None or match.group(1) != match.group(2) \
            or int(match.group(2)) == 0:
        return f"verify exited {code} with {last_line.strip()!r}"
    return None


# --- units ------------------------------------------------------------------

def census_unit(lib, spec, inputs, tally: Tally, cap: float) -> None:
    """One enumerate_orbits call per space; items are states."""
    clock = time.perf_counter
    states = 0
    busy = 0.0
    for params in inputs["spaces"]:
        start = clock()
        try:
            with deadline(cap):
                report = lib.orbits.enumerate_orbits(
                    params, thread_count=spec["threads"], record_paths=False)
            elapsed = clock() - start
            error = census_error(lib, params, report)
        except OpTimeout as exc:
            tally.record(f"census (g={params.g}, n={params.n}) {exc}")
            continue
        except Exception as exc:  # a failed operation, not a failed run
            tally.record(f"census (g={params.g}, n={params.n}) raised {exc!r}")
            continue
        tally.latencies.append(elapsed)
        tally.record(error)
        states += params.size
        busy += elapsed
    if busy:
        tally.rates.append(states / busy)


def _certify_state(lib, x, tally: Tally, canonical: bool):
    """Normalize x, replay its certificate independently; returns the form,
    or None when normalize raised."""
    clock = time.perf_counter
    try:
        start = clock()
        form, cert = lib.normalize.normalize(x, verify=False)
        tally.latencies.append(clock() - start)
        error = replay_error(lib, cert.word, x, form.representative)
    except Exception as exc:  # a failed operation, not a failed run
        tally.record(f"normalize({x}) raised {exc!r}")
        return None
    if error is None and canonical:
        error = canonical_error(form)
    tally.record(error)
    return form


def _certify_space(lib, params, tally: Tally) -> None:
    """Every state of one space through the census batch hook; the
    normalizer's classes must equal the BFS partition (criterion 5)."""
    classes: dict = {}

    def hook(ordinal, batch):
        members = classes.setdefault(ordinal, set())
        for index in batch.tolist():
            form = _certify_state(lib, lib.space.decode(index, params), tally, False)
            members.add(form and form.representative)

    report = lib.orbits.enumerate_orbits(params, record_paths=False, batch_hook=hook)
    split = [o for o, members in classes.items() if len(members) != 1]
    distinct = set().union(*classes.values())
    tally.record(None if not split and len(distinct) == report.orbit_count else
                 f"(g={params.g}, n={params.n}) normalizer classes differ "
                 f"from the BFS partition")


def certify_unit(lib, spec, inputs, tally: Tally, cap: float) -> None:
    """Criterion 5's exhaustive spaces, then the seeded states; items are
    states normalized and replayed."""
    start = time.perf_counter()
    done = 0
    try:
        with deadline(cap):
            for params in inputs["spaces"]:
                try:
                    _certify_space(lib, params, tally)
                except Exception as exc:  # a failed operation, not a failed run
                    tally.record(f"(g={params.g}, n={params.n}) raised {exc!r}")
                done += params.size
            for x in inputs["states"]:
                _certify_state(lib, x, tally, True)
                done += 1
    except OpTimeout as exc:
        tally.record(f"certify {exc}")
        return
    tally.rates.append(done / (time.perf_counter() - start))


def certify_large_n_unit(lib, spec, inputs, tally: Tally, cap: float) -> None:
    """Seeded states at large n, in a fresh interpreter; items are states."""
    start = time.perf_counter()
    try:
        with deadline(cap):
            for x in inputs["states"]:
                _certify_state(lib, x, tally, True)
    except OpTimeout as exc:
        tally.record(f"certify_large_n {exc}")
        return
    tally.rates.append(len(inputs["states"]) / (time.perf_counter() - start))


UNITS = {
    "census": census_unit,
    "certify": certify_unit,
    "certify_large_n": certify_large_n_unit,
}
