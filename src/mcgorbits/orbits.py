"""Exhaustive breadth-first orbit enumeration over the covering space.

The full state space has n^(2g) points; orbits under the twist
generators are found by repeated breadth-first sweeps over a bit-packed
visited set (one bit per state).  Generator application never builds
matrices in the inner loop: each generator changes at most two beta
digits (s: every alpha digit) of the mixed-radix state index by an
amount that depends on a handful of digits, so it is precompiled into a
flat lookup table of index deltas and applied to whole frontier chunks
with numpy.

The search uses the positive generators only: A_i, B_i, C_i with
exponent +1, plus s for mod_pm.  Each of them permutes the finite state
space, so it has finite order m there and its inverse acts as its
(m-1)-th power; the states reachable by positive words are therefore
exactly the group orbit (the orbits of a finite Schreier graph are its
strongly connected components).  That halves the work of searching
with the signed list.

Each frontier chunk is expanded by min(thread_count, #generators)
workers, each taking a contiguous slice of the generator list and only
reading the visited set; their batches are then committed on the
calling thread in generator order.  Orbit representatives are the
minimal state indices, a total order independent of search order, and
the partition, the batches passed to the hook and the parent links are
identical for every thread count.  Parent links for path certificates
are optional and off by default on large spaces.
"""

from __future__ import annotations

import os
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .action import Generator, GeneratorWord, apply_word
from .invariants import vanishing_number
from .space import GnElement, SpaceParams, decode, encode

MOD = "mod"
MOD_PM = "mod_pm"
GENERATOR_SETS = (MOD, MOD_PM)

# GeneratorSet selector: one of the strings above
GeneratorSet = str

BUDGET_ENV = "MCGORBITS_BITMAP_BUDGET"
DEFAULT_BITMAP_BUDGET = 512 * 1024 * 1024  # bytes
PATHS_AUTO_LIMIT = 10 ** 7
PATH_BYTES_PER_STATE = 10  # int64 parent index plus int16 generator id

_BITS = np.array([1, 2, 4, 8, 16, 32, 64, 128], dtype=np.uint8)


class BudgetExceededError(MemoryError):
    """State space too large for the configured visited-bitmap budget."""


class BudgetConfigError(ValueError):
    """MCGORBITS_BITMAP_BUDGET is set but is not a byte count."""


class PathsUnavailableError(RuntimeError):
    """Enumeration ran without parent recording."""


class OrbitMismatchError(ValueError):
    """Queried element lies in a different orbit than the representative."""


def positive_generators(params: SpaceParams, selector: GeneratorSet) -> tuple:
    """A_i, B_i and C_i with exponent +1, plus s for mod_pm, in a fixed order.

    Each generator permutes the finite state space, so its inverse is one
    of its positive powers; these 3g - 1 (or 3g) tokens therefore reach
    the same orbits as the full signed list.
    """
    if selector not in GENERATOR_SETS:
        raise ValueError(f"unknown generator set {selector!r}")
    gens = []
    for i in range(1, params.g + 1):
        gens.append(Generator("A", i))
        gens.append(Generator("B", i))
    gens.extend(Generator("C", i) for i in range(1, params.g))
    if selector == MOD_PM:
        gens.append(Generator("s"))
    return tuple(gens)


def generator_groups(count: int, thread_count: int) -> list:
    """Contiguous [lo, hi) slices of a list of `count` generators, one per
    worker, for min(thread_count, count) workers."""
    workers = min(thread_count, count)
    return [(count * k // workers, count * (k + 1) // workers)
            for k in range(workers)]


def _unvisited(visited: np.ndarray, idx: np.ndarray) -> np.ndarray:
    """Boolean mask: which of the state indices have their bit still clear."""
    bits = visited[idx >> 3]
    bits &= _BITS[idx & 7]
    return bits == 0


def _compile_generator(gen: Generator, params: SpaceParams):
    """Return a vectorized index map f(idx_array) -> image index array."""
    g, n = params.g, params.n
    e = gen.exponent
    if gen.kind in ("A", "B"):
        pos = 2 * gen.index - 2
        stride = n ** pos
        keys = np.arange(n * n, dtype=np.int64)
        a, b = keys % n, keys // n
        if gen.kind == "A":
            delta = (((b - e * a) % n) - b) * (stride * n)
        else:
            delta = (((a + e * b) % n) - a) * stride
        return _table_apply(stride, n * n, delta.astype(np.int64))
    if gen.kind == "C":
        pos = 2 * gen.index - 2
        stride = n ** pos
        keys = np.arange(n ** 4, dtype=np.int64)
        a1 = keys % n
        b1 = (keys // n) % n
        a2 = (keys // n ** 2) % n
        b2 = (keys // n ** 3) % n
        step = -a1 + a2 + 1
        delta = ((((b1 + e * step) % n) - b1) * (stride * n)
                 + (((b2 - e * step) % n) - b2) * (stride * n ** 3))
        return _table_apply(stride, n ** 4, delta.astype(np.int64))
    if gen.kind == "s":
        tables = []
        for j in range(g):
            stride = n ** (2 * j)
            a = np.arange(n, dtype=np.int64)
            tables.append((stride, (((-a) % n) - a) * stride))

        def apply_s(idx):
            out = idx.copy()
            for stride, delta in tables:
                out += delta[(idx // stride) % n]
            return out

        return apply_s
    raise ValueError(f"cannot compile generator {gen}")


def _table_apply(stride: int, keysize: int, delta: np.ndarray):
    if stride & (stride - 1) == 0 and keysize & (keysize - 1) == 0:
        # power-of-two radix: shifts instead of division
        shift = stride.bit_length() - 1
        mask = keysize - 1

        def apply_pow2(idx):
            return idx + delta[(idx >> shift) & mask]

        return apply_pow2

    def apply(idx):
        key = idx // stride
        key -= key // keysize * keysize  # key % keysize: numpy divides faster
        return idx + delta[key]

    return apply


@dataclass(frozen=True)
class OrbitSummary:
    representative: GnElement
    size: int
    vanishing_number: int | None


@dataclass(frozen=True)
class PathForest:
    """BFS parent links: enough to rebuild a word from any state's root."""

    params: SpaceParams
    generators: tuple
    parent: np.ndarray = field(compare=False)
    parent_gen: np.ndarray = field(compare=False)


@dataclass(frozen=True)
class PathCertificate:
    word: GeneratorWord
    source: GnElement
    target: GnElement


@dataclass(frozen=True)
class OrbitReport:
    params: SpaceParams
    generator_set: GeneratorSet
    orbit_count: int
    orbits: tuple
    elapsed_ms: int
    thread_count: int
    forest: PathForest | None = field(default=None, compare=False)

    def to_dict(self) -> dict:
        return {
            "g": self.params.g,
            "n": self.params.n,
            "generators": self.generator_set,
            "orbit_count": self.orbit_count,
            "orbits": [
                {
                    "representative": list(o.representative.coords),
                    "size": o.size,
                    "vanishing_number": o.vanishing_number,
                }
                for o in self.orbits
            ],
            "elapsed_ms": self.elapsed_ms,
            "threads": self.thread_count,
        }

    def to_csv(self) -> str:
        lines = ["representative,size,vanishing_number"]
        for o in self.orbits:
            v = "" if o.vanishing_number is None else str(o.vanishing_number)
            lines.append(f"\"{o.representative}\",{o.size},{v}")
        return "\n".join(lines) + "\n"


def bitmap_budget() -> int:
    """Byte budget for the per-state arrays, from MCGORBITS_BITMAP_BUDGET."""
    raw = os.environ.get(BUDGET_ENV)
    if raw is None:
        return DEFAULT_BITMAP_BUDGET
    try:
        budget = int(raw)
    except ValueError:
        budget = -1
    if budget < 0:
        raise BudgetConfigError(
            f"{BUDGET_ENV} must be a non-negative integer byte count, got {raw!r}")
    return budget


def enumerate_orbits(
    params: SpaceParams,
    gens: GeneratorSet = MOD,
    thread_count: int = 1,
    record_paths: bool | None = None,
    chunk_size: int = 1 << 21,
    batch_hook=None,
) -> OrbitReport:
    """Partition the whole space into orbits of the chosen generator set.

    The breadth-first search applies only the positive generators (see
    `positive_generators`): each permutes the finite space, so the states
    they reach from a seed form its whole orbit under the group.  Every
    frontier chunk is split by generator across min(thread_count,
    #generators) workers and committed in generator order, so the result,
    the hook calls and the parent links (positive words for `trace_path`)
    do not depend on `thread_count`.

    `batch_hook(orbit_ordinal, index_array)` is invoked on every block of
    states as it is discovered (including the seed), which lets callers
    audit per-orbit invariants without storing orbit membership.  Refuses
    to run when the visited bitmap, plus the parent-link arrays when
    `record_paths` is true, would not fit the configured budget (env
    MCGORBITS_BITMAP_BUDGET, bytes).  With `record_paths=None` the links
    are recorded only when the space has at most PATHS_AUTO_LIMIT states
    and they fit the budget.
    """
    start = time.monotonic()
    size = params.size
    nbytes = (size + 7) // 8
    path_bytes = PATH_BYTES_PER_STATE * size
    budget = bitmap_budget()
    if record_paths is None:
        record_paths = size <= PATHS_AUTO_LIMIT and nbytes + path_bytes <= budget
    if nbytes + (path_bytes if record_paths else 0) > budget:
        paths = f" and path arrays need {path_bytes} bytes" if record_paths else ""
        raise BudgetExceededError(
            f"visited bitmap needs {nbytes} bytes{paths} for {size} states, "
            f"budget is {budget}; raise {BUDGET_ENV} to proceed")
    if thread_count < 1:
        raise ValueError("thread_count must be >= 1")

    generators = positive_generators(params, gens)
    appliers = [_compile_generator(gen, params) for gen in generators]
    groups = generator_groups(len(appliers), thread_count)
    visited = np.zeros(nbytes, dtype=np.uint8)
    parent = parent_gen = None
    if record_paths:
        parent = np.full(size, -1, dtype=np.int64)
        parent_gen = np.full(size, -1, dtype=np.int16)

    def expand(chunk, lo, hi):
        # reads `visited` only: no commit runs until every group is done
        batches = []
        for gen_id in range(lo, hi):
            nxt = appliers[gen_id](chunk)
            fresh = np.flatnonzero(_unvisited(visited, nxt))
            batches.append((gen_id, nxt[fresh],
                            chunk[fresh] if record_paths else None))
        return batches

    def commit(batches, orbit_ordinal):
        # a generator is a bijection and the frontier holds distinct
        # states, so each batch is duplicate-free; states shared between
        # batches are dropped here, the earliest generator keeping them
        parts = []
        for gen_id, nxt, pred in batches:
            fresh = np.flatnonzero(_unvisited(visited, nxt))
            if fresh.size == 0:
                continue
            nxt = nxt[fresh]
            np.bitwise_or.at(visited, nxt >> 3, _BITS[nxt & 7])
            if record_paths:
                parent[nxt] = pred[fresh]
                parent_gen[nxt] = gen_id
            if batch_hook is not None:
                batch_hook(orbit_ordinal, nxt)
            parts.append(nxt)
        return parts

    # the calling thread expands the first group, the pool the others
    pool = ThreadPoolExecutor(len(groups) - 1) if len(groups) > 1 else None
    summaries = []
    scan_byte = 0  # all bytes before this are 0xFF
    try:
        while True:
            # find the next unvisited state: its index is the orbit minimum
            while scan_byte < nbytes and visited[scan_byte] == 0xFF:
                hit = np.nonzero(visited[scan_byte:] != 0xFF)[0]
                if hit.size == 0:
                    scan_byte = nbytes
                    break
                scan_byte += int(hit[0])
            if scan_byte >= nbytes:
                break
            byte = int(visited[scan_byte])
            bit = (~byte & (byte + 1)).bit_length() - 1  # lowest zero bit
            seed = scan_byte * 8 + bit
            if seed >= size:
                break

            visited[scan_byte] |= 1 << bit
            orbit_ordinal = len(summaries)
            if batch_hook is not None:
                batch_hook(orbit_ordinal, np.array([seed], dtype=np.int64))
            orbit_size = 1
            frontier = np.array([seed], dtype=np.int64)
            while frontier.size:
                parts = []
                for lo in range(0, frontier.size, chunk_size):
                    chunk = frontier[lo:lo + chunk_size]
                    futures = [pool.submit(expand, chunk, *group)
                               for group in groups[1:]]
                    batches = expand(chunk, *groups[0])
                    for future in futures:
                        batches.extend(future.result())
                    # commits run on this thread in generator order, so the
                    # parent links are the same for every thread count
                    parts.extend(commit(batches, orbit_ordinal))
                if not parts:
                    break
                frontier = np.concatenate(parts)
                orbit_size += frontier.size

            rep = decode(seed, params)
            v = vanishing_number(rep) if params.n % 2 == 0 else None
            summaries.append(OrbitSummary(rep, orbit_size, v))
    finally:
        if pool is not None:
            pool.shutdown()

    total = sum(o.size for o in summaries)
    if total != size:
        raise AssertionError(f"orbit sizes sum to {total}, expected {size}")

    forest = None
    if record_paths:
        forest = PathForest(params, generators, parent, parent_gen)
    elapsed_ms = int((time.monotonic() - start) * 1000)
    return OrbitReport(params, gens, len(summaries), tuple(summaries),
                       elapsed_ms, thread_count, forest)


def trace_path(report: OrbitReport, x: GnElement,
               representative: GnElement | None = None) -> PathCertificate:
    """Word mapping x's orbit representative to x, rebuilt from BFS links.

    When `representative` is given, raises OrbitMismatchError if x lies
    in a different orbit.
    """
    forest = report.forest
    if forest is None:
        raise PathsUnavailableError(
            "enumeration ran without parent recording; "
            "pass record_paths=True to enumerate_orbits")
    if x.params != report.params:
        raise ValueError(
            f"element of (Z/{x.params.n})^{x.params.dim} queried against a "
            f"report for (Z/{report.params.n})^{report.params.dim}")
    idx = encode(x)
    tokens = []
    while forest.parent[idx] >= 0:
        tokens.append(forest.generators[int(forest.parent_gen[idx])])
        idx = int(forest.parent[idx])
    root = decode(idx, report.params)
    if representative is not None and root != representative:
        raise OrbitMismatchError(
            f"{x} lies in the orbit of {root}, not of {representative}")
    word = GeneratorWord(tuple(reversed(tokens)))
    if apply_word(word, root) != x:
        raise AssertionError(f"path certificate for {x} does not replay")
    return PathCertificate(word, root, x)
