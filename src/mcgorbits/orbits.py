"""Exhaustive breadth-first orbit enumeration over the covering space.

The full state space has n^(2g) points; orbits under the twist
generators are found by repeated breadth-first sweeps over a bit-packed
visited set (one bit per state).  Generator application never builds
matrices in the inner loop.  A state index is mixed-radix, so block i
is one digit key alpha_i + n*beta_i.  Each generator moves the index by
an amount that depends only on the keys of the blocks it touches: A_i
and B_i on key i, C_i on keys i and i+1, s on every key.  For each chunk
of the frontier the g block keys are computed once and shared by every
generator, and an image is the chunk plus one gather per touched key
from a delta table.  The tables come from the generator's affine map
(`action.generator_action`) evaluated on the local keys, so this module
writes out no twist formula.

The search uses the positive generators only: A_i, B_i, C_i with
exponent +1, plus s for mod_pm.  Each of them permutes the finite state
space, so it has finite order m there and its inverse acts as its
(m-1)-th power; the states reachable by positive words are therefore
exactly the group orbit (the orbits of a finite Schreier graph are its
strongly connected components).  That halves the work of searching
with the signed list.

The calling thread takes the generators of each chunk in order, tests
each image against the visited set once and marks the fresh states at
once, so a state reached twice is caught by that one test.  Chunks are
cache-sized (`chunk_size` states) and drawn from the parts of the level
as they were found; a level is never concatenated.  With thread_count
k > 1, k - 1 pool workers compute the images of the chunks ahead and
never read or write the visited set.  Orbit representatives are the
minimal state indices, a total order independent of search order, and
the partition, the batches passed to the hook and the parent links are
identical for every thread count.  Parent links for path certificates
are optional and off by default on large spaces.
"""

from __future__ import annotations

import os
import time
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .action import Generator, GeneratorWord, apply_word, generator_action
from .invariants import vanishing_number
from .normalize import Certificate
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
TABLE_BYTES_PER_ENTRY = 8  # one int64 delta per key of a term
TABLE_BUILD_BYTES_PER_KEY = 80  # scratch while a term is built, measured

_ONE, _SEVEN = np.uint8(1), np.uint8(7)


def _bit(idx: np.ndarray) -> np.ndarray:
    """The mask of each state's bit within its byte of the visited set."""
    return np.left_shift(_ONE, idx.astype(np.uint8) & _SEVEN)


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


def _term_blocks(gen: Generator, g: int) -> list:
    """[(first block, block count)] of each delta term of `gen`."""
    if gen.kind in ("A", "B"):
        return [(gen.index - 1, 1)]
    if gen.kind == "C":
        return [(gen.index - 1, 2)]
    return [(j, 1) for j in range(g)]


def delta_table_bytes(generators, params: SpaceParams) -> int:
    """Peak bytes the delta tables of `generators` hold while
    `_image_kernel` builds them: 8 bytes per entry of every table (a term
    over w blocks has n^(2w) entries), plus TABLE_BUILD_BYTES_PER_KEY for
    each key of the widest term, the scratch of building it.

    Measured with tracemalloc, building a term takes 64 to 74 bytes of
    scratch per key on (2,7), (2,10), (2,16), (2,20) and (3,12), so 80 is
    charged; a few KiB of Python objects on top are not, and they
    outweigh the tables only for n below about 5.  For C_i a term has
    n^4 keys: (2,100) needs 8.8e9 bytes.
    """
    n = params.n
    keys = [n ** (2 * width)
            for gen in generators for _, width in _term_blocks(gen, params.g)]
    return TABLE_BYTES_PER_ENTRY * sum(keys) + TABLE_BUILD_BYTES_PER_KEY * max(keys)


def _delta_terms(gen: Generator, params: SpaceParams) -> list:
    """[(key slot, delta table)] with gen(x) = x + the sum of delta[key].

    The tables are the generator's affine map (`action.generator_action`)
    evaluated on the local digit keys of the blocks it touches, vectorized
    over the keys: one term on block i (key alpha_i + n*beta_i, slot i)
    for A_i and B_i, one term on blocks i and i+1 (key_i + n^2 key_{i+1},
    slot g + i) for C_i, and one term per block for s.  This is exact
    only when the map moves no coordinate outside its terms and couples
    no two terms, which is checked here.
    """
    g, n = params.g, params.n
    action = generator_action(gen, params)
    terms = _term_blocks(gen, g)
    moved = (action.linear - np.eye(2 * g, dtype=np.int64)) % n
    shifted = action.translation.copy()
    tables = []
    for block, width in terms:
        lo, hi = 2 * block, 2 * (block + width)
        lin, tra = action.linear[lo:hi, lo:hi], action.translation[lo:hi]
        keys = np.arange(n ** (hi - lo), dtype=np.int64)
        digits = [keys // n ** k % n for k in range(hi - lo)]
        delta = np.zeros_like(keys)
        for r, digit in enumerate(digits):
            image = sum(int(lin[r, c]) * digits[c] for c in range(hi - lo))
            delta += ((image + int(tra[r])) % n - digit) * n ** (lo + r)
        moved[lo:hi, lo:hi] = 0
        shifted[lo:hi] = 0
        tables.append((block if width == 1 else g + block, delta))
    if moved.any() or shifted.any():
        raise ValueError(f"{gen} is not local to its blocks")
    return tables


def _image_kernel(gens, params: SpaceParams):
    """images(chunk) -> (len(gens), chunk.size) array of generator images.

    The g block keys (and the g - 1 keys of adjacent block pairs) of the
    chunk are computed once and shared by every generator, so an image
    is one gather per term plus one add.  The kernel reads only the
    chunk and its own tables: it is safe to run on worker threads.
    """
    g, n = params.g, params.n
    n2 = n * n
    shift = n2.bit_length() - 1 if n2 & (n2 - 1) == 0 else 0
    tables = [_delta_terms(gen, params) for gen in gens]

    def images(chunk):
        keys = []
        q = chunk
        for _ in range(g - 1):
            if shift:  # power-of-two radix: shifts instead of division
                keys.append(q & (n2 - 1))
                q = q >> shift
            else:
                rest = q // n2
                keys.append(q - rest * n2)
                q = rest
        keys.append(q)
        keys += [keys[i] + n2 * keys[i + 1] for i in range(g - 1)]
        out = np.empty((len(tables), chunk.size), dtype=np.int64)
        for row, terms in zip(out, tables):
            (slot, delta), *rest = terms
            np.add(chunk, delta.take(keys[slot]), out=row)
            for slot, delta in rest:
                row += delta.take(keys[slot])
        return out

    return images


def _chunks(parts: deque, size: int):
    """Consecutive `size`-state chunks of the parts laid end to end,
    consuming the parts as it goes; the level is never concatenated."""
    held, count = [], 0
    while parts:
        part = parts.popleft()
        while part.size:
            piece = part[:size - count]
            part = part[piece.size:]
            held.append(piece)
            count += piece.size
            if count == size:
                yield held[0] if len(held) == 1 else np.concatenate(held)
                held, count = [], 0
    if held:
        yield np.concatenate(held)


def _with_images(chunks, images, pool, ahead: int):
    """(chunk, images(chunk)) in chunk order.  With a pool, the images of
    up to `ahead` further chunks are computed by its workers meanwhile."""
    if pool is None:
        for chunk in chunks:
            yield chunk, images(chunk)
        return
    pending = deque()
    for chunk in chunks:
        pending.append((chunk, pool.submit(images, chunk)))
        if len(pending) > ahead:
            chunk, future = pending.popleft()
            yield chunk, future.result()
    while pending:
        chunk, future = pending.popleft()
        yield chunk, future.result()


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
    chunk_size: int = 1 << 15,
    batch_hook=None,
) -> OrbitReport:
    """Partition the whole space into orbits of the chosen generator set.

    The breadth-first search applies only the positive generators (see
    `positive_generators`): each permutes the finite space, so the states
    they reach from a seed form its whole orbit under the group.  Each
    level is cut into chunks of `chunk_size` states; the images of a
    chunk share its block digit keys, and the calling thread checks and
    marks them generator by generator, one bitmap test per candidate.
    With `thread_count` > 1 the extra threads only compute the images of
    the chunks ahead, so the result, the hook calls and the parent links
    (positive words for `trace_path`) do not depend on `thread_count`.

    `batch_hook(orbit_ordinal, index_array)` is invoked on every block of
    states as it is discovered (including the seed), which lets callers
    audit per-orbit invariants without storing orbit membership.  Refuses
    to run, before allocating any of them, when the visited bitmap and
    the delta tables (`delta_table_bytes`), plus the parent-link arrays
    when `record_paths` is true, would not fit the configured budget (env
    MCGORBITS_BITMAP_BUDGET, bytes); the frontier, 8 bytes per state of
    the widest level, is not counted.  With `record_paths=None` the links
    are recorded only when the space has at most PATHS_AUTO_LIMIT states
    and they fit the budget.
    """
    start = time.monotonic()
    size = params.size
    generators = positive_generators(params, gens)
    nbytes = (size + 7) // 8
    table_bytes = delta_table_bytes(generators, params)
    path_bytes = PATH_BYTES_PER_STATE * size
    budget = bitmap_budget()
    fixed = nbytes + table_bytes
    if record_paths is None:
        record_paths = size <= PATHS_AUTO_LIMIT and fixed + path_bytes <= budget
    if fixed + (path_bytes if record_paths else 0) > budget:
        paths = f" and path arrays need {path_bytes} bytes" if record_paths else ""
        raise BudgetExceededError(
            f"visited bitmap needs {nbytes} bytes, delta tables need "
            f"{table_bytes} bytes{paths} for {size} states, "
            f"budget is {budget}; raise {BUDGET_ENV} to proceed")
    if thread_count < 1:
        raise ValueError("thread_count must be >= 1")
    if chunk_size < 1:
        raise ValueError("chunk_size must be >= 1")

    images = _image_kernel(generators, params)
    visited = np.zeros(nbytes, dtype=np.uint8)
    parent = parent_gen = None
    if record_paths:
        parent = np.full(size, -1, dtype=np.int64)
        parent_gen = np.full(size, -1, dtype=np.int16)

    # the workers only compute images; the check and the mark of every
    # candidate happen on this thread, chunk by chunk in generator order
    pool = ThreadPoolExecutor(thread_count - 1) if thread_count > 1 else None
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
            level = deque([np.array([seed], dtype=np.int64)])
            while level:
                parts = deque()
                for chunk, candidates in _with_images(
                        _chunks(level, chunk_size), images, pool, 2 * thread_count):
                    for gen_id, nxt in enumerate(candidates):
                        # a generator is a bijection and the level holds
                        # distinct states, so nxt is duplicate-free; a
                        # state an earlier generator or chunk reached is
                        # already marked and fails this one check
                        fresh = np.flatnonzero(
                            visited.take(nxt >> 3) & _bit(nxt) == 0)
                        if fresh.size == 0:
                            continue
                        nxt = nxt.take(fresh)
                        np.bitwise_or.at(visited, nxt >> 3, _bit(nxt))
                        if record_paths:
                            parent[nxt] = chunk.take(fresh)
                            parent_gen[nxt] = gen_id
                        if batch_hook is not None:
                            batch_hook(orbit_ordinal, nxt)
                        parts.append(nxt)
                        orbit_size += nxt.size
                level = parts

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
               representative: GnElement | None = None) -> Certificate:
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
    return Certificate(word, root, x)
