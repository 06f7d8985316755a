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

Twists about disjoint curves commute.  Here only the chain neighbours
A_i-B_i, B_i-C_{i-1} and B_i-C_i fail to commute, plus s with every
twist when n >= 3; the relation is derived from the same affine maps,
composed both ways mod n, for the pairs that share a block.  A state
that generator u found is expanded only by the generators j < r(u),
where the reach r(u) is 1 plus the last index j >= u whose map does
not commute with u's; in the order of `positive_generators` that skips
every later generator that commutes with u, and the seed is expanded
by all.  That leaves about 3.6 candidates per state instead of 3g - 1
(move pruning, as in Holte and Burch, "Automatic move pruning for
single-agent search", AI Communications 27(4), 2014).

Why it is exact.  Suppose the pair (p, v) is skipped: p = u(x) with x
on level d-1, v > u, and uv = vu.  If v(p) is new on level d+1, then
q = v(x) lies on level d (it is within d steps of the seed, and if it
were nearer then u(q) = v(p) would be too), and the pair (q, u) reaches
the same state with the smaller generator u.  So among the pairs into a
state of level d+1 the one with the smallest generator is never
skipped, whichever generator found its source; this holds for any
order and chunking, and the level sets are those of the unpruned
search.  Partitions, orbit sizes and representatives are unchanged;
hook batches and parent links depend on the order, and `trace_path`
words stay positive words of BFS length that replay.

The calling thread takes the generators of each chunk in order and
gathers each image's byte of the visited set once; that byte decides
whether the state is fresh, so a state reached twice is caught by that
one test.  The fresh states are marked by one unbuffered `np.add.at`
of their bits (`_mark`): the fresh states of a row are distinct and
their bits are clear, so where several share a byte the sum of their
bits is their OR.  A level is kept as uint32 parts keyed by the reach
of the generator that found them, and chunks of `chunk_size` states are
cut from them in descending reach and widened to int64, so row j of a
chunk is its leading states whose reach exceeds j: a prefix, and a
prefix slice of the shared block keys.  Parts are consumed as they are
chunked; a level is never concatenated, and the kernel yields a chunk's
rows one at a time, so one int64 row is live, not all of them.  The
parts held, 4 bytes per state, count against the budget with the
visited bitmap; a uint32 index names at most 2^32 states, so larger
spaces are refused.  The whole census runs on the calling thread: with
about 3.6 candidates per state a chunk's images cost too little to pay
for handing them to a worker.  Orbit representatives are the minimal
state indices, a total order independent of search order.  Parent
links for path certificates are recorded only on request.

The census computes with numpy arrays; this module imports numpy in the
functions that do, so importing it (and the CLI, and the package) leaves
numpy unloaded until the first census.
"""

from __future__ import annotations

import os
import time
from collections import deque
from dataclasses import dataclass, field

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
PATH_BYTES_PER_STATE = 10  # int64 parent index plus int16 generator id
FRONTIER_BYTES_PER_STATE = 4  # a uint32 state index
STATE_LIMIT = 1 << 32  # the most states a uint32 index can name
TABLE_BYTES_PER_ENTRY = 8  # one int64 delta per key of a term
TABLE_BUILD_BYTES_PER_KEY = 80  # scratch while a term is built, measured


def _mark(visited: np.ndarray, idx: np.ndarray) -> np.ndarray:
    """Set the visited bits of the states `idx` and return the positions
    in `idx` of those that were unmarked.

    Each state's byte is gathered once, and that gather alone decides
    which states are fresh; their bits are then added to their bytes by
    one unbuffered `np.add.at`.  Precondition: the states of `idx` are
    distinct, and nothing writes `visited` between the gather and the
    add.  Then the bits added to one byte are distinct powers of two
    that the byte lacks, so their sum is their OR, with no carry.  In
    the census `idx` is one image row: a generator is a bijection and a
    level holds distinct states.
    """
    import numpy as np

    byte = idx >> 3
    # the mask of each state's bit within its byte
    bit = np.left_shift(np.uint8(1), idx.astype(np.uint8) & 7)
    fresh = np.flatnonzero(visited.take(byte) & bit == 0)
    if fresh.size:
        np.add.at(visited, byte.take(fresh), bit.take(fresh))
    return fresh


class BudgetExceededError(MemoryError):
    """State space too large for the configured budget, or over the
    census's limit of STATE_LIMIT states."""


class BudgetConfigError(ValueError):
    """MCGORBITS_BITMAP_BUDGET is set but is not a byte count."""


class PathsUnavailableError(RuntimeError):
    """Enumeration ran without parent recording."""


def positive_generators(params: SpaceParams, selector: GeneratorSet) -> tuple:
    """A_i, B_i and C_i with exponent +1, plus s for mod_pm, in a fixed order:
    s (mod_pm only), A_1, B_1, C_1, B_2, A_2, C_2, B_3, A_3, ..., C_{g-1},
    B_g, A_g.

    Each generator permutes the finite state space, so its inverse is one
    of its positive powers; these 3g - 1 (or 3g) tokens therefore reach
    the same orbits as the full signed list.  In this order the later
    generators that fail to commute with u come right after u: B_1
    after A_1, C_i after B_i (and A_i), B_{i+1} after C_i, and s, which
    fails to commute with every twist when n >= 3, is first.  So the
    generators the search applies to a state that u found are a prefix
    of the list (see `enumerate_orbits`).
    """
    if selector not in GENERATOR_SETS:
        raise ValueError(f"unknown generator set {selector!r}")
    gens = [Generator("s")] if selector == MOD_PM else []
    gens += [Generator("A", 1), Generator("B", 1)]
    for i in range(2, params.g + 1):
        gens += [Generator("C", i - 1), Generator("B", i), Generator("A", i)]
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


def _local_action(gen: Generator, params: SpaceParams):
    """(terms, step) for the generator's affine map x -> Lx + t
    (`action.generator_action`).

    `terms` is [(lo, hi)], the coordinates lo..hi-1 of each of its delta
    terms (`_term_blocks`).  `step` is the map minus the identity,
    sparse: step[i][j] is the nonzero entry (i, j) of L - 1 mod n, and
    step[i][2g] the nonzero t_i.  Every entry must lie within one term
    (the map moves nothing outside its terms and couples no two), which
    is checked here, so the map acts on each term's coordinates alone.
    """
    import numpy as np

    g, n = params.g, params.n
    action = generator_action(gen, params)
    moved = (action.linear - np.eye(2 * g, dtype=np.int64)) % n
    step = {}
    rows, cols = np.nonzero(moved)
    for i, j, x in zip(rows.tolist(), cols.tolist(), moved[rows, cols].tolist()):
        step.setdefault(i, {})[j] = x
    rows = np.flatnonzero(action.translation)
    for i, x in zip(rows.tolist(), action.translation[rows].tolist()):
        step.setdefault(i, {})[2 * g] = x
    terms = [(2 * block, 2 * (block + width))
             for block, width in _term_blocks(gen, g)]
    for i, row in step.items():
        if not any(lo <= i < hi and all(lo <= j < hi for j in row if j != 2 * g)
                   for lo, hi in terms):
            raise ValueError(f"{gen} is not local to its blocks")
    return terms, step


def _delta_table(lo: int, hi: int, step: dict, n: int) -> np.ndarray:
    """delta[key] = gen(x) - x for the local digit key of coordinates
    lo..hi-1 (digit k weighs n^k), vectorized over the keys; `step` is
    the generator's sparse map minus the identity (`_local_action`)."""
    import numpy as np

    keys = np.arange(n ** (hi - lo), dtype=np.int64)
    digits = [keys // n ** k % n for k in range(hi - lo)]
    delta = np.zeros_like(keys)
    for i in range(lo, hi):
        if i in step:
            image = digits[i - lo] + sum(
                x * (digits[j - lo] if j < hi else 1) for j, x in step[i].items())
            delta += (image % n - digits[i - lo]) * n ** i
    return delta


def _commute(u: dict, v: dict, n: int) -> bool:
    """Do two affine maps commute mod n?  Each is given as its `step`
    (`_local_action`): with the homogeneous coordinate, a map is 1 + N and
    uv - vu = N_u N_v - N_v N_u, so the two products of the sparse steps
    are compared, and only entries that meet are multiplied."""
    def product(a, b):
        out = {}
        for i, row in a.items():
            for j, x in row.items():
                for k, y in b.get(j, {}).items():
                    out[i, k] = out.get((i, k), 0) + x * y
        return out

    uv, vu = product(u, v), product(v, u)
    return all((uv.get(key, 0) - vu.get(key, 0)) % n == 0
               for key in uv.keys() | vu.keys())


def _reach(local: list, n: int) -> list:
    """reach[u] = 1 + the last index j >= u whose map does not commute
    with generator u's, where local[u] is generator u's `_local_action`.

    Only pairs that share a block are composed: maps on disjoint blocks
    commute.  The candidates are tried from the last one down, so a
    generator whose last neighbour fails to commute costs one check.
    """
    on_block = {}
    for j, (terms, _) in enumerate(local):
        for lo, hi in terms:
            for block in range(lo // 2, hi // 2):
                on_block.setdefault(block, set()).add(j)
    reach = []
    for u, (terms, step) in enumerate(local):
        near = set()
        for lo, hi in terms:
            for block in range(lo // 2, hi // 2):
                near |= on_block[block]
        last = next((v for v in sorted(near, reverse=True)
                     if v > u and not _commute(step, local[v][1], n)), u)
        reach.append(last + 1)
    return reach


def _image_kernel(gens, params: SpaceParams):
    """(images, reach) for a generator list.

    `reach` is the generators' `_reach`.
    `images(chunk, counts)` yields the images of chunk[:counts[j]] under
    generator j, one row at a time, for each j while counts[j] > 0;
    counts must not increase.  The g block keys (and the g - 1 keys of
    adjacent block pairs) are computed once per chunk, each on the
    longest prefix a row reads, and shared by every generator, so an
    image is one gather per term plus one add.
    """
    g, n = params.g, params.n
    n2 = n * n
    shift = n2.bit_length() - 1 if n2 & (n2 - 1) == 0 else 0
    local = [_local_action(gen, params) for gen in gens]
    reach = _reach(local, n)
    tables = []
    for terms, step in local:
        tables.append([(lo // 2 if hi - lo == 2 else g + lo // 2,
                        _delta_table(lo, hi, step, n))
                       for lo, hi in terms])
    # first[s]: the first row that reads key slot s, or a pair key built
    # from it.  A block key is cut from the quotient left by the blocks
    # before it, so block i's key is computed on a prefix at least as
    # long as every later block's.
    last_row = len(gens) - 1
    first = [last_row] * (2 * g - 1)
    for j, terms in enumerate(tables):
        for slot, _ in terms:
            first[slot] = min(first[slot], j)
            if slot >= g:
                first[slot - g] = min(first[slot - g], j)
                first[slot - g + 1] = min(first[slot - g + 1], j)
    for i in range(g - 2, -1, -1):
        first[i] = min(first[i], first[i + 1])

    def images(chunk, counts):
        keys = []
        q = chunk[:counts[first[0]]]
        for i in range(g - 1):
            size = counts[first[i + 1]]
            if shift:  # power-of-two radix: shifts instead of division
                keys.append(q & (n2 - 1))
                q = q[:size] >> shift
            else:
                rest = q // n2
                keys.append(q - rest * n2)
                q = rest[:size]
        keys.append(q)
        for i in range(g - 1):
            size = counts[first[g + i]]
            keys.append(keys[i][:size] + n2 * keys[i + 1][:size])
        for terms, size in zip(tables, counts):
            if size == 0:
                break
            (slot, delta), *rest = terms
            row = chunk[:size] + delta.take(keys[slot][:size])
            for slot, delta in rest:
                row += delta.take(keys[slot][:size])
            yield row

    return images, reach


def _chunks(level: dict, size: int, generator_count: int):
    """(chunk, counts): consecutive `size`-state chunks of the level's
    parts laid end to end in descending reach, consuming the parts as it
    goes; the level is never concatenated.  counts[j] is the number of
    the chunk's states whose reach exceeds j, a prefix of the chunk."""
    held, count = [], 0
    for r in sorted(level, reverse=True):
        parts = level.pop(r)
        while parts:
            part = parts.popleft()
            while part.size:
                piece = part[:size - count]
                part = part[piece.size:]
                held.append((r, piece))
                count += piece.size
                if count == size:
                    yield _joined(held, generator_count)
                    held, count = [], 0
    if held:
        yield _joined(held, generator_count)


def _joined(held: list, generator_count: int):
    """One int64 chunk from its uint32 (reach, piece) pieces, in
    descending reach."""
    import numpy as np

    chunk = np.concatenate([piece for _, piece in held], dtype=np.int64)
    counts = [0] * generator_count
    total = k = 0
    for j in range(generator_count - 1, -1, -1):
        while k < len(held) and held[k][0] > j:
            total += held[k][1].size
            k += 1
        counts[j] = total
    return chunk, counts


@dataclass(frozen=True)
class OrbitSummary:
    representative: GnElement
    size: int
    vanishing_number: int | None


@dataclass(frozen=True)
class PathForest:
    """BFS parent links: enough to rebuild a word from any state's root."""

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
    record_paths: bool = False,
    chunk_size: int = 1 << 15,
    batch_hook=None,
) -> OrbitReport:
    """Partition the whole space into orbits of the chosen generator set.

    The breadth-first search applies only the positive generators (see
    `positive_generators`): each permutes the finite space, so the states
    they reach from a seed form its whole orbit under the group.  A state
    found by generator u is expanded only by the generators before its
    reach, which skips the later ones that commute with u; the levels
    stay exactly those of the full search (see the module docstring).
    Each level is cut into chunks of `chunk_size` states, highest reach
    first; the images of a chunk share its block digit keys, and the
    calling thread checks and marks them generator by generator: one
    gather of the visited bitmap per candidate decides which are fresh,
    and one unbuffered add of their bits marks them (`_mark`).  The
    parent links are positive words of BFS length for `trace_path`.

    The census runs on the calling thread alone.  `thread_count` must be
    at least 1 and is echoed as `OrbitReport.thread_count` (the JSON
    `threads` key), but it changes nothing: it is kept only so that
    callers passing it, and the CLI's JSON schema, stay valid.

    `batch_hook(orbit_ordinal, index_array)` is invoked on every block of
    states as it is discovered (including the seed), which lets callers
    audit per-orbit invariants without storing orbit membership; its
    batches are int64.  Spaces of more than STATE_LIMIT (2^32) states are
    refused, since the frontier holds state indices as uint32.  Refuses
    to run, before allocating any of them, when the visited bitmap and
    the delta tables (`delta_table_bytes`), plus the parent-link arrays
    when `record_paths` is true, would not fit the configured budget (env
    MCGORBITS_BITMAP_BUDGET, bytes).  The frontier is counted as it
    grows: the parts held of the level being expanded and of the next
    one, 4 bytes per state, are checked against what the budget leaves
    each time a part is added, and the run stops with
    BudgetExceededError when they overflow it.  The budget bounds these
    live arrays, not the process's peak RSS: at (g=7, n=4) it counts
    141.3 MB at the peak while peak RSS is about 200 MiB, the rest being
    the interpreter and freed arrays that the allocator keeps.
    """
    if thread_count < 1:
        raise ValueError("thread_count must be >= 1")
    if chunk_size < 1:
        raise ValueError("chunk_size must be >= 1")
    import numpy as np

    start = time.monotonic()
    size = params.size
    if size > STATE_LIMIT:
        raise BudgetExceededError(
            f"{size} states exceed the census's limit of 2^32 "
            f"({STATE_LIMIT}): its frontier holds state indices as uint32")
    generators = positive_generators(params, gens)
    nbytes = (size + 7) // 8
    table_bytes = delta_table_bytes(generators, params)
    budget = bitmap_budget()
    fixed = nbytes + table_bytes
    paths = ""
    if record_paths:
        path_bytes = PATH_BYTES_PER_STATE * size
        fixed += path_bytes
        paths = f" and path arrays need {path_bytes} bytes"
    needs = (f"visited bitmap needs {nbytes} bytes, delta tables need "
             f"{table_bytes} bytes{paths} for {size} states")
    if fixed > budget:
        raise BudgetExceededError(
            f"{needs}, budget is {budget}; raise {BUDGET_ENV} to proceed")

    images, reach = _image_kernel(generators, params)
    visited = np.zeros(nbytes, dtype=np.uint8)
    parent = parent_gen = None
    if record_paths:
        parent = np.full(size, -1, dtype=np.int64)
        parent_gen = np.full(size, -1, dtype=np.int16)

    summaries = []
    scan_byte = 0  # all bytes before this are 0xFF
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
        # a level is kept as uint32 parts keyed by the reach of the
        # generator that found them; the seed is expanded by every
        # generator.  `held` is the bytes of the parts not yet chunked,
        # of this level and the next.
        level = {len(generators): deque([np.array([seed], dtype=np.uint32)])}
        held = FRONTIER_BYTES_PER_STATE
        depth = 0
        while level:
            parts = {}
            for chunk, counts in _chunks(level, chunk_size, len(generators)):
                held -= FRONTIER_BYTES_PER_STATE * chunk.size
                for gen_id, nxt in enumerate(images(chunk, counts)):
                    # a generator is a bijection and the level holds
                    # distinct states, so nxt is duplicate-free; a
                    # state an earlier generator or chunk reached is
                    # already marked and fails the fresh test
                    fresh = _mark(visited, nxt)
                    if fresh.size == 0:
                        continue
                    nxt = nxt.take(fresh)
                    if record_paths:
                        parent[nxt] = chunk.take(fresh)
                        parent_gen[nxt] = gen_id
                    if batch_hook is not None:
                        batch_hook(orbit_ordinal, nxt)
                    part = nxt.astype(np.uint32)
                    parts.setdefault(reach[gen_id], deque()).append(part)
                    orbit_size += part.size
                    held += part.nbytes
                    if fixed + held > budget:
                        raise BudgetExceededError(
                            f"{needs}, and BFS levels {depth} and "
                            f"{depth + 1} of orbit {orbit_ordinal} hold "
                            f"{held} bytes of frontier: {fixed + held} "
                            f"bytes, budget is {budget}; raise "
                            f"{BUDGET_ENV} to proceed")
            level = parts
            depth += 1

        rep = decode(seed, params)
        v = vanishing_number(rep) if params.n % 2 == 0 else None
        summaries.append(OrbitSummary(rep, orbit_size, v))

    total = sum(o.size for o in summaries)
    if total != size:
        raise AssertionError(f"orbit sizes sum to {total}, expected {size}")

    forest = None
    if record_paths:
        forest = PathForest(generators, parent, parent_gen)
    elapsed_ms = int((time.monotonic() - start) * 1000)
    return OrbitReport(params, gens, len(summaries), tuple(summaries),
                       elapsed_ms, thread_count, forest)


def trace_path(report: OrbitReport, x: GnElement) -> Certificate:
    """Word mapping x's orbit representative (the certificate's
    source) to x, rebuilt from BFS links."""
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
    word = GeneratorWord(tuple(reversed(tokens)))
    if apply_word(word, root) != x:
        raise AssertionError(f"path certificate for {x} does not replay")
    return Certificate(word, root, x)
