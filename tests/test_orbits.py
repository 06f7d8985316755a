"""Tests for the exhaustive orbit engine."""

import hashlib
import itertools
import json
import threading
import tracemalloc

import numpy as np
import pytest

from mcgorbits import orbits
from mcgorbits.action import Generator, apply_word, generator_action, replay_tokens
from mcgorbits.invariants import vanishing_number, vanishing_number_array
from mcgorbits.normalize import Certificate, normalize, same_orbit
from mcgorbits.orbits import (
    BudgetConfigError, BudgetExceededError, MOD, MOD_PM,
    PathsUnavailableError, _commute, _image_kernel, _local_action, _mark,
    delta_table_bytes, enumerate_orbits, positive_generators, trace_path,
)
from mcgorbits.space import (
    SpaceParams, compose, decode, decode_array, encode, make_element,
    zero_element,
)


def params(g, n, strict=True):
    return SpaceParams(g, n, strict_euler=strict)


def test_one_point_space():
    report = enumerate_orbits(params(2, 1))
    assert report.orbit_count == 1
    assert report.orbits[0].size == 1


def _token_images(gens, p):
    """Image index of every state under each token, by action.replay_tokens."""
    out = np.empty((len(gens), p.size), dtype=np.int64)
    for idx in range(p.size):
        for row, gen in zip(out, gens):
            coords = list(decode(idx, p).coords)
            replay_tokens((gen,), coords, p.n, p.g)
            row[idx] = encode(make_element(p, coords))
    return out


def _check_kernel(gens, p):
    """Every kernel image is a permutation and agrees with replay_tokens on
    every state, and on shuffled prefixes that shrink at every row;
    returns the images."""
    states = np.arange(p.size, dtype=np.int64)
    kernel, _ = _image_kernel(gens, p)
    images = np.array(list(kernel(states, [p.size] * len(gens))))
    assert images.shape == (len(gens), p.size)
    for gen, image in zip(gens, images):
        assert np.array_equal(np.sort(image), states), f"{gen} is not a bijection"
    expected = _token_images(gens, p)
    assert np.array_equal(images, expected)
    # C_i reads the keys of blocks i and i + 1, and the earlier A_i row
    # reads block i's: with falling counts C_i's pair key is built on a
    # shorter prefix than the one block i's key is cut on
    chunk = np.random.default_rng(0).permutation(states)
    counts = [p.size - j * (p.size // len(gens)) for j in range(len(gens))]
    assert all(a > b > 0 for a, b in zip(counts, counts[1:]))
    assert any(gen.kind == "C" and counts[j] < counts[k]
               for j, gen in enumerate(gens) for k, other in enumerate(gens)
               if other.kind == "A" and other.index == gen.index)
    rows = list(kernel(chunk, counts))
    assert len(rows) == len(gens)
    for gen, row, image, count in zip(gens, rows, expected, counts):
        assert np.array_equal(row, image[chunk[:count]]), f"{gen} on a prefix"
    return images


@pytest.mark.parametrize("selector", [MOD, MOD_PM])
def test_positive_generators_are_bijections(selector):
    p = params(3, 3, strict=False)
    gens = positive_generators(p, selector)
    twists = [gen for gen in gens if gen.kind != "s"]
    assert len(twists) == 3 * p.g - 1
    assert all(gen.exponent == 1 for gen in twists)
    assert (Generator("s") in gens) == (selector == MOD_PM)
    _check_kernel(gens, p)


def test_signed_generators_closed_under_inverses():
    # the positive list plus the inverse of each generator is the full
    # signed list (6g - 2 tokens, closed under inverses), and each inverse
    # undoes its generator, so the positive search loses nothing
    p = params(3, 2)
    gens = positive_generators(p, MOD)
    signed = set(gens) | {gen.inverse() for gen in gens}
    assert len(signed) == 6 * 3 - 2
    for gen in signed:
        assert gen.inverse() in signed
    assert Generator("s") in positive_generators(p, MOD_PM)
    p = params(3, 3, strict=False)  # at n = 2 every twist is an involution
    gens = positive_generators(p, MOD_PM)
    inverses = tuple(gen.inverse() for gen in gens)
    images = _check_kernel(gens, p)
    undo = _check_kernel(inverses, p)
    for gen, image, back in zip(gens, images, undo):
        assert np.array_equal(back[image], np.arange(p.size)), \
            f"{gen.inverse()} does not undo {gen}"


def test_g2_n2_orbits():
    report = enumerate_orbits(params(2, 2))
    assert report.orbit_count == 2
    assert sorted(o.size for o in report.orbits) == [6, 10]
    # representatives are the minimal indices of their orbits
    assert report.orbits[0].representative == zero_element(params(2, 2))
    by_size = {o.size: o for o in report.orbits}
    assert by_size[10].vanishing_number == 0
    assert by_size[6].vanishing_number == 1


def test_g3_n2_orbit_sizes():
    report = enumerate_orbits(params(3, 2))
    assert report.orbit_count == 2
    assert sorted(o.size for o in report.orbits) == [28, 36]


def test_g4_n3_single_orbit():
    report = enumerate_orbits(params(4, 3), record_paths=False)
    assert report.orbit_count == 1
    assert report.orbits[0].size == 3 ** 8


def test_orbit_sizes_match_vanishing_classes():
    for g, n in ((2, 2), (3, 2)):
        p = params(g, n)
        report = enumerate_orbits(p)
        coords = decode_array(np.arange(p.size), p)
        v = vanishing_number_array(coords)
        counts = {0: int((v == 0).sum()), 1: int((v == 1).sum())}
        for orbit in report.orbits:
            assert orbit.size == counts[orbit.vanishing_number]


def test_mod_pm_partition_coincides():
    for g, n in ((2, 2), (2, 4), (3, 2)):
        p = params(g, n, strict=False)
        rep_mod = enumerate_orbits(p, MOD, record_paths=False)
        rep_pm = enumerate_orbits(p, MOD_PM, record_paths=False)
        assert rep_mod.orbit_count == rep_pm.orbit_count
        assert [(o.representative, o.size) for o in rep_mod.orbits] == \
               [(o.representative, o.size) for o in rep_pm.orbits]


def test_determinism_across_thread_counts():
    # a non-power-of-two and a power-of-two radix, both generator sets,
    # 7-state chunks and the default chunk size
    for g, n in ((3, 3), (3, 4)):
        for selector in (MOD, MOD_PM):
            for chunk_size in (7, None):
                _check_determinism_across_thread_counts(
                    params(g, n, strict=False), selector, chunk_size)


def _check_determinism_across_thread_counts(p, selector, chunk_size):
    chunking = {} if chunk_size is None else {"chunk_size": chunk_size}
    runs = []
    for k in (1, 2, 3):
        calls = []
        report = enumerate_orbits(
            p, selector, thread_count=k, record_paths=True,
            batch_hook=lambda ordinal, batch: calls.append(
                (ordinal, batch.tolist())), **chunking)
        runs.append((report, calls))
    base, base_calls = runs[0]
    if chunk_size is not None:
        unchunked = []
        enumerate_orbits(p, selector, record_paths=False,
                         batch_hook=lambda ordinal, batch: unchunked.append(ordinal))
        assert len(base_calls) > len(unchunked)  # frontiers span several chunks
    for report, calls in runs[1:]:
        assert report.orbits == base.orbits
        assert np.array_equal(report.forest.parent, base.forest.parent)
        assert np.array_equal(report.forest.parent_gen, base.forest.parent_gen)
        assert calls == base_calls
    for i in range(p.size):
        cert = trace_path(base, decode(i, p))
        assert all(t.exponent == 1 for t in cert.word.tokens)
        assert apply_word(cert.word, cert.source) == decode(i, p)


def test_more_threads_than_generators():
    p = params(2, 2)
    assert enumerate_orbits(p, thread_count=64).orbits == enumerate_orbits(p).orbits


def test_census_starts_no_thread():
    before = threading.active_count()
    seen = []
    enumerate_orbits(params(3, 4), thread_count=4,
                     batch_hook=lambda ordinal, batch: seen.append(
                         threading.active_count()))
    assert seen and max(seen) <= before


def _reference_mark(visited, idx):
    """`orbits._mark` by one unbuffered np.bitwise_or.at."""
    bit = np.left_shift(1, idx & 7).astype(np.uint8)
    fresh = np.flatnonzero(visited[idx >> 3] & bit == 0)
    np.bitwise_or.at(visited, idx[fresh] >> 3, bit[fresh])
    return fresh


@pytest.mark.parametrize("seed", range(25))
def test_mark_matches_bitwise_or_at(seed):
    rng = np.random.default_rng(seed)
    nbytes = 64
    # every state of byte 5, 2-7 states of byte 9, and scattered states
    # in the other bytes; some of each are already marked
    crowded = 8 * 9 + rng.choice(8, size=rng.integers(2, 8), replace=False)
    others = np.setdiff1d(np.arange(8 * nbytes), np.arange(8 * 5, 8 * 10))
    idx = np.concatenate([np.arange(8 * 5, 8 * 6), crowded,
                          rng.choice(others, size=60, replace=False)])
    idx = rng.permutation(idx).astype(np.int64)
    visited = (rng.integers(0, 256, nbytes) & rng.integers(0, 256, nbytes)
               ).astype(np.uint8)
    visited[5] = 0 if seed % 2 else 1 << rng.integers(8)
    visited[9] &= ~np.uint8(np.bitwise_or.reduce(1 << (crowded & 7)))
    was_set = (visited[idx >> 3] >> (idx & 7)) & 1 == 1
    expected = visited.copy()
    np.bitwise_or.at(expected, idx >> 3, np.left_shift(1, idx & 7).astype(np.uint8))

    fresh = _mark(visited, idx)
    assert np.array_equal(fresh, np.flatnonzero(~was_set))
    assert np.array_equal(visited, expected)


def test_mark_of_marked_states_writes_nothing():
    visited = np.array([0xFF, 0x0F], dtype=np.uint8)
    fresh = _mark(visited, np.arange(12, dtype=np.int64))
    assert fresh.size == 0
    assert visited.tolist() == [0xFF, 0x0F]
    fresh = _mark(visited, np.empty(0, dtype=np.int64))  # no states at all
    assert fresh.size == 0
    assert visited.tolist() == [0xFF, 0x0F]


def _recorded_run(p, selector, chunking):
    """(to_dict() without elapsed_ms, batch_hook calls, parent, parent_gen)."""
    calls = []
    report = enumerate_orbits(
        p, selector, record_paths=True,
        batch_hook=lambda ordinal, batch: calls.append((ordinal, batch.tolist())),
        **chunking)
    data = report.to_dict()
    del data["elapsed_ms"]
    return data, calls, report.forest.parent, report.forest.parent_gen


# sha256 of the runs of `test_census_matches_recorded_digest`, taken
# before the frontier was held as uint32: the census's reports, hook
# batches and parent links must stay byte-identical
CENSUS_DIGEST = "2da4aa1e3515c5a5c0769ef8da2f8cee87e2d195f45f20cfcb0e2ace9fe5e8bd"


def test_census_matches_recorded_digest():
    digest = hashlib.sha256()
    for g, n in ((3, 4), (4, 3), (2, 6)):
        p = params(g, n, strict=False)
        for selector in (MOD, MOD_PM):
            for chunking in ({}, {"chunk_size": 7}):
                calls = []

                def hook(ordinal, batch):
                    assert batch.dtype == np.int64
                    calls.append((ordinal, batch.tolist()))

                report = enumerate_orbits(p, selector, record_paths=True,
                                          batch_hook=hook, **chunking)
                data = report.to_dict()
                del data["elapsed_ms"]
                digest.update(json.dumps([data, calls]).encode())
                digest.update(report.forest.parent.astype("<i8").tobytes())
                digest.update(report.forest.parent_gen.astype("<i2").tobytes())
    assert digest.hexdigest() == CENSUS_DIGEST


@pytest.mark.parametrize("selector", [MOD, MOD_PM])
@pytest.mark.parametrize("g,n", [(2, 2), (3, 2), (3, 4)])
def test_small_chunks_mark_as_bitwise_or_at(g, n, selector, monkeypatch):
    # small chunks are where fresh states of one row most often share a
    # byte; each chunk size must give the run a bitwise_or.at marking
    # gives, and every chunk size the same report
    p = params(g, n)
    chunkings = ({"chunk_size": 1}, {"chunk_size": 8}, {})
    runs = [_recorded_run(p, selector, chunking) for chunking in chunkings]
    monkeypatch.setattr(orbits, "_mark", _reference_mark)
    for chunking, run in zip(chunkings, runs):
        data, calls, parent, parent_gen = _recorded_run(p, selector, chunking)
        assert run[0] == data and run[1] == calls, chunking
        assert np.array_equal(run[2], parent), chunking
        assert np.array_equal(run[3], parent_gen), chunking
    assert runs[0][0] == runs[1][0] == runs[2][0]


@pytest.mark.parametrize("chunk_size", [1, 7, None])
@pytest.mark.parametrize("selector", [MOD, MOD_PM])
@pytest.mark.parametrize("g,n", [(3, 4), (4, 3), (2, 6)])
def test_each_state_is_fresh_exactly_once(g, n, selector, chunk_size):
    # `_mark` adds the fresh bits, which equals OR-ing them only if no
    # state is fresh twice: the hook batches are the fresh sets, so
    # together they must hold every state of the space once
    p = params(g, n, strict=False)
    chunking = {} if chunk_size is None else {"chunk_size": chunk_size}
    batches = []
    enumerate_orbits(p, selector, record_paths=False,
                     batch_hook=lambda ordinal, batch: batches.append(batch),
                     **chunking)
    counts = np.bincount(np.concatenate(batches), minlength=p.size)
    assert counts.size == p.size and np.all(counts == 1)


@pytest.mark.parametrize("argument", [{"thread_count": 0}, {"chunk_size": 0}])
def test_arguments_are_checked_before_the_budget(argument):
    # (13, 4) has 4^26 states, far over any budget
    with pytest.raises(ValueError, match=next(iter(argument))):
        enumerate_orbits(params(13, 4), **argument)


def _reference_orbits(p, selector):
    """(representative index, size) per orbit, by union-find over every
    signed generator replayed with action.replay_tokens: no delta table."""
    gens = []
    for i in range(1, p.g + 1):
        gens += [Generator(kind, i, e) for kind in "AB" for e in (1, -1)]
    gens += [Generator("C", i, e) for i in range(1, p.g) for e in (1, -1)]
    if selector == MOD_PM:
        gens.append(Generator("s"))
    states = [decode(idx, p).coords for idx in range(p.size)]
    index_of = {coords: idx for idx, coords in enumerate(states)}
    root = list(range(p.size))

    def find(x):
        while root[x] != x:
            root[x] = root[root[x]]
            x = root[x]
        return x

    for idx, coords in enumerate(states):
        for gen in gens:
            image = list(coords)
            replay_tokens((gen,), image, p.n, p.g)
            a, b = find(idx), find(index_of[tuple(image)])
            if a != b:
                root[max(a, b)] = min(a, b)  # roots stay orbit minima
    sizes = {}
    for idx in range(p.size):
        r = find(idx)
        sizes[r] = sizes.get(r, 0) + 1
    return sorted(sizes.items())


# every space of at most about 2e4 states (and n = 1 at several genera),
# strict where n | 2g - 2 and strict_euler=False elsewhere
REFERENCE_SPACES = ([(2, n) for n in range(1, 12)] + [(3, n) for n in range(1, 6)]
                    + [(4, 1), (4, 2), (4, 3), (5, 1), (5, 2), (6, 2), (7, 1), (7, 2)])


@pytest.mark.parametrize("selector", [MOD, MOD_PM])
@pytest.mark.parametrize("g,n", REFERENCE_SPACES)
def test_partition_matches_union_find_reference(g, n, selector):
    p = params(g, n, strict=(2 * g - 2) % n == 0)
    report = enumerate_orbits(p, selector, record_paths=False)
    expected = _reference_orbits(p, selector)
    assert report.orbit_count == len(expected)
    assert [(o.representative, o.size) for o in report.orbits] == \
           [(decode(r, p), size) for r, size in expected]
    for o in report.orbits:
        want = vanishing_number(o.representative) if n % 2 == 0 else None
        assert o.vanishing_number == want


def _bfs_distances(p, selector, roots):
    """{coords: distance from its orbit's root}, by a plain BFS over the
    positive generators replayed with action.replay_tokens."""
    gens = positive_generators(p, selector)
    dist = {}
    for root in roots:
        dist[root.coords] = 0
        frontier = [root.coords]
        while frontier:
            found = []
            for coords in frontier:
                for gen in gens:
                    image = list(coords)
                    replay_tokens((gen,), image, p.n, p.g)
                    image = tuple(image)
                    if image not in dist:
                        dist[image] = dist[coords] + 1
                        found.append(image)
            frontier = found
    return dist


@pytest.mark.parametrize("g,n", [(2, n) for n in range(1, 8)]
                         + [(3, 3), (3, 4), (4, 2)])
def test_levels_are_breadth_first_distances(g, n):
    # the pruned search keeps the level sets of the full one, so every
    # state's path word is as long as its distance from the representative
    p = params(g, n, strict=(2 * g - 2) % n == 0)
    for selector in (MOD, MOD_PM):
        dist = None
        for chunking, threads in itertools.product(
                ({"chunk_size": 7}, {}), (1, 2)):
            report = enumerate_orbits(p, selector, thread_count=threads,
                                      record_paths=True, **chunking)
            if dist is None:
                dist = _bfs_distances(
                    p, selector, [o.representative for o in report.orbits])
            assert len(dist) == p.size
            for idx in range(p.size):
                x = decode(idx, p)
                assert len(trace_path(report, x).word) == dist[x.coords], \
                    (selector, chunking, threads, x)


def _chain_clash(a, b, n):
    """Do two positive generators fail to commute, by the chain?  A_i-B_i,
    B_i-C_{i-1} and B_i-C_i, and s with every twist when n >= 3."""
    if "s" in (a.kind, b.kind):
        return a != b and n >= 3
    kinds = {a.kind: a.index, b.kind: b.index}
    if set(kinds) == {"A", "B"}:
        return a.index == b.index
    if set(kinds) == {"B", "C"}:
        return kinds["B"] in (kinds["C"], kinds["C"] + 1)
    return False


@pytest.mark.parametrize("n", [2, 3, 4, 6])
def test_commutation_relation_is_the_chain(n):
    for g in range(2, 8):
        p = params(g, n, strict=False)
        for selector in (MOD, MOD_PM):
            gens = positive_generators(p, selector)
            steps = [_local_action(gen, p)[1] for gen in gens]
            maps = [generator_action(gen, p) for gen in gens]
            for u, v in itertools.combinations(range(len(gens)), 2):
                uv, vu = compose(maps[u], maps[v]), compose(maps[v], maps[u])
                dense = (np.array_equal(uv.linear, vu.linear)
                         and np.array_equal(uv.translation, vu.translation))
                clash = _chain_clash(gens[u], gens[v], n)
                assert _commute(steps[u], steps[v], n) == dense == (not clash), \
                    (g, gens[u], gens[v])
            _, reach = _image_kernel(gens, p)
            for u, gen in enumerate(gens):
                later = [v for v in range(u + 1, len(gens))
                         if _chain_clash(gen, gens[v], n)]
                # in this order the generators a state found by u is
                # expanded by are exactly those before u, u itself and
                # the later ones that fail to commute with u
                assert later == list(range(u + 1, u + 1 + len(later)))
                assert reach[u] == 1 + max(later, default=u)


def _sparse_step(action, n):
    """The affine map minus the identity, in `_local_action`'s sparse
    form: {i: {j: entry (i, j) of L - 1 mod n, 2g: t_i}}, nonzero only."""
    dim = action.linear.shape[0]
    moved = (action.linear - np.eye(dim, dtype=np.int64)) % n
    dense = np.column_stack([moved, action.translation % n]).tolist()
    step = {i: {j: x for j, x in enumerate(row) if x}
            for i, row in enumerate(dense)}
    return {i: row for i, row in step.items() if row}


def test_local_action_step_is_the_sparse_generator_action():
    # the step is read off the twist kernel on plain lists; it must be
    # the affine map `generator_action` reads off the same kernel
    for g in range(2, 8):
        for n in range(1, 14):
            p = params(g, n, strict=False)
            for selector in (MOD, MOD_PM):
                for gen in positive_generators(p, selector):
                    _, step = _local_action(gen, p)
                    expected = _sparse_step(generator_action(gen, p), n)
                    assert step == expected, (g, n, str(gen))


@pytest.mark.parametrize("part", ["linear", "translation"])
def test_local_action_rejects_a_map_outside_its_terms(monkeypatch, part):
    # A1's only term is block 1; couple beta_1 to alpha_2, or move alpha_2
    p = params(2, 3, strict=False)

    def kernel(tokens, coords, n, g):
        replay_tokens(tokens, coords, n, g)
        if part == "linear":
            coords[1] = (coords[1] + coords[2]) % n
        else:
            coords[2] = (coords[2] + 1) % n

    monkeypatch.setattr(orbits, "replay_tokens", kernel)
    with pytest.raises(ValueError, match="is not local to its blocks"):
        _local_action(Generator("A", 1), p)


def test_genus_60_one_state_space_stays_small():
    # 179 generators: the commutation check composes only pairs sharing a
    # block, where a stack of all pairs of 120-dimensional products would
    # take about 3.7 GB
    tracemalloc.start()
    try:
        report = enumerate_orbits(params(60, 1))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.orbit_count == 1 and report.orbits[0].size == 1
    assert peak < 1 << 20


def test_vanishing_constant_on_each_orbit_via_hook():
    p = params(3, 4, strict=True)
    seen = {}

    def hook(ordinal, batch):
        values = vanishing_number_array(decode_array(batch, p))
        lo, hi = int(values.min()), int(values.max())
        if ordinal in seen:
            lo = min(lo, seen[ordinal][0])
            hi = max(hi, seen[ordinal][1])
        seen[ordinal] = (lo, hi)

    report = enumerate_orbits(p, MOD, record_paths=False, batch_hook=hook)
    assert report.orbit_count == 2
    for ordinal, (lo, hi) in seen.items():
        assert lo == hi, f"vanishing number not constant on orbit {ordinal}"


def test_partition_agrees_with_normalize():
    for g, n in ((2, 2), (2, 3), (3, 2), (2, 4)):
        p = params(g, n, strict=False)
        report = enumerate_orbits(p, record_paths=True)
        # canonical form is constant on orbits and separates them
        forms = {}

        def hook(ordinal, batch):
            for idx in batch.tolist():
                form, _ = normalize(decode(idx, p), verify=False)
                forms.setdefault(ordinal, set()).add(form.representative.coords)

        enumerate_orbits(p, record_paths=False, batch_hook=hook)
        assert len(forms) == report.orbit_count
        all_forms = set()
        for members in forms.values():
            assert len(members) == 1
            all_forms |= members
        assert len(all_forms) == report.orbit_count


def test_trace_path_examples():
    p = params(2, 2)
    report = enumerate_orbits(p, record_paths=True)
    zero = zero_element(p)
    cert = trace_path(report, zero)
    assert len(cert.word) == 0
    target = make_element(p, [0, 1, 0, 1])
    cert = trace_path(report, target)
    assert cert.source == zero
    assert any(t.kind == "C" for t in cert.word.tokens)
    from mcgorbits.action import apply_word
    assert apply_word(cert.word, zero) == target
    other = make_element(p, [0, 0, 0, 1])
    assert trace_path(report, other).source != zero


def test_trace_path_returns_a_replaying_certificate():
    p = params(3, 2)
    report = enumerate_orbits(p, record_paths=True)
    x = make_element(p, [1, 0, 1, 1, 0, 1])
    cert = trace_path(report, x)
    assert isinstance(cert, Certificate)
    assert cert.target == x and cert.replays()


def test_trace_path_requires_recording():
    p = params(2, 2)
    report = enumerate_orbits(p, record_paths=False)
    with pytest.raises(PathsUnavailableError):
        trace_path(report, zero_element(p))


def test_trace_path_rejects_foreign_elements():
    report = enumerate_orbits(params(2, 2), record_paths=True)
    with pytest.raises(ValueError):
        trace_path(report, zero_element(params(3, 2)))


def test_same_orbit_and_trace_path_across_the_euler_flag():
    # one (g, n) is one space whichever way its params were built
    strict, loose = params(2, 2), params(2, 2, strict=False)
    x = make_element(strict, [0, 1, 0, 1])
    y = make_element(loose, [1, 1, 1, 1])
    ok, cert = same_orbit(x, y)
    assert ok and cert.replays()
    for report_params, query in ((strict, y), (loose, x)):
        report = enumerate_orbits(report_params, record_paths=True)
        cert = trace_path(report, query)
        assert cert.target == query and cert.replays()


def test_trace_path_replays_everywhere():
    p = params(2, 3, strict=False)
    report = enumerate_orbits(p, record_paths=True)
    from mcgorbits.action import apply_word
    for i in range(p.size):
        x = decode(i, p)
        cert = trace_path(report, x)
        assert apply_word(cert.word, cert.source) == x


def test_budget_refusal(monkeypatch):
    monkeypatch.setenv("MCGORBITS_BITMAP_BUDGET", "4")
    with pytest.raises(BudgetExceededError) as err:
        enumerate_orbits(params(3, 2))
    assert "bytes" in str(err.value)


def test_path_arrays_count_against_budget(monkeypatch):
    # (2, 4): 256 states, a 32-byte bitmap and 2560 bytes of path arrays;
    # the budgets add the 23040 bytes of its delta tables
    p = params(2, 4, strict=False)
    monkeypatch.setenv("MCGORBITS_BITMAP_BUDGET", "24040")
    assert enumerate_orbits(p, record_paths=False).orbit_count == 2
    with pytest.raises(BudgetExceededError) as err:
        enumerate_orbits(p, record_paths=True)
    assert "32 bytes" in str(err.value) and "2560 bytes" in str(err.value)
    # 25632 bytes plus the 172 bytes (43 states) of its widest frontier
    monkeypatch.setenv("MCGORBITS_BITMAP_BUDGET", "25804")
    assert enumerate_orbits(p, record_paths=True).forest is not None


def test_frontier_counts_against_budget(monkeypatch):
    # (2, 4): a 32-byte bitmap and 23040 bytes of delta tables are fixed;
    # the frontier peaks at 172 bytes, 4 bytes for each of the 43 states
    # of BFS level 6 once level 5 has been chunked
    p = params(2, 4, strict=False)
    monkeypatch.delenv("MCGORBITS_BITMAP_BUDGET", raising=False)
    assert enumerate_orbits(p, record_paths=False).orbit_count == 2
    monkeypatch.setenv("MCGORBITS_BITMAP_BUDGET", str(23072 + 171))
    with pytest.raises(BudgetExceededError) as err:
        enumerate_orbits(p, record_paths=False)
    message = str(err.value)
    assert "visited bitmap needs 32 bytes" in message
    assert "delta tables need 23040 bytes" in message
    assert "of orbit 0 hold 172 bytes of frontier: 23244 bytes" in message
    assert "BFS levels 5 and 6" in message
    monkeypatch.setenv("MCGORBITS_BITMAP_BUDGET", str(23072 + 172))
    assert enumerate_orbits(p, record_paths=False).orbit_count == 2


def test_spaces_over_two_to_the_32_are_refused(monkeypatch):
    # (6, 7) has 7^12 = 1.4e10 states: a uint32 frontier cannot name them,
    # whatever the budget
    monkeypatch.setenv("MCGORBITS_BITMAP_BUDGET", str(1 << 50))
    p = params(6, 7, strict=False)
    tracemalloc.start()
    try:
        with pytest.raises(BudgetExceededError) as err:
            enumerate_orbits(p)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert str(err.value) == (
        "13841287201 states exceed the census's limit of 2^32 (4294967296): "
        "its frontier holds state indices as uint32")
    assert peak < 1 << 20  # refused before anything large was allocated
    # (16, 2) has exactly 2^32 states: the limit admits it, and the default
    # budget then refuses its 512 MiB bitmap
    monkeypatch.delenv("MCGORBITS_BITMAP_BUDGET")
    with pytest.raises(BudgetExceededError,
                       match="visited bitmap needs 536870912 bytes"):
        enumerate_orbits(params(16, 2, strict=False))


@pytest.mark.parametrize("g,n", [(2, 10), (3, 12)])
@pytest.mark.parametrize("selector", [MOD, MOD_PM])
def test_delta_table_bytes_bound_the_build(g, n, selector):
    p = params(g, n, strict=False)
    gens = positive_generators(p, selector)
    tracemalloc.start()
    try:
        kernel = _image_kernel(gens, p)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert kernel is not None
    assert peak <= delta_table_bytes(gens, p)


def test_delta_tables_count_against_budget(monkeypatch):
    # (2, 100): a 12.5 MB bitmap, but C_1's table alone has 1e8 entries
    monkeypatch.delenv("MCGORBITS_BITMAP_BUDGET", raising=False)
    p = params(2, 100, strict=False)
    tracemalloc.start()
    try:
        with pytest.raises(BudgetExceededError) as err:
            enumerate_orbits(p)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    table_bytes = delta_table_bytes(positive_generators(p, MOD), p)
    assert table_bytes == 8 * (4 * 100 ** 2 + 100 ** 4) + 80 * 100 ** 4
    assert f"delta tables need {table_bytes} bytes" in str(err.value)
    assert peak < 1 << 20  # refused before anything large was allocated


@pytest.mark.parametrize("raw", ["abc", "-1", "1.5", ""])
def test_malformed_budget_is_a_typed_error(monkeypatch, raw):
    monkeypatch.setenv("MCGORBITS_BITMAP_BUDGET", raw)
    with pytest.raises(BudgetConfigError) as err:
        enumerate_orbits(params(2, 2))
    assert f"got {raw!r}" in str(err.value)


def test_report_serialization():
    p = params(2, 2)
    report = enumerate_orbits(p)
    data = report.to_dict()
    assert set(data) == {"g", "n", "generators", "orbit_count", "orbits",
                         "elapsed_ms", "threads"}
    assert data["orbit_count"] == 2
    assert all(set(o) == {"representative", "size", "vanishing_number"}
               for o in data["orbits"])
    json.dumps(data)  # must be serializable
    csv = report.to_csv()
    assert csv.count("\n") == 3  # header + one row per orbit
    report_odd = enumerate_orbits(params(2, 1))
    assert report_odd.to_dict()["orbits"][0]["vanishing_number"] is None
