"""Acceptance suite: one test per criterion, one printed line per criterion.

Run with `pytest tests/test_acceptance.py -s` to see the pass lines as
they complete.  Criterion 11 is a stress target and is skipped unless
MCGORBITS_STRESS=1 is set in the environment.
"""

import itertools
import os
import random
import time

import numpy as np
import pytest

from mcgorbits.action import (
    Generator, GeneratorWord, apply_word, generator_action, make_token, word_action,
)
from mcgorbits.checks import (
    aprime_cocycle, census_case, cocycle_sample, macro_exact, vanishing_table,
)
from mcgorbits.euler import (
    SamplingCapError, relator_euler_number, sample_cocycles, standard_group,
)
from mcgorbits.invariants import vanishing_number_array
from mcgorbits.normalize import normalize
from mcgorbits.orbits import MOD, MOD_PM, enumerate_orbits
from mcgorbits.sl2 import generate_sl2, sl2_group_order
from mcgorbits.space import SpaceParams, decode, decode_array

ODD_CASES = ((2, 1), (3, 1), (4, 3), (7, 3))
EVEN_CASES = ((2, 2), (3, 2), (3, 4), (4, 2), (4, 6), (5, 2), (5, 4))


def _pass(number, message):
    print(f"PASS criterion {number:2d}: {message}")


def test_criterion_01_odd_index_single_orbit():
    counts = {}
    for g, n in ODD_CASES:
        case = census_case(SpaceParams(g, n), MOD)
        counts[(g, n)] = case.orbit_count
        assert case.orbit_count == case.expected == 1, f"(g={g}, n={n})"
    _pass(1, f"odd n gives a single orbit for {list(counts)}")


def test_criterion_02_even_index_two_orbits():
    for g, n in EVEN_CASES:
        case = census_case(SpaceParams(g, n), MOD)
        assert case.orbit_count == case.expected == 2, f"(g={g}, n={n})"
        assert case.vanishing == [0, 1], f"(g={g}, n={n})"
    _pass(2, f"even n gives exactly two orbits for {list(EVEN_CASES)}")


def test_criterion_03_orbit_sizes():
    expected = {(2, 2): {10, 6}, (3, 2): {36, 28}}
    for (g, n), sizes in expected.items():
        p = SpaceParams(g, n)
        report = enumerate_orbits(p, MOD, record_paths=False)
        assert {o.size for o in report.orbits} == sizes
        # independent route: sizes must equal the vanishing-number counts
        v = vanishing_number_array(decode_array(np.arange(p.size), p))
        for orbit in report.orbits:
            assert orbit.size == int((v == orbit.vanishing_number).sum())
    _pass(3, "orbit sizes {10,6} and {36,28} match vanishing-number counts")


def test_criterion_04_vanishing_number_constant_and_separating():
    for g, n in EVEN_CASES:
        p = SpaceParams(g, n)
        for selector in (MOD, MOD_PM):
            bounds = census_case(p, selector, vanishing_table(p)).bounds
            assert len(bounds) == 2, (g, n, selector)  # one entry per orbit
            values = []
            for ordinal, (lo, hi) in bounds.items():
                assert lo == hi, f"not constant on orbit {ordinal} ({g},{n})"
                values.append(lo)
            assert sorted(values) == [0, 1], (g, n, selector)
    _pass(4, "vanishing number constant per orbit and separating, mod and mod_pm")


def test_criterion_05_normalizer_matches_bfs_partition():
    cases = list(ODD_CASES) + list(EVEN_CASES)
    total = 0
    for g, n in cases:
        p = SpaceParams(g, n)
        forms = {}
        failures = []

        def hook(ordinal, batch):
            for idx in batch.tolist():
                x = decode(idx, p)
                form, cert = normalize(x, verify=False)
                if apply_word(cert.word, x) != form.representative:
                    failures.append(idx)
                forms.setdefault(ordinal, set()).add(form.representative.coords)

        report = enumerate_orbits(p, MOD, record_paths=False, batch_hook=hook)
        assert not failures, f"certificates failed replay at {(g, n)}"
        for ordinal, members in forms.items():
            assert len(members) == 1, f"canonical form split orbit {ordinal} at {(g, n)}"
        distinct = set().union(*forms.values())
        assert len(distinct) == report.orbit_count, (g, n)
        total += p.size
    _pass(5, f"normalize partition equals BFS partition; {total} certificates replayed")


def test_criterion_06_parity_macro():
    checked = 0
    for n in range(1, 13):
        for g in (2, 3):
            assert macro_exact(g, n), (g, n)
            checked += n
    _pass(6, f"+2 macro exact for all beta, n <= 12 ({checked} instances)")


def test_criterion_07_beta_sum_invariance():
    cases = [(g, n) for g in range(2, 8) for n in range(2, 18)
             if n ** (2 * g) <= 10 ** 5]
    checked = 0
    for g, n in cases:
        p = SpaceParams(g, n, strict_euler=False)
        states = decode_array(np.arange(p.size), p)
        beta_mask = np.zeros(2 * g, dtype=np.int64)
        beta_mask[1::2] = 1
        original = states @ beta_mask % n
        for ks in itertools.product((-2, -1, 0, 1, 2), repeat=g - 1):
            m = word_action(GeneratorWord(tuple(
                make_token("C", i + 1, k) for i, k in enumerate(ks) if k)), p)
            # beta-sum of the image, evaluated for every state
            w = beta_mask @ m.linear % n
            t = int(beta_mask @ m.translation % n)
            image = (states @ w + t) % n
            assert np.array_equal(image, original), (g, n, ks)
            checked += p.size
    _pass(7, f"beta sum invariant under all |k|<=2 multi-twists "
             f"({len(cases)} spaces, {checked} state evaluations)")


def test_criterion_08_sl2_generation():
    # frozen expected orders, recomputed here from the Euler-product form
    expected = {2: 6, 3: 24, 4: 48, 5: 120, 6: 144, 7: 336, 8: 384,
                9: 648, 10: 720, 11: 1320, 12: 1152}
    for n in range(2, 13):
        closure = len(generate_sl2(n))
        assert closure == expected[n] == sl2_group_order(n), n
    _pass(8, "block twists generate all of SL(2, Z/nZ) for n = 2..12")


def test_criterion_09_symplectic_image():
    p = SpaceParams(2, 2)
    gens = []
    for kind, idx in (("A", 1), ("A", 2), ("B", 1), ("B", 2), ("C", 1)):
        for e in (1, -1):
            gens.append(generator_action(Generator(kind, idx, e), p).linear % 2)
    seen = {g.tobytes(): g for g in gens}
    frontier = list(seen.values())
    while frontier:
        new = []
        for a in gens:
            for b in frontier:
                prod = (a @ b) % 2
                key = prod.tobytes()
                if key not in seen:
                    seen[key] = prod
                    new.append(prod)
        frontier = new
    assert len(seen) == 720
    _pass(9, "linear parts at (g=2, n=2) generate Sp(4, Z/2Z) of order 720")


def test_criterion_10_euler_cocycle():
    start = time.monotonic()
    group = standard_group(2)
    crossing_checked = 0
    # the pairs `mcgorbits verify --suite cocycle` samples at its default seed
    pairs = sample_cocycles(group, random.Random(20250810), 200, 6)
    try:
        for w1, w2, value in pairs:
            sample = cocycle_sample(group, w1, w2, value)
            assert sample.in_range, (w1, w2, value)
            assert sample.crossing_ok, (w1, w2, value)
            crossing_checked += sample.crosses
    except SamplingCapError as exc:
        pytest.fail(f"cocycle sampling {exc}")
    assert crossing_checked > 20

    assert aprime_cocycle(group) == 1

    assert relator_euler_number(group) == 2
    assert relator_euler_number(standard_group(3)) == 4
    elapsed = time.monotonic() - start
    assert elapsed < 60
    _pass(10, f"cocycle in {{-1,0,1}} on 200 pairs, crossing cases 0, "
              f"c(a1,(a'2)^-1)=1, relator numbers 2 and 4 ({elapsed:.1f}s)")


@pytest.mark.skipif(os.environ.get("MCGORBITS_STRESS") != "1",
                    reason="stress target; set MCGORBITS_STRESS=1 to run")
def test_criterion_11_stress_g7_n4():
    p = SpaceParams(7, 4)
    assert (p.size + 7) // 8 == 33_554_432  # a 32 MiB bitmap
    start = time.monotonic()
    report = enumerate_orbits(p, MOD, record_paths=False)
    elapsed = time.monotonic() - start
    assert report.orbit_count == 2
    _pass(11, f"(g=7, n=4): {p.size} states, orbit_count 2 in {elapsed:.0f}s")
    assert elapsed < 600, f"stress target missed: {elapsed:.0f}s"
