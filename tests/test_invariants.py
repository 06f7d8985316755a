"""Tests for the closed-form invariants."""

import random

import numpy as np
import pytest

from mcgorbits.action import Generator, GeneratorWord, apply_word
from mcgorbits.checks import theorem_cases
from mcgorbits.invariants import (
    InvariantUndefinedError, block_content, vanishing_number,
    vanishing_number_array,
)
from mcgorbits.orbits import MOD, MOD_PM, enumerate_orbits
from mcgorbits.space import (
    SpaceParams, decode, decode_array, make_element, zero_element,
)


def params(g, n):
    return SpaceParams(g, n, strict_euler=False)


def test_vanishing_number_examples():
    p = params(2, 2)
    assert vanishing_number(make_element(p, [0, 0, 0, 0])) == 0
    assert vanishing_number(make_element(p, [0, 0, 0, 1])) == 1
    p34 = params(3, 4)
    assert vanishing_number(make_element(p34, [2, 0, 1, 1, 0, 2])) == 0
    with pytest.raises(InvariantUndefinedError):
        vanishing_number(zero_element(params(2, 3)))


def test_vanishing_number_array_agrees():
    # both against the definition: the parity of the count of blocks
    # whose two coordinates are even
    p = params(3, 4)
    idx = np.arange(0, p.size, 13)
    values = vanishing_number_array(decode_array(idx, p))
    for k in range(len(idx)):
        x = decode(int(idx[k]), p)
        even = sum(a % 2 == 0 and b % 2 == 0 for a, b in map(x.block, (1, 2, 3)))
        assert values[k] == vanishing_number(x) == even % 2


def test_vanishing_number_invariant_under_all_generators():
    # exhaustive over the whole space for small even cases
    for g, n in ((2, 2), (2, 4), (2, 6), (3, 2), (3, 4)):
        p = params(g, n)
        gens = [Generator("A", 1), Generator("B", g), Generator("C", 1),
                Generator("C", g - 1), Generator("D", 1), Generator("s")]
        for i in range(p.size):
            x = decode(i, p)
            v = vanishing_number(x)
            for gen in gens:
                for e in (1, -1):
                    token = Generator(gen.kind, gen.index, e) \
                        if gen.kind != "s" else Generator("s")
                    y = apply_word(GeneratorWord((token,)), x)
                    assert vanishing_number(y) == v, (g, n, i, token)


def test_beta_sum_not_invariant_under_a():
    # A_1 on (1, 0, ...) changes the beta sum, which criterion 7 finds
    # invariant under the multi-twists: the invariance is C-specific
    p = params(2, 4)
    x = make_element(p, [1, 0, 0, 0])
    y = apply_word(GeneratorWord((Generator("A", 1),)), x)
    assert sum(y.coords[1::2]) % 4 != sum(x.coords[1::2]) % 4


def test_block_content_examples():
    p = params(2, 4)
    assert block_content(make_element(p, [0, 0, 1, 1]), 1) == 4
    assert block_content(make_element(p, [2, 2, 0, 0]), 1) == 2
    with pytest.raises(ValueError):
        block_content(zero_element(p), 3)


def test_block_content_invariant_under_block_words():
    rng = random.Random(13)
    for n in (2, 3, 4, 6, 8):
        p = params(2, n)
        for _ in range(30):
            x = make_element(p, [rng.randrange(n) for _ in range(4)])
            i = rng.randrange(1, 3)
            tokens = tuple(
                Generator(rng.choice("AB"), i, rng.choice([-2, -1, 1, 2]))
                for _ in range(rng.randrange(1, 6)))
            y = apply_word(GeneratorWord(tokens), x)
            assert block_content(y, i) == block_content(x, i)


@pytest.mark.parametrize("selector", (MOD, MOD_PM))
def test_orbit_sizes_match_the_mod_2_count(selector):
    # the closed form of the module docstring, on every even theorem space
    spaces = [(g, n) for g, n in theorem_cases(1e6) if n % 2 == 0]
    assert len(spaces) == 7
    for g, n in spaces:
        report = enumerate_orbits(SpaceParams(g, n), selector, record_paths=False)
        assert report.orbit_count == 2, (g, n)
        fiber = (n // 2) ** (2 * g)
        assert {o.vanishing_number: o.size for o in report.orbits} == {
            0: fiber * 2 ** (g - 1) * (2 ** g + 1),
            1: fiber * 2 ** (g - 1) * (2 ** g - 1),
        }, (g, n)
