"""Tests for the single-block SL(2, Z/nZ) word solver."""

import hashlib
import itertools
import math
import random

import numpy as np
import pytest

from mcgorbits.sl2 import (
    _content_word, clear_alpha, generate_sl2, on_block, on_pair, sl2_group_order,
    solve_pair,
)
from mcgorbits.action import GeneratorWord, make_token, parse_word
from mcgorbits.space import SpaceParams, apply_affine, make_element
from mcgorbits.action import word_action


def block_matrix(word, n):
    """A block word's 2x2 matrix, read from its action on block 1."""
    params = SpaceParams(2, n, strict_euler=False)
    return word_action(word, params).linear[:2, :2]


def content(pair, n):
    """gcd(a, b, n), the block invariant of the A/B action."""
    return math.gcd(math.gcd(pair[0] % n, pair[1] % n), n)


def brute_force_sl2_count(n):
    """Independent oracle: count 2x2 matrices with det = 1 mod n."""
    return sum(1 for a, b, c, d in itertools.product(range(n), repeat=4)
               if (a * d - b * c) % n == 1 % n)


def test_generate_sl2_small_sizes():
    assert len(generate_sl2(1)) == 1
    assert len(generate_sl2(2)) == 6
    assert len(generate_sl2(3)) == 24


def test_generate_sl2_is_entire_group():
    # closure equals the full det-1 matrix set, counted independently
    for n in (2, 3, 4, 5, 6):
        words = generate_sl2(n)
        assert len(words) == brute_force_sl2_count(n)
        dets = {(a * d - b * c) % n for (a, b, c, d) in words}
        assert dets == {1 % n}


# sha256 over "n matrix word" lines, in the closure's order, for n = 1..12:
# the witnesses and their order must not depend on how the letters are read
SL2_CLOSURE_SHA256 = "b4deeffd389c22ef6b9d032715b8344efd991eb26c70fbd6890f4bdb1deee638"


def test_generate_sl2_is_unchanged():
    h = hashlib.sha256()
    for n in range(1, 13):
        for key, word in generate_sl2(n).items():
            h.update(f"{n} {key} {word}\n".encode())
    assert h.hexdigest() == SL2_CLOSURE_SHA256


def test_generate_sl2_witness_words():
    for n in range(2, 13):
        words = generate_sl2(n)
        for key, word in words.items():
            m = block_matrix(word, n)
            assert (int(m[0, 0]), int(m[0, 1]), int(m[1, 0]), int(m[1, 1])) == key
        # breadth-first order: lengths never drop, and each word extends
        # the witness of its parent by one letter
        lengths = [len(word) for word in words.values()]
        assert lengths == sorted(lengths)
        by_tokens = {word.tokens for word in words.values()}
        assert all(word.tokens[:-1] in by_tokens for word in words.values() if word)


def test_order_formula_matches_brute_force():
    for n in range(1, 9):
        assert sl2_group_order(n) == brute_force_sl2_count(n)


def test_generate_sl2_cap():
    # 100^4 is at the cap, 101^4 past it; the check comes before any work
    with pytest.raises(ValueError, match=r"^n\^4 = 104060401 exceeds cap 100000000$"):
        generate_sl2(101)


def test_clear_alpha_examples():
    assert len(clear_alpha((0, 5), 7)) == 0
    # the explicit B A B route sends (1,0) to (0,4) mod 5 [(a,b) -> (b,-a)]
    bab = parse_word("B1 A1 B1")
    assert np.array_equal(block_matrix(bab, 5), np.array([[0, 1], [4, 0]]))
    assert on_pair(bab, (1, 0), 5) == (0, 4)
    # the solver may return any word landing on (0, *)
    w = clear_alpha((1, 0), 5)
    assert on_pair(w, (1, 0), 5)[0] == 0
    w = clear_alpha((2, 2), 4)
    assert on_pair(w, (2, 2), 4) == (0, 2)


def test_clear_alpha_preserves_content():
    rng = random.Random(17)
    for _ in range(80):
        n = rng.randrange(1, 13)
        pair = (rng.randrange(n), rng.randrange(n))
        image = on_pair(clear_alpha(pair, n), pair, n)
        assert image[0] == 0
        assert content(image, n) == content(pair, n)


def test_solve_pair_identity_and_examples():
    assert len(solve_pair((3, 4), (3, 4), 6)) == 0
    # (0, b-1) -> (b-1, 0) is solvable for every b
    for n in (4, 5, 9):
        for b in range(n):
            w = solve_pair((0, (b - 1) % n), ((b - 1) % n, 0), n)
            assert w is not None
            assert on_pair(w, (0, (b - 1) % n), n) == ((b - 1) % n, 0)
    assert solve_pair((1, 0), (2, 0), 4) is None


@pytest.mark.parametrize("n", [0, -3, 101, 1000])
def test_solve_pair_refuses_modulus_outside_cap(n):
    # only n < 1 is refused; the closed-form words have no modulus cap
    if n < 1:
        with pytest.raises(ValueError, match="modulus must be >= 1"):
            solve_pair((1, 0), (0, 1), n)
    else:
        word = solve_pair((1, 0), (0, 1), n)
        assert word is not None and on_pair(word, (1, 0), n) == (0, 1)


def test_solve_pair_replays_past_the_old_cap():
    # n = 1000: pairs of one content are joined by a replaying word, and
    # pairs of different contents are refused; both cases occur
    n = 1000
    divisors = [c for c in range(1, n + 1) if n % c == 0]
    rng = random.Random(7)
    outcomes = set()
    for _ in range(200):
        c = rng.choice(divisors)
        u = (c * rng.randrange(n), c * rng.randrange(n))
        v = (rng.choice(divisors) * rng.randrange(n), c * rng.randrange(n))
        w = solve_pair(u, v, n)
        if content(u, n) == content(v, n):
            assert w is not None and on_pair(w, u, n) == (v[0] % n, v[1] % n)
        else:
            assert w is None
        outcomes.add(w is None)
    assert outcomes == {True, False}


def test_pair_content_classes_are_orbits():
    # the transitivity lemma, checked for every n <= 64 and every pair:
    # `_content_word` sends (a, b) to (0, gcd(a, b, n)), and no letter
    # L^+-1, R^+-1 changes gcd(a, b, n), so each content class is one
    # orbit of SL(2, Z/nZ) and there are exactly d(n) of them
    letters = [GeneratorWord((make_token(kind, 1, e),))
               for kind in ("A", "B") for e in (1, -1)]
    for n in range(1, 65):
        bound = 2 * math.ceil(math.log2(n)) + 7 if n > 1 else 0
        landings = set()
        for a in range(n):
            for b in range(n):
                c = content((a, b), n)
                word = _content_word((a, b), n)
                landing = on_pair(word, (a, b), n)
                assert landing == (0, c % n), (n, a, b, str(word))
                assert len(word) <= bound, (n, a, b, str(word))
                landings.add(landing)
                for letter in letters:
                    assert content(on_pair(letter, (a, b), n), n) == c, (n, a, b, str(letter))
        assert len(landings) == sum(1 for k in range(1, n + 1) if n % k == 0)


def test_solve_pair_iff_content_matches():
    # exhaustive over all pair pairs for n <= 12 (sampled n values)
    for n in (2, 3, 4, 6, 12):
        pairs = [(a, b) for a in range(n) for b in range(n)]
        for u in pairs:
            cu = content(u, n)
            for v in pairs:
                w = solve_pair(u, v, n)
                if cu == content(v, n):
                    assert w is not None and on_pair(w, u, n) == v
                else:
                    assert w is None


def test_block_word_translation_touches_only_its_block():
    rng = random.Random(29)
    p = SpaceParams(3, 6, strict_euler=False)
    for _ in range(40):
        pair = (rng.randrange(6), rng.randrange(6))
        target = clear_alpha(pair, 6)
        block = rng.randrange(1, 4)
        word = on_block(target, block)
        coords = [rng.randrange(6) for _ in range(6)]
        coords[2 * block - 2], coords[2 * block - 1] = pair
        x = make_element(p, coords)
        y = apply_affine(word_action(word, p), x)
        assert y.block(block) == on_pair(target, pair, 6)
        for other in range(1, 4):
            if other != block:
                assert y.block(other) == x.block(other)


def test_block_word_round_trips_through_word_grammar():
    w = on_block(clear_alpha((1, 1), 5), 2)
    from mcgorbits.action import format_word
    assert parse_word(format_word(w)) == w


def test_clear_alpha_agrees_with_bfs_oracle():
    # every pair for n <= 12: alpha cleared and content kept; the word
    # itself witnesses that its image is reachable
    for n in range(1, 13):
        bound = 2 * math.ceil(math.log2(n)) + 4 if n > 1 else 0
        for a in range(n):
            for b in range(n):
                word = clear_alpha((a, b), n)
                image = on_pair(word, (a, b), n)
                assert image[0] == 0, (n, a, b)
                assert content(image, n) == content((a, b), n)
                assert len(word) <= bound, (n, a, b, str(word))


def test_power_words_match_unit_letters():
    # a power word acts as its letters repeated, as a matrix and on blocks
    word = clear_alpha((7, 3), 11)
    unit = GeneratorWord(tuple(make_token(t.kind, 1, 1 if t.exponent > 0 else -1)
                               for t in word.tokens for _ in range(abs(t.exponent))))
    assert np.array_equal(block_matrix(word, 11), block_matrix(unit, 11))
    assert on_pair(word, (7, 3), 11) == on_pair(unit, (7, 3), 11) == (0, 1)
    # (7, 3) -> (1, 3) -> (1, 1) -> (0, 1): the division step A1^3 would
    # reach (1, 0), so the word takes A1^2 and ends with B1^-1
    assert str(word) == "B1^-2 A1^2 B1^-1"
    assert str(on_block(word, 2)) == "B2^-2 A2^2 B2^-1"


def test_clear_alpha_words_are_in_normal_form():
    # every pair for n <= 64: powers of L = A1 and R^-1 = B1^-1 (L^-1
    # only in the word of a start (a, 0)), letters of the two kinds
    # alternating, within the length bound, and alpha cleared
    for n in range(2, 65):
        bound = 2 * math.ceil(math.log2(n)) + 4
        for a in range(n):
            for b in range(n):
                word = clear_alpha((a, b), n)
                assert all((t.exponent > 0) == (t.kind == "A" and b != 0)
                           for t in word.tokens), (n, a, b, str(word))
                kinds = [t.kind for t in word.tokens]
                assert all(x != y for x, y in zip(kinds, kinds[1:])), (n, a, b, str(word))
                assert len(word) <= bound, (n, a, b, str(word))
                assert on_pair(word, (a, b), n)[0] == 0, (n, a, b)
