"""Tests for the twist generators, words, and multi-twists."""

import itertools
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mcgorbits.action import (
    EMPTY_WORD, Generator, GeneratorWord, WordSyntaxError, apply_word,
    format_word, generator_action, make_token, parse_word, replay_tokens,
    word_action,
)
from mcgorbits.space import (
    AffineMap, SpaceParams, apply_affine, compose, make_element, zero_element,
)


def params(g, n):
    return SpaceParams(g, n, strict_euler=False)


# --- single generators ------------------------------------------------------

def reference_action(gen, p):
    """The twist formulas of the `action` docstring as hand-written
    matrices, independent of `replay_tokens`, with the index check."""
    g, k = p.g, gen.exponent
    lin = np.eye(2 * g, dtype=np.int64)
    tra = np.zeros(2 * g, dtype=np.int64)
    if gen.kind == "s":
        for j in range(g):
            lin[2 * j, 2 * j] = -1
        return AffineMap(p.n, lin, tra)
    top = g if gen.kind in ("A", "B") else g - 1
    if not 1 <= gen.index <= top:
        raise ValueError(f"{gen.kind}{gen.index} out of range for genus {g} (max {top})")
    a, b = 2 * gen.index - 2, 2 * gen.index - 1
    if gen.kind == "A":
        lin[b, a] = -k
    elif gen.kind == "B":
        lin[a, b] = k
    elif gen.kind == "C":
        a2, b2 = a + 2, b + 2
        lin[b, a] = -k
        lin[b, a2] = k
        lin[b2, a] = k
        lin[b2, a2] = -k
        tra[b] = k
        tra[b2] = -k
    return AffineMap(p.n, lin, tra)


def test_generator_action_matches_reference():
    # every kind, every index (one past the top too) and the exponents
    # +-1, +-2, +-3 and 7, including the out-of-range error text
    for g in range(2, 6):
        tokens = [Generator("s")] + [
            Generator(kind, i, k) for kind in "ABCD" for i in range(1, g + 2)
            for k in (1, -1, 2, -2, 3, -3, 7)]
        for n in range(1, 14):
            p = params(g, n)
            for token in tokens:
                try:
                    expected = reference_action(token, p)
                except ValueError as exc:
                    with pytest.raises(ValueError) as err:
                        generator_action(token, p)
                    assert str(err.value) == str(exc), (g, n, str(token))
                else:
                    assert generator_action(token, p) == expected, (g, n, str(token))


@pytest.mark.parametrize("g", [2, 8, 9])
def test_generator_action_maps_are_kept_read_only(g):
    p = params(g, 5)
    for token in (Generator("A", 1, 2), Generator("C", g - 1, -1), Generator("s")):
        kept = generator_action(token, p)
        assert kept == reference_action(token, p)
        for array in (kept.linear, kept.translation):
            assert not array.flags.writeable
            with pytest.raises(ValueError):
                array[0] = 1
        assert apply_affine(kept, zero_element(p)) == apply_word(
            GeneratorWord((token,)), zero_element(p))


def test_c_twist_on_zero():
    p = params(2, 2)
    x = apply_affine(generator_action(Generator("C", 1), p), zero_element(p))
    assert x.coords == (0, 1, 0, 1)


def test_a_twist():
    p = params(2, 4)
    x = make_element(p, [1, 0, 0, 0])
    y = apply_affine(generator_action(Generator("A", 1), p), x)
    assert y.coords == (1, 3, 0, 0)


def test_d_twists_trivial():
    rng = random.Random(5)
    p = params(3, 4)
    for i in (1, 2):
        m = generator_action(Generator("D", i), p)
        for _ in range(10):
            x = make_element(p, [rng.randrange(4) for _ in range(6)])
            assert apply_affine(m, x) == x


def test_reflection():
    p = params(2, 4)
    x = make_element(p, [1, 1, 0, 1])
    y = apply_affine(generator_action(Generator("s"), p), x)
    assert y.coords == (3, 1, 0, 1)
    # involution
    m = generator_action(Generator("s"), p)
    assert compose(m, m) == AffineMap.identity(p)


def test_index_ranges():
    p = params(2, 2)
    with pytest.raises(ValueError):
        generator_action(Generator("A", 3), p)
    with pytest.raises(ValueError):
        generator_action(Generator("C", 2), p)
    generator_action(Generator("C", 1), p)


def test_c_twist_matrix_block():
    # the full affine data of C1 on (alpha1, beta1, alpha2, beta2)
    p = params(2, 7)
    m = generator_action(Generator("C", 1), p)
    L, t = m.linear, m.translation
    expected = np.array([[1, 0, 0, 0],
                         [-1, 1, 1, 0],
                         [0, 0, 1, 0],
                         [1, 0, -1, 1]]) % 7
    assert np.array_equal(L, expected)
    assert np.array_equal(t, np.array([0, 1, 0, -1]) % 7)


def test_ab_block_matrices():
    p = params(2, 7)
    La = generator_action(Generator("A", 1), p).linear
    Lb = generator_action(Generator("B", 1), p).linear
    assert np.array_equal(La[0:2, 0:2], np.array([[1, 0], [-1, 1]]) % 7)
    assert np.array_equal(Lb[0:2, 0:2], np.array([[1, 1], [0, 1]]) % 7)
    from mcgorbits.sl2 import _letter_matrices
    # L, L^-1, R, R^-1 as (m00, m01, m10, m11) mod 7
    assert _letter_matrices(7) == ((1, 0, 6, 1), (1, 0, 1, 1),
                                   (1, 1, 0, 1), (1, 6, 0, 1))


def test_c_inverse_is_affine_inverse():
    # the C^-1 formula is the affine inverse of C, not an independent input
    for n in (2, 3, 5, 6):
        p = params(3, n)
        for i in (1, 2):
            m = generator_action(Generator("C", i), p)
            minv = generator_action(Generator("C", i, -1), p)
            assert compose(m, minv) == AffineMap.identity(p)
            assert compose(minv, m) == AffineMap.identity(p)


def test_negative_exponent_examples():
    p = params(2, 5)
    a = generator_action(Generator("A", 1, -2), p)
    x = make_element(p, [1, 0, 0, 0])
    # beta1 <- beta1 + 2*alpha1
    assert apply_affine(a, x).coords == (1, 2, 0, 0)


# --- words ------------------------------------------------------------------

def test_empty_word_is_identity():
    p = params(2, 2)
    assert word_action(EMPTY_WORD, p) == AffineMap.identity(p)


def test_word_cancellation():
    p = params(2, 6)
    w = parse_word("C1 C1^-1")
    assert word_action(w, p) == AffineMap.identity(p)


def test_bab_block_matrix():
    # B2 A2 B2 acts on (alpha2, beta2) by (a, b) -> (b, -a); the expected
    # 2x2 block is the product [[1,1],[0,1]] [[1,0],[-1,1]] [[1,1],[0,1]]
    n = 7
    B = np.array([[1, 1], [0, 1]])
    A = np.array([[1, 0], [-1, 1]])
    expected = (B @ A @ B) % n
    assert np.array_equal(expected, np.array([[0, 1], [-1, 0]]) % n)
    p = params(2, n)
    m = word_action(parse_word("B2 A2 B2"), p)
    L, t = m.linear, m.translation
    assert not t.any()
    assert np.array_equal(L[2:4, 2:4], expected)
    assert np.array_equal(L[0:2, 0:2], np.eye(2, dtype=int))


def test_word_order_first_token_acts_first():
    p = params(2, 5)
    w = parse_word("B1 A1")
    x = make_element(p, [1, 0, 0, 0])
    # B1 first: (1,0) fixed; then A1: beta -= alpha -> (1,4)
    assert apply_affine(word_action(w, p), x).coords == (1, 4, 0, 0)
    # token-by-token replay agrees
    assert apply_word(w, x).coords == (1, 4, 0, 0)


def test_word_action_matches_token_replay():
    rng = random.Random(23)
    p = params(3, 6)
    kinds = [("A", 3), ("B", 2), ("C", 1), ("C", 2), ("D", 2), ("s", None)]
    for _ in range(60):
        tokens = []
        for _ in range(rng.randrange(0, 8)):
            kind, idx = rng.choice(kinds)
            if kind == "s":
                tokens.append(Generator("s"))
            else:
                tokens.append(Generator(kind, rng.randrange(1, idx + 1),
                                        rng.choice([-3, -2, -1, 1, 2, 3])))
        w = GeneratorWord(tuple(tokens))
        m = word_action(w, p)
        x = make_element(p, [rng.randrange(6) for _ in range(6)])
        assert apply_affine(m, x) == apply_word(w, x)


def test_word_action_matches_the_compose_chain():
    # the map read in one pass equals the product of per-token maps, the
    # tokens drawn with one index past the top so some words stop on an
    # out-of-range token, which must raise the per-token map's text
    rng = random.Random(27)
    for g in range(2, 10):
        for n in (1, 2, 5, 6, 12):
            p = params(g, n)
            for _ in range(12):
                tokens = []
                for _ in range(rng.randrange(0, 9)):
                    kind = rng.choice("ABCDs")
                    if kind == "s":
                        tokens.append(Generator("s"))
                    else:
                        top = g + 1 if kind in "AB" else g
                        tokens.append(Generator(kind, rng.randrange(1, top + 1),
                                                rng.choice([-3, -2, -1, 1, 2, 3])))
                w = GeneratorWord(tuple(tokens))
                try:
                    expected = AffineMap.identity(p)
                    for token in tokens:
                        expected = compose(reference_action(token, p), expected)
                except ValueError as exc:
                    with pytest.raises(ValueError) as err:
                        word_action(w, p)
                    assert str(err.value) == str(exc), (g, n, str(w))
                else:
                    assert word_action(w, p) == expected, (g, n, str(w))


@st.composite
def _space_and_word(draw):
    g = draw(st.integers(2, 5))
    n = draw(st.integers(1, 60))
    exponent = st.integers(-3 * n, 3 * n).filter(bool)
    tokens = []
    for _ in range(draw(st.integers(0, 12))):
        kind = draw(st.sampled_from("ABCDs"))
        if kind == "s":
            tokens.append(Generator("s"))
        else:
            top = g if kind in "AB" else g - 1
            tokens.append(Generator(kind, draw(st.integers(1, top)), draw(exponent)))
    coords = draw(st.lists(st.integers(0, n - 1), min_size=2 * g, max_size=2 * g))
    return params(g, n), GeneratorWord(tuple(tokens)), coords


@settings(max_examples=150, deadline=None)
@given(case=_space_and_word())
def test_token_word_and_affine_replays_agree(case):
    p, w, coords = case
    x = make_element(p, coords)
    by_token = list(x.coords)
    for token in w.tokens:
        replay_tokens((token,), by_token, p.n, p.g)
    image = apply_word(w, x)
    assert image.coords == tuple(by_token)
    assert image == apply_affine(word_action(w, p), x)


@pytest.mark.parametrize("bad", ["A3", "B3", "C2", "D2"])
@pytest.mark.parametrize("prefix", ["", "A1 B2^-3 C1^2 s D1 "])
def test_apply_word_rejects_out_of_range_index(bad, prefix):
    p = params(2, 5)
    x = make_element(p, [1, 2, 3, 4])
    with pytest.raises(ValueError) as expected:
        generator_action(parse_word(bad).tokens[0], p)
    with pytest.raises(ValueError) as err:
        apply_word(parse_word(prefix + bad), x)
    assert str(err.value) == str(expected.value)
    assert str(err.value).startswith(f"{bad} out of range for genus 2 (max ")
    assert x.coords == (1, 2, 3, 4)


def test_apply_word_accepts_s_and_in_range_d():
    p = params(3, 5)
    x = make_element(p, [1, 2, 3, 4, 0, 1])
    assert apply_word(parse_word("D1 D2"), x) == x
    assert apply_word(parse_word("s"), x).coords == (4, 2, 2, 4, 0, 1)
    assert apply_word(parse_word("s s"), x) == x


def test_make_token_interns_valid_tokens():
    assert make_token("C", 2, -3) is make_token("C", 2, -3)
    assert make_token("C", 2, -3) == Generator("C", 2, -3)
    assert make_token("s", None, -1) == Generator("s")
    with pytest.raises(ValueError):
        make_token("A", 0, 1)
    with pytest.raises(ValueError):
        make_token("B", 1, 0)


@pytest.mark.parametrize("kind, index, exponent, message", [
    ("C", 2, -1.0, "exponent -1.0 is not an integer"),
    ("C", 1, 1.5, "exponent 1.5 is not an integer"),
    ("A", 1, True, "exponent True is not an integer"),
    ("B", 1, "1", "exponent '1' is not an integer"),
    ("s", None, 1.0, "exponent 1.0 is not an integer"),
    ("C", 2.0, 1, "index 2.0 is not an integer"),
    ("D", True, 1, "index True is not an integer"),
    ("A", np.True_, -1, "index np.True_ is not an integer"),
])
def test_tokens_refuse_non_integer_index_and_exponent(kind, index, exponent, message):
    # make_element's rule: what operator.index refuses, and bools
    for build in (Generator, make_token):
        with pytest.raises(ValueError) as err:
            build(kind, index, exponent)
        assert str(err.value) == message


def test_refused_float_token_leaves_the_interned_int_token():
    # the cache is typed: ("C", 2, -1.0) equals ("C", 2, -1) as a key, so
    # an untyped cache would hand either call the other's token
    int_token = make_token("C", 2, -1)
    with pytest.raises(ValueError):
        make_token("C", 2, -1.0)
    assert make_token("C", 2, -1) is int_token
    with pytest.raises(ValueError):
        make_token("C", 1, 1.0)
    token = make_token("C", 1, 1)
    assert type(token.exponent) is int and type(token.index) is int
    assert str(token) == "C1"


def test_tokens_read_integer_types_as_int():
    token = Generator("B", np.int64(3), np.int32(-2))
    assert token == make_token("B", 3, -2)
    assert type(token.index) is int and type(token.exponent) is int
    assert str(token) == "B3^-2"


def test_ab_words_fix_zero_and_have_zero_translation():
    rng = random.Random(31)
    p = params(3, 4)
    for _ in range(25):
        tokens = tuple(
            Generator(rng.choice("AB"), rng.randrange(1, 4), rng.choice([-2, -1, 1, 2]))
            for _ in range(rng.randrange(1, 7)))
        m = word_action(GeneratorWord(tokens), p)
        assert not m.translation.any()
        assert apply_affine(m, zero_element(p)) == zero_element(p)


def test_c_twists_commute():
    p = params(4, 6)
    maps = [generator_action(Generator("C", i), p) for i in (1, 2, 3)]
    from mcgorbits.space import compose
    for m1 in maps:
        for m2 in maps:
            assert compose(m1, m2) == compose(m2, m1)


# --- multi-twists -----------------------------------------------------------

def multi_twist(ks):
    """The word C_1^(k_1) ... C_{g-1}^(k_{g-1}); the C_i commute."""
    return GeneratorWord(tuple(make_token("C", i + 1, k) for i, k in enumerate(ks) if k))


def test_multi_twist_trivial_and_single():
    p = params(2, 5)
    assert word_action(multi_twist((0,)), p) == AffineMap.identity(p)
    assert word_action(multi_twist((1,)), p) == \
        generator_action(Generator("C", 1), p)


def test_multi_twist_example_g3():
    p = params(3, 5)
    m = word_action(multi_twist((1, 1)), p)
    assert apply_affine(m, zero_element(p)).coords == (0, 1, 0, 0, 0, 4)


def closed_form_multi_twist(ks, p):
    """Reference for C_1^(k_1) ... C_{g-1}^(k_{g-1}).

    With the convention k_0 = k_g = 0:
        beta_i -> beta_i + k_i alpha_{i+1} - (k_i + k_{i-1}) alpha_i
                  + k_{i-1} alpha_{i-1} + k_i - k_{i-1}
    """
    g = p.g
    ks = [0] + list(ks) + [0]  # k_0 .. k_g
    lin = np.eye(2 * g, dtype=np.int64)
    tra = np.zeros(2 * g, dtype=np.int64)
    for i in range(1, g + 1):
        b = 2 * i - 1
        lin[b, 2 * i - 2] += -(ks[i] + ks[i - 1])
        if i < g:
            lin[b, 2 * i] += ks[i]
        if i > 1:
            lin[b, 2 * i - 4] += ks[i - 1]
        tra[b] = ks[i] - ks[i - 1]
    return AffineMap(p.n, lin, tra)


def test_multi_twist_matches_word_exhaustive():
    for g, n in ((3, 3), (4, 6)):
        p = params(g, n)
        for ks in itertools.product(range(-2, 3), repeat=g - 1):
            mt = word_action(multi_twist(ks), p)
            assert mt == closed_form_multi_twist(ks, p), (g, n, ks)


# --- parsing and formatting -------------------------------------------------

def test_parse_examples():
    w = parse_word("A1 B2^-1 C1^3")
    assert len(w) == 3
    assert w.tokens[1] == Generator("B", 2, -1)
    assert parse_word("s").tokens == (Generator("s"),)
    assert parse_word("") == EMPTY_WORD


def test_parse_errors_carry_position():
    with pytest.raises(WordSyntaxError) as err:
        parse_word("A1 C0")
    assert err.value.position == 3
    with pytest.raises(WordSyntaxError):
        parse_word("E1")
    with pytest.raises(WordSyntaxError):
        parse_word("A1^0")
    with pytest.raises(WordSyntaxError):
        parse_word("s^2")
    with pytest.raises(WordSyntaxError):
        parse_word("A")


def test_format_round_trip():
    rng = random.Random(41)
    for _ in range(40):
        tokens = []
        for _ in range(rng.randrange(0, 6)):
            kind = rng.choice(["A", "B", "C", "D", "s"])
            if kind == "s":
                tokens.append(Generator("s"))
            else:
                tokens.append(Generator(kind, rng.randrange(1, 5),
                                        rng.choice([-4, -1, 1, 2])))
        w = GeneratorWord(tuple(tokens))
        assert parse_word(format_word(w)) == w


def test_simplify_word_preserves_action():
    from mcgorbits.action import simplify_word
    rng = random.Random(59)
    p = params(3, 4)
    for _ in range(40):
        tokens = []
        for _ in range(rng.randrange(0, 10)):
            kind = rng.choice(["A", "B", "C", "D", "s"])
            if kind == "s":
                tokens.append(Generator("s"))
            else:
                top = 3 if kind in "AB" else 2
                tokens.append(Generator(kind, rng.randrange(1, top + 1),
                                        rng.choice([-2, -1, 1, 2])))
        w = GeneratorWord(tuple(tokens))
        short = simplify_word(w)
        assert word_action(short, p) == word_action(w, p)
        assert len(short) <= len(w)
        # cascading cancellation
    w = parse_word("A1 C1 C1^-1 A1^-1 s s")
    from mcgorbits.action import simplify_word
    assert simplify_word(w) == GeneratorWord(())


def test_word_inverse_round_trip():
    rng = random.Random(43)
    p = params(3, 4)
    for _ in range(20):
        tokens = []
        for _ in range(rng.randrange(1, 6)):
            kind = rng.choice(["A", "B", "C", "s"])
            if kind == "s":
                tokens.append(Generator("s"))
            else:
                top = 3 if kind in "AB" else 2
                tokens.append(Generator(kind, rng.randrange(1, top + 1),
                                        rng.choice([-2, -1, 1, 2])))
        w = GeneratorWord(tuple(tokens))
        x = make_element(p, [rng.randrange(4) for _ in range(6)])
        assert apply_word(w.inverse(), apply_word(w, x)) == x
