"""Tests for canonical reduction and word certificates."""

import copy
import dataclasses
import hashlib
import importlib
import math
import pickle
import random

import pytest
from hypothesis import given, settings, strategies as st

from mcgorbits.action import (
    EMPTY_WORD, GeneratorWord, apply_word, make_token, simplify_word, word_action,
)
from mcgorbits.invariants import vanishing_number
from mcgorbits.normalize import (
    Certificate, _block_step, _canonical_form, _shift_word, _tail, macro_word,
    normalize, same_orbit,
)
from mcgorbits.sl2 import clear_alpha, on_block, on_pair
from mcgorbits.space import (
    SpaceParams, apply_affine, decode, make_element, zero_element,
)


def params(g, n, strict=False):
    return SpaceParams(g, n, strict_euler=strict)


def test_zero_is_already_canonical():
    p = params(2, 2)
    form, cert = normalize(zero_element(p))
    assert form.representative == zero_element(p)
    assert form.parity_class == 0
    assert cert.replays()
    assert apply_word(cert.word, zero_element(p)) == zero_element(p)


def test_one_point_space():
    p = params(2, 1)
    form, cert = normalize(zero_element(p))
    assert form.representative.coords == (0, 0, 0, 0)
    assert len(cert.word) == 0


def test_example_small_even():
    p = params(2, 2)
    form, cert = normalize(make_element(p, [0, 1, 0, 1]))
    assert form.representative == zero_element(p)
    assert cert.replays()


def test_odd_case_all_reach_zero():
    p = params(4, 3, strict=True)
    rng = random.Random(5)
    for _ in range(25):
        x = make_element(p, [rng.randrange(3) for _ in range(8)])
        form, cert = normalize(x)
        assert form.representative == zero_element(p)
        assert form.parity_class == 0
        assert cert.replays()


def test_canonical_shape_and_parity_class():
    for g, n in ((2, 2), (2, 4), (3, 2), (2, 6)):
        p = params(g, n)
        rng = random.Random(g * 100 + n)
        for _ in range(40):
            x = make_element(p, [rng.randrange(n) for _ in range(2 * g)])
            form, _ = normalize(x)
            coords = form.representative.coords
            assert coords[:-1] == (0,) * (2 * g - 1)
            assert coords[-1] in (0, 1)
            assert form.parity_class == coords[-1]
            # the parity class matches the vanishing-number invariant
            expected = 0 if vanishing_number(x) == g % 2 else 1
            assert form.parity_class == expected


def test_certificates_replay_exhaustive_small():
    for g, n in ((2, 2), (2, 3), (2, 4), (3, 2)):
        p = params(g, n)
        for i in range(p.size):
            x = decode(i, p)
            form, cert = normalize(x, verify=False)
            assert apply_word(cert.word, x) == form.representative, (g, n, i)


def test_certificate_replay_through_matrices():
    # independent route: replay the word as a composed affine map
    p = params(2, 5)
    rng = random.Random(77)
    for _ in range(20):
        x = make_element(p, [rng.randrange(5) for _ in range(4)])
        form, cert = normalize(x)
        assert apply_affine(word_action(cert.word, p), x) == form.representative


def test_parity_macro_all_beta_up_to_12():
    for n in range(1, 13):
        for g in (2, 3):
            p = params(g, n)
            for beta in range(n):
                x = make_element(p, [0] * (2 * g - 1) + [beta])
                w = macro_word(beta, p)
                y = apply_word(w, x)
                expected = [0] * (2 * g - 1) + [(beta + 2) % n]
                assert y == make_element(p, expected), (g, n, beta)


def test_shift_word_all_k_and_beta_up_to_12():
    for n in range(1, 13):
        for g in (2, 3):
            p = params(g, n)
            for beta in range(n):
                x = make_element(p, [0] * (2 * g - 1) + [beta])
                for k in range(n):
                    w = _shift_word(k, beta, g, n)
                    assert len(w) <= 7
                    expected = [0] * (2 * g - 1) + [(2 * k - beta) % n]
                    assert apply_word(w, x) == make_element(p, expected), \
                        (g, n, beta, k)


@settings(max_examples=200, deadline=None)
@given(g=st.integers(2, 6), n=st.integers(1, 10 ** 4), data=st.data())
def test_certificates_replay_with_bounded_length(g, n, data):
    coords = data.draw(st.lists(st.integers(0, n - 1), min_size=2 * g,
                                max_size=2 * g))
    x = make_element(params(g, n), coords)
    form, cert = normalize(x)
    assert cert.replays()
    assert apply_word(cert.word, x) == form.representative
    log_n = math.ceil(math.log2(n)) if n > 1 else 0
    assert len(cert.word) <= g * (2 * log_n + 4) + g + 6


# sha256 over "state|certificate|representative|parity class" lines for
# 300 seeded states of each space below, then every state of (3, 4);
# recorded from the closed-form normalizer before stage (i) was memoized
# and replay went through one token kernel.  The words and the forms
# must stay byte-identical.
GOLDEN_SEEDED = ((4, 6), (5, 4), (7, 3), (16, 30), (26, 50))
GOLDEN_DIGEST = "674526e8e0aa7be4d58e3d8a29a5d92e32b7487a59a760e1630ac12b0ba4493a"


def _golden_states():
    for g, n in GOLDEN_SEEDED:
        p = SpaceParams(g, n)
        rng = random.Random(f"golden:{g}:{n}")
        for _ in range(300):
            yield make_element(p, [rng.randrange(n) for _ in range(2 * g)])
    p = SpaceParams(3, 4)
    for index in range(p.size):
        yield decode(index, p)


def test_certificates_match_recorded_digest():
    digest = hashlib.sha256()
    count = 0
    for x in _golden_states():
        form, cert = normalize(x)
        digest.update(f"{x}|{cert.word}|{form.representative}|"
                      f"{form.parity_class}\n".encode())
        count += 1
    assert count == 5 * 300 + 4 ** 6
    assert digest.hexdigest() == GOLDEN_DIGEST


def test_block_step_matches_block_word_replay():
    # a memoized entry equals the block word's tokens and the pair its own
    # replay on a pair (sl2.on_pair) sends (a, b) to
    for n in range(2, 13):
        for block in (1, 3):
            for a in range(n):
                for b in range(n):
                    tokens, pair = _block_step(a, b, block, n)
                    word = clear_alpha((a, b), n)
                    assert tokens == on_block(word, block).tokens
                    assert pair == on_pair(word, (a, b), n)
                    assert pair[0] == 0 or a == 0


@pytest.fixture
def fresh_tail():
    # a tail memoized before a test would bypass its patch, and one filled
    # under a patch must not outlive the test
    _tail.cache_clear()
    yield
    _tail.cache_clear()


def test_wrong_landing_raises(monkeypatch, fresh_tail):
    # the package re-exports the function under the module's name
    module = importlib.import_module("mcgorbits.normalize")
    monkeypatch.setattr(module, "_shift_word", lambda *args: EMPTY_WORD)
    p = params(2, 5)
    with pytest.raises(AssertionError, match="landed on 0,0,0,3, expected"):
        normalize(make_element(p, [0, 0, 0, 3]))


def test_stray_alpha_raises(monkeypatch, fresh_tail):
    # the tail is keyed on the betas alone, so an alpha that stage (i)
    # leaves behind must be caught before it is reached
    module = importlib.import_module("mcgorbits.normalize")
    real = module._block_step

    def leaky(a, b, block, n):
        tokens, (_, beta) = real(a, b, block, n)
        return tokens, (1, beta)

    monkeypatch.setattr(module, "_block_step", leaky)
    p = params(3, 5)
    with pytest.raises(AssertionError, match="stage \\(i\\) left alpha_2 = 1"):
        normalize(make_element(p, [0, 1, 2, 3, 0, 4]))
    assert _tail.cache_info().currsize == 0


def test_failed_tail_landing_is_not_cached(monkeypatch, fresh_tail):
    # the landing check runs when a tail entry is filled, so an entry that
    # fails it must not be kept for the next state with the same betas
    module = importlib.import_module("mcgorbits.normalize")
    monkeypatch.setattr(module, "_shift_word", lambda *args: EMPTY_WORD)
    p = params(3, 5)
    for _ in range(2):
        with pytest.raises(AssertionError, match="landed on 0,0,0,0,0,3, expected"):
            normalize(make_element(p, [1, 0, 0, 1, 0, 1]))
    assert _tail.cache_info().currsize == 0


def test_states_of_one_class_share_one_canonical_form():
    for g, n in ((2, 4), (3, 3), (4, 6)):
        p = params(g, n)
        rng = random.Random(g * n)
        forms = {}
        for _ in range(50):
            x = make_element(p, [rng.randrange(n) for _ in range(2 * g)])
            form, cert = normalize(x)
            assert forms.setdefault(form.parity_class, form) is form
            assert cert.target is form.representative
        assert len(forms) == (1 if n % 2 else 2)
    # the same classes in a non-strict copy of the space are its own forms
    strict, loose = SpaceParams(2, 2), params(2, 2)
    a, b = (normalize(zero_element(q))[0] for q in (strict, loose))
    assert a.representative.params == strict and b.representative.params == loose


def test_tail_returns_the_shared_canonical_form(fresh_tail):
    # the tail entry carries its class's form, so a state makes one memo
    # lookup for stages (ii) and (iii) and still gets the shared instance
    strict, loose = SpaceParams(2, 2), params(2, 2)
    forms = []
    for q in (strict, loose):
        for betas in ((0, 0), (1, 1), (0, 1), (1, 0)):
            _, form = _tail(betas, q)
            assert form is _canonical_form(q, form.parity_class)
            assert form.representative.params == q
            forms.append(form)
    # two classes, and the Euler flag does not make a second copy of the
    # space: both flags share each class's form
    strict_forms, loose_forms = forms[:4], forms[4:]
    for group in (strict_forms, loose_forms):
        assert group[0] is group[1] and group[2] is group[3]
        assert [form.parity_class for form in group] == [0, 0, 1, 1]
    assert all(a is b for a, b in zip(strict_forms, loose_forms))
    # a form held by a tail entry stays the class's one instance, however
    # many other classes are formed meanwhile
    q = params(2, 4)
    first = _tail((0, 0), q)[1]
    for m in range(5, 305):
        _canonical_form(params(2, m), 0)
    assert _tail((1, 1), q)[1] is first


# recorded from the generated dataclass __init__s, before both classes set
# their fields in one write to the instance dict
WORD_REPR = ("GeneratorWord(tokens=(Generator(kind='A', index=1, exponent=-1), "
             "Generator(kind='B', index=1, exponent=-1), "
             "Generator(kind='C', index=1, exponent=1)))")
CERT_REPR = (f"Certificate(word={WORD_REPR}, "
             "source=GnElement(params=SpaceParams(g=2, n=2, strict_euler=True), "
             "coords=(1, 0, 0, 1)), "
             "target=GnElement(params=SpaceParams(g=2, n=2, strict_euler=True), "
             "coords=(0, 0, 0, 0)))")


def test_certificate_and_word_keep_the_frozen_value_contract():
    _, cert = normalize(make_element(SpaceParams(2, 2), [1, 0, 0, 1]))
    assert repr(cert.word) == WORD_REPR
    assert repr(cert) == CERT_REPR
    for value in (cert.word, cert):
        fields = {f.name: getattr(value, f.name) for f in dataclasses.fields(value)}
        for name in fields:
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(value, name, None)
            with pytest.raises(dataclasses.FrozenInstanceError):
                delattr(value, name)
        assert {f.name: getattr(value, f.name) for f in dataclasses.fields(value)} == fields
        twin = type(value)(**fields)
        assert twin is not value and twin == value and hash(twin) == hash(value)
        assert type(value)(*fields.values()) == value
        for other in (dataclasses.replace(value), copy.deepcopy(value),
                      pickle.loads(pickle.dumps(value))):
            assert other is not value and other == value
            assert hash(other) == hash(value) and repr(other) == repr(value)
    changed = dataclasses.replace(cert, word=EMPTY_WORD)
    assert changed.word is EMPTY_WORD and changed != cert
    assert changed == Certificate(EMPTY_WORD, cert.source, cert.target)
    assert GeneratorWord(cert.word.tokens[:1]) != cert.word


def _reference_word(x):
    """The three stages concatenated from public pieces, then simplified."""
    g, n = x.params.g, x.params.n
    words = [on_block(clear_alpha(x.block(i), n), i) for i in range(1, g + 1)]
    coords = apply_word(GeneratorWord(sum((w.tokens for w in words), ())), x).coords
    acc, exponents = 0, []
    for i in range(g - 1):
        acc = (acc + coords[2 * i + 1]) % n
        k = (-acc) % n
        exponents.append(k - n if k > n // 2 else k)
    words.append(GeneratorWord(tuple(
        make_token("C", i + 1, k) for i, k in enumerate(exponents) if k)))
    word = GeneratorWord(sum((w.tokens for w in words), ()))
    beta = apply_word(word, x).coords[-1]
    target = 0 if n % 2 else beta % 2
    if beta != target:
        half = (target + beta) * pow(2, -1, n) if n % 2 else (target + beta) // 2
        word = word.then(_shift_word(half % n, beta, g, n))
    return simplify_word(word)


def test_certificates_match_reference_pipeline():
    spaces = [(2, n) for n in range(2, 10)] + [(3, n) for n in range(2, 5)]
    for g, n in spaces:
        p = params(g, n)
        for index in range(p.size):
            x = decode(index, p)
            _, cert = normalize(x, verify=False)
            assert cert.word == _reference_word(x), (g, n, str(x))


@settings(max_examples=200, deadline=None)
@given(g=st.integers(2, 8), n=st.integers(2, 10 ** 4), data=st.data())
def test_certificates_are_in_normal_form(g, n, data):
    # zero-heavy states: empty blocks and vanishing partial beta sums are
    # where the stages' words meet and merge
    digit = st.one_of(st.just(0), st.just(0), st.integers(0, n - 1))
    coords = data.draw(st.lists(digit, min_size=2 * g, max_size=2 * g))
    x = make_element(params(g, n), coords)
    form, cert = normalize(x)
    assert simplify_word(cert.word) == cert.word
    assert cert.replays()
    assert apply_word(cert.word, x) == form.representative


def test_large_n_builds_no_pair_tables():
    p = params(2, 1000)
    rng = random.Random(41)
    for _ in range(50):
        x = make_element(p, [rng.randrange(1000) for _ in range(4)])
        assert normalize(x)[1].replays()


def test_beta_concentration_telescopes():
    # with all alphas zero, the multi-twist with k_i = -(b_1+...+b_i)
    # clears every beta except the last, which becomes the beta sum
    from mcgorbits.space import apply_affine
    rng = random.Random(3)
    for g, n in ((2, 5), (3, 4), (4, 6)):
        p = params(g, n)
        for _ in range(20):
            betas = [rng.randrange(n) for _ in range(g)]
            coords = [0] * (2 * g)
            coords[1::2] = betas
            x = make_element(p, coords)
            acc, ks = 0, []
            for i in range(g - 1):
                acc = (acc + betas[i]) % n
                ks.append((-acc) % n)
            twist = GeneratorWord(tuple(
                make_token("C", i + 1, k) for i, k in enumerate(ks) if k))
            y = apply_affine(word_action(twist, p), x)
            expected = [0] * (2 * g)
            expected[-1] = sum(betas) % n
            assert y == make_element(p, expected)


def test_same_orbit_self():
    p = params(2, 2)
    x = make_element(p, [1, 0, 1, 1])
    ok, cert = same_orbit(x, x)
    assert ok
    assert apply_word(cert.word, x) == x


def test_same_orbit_examples():
    p = params(2, 2)
    zero = zero_element(p)
    one = make_element(p, [0, 0, 0, 1])
    ok, cert = same_orbit(zero, one)
    assert not ok and cert is None
    ones = make_element(p, [1, 1, 1, 1])
    ok, cert = same_orbit(zero, ones)
    assert ok
    assert apply_word(cert.word, zero) == ones


def test_same_orbit_rejects_mixed_spaces():
    with pytest.raises(ValueError):
        same_orbit(zero_element(params(2, 2)), zero_element(params(3, 2)))


def test_normalize_respects_strict_params():
    # strict parameters pass through untouched
    p = SpaceParams(4, 3)
    x = make_element(p, [1, 2, 0, 1, 2, 2, 0, 1])
    form, cert = normalize(x)
    assert form.representative == zero_element(p)
    assert cert.replays()


def test_refused_float_token_leaves_certificates_integer(fresh_tail):
    # were ("C", 2, -1.0) interned, the tail of (0, 2, 0, 3, 0, 1) would
    # emit C2^-1.0, replay to (0, 0, 0, 0.0, 0.0, 0.0) and still compare
    # equal to the representative
    with pytest.raises(ValueError, match=r"^exponent -1.0 is not an integer$"):
        make_token("C", 2, -1.0)
    x = make_element(SpaceParams(3, 4), [0, 2, 0, 3, 0, 1])
    form, cert = normalize(x)
    assert str(cert.word) == "C1^2 B3 A3 C2^-1 A3 B3^-1 C2"
    assert all(type(t.exponent) is int for t in cert.word.tokens)
    image = apply_word(cert.word, x)
    assert image == form.representative and cert.replays()
    assert all(type(c) is int for c in image.coords)
