"""Tests for the state space: elements, indexing, affine maps."""

import copy
import dataclasses
import os
import pickle
import random
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mcgorbits.space import (
    AffineMap, DimensionError, GnElement, SpaceParams, apply_affine, compose,
    decode, decode_array, encode, make_element, parse_element, zero_element,
)
from mcgorbits.action import Generator, GeneratorWord, apply_word, generator_action


def test_params_validation():
    SpaceParams(2, 2)
    SpaceParams(4, 3)
    with pytest.raises(ValueError):
        SpaceParams(1, 1)
    with pytest.raises(ValueError):
        SpaceParams(2, 0)
    # 3 does not divide 2g-2 = 2
    with pytest.raises(ValueError):
        SpaceParams(2, 3)
    SpaceParams(2, 3, strict_euler=False)


def test_params_hash_is_the_generated_one():
    # the hash is computed once per instance; it must stay the value the
    # generated dataclass hash gave, through replace, copy and pickle
    p = SpaceParams(4, 6)
    for q in (p, SpaceParams(4, 6), SpaceParams(4, 6, strict_euler=False),
              copy.deepcopy(p), pickle.loads(pickle.dumps(p))):
        assert q == p and hash(q) == hash((4, 6))
    q = dataclasses.replace(p, n=3, strict_euler=False)
    assert hash(q) == hash((4, 3)) and q != p
    assert repr(q) == "SpaceParams(g=4, n=3, strict_euler=False)"
    with pytest.raises(dataclasses.FrozenInstanceError):
        p.n = 3


def test_make_element_examples():
    p = SpaceParams(2, 2)
    assert make_element(p, [0, 0, 0, 0]).coords == (0, 0, 0, 0)
    p4 = SpaceParams(2, 4, strict_euler=False)
    assert make_element(p4, [5, -1, 0, 0]).coords == (1, 3, 0, 0)
    with pytest.raises(DimensionError):
        make_element(p, [0, 1, 0])


def test_make_element_refuses_non_integers():
    p = SpaceParams(2, 2)
    for bad in (1.5, 1.0, "1", np.float64(1), True, False, np.True_):
        with pytest.raises(ValueError) as err:
            make_element(p, [bad, 0, 0, 0])
        assert str(err.value) == f"coordinate {bad!r} is not an integer"
    values = [np.int64(3), np.uint8(1), np.int32(-1), 0]
    assert make_element(p, values).coords == (1, 1, 1, 0)


@pytest.mark.parametrize("g, n, message", [
    (2, True, "index True is not an integer"),
    (2, 2.0, "index 2.0 is not an integer"),
    (True, 1, "genus True is not an integer"),
    (2.0, 2, "genus 2.0 is not an integer"),
])
def test_params_refuse_non_integers(g, n, message):
    with pytest.raises(ValueError) as err:
        SpaceParams(g, n)
    assert str(err.value) == message


def test_params_read_integer_types_as_int():
    p = SpaceParams(np.int64(3), np.int32(4))
    assert type(p.g) is int and type(p.n) is int
    assert p == SpaceParams(3, 4) and hash(p) == hash(SpaceParams(3, 4))


@pytest.mark.parametrize("bad", [1.0, True])
def test_element_refuses_non_integer_coordinates(bad):
    # (0, 1, 0, 1.0) built and encoded to 10.0; (0, 1, 0, True) built
    p = SpaceParams(2, 2)
    with pytest.raises(ValueError) as err:
        GnElement(p, (0, 1, 0, bad))
    assert str(err.value) == f"coordinate {bad!r} is not an integer"


def test_element_keeps_coordinates_as_a_tuple_of_int():
    # a list of coordinates built an element that could not be hashed
    p = SpaceParams(2, 2)
    x = GnElement(p, [0, 1, 0, 1])
    assert x.coords == (0, 1, 0, 1) and type(x.coords) is tuple
    assert hash(x) == hash(make_element(p, [0, 1, 0, 1]))
    y = GnElement(p, (np.int64(0), np.uint8(1), 0, np.int32(1)))
    assert y == x and all(type(c) is int for c in y.coords)
    assert encode(y) == 10 and type(encode(y)) is int


@pytest.mark.parametrize("bad", [2.0, True])
def test_decode_refuses_a_non_integer_index(bad):
    # decode(2.0, p) returned (0.0, 1.0, 0.0, 0.0)
    p = SpaceParams(2, 2)
    with pytest.raises(ValueError) as err:
        decode(bad, p)
    assert str(err.value) == f"index {bad!r} is not an integer"
    x = decode(np.int64(2), p)
    assert x == decode(2, p) and all(type(c) is int for c in x.coords)


def test_element_text_round_trip():
    p = SpaceParams(2, 2)
    x = parse_element(p, "0,1,0,1")
    assert x.coords == (0, 1, 0, 1)
    assert str(x) == "0,1,0,1"
    with pytest.raises(ValueError):
        parse_element(p, "0,1,x,1")


def test_apply_affine_identity_and_translation():
    p = SpaceParams(2, 2)
    x = make_element(p, [1, 0, 1, 1])
    assert apply_affine(AffineMap.identity(p), x) == x
    tau = AffineMap(2, np.eye(4, dtype=int), [0, 0, 0, 1])
    assert apply_affine(tau, zero_element(p)).coords == (0, 0, 0, 1)


def test_apply_affine_c_twist_matches_generator_route():
    # assemble the map from its split parts and compare with the direct action
    p = SpaceParams(2, 2)
    cmap = generator_action(Generator("C", 1), p)
    assembled = AffineMap(2, cmap.linear, [0, 1, 0, 1])
    assert np.array_equal(cmap.translation, np.array([0, 1, 0, 1]))
    assert apply_affine(assembled, zero_element(p)).coords == (0, 1, 0, 1)


def _fresh_stdout(code: str) -> str:
    """stdout of `code` run in a new interpreter that imports from src/."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    result = subprocess.run([sys.executable, "-c", code],
                            env=env, capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    return result.stdout.strip()


def test_import_leaves_sympy_unloaded():
    assert _fresh_stdout("import sys, mcgorbits; print('sympy' in sys.modules)") == "False"


def test_numpy_is_the_only_runtime_dependency():
    # importing every module of the package loads no third-party package,
    # whatever else the environment has installed; the census, the affine
    # maps and the cocycle then load numpy and nothing else
    added = _fresh_stdout(
        "import importlib, pkgutil, sys\n"
        "before = set(sys.modules)\n"
        "import mcgorbits\n"
        "for m in pkgutil.iter_modules(mcgorbits.__path__):\n"
        "    importlib.import_module('mcgorbits.' + m.name)\n"
        "def added():\n"
        "    names = {name.partition('.')[0] for name in set(sys.modules) - before}\n"
        "    print(' '.join(sorted(names - set(sys.stdlib_module_names))))\n"
        "added()\n"
        "p = mcgorbits.SpaceParams(2, 2)\n"
        "mcgorbits.enumerate_orbits(p)\n"
        "mcgorbits.generator_action(mcgorbits.Generator('C', 1), p)\n"
        "mcgorbits.cocycle(mcgorbits.standard_group(2), 'a1', 'b1')\n"
        "added()")
    assert added.splitlines() == ["mcgorbits", "mcgorbits numpy"]


def test_compose_identity_and_inverse():
    p = SpaceParams(2, 4, strict_euler=False)
    m = generator_action(Generator("C", 1), p)
    minv = generator_action(Generator("C", 1, -1), p)
    ident = AffineMap.identity(p)
    assert compose(ident, m) == m
    assert compose(m, minv) == ident
    assert compose(minv, m) == ident


def test_compose_c_twist_doubling():
    # translation of C1 o C1 at n=4 doubles to (0,2,0,2)
    p = SpaceParams(2, 4, strict_euler=False)
    m = generator_action(Generator("C", 1), p)
    mm = compose(m, m)
    assert list(mm.translation) == [0, 2, 0, 2]


def test_compose_matches_sequential_application():
    rng = random.Random(7)
    p = SpaceParams(3, 4)
    maps = [generator_action(Generator(k, i), p)
            for k, i in (("A", 2), ("B", 3), ("C", 1), ("C", 2))]
    for _ in range(50):
        m1, m2 = rng.choice(maps), rng.choice(maps)
        x = make_element(p, [rng.randrange(4) for _ in range(6)])
        assert apply_affine(compose(m1, m2), x) == apply_affine(m1, apply_affine(m2, x))


def test_compose_associative():
    rng = random.Random(11)
    p = SpaceParams(2, 6, strict_euler=False)
    gens = [generator_action(Generator(k, 1), p) for k in "ABC"]
    gens.append(generator_action(Generator("s"), p))
    for _ in range(30):
        a, b, c = (rng.choice(gens) for _ in range(3))
        assert compose(compose(a, b), c) == compose(a, compose(b, c))


def test_encode_examples():
    p = SpaceParams(2, 2)
    assert encode(make_element(p, [0, 0, 0, 0])) == 0
    assert encode(make_element(p, [1, 0, 0, 0])) == 1
    p3 = SpaceParams(2, 3, strict_euler=False)
    x = make_element(p3, [0, 0, 0, 2])
    # radix formula, summed independently
    assert encode(x) == sum(c * 3 ** j for j, c in enumerate(x.coords)) == 54


def test_encode_decode_round_trip_exhaustive():
    p = SpaceParams(2, 3, strict_euler=False)
    for i in range(p.size):
        assert encode(decode(i, p)) == i
    with pytest.raises(ValueError):
        decode(p.size, p)


def test_encode_decode_round_trip_random_large():
    p = SpaceParams(5, 4)
    rng = random.Random(3)
    for _ in range(200):
        x = make_element(p, [rng.randrange(4) for _ in range(10)])
        assert decode(encode(x), p) == x


@pytest.mark.parametrize("coords, named", [
    ((0, 0, 0, 5), "beta_2 = 5"),
    ((-1, 0, 0, 0), "alpha_1 = -1"),
])
def test_element_refuses_coordinates_outside_residues(coords, named):
    # encode would index past the space, and apply_word would carry the
    # coordinate along; the count is checked first, the range after it
    p = SpaceParams(2, 2)
    with pytest.raises(ValueError, match=f"outside \\[0, 2\\): {named}$") as err:
        GnElement(p, coords)
    assert not isinstance(err.value, DimensionError)
    with pytest.raises(DimensionError):
        GnElement(p, ())


@pytest.mark.parametrize("g, n, coords, named", [
    (2, 2, (0, 0, 0, 5), "beta_2 = 5"),
    # normalize's tail would reduce this beta and land on (0, 0, 0, 0) unchecked
    (2, 5, (0, 7, 0, 0), "beta_1 = 7"),
    (2, 5, (7, 1, 0, 0), "alpha_1 = 7"),
    (2, 5, (1, -1, 0, 0), "beta_1 = -1"),
    (3, 4, (4, 0, 0, 9, 0, 0), "alpha_1 = 4, beta_2 = 9"),
    (2, 1, (0, 0, 1, 0), "alpha_2 = 1"),
])
def test_coordinates_outside_residues_raise(g, n, coords, named):
    with pytest.raises(ValueError, match=f"outside \\[0, {n}\\): {named}$"):
        GnElement(SpaceParams(g, n, strict_euler=False), coords)


@st.composite
def _index_and_word(draw):
    g = draw(st.integers(2, 4))
    n = draw(st.integers(1, 12))
    p = SpaceParams(g, n, strict_euler=False)
    tokens = []
    for _ in range(draw(st.integers(0, 10))):
        kind = draw(st.sampled_from("ABCDs"))
        if kind == "s":
            tokens.append(Generator("s"))
        else:
            top = g if kind in "AB" else g - 1
            exponent = draw(st.integers(-3 * n - 3, 3 * n + 3).filter(bool))
            tokens.append(Generator(kind, draw(st.integers(1, top)), exponent))
    return p, draw(st.integers(0, p.size - 1)), GeneratorWord(tuple(tokens))


@settings(max_examples=200, deadline=None)
@given(case=_index_and_word())
def test_unchecked_builders_make_residues(case):
    # decode and apply_word skip GnElement's range check; each of their
    # states must pass it when rebuilt
    p, index, word = case
    x = decode(index, p)
    y = apply_word(word, x)
    for z in (x, y):
        assert all(type(c) is int for c in z.coords)
        assert GnElement(z.params, z.coords) == z


def test_array_codec_agrees_with_scalar():
    p = SpaceParams(3, 4)
    idx = np.arange(0, p.size, 97)
    mat = decode_array(idx, p)
    for k in (0, 5, len(idx) - 1):
        assert tuple(mat[k]) == decode(int(idx[k]), p).coords


def symplectic_form(p):
    """The standard J in the (alpha_1, beta_1, ...) ordering, mod n."""
    return np.kron(np.eye(p.g, dtype=np.int64), np.array([[0, 1], [-1, 0]])) % p.n


def test_generator_linear_parts_symplectic():
    # every orientation-preserving generator preserves J mod n
    for n in (2, 3, 4, 5):
        p = SpaceParams(3, n, strict_euler=False)
        J = symplectic_form(p)
        gens = [Generator("A", 1), Generator("A", 3), Generator("B", 2),
                Generator("C", 1), Generator("C", 2), Generator("D", 1)]
        for gen in gens:
            for e in (1, -1):
                m = generator_action(Generator(gen.kind, gen.index, e), p)
                assert np.array_equal((m.linear.T @ J @ m.linear) % n, J), (gen, e, n)
    # the reflection s is anti-symplectic for n > 2, so it is excluded
    p = SpaceParams(2, 4, strict_euler=False)
    smap = generator_action(Generator("s"), p)
    J = symplectic_form(p)
    assert np.array_equal((smap.linear.T @ J @ smap.linear) % 4, (-J) % 4)

