"""Tests for the circle-lift cocycle machinery."""

import math
import random

import numpy as np
import pytest

from mcgorbits import checks, euler
from mcgorbits.euler import (
    TOLERANCE, CocycleValue, FuchsianGroup, IllConditionedError, LiftedCircleMap,
    axes_cross, cocycle, conjugated_generator_word, fixed_angles, nu_consistency,
    parse_surface_word, relator_euler_number, sigma0_lift, standard_group,
    _polygon_generators, _projective_distance,
)
from mcgorbits.space import SpaceParams, make_element

PI = math.pi


@pytest.fixture(scope="module")
def g2():
    return standard_group(2)


@pytest.fixture(scope="module")
def g3():
    return standard_group(3)


def rand_word(rng, genus, length):
    names = [f"{letter}{i}" for letter in "ab" for i in range(1, genus + 1)]
    return tuple((rng.choice(names), rng.choice([-1, 1])) for _ in range(length))


def test_construction_residuals(g2, g3):
    assert g2.relator_residual() < 1e-9
    assert g3.relator_residual() < 1e-6
    with pytest.raises(ValueError):
        standard_group(1)


def test_short_words_hyperbolic(g2):
    rng = random.Random(4)
    for _ in range(60):
        w = rand_word(rng, 2, rng.randrange(1, 7))
        m = g2.evaluate(w)
        tr = abs(m[0, 0] + m[1, 1])
        if tr <= 2 + 1e-9:
            # freely reduced to the identity or a relator conjugate
            assert min(np.max(np.abs(m - np.eye(2))),
                       np.max(np.abs(m + np.eye(2)))) < 1e-9


def test_sigma0_fixes_axis(g2):
    m = g2.evaluate("a1")
    plus, minus = fixed_angles(m)
    lift = sigma0_lift(g2, "a1")
    for anchor in (plus, minus):
        for k in (-1, 0, 1, 2):
            assert abs(lift(anchor + k * PI) - (anchor + k * PI)) < 1e-9


def test_sigma0_inverse_property(g2):
    rng = random.Random(8)
    for _ in range(25):
        w = rand_word(rng, 2, rng.randrange(1, 5))
        winv = tuple((n, -e) for (n, e) in reversed(w))
        f = sigma0_lift(g2, w)
        finv = sigma0_lift(g2, winv)
        for t in (0.21, 1.57, 2.9):
            assert abs(finv(f(t)) - t) < 1e-7


def test_sigma0_conjugation_equivariance(g2):
    rng = random.Random(15)
    for _ in range(20):
        w = rand_word(rng, 2, rng.randrange(1, 4))
        h = rand_word(rng, 2, rng.randrange(1, 4))
        hinv = tuple((n, -e) for (n, e) in reversed(h))
        conj = h + w + hinv
        m = g2.evaluate(conj)
        if abs(m[0, 0] + m[1, 1]) <= 2 + 1e-9:
            continue
        left = sigma0_lift(g2, conj)
        fh = sigma0_lift(g2, h)
        fw = sigma0_lift(g2, w)
        fh_inv = sigma0_lift(g2, hinv)
        for t in (0.4, 2.2):
            assert abs(left(t) - fh(fw(fh_inv(t)))) < 1e-6


def test_delta_equivariance_machine_precision(g2):
    rng = random.Random(16)
    for _ in range(20):
        w = rand_word(rng, 2, rng.randrange(1, 5))
        f = sigma0_lift(g2, w)
        for t in (0.0, 0.9, 1.8, 2.7):
            assert abs(f(t + PI) - f(t) - PI) < 1e-12


def test_translation_numbers(g2):
    f = sigma0_lift(g2, "a1")
    assert abs(f.translation_number()) < 1e-3


def test_cocycle_of_inverse_pair(g2):
    assert cocycle(g2, "a1", "a1^-1").value == 0
    assert cocycle(g2, "a1 b1", "b1^-1 a1^-1").value == 0


def test_cocycle_with_identity_factor(g2):
    assert cocycle(g2, "a1 a1^-1", "b1").value == 0


def test_cocycle_crossing_axes(g2):
    assert axes_cross(g2, "a1", "b1")
    assert cocycle(g2, "a1", "b1").value == 0


def test_cocycle_crossing_axes_sampled(g2):
    rng = random.Random(23)
    checked = 0
    for _ in range(250):
        w1 = rand_word(rng, 2, rng.randrange(1, 4))
        w2 = rand_word(rng, 2, rng.randrange(1, 4))
        try:
            if not axes_cross(g2, w1, w2):
                continue
            value = cocycle(g2, w1, w2).value
        except IllConditionedError:
            continue
        assert value == 0, (w1, w2)
        checked += 1
    assert checked > 30


def test_cocycle_values_bounded(g2):
    rng = random.Random(7)
    seen = set()
    for _ in range(200):
        w1 = rand_word(rng, 2, rng.randrange(1, 7))
        w2 = rand_word(rng, 2, rng.randrange(1, 7))
        try:
            cv = cocycle(g2, w1, w2)
        except IllConditionedError:
            continue
        assert cv.value in (-1, 0, 1)
        assert cv.residual < 1e-6
        seen.add(cv.value)
    assert seen == {-1, 0, 1}


def test_cocycle_identity_on_triples(g2):
    # c(u,v) + c(uv,w) = c(v,w) + c(u,vw)
    rng = random.Random(31)
    done = 0
    for _ in range(120):
        u = rand_word(rng, 2, rng.randrange(1, 4))
        v = rand_word(rng, 2, rng.randrange(1, 4))
        w = rand_word(rng, 2, rng.randrange(1, 4))
        try:
            lhs = cocycle(g2, u, v).value + cocycle(g2, u + v, w).value
            rhs = cocycle(g2, v, w).value + cocycle(g2, u, v + w).value
        except IllConditionedError:
            continue
        assert lhs == rhs, (u, v, w)
        done += 1
    assert done > 60


def test_positive_cocycle_configuration(g2, g3):
    for grp in (g2, g3):
        for i in range(1, grp.genus):
            aprime = conjugated_generator_word(i + 1)
            inv = tuple((n, -e) for (n, e) in reversed(aprime))
            cv = cocycle(grp, f"a{i}", inv)
            assert cv.value == 1, (grp.genus, i)
            assert cv.residual < 1e-6


def test_relator_euler_number(g2, g3):
    assert relator_euler_number(g2) == 2
    assert relator_euler_number(g3) == 4


@pytest.mark.parametrize("genus", list(range(2, 45)) + [51, 52])
def test_relator_euler_number_at_every_realizable_genus(genus):
    # the raw polygon realization, without the short-word check of
    # standard_group: its orientation already gives the positive sign
    group = FuchsianGroup(genus, _polygon_generators(genus))
    assert relator_euler_number(group) == 2 * genus - 2


def test_relator_closing_product_is_judged_at_group_tolerance():
    # the genus-12 relator closes to within about 1.4e-9: the identity at
    # TOLERANCE (1e-6), though a lift at 1e-9 would read it as parabolic
    assert relator_euler_number(standard_group(12)) == 22


def test_orientation_reversal_negates(g2):
    # conjugate by the line reflection theta -> -theta, diag(1, -1)
    r = np.diag([1.0, -1.0])
    flipped = FuchsianGroup(2, {name: r @ m @ r for name, m in g2.generators.items()})
    assert relator_euler_number(flipped) == -2
    aprime = conjugated_generator_word(2)
    inv = tuple((n, -e) for (n, e) in reversed(aprime))
    assert cocycle(flipped, "a1", inv).value == -1


def test_nu_consistency(g2, g3):
    report = nu_consistency(g2, make_element(SpaceParams(2, 2), [1, 0, 1, 1]))
    assert report["passes"] and report["cocycle_sum"] == 2
    p24 = SpaceParams(2, 4, strict_euler=False)
    report = nu_consistency(g2, make_element(p24, [0, 1, 2, 3]))
    assert not report["passes"]
    assert report["relator_cochain_value"] == 2
    g4 = standard_group(4)
    report = nu_consistency(g4, make_element(SpaceParams(4, 3), [1, 2, 0, 1, 2, 2, 0, 1]))
    assert report["passes"] and report["cocycle_sum"] == 6


def test_fixed_angles_reject_elliptic():
    rotation = np.array([[math.cos(0.3), -math.sin(0.3)],
                         [math.sin(0.3), math.cos(0.3)]])
    with pytest.raises(IllConditionedError):
        fixed_angles(rotation)


def test_lift_keeps_fresh_fixed_angles_and_triviality(g2):
    rng = random.Random(11)
    words = [((name, e),) for name in g2.generators for e in (1, -1)]
    words += [rand_word(rng, 2, rng.randrange(1, 7)) for _ in range(50)]
    assert len(words) == 58
    for word in words:
        m = g2.evaluate(word)
        lift = LiftedCircleMap(m)
        try:
            fresh = fixed_angles(m)
        except IllConditionedError:
            fresh = None
        for _ in range(2):  # the first use fills the cache, the second reads it
            if not lift.is_trivial():
                lift(0.5)
            assert lift.is_trivial() == (_projective_distance(m) < TOLERANCE)
            if fresh is None:
                with pytest.raises(IllConditionedError):
                    lift.fixed_angles
            else:
                assert lift.fixed_angles == fresh


def _matrix_distance(m):
    # the matrix form the scalar reads replace
    return min(float(np.max(np.abs(m - np.eye(2)))),
               float(np.max(np.abs(m + np.eye(2)))))


def test_projective_distance_is_bit_identical_to_the_matrix_form(g2):
    rng = random.Random(5)
    mats = [g2.evaluate(rand_word(rng, 2, rng.randrange(0, 7))) for _ in range(200)]
    mats += [np.array([[-0.0, 0.0], [-0.0, 1.0]]),
             np.array([[-1.0, -0.0], [0.0, -1.0]]),
             np.eye(2) + 1e-7, -np.eye(2) - 1e-7,
             np.array([[math.inf, 0.0], [0.0, 1.0]])]
    for m in mats:
        assert _projective_distance(m) == _matrix_distance(m)


@pytest.mark.parametrize("sign", (1.0, -1.0))
@pytest.mark.parametrize("entry", ((0, 0), (0, 1), (1, 0), (1, 1)))
def test_projective_distance_keeps_nan(sign, entry):
    # Python's max drops a NaN that is not its first argument; a matrix
    # with a NaN entry must still read NaN, and so not trivial
    m = sign * np.eye(2)
    m[entry] = math.nan
    assert math.isnan(_matrix_distance(m))
    assert math.isnan(_projective_distance(m))
    assert not LiftedCircleMap(m).is_trivial()


def test_lift_of_elliptic_matrix_raises_when_called_not_built():
    rotation = np.array([[math.cos(0.3), -math.sin(0.3)],
                         [math.sin(0.3), math.cos(0.3)]])
    lift = LiftedCircleMap(rotation)
    for _ in range(2):
        with pytest.raises(IllConditionedError, match="is not hyperbolic"):
            lift(0.2)


def test_generator_powers_are_kept_and_read_only(g2):
    a = g2.generators["a1"]
    cube = g2.generator("a1", 3)
    assert g2.generator("a1", 3) is cube
    assert not cube.flags.writeable
    assert np.allclose(cube, a @ a @ a, rtol=1e-12, atol=1e-9)
    with pytest.raises(KeyError):
        g2.generator("a3", 1)


def test_sigma0_rejects_unknown_generator(g2):
    with pytest.raises(KeyError):
        sigma0_lift(g2, "a3")


def test_parse_surface_word():
    assert parse_surface_word("a1 b2^-1") == (("a1", 1), ("b2", -1))
    with pytest.raises(ValueError):
        parse_surface_word("A1")
    with pytest.raises(ValueError):
        parse_surface_word("a1^0")


def test_one_residual_bound_for_lift_and_sample(g2, monkeypatch):
    # a residual equal to the tolerance is one lift_cocycle returns, so
    # cocycle_sample must count it in range; both go through one bound
    w1, w2 = (("a1", 1),), (("b1", 1),)
    at, above = TOLERANCE, 2 * TOLERANCE
    assert euler.residual_in_bound(at) and not euler.residual_in_bound(above)
    assert checks.cocycle_sample(g2, w1, w2, CocycleValue(0, at)).in_range
    assert not checks.cocycle_sample(g2, w1, w2, CocycleValue(0, above)).in_range

    monkeypatch.setattr(euler, "residual_in_bound", lambda residual: False)
    assert not checks.cocycle_sample(g2, w1, w2, CocycleValue(0, 0.0)).in_range
    with pytest.raises(IllConditionedError, match="cocycle samples disagree"):
        cocycle(g2, "a1", "b1")
