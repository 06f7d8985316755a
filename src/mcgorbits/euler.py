"""Circle lifts and the integer cocycle of a hyperbolic surface group.

A genus-g surface group is realized as a cocompact lattice in
PSL(2, R) by the side pairings of the regular 4g-gon (interior angle
pi/2g), with the boundary labeled a_1 b_1 a_1^-1 b_1^-1 ... so the
standard single-relator presentation holds.

The group acts on the circle of lines through the origin, parameterized
by the angle theta in R/(pi Z); lifts to the line commute with the deck
shift delta: theta -> theta + pi.  Every nontrivial element is
hyperbolic and has a distinguished lift fixing the lifts of its fixed
angles; the failure of this section to be multiplicative is an integer:

    lift0(uv) = delta^c(u, v) . lift0(u) lift0(v)

c takes only the values -1, 0, +1, vanishes when the axes of u and v
cross, and summed along the relator yields the Euler number 2g - 2 of
the unit tangent bundle, with a positive sign for the orientation of
the regular 4g-gon realization (`standard_group` checks the sign).

A `LiftedCircleMap` works out whether its matrix is projectively
trivial, and its fixed angles, once, on its first evaluation, and keeps
them; `lift_cocycle` evaluates each of its three maps at six angles.
`FuchsianGroup.generator` likewise keeps each power of a generator it
builds.  Both cache exactly the values that were recomputed before, so
every lift value and residual is bit-identical.

The matrices are numpy arrays; the functions that build them import
numpy, so importing this module does not load it.
"""

from __future__ import annotations

import cmath
import math
import re
from dataclasses import dataclass

PI = math.pi


class ConstructionError(RuntimeError):
    """The polygon realization failed its own verification."""


class IllConditionedError(ValueError):
    """Lift or cocycle evaluation too close to a degenerate configuration."""


class SamplingCapError(RuntimeError):
    """A sampling loop stopped at its draw cap before it had its samples."""


# a sampling loop draws at most this many pairs per sample it must accept
MAX_DRAWS_PER_SAMPLE = 20

# A matrix within TOLERANCE of +-I is the identity of the line, a sampled
# cocycle value must lie within it of an integer, and the relator must
# close within it.
TOLERANCE = 1e-6


def residual_in_bound(residual: float) -> bool:
    """The one bound on a sampled cocycle's distance from an integer:
    `lift_cocycle` returns a value only when it holds, and
    `checks.cocycle_sample` counts a value in range only when it holds."""
    return residual <= TOLERANCE


# translation numbers iterate a lift this often from this angle
TRANSLATION_ITERATIONS = 64
TRANSLATION_START = 0.383


# --- plane hyperbolic geometry helpers (upper half-plane, SL(2,R)) ----------

def _mobius(m: np.ndarray, z: complex) -> complex:
    return (m[0, 0] * z + m[0, 1]) / (m[1, 0] * z + m[1, 1])


def _normalized(m: np.ndarray) -> np.ndarray:
    det = m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]
    if det <= 0:  # a product of SL(2,R) matrices, lost to rounding
        raise IllConditionedError(f"matrix has nonpositive determinant {det}")
    return m / math.sqrt(det)


def _align(p: complex, q: complex) -> np.ndarray:
    """SL(2,R) map sending p to i and q onto the ray above i."""
    import numpy as np

    y = p.imag
    move = np.array([[1 / math.sqrt(y), -p.real / math.sqrt(y)],
                     [0.0, math.sqrt(y)]])
    q1 = _mobius(move, q)
    zeta = (q1 - 1j) / (q1 + 1j)
    phi = -cmath.phase(zeta)
    half = phi / 2
    spin = np.array([[math.cos(half), math.sin(half)],
                     [-math.sin(half), math.cos(half)]])
    return spin @ move


# --- the circle of lines and canonical lifts --------------------------------

def circle_angle(m: np.ndarray, t: float) -> float:
    """Image of the line at angle t under m, as an angle in [0, pi)."""
    x = m[0, 0] * math.cos(t) + m[0, 1] * math.sin(t)
    y = m[1, 0] * math.cos(t) + m[1, 1] * math.sin(t)
    return math.atan2(y, x) % PI


def fixed_angles(m: np.ndarray):
    """(attracting, repelling) fixed angles in [0, pi) of a hyperbolic matrix."""
    tr = m[0, 0] + m[1, 1]
    disc = tr * tr - 4
    if disc <= 0:
        raise IllConditionedError(f"matrix with trace {tr} is not hyperbolic")
    root = math.sqrt(disc)
    lam1 = (tr + root) / 2
    lam2 = (tr - root) / 2
    if abs(lam1) < abs(lam2):
        lam1, lam2 = lam2, lam1

    def eigvec_angle(lam):
        v1 = (m[0, 1], lam - m[0, 0])
        v2 = (lam - m[1, 1], m[1, 0])
        v = v1 if math.hypot(*v1) >= math.hypot(*v2) else v2
        return math.atan2(v[1], v[0]) % PI

    return eigvec_angle(lam1), eigvec_angle(lam2)


def _projective_distance(m: np.ndarray) -> float:
    """Largest entry of m - I or of m + I, whichever is smaller; NaN if
    any entry of m is NaN.

    Read entry by entry as Python floats: x - 1.0, x + 1.0 and |x| are
    the same IEEE operations numpy does, and an off-diagonal x - 0.0
    has the same magnitude as x, so the value is bit for bit that of
    the matrix form.  Python's `max` can drop a NaN, so a NaN entry is
    caught first.
    """
    (a, b), (c, d) = m.tolist()
    if any(map(math.isnan, (a, b, c, d))):
        return math.nan
    off = max(abs(b), abs(c))
    return min(max(abs(a - 1.0), off, abs(d - 1.0)),
               max(abs(a + 1.0), off, abs(d + 1.0)))


@dataclass(frozen=True)
class LiftedCircleMap:
    """The canonical fixed-point lift to the line of the projective
    action of `matrix`.  A matrix within TOLERANCE of +-I lifts to the
    identity of the line.
    """

    matrix: np.ndarray

    def _kept(self, name: str, compute):
        """compute(matrix), worked out on first use and kept under `name`;
        a call that raises keeps nothing, so it raises on every use."""
        value = self.__dict__.get(name)
        if value is None:
            value = compute(self.matrix)
            object.__setattr__(self, name, value)
        return value

    @property
    def fixed_angles(self) -> tuple:
        """(attracting, repelling) fixed angles of the matrix, kept."""
        return self._kept("_fixed_angles", fixed_angles)

    def is_trivial(self) -> bool:
        return self._kept("_trivial", lambda m: _projective_distance(m) < TOLERANCE)

    def __call__(self, t: float) -> float:
        if self.is_trivial():
            return t
        m = self.matrix
        plus, minus = self.fixed_angles
        x = (t - plus) % PI
        k = round((t - plus - x) / PI)
        raw = (circle_angle(m, t) - plus) % PI
        xm = (minus - plus) % PI
        # reject branch flips near the fixed angles: the canonical lift
        # maps [0, xm] into itself and [xm, pi] into itself
        if x <= xm and raw > (xm + PI) / 2:
            raw -= PI
        elif x > xm and raw < xm / 2:
            raw += PI
        return plus + k * PI + raw

    def translation_number(self) -> float:
        """Poincare average with one Richardson step."""
        t = TRANSLATION_START
        for _ in range(TRANSLATION_ITERATIONS):
            t = self(t)
        half = (t - TRANSLATION_START) / TRANSLATION_ITERATIONS
        t2 = t
        for _ in range(TRANSLATION_ITERATIONS):
            t2 = self(t2)
        full = (t2 - TRANSLATION_START) / (2 * TRANSLATION_ITERATIONS)
        return 2 * full - half


SAMPLE_ANGLES = (0.137, 0.731, 1.329, 1.923, 2.517, 3.017)


def lift_cocycle(m1: np.ndarray, m2: np.ndarray):
    """(c, residual): the deck power relating lift0(m1 m2) to lift0(m1) lift0(m2).

    Each of the three lifts reads a matrix within TOLERANCE of +-I as
    the identity of the line; any other matrix must be hyperbolic.
    """
    f1 = LiftedCircleMap(m1)
    f2 = LiftedCircleMap(m2)
    f12 = LiftedCircleMap(_normalized(m1 @ m2))
    values = []
    for t in SAMPLE_ANGLES:
        values.append((f12(t) - f1(f2(t))) / PI)
    ints = {round(v) for v in values}
    residual = max(abs(v - round(v)) for v in values)
    if len(ints) != 1 or not residual_in_bound(residual):
        raise IllConditionedError(
            f"cocycle samples disagree: {values} (residual {residual:.3g})")
    return ints.pop(), residual


# --- words in the surface group ----------------------------------------------

_SURFACE_TOKEN = re.compile(r"([ab])([0-9]+)(?:\^(-?[0-9]+))?$")


def parse_surface_word(text: str):
    """Tokens like "a1 b2^-1" -> tuple of (name, exponent)."""
    tokens = []
    for piece in text.split():
        m = _SURFACE_TOKEN.fullmatch(piece)
        if m is None:
            raise ValueError(f"bad surface-group token {piece!r}")
        exp = 1 if m.group(3) is None else int(m.group(3))
        if exp == 0:
            raise ValueError(f"zero exponent in {piece!r}")
        tokens.append((m.group(1) + m.group(2), exp))
    return tuple(tokens)


@dataclass(frozen=True)
class CocycleValue:
    value: int
    residual: float


class FuchsianGroup:
    """Marked genus-g surface group realized in SL(2,R).

    `generators` maps names "a1".."ag", "b1".."bg" to matrices; the
    relator [a1,b1]...[ag,bg] holds projectively within TOLERANCE.
    """

    def __init__(self, genus: int, generators: dict):
        import numpy as np

        self.genus = genus
        self.generators = dict(generators)
        self._inverses = {name: _normalized(np.array(
            [[m[1, 1], -m[0, 1]], [-m[1, 0], m[0, 0]]]))
            for name, m in self.generators.items()}
        self._powers = {}

    def generator(self, name: str, exponent: int = 1) -> np.ndarray:
        """name^exponent, built on first use and kept (read-only)."""
        key = (name, exponent)
        m = self._powers.get(key)
        if m is not None:
            return m
        if name not in self.generators:
            raise KeyError(f"unknown generator {name!r} for genus {self.genus}")
        import numpy as np

        base = self.generators[name] if exponent > 0 else self._inverses[name]
        m = np.eye(2)
        for _ in range(abs(exponent)):
            m = _normalized(m @ base)
        m.setflags(write=False)
        self._powers[key] = m
        return m

    def evaluate(self, word) -> np.ndarray:
        """Matrix of a word, given as text or (name, exponent) tokens."""
        import numpy as np

        if isinstance(word, str):
            word = parse_surface_word(word)
        m = np.eye(2)
        for name, exp in word:
            m = _normalized(m @ self.generator(name, exp))
        return m

    def relator_letters(self):
        """The relator a1 b1 a1^-1 b1^-1 ... as single-letter tokens."""
        letters = []
        for i in range(1, self.genus + 1):
            letters += [(f"a{i}", 1), (f"b{i}", 1), (f"a{i}", -1), (f"b{i}", -1)]
        return tuple(letters)

    def relator_residual(self) -> float:
        return _projective_distance(self.evaluate(self.relator_letters()))


def sigma0_lift(group: FuchsianGroup, word) -> LiftedCircleMap:
    """The canonical (fixed-point) lift of a word's circle action."""
    m = group.evaluate(word)
    if _projective_distance(m) >= TOLERANCE and abs(m[0, 0] + m[1, 1]) <= 2:
        raise IllConditionedError(
            f"word evaluates to a non-hyperbolic matrix (trace {m[0,0]+m[1,1]:.6f})")
    return LiftedCircleMap(m)


def cocycle(group: FuchsianGroup, w1, w2) -> CocycleValue:
    """The integer c with lift0(w1 w2) = delta^c lift0(w1) lift0(w2).

    The value is returned as computed, even outside {-1, 0, 1}:
    `checks.cocycle_sample` judges it.  IllConditionedError is raised
    only when a factor or the product is not hyperbolic, or the sampled
    angles disagree.
    """
    return CocycleValue(*lift_cocycle(group.evaluate(w1), group.evaluate(w2)))


def sample_cocycles(group: FuchsianGroup, rng, count: int, max_len: int):
    """Yield (w1, w2, CocycleValue) for `count` random pairs of words.

    Each word has 1..max_len letters, drawn from a1..ag, b1..bg with a
    random sign; w1 is drawn before w2, so a seeded `rng` gives the same
    pairs on every run.  Ill-conditioned pairs are skipped; after
    MAX_DRAWS_PER_SAMPLE * count draws SamplingCapError is raised.
    """
    names = [f"{letter}{i}" for letter in "ab" for i in range(1, group.genus + 1)]

    def word():
        return tuple((rng.choice(names), rng.choice([-1, 1]))
                     for _ in range(rng.randrange(1, max_len + 1)))

    accepted = draws = 0
    while accepted < count:
        if draws == MAX_DRAWS_PER_SAMPLE * count:
            raise SamplingCapError(
                f"stopped after {draws} attempts: "
                f"{draws - accepted} rejected as ill-conditioned, "
                f"{accepted} of {count} samples accepted")
        draws += 1
        w1, w2 = word(), word()
        try:
            value = cocycle(group, w1, w2)
        except IllConditionedError:
            continue
        accepted += 1
        yield w1, w2, value


def axes_cross(group: FuchsianGroup, w1, w2) -> bool:
    """Do the axes of the two (hyperbolic) words cross transversely?"""
    p1, q1 = fixed_angles(group.evaluate(w1))
    p2, q2 = fixed_angles(group.evaluate(w2))
    span = (q1 - p1) % PI
    a = (p2 - p1) % PI
    b = (q2 - p1) % PI
    eps = 1e-12
    if min(a, b, abs(a - span), abs(b - span)) < eps:
        raise IllConditionedError("axes share an endpoint within tolerance")
    return (a < span) != (b < span)


def _relator_cocycles(group: FuchsianGroup) -> list:
    """c(prefix, next letter) for each relator letter after the first.

    Raises ConstructionError when the relator does not multiply to 1.
    """
    letters = group.relator_letters()
    prefix = group.evaluate(letters[:1])
    values = []
    for name, exp in letters[1:-1]:
        step = group.generator(name, exp)
        values.append(lift_cocycle(prefix, step)[0])
        prefix = _normalized(prefix @ step)
    step = group.generator(*letters[-1])
    if not _projective_distance(prefix @ step) < TOLERANCE:
        raise ConstructionError("relator does not multiply to the identity")
    # the closing product is the identity at TOLERANCE, so its lift is
    # the identity of the line, not a lift of a near-parabolic map
    return values + [lift_cocycle(prefix, step)[0]]


def relator_euler_number(group: FuchsianGroup) -> int:
    """Accumulated cocycle along the relator: sum of c(prefix, next letter).

    The cochain-extension rule nu(uv) = nu(u) + nu(v) - c(u, v) telescoped
    over the relator accumulates exactly this sum, so a cochain on the
    generators extends consistently mod n iff n divides it.  For
    `standard_group` it equals +(2g - 2).
    """
    return sum(_relator_cocycles(group))


def nu_consistency(group: FuchsianGroup, x) -> dict:
    """Extend the cochain given by x along the relator; must close to 0 mod n.

    x is a GnElement (alpha_i = value on a_i, beta_i = value on b_i).
    The closing defect is the relator Euler number mod n, so the check
    passes exactly when n divides 2g - 2.
    """
    g, n = x.params.g, x.params.n
    if g != group.genus:
        raise ValueError(f"element genus {g} != group genus {group.genus}")
    values = {}
    for i in range(1, g + 1):
        values[f"a{i}"] = x.coords[2 * i - 2]
        values[f"b{i}"] = x.coords[2 * i - 1]
    letters = group.relator_letters()
    cocycles = _relator_cocycles(group)
    acc = letters[0][1] * values[letters[0][0]]
    for (name, exp), c in zip(letters[1:], cocycles):
        acc = (acc + exp * values[name] - c) % n
    return {
        "relator_cochain_value": acc % n,
        "cocycle_sum": sum(cocycles),
        "passes": acc % n == 0,
    }


# --- the polygon realization --------------------------------------------------

def _polygon_generators(genus: int) -> dict:
    """Side pairings of the regular 4g-gon with commutator edge word."""
    import numpy as np

    N = 4 * genus
    cosh_r = 1 / math.tan(PI / N) ** 2
    rho = math.sqrt((cosh_r - 1) / (cosh_r + 1))
    disk = [rho * cmath.exp(2j * PI * k / N) for k in range(N)]
    verts = [1j * (1 + v) / (1 - v) for v in disk]  # to the half-plane

    def side(k):
        return verts[k % N], verts[(k + 1) % N]

    # Each side pairing carries its source side onto its partner with the
    # endpoints reversed (the gluing reverses the boundary orientation).
    # Reading the single vertex cycle of this gluing gives the relation
    # [b_g^-1, a_g] ... [b_1^-1, a_1] = 1 for the raw pairing maps, so
    # taking the b generators as the inverse pairings yields the marked
    # presentation [a_1, b_1] ... [a_g, b_g] = 1.
    def pairing(k, j):
        zk0, zk1 = side(k)
        zj0, zj1 = side(j)
        return _normalized(np.linalg.inv(_align(zj1, zj0)) @ _align(zk0, zk1))

    gens = {}
    for m in range(genus):
        gens[f"a{m + 1}"] = pairing(4 * m + 2, 4 * m)
        gens[f"b{m + 1}"] = pairing(4 * m + 1, 4 * m + 3)
    return gens


def standard_group(genus: int) -> FuchsianGroup:
    """Regular-4g-gon realization.

    Verifies the relator within TOLERANCE, checks that all reduced words
    of up to 3 letters are hyperbolic, and checks that the relator Euler
    number is +(2g - 2), as the polygon's orientation gives it at every
    realizable genus.  Raises ConstructionError when a check fails, as
    the relator residual check does at most genera from 45 on.
    """
    if genus < 2:
        raise ValueError(f"genus must be >= 2, got {genus}")
    group = FuchsianGroup(genus, _polygon_generators(genus))
    residual = group.relator_residual()
    if residual > TOLERANCE:
        raise ConstructionError(
            f"genus {genus} cannot be realized: relator residual "
            f"{residual:.3g} exceeds tolerance {TOLERANCE:.3g}")
    _check_short_words_hyperbolic(group, 3)
    try:
        e = relator_euler_number(group)
    except IllConditionedError as exc:
        raise ConstructionError(
            f"genus {genus} cannot be realized: the relator Euler number "
            f"of its 4g-gon realization is ill-conditioned ({exc})") from None
    if e != 2 * genus - 2:
        raise ConstructionError(
            f"relator Euler number {e}, expected 2g-2 = {2 * genus - 2}")
    return group


def _check_short_words_hyperbolic(group: FuchsianGroup, max_length: int):
    """Every nontrivial reduced word up to max_length must be hyperbolic."""
    letters = []
    for name in group.generators:
        letters.append((name, 1))
        letters.append((name, -1))

    def extend(word, depth):
        for letter in letters:
            if word and letter == (word[-1][0], -word[-1][1]):
                continue  # free reduction
            new = word + [letter]
            m = group.evaluate(new)
            if abs(m[0, 0] + m[1, 1]) <= 2 + 1e-9:
                raise ConstructionError(
                    f"short word {new} is not hyperbolic "
                    f"(trace {m[0, 0] + m[1, 1]:.6f}); not a discrete realization")
            if depth + 1 < max_length:
                extend(new, depth + 1)

    extend([], 0)


def conjugated_generator_word(i: int):
    """b_i a_i b_i^-1: the handle loop pushed to the pants boundary.

    This is the conjugate for which the separating-curve identity
    c_i = a_i (b_{i+1} a_{i+1} b_{i+1}^-1)^-1 holds; its inverse pairs
    with a_i in the positive-cocycle configuration.
    """
    return ((f"b{i}", 1), (f"a{i}", 1), (f"b{i}", -1))
