"""State space for index-n fiberwise coverings of the unit tangent bundle.

A covering of index n along the fibers over a genus-g surface is recorded
by the residues a 1-cochain takes on the 2g standard loops, giving a point
of (Z/nZ)^(2g) with coordinates ordered (alpha_1, beta_1, ..., alpha_g,
beta_g).  Mapping classes act on this space by invertible affine maps over
Z/nZ; this module holds the space parameters, its elements, affine maps,
and the mixed-radix indexing used by the exhaustive search code.

A `GnElement` refuses a coordinate that is not an integer, or lies
outside [0, n), with ValueError, and keeps its coordinates as a tuple of
int, so `encode`, `apply_word` and the normalizer see residues only.
`make_element` (by `% n`), `decode` (by `divmod`) and `action.apply_word`
(by `% n`) make residues by construction and skip the check through
`_residues`: the exhaustive checks build millions of states there, and
the check would double each.

States, their codec and the normalizer's paths compute without numpy,
so a process that only builds, replays and normalizes states never
loads it.  `AffineMap`, `apply_affine` and `decode_array` compute with
arrays and import numpy when first called.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field


class DimensionError(ValueError):
    """Vector or matrix size does not match the 2g coordinates."""


def _integer(value, name: str) -> int:
    """`value` as an int; a value that `operator.index` refuses (a float,
    a string) raises ValueError, and so does a bool, which
    `operator.index` would read as 0 or 1."""
    if not isinstance(value, bool):
        try:
            return operator.index(value)
        except TypeError:
            pass
    raise ValueError(f"{name} {value!r} is not an integer")


@dataclass(frozen=True)
class SpaceParams:
    """Genus g >= 2, covering index n >= 1.

    Coverings along the fibers exist only when n divides 2g - 2; by
    default that is enforced.  The affine twist action itself is defined
    for every n, so `strict_euler=False` permits experiments outside that
    regime (no classification claim is attached to them).  The flag only
    gates construction: params of one (g, n) are one space, equal and of
    one hash whatever the flag.
    """

    g: int
    n: int
    strict_euler: bool = field(default=True, compare=False)

    def __post_init__(self):
        g, n = _integer(self.g, "genus"), _integer(self.n, "index")
        if g < 2:
            raise ValueError(f"genus must be an integer >= 2, got {g!r}")
        if n < 1:
            raise ValueError(f"index must be an integer >= 1, got {n!r}")
        if self.strict_euler and (2 * g - 2) % n != 0:
            raise ValueError(
                f"n={n} does not divide 2g-2={2 * g - 2}; "
                "pass strict_euler=False to explore outside that regime")
        object.__setattr__(self, "g", g)
        object.__setattr__(self, "n", n)
        # the generated hash, computed once: a warm `normalize` hashes its
        # params in every `_tail` lookup, and the generated `__hash__`
        # would build and hash this tuple each time
        object.__setattr__(self, "_hash", hash((g, n)))

    def __hash__(self):
        return self._hash

    @property
    def dim(self) -> int:
        return 2 * self.g

    @property
    def size(self) -> int:
        """Number of states, n^(2g)."""
        return self.n ** (2 * self.g)


@dataclass(frozen=True)
class GnElement:
    """A state: 2g residues in [0, n), ordered alpha_1, beta_1, ...

    Any other coordinate raises ValueError naming it (`make_element`
    reduces mod n); the coordinates are kept as a tuple of int.  Only
    `make_element`, `decode` and `apply_word` skip the check.
    """

    params: SpaceParams
    coords: tuple

    def __post_init__(self):
        if len(self.coords) != self.params.dim:
            raise DimensionError(
                f"expected {self.params.dim} coordinates, got {len(self.coords)}")
        coords = tuple(_integer(c, "coordinate") for c in self.coords)
        object.__setattr__(self, "coords", coords)
        n = self.params.n
        if min(coords) < 0 or max(coords) >= n:
            bad = [f"{'beta' if j % 2 else 'alpha'}_{j // 2 + 1} = {c}"
                   for j, c in enumerate(coords) if not 0 <= c < n]
            raise ValueError(
                f"state {self} has coordinates outside [0, {n}): {', '.join(bad)}")

    def block(self, i: int) -> tuple:
        """(alpha_i, beta_i), 1-based."""
        return self.coords[2 * i - 2], self.coords[2 * i - 1]

    def __str__(self):
        return ",".join(str(c) for c in self.coords)


def _residues(params: SpaceParams, coords: tuple) -> GnElement:
    """GnElement of coordinates that are residues by construction, unchecked.

    Fields are set as the generated `__init__` sets them: writing
    `__dict__` directly would cost later attribute reads their fast path,
    and the kernels read a state's fields far more often than they build
    one.  `action.GeneratorWord` and `normalize.Certificate`, built once
    per `normalize` call and read a few times, make the opposite trade:
    a `GeneratorWord.tokens` read takes 20-22 ns against 4 ns, and a
    build 0.22-0.24 us against 0.28-0.29 us (BENCH_warm_normalize.json,
    `init_costs`).
    """
    x = object.__new__(GnElement)
    object.__setattr__(x, "params", params)
    object.__setattr__(x, "coords", coords)
    return x


def make_element(params: SpaceParams, values) -> GnElement:
    """Build a state from any integer vector, reducing mod n; a value
    that `operator.index` refuses (a float, a string) raises ValueError,
    and so does a bool, which `operator.index` would read as 0 or 1."""
    values = list(values)
    if len(values) != params.dim:
        raise DimensionError(
            f"expected {params.dim} values for g={params.g}, got {len(values)}")
    n = params.n
    return _residues(params, tuple(_integer(v, "coordinate") % n for v in values))


def zero_element(params: SpaceParams) -> GnElement:
    return GnElement(params, (0,) * params.dim)


def parse_element(params: SpaceParams, text: str) -> GnElement:
    """Parse the comma-separated text form, e.g. "0,1,0,1"."""
    try:
        values = [int(piece) for piece in text.split(",")]
    except ValueError as exc:
        raise ValueError(f"bad element {text!r}: {exc}") from None
    return make_element(params, values)


@dataclass(frozen=True)
class AffineMap:
    """x -> Lx + t over Z/nZ, with L an invertible 2g x 2g matrix.

    Entries are kept as canonical residues; linear and translation are
    read-only numpy arrays.  Invertibility is not checked: products of
    generator maps are invertible by design.
    """

    n: int
    linear: np.ndarray = field(compare=False)
    translation: np.ndarray = field(compare=False)

    def __post_init__(self):
        import numpy as np

        lin = np.asarray(self.linear, dtype=np.int64) % self.n
        tra = np.asarray(self.translation, dtype=np.int64) % self.n
        if lin.ndim != 2 or lin.shape[0] != lin.shape[1]:
            raise DimensionError(f"linear part must be square, got {lin.shape}")
        if tra.shape != (lin.shape[0],):
            raise DimensionError(
                f"translation shape {tra.shape} does not match linear {lin.shape}")
        lin.setflags(write=False)
        tra.setflags(write=False)
        object.__setattr__(self, "linear", lin)
        object.__setattr__(self, "translation", tra)

    @property
    def dim(self) -> int:
        return self.linear.shape[0]

    @classmethod
    def identity(cls, params: SpaceParams) -> "AffineMap":
        import numpy as np

        return cls(params.n, np.eye(params.dim, dtype=np.int64),
                   np.zeros(params.dim, dtype=np.int64))

    def __eq__(self, other):
        if not isinstance(other, AffineMap):
            return NotImplemented
        import numpy as np

        return (self.n == other.n
                and np.array_equal(self.linear, other.linear)
                and np.array_equal(self.translation, other.translation))

    def __hash__(self):
        return hash((self.n, self.linear.tobytes(), self.translation.tobytes()))


def apply_affine(m: AffineMap, x: GnElement) -> GnElement:
    """Return m(x) = Lx + t reduced mod n."""
    if m.dim != x.params.dim or m.n != x.params.n:
        raise DimensionError(
            f"map on (Z/{m.n})^{m.dim} applied to element of (Z/{x.params.n})^{x.params.dim}")
    import numpy as np

    coords = (m.linear @ np.array(x.coords, dtype=np.int64) + m.translation) % m.n
    return GnElement(x.params, coords.tolist())


def compose(m1: AffineMap, m2: AffineMap) -> AffineMap:
    """m1 after m2: apply_affine(compose(m1, m2), x) == m1(m2(x))."""
    if m1.dim != m2.dim or m1.n != m2.n:
        raise DimensionError("cannot compose maps of different dimensions or moduli")
    return AffineMap(m1.n, (m1.linear @ m2.linear) % m1.n,
                     (m1.linear @ m2.translation + m1.translation) % m1.n)


def encode(x: GnElement) -> int:
    """Mixed-radix index: sum of coords[j] * n^j; bijective with states."""
    n = x.params.n
    index = 0
    for c in reversed(x.coords):
        index = index * n + c
    return index


def decode(index: int, params: SpaceParams) -> GnElement:
    """The state of a mixed-radix index; an index that is not an int goes
    through `make_element`'s rule (a bool or a float raises ValueError)."""
    if type(index) is not int:
        index = _integer(index, "index")
    if not 0 <= index < params.size:
        raise ValueError(f"index {index} out of range [0, {params.size})")
    coords = []
    for _ in range(params.dim):
        index, c = divmod(index, params.n)
        coords.append(c)
    return _residues(params, tuple(coords))


def decode_array(indices, params: SpaceParams) -> np.ndarray:
    """Vectorized decode: (N,) index array -> (N, 2g) coordinate matrix."""
    import numpy as np

    idx = np.asarray(indices, dtype=np.int64)
    out = np.empty((idx.shape[0], params.dim), dtype=np.int64)
    for j in range(params.dim):
        out[:, j] = idx % params.n
        idx = idx // params.n
    return out

