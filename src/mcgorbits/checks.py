"""The checks shared by `mcgorbits verify` and the acceptance tests.

Each function runs one check and returns what it found; the CLI prints
the facts as ok/FAIL lines and the acceptance tests assert them, so
both run the same code.

The census is what a check pays for, so one census serves every check
of its space and generator set: `census_case` returns the orbit count
beside the theorem's, the orbits' vanishing numbers and, given the
space's vanishing table, the bounds of the vanishing number on each
orbit.  `verify` looks each census up once per invocation, whichever
suite asks first.  Nothing here holds state from one call to the next.
"""

from __future__ import annotations

from typing import NamedTuple

from . import euler
from .action import apply_word
from .invariants import orbit_count_expected, vanishing_number_array
from .normalize import macro_word
from .orbits import enumerate_orbits
from .space import SpaceParams, decode_array, make_element

# states decoded per call while a vanishing table is built
TABLE_CHUNK = 1 << 10
# the largest space whose vanishing number is checked on every state
INVARIANT_MAX_STATES = 10 ** 5


def theorem_cases(max_states: float):
    """(g, n) with g = 2..7, n | 2g-2 and at most max_states states."""
    for g in range(2, 8):
        euler_class = 2 * g - 2
        for n in range(1, euler_class + 1):
            if euler_class % n == 0 and n ** (2 * g) <= max_states:
                yield g, n


def invariant_cases(max_states: float):
    """The even-n `theorem_cases` of at most INVARIANT_MAX_STATES states
    (and at most max_states), whose vanishing number is checked on every
    state."""
    for g, n in theorem_cases(min(max_states, INVARIANT_MAX_STATES)):
        if n % 2 == 0:
            yield g, n


class CensusCheck(NamedTuple):
    orbit_count: int  # found by the census
    expected: int     # the theorem's count: 1 for odd n, 2 for even n
    vanishing: list   # the orbits' vanishing numbers, sorted (even n only)
    bounds: dict | None  # {orbit ordinal: (lo, hi)} of the vanishing numbers


def census_case(params: SpaceParams, selector, table=None) -> CensusCheck:
    """Run the census of one space under `selector` and set it beside
    the theorem.

    Given `table`, the space's `vanishing_table`, a batch hook looks
    every state up in it, and `bounds` holds one (lo, hi) per orbit,
    with lo == hi exactly when the vanishing number is constant on that
    orbit; without it `bounds` is None.  The hook keeps each batch's
    values, one byte per state, and reduces them once per orbit.
    """
    values = hook = None
    if table is not None:
        values = {}

        def hook(ordinal, batch):
            values.setdefault(ordinal, []).append(table.take(batch))

    report = enumerate_orbits(params, selector, record_paths=False,
                              batch_hook=hook)
    vanishing = (sorted(o.vanishing_number for o in report.orbits)
                 if params.n % 2 == 0 else [])
    bounds = None
    if values is not None:
        import numpy as np

        bounds = {}
        for ordinal, parts in values.items():
            v = np.concatenate(parts)
            bounds[ordinal] = (int(v.min()), int(v.max()))
    return CensusCheck(report.orbit_count, orbit_count_expected(params),
                       vanishing, bounds)


def vanishing_table(params: SpaceParams) -> np.ndarray:
    """The vanishing number of every state, indexed by state, as uint8.

    Built TABLE_CHUNK states at a time from `vanishing_number_array`, so
    no (size, 2g) coordinate matrix is held; the table is one byte per
    state.
    """
    import numpy as np

    table = np.empty(params.size, dtype=np.uint8)
    for start in range(0, params.size, TABLE_CHUNK):
        stop = min(start + TABLE_CHUNK, params.size)
        table[start:stop] = vanishing_number_array(
            decode_array(np.arange(start, stop), params))
    return table


def macro_exact(g: int, n: int) -> bool:
    """Does the +2 macro send (0, ..., 0, beta) to (0, ..., 0, beta + 2)
    for every beta mod n?"""
    params = SpaceParams(g, n, strict_euler=False)
    zeros = [0] * (2 * g - 1)
    return all(
        apply_word(macro_word(beta, params), make_element(params, zeros + [beta])).coords
        == tuple(zeros + [(beta + 2) % n]) for beta in range(n))


def aprime_cocycle(group: euler.FuchsianGroup) -> int:
    """c(a1, (a'2)^-1), with a'2 = b2 a2 b2^-1 (1 in the paper)."""
    aprime = euler.conjugated_generator_word(2)
    inverse = tuple((name, -e) for name, e in reversed(aprime))
    return euler.cocycle(group, "a1", inverse).value


class CocycleSampleCheck(NamedTuple):
    in_range: bool     # value in {-1, 0, 1}, residual in euler's bound
    crosses: bool      # the axes of w1 and w2 cross transversely
    crossing_ok: bool  # the value is 0 where the axes cross


def cocycle_sample(group: euler.FuchsianGroup, w1, w2,
                   value: euler.CocycleValue) -> CocycleSampleCheck:
    """Judge one sampled cocycle value c(w1, w2).

    The axes count as not crossing when they share an endpoint within
    tolerance, where crossing cannot be told.
    """
    try:
        crosses = euler.axes_cross(group, w1, w2)
    except euler.IllConditionedError:
        crosses = False
    return CocycleSampleCheck(
        value.value in (-1, 0, 1) and euler.residual_in_bound(value.residual),
        crosses, not crosses or value.value == 0)
