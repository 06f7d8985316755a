"""Closed-form orbit invariants of the twist action.

For even n the complete invariant is the vanishing number: reduce all
coordinates mod 2 and count the handle blocks whose (alpha_i, beta_i)
pair is (0, 0); only its parity matters.  The per-block gcd content is
preserved by the A/B subgroup (not by C).
"""

from __future__ import annotations

from math import gcd

from .space import GnElement, SpaceParams


class InvariantUndefinedError(ValueError):
    """Requested invariant is not defined for these parameters."""


def vanishing_number(x: GnElement) -> int:
    """Parity of the count of blocks with (alpha_i, beta_i) even-even.

    Defined only for even n (the mod-2 reduction must exist).
    """
    n = x.params.n
    if n % 2 != 0:
        raise InvariantUndefinedError(f"vanishing number needs even n, got {n}")
    import numpy as np

    return int(vanishing_number_array(np.array([x.coords]))[0])


def vanishing_number_array(coords: np.ndarray) -> np.ndarray:
    """Vectorized vanishing number over an (N, 2g) coordinate matrix."""
    even = (coords % 2) == 0
    zero_blocks = even[:, 0::2] & even[:, 1::2]
    return zero_blocks.sum(axis=1) % 2


def block_content(x: GnElement, i: int) -> int:
    """gcd(alpha_i, beta_i, n); preserved by A_i/B_i words."""
    if not 1 <= i <= x.params.g:
        raise ValueError(f"block index {i} out of range 1..{x.params.g}")
    a, b = x.block(i)
    return gcd(gcd(a, b), x.params.n)


def orbit_count_expected(params: SpaceParams) -> int:
    """1 for odd n, 2 for even n (the classification being verified)."""
    return 1 if params.n % 2 else 2
