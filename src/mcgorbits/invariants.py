"""Closed-form orbit invariants of the twist action.

For even n the complete invariant is the vanishing number: reduce all
coordinates mod 2 and count the handle blocks whose (alpha_i, beta_i)
pair is (0, 0); only its parity matters.  The per-block gcd content is
preserved by the A/B subgroup (not by C).

For even n the two orbits are the vanishing number's level sets, so
their sizes have a closed form:

    vanishing number 0:  (n/2)^(2g) * 2^(g-1) * (2^g + 1)
    vanishing number 1:  (n/2)^(2g) * 2^(g-1) * (2^g - 1)

The vanishing number depends only on the reduction mod 2, a map
(Z/n)^(2g) -> (Z/2)^(2g) whose fibres all have (n/2)^(2g) states.  In
(Z/2)^(2g) each block is (0, 0) in 1 way and nonzero in 3, so the
vectors with k zero blocks number C(g, k) 3^(g-k), and those with k
even, less those with k odd, number (3 - 1)^g = 2^g out of 4^g in all.
Hence (4^g + 2^g)/2 = 2^(g-1)(2^g + 1) have vanishing number 0 and
(4^g - 2^g)/2 = 2^(g-1)(2^g - 1) have 1: at g = 2, n = 2 these are the
orbits of 10 and 6 states.
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
