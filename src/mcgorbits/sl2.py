"""Constructive word calculus in SL(2, Z/nZ) for a single handle block.

The block twists act on one (alpha_i, beta_i) pair through the matrices

    L = [[1, 0], [-1, 1]]   (the A twist)
    R = [[1, 1], [0, 1]]    (the B twist)

which generate all of SL(2, Z/nZ).  No twist formula is written here:
the letter matrices are read off the block slice of
`action.generator_action`, and a `BlockWord` (a word in powers of these
letters) replays on a pair through `action.replay_tokens`, after it is
translated to A_i/B_i twist tokens.

The normalizer's block moves are built in closed form: `clear_alpha`
runs the Euclidean algorithm on the integer representatives of (a, b),
one power token per division step, so its words have O(log n) tokens
and need no tables.  Breadth-first search over the n^2 pair states
(`solve_pair`) and over the group (`generate_sl2`) gives shortest words;
it is kept as the reference the tests and `verify --suite sl2` check
against, and no normalize path calls it.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import lru_cache
from math import gcd

import numpy as np

from .action import GeneratorWord, generator_action, make_token, replay_tokens
from .space import SpaceParams

# letter codes L, L^-1, R, R^-1 = 0..3, in the fixed edge order used by
# all BFS tables
_LETTER_KIND = ("A", "A", "B", "B")
_LETTER_EXP = (1, -1, 1, -1)
_L, _L_INV, _R_INV = 0, 1, 3


@lru_cache(maxsize=128)
def _letter_matrices(n: int) -> tuple:
    """(m00, m01, m10, m11) mod n of each letter, in letter-code order.

    Read from the block-1 slice of the A_1, A_1^-1, B_1 and B_1^-1
    actions; the pair search and the group closure step with them.  An entry is four
    4-tuples of ints, under 1 KB, so the cache stays under 128 KB.
    """
    params = SpaceParams(2, n, strict_euler=False)
    return tuple(
        tuple(int(v) for v in
              generator_action(make_token(kind, 1, e), params).linear[:2, :2].ravel())
        for kind, e in zip(_LETTER_KIND, _LETTER_EXP))


def _on_pair(m: tuple, a: int, b: int, n: int) -> tuple:
    """The matrix m = (m00, m01, m10, m11) on the column (a, b), mod n."""
    return (m[0] * a + m[1] * b) % n, (m[2] * a + m[3] * b) % n


def _signed_letters(codes: tuple, powers: tuple | None) -> list:
    """(twist kind, signed exponent) per letter, in application order."""
    powers = powers or (1,) * len(codes)
    return [(_LETTER_KIND[c], _LETTER_EXP[c] * k) for c, k in zip(codes, powers)]


@dataclass(frozen=True)
class BlockWord:
    """Word over {L, L^-1, R, R^-1}, first letter applied first.

    Letter `codes[j]` is raised to the power `powers[j]`; None means every
    letter appears once, as in the breadth-first words.
    """

    codes: tuple
    powers: tuple | None = None

    def __len__(self):
        return len(self.codes)

    def __str__(self):
        names = {"A": "L", "B": "R"}
        return " ".join(names[kind] if e == 1 else f"{names[kind]}^{e}"
                        for kind, e in _signed_letters(self.codes, self.powers))

    def on_block(self, block: int) -> GeneratorWord:
        """Translate to A/B twist tokens acting on the given 1-based block."""
        return GeneratorWord(tuple(
            make_token(kind, block, e)
            for kind, e in _signed_letters(self.codes, self.powers)))

    def apply(self, pair, n: int) -> tuple:
        coords = [pair[0] % n, pair[1] % n]
        replay_tokens(self.on_block(1).tokens, coords, n, 1)
        return tuple(coords)


EMPTY_BLOCK_WORD = BlockWord(())


SOLVE_PAIR_MAX_N = 100


@lru_cache(maxsize=512)
def _pair_bfs(n: int, source: int):
    """Shortest-word forest over the pair space from `source` = a + n*b.

    Returns (dist, parent, letter) arrays indexed by packed pairs.
    """
    size = n * n
    dist = np.full(size, -1, dtype=np.int32)
    parent = np.full(size, -1, dtype=np.int32)
    letter = np.full(size, -1, dtype=np.int8)
    dist[source] = 0
    queue = deque([source])
    letters = _letter_matrices(n)
    while queue:
        p = queue.popleft()
        a, b = p % n, p // n
        d = dist[p] + 1
        for code, m in enumerate(letters):
            a2, b2 = _on_pair(m, a, b, n)
            q = a2 + n * b2
            if dist[q] < 0:
                dist[q] = d
                parent[q] = p
                letter[q] = code
                queue.append(q)
    return dist, parent, letter


def _walk(parent, letter, target: int) -> BlockWord:
    codes = []
    p = target
    while parent[p] >= 0:
        codes.append(int(letter[p]))
        p = int(parent[p])
    codes.reverse()
    return BlockWord(tuple(codes))


def pair_content(pair, n: int) -> int:
    """gcd(a, b, n); the block invariant of the A/B action (gcd(0,0,n) = n)."""
    return gcd(gcd(pair[0] % n, pair[1] % n), n)


def clear_alpha(pair, n: int) -> BlockWord:
    """Word sending (a, b) to (0, gcd(a, b)), read on representatives in [0, n).

    Its length is at most 2*ceil(log2 n) + 4 tokens, and the image keeps
    the pair content gcd(a, b, n).
    """
    if n == 1:
        return EMPTY_BLOCK_WORD
    return _euclid_word(pair[0] % n, pair[1] % n)


@lru_cache(maxsize=65536)
def _euclid_word(a: int, b: int) -> BlockWord:
    """Euclidean reduction of the integer pair (a, b) >= 0 to (0, gcd).

    R^-q sends (a, b) to (a - q*b, b) and L^q sends (a, b) to (a, b - q*a),
    so each division step is one power token.  Every intermediate pair
    stays in [0, max(a, b)], so the word acts the same modulo any n
    above both entries.  A start (d, 0) takes L^-1 R^-1:
    (d, 0) -> (d, d) -> (0, d).  A reduction whose last step L^q reaches
    (d, 0) ends L^(q-1) R^-1 instead: the power one short stops at
    (d, d), and q >= 2 there because d | b with 0 < d < b.  So letters
    alternate and every power is >= 1: the word is already in the
    normal form of `action.simplify_word`.
    """
    codes, powers = [], []
    while a and b:
        if a >= b:
            q, a = divmod(a, b)
            codes.append(_R_INV)
        else:
            q, b = divmod(b, a)
            codes.append(_L)
        powers.append(q)
    if a:
        if codes:
            powers[-1] -= 1
        else:
            codes.append(_L_INV)
            powers.append(1)
        codes.append(_R_INV)
        powers.append(1)
    return BlockWord(tuple(codes), tuple(powers))


def solve_pair(pair_from, pair_to, n: int):
    """Shortest word mapping pair_from to pair_to, or None when unreachable.

    Reachability is decided by the search itself; the gcd-content
    criterion is asserted by the tests, not assumed here.  Each search
    from a new source builds a table of 9 n^2 bytes, and up to 512 of them
    are cached, so the modulus is capped at SOLVE_PAIR_MAX_N = 100: the
    cache then holds at most 512 * 9 * 100^2 = 46,080,000 bytes.  A
    modulus outside [1, SOLVE_PAIR_MAX_N] raises ValueError before any
    table is built.
    """
    if not 1 <= n <= SOLVE_PAIR_MAX_N:
        raise ValueError(
            f"modulus must be in [1, {SOLVE_PAIR_MAX_N}] for the pair search, got {n}")
    if n == 1:
        return EMPTY_BLOCK_WORD
    return _solve_pair_cached(pair_from[0] % n, pair_from[1] % n,
                              pair_to[0] % n, pair_to[1] % n, n)


@lru_cache(maxsize=65536)
def _solve_pair_cached(a: int, b: int, c: int, d: int, n: int):
    dist, parent, letter = _pair_bfs(n, a + n * b)
    target = c + n * d
    if dist[target] < 0:
        return None
    word = _walk(parent, letter, target)
    assert word.apply((a, b), n) == (c, d)
    return word


def generate_sl2(n: int, cap: int = 10 ** 8) -> dict:
    """Breadth-first closure of {L, R, L^-1, R^-1} in SL(2, Z/nZ).

    Returns {matrix as (m00, m01, m10, m11): shortest witness BlockWord}.
    Refuses when the ambient matrix space n^4 exceeds `cap`.
    """
    if n < 1:
        raise ValueError(f"modulus must be >= 1, got {n}")
    if n ** 4 > cap:
        raise ValueError(f"n^4 = {n ** 4} exceeds cap {cap}")
    identity = (1 % n, 0, 0, 1 % n)
    words = {identity: EMPTY_BLOCK_WORD}
    frontier = [identity]
    letters = _letter_matrices(n)
    while frontier:
        new_frontier = []
        for cur in frontier:
            m00, m01, m10, m11 = cur
            for code, m in enumerate(letters):
                # a letter times a matrix acts on each column as on a pair
                c00, c10 = _on_pair(m, m00, m10, n)
                c01, c11 = _on_pair(m, m01, m11, n)
                key = (c00, c01, c10, c11)
                if key not in words:
                    words[key] = BlockWord(words[cur].codes + (code,))
                    new_frontier.append(key)
        frontier = new_frontier
    return words


def sl2_group_order(n: int) -> int:
    """|SL(2, Z/nZ)| = n^3 * prod over primes p | n of (1 - p^-2)."""
    order = n ** 3
    rest = n
    p = 2
    while p * p <= rest:
        if rest % p == 0:
            order = order // (p * p) * (p * p - 1)
            while rest % p == 0:
                rest //= p
        p += 1
    if rest > 1:
        order = order // (rest * rest) * (rest * rest - 1)
    return order
