"""Constructive word calculus in SL(2, Z/nZ) for a single handle block.

The block twists act on one (alpha_i, beta_i) pair through the matrices

    L = [[1, 0], [-1, 1]]   (the A twist)
    R = [[1, 1], [0, 1]]    (the B twist)

which generate all of SL(2, Z/nZ).  No twist formula is written here:
a block word is a `GeneratorWord` of A_1 and B_1 tokens, `on_pair`
replays a word on a pair through `action.replay_tokens`, the letter
matrices are read off `on_pair` column by column, and `on_block` moves
a word to another block.  Nothing here computes with arrays, so this
module, `generate_sl2` included, never loads numpy.

Pair words are built in closed form, with no tables: `clear_alpha`
runs the Euclidean algorithm on the integer representatives of (a, b),
one power token per division step, so its words have O(log n) tokens.
The normalizer's block moves are these words, built by the same pass
(`_euclid_tokens`) directly on their block.  `solve_pair` joins two
of them through the point (0, gcd(a, b, n)) that every pair of that
content reaches, so SL(2, Z/nZ) is transitive on each content class.
Breadth-first search over the group (`generate_sl2`) gives shortest
words; `verify --suite sl2` checks its closure against the group order.
"""

from __future__ import annotations

import math

from .action import EMPTY_WORD, GeneratorWord, make_token, replay_tokens, simplify_word

SL2_CAP = 10 ** 8  # the largest matrix space n^4 `generate_sl2` searches

# the letters L, L^-1, R, R^-1 as block-1 tokens
_LETTERS = tuple(make_token(kind, 1, e)
                 for kind, e in (("A", 1), ("A", -1), ("B", 1), ("B", -1)))


def _on_pair(m: tuple, a: int, b: int, n: int) -> tuple:
    """The matrix m = (m00, m01, m10, m11) on the column (a, b), mod n."""
    return (m[0] * a + m[1] * b) % n, (m[2] * a + m[3] * b) % n


def on_block(word: GeneratorWord, block: int) -> GeneratorWord:
    """A block word's A_1/B_1 tokens moved to the given 1-based block."""
    return GeneratorWord(tuple(make_token(t.kind, block, t.exponent) for t in word.tokens))


def on_pair(word: GeneratorWord, pair, n: int) -> tuple:
    """The pair a block word sends (a, b) to, mod n."""
    coords = [pair[0] % n, pair[1] % n]
    replay_tokens(word.tokens, coords, n, 1)
    return tuple(coords)


def _letter_matrices(n: int) -> tuple:
    """(m00, m01, m10, m11) mod n of each letter, in `_LETTERS` order.

    A letter's columns are its images of (1, 0) and (0, 1), read by
    `on_pair`; only the group closure `generate_sl2` steps with them.
    """
    matrices = []
    for letter in _LETTERS:
        word = GeneratorWord((letter,))
        (m00, m10), (m01, m11) = on_pair(word, (1, 0), n), on_pair(word, (0, 1), n)
        matrices.append((m00, m01, m10, m11))
    return tuple(matrices)


def clear_alpha(pair, n: int) -> GeneratorWord:
    """Word sending (a, b) to (0, gcd(a, b)), read on representatives in [0, n).

    Its length is at most 2*ceil(log2 n) + 4 tokens, and the image keeps
    the pair content gcd(a, b, n).
    """
    if n == 1:
        return EMPTY_WORD
    return GeneratorWord(_euclid_tokens(pair[0] % n, pair[1] % n, 1))


def _euclid_tokens(a: int, b: int, block: int) -> tuple:
    """Euclidean reduction of the integer pair (a, b) >= 0 to (0, gcd), as
    tokens of the given 1-based block.

    R^-q = B^-q sends (a, b) to (a - q*b, b) and L^q = A^q sends (a, b)
    to (a, b - q*a), so each division step is one power token.  Every
    intermediate pair stays in [0, max(a, b)], so the word acts the same
    modulo any n above both entries.  A start (d, 0) takes L^-1 R^-1:
    (d, 0) -> (d, d) -> (0, d).  A reduction whose last step L^q reaches
    (d, 0) ends L^(q-1) R^-1 instead: the power one short stops at
    (d, d), and q >= 2 there because d | b with 0 < d < b.  So letters
    alternate and every power is >= 1: the word is already in the
    normal form of `action.simplify_word`.  The tokens are built on
    their block, so the normalizer's stage (i) needs no relabelling.
    """
    tokens = []
    while a and b:
        if a >= b:
            q, a = divmod(a, b)
            tokens.append(make_token("B", block, -q))
        else:
            q, b = divmod(b, a)
            tokens.append(make_token("A", block, q))
    if a:
        if tokens:
            tokens[-1] = make_token("A", block, q - 1)
        else:
            tokens.append(make_token("A", block, -1))
        tokens.append(make_token("B", block, -1))
    return tuple(tokens)


def _content_word(pair, n: int) -> GeneratorWord:
    """Word sending (a, b) to (0, c), where c = gcd(a, b, n) is the content.

    `clear_alpha` lands on (0, d).  When d is not c mod n, write d = c*d'
    and n = c*n' with d' a unit mod n': B_1^k with k = d'^-1 mod n' sends
    (0, d) to (c, d), and a second `clear_alpha` takes (c, d) to (0, c).
    So every pair of one content reaches the same point, which is the
    transitivity of SL(2, Z/nZ) on each content class.
    """
    word = clear_alpha(pair, n)
    d = on_pair(word, pair, n)[1]
    c = math.gcd(d, n)
    if d == c % n:
        return word
    k = pow(d // c, -1, n // c)
    return word.then(GeneratorWord((make_token("B", 1, k),))).then(clear_alpha((c, d), n))


def solve_pair(pair_from, pair_to, n: int):
    """A word mapping pair_from to pair_to, or None when there is none.

    The word is `_content_word(pair_from)` followed by the inverse of
    `_content_word(pair_to)`, simplified; it has O(log n) tokens and is
    not in general shortest.  Solvability is decided by replaying the two
    content words: the answer is None exactly when they land on different
    points.  Any modulus n >= 1 works and no table is built; n < 1 raises
    ValueError.
    """
    if n < 1:
        raise ValueError(f"modulus must be >= 1, got {n}")
    there, back = _content_word(pair_from, n), _content_word(pair_to, n)
    if on_pair(there, pair_from, n) != on_pair(back, pair_to, n):
        return None
    word = simplify_word(there.then(back.inverse()))
    assert on_pair(word, pair_from, n) == (pair_to[0] % n, pair_to[1] % n)
    return word


def generate_sl2(n: int) -> dict:
    """Breadth-first closure of {L, R, L^-1, R^-1} in SL(2, Z/nZ).

    Returns {matrix as (m00, m01, m10, m11): shortest witness word}, each
    witness a `GeneratorWord` of the letter tokens.
    Refuses when the ambient matrix space n^4 exceeds SL2_CAP.
    """
    if n < 1:
        raise ValueError(f"modulus must be >= 1, got {n}")
    if n ** 4 > SL2_CAP:
        raise ValueError(f"n^4 = {n ** 4} exceeds cap {SL2_CAP}")
    identity = (1 % n, 0, 0, 1 % n)
    words = {identity: EMPTY_WORD}
    frontier = [identity]
    letters = _letter_matrices(n)
    while frontier:
        new_frontier = []
        for cur in frontier:
            m00, m01, m10, m11 = cur
            for letter, m in zip(_LETTERS, letters):
                # a letter times a matrix acts on each column as on a pair
                c00, c10 = _on_pair(m, m00, m10, n)
                c01, c11 = _on_pair(m, m01, m11, n)
                key = (c00, c01, c10, c11)
                if key not in words:
                    words[key] = GeneratorWord(words[cur].tokens + (letter,))
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
