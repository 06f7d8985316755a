"""Twist generators and their affine action on the covering space.

The mapping class group of a genus-g surface is generated by Dehn twists
along 3g - 1 standard curves (A_1..A_g, B_1..B_g, C_1..C_{g-1}); an
orientation-reversing reflection s extends this to the full group, and
the D_i twists (which act trivially here) document that the action only
sees homology.  On the coordinates (alpha_1, beta_1, ..., alpha_g,
beta_g) over Z/nZ the generators act by:

    A_i:  beta_i  -> beta_i - alpha_i
    B_i:  alpha_i -> alpha_i + beta_i
    C_i:  beta_i  -> beta_i - alpha_i + alpha_{i+1} + 1
          beta_{i+1} -> beta_{i+1} + alpha_i - alpha_{i+1} - 1
    s:    alpha_j -> -alpha_j  (all j)
    D_i:  identity

A, B and the linear part of C are transvection-like (L = 1 + N with
N^2 = 0 and N tau = 0), so integer powers have the same shape with every
increment scaled by the exponent; that keeps words like C^(k) exact and
cheap for any k.

The formulas are written once, as the scalar code of `replay_tokens`.
`word_action` reads a word's affine map off it by replaying the whole
word on 0 and on the unit vectors, and `generator_action` is the map of
a one-token word.  The orbit engine reads its delta tables off the
kernel the same way, replaying each generator on plain lists, and the
SL(2) letters of `sl2` are read off the kernel directly, on a pair.

Tokens, words and their replay compute without numpy; only the affine
maps (`generator_action`, `word_action`) are arrays, and reading one
imports numpy.  A token's index and exponent are ints: anything else,
a bool included, raises ValueError by `space.make_element`'s rule.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import lru_cache

from .space import AffineMap, GnElement, SpaceParams, _integer, _residues

KINDS = ("A", "B", "C", "D", "s")


class WordSyntaxError(ValueError):
    """Raised on malformed word text; carries the offending position."""

    def __init__(self, message, position):
        super().__init__(f"{message} (at position {position})")
        self.position = position


@dataclass(frozen=True)
class Generator:
    """One signed twist token; `index` is 1-based, None for s."""

    kind: str
    index: int | None = None
    exponent: int = 1

    def __post_init__(self):
        kind, index, exponent = self.kind, self.index, self.exponent
        if kind not in KINDS:
            raise ValueError(f"unknown generator kind {kind!r}")
        # an int passes as it is: a cold `normalize` builds a token per
        # new (kind, index, exponent)
        if type(exponent) is not int:
            exponent = _integer(exponent, "exponent")
            object.__setattr__(self, "exponent", exponent)
        if exponent == 0:
            raise ValueError("generator exponent must be nonzero")
        if kind == "s":
            if index is not None:
                raise ValueError("s carries no index")
            if exponent not in (1, -1):
                raise ValueError("s is an involution; exponent must be +-1")
            # keep a single normal form so format/parse round-trips
            object.__setattr__(self, "exponent", 1)
            return
        if index is None:
            raise ValueError(f"{kind} needs an index >= 1, got None")
        if type(index) is not int:
            index = _integer(index, "index")
            object.__setattr__(self, "index", index)
        if index < 1:
            raise ValueError(f"{kind} needs an index >= 1, got {index!r}")

    def inverse(self) -> "Generator":
        if self.kind == "s":
            return self
        return make_token(self.kind, self.index, -self.exponent)

    def __str__(self):
        if self.kind == "s":
            return "s"
        if self.exponent == 1:
            return f"{self.kind}{self.index}"
        return f"{self.kind}{self.index}^{self.exponent}"


@lru_cache(maxsize=16384, typed=True)
def make_token(kind: str, index: int | None = None, exponent: int = 1) -> Generator:
    """Interned token: each distinct (kind, index, exponent) is validated once.

    Generators are immutable, so the word builders share one instance per
    token instead of constructing and validating a new one on every call.
    The cache is typed: a float or bool key, equal to an int one, would
    otherwise be handed the int key's token, or leave its own for it.
    """
    return Generator(kind, index, exponent)


@dataclass(frozen=True, init=False)
class GeneratorWord:
    """Token sequence; the FIRST token acts first (certificate replay order)."""

    tokens: tuple

    def __init__(self, tokens: tuple):
        """Set `tokens` in one write to the instance dict.

        Every `normalize` call builds one, and `apply_word` reads `tokens`
        once per replay: building one takes 0.22-0.24 us against
        0.28-0.29 us for the generated `__init__`, and a read of `tokens`
        20-22 ns against 4 ns (CPython 3.11.7 on a 2-vCPU Xeon;
        BENCH_warm_normalize.json, `init_costs`).
        """
        self.__dict__["tokens"] = tokens

    def __len__(self):
        return len(self.tokens)

    def __str__(self):
        return format_word(self)

    def then(self, other: "GeneratorWord") -> "GeneratorWord":
        return GeneratorWord(self.tokens + other.tokens)

    def inverse(self) -> "GeneratorWord":
        return GeneratorWord(tuple(t.inverse() for t in reversed(self.tokens)))


EMPTY_WORD = GeneratorWord(())


def _index_error(kind: str, index: int, g: int) -> ValueError:
    top = g if kind in ("A", "B") else g - 1
    return ValueError(f"{kind}{index} out of range for genus {g} (max {top})")


def word_action(word: GeneratorWord, params: SpaceParams) -> AffineMap:
    """Affine map of a word, first token first, read off `replay_tokens`
    in one pass: the translation is the image of 0, and column j of the
    linear part is the image of e_j minus it.

    A token whose index does not exist in the genus raises ValueError,
    with `apply_word`'s text.
    """
    import numpy as np

    g = params.g
    rows = [[0] * (2 * g)] + np.eye(2 * g, dtype=np.int64).tolist()
    for coords in rows:
        replay_tokens(word.tokens, coords, params.n, g)
    images = np.array(rows, dtype=np.int64)
    return AffineMap(params.n, (images[1:] - images[0]).T, images[0])


def generator_action(gen: Generator, params: SpaceParams) -> AffineMap:
    """Affine map of a single token, exponent included."""
    return word_action(GeneratorWord((gen,)), params)


def replay_tokens(tokens, coords: list, n: int, g: int) -> None:
    """Apply tokens to a coordinate list in place, first token first.

    This is the one statement of the A/B/C/s/D formulas:
    `word_action` reads its affine map off it, and `apply_word`,
    `sl2.on_pair` and the normalizer's replays all run through it.  The
    index check is fused in: a token whose index does not exist in genus
    g raises ValueError before it is applied (the tokens before it stay
    applied).
    """
    for token in tokens:
        kind, i, k = token.kind, token.index, token.exponent
        if kind == "A":
            if i > g:
                raise _index_error(kind, i, g)
            coords[2 * i - 1] = (coords[2 * i - 1] - k * coords[2 * i - 2]) % n
        elif kind == "B":
            if i > g:
                raise _index_error(kind, i, g)
            coords[2 * i - 2] = (coords[2 * i - 2] + k * coords[2 * i - 1]) % n
        elif kind == "C":
            if i >= g:
                raise _index_error(kind, i, g)
            b1 = 2 * i - 1
            step = coords[b1 + 1] - coords[b1 - 1] + 1
            coords[b1] = (coords[b1] + k * step) % n
            coords[b1 + 2] = (coords[b1 + 2] - k * step) % n
        elif kind == "s":
            coords[0::2] = [-c % n for c in coords[0::2]]
        elif i >= g:  # D acts as the identity
            raise _index_error(kind, i, g)


def apply_word(word: GeneratorWord, x: GnElement) -> GnElement:
    """Replay a word on an element, first token first.

    Raises ValueError on the first token whose index does not exist in
    x's genus; x itself is never modified.  Every coordinate the kernel
    writes is reduced mod n, so the image skips `GnElement`'s range check.
    """
    params = x.params
    coords = list(x.coords)
    replay_tokens(word.tokens, coords, params.n, params.g)
    return _residues(params, tuple(coords))


_TOKEN_RE = re.compile(r"([ABCD])([0-9]+)(?:\^(-?[0-9]+))?$|s$")


def parse_word(text: str) -> GeneratorWord:
    """Parse the ASCII word grammar, e.g. "A1 B2^-1 C1^3 s"."""
    tokens = []
    pos = 0
    length = len(text)
    while pos < length:
        if text[pos].isspace():
            pos += 1
            continue
        end = pos
        while end < length and not text[end].isspace():
            end += 1
        piece = text[pos:end]
        m = _TOKEN_RE.fullmatch(piece)
        if m is None:
            raise WordSyntaxError(f"bad token {piece!r}", pos)
        if piece == "s":
            tokens.append(Generator("s"))
        else:
            kind, index, exp = m.group(1), int(m.group(2)), m.group(3)
            if index < 1:
                raise WordSyntaxError(f"index must be >= 1 in {piece!r}", pos)
            exponent = 1 if exp is None else int(exp)
            if exponent == 0:
                raise WordSyntaxError(f"zero exponent in {piece!r}", pos)
            tokens.append(Generator(kind, index, exponent))
        pos = end
    return GeneratorWord(tuple(tokens))


def format_word(word: GeneratorWord) -> str:
    return " ".join(str(t) for t in word.tokens)


def simplify_word(word: GeneratorWord) -> GeneratorWord:
    """Merge adjacent tokens of the same twist and drop trivial ones.

    A peephole pass only; it never reorders tokens, so the resulting
    word acts identically.
    """
    out: list = []
    _push(out, word.tokens)
    return GeneratorWord(tuple(out))


def _push(out: list, tokens) -> None:
    """Push tokens onto the stack `out` of `simplify_word`'s pass.

    When `out` is a simplified word, `out` followed by `tokens` ends up
    simplified, merges that cascade back into `out` included.
    """
    top = out[-1] if out else None
    for token in tokens:
        kind = token.kind
        if kind == "D":
            continue
        if top is not None and top.kind == kind and top.index == token.index:
            out.pop()
            if kind != "s":  # s is an involution
                merged = top.exponent + token.exponent
                if merged != 0:
                    out.append(make_token(kind, token.index, merged))
            top = out[-1] if out else None
            continue
        out.append(token)
        top = token
