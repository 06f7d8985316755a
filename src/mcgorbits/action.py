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
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .space import AffineMap, GnElement, SpaceParams, compose

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
        if self.kind not in KINDS:
            raise ValueError(f"unknown generator kind {self.kind!r}")
        if self.exponent == 0:
            raise ValueError("generator exponent must be nonzero")
        if self.kind == "s":
            if self.index is not None:
                raise ValueError("s carries no index")
            if self.exponent not in (1, -1):
                raise ValueError("s is an involution; exponent must be +-1")
            # keep a single normal form so format/parse round-trips
            object.__setattr__(self, "exponent", 1)
        else:
            if not (isinstance(self.index, int) and self.index >= 1):
                raise ValueError(f"{self.kind} needs an index >= 1, got {self.index!r}")

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


@lru_cache(maxsize=16384)
def make_token(kind: str, index: int | None = None, exponent: int = 1) -> Generator:
    """Interned token: each distinct (kind, index, exponent) is validated once.

    Generators are immutable, so the word builders share one instance per
    token instead of constructing and validating a new one on every call.
    """
    return Generator(kind, index, exponent)


@dataclass(frozen=True)
class GeneratorWord:
    """Token sequence; the FIRST token acts first (certificate replay order)."""

    tokens: tuple

    def __len__(self):
        return len(self.tokens)

    def __str__(self):
        return format_word(self)

    def then(self, other: "GeneratorWord") -> "GeneratorWord":
        return GeneratorWord(self.tokens + other.tokens)

    def inverse(self) -> "GeneratorWord":
        return GeneratorWord(tuple(t.inverse() for t in reversed(self.tokens)))


EMPTY_WORD = GeneratorWord(())


@dataclass(frozen=True)
class MultiTwist:
    """Joint twist C_1^(k_1) ... C_{g-1}^(k_{g-1}); the C_i commute."""

    exponents: tuple

    def to_word(self) -> GeneratorWord:
        return GeneratorWord(tuple([
            make_token("C", i + 1, k) for i, k in enumerate(self.exponents) if k != 0]))


def _index_error(kind: str, index: int, g: int) -> ValueError:
    top = g if kind in ("A", "B") else g - 1
    return ValueError(f"{kind}{index} out of range for genus {g} (max {top})")


def _check_index(gen: Generator, params: SpaceParams):
    top = params.g if gen.kind in ("A", "B") else params.g - 1
    if not 1 <= gen.index <= top:
        raise _index_error(gen.kind, gen.index, params.g)


def generator_action(gen: Generator, params: SpaceParams) -> AffineMap:
    """Affine map of a single token, exponent included."""
    g, n = params.g, params.n
    lin = np.eye(2 * g, dtype=np.int64)
    tra = np.zeros(2 * g, dtype=np.int64)
    k = gen.exponent
    if gen.kind == "s":
        for j in range(g):
            lin[2 * j, 2 * j] = -1
    elif gen.kind == "D":
        _check_index(gen, params)
    elif gen.kind == "A":
        _check_index(gen, params)
        a, b = 2 * gen.index - 2, 2 * gen.index - 1
        lin[b, a] = -k
    elif gen.kind == "B":
        _check_index(gen, params)
        a, b = 2 * gen.index - 2, 2 * gen.index - 1
        lin[a, b] = k
    else:  # C
        _check_index(gen, params)
        a1, b1 = 2 * gen.index - 2, 2 * gen.index - 1
        a2, b2 = 2 * gen.index, 2 * gen.index + 1
        lin[b1, a1] = -k
        lin[b1, a2] = k
        lin[b2, a1] = k
        lin[b2, a2] = -k
        tra[b1] = k
        tra[b2] = -k
    return AffineMap(n, lin, tra)


def word_action(word: GeneratorWord, params: SpaceParams) -> AffineMap:
    """Composite affine map; token order is application order."""
    acc = AffineMap.identity(params)
    for token in word.tokens:
        acc = compose(generator_action(token, params), acc)
    return acc


def multi_twist_action(k: MultiTwist, params: SpaceParams) -> AffineMap:
    """Affine map of C_1^(k_1) ... C_{g-1}^(k_{g-1}), composed from its word."""
    g, count = params.g, len(k.exponents)
    if count != g - 1:
        raise ValueError(f"expected {g - 1} exponents for genus {g}, got {count}")
    return word_action(k.to_word(), params)


def replay_tokens(tokens, coords: list, n: int, g: int) -> None:
    """Apply tokens to a coordinate list in place, first token first.

    This is the only place the A/B/C/s/D formulas are written as scalar
    code; `apply_word`, `sl2.BlockWord.apply` and the normalizer's
    replays all run through it.  The index check is fused in: a token
    whose index does not exist in genus g raises ValueError before it is
    applied (the tokens before it stay applied).
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
    x's genus; x itself is never modified.
    """
    params = x.params
    coords = list(x.coords)
    replay_tokens(word.tokens, coords, params.n, params.g)
    return GnElement(params, tuple(coords))


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
