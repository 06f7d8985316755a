"""Reduction of any state to a canonical representative, with certificate.

Every state can be moved by twist words to (0, ..., 0, t) where t = 0
when n is odd and t is the last coordinate's parity when n is even.  The
reduction runs in three stages:

  (i)   per block, a Euclidean word in powers of A_i and B_i clears the
        alpha coordinate (`sl2.clear_alpha`, O(log n) tokens);
  (ii)  one multi-twist C_1^(k_1) ... C_{g-1}^(k_{g-1}) concentrates the
        remaining betas into the last block (the beta sum is what
        survives);
  (iii) one shift of at most seven tokens through C_{g-1} and block g
        sends the last beta from b to 2k - b, with 2k = t + b mod n.

Every word is built in closed form, with no search, so a certificate has
at most g*(2*ceil(log2 n) + 4) + g + 6 tokens.  The emitted word is the
concatenation of all stages, applied first token first, and replaying
it on the input must land exactly on the canonical representative.

Certificates come out in the normal form of `action.simplify_word` (no
two adjacent tokens of one twist) without a pass over the whole word.
The Euclid words are built in normal form and tokens of different blocks
never merge, so the stage (i) prefix is one; the tail of stages (ii)
and (iii) is simplified once, when it is memoized; the only merges left
happen where the two meet, and `action._push` makes them there.

Each call does only the work that depends on its own state; whatever
depends on a memo key alone is done, and checked, once, when the entry
is filled.  The memos are bounded:
  - `_block_step`, an LRU cache, keeps, under (a, b, block, n), a
    block's stage (i) tokens, built on their block by one Euclid pass
    (`sl2._euclid_tokens`), and the pair they send (a, b) to.  It holds
    at most 32768 entries of O(log n) tokens;
  - `_tail`, an LRU cache, keeps, under (betas, params), the tail's
    tokens and the class's shared `CanonicalForm`, so a state makes one
    lookup for stages (ii) and (iii).  It holds at most 4096 entries of
    O(g) objects each (the key's g betas, at most g + 6 tokens; the form
    is shared): tracemalloc puts an entry, its key included, at about
    0.26 KB at (g, n) = (7, 30), 0.68 KB at (26, 50) and 2.3 KB at
    (26, 1000), so at most about 9.5 MB there;
  - `_canonical_form` is called only when a `_tail` entry is filled.
    It hands out the one `CanonicalForm` of each class (the type is
    frozen) and keeps it, under (params, target), in a weak-value map:
    a form lives while a `_tail` entry or a caller holds it, so the map
    holds no more forms than those do, and two live forms of one class
    are always one instance;
  - `_shift_word` (8192 entries) and `action.make_token` (16384) keep
    the shift words and the interned tokens.
Where each check runs:
  - when the input is built: `GnElement` refuses a coordinate outside
    [0, n), so every memo key is a residue and no stage checks it again;
  - when a `_block_step` entry is filled: the tokens are replayed
    through the scalar kernel of `action` to find the pair they land on;
  - when a `_tail` entry is filled: the tokens, replayed from
    (0, b_1, ..., 0, b_g), must land on (0, ..., 0, t), or it raises
    AssertionError.  The landing and t are fixed by the key, so this is
    the check every state with those betas would make; an entry whose
    check raises is never cached;
  - on every state: stage (i) must leave each alpha at 0 (the tail is
    keyed on the betas alone), or it raises AssertionError; with
    `verify=True` the whole certificate is replayed from the input.

Every stage, the memos and the replays are integer Python and never
load numpy, so `normalize`, `same_orbit` and the commands built on them
run in a process that has not imported it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from weakref import WeakValueDictionary

from .action import (
    GeneratorWord, _push, apply_word, make_token, replay_tokens, simplify_word,
)
from .sl2 import _euclid_tokens
from .space import GnElement, SpaceParams


@dataclass(frozen=True)
class CanonicalForm:
    """Representative (0, ..., 0, t); t is the parity class for even n."""

    representative: GnElement
    parity_class: int


@dataclass(frozen=True, init=False)
class Certificate:
    """Word mapping `source` to `target`, first token first."""

    word: GeneratorWord
    source: GnElement
    target: GnElement

    def __init__(self, word: GeneratorWord, source: GnElement, target: GnElement):
        """Set the three fields in one write to the instance dict.

        Every `normalize` call builds one, and its fields are read a few
        times at most: building one takes 0.40-0.44 us against 0.54-0.56
        us for the generated `__init__`'s `object.__setattr__` per field,
        and a field read 4-5 ns against 4 ns (CPython 3.11.7 on a 2-vCPU
        Xeon; BENCH_warm_normalize.json, `init_costs`).
        """
        self.__dict__.update(word=word, source=source, target=target)

    def replays(self) -> bool:
        return apply_word(self.word, self.source) == self.target


def _signed_exponent(e: int, n: int) -> int:
    """Residue representative of minimal magnitude, for shorter words."""
    e %= n
    return e - n if e > n // 2 else e


# weak values: a form lives while a `_tail` entry or a caller holds it
_forms: WeakValueDictionary = WeakValueDictionary()


def _canonical_form(params: SpaceParams, target: int) -> CanonicalForm:
    """The canonical form (0, ..., 0, target), one live instance per class."""
    form = _forms.get((params, target))
    if form is None:
        rep = GnElement(params, (0,) * (2 * params.g - 1) + (target,))
        form = _forms[params, target] = CanonicalForm(rep, target)
    return form


@lru_cache(maxsize=32768)
def _block_step(a: int, b: int, block: int, n: int) -> tuple:
    """Stage (i) on one block: the tokens of `clear_alpha((a, b), n)` on
    `block`, and the pair those tokens send (a, b) to.

    The tokens come from one Euclid pass on their block, and the pair is
    found by replaying them through the scalar kernel when the entry is
    filled, so a hit applies none of them again.
    """
    word_tokens = _euclid_tokens(a, b, block)
    coords = [0] * (2 * block - 2) + [a, b]
    replay_tokens(word_tokens, coords, n, block)
    return word_tokens, (coords[-2], coords[-1])


@lru_cache(maxsize=4096)
def _tail(betas: tuple, params: SpaceParams) -> tuple:
    """Stages (ii) and (iii) from (0, b_1, ..., 0, b_g): (tokens, form).

    `tokens` is the multi-twist followed by the shift, in normal form,
    and `form` is the class's shared `CanonicalForm`, (0, ..., 0, t).
    When the entry is filled, the tokens are replayed from
    (0, b_1, ..., 0, b_g) through the scalar kernel and must land on
    (0, ..., 0, t); if they do not, AssertionError is raised and nothing
    is cached.
    """
    g, n = params.g, params.n
    tokens = []
    acc = 0
    for i in range(g - 1):
        acc = (acc + betas[i]) % n
        k = _signed_exponent(-acc, n)
        if k:
            tokens.append(make_token("C", i + 1, k))
    # the multi-twist leaves the beta sum in the last block; the shift
    # reaches every 2k - b, that is every residue of b's parity, so the
    # target is 0 for odd n and b's parity for even n
    beta = (acc + betas[-1]) % n
    target = 0 if n % 2 else beta % 2
    if beta != target:
        half = (target + beta) * pow(2, -1, n) if n % 2 else (target + beta) // 2
        _push(tokens, _shift_word(half % n, beta, g, n).tokens)
    coords = [0] * (2 * g)
    coords[1::2] = betas
    replay_tokens(tokens, coords, n, g)
    expected = [0] * (2 * g - 1) + [target]
    if coords != expected:
        raise AssertionError(
            f"the tail from betas {betas} landed on {','.join(map(str, coords))}, "
            f"expected {','.join(map(str, expected))}")
    return tuple(tokens), _canonical_form(params, target)


def normalize(x: GnElement, verify: bool = True):
    """Return (CanonicalForm, Certificate) for a state.

    States of one class share one CanonicalForm instance.  `verify=False`
    skips the final independent replay; bulk callers that replay
    certificates themselves use it to avoid doing the work twice.
    """
    params = x.params
    n = params.n
    # stage (i): clear the alphas block by block, over (alpha, beta) pairs
    tokens: list = []
    betas = []
    block = 0
    coords = iter(x.coords)
    for a, b in zip(coords, coords):
        block += 1
        if a:
            block_tokens, (a, b) = _block_step(a, b, block, n)
            if a:
                raise AssertionError(
                    f"stage (i) left alpha_{block} = {a} in the reduction of {x}")
            tokens += block_tokens
        betas.append(b)
    # stages (ii) and (iii), landing checked when the entry was filled
    tail, form = _tail(tuple(betas), params)

    # both parts are in normal form, so merges can only start where they meet
    if tokens and tail and tokens[-1].kind == tail[0].kind \
            and tokens[-1].index == tail[0].index:
        _push(tokens, tail)
    else:
        tokens += tail

    cert = Certificate(GeneratorWord(tuple(tokens)), x, form.representative)
    if verify and not cert.replays():
        raise AssertionError(f"certificate for {x} does not replay")
    return form, cert


@lru_cache(maxsize=8192)
def _shift_word(k: int, beta: int, g: int, n: int) -> GeneratorWord:
    """Word sending (0, ..., 0, beta) to (0, ..., 0, 2k - beta).

    With C = C_{g-1} and c = beta - k, the word is
    C^k . B_g A_g . C^-1 . A_g B_g^-c . C^(beta + 1 - 2k); on the last two
    blocks it runs

        (0,0,0,b) -> (0,k,0,c) -> (0,k,c,0) -> (0,k-c-1,c,c+1)
                  -> (0,k-c-1,0,1) -> (0,0,0,2k-b)

    Exponents that vanish mod n are dropped, so it has at most 7 tokens.
    """
    c = beta - k
    parts = (("C", g - 1, k), ("B", g, 1), ("A", g, 1), ("C", g - 1, -1),
             ("A", g, 1), ("B", g, -c), ("C", g - 1, beta + 1 - 2 * k))
    tokens = []
    for kind, index, e in parts:
        e = _signed_exponent(e, n)
        if e:
            tokens.append(make_token(kind, index, e))
    return GeneratorWord(tuple(tokens))


def macro_word(beta: int, params: SpaceParams) -> GeneratorWord:
    """Word adding 2 to the last beta of (0, ..., 0, beta): the k = beta + 1 shift."""
    beta %= params.n
    return _shift_word(beta + 1, beta, params.g, params.n)


def same_orbit(x: GnElement, y: GnElement):
    """(True, certificate x -> y) when canonical forms agree, else (False, None)."""
    if x.params != y.params:
        raise ValueError("elements live in different spaces")
    form_x, cert_x = normalize(x)
    form_y, cert_y = normalize(y)
    if form_x.representative != form_y.representative:
        return False, None
    word = simplify_word(cert_x.word.then(cert_y.word.inverse()))
    cert = Certificate(word, x, y)
    if not cert.replays():
        raise AssertionError(f"joined certificate {x} -> {y} does not replay")
    return True, cert
