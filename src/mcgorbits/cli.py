"""Command-line front end: classify, orbits, normalize, apply, verify, cocycle.

Every printed certificate is replay-verified first.  Runs outside the
n | 2g-2 regime are permitted only with --allow-invalid-euler and are
watermarked in the output, or on stderr where the output format has no
place for it.  Verification suites exit nonzero on any failed check and
print one line per check; the checks themselves live in `checks`, which
the acceptance tests run too.  One `verify` call runs each census once:
the theorem and invariants suites both read it through one lookup that
lives as long as the call.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys

from . import checks, euler
from .action import WordSyntaxError, apply_word, parse_word
from .invariants import vanishing_number
from .normalize import normalize
from .orbits import (
    BudgetConfigError, BudgetExceededError, GENERATOR_SETS, MOD, MOD_PM,
    enumerate_orbits,
)
from .sl2 import generate_sl2, sl2_group_order
from .space import SpaceParams, parse_element

DEFAULT_SEED = 20250810
THREADS_HELP = ("accepted for compatibility; "
                "the census runs on the calling thread")


class CliError(Exception):
    """Fatal argument or input error; message goes to stderr."""


def _int_at_least(low: int, name: str):
    """argparse type for integers of at least `low`; `name` says so in errors."""
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            value = low - 1
        if value < low:
            raise argparse.ArgumentTypeError(f"must be {name}, got {text!r}")
        return value
    return parse


_positive_int = _int_at_least(1, "a positive integer")
_genus = _int_at_least(2, "an integer >= 2")


def _positive_float(text: str) -> float:
    """argparse type for a size bound that must be above 0."""
    try:
        value = float(text)
    except ValueError:
        value = 0.0
    if not value > 0:  # also rejects nan
        raise argparse.ArgumentTypeError(f"must be a positive number, got {text!r}")
    return value


def _space(args) -> SpaceParams:
    strict = not getattr(args, "allow_invalid_euler", False)
    try:
        return SpaceParams(args.g, args.n, strict_euler=strict)
    except ValueError as exc:
        message = str(exc).replace(
            "pass strict_euler=False to explore outside that regime",
            "pass --allow-invalid-euler to explore outside that regime")
        raise CliError(message) from None


def _element(args, params: SpaceParams):
    try:
        return parse_element(params, args.element)
    except ValueError as exc:
        raise CliError(str(exc)) from None


def _regime(params: SpaceParams) -> str:
    if (2 * params.g - 2) % params.n == 0:
        return "n divides 2g-2"
    return "outside n | 2g-2 regime"


def _warn_outside(params: SpaceParams) -> None:
    """Watermark on stderr, for output formats with no place for it."""
    if _regime(params) != "n divides 2g-2":
        print(f"warning: {_regime(params)}", file=sys.stderr)


def _normalized(args):
    """The space, the element, and its canonical form and certificate.

    The certificate is replayed here once, so a failed replay is a clean
    error rather than a printed word that does not hold.
    """
    params = _space(args)
    x = _element(args, params)
    form, cert = normalize(x, verify=False)
    if not cert.replays():
        raise CliError("internal error: certificate failed replay")
    return params, x, form, cert


def cmd_classify(args) -> int:
    params, x, form, cert = _normalized(args)
    payload = {
        "g": params.g,
        "n": params.n,
        "regime": _regime(params),
        "element": list(x.coords),
        "parity_class": form.parity_class,
        "canonical_representative": list(form.representative.coords),
        "vanishing_number": vanishing_number(x) if params.n % 2 == 0 else None,
        "certificate": str(cert.word),
    }
    if args.format == "json":
        print(json.dumps(payload, indent=2))
    else:
        print(f"element              {x}")
        print(f"parity class         {form.parity_class}")
        print(f"canonical            {form.representative}")
        if payload["vanishing_number"] is not None:
            print(f"vanishing number     {payload['vanishing_number']}")
        print(f"certificate          {cert.word}")
        if payload["regime"] != "n divides 2g-2":
            print(f"warning              {payload['regime']}")
    return 0


def cmd_orbits(args) -> int:
    params = _space(args)
    report = enumerate_orbits(params, args.gens, thread_count=args.threads,
                              record_paths=False)
    data = report.to_dict()
    data["regime"] = _regime(params)
    if data["regime"] == "n divides 2g-2":
        del data["regime"]  # keep the schema exact inside the regime
    if args.format == "json":
        print(json.dumps(data, indent=2))
    elif args.format == "csv":
        _warn_outside(params)
        sys.stdout.write(report.to_csv())
    else:
        print(f"g={params.g} n={params.n} generators={args.gens} "
              f"threads={args.threads} [{_regime(params)}]")
        print(f"orbit count: {report.orbit_count}")
        for o in report.orbits:
            v = "-" if o.vanishing_number is None else o.vanishing_number
            print(f"  representative {o.representative}  size {o.size}  "
                  f"vanishing {v}")
        print(f"elapsed: {report.elapsed_ms} ms")
    return 0


def cmd_normalize(args) -> int:
    params, x, form, cert = _normalized(args)
    payload = {
        "element": list(x.coords),
        "canonical_representative": list(form.representative.coords),
        "parity_class": form.parity_class,
        "certificate": str(cert.word),
        "regime": _regime(params),
    }
    if args.format == "json":
        print(json.dumps(payload, indent=2))
    else:
        _warn_outside(params)
        print(f"canonical     {form.representative}")
        print(f"certificate   {cert.word}")
    return 0


def cmd_apply(args) -> int:
    params = _space(args)
    x = _element(args, params)
    try:
        word = parse_word(args.word)
        y = apply_word(word, x)
    except (WordSyntaxError, ValueError) as exc:
        raise CliError(str(exc)) from None
    _warn_outside(params)
    if args.format == "json":
        print(json.dumps({"element": list(x.coords), "word": args.word,
                          "image": list(y.coords)}))
    else:
        print(y)
    return 0


def _surface_word(word) -> str:
    return " ".join(f"{n}^{e}" if e != 1 else n for n, e in word)


def cmd_cocycle(args) -> int:
    group = euler.standard_group(args.genus)
    pairs = euler.sample_cocycles(group, random.Random(args.seed), args.pairs,
                                  args.max_len)
    try:
        samples = [{"w1": _surface_word(w1), "w2": _surface_word(w2),
                    "c": value.value, "residual": value.residual}
                   for w1, w2, value in pairs]
    except euler.SamplingCapError as exc:
        raise CliError(f"cocycle sampling {exc}") from None
    print(json.dumps({"genus": args.genus, "seed": args.seed,
                      "samples": samples}, indent=2))
    return 0


# --- verification suites -----------------------------------------------------

class Checker:
    def __init__(self):
        self.failures = 0
        self.count = 0

    def check(self, name, actual, expected):
        self.count += 1
        if actual == expected:
            print(f"ok   {name}: {actual}")
        else:
            self.failures += 1
            print(f"FAIL {name}: expected {expected}, got {actual}")

    def check_true(self, name, condition, detail=""):
        self.count += 1
        if condition:
            print(f"ok   {name}")
        else:
            self.failures += 1
            print(f"FAIL {name} {detail}")


def suite_theorem(args, chk: Checker, census) -> None:
    for g, n in checks.theorem_cases(args.max_states):
        case = census(g, n, MOD)
        chk.check(f"theorem g={g} n={n} orbit_count", case.orbit_count,
                  case.expected)
        if n % 2 == 0:
            chk.check(f"theorem g={g} n={n} vanishing separates",
                      case.vanishing, [0, 1])


def suite_invariants(args, chk: Checker, census) -> None:
    # vanishing number constant along orbits, exhaustively, incl. mod_pm:
    # every state of every orbit is looked up in the space's table
    for g, n in checks.invariant_cases(args.max_states):
        for selector in (MOD, MOD_PM):
            bounds = census(g, n, selector).bounds
            chk.check_true(
                f"invariants g={g} n={n} {selector} vanishing constant per orbit",
                all(lo == hi for lo, hi in bounds.values()))
    for n in range(1, 13):
        chk.check_true(f"invariants macro beta+2 n={n}", checks.macro_exact(2, n))


def suite_sl2(args, chk: Checker) -> None:
    values = list(range(2, 13)) if args.n is None else [args.n]
    for n in values:
        try:
            closure = len(generate_sl2(n))
        except ValueError as exc:  # n^4 above the closure's cap
            raise CliError(f"sl2 n={n}: {exc}") from None
        chk.check(f"sl2 n={n} closure size", closure, sl2_group_order(n))


def suite_cocycle(args, chk: Checker) -> None:
    group = euler.standard_group(args.genus)
    chk.check(f"cocycle genus={args.genus} relator euler number",
              euler.relator_euler_number(group), 2 * args.genus - 2)
    chk.check("cocycle c(a1, (a'2)^-1)", checks.aprime_cocycle(group), 1)
    bad = crossing_bad = 0
    pairs = euler.sample_cocycles(group, random.Random(args.seed), args.samples, 6)
    try:
        for w1, w2, cv in pairs:
            sample = checks.cocycle_sample(group, w1, w2, cv)
            bad += not sample.in_range
            crossing_bad += not sample.crossing_ok
    except euler.SamplingCapError as exc:
        chk.check_true("cocycle sampling", False, str(exc))
    chk.check(f"cocycle {args.samples} samples out of range", bad, 0)
    chk.check("cocycle crossing-axes violations", crossing_bad, 0)


def cmd_verify(args) -> int:
    import functools

    chk = Checker()
    invariant = set(checks.invariant_cases(args.max_states))
    table = functools.cache(
        lambda g, n: checks.vanishing_table(SpaceParams(g, n)))

    @functools.cache
    def census(g, n, selector):
        """One census per space and generator set for this call; in a
        space the invariants suite checks it gathers the vanishing
        bounds, whichever suite asks first."""
        return checks.census_case(
            SpaceParams(g, n), selector,
            table(g, n) if (g, n) in invariant else None)

    suites = {
        "theorem": lambda: suite_theorem(args, chk, census),
        "invariants": lambda: suite_invariants(args, chk, census),
        "sl2": lambda: suite_sl2(args, chk),
        "cocycle": lambda: suite_cocycle(args, chk),
    }
    names = list(suites) if args.suite == "all" else [args.suite]
    for name in names:
        suites[name]()
    print(f"{chk.count - chk.failures}/{chk.count} checks passed")
    if chk.count == 0:
        print("error: no check ran; raise --max-states", file=sys.stderr)
        return 1
    return 1 if chk.failures else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mcgorbits",
        description="Orbit census and certificates for twist actions on "
                    "fiberwise covering spaces")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_space_flags(p):
        p.add_argument("--g", type=int, required=True, help="genus (>= 2)")
        p.add_argument("--n", type=int, required=True, help="covering index (>= 1)")
        p.add_argument("--allow-invalid-euler", action="store_true",
                       help="permit n that does not divide 2g-2 (watermarked)")

    p = sub.add_parser("classify", help="canonical class of one element")
    add_space_flags(p)
    p.add_argument("--element", required=True)
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("orbits", help="enumerate all orbits exhaustively")
    add_space_flags(p)
    p.add_argument("--gens", choices=GENERATOR_SETS, default=MOD)
    p.add_argument("--threads", type=_positive_int, default=1, help=THREADS_HELP)
    p.add_argument("--format", choices=("text", "json", "csv"), default="text")
    p.set_defaults(func=cmd_orbits)

    p = sub.add_parser("normalize", help="canonical form plus word certificate")
    add_space_flags(p)
    p.add_argument("--element", required=True)
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(func=cmd_normalize)

    p = sub.add_parser("apply", help="apply a twist word to an element")
    add_space_flags(p)
    p.add_argument("--element", required=True)
    p.add_argument("--word", required=True)
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(func=cmd_apply)

    p = sub.add_parser("verify", help="run a verification suite")
    p.add_argument("--suite", choices=("theorem", "invariants", "sl2",
                                       "cocycle", "all"), required=True)
    p.add_argument("--max-states", type=_positive_float, default=1e6,
                   help="largest state space for exhaustive checks")
    p.add_argument("--n", type=_positive_int, default=None,
                   help="single modulus for sl2")
    p.add_argument("--genus", type=_genus, default=2, help="genus for cocycle checks")
    p.add_argument("--samples", type=_positive_int, default=200)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("cocycle", help="sample cocycle values as JSON")
    p.add_argument("--genus", type=_genus, default=2)
    p.add_argument("--pairs", type=_positive_int, default=50)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--max-len", type=_positive_int, default=6)
    p.set_defaults(func=cmd_cocycle)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        status = args.func(args)
        sys.stdout.flush()  # a closed pipe shows here, not at exit
        return status
    except (CliError, BudgetExceededError, BudgetConfigError,
            euler.ConstructionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # the reader went away (e.g. `| head`): send what is still
        # buffered to devnull, so the flush at exit cannot fail again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 1


if __name__ == "__main__":
    sys.exit(main())
