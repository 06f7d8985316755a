"""Span tracing of mcgorbits from outside the library.

`Tracer.install()` replaces each traced public function with a wrapper,
under every name a loaded mcgorbits module binds it to, so a span is
named after the module that looks the function up (for example
`mcgorbits.normalize.clear_alpha`).  A span is a list

    [id, name, key, start, end, parent_id, run, child_s, measure, error]

where `key` is "<defining module>.<function>", `child_s` is the time
covered by its child spans (self time = end - start - child_s),
`measure` is a per-call size (states, tokens) and `error` the name of the
exception the call raised, if any.  Spans stay in memory; `per_layer()`
folds them into the per-layer metrics and `write_jsonl()` writes them
out, gzipped, when the run ends.  A traced function that no longer
exists is reported in `missing` and its metrics are left out, not faked.
"""

from __future__ import annotations

import functools
import gzip
import itertools
import json
import sys
import threading
import time

ID, NAME, KEY, START, END, PARENT, RUN, CHILD, MEASURE, ERROR = range(10)

HOOK_KEY = "orbits.batch_hook"


def _states(args, kwargs, result):
    params = args[0] if args else kwargs.get("params")
    return params.size


def _cert_tokens(args, kwargs, result):
    return len(result[1].word)


def _word_tokens(args, kwargs, result):
    word = args[0] if args else kwargs.get("word")
    return len(word.tokens)


# (defining module, function, per-call measure or None)
TARGETS = (
    ("orbits", "enumerate_orbits", _states),
    ("normalize", "normalize", _cert_tokens),
    ("sl2", "clear_alpha", None),
    ("sl2", "solve_pair", None),
    ("sl2", "generate_sl2", None),
    ("action", "apply_word", _word_tokens),
    ("space", "decode", None),
    ("invariants", "vanishing_number_array", None),
    ("euler", "standard_group", None),
    ("euler", "cocycle", None),
    ("cli", "main", None),
)

# the per-layer metrics, each with its unit and the target keys it needs
PER_LAYER = (
    ("orbits.calls", "count", ("orbits.enumerate_orbits",)),
    ("orbits.states", "count", ("orbits.enumerate_orbits",)),
    ("orbits.self_s", "s", ("orbits.enumerate_orbits",)),
    ("orbits.states_per_self_s", "1/s", ("orbits.enumerate_orbits",)),
    ("orbits.hook_batches", "count", ("orbits.enumerate_orbits",)),
    ("orbits.hook_s", "s", ("orbits.enumerate_orbits",)),
    ("normalize.calls", "count", ("normalize.normalize",)),
    ("normalize.self_s", "s", ("normalize.normalize",)),
    ("normalize.cert_tokens_mean", "tokens", ("normalize.normalize",)),
    ("normalize.cert_tokens_max", "tokens", ("normalize.normalize",)),
    ("sl2.clear_alpha.calls", "count", ("sl2.clear_alpha",)),
    ("sl2.solve_pair.calls", "count", ("sl2.solve_pair",)),
    ("sl2.self_s", "s", ("sl2.clear_alpha", "sl2.solve_pair")),
    ("sl2.generate.calls", "count", ("sl2.generate_sl2",)),
    ("sl2.generate_s", "s", ("sl2.generate_sl2",)),
    ("action.replay.calls", "count", ("action.apply_word",)),
    ("action.replay.tokens", "tokens", ("action.apply_word",)),
    ("action.replay_s", "s", ("action.apply_word",)),
    ("action.tokens_per_s", "1/s", ("action.apply_word",)),
    ("space.decode.calls", "count", ("space.decode",)),
    ("space.decode_s", "s", ("space.decode",)),
    ("invariants.vanishing_array.calls", "count", ("invariants.vanishing_number_array",)),
    ("invariants.vanishing_array_s", "s", ("invariants.vanishing_number_array",)),
    ("euler.standard_group_s", "s", ("euler.standard_group",)),
    ("euler.cocycle.calls", "count", ("euler.cocycle",)),
    ("euler.cocycle_s", "s", ("euler.cocycle",)),
    ("euler.cocycle.rejected", "count", ("euler.cocycle",)),
    ("euler.cocycle.accept_ratio", "ratio", ("euler.cocycle",)),
    ("cli.import_s", "s", ()),
    ("cli.main_s", "s", ("cli.main",)),
    ("trace.unit_s", "s", ()),
    ("trace.overhead_frac", "ratio", ()),
)

# self time of these keys is charged to the named layer in the share table
LAYER_OF = {
    "orbits.enumerate_orbits": "orbits",
    HOOK_KEY: "hook",
    "normalize.normalize": "normalize",
    "sl2.clear_alpha": "sl2",
    "sl2.solve_pair": "sl2",
    "sl2.generate_sl2": "sl2",
    "action.apply_word": "action",
    "space.decode": "space",
    "invariants.vanishing_number_array": "invariants",
    "euler.standard_group": "euler",
    "euler.cocycle": "euler",
    "cli.main": "cli",
}


class Tracer:
    """Records spans of the traced mcgorbits functions while installed."""

    package = "mcgorbits"

    def __init__(self):
        self.spans: list = []
        self.missing: list = []
        self.run = 0
        self._ids = itertools.count()
        self._local = threading.local()
        self._patches: list = []

    def install(self) -> None:
        prefix = self.package + "."
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == self.package or name.startswith(prefix))]
        self.missing = []
        for home_name, func, measure in TARGETS:
            home = sys.modules.get(prefix + home_name)
            original = getattr(home, func, None)
            if original is None:
                self.missing.append(f"{home_name}.{func}")
                continue
            key = f"{home_name}.{func}"
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        wrapper = self._wrap(f"{module.__name__}.{attr}", key,
                                             original, measure)
                        self._patches.append((module, attr, original))
                        setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches = []

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    def _wrap(self, name, key, original, measure):
        spans, local, ids, clock = self.spans, self._local, self._ids, time.perf_counter
        wraps_hooks = key == "orbits.enumerate_orbits"

        @functools.wraps(original)
        def traced(*args, **kwargs):
            if wraps_hooks:
                kwargs = self._wrap_hook(name, kwargs)
            stack = local.__dict__.setdefault("stack", [])
            parent = stack[-1] if stack else None
            span = [next(ids), name, key, clock(), 0.0,
                    parent[ID] if parent else -1, self.run, 0.0, None, None]
            spans.append(span)
            stack.append(span)
            try:
                result = original(*args, **kwargs)
                if measure is not None:
                    span[MEASURE] = measure(args, kwargs, result)
                return result
            except BaseException as exc:
                span[ERROR] = type(exc).__name__
                raise
            finally:
                span[END] = clock()
                stack.pop()
                if parent is not None:
                    parent[CHILD] += span[END] - span[START]

        return traced

    def _wrap_hook(self, name, kwargs):
        """Trace the batch hook, which every caller passes by keyword."""
        if kwargs.get("batch_hook") is not None:
            kwargs = dict(kwargs, batch_hook=self._wrap(
                name + ".batch_hook", HOOK_KEY, kwargs["batch_hook"], None))
        return kwargs


def write_jsonl(spans, path) -> None:
    """Gzipped JSON lines: a header naming the fields, then one span a line."""
    with gzip.open(path, "wt") as out:
        out.write(json.dumps({"fields": ["id", "name", "start", "end",
                                         "parent", "run", "error"]}) + "\n")
        for span in spans:
            out.write(json.dumps([span[ID], span[NAME], round(span[START], 9),
                                  round(span[END], 9), span[PARENT], span[RUN],
                                  span[ERROR]]) + "\n")


def _fold(spans):
    """Per key: calls, total seconds, self seconds, measures, errors."""
    acc = {}
    for span in spans:
        entry = acc.setdefault(span[KEY], {"calls": 0, "total": 0.0, "self": 0.0,
                                           "measures": [], "errors": 0})
        duration = span[END] - span[START]
        entry["calls"] += 1
        entry["total"] += duration
        entry["self"] += duration - span[CHILD]
        if span[MEASURE] is not None:
            entry["measures"].append(span[MEASURE])
        if span[ERROR] is not None:
            entry["errors"] += 1
    return acc


def per_layer(spans, import_s: float, unit_s: float, overhead: float,
              missing=()) -> dict:
    """The PER_LAYER metrics of one traced unit; idle layers read 0."""
    acc = _fold(spans)
    empty = {"calls": 0, "total": 0.0, "self": 0.0, "measures": [], "errors": 0}

    def get(key):
        return acc.get(key, empty)

    enum, hook = get("orbits.enumerate_orbits"), get(HOOK_KEY)
    norm, replay = get("normalize.normalize"), get("action.apply_word")
    clear, solve = get("sl2.clear_alpha"), get("sl2.solve_pair")
    gen, cocycle = get("sl2.generate_sl2"), get("euler.cocycle")
    states = sum(enum["measures"])
    tokens = norm["measures"]
    replay_tokens = sum(replay["measures"])
    values = {
        "orbits.calls": enum["calls"],
        "orbits.states": states,
        "orbits.self_s": enum["self"],
        "orbits.states_per_self_s": states / enum["self"] if enum["self"] else 0.0,
        "orbits.hook_batches": hook["calls"],
        "orbits.hook_s": hook["total"],
        "normalize.calls": norm["calls"],
        "normalize.self_s": norm["self"],
        "normalize.cert_tokens_mean": sum(tokens) / len(tokens) if tokens else 0.0,
        "normalize.cert_tokens_max": max(tokens, default=0),
        "sl2.clear_alpha.calls": clear["calls"],
        "sl2.solve_pair.calls": solve["calls"],
        "sl2.self_s": clear["self"] + solve["self"],
        "sl2.generate.calls": gen["calls"],
        "sl2.generate_s": gen["total"],
        "action.replay.calls": replay["calls"],
        "action.replay.tokens": replay_tokens,
        "action.replay_s": replay["total"],
        "action.tokens_per_s": replay_tokens / replay["total"] if replay["total"] else 0.0,
        "space.decode.calls": get("space.decode")["calls"],
        "space.decode_s": get("space.decode")["total"],
        "invariants.vanishing_array.calls": get("invariants.vanishing_number_array")["calls"],
        "invariants.vanishing_array_s": get("invariants.vanishing_number_array")["total"],
        "euler.standard_group_s": get("euler.standard_group")["total"],
        "euler.cocycle.calls": cocycle["calls"],
        "euler.cocycle_s": cocycle["total"],
        "euler.cocycle.rejected": cocycle["errors"],
        "euler.cocycle.accept_ratio": ((cocycle["calls"] - cocycle["errors"]) / cocycle["calls"]
                                       if cocycle["calls"] else 0.0),
        "cli.import_s": import_s,
        "cli.main_s": get("cli.main")["total"],
        "trace.unit_s": unit_s,
        "trace.overhead_frac": overhead,
    }
    gone = set(missing)
    return {name: {"value": values[name], "unit": unit}
            for name, unit, keys in PER_LAYER
            if not gone.intersection(keys)}


def layer_shares(spans, unit_s: float) -> dict:
    """Self time of each layer as a share of the traced unit's wall time."""
    shares = {}
    for key, entry in _fold(spans).items():
        layer = LAYER_OF.get(key, key)
        shares[layer] = shares.get(layer, 0.0) + entry["self"]
    top = sum(span[END] - span[START] for span in spans if span[PARENT] == -1)
    shares["untraced"] = max(unit_s - top, 0.0)
    return {layer: value / unit_s for layer, value in shares.items()} if unit_s else {}
