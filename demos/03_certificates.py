#!/usr/bin/env python3
"""Canonical forms with replayable word certificates.

Any state can be pushed to (0, ..., 0, t) by an explicit word in the
twist generators; the word is returned with the result and replaying it
is an independent check.  Two states lie in the same orbit exactly when
their canonical forms agree, and the joined certificate transports one
to the other.
"""

from mcgorbits import (
    SpaceParams, apply_word, enumerate_orbits, make_element, normalize,
    same_orbit, trace_path,
)

p = SpaceParams(2, 4, strict_euler=False)
x = make_element(p, [3, 1, 2, 2])
form, cert = normalize(x)
print(f"x = {x}")
print(f"canonical form: {form.representative} (parity class {form.parity_class})")
print(f"certificate: {cert.word}")
print(f"replay check: {apply_word(cert.word, x)} == {form.representative}")

print()
y = make_element(p, [0, 1, 1, 0])
ok, joined = same_orbit(x, y)
print(f"x and {y} share an orbit: {ok}")
if ok:
    print(f"transport word: {joined.word}")

print()
print("breadth-first search gives certificates too (shortest words in the positive generators):")
report = enumerate_orbits(SpaceParams(2, 2), record_paths=True)
target = make_element(SpaceParams(2, 2), [1, 1, 0, 1])
path = trace_path(report, target)
print(f"  from {path.source} to {target}: {path.word}")
print(f"  replay: {apply_word(path.word, path.source)}")
