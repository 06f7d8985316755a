#!/usr/bin/env python3
"""How twist generators act on the covering space.

States of the space are 2g residues mod n, grouped in handle blocks
(alpha_i, beta_i).  Each generator changes at most two coordinates; this
script prints the basic actions, a word applied token by token, and the
linear/translation split of an affine map.
"""

from mcgorbits import (
    Generator, SpaceParams, apply_affine, apply_word, format_word,
    generator_action, make_element, parse_word, word_action, zero_element,
)

p = SpaceParams(g=2, n=4, strict_euler=False)
x = make_element(p, [1, 0, 2, 3])
print(f"space: genus {p.g}, index {p.n}, {p.size} states")
print(f"x = {x}")

for text in ("A1", "B1", "C1", "s", "D1"):
    y = apply_word(parse_word(text), x)
    print(f"  {text:3} sends x to {y}")

print()
word = parse_word("B2 A2 B2")
print(f"word {format_word(word)} applied to x: {apply_word(word, x)}")
m = word_action(word, p)
print("its linear part acts on the second block as")
print(m.linear[2:4, 2:4])

print()
c = generator_action(Generator("C", 1), p)
print(f"the C1 twist is genuinely affine: it moves the zero state to "
      f"{apply_affine(c, zero_element(p))}")
print(f"translation part: {c.translation.tolist()}")
