"""Orbit census of fiberwise coverings under mapping class group twists.

The library models index-n coverings along the fibers of the unit
tangent bundle of a genus-g surface as points of (Z/nZ)^(2g), implements
the affine action of the standard twist generators, enumerates orbits
exhaustively, reduces any state to a canonical representative with a
replayable word certificate, and numerically verifies the circle-lift
cocycle facts underlying the generator formulas.
"""

from .space import (
    AffineMap, DimensionError, GnElement, SpaceParams, apply_affine,
    compose, decode, encode, make_element, parse_element, zero_element,
)
from .action import (
    Generator, GeneratorWord, WordSyntaxError, apply_word, format_word,
    generator_action, parse_word, word_action,
)
from .sl2 import clear_alpha, generate_sl2, sl2_group_order, solve_pair
from .invariants import block_content, vanishing_number
from .normalize import CanonicalForm, Certificate, normalize, same_orbit
from .orbits import GeneratorSet, OrbitReport, enumerate_orbits, trace_path
from .euler import FuchsianGroup, cocycle, relator_euler_number, sigma0_lift, standard_group

__version__ = "0.1.0"
