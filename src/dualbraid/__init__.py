"""Computational engine for the dual braid monoid.

Core pieces: band and Artin word carriers, simple elements as
permutations, the right-greedy normal form, the rotating normal form
with its splittings, the ShortLex rotating ordering by keys, and an
independent ordering oracle based on handle reduction.
"""

from .garside import GreedyNF, equal, gnf, right_divides, right_quotient, tail
from .ncp import NonCrossingPartition, letter_simple
from .oracle import OracleError, SigmaClass, cmp_dehornoy, free_reduce, handle_reduce, sigma_class
from .ordering import OrderResult, cmp_rotating, is_initial_segment_member, min_of_breadth, rotating_key, successor
from .rotating import (
    Splitting,
    breadth,
    dangerous_braid,
    is_ladder,
    last_letter,
    rnf,
    separator,
    splitting,
    splitting_tree,
)
from .words import (
    ArtinWord,
    BandLetter,
    BandWord,
    band_to_artin,
    band_word,
    delta_word,
    phi,
    widen,
)

__all__ = [
    "ArtinWord",
    "BandLetter",
    "BandWord",
    "GreedyNF",
    "NonCrossingPartition",
    "OracleError",
    "OrderResult",
    "SigmaClass",
    "Splitting",
    "band_to_artin",
    "band_word",
    "breadth",
    "cmp_dehornoy",
    "cmp_rotating",
    "dangerous_braid",
    "delta_word",
    "equal",
    "free_reduce",
    "gnf",
    "handle_reduce",
    "is_initial_segment_member",
    "is_ladder",
    "last_letter",
    "letter_simple",
    "min_of_breadth",
    "phi",
    "right_divides",
    "right_quotient",
    "rnf",
    "rotating_key",
    "separator",
    "sigma_class",
    "splitting",
    "splitting_tree",
    "successor",
    "tail",
    "widen",
]
