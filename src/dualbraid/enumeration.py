"""Exhaustive enumeration of monoid elements up to a word length.

enum-verify and the tests compare the two orderings on every element
this finds.  The brute-force references that rewrite words by the
defining relations live with the tests, in tests/brute_force.py.
"""

from __future__ import annotations

from itertools import combinations

from . import garside
from .words import BandLetter, BandWord


def generators(n: int) -> list[BandLetter]:
    return [BandLetter(p, q) for p, q in combinations(range(1, n + 1), 2)]


def enumerate_elements(n: int, max_length: int) -> list[BandWord]:
    """One representative word per monoid element of length <= max_length."""
    gens = generators(n)
    seen: dict[garside.GreedyNF, BandWord] = {garside.gnf(BandWord(n)): BandWord(n)}
    frontier = [BandWord(n)]
    for _ in range(max_length):
        next_frontier = []
        for w in frontier:
            for g in gens:
                candidate = BandWord(n, w.letters + (g,))
                key = garside.gnf(candidate)
                if key not in seen:
                    seen[key] = candidate
                    next_frontier.append(candidate)
        frontier = next_frontier
    return list(seen.values())
