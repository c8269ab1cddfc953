"""Right-greedy normal form, equality, right division and tails for band words.

Equality of band words is decided through the right-greedy normal form
over simple elements, held as permutations (see ncp): two words
represent the same monoid element exactly when their factor sequences
coincide.  The one normalization step appends a simple to a normal form
in one right-to-left pass, and gnf appends letter by letter.  The last
factor is the maximal simple right divisor: right division divides it
and appends the quotient, and the tail in an m-strand submonoid is read
off its meets.  The monoid is only ever divided on the right.
"""

from __future__ import annotations

from functools import reduce
from typing import NamedTuple

from . import ncp
from .ncp import Perm
from .words import BandWord


class GreedyNF(NamedTuple):
    """Right-greedy factorization; the empty factor list is the trivial braid."""

    n: int
    factors: tuple[Perm, ...]

    def word(self) -> BandWord:
        return BandWord(self.n, tuple(l for f in self.factors for l in ncp.ncp_word(f).letters))


def _append(factors: list[Perm], simple: Perm) -> list[Perm]:
    # Domino rule: walking right to left, slide the movable part of each
    # factor into its right neighbour; once a slide (or what is left to
    # carry) is trivial, the factors to its left are already normal.
    # Updates factors in place and returns it.
    one = ncp.trivial_simple(len(simple))
    factors.append(simple)
    i = len(factors) - 1
    while i and factors[i] != one:
        slide = ncp.meet(factors[i - 1], ncp.left_complement(factors[i]))
        if slide == one:
            break
        factors[i - 1] = ncp.right_quotient(factors[i - 1], slide)
        factors[i] = ncp.simple_product(slide, factors[i])
        i -= 1
    if factors[i] == one:
        del factors[i]
    return factors


def gnf(w: BandWord) -> GreedyNF:
    """The unique right-greedy normal form of the element represented by w."""
    return GreedyNF(w.n, tuple(reduce(_append, (ncp.letter_simple(l, w.n) for l in w.letters), [])))


def equal(u: BandWord, v: BandWord) -> bool:
    """True iff u and v represent the same monoid element."""
    if u.n != v.n:
        raise ValueError("strand count mismatch")
    return gnf(u).factors == gnf(v).factors


def _right_quotient_or_none(w: BandWord, g: BandWord) -> GreedyNF | None:
    if w.n != g.n:
        raise ValueError("strand count mismatch")
    factors = list(gnf(w).factors)
    for letter in reversed(g.letters):
        simple = ncp.letter_simple(letter, w.n)
        # A generator divides the element iff it divides the last factor.
        if not factors or not ncp.refines(simple, factors[-1]):
            return None
        _append(factors, ncp.right_quotient(factors.pop(), simple))
    return GreedyNF(w.n, tuple(factors))


def right_divides(g: BandWord, w: BandWord) -> bool:
    """True iff there is a positive u with w = u * g."""
    return _right_quotient_or_none(w, g) is not None


def right_quotient(w: BandWord, g: BandWord) -> BandWord:
    """The positive u with w = u * g; raises if g does not right-divide w."""
    quotient = _right_quotient_or_none(w, g)
    if quotient is None:
        raise ValueError("not a right divisor")
    return quotient.word()


def _split_tail(factors: list[Perm], target: Perm) -> tuple[Perm, ...]:
    # Divides off the tail under target, a simple; the remainder is left in factors.
    one = ncp.trivial_simple(len(target))
    collected = []
    while factors and (s := ncp.meet(factors[-1], target)) != one:
        _append(factors, ncp.right_quotient(factors.pop(), s))
        collected.append(s)
    return tuple(reversed(collected))


def split_tail(nf: GreedyNF, m: int) -> tuple[GreedyNF, GreedyNF]:
    """Return (tail, remainder), nf = remainder * tail, the tail maximal in the m-strand submonoid.

    A generator a(p,q) with q <= m right-divides the element iff it
    refines s, the meet of the last factor with delta_m, the submonoid's
    Garside element (the partition whose one nontrivial block is {1..m});
    s is the maximal simple right divisor of the tail.  The submonoid is
    closed under right quotients, so tail(w) = tail(w / s) * s; dividing
    such meets off until one is trivial collects the tail, and the meets,
    the last collected first, are its normal form.
    """
    if not (2 <= m < nf.n):
        raise ValueError("m must satisfy 2 <= m < n")
    factors, delta_m = list(nf.factors), (m, *range(1, m), *range(m + 1, nf.n + 1))
    return GreedyNF(nf.n, _split_tail(factors, delta_m)), GreedyNF(nf.n, tuple(factors))


def tail(w: BandWord, m: int) -> BandWord:
    """Maximal right divisor of w whose letters all satisfy q <= m."""
    return split_tail(gnf(w), m)[0].word()
