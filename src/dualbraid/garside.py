"""Right-greedy normal form, equality, right division and tails for band words.

Equality of band words is decided through the right-greedy normal form
over simple elements, held as permutations (see ncp): two words
represent the same monoid element exactly when their factor sequences
coincide.  The last factor
is the maximal simple right divisor, so right division and the tail in
an m-strand submonoid are both read off it.  The monoid is only ever
divided on the right.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import ncp
from .ncp import Perm
from .words import BandWord


@dataclass(frozen=True)
class GreedyNF:
    """Right-greedy factorization; the empty factor list is the trivial braid."""

    n: int
    factors: tuple[Perm, ...]

    def word(self) -> BandWord:
        return BandWord(self.n, tuple(l for f in self.factors for l in ncp.ncp_word(f).letters))


def _normalize(n: int, factors: list[Perm]) -> tuple[Perm, ...]:
    # Bubble passes: slide the movable part of each factor into its right
    # neighbour until every adjacent pair is right-weighted.
    factors = [f for f in factors if not ncp.is_trivial(f)]
    changed = True
    while changed:
        changed = False
        for i in range(len(factors) - 1):
            head, tail = factors[i], factors[i + 1]
            slide = ncp.meet(head, ncp.left_complement(tail))
            if not ncp.is_trivial(slide):
                factors[i] = ncp.right_quotient(head, slide)
                factors[i + 1] = ncp.simple_product(slide, tail)
                changed = True
        factors = [f for f in factors if not ncp.is_trivial(f)]
    return tuple(factors)


def _divide_last(n: int, factors: tuple[Perm, ...], simple: Perm) -> tuple[Perm, ...]:
    # The last factor is the maximal simple right divisor: dividing a
    # simple off it and re-normalizing gives the quotient's normal form.
    return _normalize(n, [*factors[:-1], ncp.right_quotient(factors[-1], simple)])


def gnf(w: BandWord) -> GreedyNF:
    """The unique right-greedy normal form of the element represented by w."""
    factors = [ncp.letter_simple(letter, w.n) for letter in w.letters]
    return GreedyNF(w.n, _normalize(w.n, factors))


def equal(u: BandWord, v: BandWord) -> bool:
    """True iff u and v represent the same monoid element."""
    if u.n != v.n:
        raise ValueError("strand count mismatch")
    return gnf(u).factors == gnf(v).factors


def _right_quotient_or_none(w: BandWord, g: BandWord) -> GreedyNF | None:
    if w.n != g.n:
        raise ValueError("strand count mismatch")
    factors = gnf(w).factors
    for letter in reversed(g.letters):
        simple = ncp.letter_simple(letter, w.n)
        # A generator divides the element iff it divides the last factor.
        if not factors or not ncp.refines(simple, factors[-1]):
            return None
        factors = _divide_last(w.n, factors, simple)
    return GreedyNF(w.n, factors)


def right_divides(g: BandWord, w: BandWord) -> bool:
    """True iff there is a positive u with w = u * g."""
    return _right_quotient_or_none(w, g) is not None


def right_quotient(w: BandWord, g: BandWord) -> BandWord:
    """The positive u with w = u * g; raises if g does not right-divide w."""
    quotient = _right_quotient_or_none(w, g)
    if quotient is None:
        raise ValueError("not a right divisor")
    return quotient.word()


def split_tail(nf: GreedyNF, m: int) -> tuple[GreedyNF, GreedyNF]:
    """Split nf as remainder * tail, the tail maximal in the m-strand submonoid.

    A generator a(p,q) with q <= m right-divides the element iff it
    refines s, the meet of the last factor with the partition whose one
    nontrivial block is {1..m}.  The submonoid is closed under right
    quotients, so tail(w) = tail(w / s) * s; dividing such meets off
    until one is trivial collects the tail.
    """
    n = nf.n
    delta_m = (m, *range(1, m), *range(m + 1, n + 1))  # the descending cycle on {1..m}
    factors, collected = nf.factors, []
    while factors:
        s = ncp.meet(factors[-1], delta_m)
        if ncp.is_trivial(s):
            break
        factors = _divide_last(n, factors, s)
        collected.append(s)
    return GreedyNF(n, _normalize(n, collected[::-1])), GreedyNF(n, factors)


def tail(w: BandWord, m: int) -> BandWord:
    """Maximal right divisor of w whose letters all satisfy q <= m."""
    if not (2 <= m < w.n):
        raise ValueError("m must satisfy 2 <= m < n")
    return split_tail(gnf(w), m)[0].word()
