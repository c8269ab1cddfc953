"""Rotation splitting, rotating normal form, separators and ladders.

Every nontrivial element of the n-strand dual monoid (n >= 3) has a
unique decomposition obtained by repeatedly extracting the maximal
right divisor living on the first n-1 strands and rotating the
remainder back.  Iterated down to the two-strand monoid (powers of
a(1,2)), splittings form the tree that rnf and rotating_key read.
"""

from __future__ import annotations

from functools import lru_cache
from typing import NamedTuple, Union

from . import garside, ncp
from .words import (
    ArtinLetter,
    ArtinWord,
    BandLetter,
    BandWord,
    band_word,
    phi_letter,
)


class Splitting(NamedTuple):
    """The rotation splitting (beta_b, ..., beta_1) of an n-strand element.

    Entries are held as right-greedy normal forms over n-1 strands,
    highest entry first.  The trivial braid splits as one empty entry.
    """

    n: int
    forms: tuple[garside.GreedyNF, ...]

    @property
    def breadth(self) -> int:
        return len(self.forms)

    @property
    def entries(self) -> tuple[BandWord, ...]:
        return tuple(form.word() for form in self.forms)


@lru_cache(maxsize=ncp.CACHE_SIZE)
def _restrict(simple: ncp.Perm) -> ncp.Perm:
    # Tail factors fix n, so dropping the last point leaves the simple on
    # n-1 strands; one shared tuple per simple keeps memo entries small.
    return simple[:-1]


def _split(n: int, factors: tuple[ncp.Perm, ...]) -> tuple[tuple[ncp.Perm, ...], ...]:
    # phi is an automorphism: rotate each round's target and meets, never the remainder.
    factors, entries, delta, r = list(factors), [], (n - 1, *range(1, n - 1), n), 0
    while True:
        tail = garside._split_tail(factors, ncp.rotate(delta, r))
        entries.append(tuple(_restrict(ncp.rotate(s, -r)) for s in tail))
        if not factors:
            return tuple(reversed(entries))
        r = (r + 1) % n


def splitting(w: BandWord) -> Splitting:
    """Compute the unique rotation splitting of w (n >= 3)."""
    if w.n < 3:
        raise ValueError("splitting requires at least 3 strands")
    return Splitting(w.n, tuple(garside.GreedyNF(w.n - 1, e) for e in _split(w.n, garside.gnf(w).factors)))


def breadth(w: BandWord) -> int:
    """Length of the rotation splitting of w."""
    return splitting(w).breadth


def rnf(w: BandWord) -> BandWord:
    """The rotating normal form of w: phi^(b-1)(c_b) ... phi^0(c_1) down its splitting tree."""

    def letters(tree: SplittingTree, n: int) -> list[BandLetter]:
        if n == 2:
            return [BandLetter(1, 2)] * tree
        b = len(tree)
        return [phi_letter(n, b - 1 - k, l) for k, c in enumerate(tree) for l in letters(c, n - 1)]

    return BandWord(w.n, tuple(letters(splitting_tree(w), w.n)))


def last_letter(w: BandWord) -> BandLetter:
    """Final letter of the rotating normal form; undefined on the trivial braid."""
    normal = rnf(w)
    if not normal.letters:
        raise ValueError("the trivial braid has no last letter")
    return normal.letters[-1]


def separator(n: int, r: int) -> BandWord:
    """The least element of breadth r+2: phi^(r+1)(a(n-2,n-1)) ... phi^2(a(n-2,n-1)).

    The r = 0 case is the convention a(n-1,n).
    """
    if n < 3 or r < 0:
        raise ValueError("need n >= 3 and r >= 0")
    if r == 0:
        return band_word(n, [(n - 1, n)])
    rung = BandLetter(n - 2, n - 1)
    return BandWord(n, tuple(phi_letter(n, k, rung) for k in range(r + 1, 1, -1)))


SplittingTree = Union[int, tuple]  # nested tuples with int leaves


@lru_cache(maxsize=ncp.CACHE_SIZE)
def _subtree(n: int, factors: tuple[ncp.Perm, ...]) -> SplittingTree:
    # Memoized below the top level only: distinct words share most of
    # their lower entries, but a word's own top level rarely repeats.
    if n == 2:
        return len(factors)
    return tuple(_subtree(n - 1, e) for e in _split(n, factors))


def splitting_tree(w: BandWord) -> SplittingTree:
    """Fully iterated splitting: a depth n-2 tree with natural-number leaves."""
    if w.n == 2:
        return len(garside.gnf(w).factors)
    return tuple(_subtree(w.n - 1, f.factors) for f in splitting(w).forms)


def is_ladder(w: BandWord, i: int, *, with_witness: bool = False):
    """Test whether the normal word w is an a(i,n)-ladder, n = w.n.

    The word must decompose as w0 x1 w1 ... xh wh together with indices
    i = f0 < f1 < ... < fh = n-1 such that each bar xk = a(e,fk) has
    e < f(k-1) < fk, each intermediate segment wk contains no letter
    straddling fk, and the last letter of w has the form a(.,n-1).  For
    i = n-1 the convention only requires the last-letter condition.

    No segment may hold a letter straddling its level, so the first such
    letter after a bar is forced to be the next bar: one left-to-right
    scan finds the decomposition, which is unique when it exists.
    Returns a bool, or (bool, witness) when with_witness is set; the
    witness is that decomposition's list of (position, rung_top) pairs.
    """
    n = w.n
    if not (1 <= i <= n - 1):
        raise ValueError("lent index out of range")
    letters = w.letters
    if not letters or letters[-1].q != n - 1:
        return (False, None) if with_witness else False
    level, bars = i, []
    for t, (e, f) in enumerate(letters):
        if level == n - 1:
            break
        if e < level < f:
            level = f
            bars.append((t, f))
    ok = level == n - 1
    return (ok, bars if ok else None) if with_witness else ok


def dangerous_braid(indices: list[int], n: int) -> ArtinWord:
    """Expand the product of inverses of delta(f, n-1) for weakly decreasing f.

    The empty index list (the a(n-1,n) case) yields the empty word.
    """
    if any(indices[k] < indices[k + 1] for k in range(len(indices) - 1)):
        raise ValueError("indices must be weakly decreasing")
    out: list[ArtinLetter] = []
    for f in indices:
        if not (1 <= f <= n - 1):
            raise ValueError(f"index {f} out of range")
        # delta(f, n-1)^-1 = s(n-2)^-1 ... s(f)^-1
        out.extend(ArtinLetter(j, -1) for j in range(n - 2, f - 1, -1))
    return ArtinWord(n, tuple(out))
