"""Rotation splitting, rotating normal form, separators and ladders.

Every nontrivial element of the n-strand dual monoid (n >= 3) has a
unique decomposition obtained by repeatedly extracting the maximal
right divisor living on the first n-1 strands and rotating the
remainder back.  The rotating normal form recurses through these
splittings down to the two-strand monoid, whose elements are the powers
of a(1,2).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

from . import garside, ncp
from .words import (
    ArtinLetter,
    ArtinWord,
    BandLetter,
    BandWord,
    band_word,
    narrow,
    phi,
    widen,
)


@dataclass(frozen=True)
class Splitting:
    """The rotation splitting (beta_b, ..., beta_1) of an n-strand element.

    Entries are words over n-1 strands, highest entry first.  The
    trivial braid gets the flagged single-entry sequence (1).
    """

    n: int
    entries: tuple[BandWord, ...]
    trivial: bool = False

    @property
    def breadth(self) -> int:
        return len(self.entries)


def splitting(w: BandWord) -> Splitting:
    """Compute the unique rotation splitting of w (n >= 3)."""
    n = w.n
    if n < 3:
        raise ValueError("splitting requires at least 3 strands")
    remainder = garside.gnf(w)
    if not remainder.factors:
        return Splitting(n, (BandWord(n - 1),), trivial=True)
    entries: list[BandWord] = []
    while True:
        part, remainder = garside.split_tail(remainder, n - 1)
        entries.append(narrow(part.word(), n - 1))
        if not remainder.factors:
            break
        # phi^-1 is an automorphism, so it maps a normal form to a normal form.
        remainder = garside.GreedyNF(n, tuple(ncp.rotate(f, -1) for f in remainder.factors))
    return Splitting(n, tuple(reversed(entries)))


def breadth(w: BandWord) -> int:
    """Length of the rotation splitting of w."""
    return splitting(w).breadth


def rnf(w: BandWord) -> BandWord:
    """The rotating normal form of the element represented by w."""
    n = w.n
    if n == 2:
        return band_word(2, [(1, 2)] * len(garside.gnf(w).factors))
    split = splitting(w)
    if split.trivial:
        return BandWord(n)
    out = BandWord(n)
    b = split.breadth
    for k, entry in enumerate(split.entries):
        out = out * phi(n, b - 1 - k, widen(rnf(entry), n))
    return out


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
    seed = band_word(n, [(n - 2, n - 1)])
    out = BandWord(n)
    for k in range(r + 1, 1, -1):
        out = out * phi(n, k, seed)
    return out


Leaf = int
SplittingTree = Union[Leaf, tuple]  # nested tuples with int leaves


def splitting_tree(w: BandWord) -> SplittingTree:
    """Fully iterated splitting: a depth n-2 tree with natural-number leaves."""
    if w.n == 2:
        return len(garside.gnf(w).factors)
    return tuple(splitting_tree(entry) for entry in splitting(w).entries)


def tree_depth(tree: SplittingTree) -> int:
    if isinstance(tree, int):
        return 0
    depths = {tree_depth(child) for child in tree}
    if len(depths) != 1:
        raise ValueError("ragged splitting tree")
    return depths.pop() + 1


def is_ladder(
    w: BandWord, i: int, n: int, with_witness: bool = False
):
    """Test whether the normal word w is an a(i,n)-ladder.

    The word must decompose as w0 x1 w1 ... xh wh together with indices
    i = f0 < f1 < ... < fh = n-1 such that each bar xk = a(e,fk) has
    e < f(k-1) < fk, each intermediate segment wk contains no letter
    straddling fk, and the last letter of w has the form a(.,n-1).  For
    i = n-1 the convention only requires the last-letter condition.

    Returns a bool, or (bool, witness) when with_witness is set; the
    witness is the leftmost-greedy list of (position, rung_top) pairs.
    """
    if not (1 <= i <= n - 1):
        raise ValueError("lent index out of range")
    letters = w.letters
    if not letters or letters[-1].q != n - 1:
        return (False, None) if with_witness else False
    if i == n - 1:
        return (True, []) if with_witness else True

    def segment_clear(start: int, stop: int, level: int) -> bool:
        return all(
            not (l.p < level < l.q) for l in letters[start:stop]
        )

    def search(pos: int, level: int, bars: list[tuple[int, int]]):
        # Scan for the next bar left to right; the leftmost usable bar is
        # tried first, giving the leftmost-greedy witness.
        for t in range(pos, len(letters)):
            e, f = letters[t]
            if e < level < f and segment_clear(pos, t, level):
                if f == n - 1:
                    return bars + [(t, f)]
                found = search(t + 1, f, bars + [(t, f)])
                if found is not None:
                    return found
        return None

    witness = search(0, i, [])
    ok = witness is not None
    return (ok, witness) if with_witness else ok


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
