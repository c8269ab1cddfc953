"""The rotating ordering: recursive ShortLex comparison of splittings.

At two strands, elements are powers of a(1,2) and compare by exponent.
At n strands, elements compare by the ShortLex extension applied to
their rotation splittings: shorter splitting first, then entrywise from
the highest entry down, recursively one strand lower.  rotating_key
encodes splitting trees in this order; cmp_rotating compares keys.
"""

from __future__ import annotations

from . import rotating
from .words import BandWord, OrderResult, band_word


def cmp_rotating(u: BandWord, v: BandWord) -> OrderResult:
    """Compare two elements of the dual monoid in the rotating ordering."""
    if u.n != v.n:
        raise ValueError("strand count mismatch")
    ku, kv = rotating_key(u), rotating_key(v)
    return OrderResult.of((ku > kv) - (ku < kv))


def rotating_key(w: BandWord):
    """A sort key realizing the rotating ordering: ShortLex on the splitting tree.

    A leaf (a two-strand exponent) is its own key; a node with children
    c_b, ..., c_1 has key (b, key(c_b), ..., key(c_1)).  Keys of one strand
    count compare like their elements; the trivial braid's is the least.
    """

    def shortlex(tree: rotating.SplittingTree):
        if isinstance(tree, int):
            return tree
        return (len(tree), *map(shortlex, tree))

    return shortlex(rotating.splitting_tree(w))


def successor(w: BandWord) -> BandWord:
    """The immediate successor in the rotating ordering: append a(1,2)."""
    return w * band_word(w.n, [(1, 2)])


def is_initial_segment_member(w: BandWord, n: int) -> bool:
    """True iff w lies below a(n-1,n), i.e. in the (n-1)-strand submonoid."""
    if w.n != n:
        raise ValueError("strand count mismatch")
    if n < 3:
        raise ValueError("need n >= 3")
    boundary = band_word(n, [(n - 1, n)])
    return cmp_rotating(w, boundary) is OrderResult.LESS


def min_of_breadth(n: int, b: int) -> BandWord:
    """The smallest element of the given breadth (b >= 2): a separator."""
    if b < 2:
        raise ValueError("breadth must be at least 2")
    return rotating.separator(n, b - 2)
