"""The rotating ordering: recursive ShortLex comparison of splittings.

At two strands, elements are powers of a(1,2) and compare by exponent.
At n strands, elements compare by the ShortLex extension applied to
their rotation splittings: shorter splitting first, then entrywise from
the highest entry down, recursively one strand lower.  The recursion
lives in rotating_key; comparing two elements compares their keys.
"""

from __future__ import annotations

import enum

from . import garside, rotating
from .words import BandWord, band_word, widen


class OrderResult(enum.Enum):
    LESS = -1
    EQUAL = 0
    GREATER = 1

    @staticmethod
    def of(diff: int) -> "OrderResult":
        return OrderResult(0 if diff == 0 else (1 if diff > 0 else -1))

    def flipped(self) -> "OrderResult":
        return OrderResult(-self.value)


def cmp_rotating(u: BandWord, v: BandWord) -> OrderResult:
    """Compare two elements of the dual monoid in the rotating ordering.

    Words on different strand counts are widened to the larger one.
    """
    if u.n != v.n:
        m = max(u.n, v.n)
        u, v = widen(u, m), widen(v, m)
    ku, kv = rotating_key(u), rotating_key(v)
    return OrderResult.of((ku > kv) - (ku < kv))


def rotating_key(w: BandWord):
    """A sort key realizing the rotating ordering.

    The key of a two-strand element is its exponent; the key of an
    n-strand element is (breadth, key(entry_b), ..., key(entry_1)); the
    trivial braid gets (0,), below every breadth.  Sorting by key ranks a
    corpus with one splitting-tree computation per element.
    """
    if w.n == 2:
        return len(garside.gnf(w).factors)
    split = rotating.splitting(w)
    if split.trivial:
        return (0,)
    return (split.breadth, *(rotating_key(entry) for entry in split.entries))


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
