"""Word-level carriers for the dual braid monoid and the braid group.

A band word is a finite product of band generators a(p,q) with
1 <= p < q <= n; it represents a positive element of the dual braid
monoid on n strands.  An Artin word is a signed word in the classical
generators s1, ..., s(n-1) and may represent any element of the braid
group.  Both are immutable and share one implementation, which checks
and interns a word's letters in one pass over a per-strand-count table
filled on first use; the table also holds each band letter's Artin
expansion and that expansion's inverse.  OrderResult, the verdict of
both comparators, lives here so that the oracle needs no other module.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from itertools import chain
from typing import NamedTuple

MAX_STRANDS = 32  # strand counts beyond this are refused: tables and normal forms grow as n^2


class OrderResult(enum.Enum):
    LESS = -1
    EQUAL = 0
    GREATER = 1


class BandLetter(NamedTuple):
    """The band generator a(p,q), crossing strands p and q in front."""

    p: int
    q: int

    def __str__(self) -> str:
        return f"a({self.p},{self.q})"


class ArtinLetter(NamedTuple):
    """The letter sigma_i (sign=+1) or sigma_i^-1 (sign=-1)."""

    i: int
    sign: int

    def __str__(self) -> str:
        return f"s{self.i}" if self.sign > 0 else f"s{self.i}^-1"


@dataclass(frozen=True)
class _Word:
    """A word on ``n`` strands of letters interned from ``_tables(n)[_TABLE]``,
    given as any iterable of letters or plain pairs; ``_invalid`` words the
    error for a letter not in that table.  The empty word is the trivial braid."""

    n: int
    letters: tuple = ()

    def __post_init__(self) -> None:
        table = _tables(self.n)[self._TABLE]
        letters = tuple(self.letters)
        try:
            interned = tuple(map(table.__getitem__, letters))
        except (KeyError, TypeError):  # a bad letter, or a letter given as a list
            for a, b in letters:
                if (a, b) not in table:
                    raise ValueError(self._invalid(a, b)) from None
            interned = tuple(table[a, b] for a, b in letters)
        object.__setattr__(self, "letters", interned)

    def __len__(self) -> int:
        return len(self.letters)

    def __mul__(self, other: _Word) -> _Word:
        if self.n != other.n:
            raise ValueError("strand count mismatch")
        return type(self)(self.n, self.letters + other.letters)

    def __str__(self) -> str:
        return " ".join(str(l) for l in self.letters) if self.letters else "1"


class BandWord(_Word):
    """A positive word in the band generators on ``n`` strands."""

    _TABLE = 0  # letters by (p, q)
    # Its own entry, through which benchmarks/layertrace.py counts the band words built.
    __post_init__ = _Word.__post_init__

    def is_trivial_word(self) -> bool:
        return not self.letters

    def _invalid(self, p, q) -> str:
        return f"letter a({p},{q}) is invalid on {self.n} strands"


class ArtinWord(_Word):
    """A signed word in the Artin generators on ``n`` strands."""

    _TABLE = 5  # letters by (i, sign)

    def _invalid(self, i, sign) -> str:
        if not 1 <= i <= self.n - 1:
            return f"index {i} out of range on {self.n} strands"
        if sign not in (1, -1):
            return f"invalid sign {sign}"
        return "an Artin letter must be a pair of ints (index, sign)"


# Letters on each strand count n, filled on first use; at most one entry
# per n in 2..MAX_STRANDS.  An entry is (band letters by (p, q), Artin
# letters' codes 2*i + (sign < 0), the Artin letters by code, each band
# letter's Artin expansion, the inverse of that expansion, and the Artin
# letters by (i, sign)).
_TABLES: dict[int, tuple[dict, dict, list, dict, dict, dict]] = {}


def _tables(n: int) -> tuple[dict, dict, list, dict, dict, dict]:
    table = _TABLES.get(n)
    if table is not None:
        return table
    if not 2 <= n <= MAX_STRANDS:
        raise ValueError(f"strand count must be between 2 and {MAX_STRANDS}")
    decode = [None, None] + [ArtinLetter(x >> 1, -1 if x & 1 else 1) for x in range(2, 2 * n)]
    codes = {letter: x for x, letter in enumerate(decode[2:], 2)}
    band, up, down = {}, {}, {}
    for q in range(2, n + 1):
        for p in range(1, q):
            letter = band[p, q] = BandLetter(p, q)
            # a(p,q) = s_p ... s_{q-2} s_{q-1} s_{q-2}^-1 ... s_p^-1
            word = [2 * i for i in range(p, q)] + [2 * i + 1 for i in range(q - 2, p - 1, -1)]
            up[letter] = tuple(decode[x] for x in word)
            down[letter] = tuple(decode[x ^ 1] for x in reversed(word))
    table = _TABLES[n] = band, codes, decode, up, down, {letter: letter for letter in codes}
    return table


band_word = BandWord  # from any iterable of (p, q) pairs


def phi_letter(n: int, k: int, letter: BandLetter) -> BandLetter:
    """Image of a band letter under the k-th power of the rotation automorphism.

    The rotation shifts both indices by one modulo n, switching them if
    needed so that p < q always holds.
    """
    k = k % n
    p = (letter.p - 1 + k) % n + 1
    q = (letter.q - 1 + k) % n + 1
    if p > q:
        p, q = q, p
    return BandLetter(p, q)


def phi(k: int, w: BandWord) -> BandWord:
    """Letterwise image of w under the k-th power of the rotation phi_n, n = w.n."""
    return BandWord(w.n, tuple(phi_letter(w.n, k, l) for l in w.letters))


def delta_word(p: int, q: int, n: int) -> BandWord:
    """The ascending product a(p,p+1) a(p+1,p+2) ... a(q-1,q); empty for p = q.

    With p = 1 and q = n this is the Garside element of the monoid.
    """
    if not (1 <= p <= q <= n):
        raise ValueError(f"invalid interval [{p},{q}] on {n} strands")
    return BandWord(n, zip(range(p, q), range(p + 1, q + 1)))


def band_to_artin(w: BandWord) -> ArtinWord:
    """Expand each band letter a(p,q) into its conjugate Artin expression.

    a(p,q) = s_p ... s_{q-2} s_{q-1} s_{q-2}^-1 ... s_p^-1.
    """
    up = _tables(w.n)[3]
    return ArtinWord(w.n, tuple(chain.from_iterable(map(up.__getitem__, w.letters))))


def invert(w: ArtinWord) -> ArtinWord:
    """Group inverse: letterwise reversal with sign flip."""
    _, codes, decode, _, _, _ = _tables(w.n)
    return ArtinWord(w.n, tuple(decode[codes[letter] ^ 1] for letter in reversed(w.letters)))


def widen(w: BandWord, n: int) -> BandWord:
    """Reinterpret a word over a larger strand count.  Explicit, never implicit."""
    if n < w.n:
        raise ValueError("cannot widen to fewer strands")
    return BandWord(n, w.letters)
