"""Word-level carriers for the dual braid monoid and the braid group.

A band word is a finite product of band generators a(p,q) with
1 <= p < q <= n; it represents a positive element of the dual braid
monoid on n strands.  An Artin word is a signed word in the classical
generators s1, ..., s(n-1) and may represent any element of the braid
group.  Both carriers are immutable; every operation returns a fresh
value.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, NamedTuple


class BandLetter(NamedTuple):
    """The band generator a(p,q), crossing strands p and q in front."""

    p: int
    q: int

    def validate(self, n: int) -> None:
        if not (1 <= self.p < self.q <= n):
            raise ValueError(f"letter a({self.p},{self.q}) is invalid on {n} strands")

    def __str__(self) -> str:
        return f"a({self.p},{self.q})"


@dataclass(frozen=True)
class BandWord:
    """A positive word in the band generators on ``n`` strands.

    The empty word represents the trivial braid.
    """

    n: int
    letters: tuple[BandLetter, ...] = ()

    def __post_init__(self) -> None:
        if self.n < 2:
            raise ValueError("strand count must be at least 2")
        for letter in self.letters:
            letter.validate(self.n)

    def __len__(self) -> int:
        return len(self.letters)

    def is_trivial_word(self) -> bool:
        return not self.letters

    def __mul__(self, other: "BandWord") -> "BandWord":
        if self.n != other.n:
            raise ValueError("strand count mismatch")
        return BandWord(self.n, self.letters + other.letters)

    def __str__(self) -> str:
        return " ".join(str(l) for l in self.letters) if self.letters else "1"

    def max_index(self) -> int:
        """Largest strand index touched by any letter (0 for the empty word)."""
        return max((l.q for l in self.letters), default=0)


class ArtinLetter(NamedTuple):
    """The letter sigma_i (sign=+1) or sigma_i^-1 (sign=-1)."""

    i: int
    sign: int

    def __str__(self) -> str:
        return f"s{self.i}" if self.sign > 0 else f"s{self.i}^-1"


@dataclass(frozen=True)
class ArtinWord:
    """A signed word in the Artin generators on ``n`` strands."""

    n: int
    letters: tuple[ArtinLetter, ...] = ()

    def __post_init__(self) -> None:
        if self.n < 2:
            raise ValueError("strand count must be at least 2")
        for i, sign in self.letters:
            if not (1 <= i <= self.n - 1):
                raise ValueError(f"index {i} out of range on {self.n} strands")
            if sign not in (1, -1):
                raise ValueError(f"invalid sign {sign}")

    def __len__(self) -> int:
        return len(self.letters)

    def __mul__(self, other: "ArtinWord") -> "ArtinWord":
        if self.n != other.n:
            raise ValueError("strand count mismatch")
        return ArtinWord(self.n, self.letters + other.letters)

    def __str__(self) -> str:
        return " ".join(str(l) for l in self.letters) if self.letters else "1"


def band_word(n: int, pairs: Iterable[tuple[int, int]]) -> BandWord:
    """Convenience constructor from (p, q) pairs."""
    return BandWord(n, tuple(BandLetter(p, q) for p, q in pairs))


def artin_word(n: int, letters: Iterable[tuple[int, int]]) -> ArtinWord:
    """Convenience constructor from (index, sign) pairs."""
    return ArtinWord(n, tuple(ArtinLetter(i, s) for i, s in letters))


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


def phi(n: int, k: int, w: BandWord) -> BandWord:
    """Letterwise image of a band word under the rotation automorphism."""
    if w.n != n:
        raise ValueError("strand count mismatch")
    return BandWord(n, tuple(phi_letter(n, k, l) for l in w.letters))


def delta_word(p: int, q: int, n: int) -> BandWord:
    """The ascending product a(p,p+1) a(p+1,p+2) ... a(q-1,q); empty for p = q.

    With p = 1 and q = n this is the Garside element of the monoid.
    """
    if not (1 <= p <= q <= n):
        raise ValueError(f"invalid interval [{p},{q}] on {n} strands")
    return band_word(n, [(r, r + 1) for r in range(p, q)])


def garside_word(n: int) -> BandWord:
    """The Garside element as a word."""
    return delta_word(1, n, n)


def band_to_artin(w: BandWord) -> ArtinWord:
    """Expand each band letter a(p,q) into its conjugate Artin expression.

    a(p,q) = s_p ... s_{q-2} s_{q-1} s_{q-2}^-1 ... s_p^-1.
    """
    out: list[ArtinLetter] = []
    for p, q in w.letters:
        out.extend(ArtinLetter(i, 1) for i in range(p, q - 1))
        out.append(ArtinLetter(q - 1, 1))
        out.extend(ArtinLetter(i, -1) for i in range(q - 2, p - 1, -1))
    return ArtinWord(w.n, tuple(out))


def invert(w: ArtinWord) -> ArtinWord:
    """Group inverse: letterwise reversal with sign flip."""
    return ArtinWord(w.n, tuple(ArtinLetter(i, -s) for i, s in reversed(w.letters)))


def widen(w: BandWord, n: int) -> BandWord:
    """Reinterpret a word over a larger strand count.  Explicit, never implicit."""
    if n < w.n:
        raise ValueError("cannot widen to fewer strands")
    return BandWord(n, w.letters)


def narrow(w: BandWord, n: int) -> BandWord:
    """Reinterpret a word over fewer strands; every letter must fit."""
    if w.max_index() > n:
        raise ValueError(f"word does not fit in {n} strands")
    return BandWord(n, w.letters)

