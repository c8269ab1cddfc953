"""Independent ordering oracle: handle reduction of Artin words.

Classification uses the greatest-index convention: a word is positive
(negative) when, after reduction, all occurrences of the highest
generator index are positive (negative).  A handle is a subword
s_i^e ... s_i^-e whose interior only involves indices below i;
removing it via the braid relations preserves the group element.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from .ordering import OrderResult
from .words import ArtinLetter, ArtinWord, BandWord, band_to_artin, invert


class SigmaKind(enum.Enum):
    TRIVIAL = "trivial"
    POSITIVE = "positive"
    NEGATIVE = "negative"


@dataclass(frozen=True)
class SigmaClass:
    kind: SigmaKind
    index: int | None = None

    def __str__(self) -> str:
        if self.kind is SigmaKind.TRIVIAL:
            return "trivial"
        return f"{self.kind.value}({self.index})"


TRIVIAL = SigmaClass(SigmaKind.TRIVIAL)
MAX_LENGTH = 10**6  # letters an intermediate word of handle_reduce may reach


class OracleError(RuntimeError):
    """Handle reduction failed to decide a word."""


class ReductionOverflow(OracleError):
    """The intermediate word exceeded the length ceiling MAX_LENGTH."""


def free_reduce(w: ArtinWord) -> ArtinWord:
    """Cancel adjacent pairs s_i^e s_i^-e until none remain."""
    stack: list[ArtinLetter] = []
    for letter in w.letters:
        if stack and stack[-1].i == letter.i and stack[-1].sign == -letter.sign:
            stack.pop()
        else:
            stack.append(letter)
    return ArtinWord(w.n, tuple(stack))


def _find_handle(letters: tuple[ArtinLetter, ...]) -> tuple[int, int] | None:
    # Leftmost-ending handle; its interior cannot contain another handle.
    for t, (i, sign) in enumerate(letters):
        s = t - 1
        while s >= 0 and letters[s].i < i:
            s -= 1
        if s >= 0 and letters[s].i == i and letters[s].sign == -sign:
            return s, t
    return None


def handle_reduce(w: ArtinWord) -> ArtinWord:
    """Reduce w until it is freely reduced and handle-free.

    The result represents the same group element; it is empty or has a
    uniform sign at its maximal index.
    """
    current = free_reduce(w)
    while True:
        found = _find_handle(current.letters)
        if found is None:
            return current
        s, t = found
        letters = current.letters
        i, e = letters[s].i, letters[s].sign
        replacement: list[ArtinLetter] = []
        for letter in letters[s + 1 : t]:
            if letter.i == i - 1:
                replacement.extend(
                    (
                        ArtinLetter(i - 1, -e),
                        ArtinLetter(i, letter.sign),
                        ArtinLetter(i - 1, e),
                    )
                )
            else:
                replacement.append(letter)
        current = free_reduce(
            ArtinWord(w.n, letters[:s] + tuple(replacement) + letters[t + 1 :])
        )
        if len(current) > MAX_LENGTH:
            raise ReductionOverflow(f"word grew past {MAX_LENGTH} letters")


def sigma_class(w: ArtinWord) -> SigmaClass:
    """Classify the group element of w as trivial, positive or negative."""
    reduced = handle_reduce(w)
    if not reduced.letters:
        return TRIVIAL
    top = max(letter.i for letter in reduced.letters)
    signs = {letter.sign for letter in reduced.letters if letter.i == top}
    if len(signs) != 1:
        raise OracleError("mixed signs at the maximal index after reduction")
    kind = SigmaKind.POSITIVE if signs.pop() > 0 else SigmaKind.NEGATIVE
    return SigmaClass(kind, top)


def cmp_dehornoy(u: BandWord, v: BandWord) -> OrderResult:
    """Compare two positive band words in the braid ordering via the oracle."""
    if u.n != v.n:
        raise ValueError("strand count mismatch")
    quotient = invert(band_to_artin(u)) * band_to_artin(v)
    verdict = sigma_class(quotient)
    if verdict.kind is SigmaKind.TRIVIAL:
        return OrderResult.EQUAL
    if verdict.kind is SigmaKind.POSITIVE:
        return OrderResult.LESS
    return OrderResult.GREATER
