"""Independent ordering oracle: handle reduction of Artin words.

Classification uses the greatest-index convention: a word is positive
(negative) when, after reduction, all occurrences of the highest
generator index are positive (negative).  A handle is a subword
s_i^e ... s_i^-e whose interior only involves indices below i;
removing it via the braid relations preserves the group element.

handle_reduce works on a list of ints, s_i^e stored as 2*i + (e < 0), so
x ^ 1 is the inverse of x; after each handle it keeps the prefix, cancels
at the two junctions only, and resumes the search where the word changed.
"""

from __future__ import annotations

import enum
from itertools import chain
from typing import NamedTuple

from .ordering import OrderResult
from .words import ArtinWord, BandWord, _tables


class SigmaKind(enum.Enum):
    TRIVIAL = "trivial"
    POSITIVE = "positive"
    NEGATIVE = "negative"


class SigmaClass(NamedTuple):
    kind: SigmaKind
    index: int | None = None

    def __str__(self) -> str:
        if self.kind is SigmaKind.TRIVIAL:
            return "trivial"
        return f"{self.kind.value}({self.index})"


TRIVIAL = SigmaClass(SigmaKind.TRIVIAL)
MAX_LENGTH = 10**6  # letters an intermediate word of handle_reduce may reach
MAX_STEPS = 10**6  # handle removals one call of handle_reduce may make


class OracleError(RuntimeError):
    """Handle reduction failed to decide a word."""


class ReductionOverflow(OracleError):
    """Handle reduction outgrew its bounds: a word longer than MAX_LENGTH
    letters, or more than MAX_STEPS handle removals."""


def _free_codes(w: ArtinWord) -> list[int]:
    # The letters of w as ints, with adjacent inverse pairs cancelled.
    codes = _tables(w.n)[1]
    word: list[int] = []
    for x in map(codes.__getitem__, w.letters):
        if word and word[-1] == x ^ 1:
            word.pop()
        else:
            word.append(x)
    return word


def free_reduce(w: ArtinWord) -> ArtinWord:
    """Cancel adjacent pairs s_i^e s_i^-e until none remain."""
    decode = _tables(w.n)[2]
    return ArtinWord(w.n, tuple(map(decode.__getitem__, _free_codes(w))))


def _join(word: list[int], letters: list[int]) -> int:
    # Append freely reduced letters to the freely reduced word, cancelling
    # only at the junction; return the length the cancelling left.
    k = 0
    for x in letters:
        if not word or word[-1] != x ^ 1:
            break
        word.pop()
        k += 1
    low = len(word)
    word += letters[k:]
    return low


def handle_reduce(w: ArtinWord) -> ArtinWord:
    """Reduce w until it is freely reduced and handle-free.

    The result represents the same group element; it is empty or has a
    uniform sign at its maximal index.
    """
    decode = _tables(w.n)[2]
    word = _free_codes(w)
    t = steps = 0
    while True:
        if len(word) > MAX_LENGTH:
            raise ReductionOverflow(f"word grew past {MAX_LENGTH} letters")
        # Leftmost-ending handle; none ends before t, and its interior
        # cannot contain another handle.
        for t in range(t, len(word)):
            x = word[t]
            top = x & ~1
            s = t - 1
            while s >= 0 and word[s] < top:
                s -= 1
            if s >= 0 and word[s] == x ^ 1:
                break
        else:
            return ArtinWord(w.n, tuple(map(decode.__getitem__, word)))
        steps += 1
        if steps > MAX_STEPS:
            raise ReductionOverflow(f"more than {MAX_STEPS} handle removals")
        # s_i^e v s_i^-e becomes v with each s_(i-1)^f in it replaced by
        # s_(i-1)^-e s_i^f s_(i-1)^e; neighbouring triples cancel in between.
        below, e = top - 2, word[s] & 1
        replacement: list[int] = []
        for y in word[s + 1 : t]:
            if y & ~1 != below:
                replacement.append(y)
            elif replacement and replacement[-1] == below | e:
                replacement[-1] = top | (y & 1)
                replacement.append(below | e)
            else:
                replacement += (below | (e ^ 1), top | (y & 1), below | e)
        suffix = word[t + 1 :]
        del word[s:]
        t = min(_join(word, replacement), _join(word, suffix))


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
    # u^-1 v from the cached expansions of the letters: u's inverted, in reverse.
    _, _, _, up, down, _ = _tables(u.n)
    inverse_u = chain.from_iterable(map(down.__getitem__, reversed(u.letters)))
    quotient = ArtinWord(u.n, (*inverse_u, *chain.from_iterable(map(up.__getitem__, v.letters))))
    verdict = sigma_class(quotient)
    if verdict.kind is SigmaKind.TRIVIAL:
        return OrderResult.EQUAL
    if verdict.kind is SigmaKind.POSITIVE:
        return OrderResult.LESS
    return OrderResult.GREATER
