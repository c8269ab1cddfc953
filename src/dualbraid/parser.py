"""Textual braid-word syntax.

Tokens are whitespace-separated:

    a(p,q)    band generator
    d(p,q)    ascending product a(p,p+1) ... a(q-1,q)
    s<i>      Artin generator, positive
    s<i>^-1   Artin generator, negative
    1         the empty word

A word is either all band tokens (a/d/1) or all Artin tokens (s/1);
mixing the two families is rejected.  Positive Artin-only words may be
coerced to band words via s_i = a(i,i+1).  A band word may have at
most MAX_BAND_LETTERS letters, counted after d(p,q) expansion and coercion.
"""

from __future__ import annotations

import re

from .words import ArtinWord, BandWord, band_to_artin

MAX_BAND_LETTERS = 10_000  # normalizing costs about n^2 per letter

_BAND_RE = re.compile(r"^a\((\d+),(\d+)\)$")
_DELTA_RE = re.compile(r"^d\((\d+),(\d+)\)$")
_ARTIN_RE = re.compile(r"^s(\d+)(\^-1)?$")


class ParseError(ValueError):
    def __init__(self, message: str, position: int):
        super().__init__(f"at token {position + 1}: {message}")
        self.position = position


def parse_word(text: str, n: int) -> BandWord | ArtinWord:
    """Parse a braid word; returns a BandWord or an ArtinWord."""
    band_letters: list[tuple[int, int]] = []
    artin_letters: list[tuple[int, int]] = []
    kinds: set[str] = set()
    for pos, token in enumerate(text.split()):
        if token == "1":
            continue
        m = _BAND_RE.match(token)
        if m:
            p, q = int(m.group(1)), int(m.group(2))
            _check_band(p, q, n, pos)
            band_letters.append((p, q))
            kinds.add("band")
            continue
        m = _DELTA_RE.match(token)
        if m:
            p, q = int(m.group(1)), int(m.group(2))
            if not (1 <= p <= q <= n):
                raise ParseError(f"d({p},{q}) out of range for {n} strands", pos)
            band_letters += zip(range(p, q), range(p + 1, q + 1))
            kinds.add("band")
            continue
        m = _ARTIN_RE.match(token)
        if m:
            i = int(m.group(1))
            if not (1 <= i <= n - 1):
                raise ParseError(f"index {i} out of range for {n} strands", pos)
            artin_letters.append((i, -1 if m.group(2) else 1))
            kinds.add("artin")
            continue
        raise ParseError(f"unrecognized token {token!r}", pos)
    if kinds == {"band", "artin"}:
        raise ParseError("band and Artin tokens may not be mixed", 0)
    if kinds == {"artin"}:
        return ArtinWord(n, artin_letters)
    return BandWord(n, band_letters)


def parse_band_word(text: str, n: int) -> BandWord:
    """Parse as a band word, coercing positive Artin words via s_i = a(i,i+1).

    A word longer than MAX_BAND_LETTERS is refused with a plain ValueError.
    """
    word = parse_word(text, n)
    if isinstance(word, ArtinWord):
        if any(sign < 0 for _, sign in word.letters):
            raise ParseError("negative Artin letters cannot be coerced to a band word", 0)
        word = BandWord(n, [(i, i + 1) for i, _ in word.letters])
    if len(word) > MAX_BAND_LETTERS:
        raise ValueError(f"a band word may have at most {MAX_BAND_LETTERS} letters, not {len(word)}")
    return word


def parse_artin_word(text: str, n: int) -> ArtinWord:
    """Parse as an Artin word, coercing band letters through their expansion."""
    word = parse_word(text, n)
    return word if isinstance(word, ArtinWord) else band_to_artin(word)


def _check_band(p: int, q: int, n: int, pos: int) -> None:
    if not (1 <= p < q <= n):
        raise ParseError(f"a({p},{q}) out of range for {n} strands", pos)

