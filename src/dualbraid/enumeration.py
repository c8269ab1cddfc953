"""Desk-scale enumeration utilities used by the verification harness.

These provide independent, brute-force counterparts to the algebraic
machinery: exhaustive element enumeration up to a word length,
congruence-class enumeration by relation rewriting, and the tail in a
submonoid by suffix collection over a class.
"""

from __future__ import annotations

from itertools import combinations

from . import garside
from .words import BandLetter, BandWord


def generators(n: int) -> list[BandLetter]:
    return [BandLetter(p, q) for p, q in combinations(range(1, n + 1), 2)]


def enumerate_elements(n: int, max_length: int) -> list[BandWord]:
    """One representative word per monoid element of length <= max_length."""
    gens = generators(n)
    seen: dict[tuple, BandWord] = {garside.canonical_key(BandWord(n)): BandWord(n)}
    frontier = [BandWord(n)]
    for _ in range(max_length):
        next_frontier = []
        for w in frontier:
            for g in gens:
                candidate = BandWord(n, w.letters + (g,))
                key = garside.canonical_key(candidate)
                if key not in seen:
                    seen[key] = candidate
                    next_frontier.append(candidate)
        frontier = next_frontier
    return list(seen.values())


def _rewrites(letters: tuple[BandLetter, ...]) -> list[tuple[BandLetter, ...]]:
    out = []
    for k in range(len(letters) - 1):
        x, y = letters[k], letters[k + 1]
        for u, v in _pair_rewrites(x, y):
            out.append(letters[:k] + (u, v) + letters[k + 2 :])
    return out


def _pair_rewrites(x: BandLetter, y: BandLetter) -> list[tuple[BandLetter, BandLetter]]:
    """All words of length two equal to x*y by a single defining relation."""
    (p, q), (r, s) = x, y
    disjoint = q < r or s < p
    nested = (r < p < q < s) or (p < r < s < q)
    if disjoint or nested:
        return [(y, x)]
    results = []
    # The three-generator relation family on a triple a < b < c:
    # a(a,b)a(b,c) = a(b,c)a(a,c) = a(a,c)a(a,b).
    if q == r:  # a(p,q)a(q,s): p < q < s
        results.append((y, BandLetter(p, s)))
        results.append((BandLetter(p, s), x))
    if q == s and r < p:  # a(p,q)a(r,q) -> forms with triple r < p < q
        results.append((BandLetter(r, p), x))
        results.append((y, BandLetter(r, p)))
    if p == r and s < q:  # a(p,q)a(p,s) -> forms with triple p < s < q
        results.append((y, BandLetter(s, q)))
        results.append((BandLetter(s, q), x))
    return results


def congruence_class(w: BandWord) -> set[tuple[BandLetter, ...]]:
    """All positive words equal to w, by closure under the defining relations."""
    seen = {w.letters}
    frontier = [w.letters]
    while frontier:
        current = frontier.pop()
        for other in _rewrites(current):
            if other not in seen:
                seen.add(other)
                frontier.append(other)
    return seen


def brute_tail(w: BandWord, m: int) -> BandWord:
    """Maximal right divisor inside the m-strand submonoid, by brute force."""
    best = BandWord(w.n)
    best_len = -1
    for word in congruence_class(w):
        for k in range(len(word), -1, -1):
            suffix = word[k:]
            if all(l.q <= m for l in suffix) and len(suffix) > best_len:
                best, best_len = BandWord(w.n, suffix), len(suffix)
    return best
