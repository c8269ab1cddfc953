"""End-to-end acceptance suite.

Each test covers one acceptance criterion and prints a single PASS/FAIL
line.  The two corpora (all distinct monoid elements of word length <= 6
on 3 strands and <= 4 on 4 strands) are shared session fixtures.
"""

import random
from itertools import combinations

import pytest

from brute_force import brute_tail
from dualbraid import enumeration, garside, oracle, ordering, rotating
from dualbraid.oracle import SigmaKind, cmp_dehornoy, handle_reduce, sigma_class
from dualbraid.ordering import (
    OrderResult,
    cmp_rotating,
    is_initial_segment_member,
    rotating_key,
)
from dualbraid.rotating import is_ladder, last_letter, rnf, separator, splitting
from dualbraid.words import (
    ArtinWord,
    BandWord,
    band_to_artin,
    band_word,
    delta_word,
    invert,
    phi,
    widen,
)


@pytest.fixture(scope="session")
def corpus3():
    return enumeration.enumerate_elements(3, 6)


@pytest.fixture(scope="session")
def corpus4():
    return enumeration.enumerate_elements(4, 4)


def report(number, ok, detail):
    print(f"ACCEPTANCE {number}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


def _key_verdict(ku, kv):
    return OrderResult((ku > kv) - (ku < kv))


def test_criterion_1_ordering_equivalence(corpus3, corpus4):
    mismatches = 0
    checked = 0
    for corpus, spot_rng in ((corpus3, None), (corpus4, random.Random(1))):
        keys = [rotating_key(w) for w in corpus]
        pairs = list(combinations(range(len(corpus)), 2))
        spot = set(spot_rng.sample(range(len(pairs)), 2000)) if spot_rng else None
        for idx, (i, j) in enumerate(pairs):
            checked += 1
            expected = _key_verdict(keys[i], keys[j])
            if cmp_dehornoy(corpus[i], corpus[j]) is not expected:
                mismatches += 1
            # The public comparator is checked against the precomputed
            # keys: exhaustively on the 3-strand corpus, on a random
            # sample of pairs on the 4-strand corpus.
            if spot is None or idx in spot:
                if cmp_rotating(corpus[i], corpus[j]) is not expected:
                    mismatches += 1
    report(
        1,
        mismatches == 0,
        f"rotating vs oracle on {checked} distinct pairs, {mismatches} mismatches",
    )


def test_criterion_2_generator_chains():
    failures = 0
    total = 0
    for n in (4, 5, 6):
        chain = [BandWord(n)] + [
            band_word(n, [(p, q)]) for q in range(2, n + 1) for p in range(q - 1, 0, -1)
        ]
        for u, v in combinations(chain, 2):
            total += 1
            if cmp_rotating(u, v) is not OrderResult.LESS:
                failures += 1
            if cmp_dehornoy(u, v) is not OrderResult.LESS:
                failures += 1
    report(2, failures == 0, f"generator chains n=4,5,6 ({total} ordered pairs)")


def test_criterion_3_generator_splitting_table():
    failures = 0
    for n in (4, 5, 6):
        for p in range(1, n):
            for q in range(p + 1, n + 1):
                entries = splitting(band_word(n, [(p, q)])).entries
                if q <= n - 1:
                    expected = (band_word(n - 1, [(p, q)]),)
                elif p >= 2:
                    expected = (band_word(n - 1, [(p - 1, n - 1)]), BandWord(n - 1))
                else:
                    expected = (
                        band_word(n - 1, [(n - 2, n - 1)]),
                        BandWord(n - 1),
                        BandWord(n - 1),
                    )
                if entries != expected:
                    failures += 1
    report(3, failures == 0, "generator splitting table n=4,5,6")


def test_criterion_4_separators():
    failures = 0
    for n in (4, 5, 6):
        for r in range(1, 5):
            sep = separator(n, r)
            rung = band_word(n - 1, [(n - 2, n - 1)])
            expected = (rung,) * r + (BandWord(n - 1), BandWord(n - 1))
            if splitting(sep).entries != expected:
                failures += 1
            lhs = sep * widen(BandWord(n - 1, delta_word(1, n - 1, n - 1).letters * r), n)
            rhs = BandWord(n, delta_word(1, n, n).letters * r)
            if not garside.equal(lhs, rhs):
                failures += 1
    if rnf(separator(6, 4)) != band_word(6, [(3, 4), (2, 3), (1, 2), (1, 6)]):
        failures += 1
    if rnf(separator(5, 3)) != band_word(5, [(2, 3), (1, 2), (1, 5)]):
        failures += 1
    report(4, failures == 0, "separator splittings, delta identities and normal forms")


def test_criterion_5_successor_and_initial_segment(corpus3):
    failures = 0
    keys = sorted(rotating_key(w) for w in corpus3)
    key_set = set(keys)
    step = band_word(3, [(1, 2)])
    for w in corpus3:
        lo, hi = rotating_key(w), rotating_key(w * step)
        if any(lo < k < hi for k in key_set):
            failures += 1
    gate = band_word(3, [(2, 3)])
    for w in corpus3:
        in_segment = all(l.q <= 2 for l in rnf(w).letters)
        if (cmp_rotating(w, gate) is OrderResult.LESS) != in_segment:
            failures += 1
        if is_initial_segment_member(w) != in_segment:
            failures += 1
    report(5, failures == 0, f"successor gaps and initial segment on {len(corpus3)} elements")


def test_criterion_6_last_letters_and_ladders(corpus4):
    failures = 0
    for w in corpus4:
        if not w.letters:
            continue
        split = splitting(w)
        b = split.breadth
        for k in range(2, b + 1):
            entry = split.entries[b - k]
            if k >= 3 and not entry.letters:
                failures += 1
            if entry.letters and last_letter(entry).q != 3:
                failures += 1
        checks = list(range(b - 1, 2, -1))
        if b >= 3 and split.entries[b - 2].letters:
            checks.append(2)
        for k in checks:
            entry, above = split.entries[b - k], split.entries[b - k - 1]
            rung = phi(1, widen(band_word(3, [last_letter(above)]), 4))
            if not is_ladder(widen(rnf(entry), 4), rung.letters[0].p):
                failures += 1
    report(6, failures == 0, f"last-letter and ladder checks on {len(corpus4)} elements")


def test_criterion_7_oracle_self_consistency(corpus3, corpus4):
    failures = 0
    words = [band_to_artin(w) for w in corpus3 + corpus4]
    rng = random.Random(20260824)
    for _ in range(10_000):
        n = rng.randint(2, 6)
        letters = [
            (rng.randint(1, n - 1), rng.choice((1, -1)))
            for _ in range(rng.randint(0, 40))
        ]
        words.append(ArtinWord(n, letters))
    for w in words:
        try:
            reduced = handle_reduce(w)
        except oracle.ReductionOverflow:
            failures += 1
            continue
        if sigma_class(w * invert(reduced)).kind is not SigmaKind.TRIVIAL:
            failures += 1
    for n in (4, 5, 6):
        for j in range(0, 4):
            for k in range(j + 1, 5):
                if cmp_dehornoy(separator(n, j), separator(n, k)) is not OrderResult.LESS:
                    failures += 1
    report(7, failures == 0, f"handle reduction on {len(words)} words plus separator order")


def test_criterion_8_tail_oracle_equivalence():
    failures = 0
    checked = 0
    for n in (3, 4):
        for w in enumeration.enumerate_elements(n, 4):
            for m in range(2, n):
                checked += 1
                if not garside.equal(
                    garside.tail(w, m), brute_tail(w, m)
                ):
                    failures += 1
    report(8, failures == 0, f"greedy tail vs brute force on {checked} cases")
