"""The rotating ordering and its order-theoretic utilities."""

from itertools import combinations

import pytest

from brute_force import rewrites
from dualbraid import enumeration, garside
from dualbraid.oracle import cmp_dehornoy
from dualbraid.ordering import (
    OrderResult,
    cmp_rotating,
    is_initial_segment_member,
    min_of_breadth,
    rotating_key,
    successor,
)
from dualbraid.rotating import rnf, separator, splitting
from dualbraid.words import BandWord, band_word, delta_word


def test_cmp_examples():
    assert cmp_rotating(band_word(3, [(2, 3)]), band_word(3, [(1, 3)])) is OrderResult.LESS
    w = band_word(3, [(1, 3), (1, 2)])
    assert cmp_rotating(w, w) is OrderResult.EQUAL
    assert cmp_rotating(band_word(3, [(1, 3)]), delta_word(1, 3, 3)) is OrderResult.LESS


@pytest.mark.parametrize("compare", [cmp_rotating, cmp_dehornoy], ids=["rotating", "dehornoy"])
def test_comparators_reject_mismatched_strand_counts(compare):
    with pytest.raises(ValueError, match="strand count mismatch"):
        compare(band_word(3, [(1, 2)]), band_word(4, [(3, 4)]))


@pytest.mark.parametrize("n", [3, 4, 5])
def test_generator_chain(n):
    chain = [BandWord(n)] + [
        band_word(n, [(p, q)]) for q in range(2, n + 1) for p in range(q - 1, 0, -1)
    ]
    for u, v in zip(chain, chain[1:]):
        assert cmp_rotating(u, v) is OrderResult.LESS
        assert cmp_rotating(v, u) is OrderResult.GREATER


def test_total_order_axioms_on_small_corpus():
    corpus = enumeration.enumerate_elements(3, 4)
    verdicts = {}
    for u, v in combinations(corpus, 2):
        verdict = cmp_rotating(u, v)
        assert verdict in (OrderResult.LESS, OrderResult.GREATER)
        assert cmp_rotating(v, u) is OrderResult(-verdict.value)
        verdicts[(u.letters, v.letters)] = verdict
    # Transitivity through the induced ranking.
    ranked = sorted(corpus, key=rotating_key)
    for u, v in combinations(ranked, 2):
        key = (u.letters, v.letters)
        expected = verdicts[key] if key in verdicts else OrderResult(-verdicts[(v.letters, u.letters)].value)
        assert expected is OrderResult.LESS


def test_left_invariance_samples():
    corpus = enumeration.enumerate_elements(3, 3)
    shifts = [band_word(3, [(1, 2)]), band_word(3, [(1, 3)]), delta_word(1, 3, 3)]
    for u, v in combinations(corpus[:20], 2):
        verdict = cmp_rotating(u, v)
        for d in shifts:
            assert cmp_rotating(d * u, d * v) is verdict


def test_rotating_key_separates_elements_with_trivial_minimum():
    # Each element with every one-relation rewrite of its representative:
    # keys must agree exactly when the words represent one element.
    corpus = enumeration.enumerate_elements(4, 3)
    words = corpus + [BandWord(4, r) for w in corpus for r in rewrites(w.letters)]
    pairs = {(rotating_key(w), garside.gnf(w)) for w in words}
    assert len({key for key, _ in pairs}) == len({nf for _, nf in pairs}) == len(pairs)
    trivial = rotating_key(BandWord(4))
    assert all(rotating_key(w) > trivial for w in corpus if not w.is_trivial_word())


def test_successor_examples():
    assert garside.equal(successor(BandWord(3)), band_word(3, [(1, 2)]))
    assert successor(band_word(2, [(1, 2)] * 4)) == band_word(2, [(1, 2)] * 5)


def test_successor_shifts_the_splitting():
    for w in enumeration.enumerate_elements(4, 3):
        if w.is_trivial_word():
            continue
        before = splitting(w).entries
        after = splitting(successor(w)).entries
        assert len(after) == len(before)
        for x, y in zip(after[:-1], before[:-1]):
            assert garside.equal(x, y)
        assert garside.equal(after[-1], successor(before[-1]))


def test_trivial_braid_is_the_minimum():
    for w in enumeration.enumerate_elements(4, 2):
        if w.is_trivial_word():
            continue
        assert cmp_rotating(BandWord(4), w) is OrderResult.LESS


def test_initial_segment_examples():
    assert is_initial_segment_member(band_word(4, [(1, 3)]))
    assert not is_initial_segment_member(band_word(4, [(3, 4)]))
    assert is_initial_segment_member(BandWord(4))


def test_initial_segment_reads_the_strand_count_off_the_word():
    with pytest.raises(TypeError):
        is_initial_segment_member(band_word(4, [(1, 3)]), 4)
    with pytest.raises(ValueError, match="n >= 3"):
        is_initial_segment_member(band_word(2, [(1, 2)]))


def test_initial_segment_matches_letter_criterion():
    for w in enumeration.enumerate_elements(4, 3):
        by_cmp = is_initial_segment_member(w)
        by_letters = all(l.q <= 3 for l in rnf(w).letters)
        assert by_cmp == by_letters


def test_min_of_breadth_examples():
    for n in [4, 5]:
        assert min_of_breadth(n, 2) == band_word(n, [(n - 1, n)])
        assert min_of_breadth(n, 3) == band_word(n, [(1, n)])
    assert min_of_breadth(5, 5) == band_word(5, [(2, 3), (1, 2), (1, 5)])
    assert min_of_breadth(5, 5) == separator(5, 3)


def test_min_of_breadth_is_a_lower_bound():
    corpus = enumeration.enumerate_elements(4, 3)
    for w in corpus:
        if w.is_trivial_word():
            continue
        b = splitting(w).breadth
        if b >= 2:
            bound = min_of_breadth(4, b)
            assert cmp_rotating(bound, w) in (OrderResult.LESS, OrderResult.EQUAL)
