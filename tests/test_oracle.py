"""Handle reduction and sigma-classification of Artin words."""

from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dualbraid import enumeration
from dualbraid.oracle import (
    SigmaKind,
    cmp_dehornoy,
    free_reduce,
    handle_reduce,
    sigma_class,
)
from dualbraid.ordering import OrderResult
from dualbraid.rotating import separator
from dualbraid.words import ArtinWord, band_to_artin, band_word, invert


def artin_words(max_n=6, max_len=30):
    return st.integers(min_value=2, max_value=max_n).flatmap(
        lambda n: st.lists(
            st.tuples(st.integers(1, n - 1), st.sampled_from([1, -1])),
            max_size=max_len,
        ).map(lambda ls: ArtinWord(n, ls))
    )


def find_handle(letters):
    # Leftmost-ending handle, searched from the start of the word.
    for t, (i, sign) in enumerate(letters):
        s = t - 1
        while s >= 0 and letters[s].i < i:
            s -= 1
        if s >= 0 and letters[s] == (i, -sign):
            return s, t
    return None


def rescanning_reduce(w: ArtinWord) -> ArtinWord:
    """Reference handle reduction on letter tuples: free-reduce the whole
    word after every handle and search for the next one from position 0."""
    current = free_reduce(w)
    while (found := find_handle(current.letters)) is not None:
        s, t = found
        letters = current.letters
        i, e = letters[s]
        replacement = []
        for j, f in letters[s + 1 : t]:
            replacement += [(i - 1, -e), (i, f), (i - 1, e)] if j == i - 1 else [(j, f)]
        current = free_reduce(ArtinWord(w.n, letters[:s] + tuple(replacement) + letters[t + 1 :]))
    return current


def test_free_reduce_examples():
    assert free_reduce(ArtinWord(3, [(1, 1), (1, -1)])) == ArtinWord(3)
    w = ArtinWord(3, [(1, 1), (2, 1)])
    assert free_reduce(w) == w
    assert free_reduce(ArtinWord(3, [(2, 1), (1, 1), (1, -1), (2, -1)])) == ArtinWord(3)


def test_handle_reduce_basic_example():
    # s2^-1 s1 s2 reduces to the positive-at-top word s1 s2 s1^-1.
    reduced = handle_reduce(ArtinWord(3, [(2, -1), (1, 1), (2, 1)]))
    assert reduced == ArtinWord(3, [(1, 1), (2, 1), (1, -1)])


def test_handle_reduce_empty():
    assert handle_reduce(ArtinWord(4)) == ArtinWord(4)


def test_handle_reduce_kills_band_commutators():
    for n, pairs in [(4, [(1, 3), (2, 4)]), (5, [(1, 5), (2, 3), (1, 4)])]:
        w = band_to_artin(band_word(n, pairs))
        assert handle_reduce(w * invert(w)) == ArtinWord(n)


def test_sigma_class_examples():
    assert sigma_class(ArtinWord(3, [(1, 1), (2, 1), (1, -1)])).kind is SigmaKind.POSITIVE
    assert sigma_class(ArtinWord(3, [(1, 1), (2, 1), (1, -1)])).index == 2
    assert sigma_class(ArtinWord(3)).kind is SigmaKind.TRIVIAL
    verdict = sigma_class(ArtinWord(3, [(2, -1), (1, 1)]))
    assert verdict.kind is SigmaKind.NEGATIVE and verdict.index == 2


@settings(max_examples=150, deadline=None)
@given(artin_words())
def test_handle_reduce_preserves_the_group_element(w):
    assert sigma_class(w * invert(handle_reduce(w))).kind is SigmaKind.TRIVIAL


@settings(max_examples=150, deadline=None)
@given(artin_words())
def test_reduced_word_has_no_handle(w):
    reduced = handle_reduce(w)
    letters = reduced.letters
    for s in range(len(letters)):
        for t in range(s + 1, len(letters)):
            if letters[s].i == letters[t].i and letters[s].sign == -letters[t].sign:
                assert any(l.i >= letters[s].i for l in letters[s + 1 : t])


@settings(max_examples=200, deadline=None)
@given(artin_words(max_n=8, max_len=40))
def test_handle_order_matches_rescanning_reference(w):
    assert handle_reduce(w).letters == rescanning_reduce(w).letters


def test_positive_band_words_classify_positive():
    for w in enumeration.enumerate_elements(4, 3):
        if w.is_trivial_word():
            continue
        assert sigma_class(band_to_artin(w)).kind is SigmaKind.POSITIVE


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_generator_pair_order_characterization(n):
    gens = list(enumeration.generators(n))
    for x, y in combinations(gens, 2):
        expected = x.q < y.q or (x.q == y.q and x.p > y.p)
        verdict = cmp_dehornoy(band_word(n, [x]), band_word(n, [y]))
        assert verdict is (OrderResult.LESS if expected else OrderResult.GREATER)


@pytest.mark.parametrize("n", [4, 5, 6])
def test_separator_artin_image_is_top_positive(n):
    for t in range(1, 5):
        verdict = sigma_class(band_to_artin(separator(n, t)))
        assert verdict.kind is SigmaKind.POSITIVE and verdict.index == n - 1


def test_cmp_dehornoy_examples():
    assert (
        cmp_dehornoy(band_word(3, [(2, 3)]), band_word(3, [(1, 2), (2, 3)]))
        is OrderResult.LESS
    )
    w = band_word(4, [(1, 4), (2, 3)])
    assert cmp_dehornoy(w, w) is OrderResult.EQUAL


@pytest.mark.parametrize("n", [4, 5, 6])
def test_separators_are_oracle_increasing(n):
    for j in range(0, 4):
        for k in range(j + 1, 5):
            assert cmp_dehornoy(separator(n, j), separator(n, k)) is OrderResult.LESS
