"""Interned letters: which letters words accept, the strand bound, one
object per letter, and the Artin expansions against the letter loops
they replaced."""

import subprocess
import sys
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dualbraid import cli, garside, rotating
from dualbraid.oracle import SigmaKind, cmp_dehornoy, free_reduce, handle_reduce, sigma_class
from dualbraid.ordering import OrderResult
from dualbraid.parser import ParseError, parse_band_word, parse_word
from dualbraid.words import (
    MAX_STRANDS,
    ArtinLetter,
    ArtinWord,
    BandLetter,
    BandWord,
    band_to_artin,
    band_word,
    delta_word,
    invert,
    phi,
)


def band_words(min_n=2, max_n=8, max_len=12):
    return st.integers(min_n, max_n).flatmap(
        lambda n: st.lists(
            st.sampled_from([(p, q) for q in range(2, n + 1) for p in range(1, q)]), max_size=max_len
        ).map(lambda pairs: band_word(n, pairs))
    )


def band_word_pairs(min_n=2, max_n=8, max_len=10):
    return st.integers(min_n, max_n).flatmap(
        lambda n: st.tuples(band_words(n, n, max_len), band_words(n, n, max_len))
    )


def artin_words(max_n=8, max_len=30):
    return st.integers(2, max_n).flatmap(
        lambda n: st.lists(
            st.tuples(st.integers(1, n - 1), st.sampled_from([1, -1])), max_size=max_len
        ).map(lambda ls: ArtinWord(n, ls))
    )


# The letter loops that the cached expansions replaced, kept as the reference.


def reference_band_to_artin(w: BandWord) -> ArtinWord:
    out: list[ArtinLetter] = []
    for p, q in w.letters:
        out.extend(ArtinLetter(i, 1) for i in range(p, q - 1))
        out.append(ArtinLetter(q - 1, 1))
        out.extend(ArtinLetter(i, -1) for i in range(q - 2, p - 1, -1))
    return ArtinWord(w.n, tuple(out))


def reference_invert(w: ArtinWord) -> ArtinWord:
    return ArtinWord(w.n, tuple(ArtinLetter(i, -s) for i, s in reversed(w.letters)))


def band_error(n, p, q):
    """The error a band letter got from the per-letter check, or None."""
    return None if 1 <= p < q <= n else f"letter a({p},{q}) is invalid on {n} strands"


def artin_error(n, i, sign):
    """The error an Artin letter got from the per-letter check, or None."""
    if not (1 <= i <= n - 1):
        return f"index {i} out of range on {n} strands"
    if sign not in (1, -1):
        return f"invalid sign {sign}"
    return None


@pytest.mark.parametrize("n", range(2, 8))
def test_band_words_accept_exactly_the_valid_letters(n):
    for p, q in product(range(n + 2), repeat=2):
        expect = band_error(n, p, q)
        builders = [
            lambda: BandWord(n, (BandLetter(p, q),)),
            lambda: BandWord(n, ((p, q),)),
            lambda: band_word(n, [(1, 2), (p, q)]),
        ]
        for build in builders:
            if expect is None:
                assert build().letters[-1] == (p, q)
            else:
                with pytest.raises(ValueError) as info:
                    build()
                assert str(info.value) == expect
        if expect is None:
            assert parse_band_word(f"a({p},{q})", n) == band_word(n, [(p, q)])
        else:
            with pytest.raises(ParseError) as info:
                parse_band_word(f"a({p},{q})", n)
            assert str(info.value) == f"at token 1: a({p},{q}) out of range for {n} strands"


@pytest.mark.parametrize("n", range(2, 8))
def test_artin_words_accept_exactly_the_valid_letters(n):
    for i, sign in product(range(n + 2), range(-2, 3)):
        expect = artin_error(n, i, sign)
        for letters in ([(1, 1), ArtinLetter(i, sign)], ((i, sign),)):
            if expect is None:
                assert ArtinWord(n, letters).letters[-1] == (i, sign)
            else:
                with pytest.raises(ValueError) as info:
                    ArtinWord(n, letters)
                assert str(info.value) == expect
        if sign in (1, -1):
            token = f"s{i}" if sign > 0 else f"s{i}^-1"
            if expect is None:
                assert parse_word(token, n) == ArtinWord(n, [(i, sign)])
            else:
                with pytest.raises(ParseError) as info:
                    parse_word(token, n)
                assert str(info.value) == f"at token 1: index {i} out of range for {n} strands"


def test_word_equality_and_hash_do_not_depend_on_the_container():
    listed = BandWord(3, [BandLetter(1, 2)])
    assert listed == band_word(3, [(1, 2)])
    assert hash(listed) == hash(band_word(3, [(1, 2)]))
    assert type(listed.letters) is tuple
    assert BandWord(3, ((1, 2),)).letters == (BandLetter(1, 2),)
    assert type(BandWord(3, ((1, 2),)).letters[0]) is BandLetter
    with pytest.raises(ValueError, match=r"letter a\(2,1\) is invalid on 3 strands"):
        BandWord(3, ((2, 1),))
    artin = ArtinWord(3, [ArtinLetter(1, 1)])
    assert artin == ArtinWord(3, [(1, 1)])
    assert hash(artin) == hash(ArtinWord(3, [(1, 1)]))


def test_artin_words_intern_plain_pairs():
    plain = ArtinWord(3, ((1, 1), (2, -1)))
    assert str(plain) == str(ArtinWord(3, [(1, 1), (2, -1)])) == "s1 s2^-1"
    assert plain.letters[0].i == 1 and plain.letters[1].sign == -1
    assert all(type(letter) is ArtinLetter for letter in plain.letters)
    assert ArtinWord(3, [[2, -1]]).letters[0] is plain.letters[1]


def test_free_reduce_takes_letters_as_plain_pairs():
    w = ArtinWord(3, ((1, 1), (2, 1), (2, -1), (1, -1), (2, -1)))
    assert free_reduce(w) == ArtinWord(3, [(2, -1)])
    assert type(free_reduce(w).letters[0]) is ArtinLetter


def test_strand_count_is_bounded_in_the_library():
    assert cli.MAX_STRANDS is MAX_STRANDS == 32
    assert len(band_word(MAX_STRANDS, [(1, MAX_STRANDS)])) == 1
    assert len(ArtinWord(MAX_STRANDS, ((MAX_STRANDS - 1, -1),))) == 1
    for n in (-1, 0, 1, MAX_STRANDS + 1, 10**9):
        for build in (
            lambda: BandWord(n),
            lambda: band_word(n, [(1, 2)]),
            lambda: ArtinWord(n, ((1, 1),)),
            lambda: delta_word(1, max(n, 1), n),
            lambda: parse_band_word("a(1,2)", n),
            lambda: parse_band_word("1", n),
            lambda: parse_word("s1", n),
        ):
            with pytest.raises(ValueError):
                build()


def test_importing_fills_no_table():
    code = "import dualbraid, dualbraid.words as w; print(len(w._TABLES))"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "0"


def test_equal_letters_are_one_object():
    n = 5
    words = [
        band_word(n, [(1, 3), (2, 5), (1, 2)]),
        parse_band_word("a(1,3) d(1,5)", n),
        parse_band_word("s2 s4", n),
        phi(2, band_word(n, [(1, 4), (3, 5), (4, 5)])),
        rotating.rnf(band_word(n, [(2, 4), (1, 5), (3, 4), (1, 3)])),
        garside.gnf(band_word(n, [(1, 5), (2, 3), (2, 4)])).word(),
        delta_word(1, n, n),
    ]
    first: dict = {}
    for letter in (letter for w in words for letter in w.letters):
        assert first.setdefault(letter, letter) is letter
    assert len(first) >= 8


@settings(max_examples=200, deadline=None)
@given(band_words())
def test_band_to_artin_matches_the_letter_loop(w):
    expanded = band_to_artin(w)
    assert expanded == reference_band_to_artin(w)
    assert type(expanded.letters) is tuple


@settings(max_examples=200, deadline=None)
@given(artin_words())
def test_invert_matches_the_letter_loop(w):
    assert invert(w) == reference_invert(w)


def test_handle_reduce_returns_interned_letters():
    expansion = band_to_artin(band_word(4, [(1, 4)]))
    interned = {letter: letter for letter in expansion.letters + invert(expansion).letters}
    assert len(interned) == 6
    reduced = handle_reduce(ArtinWord(4, [(2, 1), (1, 1), (3, -1), (2, -1), (3, 1), (1, -1)]))
    assert reduced.letters
    assert all(interned[letter] is letter for letter in reduced.letters)


@settings(max_examples=200, deadline=None)
@given(band_word_pairs())
def test_cmp_dehornoy_classifies_the_quotient(pair):
    u, v = pair
    verdict = sigma_class(invert(band_to_artin(u)) * band_to_artin(v))
    expect = {
        SigmaKind.TRIVIAL: OrderResult.EQUAL,
        SigmaKind.POSITIVE: OrderResult.LESS,
        SigmaKind.NEGATIVE: OrderResult.GREATER,
    }[verdict.kind]
    assert cmp_dehornoy(u, v) is expect
