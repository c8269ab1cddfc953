"""Greedy normal form, word problem, divisibility and tails."""

import random
from itertools import combinations, product

import pytest

from brute_force import brute_tail, rewrites
from dualbraid import enumeration
from dualbraid.garside import (
    equal,
    gnf,
    right_divides,
    right_quotient,
    split_tail,
    tail,
)
from dualbraid.ncp import full_simple, left_complement, meet, trivial_simple
from dualbraid.oracle import cmp_dehornoy
from dualbraid.ordering import OrderResult
from dualbraid.words import (
    BandLetter,
    BandWord,
    band_word,
    delta_word,
    phi,
)


def relation_instances(n):
    """All defining relation instances (lhs, rhs) as pairs of words."""
    out = []
    letters = [BandLetter(p, q) for p, q in combinations(range(1, n + 1), 2)]
    for x, y in product(letters, repeat=2):
        disjoint = x.q < y.p or y.q < x.p
        nested = y.p < x.p < x.q < y.q or x.p < y.p < y.q < x.q
        if disjoint or nested:
            out.append((band_word(n, [x, y]), band_word(n, [y, x])))
    for a, b, c in combinations(range(1, n + 1), 3):
        w1 = band_word(n, [(a, b), (b, c)])
        w2 = band_word(n, [(b, c), (a, c)])
        w3 = band_word(n, [(a, c), (a, b)])
        out.extend([(w1, w2), (w2, w3), (w1, w3)])
    return out


def random_words(seed, strands, max_length, per_n):
    """Seeded random band words, per_n of them for each strand count."""
    rng = random.Random(seed)
    words = []
    for n in strands:
        gens = enumeration.generators(n)
        for _ in range(per_n):
            words.append(BandWord(n, tuple(rng.choice(gens) for _ in range(rng.randint(0, max_length)))))
    return words


def test_gnf_examples():
    two = gnf(band_word(2, [(1, 2), (1, 2)]))
    assert two.factors == (full_simple(2), full_simple(2)) == ((2, 1), (2, 1))
    assert gnf(delta_word(1, 3, 3)).factors == (full_simple(3),)
    assert gnf(band_word(3, [(1, 2), (2, 3)])) == gnf(band_word(3, [(1, 3), (1, 2)]))


def test_gnf_of_trivial_word_is_empty():
    assert gnf(BandWord(4)).factors == ()


def test_equal_examples():
    assert equal(band_word(3, [(1, 2), (2, 3)]), band_word(3, [(2, 3), (1, 3)]))
    assert equal(band_word(4, [(1, 2), (3, 4)]), band_word(4, [(3, 4), (1, 2)]))
    assert not equal(band_word(3, [(1, 2)]), band_word(3, [(2, 3)]))
    with pytest.raises(ValueError):
        equal(band_word(3, [(1, 2)]), band_word(4, [(1, 2)]))


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_defining_relations_hold(n):
    for lhs, rhs in relation_instances(n):
        assert equal(lhs, rhs), f"{lhs} != {rhs}"


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_delta_identities(n):
    for p in range(1, n + 1):
        for q in range(p, n + 1):
            for r in range(q, n + 1):
                assert equal(
                    delta_word(p, r, n), delta_word(p, q, n) * delta_word(q, r, n)
                )
            if p < q:
                assert equal(
                    band_word(n, [(p, q)]) * delta_word(p, q - 1, n),
                    delta_word(p, q, n),
                )
    # Commutation of delta factors on disjoint intervals.
    for p, q, r, s in combinations(range(1, n + 1), 4):
        assert equal(
            delta_word(p, q, n) * delta_word(r, s, n),
            delta_word(r, s, n) * delta_word(p, q, n),
        )


@pytest.mark.parametrize("n", [3, 4, 5])
def test_push_rule(n):
    delta = delta_word(1, n, n)
    samples = [
        band_word(n, [(1, 2)]),
        band_word(n, [(1, n)]),
        band_word(n, [(1, 2), (n - 1, n), (1, n)]),
        delta,
    ]
    for w in samples:
        for k in range(n + 1):
            assert equal(delta * phi(k, w), phi(k + 1, w) * delta)


def test_gnf_factors_are_right_weighted():
    # No factor is trivial and no part of a factor can slide into its
    # right neighbour.  On the longer random words the appending pass
    # cascades through several factors; handle reduction, which shares
    # no code with garside, checks that the factors still multiply to w.
    for w in enumeration.enumerate_elements(4, 3) + random_words(11, range(3, 7), 24, 40):
        nf = gnf(w)
        assert not any(f == trivial_simple(len(f)) for f in nf.factors)
        for head, tail_factor in zip(nf.factors, nf.factors[1:]):
            assert meet(head, left_complement(tail_factor)) == trivial_simple(len(head))
        assert cmp_dehornoy(nf.word(), w) is OrderResult.EQUAL


def test_gnf_is_a_congruence_invariant():
    for w in enumeration.enumerate_elements(4, 3):
        for rewritten in rewrites(w.letters):
            assert gnf(BandWord(4, rewritten)) == gnf(w)


def test_phi_is_an_automorphism():
    for lhs, rhs in relation_instances(4):
        assert equal(phi(1, lhs), phi(1, rhs))


def test_right_divides_examples():
    d3 = delta_word(1, 3, 3)
    assert right_divides(band_word(3, [(2, 3)]), d3)
    assert right_divides(band_word(3, [(1, 2)]), d3)
    assert not right_divides(band_word(3, [(1, 2)]), band_word(3, [(2, 3)]))


def test_right_quotient_examples():
    d3 = delta_word(1, 3, 3)
    assert equal(right_quotient(d3, band_word(3, [(2, 3)])), band_word(3, [(1, 2)]))
    assert equal(right_quotient(d3, band_word(3, [(1, 2)])), band_word(3, [(1, 3)]))
    w = band_word(3, [(1, 3), (1, 2)])
    assert equal(right_quotient(w, BandWord(3)), w)
    with pytest.raises(ValueError):
        right_quotient(band_word(3, [(2, 3)]), band_word(3, [(1, 2)]))


def test_right_quotient_recombines():
    for w in enumeration.enumerate_elements(3, 3):
        for g in enumeration.generators(3):
            gw = BandWord(3, (g,))
            if right_divides(gw, w):
                assert equal(right_quotient(w, gw) * gw, w)


def test_tail_examples():
    assert not tail(band_word(4, [(1, 4)]), 3).letters
    w = band_word(4, [(1, 3), (2, 3)])  # lives in the 3-strand submonoid
    assert equal(tail(w, 3), w)
    assert equal(tail(delta_word(1, 4, 4), 3), delta_word(1, 3, 4))


def test_tail_right_divides_and_strips():
    for w in enumeration.enumerate_elements(4, 3):
        t = tail(w, 3)
        assert all(l.q <= 3 for l in t.letters)
        assert right_divides(t, w)
        assert not tail(right_quotient(w, t), 3).letters


def test_split_tail_recombines():
    # Both parts come out as normal forms, with no normalization of their own.
    for w in enumeration.enumerate_elements(4, 3) + random_words(12, range(5, 8), 20, 25):
        nf = gnf(w)
        for m in range(2, w.n):
            t, remainder = split_tail(nf, m)
            assert t == gnf(t.word())
            assert remainder == gnf(remainder.word())
            assert equal(remainder.word() * t.word(), w)


def test_split_tail_rejects_m_out_of_range():
    nf = gnf(band_word(4, [(1, 4), (2, 3), (1, 2)]))
    for m in (0, 1, 4, 5):
        with pytest.raises(ValueError):
            split_tail(nf, m)


def test_tail_matches_brute_force_small():
    for w in enumeration.enumerate_elements(3, 3):
        assert equal(tail(w, 2), brute_tail(w, 2))
