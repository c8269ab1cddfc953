"""Simple-element arithmetic on non-crossing partitions."""

import pytest

from dualbraid import garside
from dualbraid.ncp import (
    NonCrossingPartition,
    full_ncp,
    left_complement,
    left_quotient,
    letter_ncp,
    meet,
    ncp_to_perm,
    ncp_word,
    perm_to_ncp,
    refines,
    right_complement,
    right_quotient,
    rotate,
    simple_product,
    trivial_ncp,
)
from dualbraid.words import BandLetter, garside_word, phi


def all_ncps(n):
    """Every non-crossing partition of {1..n}, by filtering set partitions."""

    def partitions(elements):
        if not elements:
            yield []
            return
        head, rest = elements[0], elements[1:]
        for sub in partitions(rest):
            for k in range(len(sub)):
                yield sub[:k] + [[head] + sub[k]] + sub[k + 1 :]
            yield [[head]] + sub

    for blocks in partitions(list(range(1, n + 1))):
        try:
            yield NonCrossingPartition.from_blocks(n, blocks)
        except ValueError:
            continue


def test_letter_ncp_examples():
    assert letter_ncp(BandLetter(1, 3), 4).blocks == ((1, 3), (2,), (4,))
    assert letter_ncp(BandLetter(1, 2), 2).blocks == ((1, 2),)
    assert letter_ncp(BandLetter(2, 3), 3).blocks == ((1,), (2, 3))


def test_crossing_blocks_rejected():
    with pytest.raises(ValueError):
        NonCrossingPartition.from_blocks(4, [[1, 3], [2, 4]])


def test_perm_round_trip():
    for part in all_ncps(5):
        assert perm_to_ncp(5, ncp_to_perm(part)) == part


def test_catalan_counts():
    assert sum(1 for _ in all_ncps(4)) == 14
    assert sum(1 for _ in all_ncps(5)) == 42


@pytest.mark.parametrize("n", [3, 4, 5])
def test_complements_multiply_to_garside(n):
    delta = full_ncp(n)
    for part in all_ncps(n):
        assert simple_product(part, right_complement(part)) == delta
        assert simple_product(left_complement(part), part) == delta


def test_complement_extremes():
    assert right_complement(full_ncp(4)) == trivial_ncp(4)
    assert right_complement(trivial_ncp(4)) == full_ncp(4)


@pytest.mark.parametrize("n", [4, 5])
def test_meet_is_greatest_lower_bound(n):
    ncps = list(all_ncps(n))
    for p in ncps[::3]:
        for q in ncps[::4]:
            m = meet(p, q)
            assert refines(m, p) and refines(m, q)
            for candidate in ncps:
                if refines(candidate, p) and refines(candidate, q):
                    assert refines(candidate, m)


def test_left_quotient_inverts_product():
    for part in all_ncps(4):
        comp = right_complement(part)
        assert left_quotient(part, simple_product(part, comp)) == comp


def test_simple_product_rejects_non_simple_products():
    a12 = letter_ncp(BandLetter(1, 2), 4)
    with pytest.raises(ValueError):
        simple_product(a12, a12)  # lengths do not add
    # The cycles of the product cover {1..4} in the wrong cyclic order.
    with pytest.raises(ValueError):
        simple_product(NonCrossingPartition.from_blocks(4, [[1], [2, 3, 4]]), a12)


def test_right_quotient_inverts_product():
    ncps = list(all_ncps(4))
    for a in ncps:
        for b in ncps:
            try:
                product = simple_product(a, b)
            except ValueError:
                continue
            assert right_quotient(product, b) == a


@pytest.mark.parametrize("n", [3, 4, 5])
def test_rotate_is_phi_on_simples(n):
    for part in all_ncps(n):
        for k in range(n + 1):
            assert garside.equal(ncp_word(rotate(part, k)), phi(n, k, ncp_word(part)))


def test_ncp_word_of_garside():
    assert ncp_word(full_ncp(4)) == garside_word(4)


@pytest.mark.parametrize("n", [3, 4])
def test_ncp_word_represents_the_simple(n):
    # gnf of the word of a nontrivial simple is that single simple.
    for part in all_ncps(n):
        if part.is_trivial():
            continue
        assert garside.gnf(ncp_word(part)).factors == (part,)


def test_length_is_reflection_length():
    assert full_ncp(5).length() == 4
    assert trivial_ncp(5).length() == 0
    assert letter_ncp(BandLetter(2, 4), 5).length() == 1
