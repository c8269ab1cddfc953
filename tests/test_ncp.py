"""Simple-element arithmetic: the permutation kernel against non-crossing partitions."""

from itertools import permutations

import pytest

from dualbraid import garside, ncp
from dualbraid.ncp import (
    NonCrossingPartition,
    full_simple,
    left_complement,
    left_quotient,
    length,
    letter_simple,
    meet,
    ncp_to_perm,
    ncp_word,
    perm_to_ncp,
    refines,
    right_complement,
    right_quotient,
    rotate,
    simple_product,
    trivial_simple,
)
from dualbraid.words import BandLetter, band_word, delta_word, phi

CATALAN = {2: 2, 3: 5, 4: 14, 5: 42, 6: 132, 7: 429}


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


def all_simples(n):
    return [ncp_to_perm(part) for part in all_ncps(n)]


def test_letter_ncp_examples():
    assert perm_to_ncp(letter_simple(BandLetter(1, 3), 4)).blocks == ((1, 3), (2,), (4,))
    assert perm_to_ncp(letter_simple(BandLetter(1, 2), 2)).blocks == ((1, 2),)
    assert perm_to_ncp(letter_simple(BandLetter(2, 3), 3)).blocks == ((1,), (2, 3))


@pytest.mark.parametrize("letter, n", [(BandLetter(2, 5), 4), (BandLetter(3, 2), 4), (BandLetter(0, 1), 3), ((5, 2), 4)])
def test_letter_simple_rejects_invalid_letters(letter, n):
    with pytest.raises(ValueError, match=rf"^letter a\({letter[0]},{letter[1]}\) is invalid on {n} strands$"):
        letter_simple(letter, n)


def test_crossing_blocks_rejected():
    with pytest.raises(ValueError):
        NonCrossingPartition.from_blocks(4, [[1, 3], [2, 4]])


def test_perm_round_trip():
    for part in all_ncps(5):
        assert perm_to_ncp(ncp_to_perm(part)) == part


def test_catalan_counts():
    assert sum(1 for _ in all_ncps(4)) == 14
    assert sum(1 for _ in all_ncps(5)) == 42


@pytest.mark.parametrize("n", sorted(CATALAN))
def test_simple_test_accepts_exactly_the_noncrossing_partitions(n):
    # The length test inside simple_product, against the partition class
    # on every permutation of {1..n}: a permutation is simple iff its
    # cycles form a non-crossing partition and each cycle is descending.
    accepted = 0
    for perm in permutations(range(1, n + 1)):
        try:
            reference = ncp_to_perm(perm_to_ncp(perm)) == perm
        except ValueError:
            reference = False
        assert ncp._is_simple(perm) == reference, perm
        accepted += reference
    assert accepted == CATALAN[n]


def _block_of(part, x):
    return next(block for block in part.blocks if x in block)


def _reference_product(a, b):
    """a * b on partitions, or None when the product is not simple."""
    perm = ncp.compose(ncp_to_perm(a), ncp_to_perm(b))
    try:
        result = perm_to_ncp(perm)
    except ValueError:
        return None
    if len(result.blocks) != len(a.blocks) + len(b.blocks) - a.n or ncp_to_perm(result) != perm:
        return None
    return result


@pytest.mark.parametrize("n", [4, 5])
def test_kernel_ops_match_partition_definitions(n):
    parts = list(all_ncps(n))
    singletons = [[x] for x in range(1, n + 1)]
    trivial = NonCrossingPartition.from_blocks(n, singletons)
    delta = NonCrossingPartition.from_blocks(n, [range(1, n + 1)])
    assert trivial_simple(n) == ncp_to_perm(trivial) and full_simple(n) == ncp_to_perm(delta)
    for p in range(1, n + 1):
        for q in range(p + 1, n + 1):
            blocks = [[p, q]] + [[x] for x in range(1, n + 1) if x not in (p, q)]
            assert letter_simple(BandLetter(p, q), n) == ncp_to_perm(NonCrossingPartition.from_blocks(n, blocks))

    products = {(a, b): _reference_product(a, b) for a in parts for b in parts}
    by_right = {(c, b): a for (a, b), c in products.items() if c is not None}
    by_left = {(a, c): b for (a, b), c in products.items() if c is not None}
    for a in parts:
        pa = ncp_to_perm(a)
        assert (pa == trivial_simple(len(pa))) == (a == trivial)
        assert length(pa) == n - len(a.blocks)
        assert perm_to_ncp(right_complement(pa)) == next(c for c in parts if products[a, c] == delta)
        assert perm_to_ncp(left_complement(pa)) == next(c for c in parts if products[c, a] == delta)
        for k in range(-1, n + 1):
            shifted = [[(x - 1 + k) % n + 1 for x in block] for block in a.blocks]
            assert perm_to_ncp(rotate(pa, k)) == NonCrossingPartition.from_blocks(n, shifted)
        for b in parts:
            pb = ncp_to_perm(b)
            blocks = {}
            for x in range(1, n + 1):
                blocks.setdefault((_block_of(a, x), _block_of(b, x)), []).append(x)
            assert perm_to_ncp(meet(pa, pb)) == NonCrossingPartition.from_blocks(n, blocks.values())
            assert refines(pa, pb) == all(set(block) <= set(_block_of(b, block[0])) for block in a.blocks)
            for op, expected, args in (
                (simple_product, products[a, b], (pa, pb)),
                (right_quotient, by_right.get((a, b)), (pa, pb)),
                (left_quotient, by_left.get((a, b)), (pa, pb)),
            ):
                if expected is None:
                    with pytest.raises(ValueError):
                        op(*args)
                else:
                    assert perm_to_ncp(op(*args)) == expected


@pytest.mark.parametrize("n", [3, 4, 5])
def test_complements_multiply_to_garside(n):
    delta = full_simple(n)
    for simple in all_simples(n):
        assert simple_product(simple, right_complement(simple)) == delta
        assert simple_product(left_complement(simple), simple) == delta


def test_complement_extremes():
    assert right_complement(full_simple(4)) == trivial_simple(4)
    assert right_complement(trivial_simple(4)) == full_simple(4)


@pytest.mark.parametrize("n", [4, 5])
def test_meet_is_greatest_lower_bound(n):
    simples = all_simples(n)
    for p in simples[::3]:
        for q in simples[::4]:
            m = meet(p, q)
            assert refines(m, p) and refines(m, q)
            for candidate in simples:
                if refines(candidate, p) and refines(candidate, q):
                    assert refines(candidate, m)


def test_left_quotient_inverts_product():
    for simple in all_simples(4):
        comp = right_complement(simple)
        assert left_quotient(simple, simple_product(simple, comp)) == comp


def test_simple_product_rejects_non_simple_products():
    a12 = letter_simple(BandLetter(1, 2), 4)
    with pytest.raises(ValueError):
        simple_product(a12, a12)  # lengths do not add
    # The cycles of the product cover {1..4} in the wrong cyclic order.
    with pytest.raises(ValueError):
        simple_product(ncp_to_perm(NonCrossingPartition.from_blocks(4, [[1], [2, 3, 4]])), a12)


def test_right_quotient_inverts_product():
    simples = all_simples(4)
    for a in simples:
        for b in simples:
            try:
                product = simple_product(a, b)
            except ValueError:
                continue
            assert right_quotient(product, b) == a


@pytest.mark.parametrize("n", [3, 4, 5])
def test_rotate_is_phi_on_simples(n):
    for simple in all_simples(n):
        for k in range(n + 1):
            assert garside.equal(ncp_word(rotate(simple, k)), phi(k, ncp_word(simple)))


def test_ncp_word_of_garside():
    assert ncp_word(full_simple(4)) == delta_word(1, 4, 4)


@pytest.mark.parametrize("n", [3, 4])
def test_ncp_word_represents_the_simple(n):
    # gnf of the word of a nontrivial simple is that single simple.
    for simple in all_simples(n):
        if simple == trivial_simple(len(simple)):
            continue
        assert garside.gnf(ncp_word(simple)).factors == (simple,)


def test_ncp_word_reads_the_partition_blocks():
    for n in range(2, 8):
        for simple in all_simples(n):
            blocks = perm_to_ncp(simple).blocks
            pairs = [pair for block in blocks for pair in zip(block, block[1:])]
            assert ncp_word(simple) == band_word(n, pairs)


def test_length_is_reflection_length():
    assert length(full_simple(5)) == 4
    assert length(trivial_simple(5)) == 0
    assert length(letter_simple(BandLetter(2, 4), 5)) == 1
