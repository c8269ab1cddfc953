"""Splittings, the rotating normal form, separators, trees and ladders."""

import random
import subprocess
import sys
from itertools import combinations, product

import pytest

from brute_force import rewrites
from dualbraid import enumeration, garside, ncp, oracle, ordering, rotating
from dualbraid.oracle import SigmaKind
from dualbraid.rotating import (
    breadth,
    dangerous_braid,
    is_ladder,
    last_letter,
    rnf,
    separator,
    splitting,
    splitting_tree,
)
from dualbraid.words import (
    ArtinWord,
    BandLetter,
    BandWord,
    band_word,
    delta_word,
    phi,
    widen,
)


def tree_depth(tree):
    """Depth of a splitting tree; raises on a ragged one."""
    if isinstance(tree, int):
        return 0
    depths = {tree_depth(child) for child in tree}
    if len(depths) != 1:
        raise ValueError("ragged splitting tree")
    return depths.pop() + 1


def reconstruct(n, entries):
    """Product phi^(b-1)(entry_b) ... entry_1 from a splitting sequence."""
    out = BandWord(n)
    b = len(entries)
    for k, entry in enumerate(entries):
        out = out * phi(b - 1 - k, widen(entry, n))
    return out


@pytest.mark.parametrize("n", [4, 5, 6])
def test_generator_splittings(n):
    for p in range(1, n):
        for q in range(p + 1, n + 1):
            entries = splitting(band_word(n, [(p, q)])).entries
            if q <= n - 1:
                assert entries == (band_word(n - 1, [(p, q)]),)
            elif p >= 2:
                assert entries == (band_word(n - 1, [(p - 1, n - 1)]), BandWord(n - 1))
            else:
                assert entries == (
                    band_word(n - 1, [(n - 2, n - 1)]),
                    BandWord(n - 1),
                    BandWord(n - 1),
                )


def test_splitting_of_delta3():
    entries = splitting(delta_word(1, 3, 3)).entries
    assert entries == (band_word(2, [(1, 2)]), BandWord(2), band_word(2, [(1, 2)]))


def test_splitting_of_trivial_is_flagged():
    split = splitting(BandWord(3))
    assert split.entries == (BandWord(2),)


def test_splitting_forms_are_the_entries_normal_forms():
    rng = random.Random(4)
    corpus = enumeration.enumerate_elements(4, 3) + [
        BandWord(n, tuple(rng.choice(enumeration.generators(n)) for _ in range(length)))
        for n in (5, 6)
        for length in range(1, 13)
        for _ in range(3)
    ]
    for w in corpus:
        split = splitting(w)
        assert all(form.n == w.n - 1 for form in split.forms)
        assert split.forms == tuple(garside.gnf(entry) for entry in split.entries)


def rotate_the_remainder_split(n, factors):
    """The splitting by its definition: each round rotates the whole remainder by phi^-1."""
    nf, entries = garside.GreedyNF(n, factors), []
    while True:
        tail, nf = garside.split_tail(nf, n - 1)
        entries.append(tuple(s[:-1] for s in tail.factors))
        if not nf.factors:
            return tuple(reversed(entries))
        nf = garside.GreedyNF(n, tuple(ncp.rotate(f, -1) for f in nf.factors))


@pytest.mark.parametrize("n", range(3, 9))
def test_split_matches_rotating_the_remainder(n):
    # The output digests stop at 40 letters; these words reach 120.
    rng = random.Random(n)
    for length in (*range(10), *range(10, 121, 10)):
        for _ in range(3):
            w = band_word(n, [rng.choice(enumeration.generators(n)) for _ in range(length)])
            factors = garside.gnf(w).factors
            assert rotating._split(n, factors) == rotate_the_remainder_split(n, factors)


def test_split_rotates_only_its_targets_and_meets(monkeypatch):
    # One rotation per round for the target and one per extracted meet;
    # rotating the remainder instead costs one per remaining factor per round.
    rng = random.Random(7)
    w = band_word(4, [rng.choice(enumeration.generators(4)) for _ in range(400)])
    factors, rotate, calls = garside.gnf(w).factors, ncp.rotate, []
    monkeypatch.setattr(ncp, "rotate", lambda simple, k: calls.append(k) or rotate(simple, k))
    entries = rotating._split(4, factors)
    assert len(entries) > 100
    assert len(calls) <= len(entries) + sum(map(len, entries))


@pytest.mark.parametrize("n", [4, 5])
def test_breadth_examples(n):
    assert breadth(band_word(n, [(n - 1, n)])) == 2
    assert breadth(band_word(n, [(1, n)])) == 3
    assert breadth(band_word(n, [(1, 2), (2, 3)])) == 1


def test_splitting_conditions_on_enumerated_elements():
    for w in enumeration.enumerate_elements(4, 3):
        if not w.letters:
            continue
        split = splitting(w)
        entries = split.entries
        assert entries[0].letters or split.breadth == 1
        assert garside.equal(reconstruct(4, entries), w)
        for k in range(1, split.breadth):
            head = phi(1, reconstruct(4, entries[: split.breadth - k]))
            assert not garside.tail(head, 3).letters


def test_splitting_uniqueness_brute_force_three_strands():
    # Any exponent sequence satisfying the reconstruction and trivial-tail
    # conditions must coincide with the computed splitting.
    for w in enumeration.enumerate_elements(3, 5):
        if not w.letters:
            continue
        length = len(w)
        target = garside.gnf(w)
        found = []
        for b in range(1, length + 3):
            for exps in product(range(length + 1), repeat=b):
                if sum(exps) != length or (b >= 2 and exps[0] == 0):
                    continue
                entries = tuple(band_word(2, [(1, 2)] * e) for e in exps)
                if garside.gnf(reconstruct(3, entries)) != target:
                    continue
                ok = True
                for k in range(1, b):
                    head = phi(1, reconstruct(3, entries[: b - k]))
                    if garside.tail(head, 2).letters:
                        ok = False
                        break
                if ok:
                    found.append(entries)
        assert found == [splitting(w).entries]


def test_rnf_examples():
    assert rnf(separator(6, 4)) == band_word(6, [(3, 4), (2, 3), (1, 2), (1, 6)])
    assert rnf(band_word(2, [(1, 2)] * 3)) == band_word(2, [(1, 2)] * 3)
    assert rnf(delta_word(1, 3, 3)) == band_word(3, [(1, 3), (1, 2)])


def test_rnf_is_idempotent_and_equality_invariant():
    for w in enumeration.enumerate_elements(4, 3):
        normal = rnf(w)
        assert garside.equal(normal, w)
        assert rnf(normal) == normal
        for rewritten in rewrites(w.letters):
            assert rnf(BandWord(4, rewritten)) == normal


def test_last_letter_examples():
    assert last_letter(band_word(3, [(1, 3)])) == BandLetter(1, 3)
    assert last_letter(delta_word(1, 3, 3)) == BandLetter(1, 2)
    assert last_letter(separator(5, 3)) == BandLetter(1, 5)
    with pytest.raises(ValueError):
        last_letter(BandWord(3))


def test_separator_examples():
    assert separator(5, 3) == band_word(5, [(2, 3), (1, 2), (1, 5)])
    for n in [4, 5, 6]:
        assert separator(n, 1) == band_word(n, [(1, n)])
        assert separator(n, 0) == band_word(n, [(n - 1, n)])


@pytest.mark.parametrize("n,r", [(n, r) for n in (4, 5, 6) for r in (1, 2, 3, 4)])
def test_separator_splitting_and_delta_identity(n, r):
    split = splitting(separator(n, r))
    rung = band_word(n - 1, [(n - 2, n - 1)])
    assert split.entries == (rung,) * r + (BandWord(n - 1), BandWord(n - 1))
    lhs = separator(n, r) * widen(
        BandWord(n - 1, delta_word(1, n - 1, n - 1).letters * r), n
    )
    rhs = BandWord(n, delta_word(1, n, n).letters * r)
    assert garside.equal(lhs, rhs)


def test_splitting_tree_examples():
    assert splitting_tree(band_word(2, [(1, 2)] * 4)) == 4
    assert splitting_tree(band_word(3, [(1, 3)])) == (1, 0, 0)
    assert splitting_tree(delta_word(1, 3, 3)) == (1, 0, 1)


@pytest.mark.parametrize("n", [3, 4, 5])
def test_splitting_tree_depth(n):
    assert tree_depth(splitting_tree(band_word(n, [(1, n)]))) == n - 2
    assert tree_depth(splitting_tree(BandWord(n))) == n - 2


def memo_free_key(n, factors):
    """rotating_key recomputed through rotating._split, with no memo."""
    if n == 2:
        return len(factors)
    entries = rotating._split(n, factors)
    return (len(entries), *(memo_free_key(n - 1, e) for e in entries))


def test_subtree_memo_matches_a_memo_free_recursion():
    # Trivial entries are the empty tuple at every strand count, so a memo
    # key without n would hand a 3-strand subtree to a 4-strand entry.
    rng = random.Random(33)
    corpus = [
        band_word(n, [rng.choice(enumeration.generators(n)) for _ in range(rng.randint(0, 12))])
        for n in (3, 4, 5, 6)
        for _ in range(40)
    ]
    expected = [memo_free_key(w.n, garside.gnf(w).factors) for w in corpus]
    rotating._subtree.cache_clear()
    assert [ordering.rotating_key(w) for w in corpus] == expected
    assert rotating._subtree.cache_info().hits > 0
    assert [ordering.rotating_key(w) for w in reversed(corpus)] == expected[::-1]


def test_subtree_memo_is_bounded_and_empty_at_import():
    assert rotating._subtree.cache_info().maxsize == ncp.CACHE_SIZE
    code = "import dualbraid, dualbraid.rotating as r; print(r._subtree.cache_info().currsize)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "0"


def test_last_letter_property_on_enumerated_splittings():
    for w in enumeration.enumerate_elements(4, 3):
        if not w.letters:
            continue
        split = splitting(w)
        b = split.breadth
        for k in range(2, b + 1):
            entry = split.entries[b - k]
            if k >= 3:
                assert entry.letters
            if entry.letters:
                assert last_letter(entry).q == 3


def test_is_ladder_convention_and_counterexample():
    assert is_ladder(band_word(5, [(1, 4)]), 4)
    assert not is_ladder(band_word(5, [(1, 2)]), 2)


def test_is_ladder_witness_positions():
    # a(1,2) a(1,3) a(2,4): bars a(1,3) then a(2,4) climb from 2 to 4.
    w = band_word(5, [(1, 2), (1, 3), (2, 4)])
    ok, witness = is_ladder(w, 2, with_witness=True)
    assert ok and witness == [(1, 3), (2, 4)]
    # a(3,4) cannot serve as the top bar from level 3: its foot is not below 3.
    assert not is_ladder(band_word(5, [(1, 2), (1, 3), (3, 4)]), 2)


def test_is_ladder_reads_the_strand_count_off_the_word():
    w = band_word(5, [(1, 4)])
    # The old form is_ladder(w, i, n) must not bind n to with_witness.
    with pytest.raises(TypeError):
        is_ladder(w, 4, 5)
    with pytest.raises(ValueError, match="out of range"):
        is_ladder(w, 5)


def ladder_decompositions(w, i, n):
    """Every bar list meeting is_ladder's definition, by trying all bar positions."""
    letters = w.letters
    if not letters or letters[-1].q != n - 1:
        return []
    found = []
    # Bar tops climb strictly from i to n-1, so there are at most n-1-i bars.
    for h in range(n - i):
        for ts in combinations(range(len(letters)), h):
            levels = [i] + [letters[t].q for t in ts]
            if levels[-1] != n - 1:
                continue
            # Segment w_k runs from bar k (or the start) up to bar k+1.
            starts = [0] + [t + 1 for t in ts]
            if all(
                letters[t].p < levels[k] < letters[t].q
                and not any(l.p < levels[k] < l.q for l in letters[starts[k] : t])
                for k, t in enumerate(ts)
            ):
                found.append([(t, letters[t].q) for t in ts])
    return found


def test_is_ladder_matches_its_definition():
    corpus = [
        BandWord(n, letters)
        for n, top in ((4, 4), (5, 3))
        for length in range(top + 1)
        for letters in product(enumeration.generators(n), repeat=length)
    ]
    rng = random.Random(9)
    for n in (4, 5, 6):
        gens = enumeration.generators(n)
        for _ in range(150):
            letters = [rng.choice(gens) for _ in range(rng.randint(0, 8))]
            if letters and rng.random() < 0.7:
                letters[-1] = BandLetter(rng.randint(1, n - 2), n - 1)
            corpus.append(BandWord(n, tuple(letters)))
    positives = 0
    for w in corpus:
        for i in range(1, w.n):
            found = ladder_decompositions(w, i, w.n)
            assert len(found) <= 1
            expected = (True, found[0]) if found else (False, None)
            assert is_ladder(w, i, with_witness=True) == expected, (w, i)
            positives += bool(found)
    assert positives > 1000


def test_splitting_entries_are_ladders():
    for w in enumeration.enumerate_elements(4, 4):
        if not w.letters:
            continue
        split = splitting(w)
        b = split.breadth
        if b < 3:
            continue
        checks = list(range(b - 1, 2, -1))
        if split.entries[b - 2].letters:
            checks.append(2)
        for k in checks:
            entry, above = split.entries[b - k], split.entries[b - k - 1]
            rung = phi(1, widen(band_word(3, [last_letter(above)]), 4))
            assert rung.letters[0].q == 4
            assert is_ladder(widen(rnf(entry), 4), rung.letters[0].p), (
                f"{w}: entry {k} is not the expected ladder"
            )


def test_dangerous_braid_examples():
    assert dangerous_braid([1], 4) == ArtinWord(4, [(2, -1), (1, -1)])
    assert dangerous_braid([], 4) == ArtinWord(4, [])
    assert dangerous_braid([2, 1], 4) == ArtinWord(4, [(2, -1), (2, -1), (1, -1)])
    with pytest.raises(ValueError):
        dangerous_braid([1, 2], 4)


@pytest.mark.parametrize("n", [4, 5])
def test_dangerous_braids_are_low_negative(n):
    sequences = [[1], [2, 1], [n - 2, 1], [n - 2, n - 2], [2, 2, 1]]
    for seq in sequences:
        verdict = oracle.sigma_class(dangerous_braid(seq, n))
        assert verdict.kind is SigmaKind.NEGATIVE and verdict.index <= n - 2
