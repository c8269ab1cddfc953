"""The engine's output, pinned by a digest.

Speed work on simples, normal forms, tails and splittings must leave
every key, rotating normal form and splitting tree exactly as it was.
DIGEST was taken before the permutation kernel replaced the partition
arithmetic, and LONG_DIGEST, on longer words over more strands, before
normalization became one appending pass per simple; a change that moves
either changes what the engine computes, not only how fast.
ORACLE_DIGEST pins handle reduction the same way: it was taken while the
oracle still rescanned its word from the start after every handle.
SPLITTING_DIGEST pins every splitting and every tail split, entry by
entry; it was taken while each splitting round still wrapped its factor
tuples in GreedyNF objects.
"""

import hashlib
import random
from itertools import combinations

from dualbraid import enumeration
from dualbraid.garside import gnf, split_tail
from dualbraid.oracle import handle_reduce, sigma_class
from dualbraid.ordering import rotating_key
from dualbraid.rotating import rnf, splitting, splitting_tree
from dualbraid.words import ArtinWord, BandLetter, BandWord, band_to_artin, invert

DIGEST = "2655768f863b71ab2b01564147255227d30244ae5cf8fd8e9cc4e8acc52b98d7"
LONG_DIGEST = "8551ab19ce3dbf19cd2414ecb642552673ee68825d1cf5c6f5b2cc492a8988c8"
ORACLE_DIGEST = "2845d45fc00e1aa8621ff58affde8239ebfb37d0e879109e3acec24139476edb"
SPLITTING_DIGEST = "9d12a87dd9cf364af914f1d8d871b35d0916eae98ee2d0e8fdc9c087fd71cf8b"


def corpus() -> list[BandWord]:
    """300 seeded random words at n = 3..7, L = 0..14, plus every element of length <= 3 at n = 4."""
    rng = random.Random(20261018)
    words = []
    for _ in range(300):
        n = rng.randint(3, 7)
        gens = [BandLetter(p, q) for p, q in combinations(range(1, n + 1), 2)]
        words.append(BandWord(n, tuple(rng.choice(gens) for _ in range(rng.randint(0, 14)))))
    return words + enumeration.enumerate_elements(4, 3)


def test_engine_output_digest():
    h = hashlib.sha256()
    for w in corpus():
        record = (w.n, rotating_key(w), tuple(map(tuple, rnf(w).letters)), splitting_tree(w))
        h.update(repr(record).encode() + b"\n")
    assert h.hexdigest() == DIGEST


def long_corpus() -> list[BandWord]:
    """200 seeded random words at n = 8..10, L = 20..40."""
    rng = random.Random(20261019)
    words = []
    for _ in range(200):
        n = rng.randint(8, 10)
        gens = [BandLetter(p, q) for p, q in combinations(range(1, n + 1), 2)]
        words.append(BandWord(n, tuple(rng.choice(gens) for _ in range(rng.randint(20, 40)))))
    return words


def test_long_word_output_digest():
    h = hashlib.sha256()
    for w in long_corpus():
        record = (w.n, gnf(w).factors, rotating_key(w))
        h.update(repr(record).encode() + b"\n")
    assert h.hexdigest() == LONG_DIGEST


def test_splitting_output_digest():
    h = hashlib.sha256()
    for w in corpus() + long_corpus():
        nf = gnf(w)
        forms = tuple((f.n, f.factors) for f in splitting(w).forms)
        tails = tuple((t.factors, r.factors) for t, r in (split_tail(nf, m) for m in range(2, w.n)))
        h.update(repr((w.n, forms, tails)).encode() + b"\n")
    assert h.hexdigest() == SPLITTING_DIGEST


def quotient_corpus() -> list[ArtinWord]:
    """300 seeded quotients u^-1 v at n = 5, 6 and L = 16..32.

    In every fourth one v is u x for a positive x of 1..4 letters, written
    as its rotating normal form, so that u^-1 v is positive but free
    cancellation alone does not reduce it; the normal form is unique, so
    this pins only the oracle.
    """
    rng = random.Random(20261020)
    words = []
    for k in range(300):
        n = rng.choice((5, 6))
        gens = [BandLetter(p, q) for p, q in combinations(range(1, n + 1), 2)]
        u = BandWord(n, tuple(rng.choice(gens) for _ in range(rng.randint(16, 32))))
        if k % 4 == 0:
            v = rnf(u * BandWord(n, tuple(rng.choice(gens) for _ in range(rng.randint(1, 4)))))
        else:
            v = BandWord(n, tuple(rng.choice(gens) for _ in range(rng.randint(16, 32))))
        words.append(invert(band_to_artin(u)) * band_to_artin(v))
    return words


def test_oracle_output_digest():
    h = hashlib.sha256()
    for w in quotient_corpus():
        record = (w.n, tuple(map(tuple, handle_reduce(w).letters)), str(sigma_class(w)))
        h.update(repr(record).encode() + b"\n")
    assert h.hexdigest() == ORACLE_DIGEST
