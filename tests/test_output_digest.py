"""The engine's output, pinned by a digest.

Speed work on simples, normal forms, tails and splittings must leave
every key, rotating normal form and splitting tree exactly as it was.
DIGEST was taken before the permutation kernel replaced the partition
arithmetic, and LONG_DIGEST, on longer words over more strands, before
normalization became one appending pass per simple; a change that moves
either changes what the engine computes, not only how fast.
"""

import hashlib
import random
from itertools import combinations

from dualbraid import enumeration
from dualbraid.garside import gnf
from dualbraid.ordering import rotating_key
from dualbraid.rotating import rnf, splitting_tree
from dualbraid.words import BandLetter, BandWord

DIGEST = "2655768f863b71ab2b01564147255227d30244ae5cf8fd8e9cc4e8acc52b98d7"
LONG_DIGEST = "8551ab19ce3dbf19cd2414ecb642552673ee68825d1cf5c6f5b2cc492a8988c8"


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
