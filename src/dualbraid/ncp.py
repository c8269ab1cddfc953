"""Simple elements of the dual braid monoid, as permutations.

A simple element (a divisor of the Garside element, on either side)
corresponds to a non-crossing partition of {1..n}.  The block
{i1 < ... < ik} stands for the product a(i1,i2) a(i2,i3) ... a(i_{k-1},ik),
whose underlying permutation is the descending cycle on the block: each
point maps to its cyclic predecessor in its block.  These permutations
are exactly the ones below the Garside element (the cycle n -> n-1 ->
... -> 1 -> n) in absolute order.

Inside the engine a simple is its permutation tuple (Perm), and every
operation (product, complements, meet, quotients, rotation) works on
permutations in O(n), by labelling each point with its cycle; no
partition is built and nothing is sorted.  With l(x) = n - #cycles(x),
a product a*b is simple iff l(ab) = l(a) + l(b) and l(ab) + l((ab)^-1
Delta) = n - 1.  The hot operations are memoized, each in a cache of at
most CACHE_SIZE entries.  NonCrossingPartition, with its full crossing
check, lives at the edge only, converted by ncp_to_perm and perm_to_ncp.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations

from .words import BandLetter, BandWord, _tables, band_word

Perm = tuple[int, ...]  # perm[x-1] is the image of x, 1-based values

CACHE_SIZE = 1 << 13  # entries per memoized operation


def _blocks_cross(a: tuple[int, ...], b: tuple[int, ...]) -> bool:
    for x, y in combinations(a, 2):
        for u, v in combinations(b, 2):
            if x < u < y < v or u < x < v < y:
                return True
    return False


@dataclass(frozen=True)
class NonCrossingPartition:
    """A non-crossing set partition of {1..n}; blocks are sorted tuples."""

    n: int
    blocks: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        seen: set[int] = set()
        for block in self.blocks:
            if tuple(sorted(block)) != block:
                raise ValueError("blocks must be sorted tuples")
            seen.update(block)
        if seen != set(range(1, self.n + 1)) or sum(map(len, self.blocks)) != self.n:
            raise ValueError("blocks must partition {1..n}")
        for a, b in combinations(self.blocks, 2):
            if _blocks_cross(a, b):
                raise ValueError(f"crossing blocks {a} and {b}")

    @staticmethod
    def from_blocks(n: int, blocks) -> "NonCrossingPartition":
        normalized = tuple(sorted(tuple(sorted(b)) for b in blocks))
        return NonCrossingPartition(n, normalized)


def _descending_cycles(n: int, blocks) -> Perm:
    # Each point of an increasing block maps to its cyclic predecessor.
    image = list(range(1, n + 1))
    for block in blocks:
        for idx, x in enumerate(block):
            image[x - 1] = block[idx - 1]
    return tuple(image)


def _cycle_labels(perm: Perm) -> list[int]:
    # labels[x-1] is the least point of the cycle through x.
    labels = [0] * len(perm)
    for start in range(1, len(perm) + 1):
        if not labels[start - 1]:
            x = start
            while not labels[x - 1]:
                labels[x - 1] = start
                x = perm[x - 1]
    return labels


def _blocks(keys) -> list[list[int]]:
    # The points 1..n grouped by key, each group increasing.
    blocks: dict = {}
    for x, key in enumerate(keys, start=1):
        blocks.setdefault(key, []).append(x)
    return list(blocks.values())


def ncp_to_perm(part: NonCrossingPartition) -> Perm:
    """Underlying permutation: each element maps to its cyclic predecessor."""
    return _descending_cycles(part.n, part.blocks)


def perm_to_ncp(perm: Perm) -> NonCrossingPartition:
    """Partition of {1..n}, n = len(perm), from the cycles of perm; must be non-crossing."""
    return NonCrossingPartition.from_blocks(len(perm), _blocks(_cycle_labels(perm)))


def compose(first: Perm, then: Perm) -> Perm:
    """Permutation of 'apply first, then then'."""
    return tuple([then[x - 1] for x in first])


def inverse(perm: Perm) -> Perm:
    out = [0] * len(perm)
    for x, y in enumerate(perm, start=1):
        out[y - 1] = x
    return tuple(out)


def length(simple: Perm) -> int:
    """Reflection length: n minus the number of cycles."""
    return sum(label != x for x, label in enumerate(_cycle_labels(simple), start=1))


@lru_cache(maxsize=CACHE_SIZE)
def trivial_simple(n: int) -> Perm:
    return tuple(range(1, n + 1))


@lru_cache(maxsize=CACHE_SIZE)
def full_simple(n: int) -> Perm:
    """The one-block simple, the Garside element: the cycle x -> x-1, 1 -> n."""
    return (n, *range(1, n))


@lru_cache(maxsize=CACHE_SIZE)
def letter_simple(letter: BandLetter, n: int) -> Perm:
    """The simple element of the single band generator a(p,q)."""
    if letter not in _tables(n)[0]:
        raise ValueError(f"letter a({letter[0]},{letter[1]}) is invalid on {n} strands")
    return _descending_cycles(n, [letter])


def refines(p: Perm, q: Perm) -> bool:
    """True iff every cycle (block) of p lies in a cycle of q.

    On simple elements, refinement coincides with both left and right
    divisibility.
    """
    labels = _cycle_labels(q)
    return all(labels[x - 1] == labels[y - 1] for x, y in enumerate(p, start=1))


@lru_cache(maxsize=CACHE_SIZE)
def meet(p: Perm, q: Perm) -> Perm:
    """Common refinement; the lattice meet (left and right gcd of simples)."""
    # Points sharing a cycle of p and a cycle of q form one block.
    return _descending_cycles(len(p), _blocks(zip(_cycle_labels(p), _cycle_labels(q))))


def _is_simple(perm: Perm) -> bool:
    # perm lies below the Garside element in absolute order.
    return length(perm) + length(compose(inverse(perm), full_simple(len(perm)))) == len(perm) - 1


@lru_cache(maxsize=CACHE_SIZE)
def simple_product(a: Perm, b: Perm) -> Perm:
    """Product of simples, defined when the result is again simple."""
    perm = compose(a, b)
    if length(perm) != length(a) + length(b) or not _is_simple(perm):
        raise ValueError("product of simples is not simple")
    return perm


def right_complement(a: Perm) -> Perm:
    """The simple c with a * c equal to the Garside element."""
    return compose(inverse(a), full_simple(len(a)))


@lru_cache(maxsize=CACHE_SIZE)
def left_complement(a: Perm) -> Perm:
    """The simple c with c * a equal to the Garside element."""
    return compose(full_simple(len(a)), inverse(a))


def left_quotient(t: Perm, b: Perm) -> Perm:
    """The simple u with t * u = b; requires t to divide b."""
    if not refines(t, b):
        raise ValueError("not a left divisor")
    return compose(inverse(t), b)


@lru_cache(maxsize=CACHE_SIZE)
def right_quotient(b: Perm, t: Perm) -> Perm:
    """The simple u with u * t = b; requires t to divide b."""
    if not refines(t, b):
        raise ValueError("not a right divisor")
    return compose(b, inverse(t))


@lru_cache(maxsize=CACHE_SIZE)
def rotate(simple: Perm, k: int) -> Perm:
    """The k-th power of the rotation automorphism: every point x moves to x+k mod n.

    Rotation keeps the cyclic order of each block, so it conjugates the
    descending cycle on a block into the one on the rotated block.
    """
    n = len(simple)
    image = [0] * n
    for x, y in enumerate(simple):
        image[(x + k) % n] = (y - 1 + k) % n + 1
    return tuple(image)


def ncp_word(simple: Perm) -> BandWord:
    """A positive word representing the simple element."""
    blocks = _blocks(_cycle_labels(simple))
    return band_word(len(simple), [pair for block in blocks for pair in zip(block, block[1:])])
