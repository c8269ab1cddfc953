"""Non-crossing partitions as the simple elements of the dual braid monoid.

A simple element (a divisor of the Garside element, on either side)
corresponds to a non-crossing partition of {1..n}.  The block
{i1 < ... < ik} stands for the product a(i1,i2) a(i2,i3) ... a(i_{k-1},ik),
whose underlying permutation is the descending cycle on the block.  All
simple-element arithmetic (products, complements, meets, quotients) is
carried out on the associated permutations and converted back to
partitions; the rotation automorphism acts by shifting block elements.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .words import BandLetter, BandWord, band_word

Perm = tuple[int, ...]  # perm[x-1] is the image of x, 1-based values


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

    def is_trivial(self) -> bool:
        return all(len(b) == 1 for b in self.blocks)

    def length(self) -> int:
        """Canonical (reflection) length: n minus the number of blocks."""
        return self.n - len(self.blocks)

    def block_of(self, x: int) -> tuple[int, ...]:
        for block in self.blocks:
            if x in block:
                return block
        raise ValueError(f"{x} not in partition")

    def __str__(self) -> str:
        return "{" + ", ".join("{" + ",".join(map(str, b)) + "}" for b in self.blocks) + "}"


def trivial_ncp(n: int) -> NonCrossingPartition:
    return NonCrossingPartition.from_blocks(n, [[i] for i in range(1, n + 1)])


def full_ncp(n: int) -> NonCrossingPartition:
    """The one-block partition: the Garside element."""
    return NonCrossingPartition.from_blocks(n, [range(1, n + 1)])


def letter_ncp(letter: BandLetter, n: int) -> NonCrossingPartition:
    """The simple element of the single band generator a(p,q)."""
    letter.validate(n)
    blocks = [[letter.p, letter.q]] + [[i] for i in range(1, n + 1) if i not in letter]
    return NonCrossingPartition.from_blocks(n, blocks)


def ncp_to_perm(part: NonCrossingPartition) -> Perm:
    """Underlying permutation: each element maps to its cyclic predecessor."""
    image = list(range(1, part.n + 1))
    for block in part.blocks:
        for idx, x in enumerate(block):
            image[x - 1] = block[idx - 1]
    return tuple(image)


def perm_to_ncp(n: int, perm: Perm) -> NonCrossingPartition:
    """Partition from the cycles of a permutation; must be non-crossing."""
    blocks = []
    seen = [False] * n
    for start in range(1, n + 1):
        if seen[start - 1]:
            continue
        cycle = [start]
        seen[start - 1] = True
        x = perm[start - 1]
        while x != start:
            cycle.append(x)
            seen[x - 1] = True
            x = perm[x - 1]
        blocks.append(cycle)
    return NonCrossingPartition.from_blocks(n, blocks)


def compose(first: Perm, then: Perm) -> Perm:
    """Permutation of 'apply first, then then'."""
    return tuple(then[x - 1] for x in first)


def inverse(perm: Perm) -> Perm:
    out = [0] * len(perm)
    for x, y in enumerate(perm, start=1):
        out[y - 1] = x
    return tuple(out)


def refines(p: NonCrossingPartition, q: NonCrossingPartition) -> bool:
    """True iff every block of p is contained in a block of q.

    On simple elements, refinement coincides with both left and right
    divisibility.
    """
    return all(set(block) <= set(q.block_of(block[0])) for block in p.blocks)


def meet(p: NonCrossingPartition, q: NonCrossingPartition) -> NonCrossingPartition:
    """Common refinement; the lattice meet (left and right gcd of simples)."""
    blocks: dict[tuple[tuple[int, ...], tuple[int, ...]], list[int]] = {}
    for x in range(1, p.n + 1):
        blocks.setdefault((p.block_of(x), q.block_of(x)), []).append(x)
    return NonCrossingPartition.from_blocks(p.n, blocks.values())


def simple_product(a: NonCrossingPartition, b: NonCrossingPartition) -> NonCrossingPartition:
    """Product of simples, defined when the result is again simple."""
    perm = compose(ncp_to_perm(a), ncp_to_perm(b))
    result = perm_to_ncp(a.n, perm)
    # perm_to_ncp keeps only the cycle supports, so the orientation of
    # each cycle is checked by mapping the partition back.
    if result.length() != a.length() + b.length() or ncp_to_perm(result) != perm:
        raise ValueError("product of simples is not simple")
    return result


def right_complement(a: NonCrossingPartition) -> NonCrossingPartition:
    """The simple c with a * c equal to the Garside element."""
    perm = compose(inverse(ncp_to_perm(a)), ncp_to_perm(full_ncp(a.n)))
    return perm_to_ncp(a.n, perm)


def left_complement(a: NonCrossingPartition) -> NonCrossingPartition:
    """The simple c with c * a equal to the Garside element."""
    perm = compose(ncp_to_perm(full_ncp(a.n)), inverse(ncp_to_perm(a)))
    return perm_to_ncp(a.n, perm)


def left_quotient(t: NonCrossingPartition, b: NonCrossingPartition) -> NonCrossingPartition:
    """The simple u with t * u = b; requires t to divide b."""
    if not refines(t, b):
        raise ValueError("not a left divisor")
    perm = compose(inverse(ncp_to_perm(t)), ncp_to_perm(b))
    return perm_to_ncp(b.n, perm)


def right_quotient(b: NonCrossingPartition, t: NonCrossingPartition) -> NonCrossingPartition:
    """The simple u with u * t = b; requires t to divide b."""
    if not refines(t, b):
        raise ValueError("not a right divisor")
    perm = compose(ncp_to_perm(b), inverse(ncp_to_perm(t)))
    return perm_to_ncp(b.n, perm)


def rotate(part: NonCrossingPartition, k: int) -> NonCrossingPartition:
    """The k-th power of the rotation automorphism: every point x moves to x+k mod n."""
    n = part.n
    return NonCrossingPartition.from_blocks(
        n, [[(x - 1 + k) % n + 1 for x in block] for block in part.blocks]
    )


def ncp_word(part: NonCrossingPartition) -> BandWord:
    """A positive word representing the simple element."""
    pairs = []
    for block in part.blocks:
        pairs.extend(zip(block, block[1:]))
    return band_word(part.n, pairs)
