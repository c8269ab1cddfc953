"""Seeded inputs, operations and output checks of the three workloads.

Inputs are generated as plain tuples of (p, q) letter pairs, so they can
be hashed and compared without the engine, and are turned into band
words with whatever ``words.BandWord`` class the current import of
``dualbraid`` provides.  Every operation calls the engine through module
attributes (``mods.ordering.rotating_key``), never through the re-exports
in ``dualbraid/__init__``, so the timing wrappers installed by
``layertrace`` see every call.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass, replace
from typing import Iterator

Raw = tuple[tuple[int, int], ...]  # a band word as (p, q) pairs

_PAIRS = {n: [(p, q) for q in range(2, n + 1) for p in range(1, q)] for n in range(2, 10)}


def random_word(rng: random.Random, n: int, length: int) -> Raw:
    """A word of the given length, each letter uniform over the a(p,q) of n strands."""
    return tuple(rng.choices(_PAIRS[n], k=length))


def _deck(rng: random.Random, items) -> Iterator:
    """Endless shuffled rounds of ``items``: each item stays uniform, and
    every run sees the same mix, which steadies per-run figures."""
    items = list(items)
    while True:
        rng.shuffle(items)
        yield from items


def _crossing(x: tuple[int, int], y: tuple[int, int]) -> bool:
    (a, b), (c, d) = x, y
    return a < c < b < d or c < a < d < b


def rewrite(word: Raw, rng: random.Random, steps: int) -> Raw:
    """Scramble a word by the defining relations of the dual braid monoid.

    Each step looks at one random adjacent pair of letters and, when a
    relation applies, replaces it by an equal pair:
    a(p,q) a(r,s) = a(r,s) a(p,q) when the two chords neither cross nor
    share an end, and a(p,q) a(q,r) = a(q,r) a(p,r) = a(p,r) a(p,q) for
    p < q < r.  The result represents the same element as ``word``.
    """
    w = list(word)
    for _ in range(steps):
        if len(w) < 2:
            break
        i = rng.randrange(len(w) - 1)
        x, y = w[i], w[i + 1]
        ends = set(x) | set(y)
        if len(ends) == 4:
            if not _crossing(x, y):
                w[i], w[i + 1] = y, x
        elif len(ends) == 3:
            p, q, r = sorted(ends)
            forms = [((p, q), (q, r)), ((q, r), (p, r)), ((p, r), (p, q))]
            if (x, y) in forms:
                forms.remove((x, y))
                w[i], w[i + 1] = rng.choice(forms)
    return tuple(w)


@dataclass(frozen=True)
class Workload:
    """Sizes of one workload.

    ``cap`` bounds the inputs generated up front.  A traced run times the
    first ``trace_ops`` ops, which take well under half of a 30 s run on
    this code even on a loaded machine.
    """

    name: str
    why: str
    strands: tuple[int, ...]
    lengths: tuple[int, int]  # inclusive range of word lengths
    cap: int
    pool: int = 0  # crosscheck: number of distinct words pairs are drawn from
    prefix_every: int = 0  # oracle_cmp: one pair in this many, per n, is (u, u*x)
    warmup_ops: int = 3
    trace_ops: int = 1000


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "rank",
            "rotating_key of distinct random words, then sort: ncp, garside.tail and "
            "rotating.splitting with nothing to reuse; the oracle is idle",
            strands=(4, 5, 6),
            lengths=(8, 16),
            cap=1500,
            trace_ops=50,
        ),
        Workload(
            "crosscheck",
            "cmp_rotating against cmp_dehornoy on pairs from a small n=4 pool: the "
            "enum-verify hot path, where inputs share most of their work",
            strands=(4,),
            lengths=(1, 8),
            cap=10000,
            pool=96,
            warmup_ops=5,
            trace_ops=300,
        ),
        Workload(
            "oracle_cmp",
            "cmp_dehornoy on long n=5,6 words: handle and free reduction only, so "
            "changes to simples, tails or splittings must leave it flat",
            strands=(5, 6),
            lengths=(16, 32),
            cap=6000,
            prefix_every=4,
            warmup_ops=5,
            trace_ops=400,
        ),
    )
}


def _rng(workload: str, seed: int, stream: str) -> random.Random:
    # Separate streams for timed and warm-up inputs, so warm-up cannot
    # pre-fill a cache of whole results for the timed ones.
    return random.Random(f"{workload}:{seed}:{stream}")


def generate(spec: Workload, seed: int, stream: str = "timed") -> list:
    """The raw inputs of a workload: words for rank, pairs for the others.

    A pair is ``(n, u, v, expect)`` where ``expect`` is -1 when v was
    built as u times a non-empty positive word, and None otherwise.
    """
    rng = _rng(spec.name, seed, stream)
    count = spec.cap
    lo, hi = spec.lengths
    if spec.name == "rank":
        cells = _deck(rng, [(n, length) for n in spec.strands for length in range(lo, hi + 1)])
        words: dict = {}  # insertion-ordered set of distinct words
        while len(words) < count:
            n, length = next(cells)
            word = random_word(rng, n, length)
            while (n, word) in words:
                word = random_word(rng, n, length)
            words[n, word] = None
        return list(words)
    if spec.name == "crosscheck":
        (n,) = spec.strands
        # The timed pool is the same for every seed, like the fixed corpora
        # enum-verify compares; the seed picks the pairs.  A pool drawn per
        # seed made the pool's own cost dominate the run-to-run spread.
        pool_rng = random.Random(f"{spec.name}:pool") if stream == "timed" else rng
        # Lengths cycle through lo..hi; a repeated word moves on to the next
        # length, so the pool fills even where short words run out.
        pool: list[Raw] = []
        tries = 0
        while len(pool) < spec.pool:
            word = random_word(pool_rng, n, lo + tries % (hi - lo + 1))
            tries += 1
            if word not in pool:
                pool.append(word)
        pairs = []
        for _ in range(count):
            u, v = rng.sample(pool, 2)
            pairs.append((n, u, v, None))
        return pairs
    kinds = _deck(rng, [(n, k == 0) for n in spec.strands for k in range(spec.prefix_every)])
    u_lengths, v_lengths = _deck(rng, range(lo, hi + 1)), _deck(rng, range(lo, hi + 1))
    pairs = []
    for _ in range(count):
        n, prefix = next(kinds)
        u = random_word(rng, n, next(u_lengths))
        if prefix:
            x = random_word(rng, n, rng.randint(1, 4))
            pairs.append((n, u, rewrite(u + x, rng, 2 * len(u)), -1))
        else:
            pairs.append((n, u, random_word(rng, n, next(v_lengths)), None))
    return pairs


def warmup_inputs(spec: Workload) -> list:
    """Few, short inputs from a stream of their own, the same for every seed:
    they touch every code path and strand count, and set-up does the same
    work in every run."""
    lo, hi = spec.lengths
    short = (lo, (lo + hi) // 2) if spec.pool else (max(1, lo // 2),) * 2
    return generate(replace(spec, cap=spec.warmup_ops, lengths=short, pool=min(spec.pool, 8)), 0, "warmup")


def input_hash(raw: list) -> str:
    """SHA-256 of the raw inputs; equal hashes mean the same input stream."""
    return hashlib.sha256(repr(raw).encode()).hexdigest()


def build(mods, spec: Workload, raw: list) -> list:
    """Turn raw inputs into op arguments made of the engine's own band words."""
    built: dict = {}

    def word(n: int, letters: Raw):
        # One object per distinct word, as when a corpus is compared pairwise.
        if (n, letters) not in built:
            built[n, letters] = mods.words.band_word(n, letters)
        return built[n, letters]

    if spec.name == "rank":
        return [(word(n, w),) for n, w in raw]
    return [(word(n, u), word(n, v)) for n, u, v, _ in raw]


def op_for(mods, spec: Workload):
    """The timed operation; it looks functions up on each call."""
    if spec.name == "rank":
        return lambda w: mods.ordering.rotating_key(w)
    if spec.name == "crosscheck":
        return lambda u, v: (mods.ordering.cmp_rotating(u, v).value, mods.oracle.cmp_dehornoy(u, v).value)
    return lambda u, v: mods.oracle.cmp_dehornoy(u, v).value


def check(mods, spec: Workload, raw: list, args: list, results: list) -> set[int]:
    """Indices of ops whose output is wrong.  Runs outside the timed region.

    ``results[i]`` is None when op i raised; such ops are already failed
    and are not checked again.
    """
    bad: set[int] = set()
    cmp_dehornoy = mods.oracle.cmp_dehornoy
    if spec.name == "rank":
        # Rank each strand count on its own: keys of different n do not compare.
        by_n: dict[int, list[int]] = {}
        for i, key in enumerate(results):
            if key is not None:
                by_n.setdefault(raw[i][0], []).append(i)
        for order in by_n.values():
            order.sort(key=lambda i: results[i])
            for a, b in zip(order, order[1:]):
                expect = 0 if results[a] == results[b] else -1
                if cmp_dehornoy(args[a][0], args[b][0]).value != expect:
                    bad.add(b)
        return bad
    for i, verdict in enumerate(results):
        if verdict is None:
            continue
        if spec.name == "crosscheck":
            if verdict[0] != verdict[1]:
                bad.add(i)
            continue
        expect = raw[i][3]
        u, v = args[i]
        if (expect is not None and verdict != expect) or cmp_dehornoy(v, u).value != -verdict:
            bad.add(i)
    return bad
