"""Command-line front end.

Exit codes: 0 success, 1 usage or parse failure (argparse's own errors
included), 2 contract violation (including an oracle failure, such as a
reduction that outgrows its length ceiling, a band word longer than
parser.MAX_BAND_LETTERS, and a size beyond the limits below: normalizing
costs about n^2 per letter, and enum-verify compares every pair of the
words it enumerates), 3 verification mismatch.
"""

from __future__ import annotations

import argparse
import json
import sys
from itertools import combinations

from . import enumeration, garside, oracle, ordering, parser, rotating
from .ordering import OrderResult
from .words import MAX_STRANDS

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_CONTRACT = 2
EXIT_MISMATCH = 3

MAX_ENUM_WORDS = 10_000

_VERDICT = {OrderResult.LESS: "LT", OrderResult.EQUAL: "EQ", OrderResult.GREATER: "GT"}


class _Parser(argparse.ArgumentParser):
    # Subparsers are built from this class too, so every argparse error exits EXIT_USAGE.
    def error(self, message: str):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _build_parser() -> argparse.ArgumentParser:
    top = _Parser(
        prog="dualbraid",
        description="Dual braid monoid engine: rotating normal form and ordering.",
    )
    sub = top.add_subparsers(dest="command", required=True)

    def add(name: str, handler, help_text: str) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--strands", "-n", type=int, required=True, help=f"2 to {MAX_STRANDS}")
        p.set_defaults(run=handler)
        return p

    add("normalize", _cmd_normalize, "print the rotating normal form of a band word").add_argument(
        "word"
    )
    add("compare", _cmd_compare, "compare two band words in both orderings").add_argument(
        "words", nargs=2
    )
    add("split", _cmd_split, "print the rotation splitting of a band word").add_argument("word")
    add("tree", _cmd_tree, "print the iterated splitting tree as nested arrays").add_argument(
        "word"
    )
    add("oracle", _cmd_oracle, "print the sigma-classification of an Artin word").add_argument(
        "word"
    )
    verify = add("enum-verify", _cmd_enum_verify, "exhaustively cross-check both orderings")
    verify.add_argument("--max-length", type=int, default=3, help="longest word enumerated")
    return top


def _tree_to_json(tree) -> list:
    # Leaf exponents are emitted as singleton arrays so that the nesting
    # depth of the document is uniform for a fixed strand count.
    if isinstance(tree, int):
        return [tree]
    return [_tree_to_json(child) for child in tree]


def _cmd_normalize(args) -> int:
    w = parser.parse_band_word(args.word, args.strands)
    print(rotating.rnf(w))
    return EXIT_OK


def _cmd_compare(args) -> int:
    u = parser.parse_band_word(args.words[0], args.strands)
    v = parser.parse_band_word(args.words[1], args.strands)
    rot = ordering.cmp_rotating(u, v)
    deh = oracle.cmp_dehornoy(u, v)
    mismatch = rot is not deh
    print(f"rotating: {_VERDICT[rot]}")
    print(f"oracle:   {_VERDICT[deh]}")
    print(f"mismatch: {'yes' if mismatch else 'no'}")
    return EXIT_MISMATCH if mismatch else EXIT_OK


def _cmd_split(args) -> int:
    w = parser.parse_band_word(args.word, args.strands)
    split = rotating.splitting(w)
    for entry in split.entries:
        print(rotating.rnf(entry))
    return EXIT_OK


def _cmd_tree(args) -> int:
    w = parser.parse_band_word(args.word, args.strands)
    print(json.dumps(_tree_to_json(rotating.splitting_tree(w))))
    return EXIT_OK


def _cmd_oracle(args) -> int:
    w = parser.parse_artin_word(args.word, args.strands)
    print(str(oracle.sigma_class(w)))
    return EXIT_OK


def _cmd_enum_verify(args) -> int:
    n, max_length = args.strands, args.max_length
    if max_length < 0:
        raise ValueError("--max-length must be non-negative")
    # Counted term by term, so a huge --max-length stops at the limit.
    words = power = 1
    for _ in range(max_length):
        power *= n * (n - 1) // 2
        words += power
        if words > MAX_ENUM_WORDS:
            raise ValueError(f"more than {MAX_ENUM_WORDS} words of length <= {max_length}")
    elements = enumeration.enumerate_elements(n, max_length)
    print(f"{len(elements)} elements of length <= {max_length} at n={n}")
    checked = failed = 0
    # Each element is keyed once; cmp_rotating would key both words of every pair.
    keys = [ordering.rotating_key(w) for w in elements]
    for (u, ku), (v, kv) in combinations(zip(elements, keys), 2):
        checked += 1
        if OrderResult.of((ku > kv) - (ku < kv)) is not oracle.cmp_dehornoy(u, v):
            failed += 1
            print(f"MISMATCH: {u} vs {v}")
    print(f"ordering agreement: {checked - failed}/{checked} pairs")
    for w in elements:
        if w.is_trivial_word():
            continue
        checked += 1
        if not garside.equal(rotating.rnf(w), w):
            failed += 1
            print(f"NORMAL FORM MISMATCH: {w}")
        forms = rotating.splitting(w).forms if n >= 3 else ()  # splittings need n >= 3
        if len(forms) >= 2 and not forms[0].factors:
            failed += 1
            print(f"SPLITTING HEAD TRIVIAL: {w}")
    print(f"total: {checked - failed}/{checked} checks passed")
    return EXIT_MISMATCH if failed else EXIT_OK


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if not 2 <= args.strands <= MAX_STRANDS:
            raise ValueError(f"--strands must be between 2 and {MAX_STRANDS}")
        return args.run(args)
    except parser.ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (ValueError, oracle.OracleError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONTRACT


if __name__ == "__main__":
    sys.exit(main())
