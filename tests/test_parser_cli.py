"""Word syntax parsing and the command-line interface."""

import io
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dualbraid import cli, enumeration, oracle, ordering, rotating
from dualbraid.parser import (
    ParseError,
    parse_artin_word,
    parse_band_word,
    parse_word,
)
from dualbraid.words import ArtinWord, BandWord, band_word


def test_parse_band_examples():
    assert parse_word("a(1,3) a(1,2)", 3) == band_word(3, [(1, 3), (1, 2)])
    assert parse_word("d(1,4)", 4) == band_word(4, [(1, 2), (2, 3), (3, 4)])
    assert parse_word("1", 5) == BandWord(5)
    assert parse_word("a(1,2) 1 a(2,3)", 3) == band_word(3, [(1, 2), (2, 3)])


def test_parse_artin_examples():
    assert parse_word("s2^-1 s1 s2", 3) == ArtinWord(3, [(2, -1), (1, 1), (2, 1)])
    assert parse_artin_word("a(1,3)", 3) == ArtinWord(3, [(1, 1), (2, 1), (1, -1)])


def test_parse_band_word_coerces_positive_artin():
    assert parse_band_word("s1 s3", 4) == band_word(4, [(1, 2), (3, 4)])
    with pytest.raises(ParseError):
        parse_band_word("s1^-1", 4)


def test_parse_errors():
    with pytest.raises(ParseError):
        parse_word("a(1,2) s1", 3)  # mixed families
    with pytest.raises(ParseError):
        parse_word("a(2,5)", 4)  # out of range
    with pytest.raises(ParseError):
        parse_word("a(3,3)", 4)  # degenerate
    with pytest.raises(ParseError):
        parse_word("s4", 4)  # index too large
    with pytest.raises(ParseError):
        parse_word("b(1,2)", 4)  # unknown token
    try:
        parse_word("a(1,2) wat", 3)
    except ParseError as exc:
        assert exc.position == 1


@settings(max_examples=80, deadline=None)
@given(
    st.integers(2, 6).flatmap(
        lambda n: st.tuples(
            st.just(n),
            st.lists(
                st.tuples(st.integers(1, n - 1), st.integers(2, n)).filter(
                    lambda pq: pq[0] < pq[1]
                ),
                max_size=12,
            ),
        )
    )
)
def test_band_round_trip(data):
    n, pairs = data
    w = band_word(n, pairs)
    assert parse_word(str(w), n) == w


@settings(max_examples=80, deadline=None)
@given(
    st.integers(2, 6).flatmap(
        lambda n: st.tuples(
            st.just(n),
            st.lists(
                st.tuples(st.integers(1, n - 1), st.sampled_from([1, -1])), max_size=12
            ),
        )
    )
)
def test_artin_round_trip(data):
    n, letters = data
    w = ArtinWord(n, letters)
    if w.letters:
        assert parse_word(str(w), n) == w
    else:
        assert parse_artin_word(str(w), n) == ArtinWord(n)


def test_cli_normalize(capsys):
    assert cli.main(["normalize", "-n", "3", "d(1,3)"]) == 0
    assert capsys.readouterr().out.strip() == "a(1,3) a(1,2)"


def test_cli_compare_agrees(capsys):
    code = cli.main(["compare", "-n", "3", "a(2,3)", "a(1,3)"])
    out = capsys.readouterr().out
    assert code == 0
    assert "rotating: LT" in out and "oracle:   LT" in out and "mismatch: no" in out


def test_cli_split(capsys):
    assert cli.main(["split", "-n", "3", "d(1,3)"]) == 0
    assert capsys.readouterr().out.splitlines() == ["a(1,2)", "1", "a(1,2)"]


def test_cli_tree(capsys):
    assert cli.main(["tree", "-n", "3", "d(1,3)"]) == 0
    assert capsys.readouterr().out.strip() == "[[1], [0], [1]]"
    assert cli.main(["tree", "-n", "4", "a(1,4)"]) == 0
    assert capsys.readouterr().out.strip() == "[[[1], [0]], [[0]], [[0]]]"
    assert cli.main(["tree", "-n", "3", "a(1,3)"]) == 0
    assert capsys.readouterr().out.strip() == "[[1], [0], [0]]"


def test_cli_oracle(capsys):
    assert cli.main(["oracle", "-n", "3", "s2^-1 s1 s2"]) == 0
    out = capsys.readouterr().out.lower()
    assert "positive" in out and "2" in out


def test_cli_enum_verify(capsys):
    assert cli.main(["enum-verify", "-n", "3", "--max-length", "3"]) == 0
    assert "MISMATCH" not in capsys.readouterr().out


def test_cli_two_strands_have_no_splittings(capsys):
    # split refuses n = 2, and enum-verify checks only the normal forms there.
    assert cli.main(["split", "-n", "2", "a(1,2)"]) == 2
    assert "at least 3 strands" in capsys.readouterr().err
    assert cli.main(["enum-verify", "-n", "2", "--max-length", "3"]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "4 elements of length <= 3 at n=2",
        "ordering agreement: 6/6 pairs",
        "total: 9/9 checks passed",
    ]


def test_cli_enum_verify_keys_each_element_once(capsys, monkeypatch):
    keyed = []

    def counted(w, original=ordering.rotating_key):
        keyed.append(w)
        return original(w)

    monkeypatch.setattr(ordering, "rotating_key", counted)
    assert cli.main(["enum-verify", "-n", "3", "--max-length", "3"]) == 0
    elements = enumeration.enumerate_elements(3, 3)
    assert sorted(keyed, key=str) == sorted(elements, key=str)
    assert capsys.readouterr().out.splitlines() == [
        "26 elements of length <= 3 at n=3",
        "ordering agreement: 325/325 pairs",
        "total: 350/350 checks passed",
    ]


def test_cli_enum_verify_splits_each_element_at_most_twice(capsys, monkeypatch):
    # Once for its key and once inside rnf: the splitting-head check reads the key.
    split = []

    def counted(w, original=rotating.splitting):
        split.append(w)
        return original(w)

    monkeypatch.setattr(rotating, "splitting", counted)
    assert cli.main(["enum-verify", "-n", "4", "--max-length", "2"]) == 0
    elements = enumeration.enumerate_elements(4, 2)
    assert len(split) <= 2 * len(elements)
    assert capsys.readouterr().out.splitlines()[-1] == "total: 560/560 checks passed"


def test_cli_enum_verify_flags_a_trivial_splitting_head(capsys, monkeypatch):
    # At n=3 a head is a power of a(1,2); prepend an empty one to every tree.
    def padded(w, original=rotating.splitting_tree):
        tree = original(w)
        return tree if not w.letters else (0, *tree)

    monkeypatch.setattr(rotating, "splitting_tree", padded)
    assert cli.main(["enum-verify", "-n", "3", "--max-length", "1"]) == 3
    flagged = [line for line in capsys.readouterr().out.splitlines() if line.startswith("SPLITTING HEAD")]
    assert len(flagged) == 3


def test_cli_parse_error_exit_code(capsys):
    assert cli.main(["normalize", "-n", "3", "a(1,9)"]) == 1
    assert "parse error" in capsys.readouterr().err


def test_cli_contract_error_exit_code(capsys):
    # Requesting a band coercion of a negative Artin word is a parse error,
    # but a strand-count contract breach surfaces as exit code 2.
    assert cli.main(["normalize", "-n", "1", "1"]) == 2


def test_cli_enum_verify_rejects_negative_length(capsys):
    assert cli.main(["enum-verify", "-n", "3", "--max-length", "-1"]) == 2
    captured = capsys.readouterr()
    assert "error:" in captured.err and "elements" not in captured.out


def test_cli_strand_limit(capsys):
    assert cli.main(["normalize", "-n", str(cli.MAX_STRANDS), "1"]) == 0
    assert capsys.readouterr().out.strip() == "1"
    assert cli.main(["normalize", "-n", str(cli.MAX_STRANDS + 1), "1"]) == 2
    assert capsys.readouterr().err.startswith("error: --strands must be between 2 and")


def test_cli_enum_verify_word_limit(capsys, monkeypatch):
    # At n=3 there are 1 + 3 + 9 + 27 = 40 words of length <= 3.
    monkeypatch.setattr(enumeration, "enumerate_elements", lambda n, max_length: [])
    monkeypatch.setattr(cli, "MAX_ENUM_WORDS", 40)
    assert cli.main(["enum-verify", "-n", "3", "--max-length", "3"]) == 0
    capsys.readouterr()

    def refuse(n, max_length):
        raise AssertionError("enumerated past the limit")

    monkeypatch.setattr(enumeration, "enumerate_elements", refuse)
    monkeypatch.setattr(cli, "MAX_ENUM_WORDS", 39)
    assert cli.main(["enum-verify", "-n", "3", "--max-length", "3"]) == 2
    assert capsys.readouterr().err.startswith("error: more than 39 words")


def test_cli_enum_verify_default_limit_refuses_before_enumerating(capsys, monkeypatch):
    def refuse(n, max_length):
        raise AssertionError("enumerated past the limit")

    monkeypatch.setattr(enumeration, "enumerate_elements", refuse)
    # 1 + 6 + ... + 6^6 = 55987 words at n=4; n=2 grows by one word per length.
    assert cli.main(["enum-verify", "-n", "4", "--max-length", "6"]) == 2
    assert cli.main(["enum-verify", "-n", "2", "--max-length", str(cli.MAX_ENUM_WORDS)]) == 2
    assert cli.main(["enum-verify", "-n", "3", "--max-length", str(10**9)]) == 2
    assert capsys.readouterr().err.count("error: more than") == 3


@pytest.mark.parametrize(
    "argv",
    [["oracle", "-n", "3", "s1 s2"], ["compare", "-n", "3", "a(1,2)", "a(2,3)"]],
)
def test_cli_oracle_overflow_exit_code(argv, capsys, monkeypatch):
    def overflow(w, max_length=10**6):
        raise oracle.ReductionOverflow(f"word grew past {max_length} letters")

    monkeypatch.setattr(oracle, "sigma_class", overflow)
    assert cli.main(argv) == 2
    assert capsys.readouterr().err.startswith("error: word grew past")


def test_cli_oracle_failure_exit_code(capsys, monkeypatch):
    # A reduction that leaves mixed signs at the top index is an oracle
    # failure: a typed error and exit 2, not a traceback.
    monkeypatch.setattr(oracle, "handle_reduce", lambda w, max_length=10**6: ArtinWord(3, [(2, 1), (2, -1)]))
    with pytest.raises(oracle.OracleError):
        oracle.sigma_class(ArtinWord(3, [(1, 1)]))
    assert cli.main(["oracle", "-n", "3", "s1"]) == 2
    assert capsys.readouterr().err.startswith("error: mixed signs")


def test_cli_usage_error_on_unknown_command():
    with pytest.raises(SystemExit):
        cli.main(["frobnicate"])


@pytest.mark.parametrize(
    "argv",
    [["normalize", "-n", "x", "1"], ["frobnicate"], ["compare", "-n", "3", "a(1,3)"]],
)
def test_cli_argparse_errors_exit_usage(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == cli.EXIT_USAGE == 1
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [["--help"], ["oracle", "--help"]])
def test_cli_help_exits_zero(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 0
    assert "usage:" in capsys.readouterr().out


def cli_words():
    well_formed = st.sampled_from(["1", "a(1,2)", "a(1,3)", "a(2,4)", "d(1,3)", "d(2,5)", "s1", "s2^-1", "s3"])
    index = st.integers(-1, 9)
    malformed = st.one_of(
        st.builds("a({},{})".format, index, index),
        st.builds("d({},{})".format, index, index),
        st.builds("s{}".format, index),
        st.builds("s{}^-1".format, index),
        st.sampled_from(["s1^2", "a(1,", "a(1,2)a(2,3)", "b(1,2)", "x", "", "-"]),
    )
    tokens = st.lists(well_formed, max_size=3)
    return tokens.map(" ".join) | st.tuples(tokens, malformed).map(lambda t: " ".join([*t[0], t[1]]))


@st.composite
def cli_argvs(draw):
    command = draw(st.sampled_from(["normalize", "compare", "split", "tree", "oracle", "enum-verify", "frob", ""]))
    strands = draw(st.integers(-1, 43))
    strands = {41: "x", 42: "3.5", 43: ""}.get(strands, strands)
    argv = [command]
    if not (draw(st.booleans()) and draw(st.booleans())):
        argv += ["-n", str(strands)]
    if command == "enum-verify":
        # Sizes the word limit lets through run only at n <= 4 and length <= 2;
        # larger ones would enumerate for minutes.
        if isinstance(strands, int) and strands <= 4:
            length = st.integers(-2, 2)
        else:
            length = st.integers(4, 10**9) | st.integers(-2, -1)
        argv += ["--max-length", str(draw(length | st.sampled_from(["x", ""])))]
    words = 2 if command == "compare" else 0 if command == "enum-verify" else 1
    argv += [draw(cli_words()) for _ in range(draw(st.sampled_from([words, words, words, 0, 3])))]
    if draw(st.booleans()) and draw(st.booleans()) and draw(st.booleans()):
        argv.insert(draw(st.integers(0, len(argv))), "--help")
    return argv


@settings(max_examples=300, deadline=None)
@given(cli_argvs())
def test_cli_exits_only_with_documented_codes(argv):
    # Any command line returns or exits with a documented code; nothing else escapes.
    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    assert code in (0, 1, 2, 3)


def test_reduction_ceiling_is_enforced(capsys, monkeypatch):
    # Reducing the handle s2 s1 s1 s2^-1 yields six letters, past a ceiling of 3.
    monkeypatch.setattr(oracle, "MAX_LENGTH", 3)
    with pytest.raises(oracle.ReductionOverflow, match="word grew past 3 letters"):
        oracle.handle_reduce(ArtinWord(3, [(2, 1), (1, 1), (1, 1), (2, -1)]))
    assert cli.main(["oracle", "-n", "3", "s2 s1 s1 s2^-1"]) == 2
    assert capsys.readouterr().err.strip() == "error: word grew past 3 letters"


def test_reduction_ceiling_holds_at_entry_and_during_reduction(capsys, monkeypatch):
    # s1^5 is free- and handle-reduced already; its length alone is past 3.
    monkeypatch.setattr(oracle, "MAX_LENGTH", 3)
    with pytest.raises(oracle.ReductionOverflow, match="word grew past 3 letters"):
        oracle.sigma_class(ArtinWord(3, [(1, 1)] * 5))
    assert cli.main(["oracle", "-n", "3", "s1 s1 s1 s1 s1"]) == 2
    assert capsys.readouterr().err.strip() == "error: word grew past 3 letters"
    # s3 s2 s1 s2 s3^-1 fits a ceiling of 6 and grows to seven letters.
    growing = ArtinWord(4, [(3, 1), (2, 1), (1, 1), (2, 1), (3, -1)])
    monkeypatch.setattr(oracle, "MAX_LENGTH", 6)
    with pytest.raises(oracle.ReductionOverflow, match="word grew past 6 letters"):
        oracle.handle_reduce(growing)
    monkeypatch.setattr(oracle, "MAX_LENGTH", 7)
    assert len(oracle.handle_reduce(growing)) == 7


def test_reduction_step_budget_is_enforced(capsys, monkeypatch):
    # s2 s1 s2^-1 s2^-1 needs two handle removals, s2^-1 s1 s2 one.
    monkeypatch.setattr(oracle, "MAX_STEPS", 1)
    assert oracle.handle_reduce(ArtinWord(3, [(2, -1), (1, 1), (2, 1)])) == ArtinWord(
        3, [(1, 1), (2, 1), (1, -1)]
    )
    with pytest.raises(oracle.ReductionOverflow, match="more than 1 handle removals"):
        oracle.handle_reduce(ArtinWord(3, [(2, 1), (1, 1), (2, -1), (2, -1)]))
    assert cli.main(["oracle", "-n", "3", "s2 s1 s2^-1 s2^-1"]) == 2
    assert capsys.readouterr().err.strip() == "error: more than 1 handle removals"
    monkeypatch.setattr(oracle, "MAX_STEPS", 2)
    assert oracle.handle_reduce(ArtinWord(3, [(2, 1), (1, 1), (2, -1), (2, -1)])) == ArtinWord(
        3, [(1, -1), (1, -1), (2, 1), (1, 1)]
    )
