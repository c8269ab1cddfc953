"""Word syntax parsing and the command-line interface."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dualbraid import cli, oracle
from dualbraid.parser import (
    ParseError,
    parse_artin_word,
    parse_band_word,
    parse_word,
)
from dualbraid.words import ArtinWord, BandWord, artin_word, band_word


def test_parse_band_examples():
    assert parse_word("a(1,3) a(1,2)", 3) == band_word(3, [(1, 3), (1, 2)])
    assert parse_word("d(1,4)", 4) == band_word(4, [(1, 2), (2, 3), (3, 4)])
    assert parse_word("1", 5) == BandWord(5)
    assert parse_word("a(1,2) 1 a(2,3)", 3) == band_word(3, [(1, 2), (2, 3)])


def test_parse_artin_examples():
    assert parse_word("s2^-1 s1 s2", 3) == artin_word(3, [(2, -1), (1, 1), (2, 1)])
    assert parse_artin_word("a(1,3)", 3) == artin_word(3, [(1, 1), (2, 1), (1, -1)])


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
    w = artin_word(n, letters)
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


def test_cli_usage_error_on_unknown_command():
    with pytest.raises(SystemExit):
        cli.main(["frobnicate"])
