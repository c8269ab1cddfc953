"""The band-word length bound at the text boundary, reached through the
real parser and CLI on inputs just past it."""

import pytest

from dualbraid import cli
from dualbraid.parser import MAX_BAND_LETTERS, ParseError, parse_artin_word, parse_band_word

# Letters per token: a(p,q) and s_i give one, d(1,32) gives 31.
AT_BOUND = {
    2: "a(1,2) " * MAX_BAND_LETTERS,
    3: "s2 " * MAX_BAND_LETTERS,
    32: "d(1,32) " * 322 + "a(1,2) " * 18,
}
PAST_BOUND = {
    2: "a(1,2) " * (MAX_BAND_LETTERS + 1),
    3: "s2 " * (MAX_BAND_LETTERS + 1),
    32: "d(1,32) " * 323,
}


def test_bound_value():
    assert MAX_BAND_LETTERS == 10_000


@pytest.mark.parametrize("n", sorted(AT_BOUND))
def test_words_at_the_bound_parse(n):
    assert len(parse_band_word(AT_BOUND[n], n)) == MAX_BAND_LETTERS


@pytest.mark.parametrize("n", sorted(PAST_BOUND))
def test_longer_words_are_refused_after_expansion(n):
    with pytest.raises(ValueError) as info:
        parse_band_word(PAST_BOUND[n], n)
    assert type(info.value) is ValueError
    letters = MAX_BAND_LETTERS + 1 if n < 32 else 323 * 31
    assert str(info.value) == f"a band word may have at most {MAX_BAND_LETTERS} letters, not {letters}"


@pytest.mark.parametrize("command", ["normalize", "split", "tree", "compare"])
@pytest.mark.parametrize("n", [3, 32])
def test_cli_refuses_long_band_words_with_exit_2(capsys, command, n):
    words = [PAST_BOUND[n], "a(1,2)"] if command == "compare" else [PAST_BOUND[n]]
    assert cli.main([command, "-n", str(n), *words]) == cli.EXIT_CONTRACT
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: a band word may have at most {MAX_BAND_LETTERS} letters")


def test_negative_letters_are_still_a_parse_error_past_the_bound():
    with pytest.raises(ParseError):
        parse_band_word("s1^-1 " * (MAX_BAND_LETTERS + 1), 3)


def test_artin_words_keep_only_the_oracle_cap(capsys):
    assert len(parse_artin_word(PAST_BOUND[2], 2)) == MAX_BAND_LETTERS + 1
    assert cli.main(["oracle", "-n", "2", PAST_BOUND[2]]) == cli.EXIT_OK
    assert capsys.readouterr().out.strip() == "positive(1)"
