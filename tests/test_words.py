import pytest

from dualbraid.words import (
    ArtinWord,
    BandLetter,
    BandWord,
    band_to_artin,
    band_word,
    delta_word,
    invert,
    phi,
    widen,
)


def test_band_letter_validation():
    with pytest.raises(ValueError):
        BandWord(3, (BandLetter(2, 2),))
    with pytest.raises(ValueError):
        BandWord(3, (BandLetter(1, 4),))
    with pytest.raises(ValueError):
        BandWord(1)


def test_band_to_artin_generator_is_sigma():
    assert band_to_artin(band_word(3, [(1, 2)])) == ArtinWord(3, [(1, 1)])


def test_band_to_artin_conjugate_expansion():
    assert band_to_artin(band_word(3, [(1, 3)])) == ArtinWord(
        3, [(1, 1), (2, 1), (1, -1)]
    )


def test_band_to_artin_empty():
    assert band_to_artin(BandWord(4)) == ArtinWord(4)


def test_phi_shifts_interior_letter():
    assert phi(1, band_word(3, [(1, 2)])) == band_word(3, [(2, 3)])


def test_phi_wraps_top_strand():
    assert phi(2, band_word(6, [(4, 5)])) == band_word(6, [(1, 6)])


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_phi_has_order_n(n):
    w = band_word(n, [(1, 2), (1, n), (n - 1, n), (2, n - 1) if n > 3 else (2, 3)])
    assert phi(n, w) == w
    assert phi(-1, phi(1, w)) == w


def test_phi_reads_the_strand_count_off_the_word():
    with pytest.raises(TypeError):
        phi(3, 1, band_word(3, [(1, 2)]))


def test_delta_word_examples():
    assert delta_word(1, 3, 3) == band_word(3, [(1, 2), (2, 3)])
    assert delta_word(2, 2, 4) == BandWord(4)
    assert delta_word(1, 5, 5) == band_word(5, [(1, 2), (2, 3), (3, 4), (4, 5)])
    with pytest.raises(ValueError):
        delta_word(3, 2, 4)


def test_invert_is_reversal_with_sign_flip():
    w = ArtinWord(4, [(1, 1), (3, -1), (2, 1)])
    assert invert(w) == ArtinWord(4, [(2, -1), (3, 1), (1, -1)])
    assert invert(invert(w)) == w


def test_widen_is_explicit():
    w = band_word(3, [(1, 2), (2, 3)])
    assert widen(w, 5) == BandWord(5, w.letters)
    with pytest.raises(ValueError):
        widen(band_word(4, [(1, 4)]), 3)

