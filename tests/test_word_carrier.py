"""One word carrier: BandWord and ArtinWord share one implementation, whose
one pass checks and interns letters given by any iterable, one-shot
iterators included; and the oracle imports nothing of the engine."""

import ast
import dataclasses
import subprocess
import sys
from pathlib import Path

import pytest

import dualbraid
from dualbraid import ordering, words
from dualbraid.words import ArtinLetter, ArtinWord, BandLetter, BandWord, artin_word, band_word

ORACLE = Path(words.__file__).with_name("oracle.py")


@pytest.mark.parametrize("build", [BandWord, band_word])
def test_band_words_read_one_shot_iterators(build):
    w = build(3, iter([(1, 2), [1, 3], BandLetter(2, 3)]))
    assert w == band_word(3, [(1, 2), (1, 3), (2, 3)])
    assert all(type(letter) is BandLetter for letter in w.letters)
    assert build(3, iter([])) == BandWord(3)
    assert build(3, (pair for pair in [(1, 3)])).letters == (BandLetter(1, 3),)
    with pytest.raises(ValueError) as info:
        build(3, iter([(1, 2), (5, 6)]))
    assert str(info.value) == "letter a(5,6) is invalid on 3 strands"
    with pytest.raises(ValueError, match=r"^letter a\(2,1\) is invalid on 3 strands$"):
        build(3, iter([[1, 2], (2, 1)]))


@pytest.mark.parametrize("build", [ArtinWord, artin_word])
def test_artin_words_read_one_shot_iterators(build):
    w = build(3, iter([(1, 1), [2, -1], ArtinLetter(1, -1)]))
    assert w == artin_word(3, [(1, 1), (2, -1), (1, -1)])
    assert all(type(letter) is ArtinLetter for letter in w.letters)
    assert build(3, (pair for pair in [(2, 1)])).letters == (ArtinLetter(2, 1),)
    with pytest.raises(ValueError) as info:
        build(3, iter([(1, 1), (7, 1)]))
    assert str(info.value) == "index 7 out of range on 3 strands"
    with pytest.raises(ValueError, match=r"^invalid sign 2$"):
        build(3, iter([[1, 1], (2, 2)]))


def test_constructors_are_the_word_types():
    assert band_word is BandWord and artin_word is ArtinWord


def test_word_types_stay_distinct_values():
    assert BandWord(3) != ArtinWord(3)
    assert repr(band_word(3, [(1, 2)])) == "BandWord(n=3, letters=(BandLetter(p=1, q=2),))"
    assert repr(ArtinWord(3, [(2, -1)])) == "ArtinWord(n=3, letters=(ArtinLetter(i=2, sign=-1),))"
    assert str(BandWord(3)) == str(ArtinWord(3)) == "1"
    for w in (band_word(3, [(1, 2)]), artin_word(3, [(1, 1)])):
        for field in ("n", "letters"):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(w, field, getattr(w, field))


def test_products_keep_their_type():
    band = band_word(3, [(1, 2)]) * band_word(3, iter([(2, 3)]))
    assert type(band) is BandWord and str(band) == "a(1,2) a(2,3)" and len(band) == 2
    artin = artin_word(3, [(1, 1)]) * artin_word(3, [(2, -1)])
    assert type(artin) is ArtinWord and str(artin) == "s1 s2^-1" and len(artin) == 2
    with pytest.raises(ValueError, match="strand count mismatch"):
        band_word(3, [(1, 2)]) * band_word(4, [(1, 2)])


def test_shared_methods_are_defined_once():
    tree = ast.parse(Path(words.__file__).read_text())
    carriers = [node for node in tree.body if isinstance(node, ast.ClassDef) and node.name.endswith("Word")]
    defined = [fn.name for cls in carriers for fn in cls.body if isinstance(fn, ast.FunctionDef)]
    for name in ("__len__", "__mul__", "__str__", "__post_init__"):
        assert defined.count(name) == 1, name
    assert "__post_init__" in vars(BandWord)  # the benchmark's tracer counts band words through it


def test_import_creates_two_dataclasses():
    code = (
        "import sys, dualbraid\n"
        "print(sum('__dataclass_fields__' in vars(c) for m in list(sys.modules.values())\n"
        "          if m.__name__.startswith('dualbraid') for c in vars(m).values()\n"
        "          if isinstance(c, type) and c.__module__ == m.__name__))"
    )
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "2"


def test_order_result_is_one_class():
    assert ordering.OrderResult is words.OrderResult is dualbraid.OrderResult


def test_oracle_imports_only_words():
    imported = []
    for node in ast.walk(ast.parse(ORACLE.read_text())):
        if isinstance(node, ast.ImportFrom):
            imported.append("." * node.level + (node.module or ""))
        elif isinstance(node, ast.Import):
            imported += [alias.name for alias in node.names]
    ours = [name for name in imported if name.startswith(".") or name.startswith("dualbraid")]
    assert ours == [".words"]
