"""The package's public names: each resolves, and the README lists exactly them."""

import inspect
import re
from pathlib import Path

import dualbraid
from dualbraid import ArtinWord, BandWord

README = Path(__file__).resolve().parent.parent / "README.md"


def readme_public_names():
    section = README.read_text().split("\n## Public API\n", 1)[1].split("\n## ", 1)[0]
    bullets = "\n".join(line for line in section.splitlines() if line.startswith(("- ", "  ")))
    return re.findall(r"`(\w+)`", bullets)


def test_every_public_name_resolves():
    for name in dualbraid.__all__:
        assert getattr(dualbraid, name).__module__.startswith("dualbraid.")


def test_readme_lists_exactly_the_public_names():
    listed = readme_public_names()
    assert len(listed) == len(set(listed))
    assert sorted(listed) == sorted(dualbraid.__all__)


def test_no_strand_count_beside_a_word():
    # A word carries its strand count; widen's n is the count it widens to.
    offenders = []
    for name in dualbraid.__all__:
        f = getattr(dualbraid, name)
        if not inspect.isfunction(f) or name == "widen":
            continue
        params = inspect.signature(f, eval_str=True).parameters
        if "n" in params and any(p.annotation in (BandWord, ArtinWord) for p in params.values()):
            offenders.append(name)
    assert offenders == []
