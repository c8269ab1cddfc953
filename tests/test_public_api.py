"""The package's public names: each resolves, the README lists exactly them,
and every other public name in src/ has a caller there or a stated reason."""

import ast
import inspect
import re
from pathlib import Path

import dualbraid
from dualbraid import ArtinWord, BandWord

README = Path(__file__).resolve().parent.parent / "README.md"
SRC = Path(dualbraid.__file__).parent

# Public module-level names that src/ never reads, each kept for a reason.
KEPT_WITHOUT_CALLER = {
    "ncp_to_perm": "converter of the exported NonCrossingPartition",
    "perm_to_ncp": "converter of the exported NonCrossingPartition",
    "left_quotient": "named by a per-layer metric in benchmarks/layertrace.py",
    "right_complement": "named by a per-layer metric in benchmarks/layertrace.py",
    "invert": "kept for the Dehornoy order on all of B_n (ROADMAP item 18)",
}


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


def test_every_public_name_has_a_caller():
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    nodes = [node for tree in trees.values() for node in ast.walk(tree)]
    read = {node.id for node in nodes if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    read |= {node.attr for node in nodes if isinstance(node, ast.Attribute)}
    defined = set()
    for module, tree in trees.items():
        for stmt in tree.body:
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
                defined.add((module, stmt.name))
            elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
                targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
                defined |= {(module, t.id) for t in targets if isinstance(t, ast.Name)}
    uncalled = sorted(
        f"{module}.{name}"
        for module, name in defined
        if not name.startswith("_")
        and name not in dualbraid.__all__
        and name not in read
        and name not in KEPT_WITHOUT_CALLER
    )
    assert uncalled == []
