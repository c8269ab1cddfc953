"""Fast checks of the benchmark itself, at tiny sizes.

Run from the root of the repository:  python3 -m pytest -q benchmarks
"""

from __future__ import annotations

import functools
import json
import random
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

import layertrace
import run
import workloads

TINY = {
    "rank": replace(workloads.WORKLOADS["rank"], strands=(3, 4), lengths=(2, 4), cap=12),
    "crosscheck": replace(workloads.WORKLOADS["crosscheck"], strands=(3,), lengths=(1, 3), pool=6, cap=20),
    "oracle_cmp": replace(workloads.WORKLOADS["oracle_cmp"], strands=(4, 5), lengths=(4, 8), cap=20),
}


def tiny_run(name: str, trace: bool, tmp_path: Path, seed: int = 7) -> dict:
    return run.run(name, seed, seconds=0.5, trace=trace, out_dir=tmp_path, spec=TINY[name], setup_reps=2)


@pytest.mark.parametrize("name", sorted(TINY))
@pytest.mark.parametrize("trace", [False, True])
def test_every_metric_is_emitted_and_no_op_fails(name, trace, tmp_path):
    report = tiny_run(name, trace, tmp_path)
    result = report["result"]
    expected = layertrace.PER_LAYER if trace else run.END_TO_END
    assert list(result["metrics"]) == list(expected)
    for metric, value in result["metrics"].items():
        assert value["unit"] == expected[metric][0]
        assert isinstance(value["value"], (int, float)) and not isinstance(value["value"], bool)
    assert result["correct"] and result["attempted"] >= 1 and result["failed"] == 0
    assert report["detail"]["fail_frac"] == 0
    if trace:
        assert report["absent"] == []
        assert Path(report["trace_file"]).is_file()
    else:
        assert result["metrics"]["ok_frac"]["value"] == 1


def test_one_seed_gives_one_input_hash():
    for spec in TINY.values():
        first = workloads.input_hash(workloads.generate(spec, 3))
        assert workloads.input_hash(workloads.generate(spec, 3)) == first
        assert workloads.input_hash(workloads.generate(spec, 4)) != first
        warm = workloads.warmup_inputs(spec)
        assert warm == workloads.warmup_inputs(spec) != workloads.generate(spec, 3)[: len(warm)]


def test_rank_words_are_distinct_and_balanced():
    raw = workloads.generate(workloads.WORKLOADS["rank"], 1)
    assert len(set(raw)) == len(raw)
    cells = {(n, len(w)) for n, w in raw[:27]}
    assert len(cells) == 27


def test_no_wrapper_remains_after_a_traced_run(tmp_path):
    report = tiny_run("crosscheck", True, tmp_path)
    assert report["wrappers_left"] == []
    mods = run.Mods(run.ROOT / "src")
    tracer = layertrace.Tracer(mods)
    original = mods.garside.gnf
    tracer.install()
    assert mods.garside.gnf is not original and tracer.installed()
    tracer.restore()
    assert mods.garside.gnf is original and tracer.installed() == []


def test_untraced_run_installs_no_wrapper(tmp_path, monkeypatch):
    def refuse(self):
        raise AssertionError("wrapper installed in an untraced run")

    monkeypatch.setattr(layertrace.Tracer, "install", refuse)
    assert tiny_run("rank", False, tmp_path)["result"]["correct"]


def test_deleted_function_is_reported_absent():
    mods = run.Mods(run.ROOT / "src")
    del mods.rotating.rnf
    tracer = layertrace.Tracer(mods)
    tracer.install()
    try:
        mods.ordering.rotating_key(mods.words.band_word(3, [(1, 2), (2, 3)]))
    finally:
        tracer.restore()
    values, absent = tracer.metrics(1.0, 1.0)
    assert absent == ["rotating.rnf.calls", "rotating.rnf.self_s"]
    assert values["rotating.rnf.calls"] == 0 and values["rotating.splitting.calls"] > 0


def test_changed_signature_leaves_ops_working():
    mods = run.Mods(run.ROOT / "src")
    mods.garside.gnf = lambda w, original=mods.garside.gnf: original(w)
    mods.garside.gnf.__module__ = "dualbraid.garside"
    mods.garside.gnf.__name__ = "gnf"
    tracer = layertrace.Tracer(mods)
    tracer.install()
    try:
        mods.garside.gnf(w=mods.words.band_word(3, [(1, 2)]))
    finally:
        tracer.restore()
    values, absent = tracer.metrics(1.0, 1.0)
    assert values["garside.gnf.calls"] == 1 and "garside.gnf.letters_in" in absent


def test_memoized_function_is_still_traced():
    mods = run.Mods(run.ROOT / "src")
    mods.ncp.meet = functools.lru_cache(mods.ncp.meet)
    tracer = layertrace.Tracer(mods)
    tracer.install()
    try:
        mods.garside.gnf(mods.words.band_word(3, [(1, 2), (2, 3), (1, 2)]))
    finally:
        tracer.restore()
    assert tracer.stats["ncp.meet"].calls > 0 and tracer.installed() == []


def test_rewrite_keeps_the_element():
    mods = run.Mods(run.ROOT / "src")
    rng = random.Random(5)
    for _ in range(30):
        n = rng.choice((4, 5, 6))
        word = workloads.random_word(rng, n, rng.randint(2, 8))
        scrambled = workloads.rewrite(word, rng, 20)
        band = mods.words.band_word
        assert mods.garside.equal(band(n, word), band(n, scrambled))


def test_exits_nonzero_without_the_engine(tmp_path):
    shutil.copytree(Path(run.__file__).parent, tmp_path / "benchmarks")
    proc = subprocess.run(
        [sys.executable, "benchmarks/run.py", "--workload", "rank", "--seed", "1", "--seconds", "1"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode != 0 and '"metrics"' not in proc.stdout


def test_benchmark_json_lists_what_the_benchmark_emits():
    doc = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert doc["command"] == ["python3", "benchmarks/run.py"]
    assert [(w["name"], w["why"]) for w in doc["workloads"]] == [(w.name, w.why) for w in workloads.WORKLOADS.values()]
    assert [(m["name"], m["unit"], m["better"]) for m in doc["end_to_end"]] == [
        (name, unit, better) for name, (unit, better) in run.END_TO_END.items()
    ]
    assert [(m["name"], m["unit"], m["better"]) for m in doc["per_layer"]] == [
        (name, unit, better) for name, (unit, better) in layertrace.PER_LAYER.items()
    ]
    setup_bound = next(m["bound"] for m in doc["end_to_end"] if m["name"] == "setup_s")
    assert all(0 < m["bound"] <= setup_bound <= 0.25 for m in doc["end_to_end"])


def test_traced_counts_repeat_for_a_seed(tmp_path):
    counts = []
    for _ in range(2):
        metrics = tiny_run("crosscheck", True, tmp_path)["result"]["metrics"]
        counts.append({name: m["value"] for name, m in metrics.items() if m["unit"] == "count"})
    assert counts[0] == counts[1]
