"""Benchmark of the dualbraid engine: one workload, one seed, one process.

Usage, from the root of a checkout:

    python3 benchmarks/run.py --workload rank --seed 1 --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics with no wrapper installed.
``--trace 1`` measures the per-layer metrics: it runs a fixed number of
ops untraced (for at most half the time), imports the engine afresh, and
runs the same ops again with timing wrappers on every public function of
the layer modules.
Either way the last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the lines
before it give the provenance of the run and every metric by name.

The loop is closed: one process, one thread, each op starts when the
previous one has returned.  The engine is imported from ``src/`` next to
this directory; without it the benchmark exits with code 2.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import resource
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import layertrace
import workloads

ROOT = Path(__file__).resolve().parent.parent
LAYER_MODULES = ("words", "ncp", "garside", "rotating", "ordering", "oracle")
SETUP_REPS = 5

# End-to-end metrics: name -> (unit, better).
END_TO_END = {
    "ops_per_s": ("1/s", "higher"),
    "op_p50_ms": ("ms", "lower"),
    "op_p90_ms": ("ms", "lower"),
    "cpu_ms_per_op": ("ms", "lower"),
    "ok_frac": ("frac", "higher"),
    "peak_rss_mb": ("MB", "lower"),
    "setup_s": ("s", "lower"),
}


class SetupError(RuntimeError):
    """The engine could not be imported from the checkout."""


class Mods:
    """One fresh import of the ``dualbraid`` package from ``src``."""

    def __init__(self, src: Path) -> None:
        if not (src / "dualbraid" / "__init__.py").is_file():
            raise SetupError(f"no dualbraid package under {src}")
        if str(src) not in sys.path:
            sys.path.insert(0, str(src))
        for name in [m for m in sys.modules if m == "dualbraid" or m.startswith("dualbraid.")]:
            del sys.modules[name]
        package = importlib.import_module("dualbraid")
        if Path(package.__file__).resolve().parent != (src / "dualbraid").resolve():
            raise SetupError(f"dualbraid was imported from {package.__file__}, not from {src}")
        for name in LAYER_MODULES:
            setattr(self, name, importlib.import_module(f"dualbraid.{name}"))

    @staticmethod
    def all_modules() -> list:
        return [m for name, m in sys.modules.items() if name == "dualbraid" or name.startswith("dualbraid.")]


@dataclass
class Loop:
    """What one pass of the closed loop did."""

    times: list[float]
    results: list
    errors: dict[str, int]
    wall: float
    cpu: float


def loop(op, args: list, deadline: float | None = None, tracer: layertrace.Tracer | None = None) -> Loop:
    """Run ops in order until the inputs or the time run out.

    An op that raises is recorded with the result None; the loop goes on.
    """
    perf = time.perf_counter
    times: list[float] = []
    results: list = []
    errors: dict[str, int] = {}
    cpu0 = time.process_time()
    start = perf()
    for i, a in enumerate(args):
        if deadline is not None and perf() >= deadline:
            break
        if tracer is not None:
            tracer.begin_op()
        t0 = perf()
        try:
            result = op(*a)
        except Exception as exc:  # a failed op is counted, not fatal
            result = None
            errors[type(exc).__name__] = errors.get(type(exc).__name__, 0) + 1
        t1 = perf()
        if tracer is not None:
            tracer.end_op(i, t0, t1)
        times.append(t1 - t0)
        results.append(result)
    return Loop(times, results, errors, perf() - start, time.process_time() - cpu0)


def setup(spec: workloads.Workload, seed: int, src: Path):
    """Import the engine, generate and build the inputs, and warm up."""
    mods = Mods(src)
    raw = workloads.generate(spec, seed)
    digest = workloads.input_hash(raw)
    args = workloads.build(mods, spec, raw)
    op = workloads.op_for(mods, spec)
    warm = workloads.warmup_inputs(spec)
    loop(op, workloads.build(mods, spec, warm))
    return mods, raw, digest, args, op


def git_sha(root: Path) -> str:
    """The commit of the checkout, read from ``.git`` without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def quantile(values: list[float], q: int) -> float:
    """The q-th decile of ``values`` (q=5 is the median)."""
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[q - 1]


def run(
    workload: str,
    seed: int,
    seconds: float,
    trace: bool,
    root: Path = ROOT,
    out_dir: Path | None = None,
    spec: workloads.Workload | None = None,
    setup_reps: int = SETUP_REPS,
) -> dict:
    """Run one workload and return the report; ``report["result"]`` is the contract line."""
    spec = spec or workloads.WORKLOADS[workload]
    src = root / "src"
    provenance = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "git_sha": git_sha(root),
        "loadavg_start": list(os.getloadavg()),
    }
    setups = []
    for _ in range(1 if trace else setup_reps):
        t0 = time.perf_counter()
        mods, raw, digest, args, op = setup(spec, seed, src)
        setups.append(time.perf_counter() - t0)
    provenance["input_hash"] = digest

    report: dict = {"provenance": provenance}
    walls: dict = {}
    if trace:
        # A fixed op count keeps the layer counts exact for a seed and commit.
        first = loop(op, args[: spec.trace_ops], deadline=time.perf_counter() + seconds / 2)
        # The same ops again, on a fresh import so that no state carries over.
        mods, raw, _, args, op = setup(spec, seed, src)
        tracer = layertrace.Tracer(mods)
        tracer.install()
        try:
            passed = loop(op, args[: len(first.times)], tracer=tracer)
        finally:
            tracer.restore()
        report["wrappers_left"] = tracer.installed()
        walls = {"untraced_wall_s": first.wall, "traced_wall_s": passed.wall}
        values, report["absent"] = tracer.metrics(passed.wall, first.wall)
        units = layertrace.PER_LAYER
        if out_dir is not None:
            out_dir.mkdir(parents=True, exist_ok=True)
            trace_file = out_dir / f"trace-{workload}-seed{seed}.json"
            trace_file.write_text(
                json.dumps({"provenance": provenance, "absent": report["absent"], "spans": tracer.spans})
            )
            report["trace_file"] = str(trace_file)
    else:
        passed = loop(op, args, deadline=time.perf_counter() + seconds)
    attempted = len(passed.results)
    bad = workloads.check(mods, spec, raw, args, passed.results)
    failed = len(bad | {i for i, r in enumerate(passed.results) if r is None})
    provenance["loadavg_end"] = list(os.getloadavg())

    times_ms = [t * 1000 for t in passed.times]
    p90 = quantile(times_ms, 9)
    report["detail"] = {
        "ops": attempted,
        "wrong": len(bad),
        "errors": passed.errors,
        "fail_frac": failed / attempted,
        "samples_beyond_p90": sum(t > p90 for t in times_ms),
        "setup_runs_s": setups,
        **walls,
    }
    if not trace:
        values = {
            "ops_per_s": attempted / passed.wall,
            "op_p50_ms": quantile(times_ms, 5),
            "op_p90_ms": p90,
            "cpu_ms_per_op": passed.cpu * 1000 / attempted,
            "ok_frac": 1 - failed / attempted,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "setup_s": statistics.median(setups),
        }
        units = END_TO_END
    report["result"] = {
        "correct": not bad,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, (unit, _) in units.items()},
    }
    return report


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    opts = parser.parse_args(argv)
    if opts.seconds <= 0:
        parser.error("--seconds must be positive")
    try:
        report = run(opts.workload, opts.seed, opts.seconds, bool(opts.trace), out_dir=ROOT / ".bench_out")
    except SetupError as exc:
        print(f"benchmark setup failed: {exc}", file=sys.stderr)
        return 2
    if report.get("wrappers_left"):
        print("timing wrappers left installed: " + ", ".join(report["wrappers_left"]), file=sys.stderr)
        return 1
    print("provenance " + json.dumps(report["provenance"]))
    print("detail " + json.dumps(report["detail"]))
    if report.get("absent"):
        print("absent " + json.dumps(report["absent"]))
    for name, metric in report["result"]["metrics"].items():
        print(f"{name:34} {metric['value']:>14.6g} {metric['unit']}")
    print(json.dumps(report["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
