"""Per-layer tracing of ``dualbraid`` from outside the package.

``Tracer.install`` replaces every public function of the traced layer
modules with a timing wrapper.  The wrapper is set as a module attribute,
and also on any other ``dualbraid`` module that imported the function by
name, so calls made inside a module are caught too.  Constructions of
the carrier classes are only counted.  ``Tracer.restore`` puts every
original back.

Each wrapper keeps a stack of child time, so a layer's self time is its
span's duration minus the time of the wrapped calls it made.  Spans stay
in memory, aggregated per op and function, and are written at the end.
"""

from __future__ import annotations

import functools
import inspect
import time

LAYERS = ("ncp", "garside", "rotating", "ordering", "oracle")
COUNTED = {"ncp.partitions_built": ("ncp", "NonCrossingPartition"), "words.bandwords_built": ("words", "BandWord")}
DIVISION = ("left_divides", "left_quotient", "right_divides", "right_quotient")
MARK = "__layertrace_original__"

# Per-layer metrics: name -> (unit, better).
PER_LAYER = {
    "ncp.calls": ("count", "lower"),
    "ncp.self_s": ("s", "lower"),
    "ncp.partitions_built": ("count", "lower"),
    "ncp.meet.calls": ("count", "lower"),
    "ncp.simple_product.calls": ("count", "lower"),
    "ncp.right_complement.calls": ("count", "lower"),
    "ncp.left_quotient.calls": ("count", "lower"),
    "words.bandwords_built": ("count", "lower"),
    "garside.gnf.calls": ("count", "lower"),
    "garside.gnf.self_s": ("s", "lower"),
    "garside.gnf.letters_in": ("count", "lower"),
    "garside.tail.calls": ("count", "lower"),
    "garside.tail.self_s": ("s", "lower"),
    "garside.right_divides.calls": ("count", "lower"),
    "garside.tail.hit_ratio": ("frac", "higher"),
    "garside.divide.self_s": ("s", "lower"),
    "rotating.splitting.calls": ("count", "lower"),
    "rotating.splitting.self_s": ("s", "lower"),
    "rotating.splitting.rounds": ("count", "lower"),
    "rotating.splitting.repeat_frac": ("frac", "lower"),
    "rotating.rnf.calls": ("count", "lower"),
    "rotating.rnf.self_s": ("s", "lower"),
    "ordering.rotating_key.calls": ("count", "lower"),
    "ordering.rotating_key.self_s": ("s", "lower"),
    "ordering.cmp_rotating.calls": ("count", "lower"),
    "ordering.cmp_rotating.self_s": ("s", "lower"),
    "oracle.cmp_dehornoy.calls": ("count", "lower"),
    "oracle.handle_reduce.calls": ("count", "lower"),
    "oracle.handle_reduce.self_s": ("s", "lower"),
    "oracle.free_reduce.calls": ("count", "lower"),
    "oracle.free_reduce.self_s": ("s", "lower"),
    "oracle.handles_removed": ("count", "lower"),
    "oracle.peak_word_len": ("count", "lower"),
    "oracle.overflows": ("count", "lower"),
    "trace.overhead_frac": ("frac", "lower"),
    "trace.unattributed_frac": ("frac", "lower"),
}


class FnStats:
    __slots__ = ("calls", "self", "hits", "letters", "rounds", "repeats", "peak", "overflows", "seen", "unobservable")

    def __init__(self) -> None:
        self.calls = 0
        self.self = 0.0
        self.hits = self.letters = self.rounds = self.repeats = self.peak = self.overflows = 0
        self.seen: set = set()
        self.unobservable = False  # set when arguments or result no longer fit the observer


def _observe_gnf(st: FnStats, args, result) -> None:
    st.letters += len(args[0])


def _observe_right_divides(st: FnStats, args, result) -> None:
    st.hits += bool(result)


def _observe_splitting(st: FnStats, args, result) -> None:
    w = args[0]
    key = (w.n, w.letters)
    st.repeats += key in st.seen
    st.seen.add(key)
    st.rounds += result.breadth


def _observe_free_reduce(st: FnStats, args, result) -> None:
    st.peak = max(st.peak, len(args[0]))


# Metrics read off one function's statistics: name -> (function, field).
FN_METRICS = {
    "ncp.meet.calls": ("ncp.meet", "calls"),
    "ncp.simple_product.calls": ("ncp.simple_product", "calls"),
    "ncp.right_complement.calls": ("ncp.right_complement", "calls"),
    "ncp.left_quotient.calls": ("ncp.left_quotient", "calls"),
    "garside.gnf.calls": ("garside.gnf", "calls"),
    "garside.gnf.self_s": ("garside.gnf", "self"),
    "garside.gnf.letters_in": ("garside.gnf", "letters"),
    "garside.tail.calls": ("garside.tail", "calls"),
    "garside.tail.self_s": ("garside.tail", "self"),
    "garside.right_divides.calls": ("garside.right_divides", "calls"),
    "rotating.splitting.calls": ("rotating.splitting", "calls"),
    "rotating.splitting.self_s": ("rotating.splitting", "self"),
    "rotating.splitting.rounds": ("rotating.splitting", "rounds"),
    "rotating.rnf.calls": ("rotating.rnf", "calls"),
    "rotating.rnf.self_s": ("rotating.rnf", "self"),
    "ordering.rotating_key.calls": ("ordering.rotating_key", "calls"),
    "ordering.rotating_key.self_s": ("ordering.rotating_key", "self"),
    "ordering.cmp_rotating.calls": ("ordering.cmp_rotating", "calls"),
    "ordering.cmp_rotating.self_s": ("ordering.cmp_rotating", "self"),
    "oracle.cmp_dehornoy.calls": ("oracle.cmp_dehornoy", "calls"),
    "oracle.handle_reduce.calls": ("oracle.handle_reduce", "calls"),
    "oracle.handle_reduce.self_s": ("oracle.handle_reduce", "self"),
    "oracle.free_reduce.calls": ("oracle.free_reduce", "calls"),
    "oracle.free_reduce.self_s": ("oracle.free_reduce", "self"),
    "oracle.peak_word_len": ("oracle.free_reduce", "peak"),
    "oracle.overflows": ("oracle.handle_reduce", "overflows"),
}

OBSERVERS = {
    "garside.gnf": _observe_gnf,
    "garside.right_divides": _observe_right_divides,
    "rotating.splitting": _observe_splitting,
    "oracle.free_reduce": _observe_free_reduce,
}


def public_functions(module) -> dict:
    """Functions defined in ``module``, memoized ones included, whose names do not start with '_'."""
    return {
        name: fn
        for name, fn in vars(module).items()
        if not name.startswith("_")
        and callable(fn)
        and not inspect.isclass(fn)
        and getattr(fn, "__module__", None) == module.__name__
    }


class Tracer:
    """Timing wrappers on the layer modules of one import of ``dualbraid``."""

    def __init__(self, mods) -> None:
        self.mods = mods
        self.stats: dict[str, FnStats] = {}
        self.counts: dict[str, int] = {}
        self.stack: list[float] = [0.0]
        self._saved: list[tuple[object, str, object]] = []
        self._last: dict[str, tuple[int, float]] = {}
        self.spans: list[dict] = []

    # -- installing -------------------------------------------------------

    def _wrap(self, name: str, fn):
        st = self.stats.setdefault(name, FnStats())
        stack = self.stack
        perf = time.perf_counter
        observe = OBSERVERS.get(name)

        def timed(*args, **kwargs):
            stack.append(0.0)
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                if type(exc).__name__ == "ReductionOverflow":
                    st.overflows += 1
                raise
            finally:
                dt = perf() - t0
                child = stack.pop()
                stack[-1] += dt
                st.calls += 1
                st.self += dt - child
            if observe is not None:
                try:
                    observe(st, args, result)
                except (AttributeError, TypeError, IndexError):
                    st.unobservable = True
            return result

        functools.update_wrapper(timed, fn)
        setattr(timed, MARK, fn)
        return timed

    def _counter(self, name: str, original):
        counts = self.counts
        counts[name] = 0

        def counted(obj):
            counts[name] += 1
            original(obj)

        setattr(counted, MARK, original)
        return counted

    def install(self) -> None:
        wrappers: dict[int, object] = {}
        for layer in LAYERS:
            module = getattr(self.mods, layer)
            for fname, fn in public_functions(module).items():
                wrappers[id(fn)] = self._wrap(f"{layer}.{fname}", fn)
        # Replace every binding of a wrapped function, wherever it was imported.
        for module in self.mods.all_modules():
            for attr, value in list(vars(module).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None:
                    self._saved.append((module, attr, value))
                    setattr(module, attr, wrapper)
        for metric, (layer, cls_name) in COUNTED.items():
            cls = getattr(getattr(self.mods, layer), cls_name, None)
            post_init = vars(cls).get("__post_init__") if cls is not None else None
            if post_init is not None:
                self._saved.append((cls, "__post_init__", post_init))
                setattr(cls, "__post_init__", self._counter(metric, post_init))

    def restore(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    def installed(self) -> list[str]:
        """Names of wrappers still reachable from the package; empty after restore."""
        found = []
        for module in self.mods.all_modules():
            for attr, value in vars(module).items():
                if hasattr(value, MARK):
                    found.append(f"{module.__name__}.{attr}")
                elif inspect.isclass(value) and hasattr(vars(value).get("__post_init__"), MARK):
                    found.append(f"{module.__name__}.{attr}.__post_init__")
        return found

    # -- spans ------------------------------------------------------------

    def begin_op(self) -> None:
        self.stack[0] = 0.0

    def end_op(self, index: int, start: float, end: float) -> None:
        """Record op ``index`` as a root span with its children aggregated by function."""
        children = {}
        for name, st in self.stats.items():
            calls, self_s = self._last.get(name, (0, 0.0))
            if st.calls != calls:
                children[name] = [st.calls - calls, st.self - self_s]
                self._last[name] = (st.calls, st.self)
        self.spans.append(
            {"op": index, "start": start, "end": end, "self_s": (end - start) - self.stack[0], "children": children}
        )

    # -- metrics ----------------------------------------------------------

    def metrics(self, traced_wall: float, untraced_wall: float) -> tuple[dict, list[str]]:
        """Per-layer metric values and the names of metrics whose functions are gone.

        An absent metric is reported with the value 0 and listed by name.
        """
        stats = self.stats
        absent: list[str] = []
        values: dict[str, float] = {}

        def put(metric: str, names, value, observed: bool = False) -> None:
            if names and all(n in stats and not (observed and stats[n].unobservable) for n in names):
                values[metric] = value(*(stats[n] for n in names))
            else:
                absent.append(metric)
                values[metric] = 0

        def ratio(part: int, whole: int) -> float:
            return part / whole if whole else 0.0

        ncp_fns = [n for n in stats if n.startswith("ncp.")]
        put("ncp.calls", ncp_fns, lambda *s: sum(x.calls for x in s))
        put("ncp.self_s", ncp_fns, lambda *s: sum(x.self for x in s))
        for metric, (fn, attr) in FN_METRICS.items():
            put(metric, [fn], lambda s, a=attr: getattr(s, a), observed=attr not in ("calls", "self"))
        for metric in COUNTED:
            if metric in self.counts:
                values[metric] = self.counts[metric]
            else:
                absent.append(metric)
                values[metric] = 0
        put("garside.tail.hit_ratio", ["garside.right_divides"], lambda s: ratio(s.hits, s.calls), observed=True)
        division = [f"garside.{d}" for d in DIVISION if f"garside.{d}" in stats]
        put("garside.divide.self_s", division, lambda *s: sum(x.self for x in s))
        put(
            "rotating.splitting.repeat_frac",
            ["rotating.splitting"],
            lambda s: ratio(s.repeats, s.calls),
            observed=True,
        )
        put("oracle.handles_removed", ["oracle.free_reduce", "oracle.handle_reduce"], lambda f, h: f.calls - h.calls)
        values["trace.overhead_frac"] = traced_wall / untraced_wall - 1.0
        attributed = sum(st.self for st in stats.values()) + sum(span["self_s"] for span in self.spans)
        values["trace.unattributed_frac"] = (traced_wall - attributed) / traced_wall
        return {name: values[name] for name in PER_LAYER}, absent
