"""Outside-in tracing of plethy's layers.

Nothing under src/ is edited: `install` replaces module attributes at the
places where plethy's modules look them up (for example
`plethy.characters.mn_value`, the name characters.py imported), so every
call into a layer passes through a wrapper that times and counts it.

A span is one call through a timed wrapper.  A span's self time is its
duration minus the part of it covered by its child spans; a layer's self
time is the sum over its spans.  Children that ran on a sweep's worker
threads are merged as intervals, so overlapping tasks are not counted twice
against the sweep that waited for them.  Spans are kept in memory and only
the wrappers outside the hot recursion record their (name, start, end,
parent); the hottest wrappers aggregate, and `check_partition` only counts.
"""

from __future__ import annotations

import itertools
import os
import threading
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from time import perf_counter

SYMFUNC_FUNCTIONS = (
    "schur_to_power",
    "to_power",
    "power_to_schur",
    "multiply",
    "power_d",
    "hall_inner",
    "psi_d",
    "phi_d_power",
    "phi_d_littlewood",
)
SWEEPS = (
    "verify_theorem1",
    "verify_theorem1_scaled",
    "verify_littlewood",
    "verify_theorem2_div",
    "verify_theorem2_vanish",
    "verify_hall_oracle",
)


class _Frame:
    __slots__ = ("parent", "adopted", "span_id", "child_s", "cross")

    def __init__(self, parent, adopted, span_id):
        self.parent = parent
        self.adopted = adopted
        self.span_id = span_id
        self.child_s = 0.0
        self.cross = None


def _union_length(intervals: list[tuple[float, float]]) -> float:
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


class Tracer:
    """Per-name self time, inclusive time and calls; named counters; spans."""

    def __init__(self):
        self._local = threading.local()
        self._lock = threading.Lock()
        self._next_id = 0
        self._tallies: dict[str, list] = {}
        self.reset()

    def reset(self) -> None:
        self.self_s: Counter = Counter()
        self.total_s: Counter = Counter()
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        self.spans: list[tuple] = []

    def snapshot(self) -> dict:
        """Aggregates since the last snapshot, then start afresh."""
        with self._lock:
            for name, tally in self._tallies.items():
                reading = next(tally[0])
                self.counts[name] += reading - tally[1]
                tally[1] = reading + 1
            snap = {
                "self_s": dict(self.self_s),
                "total_s": dict(self.total_s),
                "calls": dict(self.calls),
                "counts": dict(self.counts),
                "spans": self.spans,
            }
            self.reset()
        return snap

    def current(self):
        return getattr(self._local, "top", None)

    def tally(self, name: str):
        """A counter for the hottest call sites: calling the returned
        function adds one, without a lock (next() on itertools.count is
        atomic)."""
        counter = itertools.count()
        self._tallies[name] = [counter, 0]
        return counter.__next__

    def count(self, name: str, amount: int = 1) -> None:
        with self._lock:
            self.counts[name] += amount

    def call(self, name: str, record: bool, fn, args=(), kwargs=None, adopt=None):
        """Run fn(*args, **kwargs) as a span named name.

        adopt is a frame of another thread that waits for this call; the
        span then becomes its child across threads.
        """
        local = self._local
        parent = adopt if adopt is not None else getattr(local, "top", None)
        span_id = parent.span_id if parent is not None else 0
        if record:
            with self._lock:
                self._next_id += 1
                span_id = self._next_id
        frame = _Frame(parent, adopt is not None, span_id)
        local.top = frame
        start = perf_counter()
        try:
            return fn(*args, **(kwargs or {}))
        finally:
            end = perf_counter()
            local.top = None if adopt is not None else parent
            self._close(name, record, frame, start, end)

    def _close(self, name, record, frame, start, end) -> None:
        duration = end - start
        covered = frame.child_s
        if frame.cross:
            covered = min(duration, covered + _union_length(frame.cross))
        parent = frame.parent
        with self._lock:
            self.self_s[name] += duration - covered
            self.total_s[name] += duration
            self.calls[name] += 1
            if record:
                parent_id = parent.span_id if parent is not None else 0
                self.spans.append((frame.span_id, name, start, end, parent_id, threading.get_ident()))
            if parent is not None and frame.adopted:
                if parent.cross is None:
                    parent.cross = []
                parent.cross.append((start, end))
        if parent is not None and not frame.adopted:
            parent.child_s += duration

    def wrap(self, name: str, fn, record: bool = True):
        def traced(*args, **kwargs):
            return self.call(name, record, fn, args, kwargs)

        return traced


def layer_metrics(snap: dict) -> dict[str, float]:
    """Per-layer metric values of one snapshot (cache counters included)."""
    self_s, total_s, calls, counts = snap["self_s"], snap["total_s"], snap["calls"], snap["counts"]

    def layer_self(layer: str) -> float:
        return sum(value for name, value in self_s.items() if name.startswith(layer + "."))

    gets = counts.get("mn.gets", 0)
    metrics = {
        "mn.self_s": layer_self("mn"),
        "mn.calls": calls.get("mn.mn_value", 0),
        "mn.states": counts.get("mn.states", 0),
        "mn.memo_hit_ratio": counts.get("mn.hits", 0) / gets if gets else 0.0,
        "abacus.self_s": layer_self("abacus"),
        "abacus.calls": calls.get("abacus.remove_ribbons", 0),
        "abacus.removals": counts.get("abacus.removals", 0),
        "partitions.check_calls": counts.get("partitions.check_calls", 0),
        "symfunc.self_s": layer_self("symfunc"),
        "characters.self_s": layer_self("characters"),
        "characters.direct_s": total_s.get("characters.direct", 0.0),
        "characters.plethystic_s": total_s.get("characters.plethystic", 0.0),
        "characters.decompose_s": total_s.get("characters.decompose", 0.0),
        "verify.self_s": layer_self("verify"),
        "verify.cases": counts.get("verify.cases", 0),
        "cache.load_s": total_s.get("cache.load", 0.0),
        "cache.entries_loaded": counts.get("cache.entries_loaded", 0),
        "cache.flush_s": total_s.get("cache.flush", 0.0),
        "cache.lines_appended": counts.get("cache.lines_appended", 0),
        "cache.dup_lines": counts.get("cache.dup_lines", 0),
    }
    for fn in ("schur_to_power", "multiply", "power_d", "hall_inner", "power_to_schur"):
        metrics[f"symfunc.{fn}_s"] = self_s.get(f"symfunc.{fn}", 0.0)
        metrics[f"symfunc.{fn}.calls"] = calls.get(f"symfunc.{fn}", 0)
    return metrics


def merge(snaps: list[dict]) -> dict:
    """Sum several snapshots, e.g. those of one iteration's CLI commands."""
    merged = {"self_s": Counter(), "total_s": Counter(), "calls": Counter(), "counts": Counter(), "spans": []}
    for snap in snaps:
        for key in ("self_s", "total_s", "calls", "counts"):
            merged[key].update(snap[key])
        merged["spans"].extend(snap["spans"])
    return merged


def _count_lines(path: str) -> int:
    with open(path, "rb") as handle:
        return sum(1 for line in handle if line.strip())


def counting_cache_class(tracer: Tracer):
    """A CharCache subclass that counts memo lookups and times load and flush."""
    from plethy.mn import CharCache

    count_get = tracer.tally("mn.gets")
    count_hit = tracer.tally("mn.hits")

    class CountingCharCache(CharCache):
        def __init__(self, path=None):
            tracer.call("cache.load", True, CharCache.__init__, (self, path))
            self._loaded = len(self)
            if self.path is not None and self._loaded:
                tracer.count("cache.entries_loaded", self._loaded)
                tracer.count("cache.dup_lines", _count_lines(self.path) - self._loaded)

        def get(self, nu, rho):
            value = CharCache.get(self, nu, rho)
            count_get()
            if value is not None:
                count_hit()
            return value

        def flush(self):
            tracer.count("mn.states", len(self) - self._loaded)
            before = _count_lines(self.path) if self._loaded else 0
            tracer.call("cache.flush", True, CharCache.flush, (self,))
            if self.path is not None and os.path.exists(self.path):
                tracer.count("cache.lines_appended", _count_lines(self.path) - before)

    return CountingCharCache


def install(tracer: Tracer) -> None:
    """Wrap every layer entry point at the module attribute callers look up."""
    import plethy.abacus
    import plethy.characters
    import plethy.cli
    import plethy.mn
    import plethy.partitions
    import plethy.symfunc
    import plethy.verify
    from plethy.characters import ROUTE_DIRECT

    check = plethy.partitions.check_partition
    count_check = tracer.tally("partitions.check_calls")

    def check_partition(parts):
        count_check()
        return check(parts)

    for module in (plethy.partitions, plethy.abacus, plethy.mn, plethy.symfunc, plethy.characters, plethy.verify):
        if getattr(module, "check_partition", None) is check:
            module.check_partition = check_partition

    ribbons = plethy.mn.remove_ribbons

    def remove_ribbons(lam, length):
        removals = tracer.call("abacus.remove_ribbons", False, ribbons, (lam, length))
        tracer.count("abacus.removals", len(removals))
        return removals

    plethy.mn.remove_ribbons = remove_ribbons

    mn_value = tracer.wrap("mn.mn_value", plethy.mn.mn_value, record=False)
    for module in (plethy.mn, plethy.characters, plethy.verify):
        module.mn_value = mn_value

    for name in SYMFUNC_FUNCTIONS:
        setattr(plethy.symfunc, name, tracer.wrap(f"symfunc.{name}", getattr(plethy.symfunc, name)))

    boxplus_classfunction = plethy.verify.boxplus_classfunction

    def boxplus(lam, d, route=ROUTE_DIRECT, cache=None):
        name = "characters.direct" if route == ROUTE_DIRECT else "characters.plethystic"
        return tracer.call(name, True, boxplus_classfunction, (lam, d, route, cache))

    plethy.verify.boxplus_classfunction = boxplus
    plethy.verify.decompose = tracer.wrap("characters.decompose", plethy.verify.decompose)
    plethy.verify.scaled_classfunction = tracer.wrap("characters.scaled", plethy.verify.scaled_classfunction)

    for name in SWEEPS:
        sweep = getattr(plethy.verify, name)

        def traced_sweep(*args, _sweep=sweep, _name=f"verify.{name}", **kwargs):
            report = tracer.call(_name, True, _sweep, args, kwargs)
            tracer.count("verify.cases", report.cases_checked)
            return report

        setattr(plethy.verify, name, traced_sweep)
    plethy.verify.run_verify_all = tracer.wrap("verify.run_verify_all", plethy.verify.run_verify_all)

    class TracedPool(ThreadPoolExecutor):
        """Sweep fan-out whose tasks are spans of the sweep that waits for them."""

        def map(self, fn, *iterables, **kwargs):
            waiting = tracer.current()
            return super().map(
                lambda *item: tracer.call("verify.task", True, fn, item, adopt=waiting), *iterables, **kwargs
            )

    plethy.verify.ThreadPoolExecutor = TracedPool
    plethy.cli.CharCache = counting_cache_class(tracer)
