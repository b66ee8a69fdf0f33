"""Spans and counts recorded around calls into each layer's public
functions, from the benchmark's own files.

:func:`install` replaces each hooked function with a wrapper that, while
the :class:`Tracer` is enabled, records one span (name, start, end,
parent span, op id, thread) and the layer's counts. Functions bound by
name inside another module (``repro.model.engine`` imports
``analyze_dataflow`` and friends directly, the serve modules import the
codec functions) are hooked where they are called. Spans stay in
memory; :meth:`Tracer.chrome_events` turns them into Chrome
trace-event JSON when the run ends.

A hook whose target no longer exists is skipped and listed in
``Tracer.missing``, so a refactor that moves a function shows up as a
missing layer instead of a crash.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import os
import threading
import time
from collections import Counter, defaultdict
from pathlib import Path

#: Cache stages reported as ``cache.<stage>.hits`` / ``.misses``.
CACHE_STAGES = (
    "dense",
    "sparse",
    "validity",
    "latency",
    "energy",
    "candidates",
    "tile-format",
)


class Tracer:
    """In-memory span and count recorder shared by every hook in one
    process."""

    def __init__(self, process: str = "bench"):
        self.process = process
        self.enabled = False
        #: (span id, layer, label, thread id, start, end, parent, op)
        self.spans: list[tuple] = []
        self.counts: Counter = Counter()
        self.missing: list[str] = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    # -- op ids --------------------------------------------------------

    def set_op(self, op) -> None:
        """Tag the calling thread's next spans with op id ``op``."""
        self._local.op = op

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    # -- spans ---------------------------------------------------------

    def inside(self, layer: str) -> bool:
        """Whether the calling thread's innermost open span is in
        ``layer`` (a nested call is then that layer's own work)."""
        stack = self._stack()
        return bool(stack) and stack[-1][1] == layer

    def call(self, layer: str, label: str, fn, args, kwargs):
        """Run ``fn`` inside a span."""
        stack = self._stack()
        span_id = next(self._ids)
        parent = stack[-1][0] if stack else None
        stack.append((span_id, layer))
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append((
                span_id, layer, label, threading.get_ident(), start, end,
                parent, getattr(self._local, "op", None),
            ))

    def save(self, path: Path, since: float, counts: Counter | None = None) -> None:
        """Write the spans and ``counts`` (default: this tracer's) to
        ``path`` atomically; child processes hand their trace over
        this way."""
        payload = {
            "process": self.process,
            "since": since,
            "spans": self.spans,
            "counts": dict(self.counts if counts is None else counts),
            "missing": self.missing,
        }
        tmp = Path(f"{path}.tmp")
        tmp.write_text(json.dumps(payload))
        os.replace(tmp, path)

    @classmethod
    def load(cls, path: Path) -> tuple["Tracer", float]:
        """A trace written by :meth:`save`, as ``(tracer, since)``."""
        data = json.loads(Path(path).read_text())
        tracer = cls(data["process"])
        tracer.spans = [tuple(span) for span in data["spans"]]
        tracer.counts.update(data["counts"])
        tracer.missing = data["missing"]
        return tracer, data["since"]

    # -- hooks ---------------------------------------------------------

    def hook(self, target: str, layer: str, count=None, generator=False):
        """Wrap ``module:attr`` or ``module:Class.attr``.

        ``count(args, kwargs, result)`` adds the layer's counts after a
        traced call. ``generator=True`` times each ``next()`` of the
        returned iterator as its own span instead of the call.
        """
        module_name, _, path = target.partition(":")
        try:
            owner = importlib.import_module(module_name)
            *parents, attr = path.split(".")
            for name in parents:
                owner = getattr(owner, name)
            original = getattr(owner, attr)
        except (ImportError, AttributeError):
            self.missing.append(target)
            return
        label = path
        tracer = self

        if generator:
            @functools.wraps(original)
            def wrapper(*args, **kwargs):
                iterator = original(*args, **kwargs)
                if not tracer.enabled:
                    return iterator
                return tracer._timed_iter(layer, label, iterator, count)
        else:
            @functools.wraps(original)
            def wrapper(*args, **kwargs):
                if not tracer.enabled or tracer.inside(layer):
                    return original(*args, **kwargs)
                result = tracer.call(layer, label, original, args, kwargs)
                if count is not None:
                    count(tracer.counts, args, kwargs, result)
                return result

        setattr(owner, attr, wrapper)

    def _timed_iter(self, layer, label, iterator, count):
        iterator = iter(iterator)
        while True:
            try:
                item = self.call(layer, label, next, (iterator,), {})
            except StopIteration:
                return
            if count is not None:
                count(self.counts, (), {}, item)
            yield item

    # -- reduction -----------------------------------------------------

    def self_times(self, since: float = float("-inf")):
        """Per-layer self seconds, per-thread self sums and the number
        of spans whose children outlast them (a nesting error), over
        spans that started at or after ``since``."""
        child_time: dict = defaultdict(float)
        for _sid, _layer, _label, _tid, start, end, parent, _op in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        by_layer: dict = defaultdict(float)
        by_thread: dict = defaultdict(float)
        negative = 0
        for sid, layer, _label, tid, start, end, _parent, _op in self.spans:
            if start < since:
                continue
            own = (end - start) - child_time.get(sid, 0.0)
            if own < -1e-6:
                negative += 1
            by_layer[layer] += own
            by_thread[tid] += own
        return by_layer, by_thread, negative

    def inclusive(self, since: float = float("-inf")) -> dict:
        """Per-layer total span duration (children included)."""
        totals: dict = defaultdict(float)
        for _sid, layer, _label, _tid, start, end, _p, _op in self.spans:
            if start >= since:
                totals[layer] += end - start
        return totals

    def chrome_events(self, pid: int, origin: float) -> list[dict]:
        """Spans as Chrome trace-event ``X`` records (microseconds since
        ``origin``, a ``perf_counter`` reading)."""
        events = [{
            "name": "process_name", "ph": "M", "pid": pid,
            "args": {"name": self.process},
        }]
        for sid, layer, label, tid, start, end, parent, op in self.spans:
            events.append({
                "name": label,
                "cat": layer,
                "ph": "X",
                "pid": pid,
                "tid": tid,
                "ts": round((start - origin) * 1e6, 3),
                "dur": round((end - start) * 1e6, 3),
                "args": {"id": sid, "parent": parent, "op": op},
            })
        return events


# ----------------------------------------------------------------------
# Count functions (args, kwargs, result) -> counts


def _count_scalar(prefix):
    def count(counts, args, kwargs, result):
        counts[f"{prefix}.calls"] += 1
        counts[f"{prefix}.items"] += 1
    return count


def _count_batch(prefix):
    def count(counts, args, kwargs, result):
        counts[f"{prefix}.calls"] += 1
        counts[f"{prefix}.items"] += len(result)
    return count


def _count_calls(name):
    def count(counts, args, kwargs, result):
        counts[name] += 1
    return count


def _count_load(counts, args, kwargs, result):
    counts["persistent.load.calls"] += 1
    store, key = args[0], args[1]
    if result is not None:
        counts["persistent.load.bytes"] += _size(store.path_for(key))


def _count_store(counts, args, kwargs, result):
    counts["persistent.store.calls"] += 1
    counts["persistent.store.bytes"] += _size(result)


def _count_install(counts, args, kwargs, result):
    counts["persistent.install.entries"] += result


def _count_encode_line(counts, args, kwargs, result):
    counts["protocol.frames"] += 1
    counts["protocol.bytes"] += len(result)


def _count_decode_line(counts, args, kwargs, result):
    counts["protocol.frames"] += 1
    counts["protocol.bytes"] += len(args[0])


def _count_candidate(counts, args, kwargs, item):
    counts["mapspace.candidates"] += 1


def _size(path) -> int:
    try:
        return os.path.getsize(path)
    except (OSError, TypeError):
        return 0


def install(tracer: Tracer) -> Tracer:
    """Hook every layer's public functions into ``tracer``."""
    hooks = [
        ("repro.model.engine:analyze_dataflow", "dataflow", _count_scalar("dataflow")),
        ("repro.dataflow.nest_analysis:analyze_dataflow", "dataflow", _count_scalar("dataflow")),
        ("repro.model.engine:analyze_dataflow_batch", "dataflow", _count_batch("dataflow")),
        ("repro.model.engine:analyze_sparse", "sparse", _count_scalar("sparse")),
        ("repro.model.engine:analyze_sparse_batch", "sparse", _count_batch("sparse")),
        ("repro.sparse.postprocess:analyze_tile_format", "format", _count_calls("format.calls")),
        ("repro.model.engine:check_validity", "micro", _count_calls("micro.calls")),
        ("repro.model.engine:compute_latency", "micro", _count_calls("micro.calls")),
        ("repro.model.engine:compute_energy", "micro", _count_calls("micro.calls")),
        ("repro.model.engine:Evaluator._run_pool", "pool", None),
        ("repro.common.cache:PersistentCache.load", "persistent.load", _count_load),
        ("repro.common.cache:PersistentCache.store", "persistent.store", _count_store),
        ("repro.model.engine:_install_cache_state", "persistent.install", _count_install),
        ("repro.api.jobs:EvaluateJob.to_dict", "jobs.encode", _count_calls("jobs.encode.calls")),
        ("repro.serve.server:job_from_dict", "jobs.decode", None),
        ("repro.serve.client:result_from_dict", "jobs.decode", None),
        ("repro.serve.server:encode_line", "protocol", _count_encode_line),
        ("repro.serve.server:decode_line", "protocol", _count_decode_line),
        ("repro.serve.client:encode_line", "protocol", _count_encode_line),
        ("repro.serve.client:decode_line", "protocol", _count_decode_line),
    ]
    for target, layer, count in hooks:
        tracer.hook(target, layer, count)
    tracer.hook(
        "repro.mapping.mapspace:Mapper.sample_mappings",
        "mapspace",
        _count_candidate,
        generator=True,
    )
    # Forked engine pool workers inherit the hooks; their spans could
    # never reach this process, so they run untraced.
    os.register_at_fork(after_in_child=lambda: setattr(tracer, "enabled", False))
    return tracer


# ----------------------------------------------------------------------
# Cache counters


def cache_counts(session=None, global_stats: bool = True) -> Counter:
    """Hit/miss counters of a Session's cache stages and of the
    process-global stages, as ``cache.<stage>.hits`` / ``.misses``."""
    from repro.common.cache import global_cache

    counts: Counter = Counter()
    sources = []
    if session is not None:
        sources.append(session.cache_stats())
    if global_stats:
        sources.append(global_cache().stats())
    for stats in sources:
        for stage, numbers in stats.items():
            if stage in CACHE_STAGES:
                counts[f"cache.{stage}.hits"] += numbers["hits"]
                counts[f"cache.{stage}.misses"] += numbers["misses"]
    return counts


# ----------------------------------------------------------------------
# Per-layer metrics


#: Names and units of every per-layer metric, in report order.
PER_LAYER_UNITS = {
    "dataflow.calls": "count",
    "dataflow.items": "count",
    "dataflow.self_s": "s",
    "sparse.calls": "count",
    "sparse.items": "count",
    "sparse.self_s": "s",
    "format.calls": "count",
    "format.self_s": "s",
    "micro.calls": "count",
    "micro.self_s": "s",
    **{
        f"cache.{stage}.{kind}": "count"
        for stage in CACHE_STAGES
        for kind in ("hits", "misses")
    },
    "cache.hit_ratio": "ratio",
    "persistent.load.calls": "count",
    "persistent.load.s": "s",
    "persistent.load.bytes": "bytes",
    "persistent.store.calls": "count",
    "persistent.store.s": "s",
    "persistent.store.bytes": "bytes",
    "persistent.install.entries": "count",
    "persistent.install.s": "s",
    "mapspace.candidates": "count",
    "mapspace.self_s": "s",
    "pool.wait_s": "s",
    "search.frontier_points": "count",
    "jobs.encode.calls": "count",
    "jobs.encode.s": "s",
    "jobs.decode.s": "s",
    "protocol.frames": "count",
    "protocol.bytes": "bytes",
    "protocol.self_s": "s",
    "serve.batches": "count",
    "serve.batch_mean": "count",
    "serve.engine_s": "s",
    "serve.wait_s": "s",
    "engine.other_s": "s",
    "trace.overhead_frac": "ratio",
    "calib_s": "s",
}


#: Share of the traced wall by which one thread's layer self time may
#: exceed it before the self-time check fails (clock reads at span
#: edges, not double counting).
SELF_TIME_SLACK = 0.01


def layer_metrics(tracers, counts: Counter, wall: float) -> tuple[dict, list]:
    """Reduce the traced timed phase to per-layer metrics.

    ``tracers`` are every process's tracers whose spans belong to the
    timed phase (started at or after ``since`` on that process's clock
    — each entry is ``(tracer, since)``), ``counts`` the merged counts.
    Returns ``(metrics, problems)``: ``problems`` lists failed
    self-time checks.

    ``engine.other_s`` is thread-seconds: the traced wall times the
    number of threads that recorded spans, minus all layer self time.
    The check asserts that no span's children outlast it and that no
    thread's layer self time exceeds the traced wall by more than
    ``SELF_TIME_SLACK`` — either would mean a span was double counted.
    """
    by_layer: dict = defaultdict(float)
    threads: dict = {}
    inclusive: dict = defaultdict(float)
    problems = []
    for index, (tracer, start) in enumerate(tracers):
        layer_self, thread_self, negative = tracer.self_times(start)
        for layer, seconds in layer_self.items():
            by_layer[layer] += seconds
        for tid, seconds in thread_self.items():
            threads[(index, tid)] = seconds
        if negative:
            problems.append(
                f"{tracer.process}: {negative} spans outlasted by their children"
            )
        for layer, seconds in tracer.inclusive(start).items():
            inclusive[layer] += seconds
    limit = wall * (1.0 + SELF_TIME_SLACK)
    for (index, tid), seconds in threads.items():
        if seconds > limit:
            problems.append(
                f"thread {tid} of process {index}: layer self time "
                f"{seconds:.4f}s exceeds the traced wall {wall:.4f}s"
            )
    other = wall * max(1, len(threads)) - sum(by_layer.values())

    hits = sum(counts[f"cache.{stage}.hits"] for stage in CACHE_STAGES)
    misses = sum(counts[f"cache.{stage}.misses"] for stage in CACHE_STAGES)
    metrics = {name: float(counts.get(name, 0)) for name in PER_LAYER_UNITS}
    metrics.update({
        "dataflow.self_s": by_layer["dataflow"],
        "sparse.self_s": by_layer["sparse"],
        "format.self_s": by_layer["format"],
        "micro.self_s": by_layer["micro"],
        "mapspace.self_s": by_layer["mapspace"],
        "protocol.self_s": by_layer["protocol"],
        "cache.hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "persistent.load.s": inclusive["persistent.load"],
        "persistent.store.s": counts.get("persistent.store.s", 0.0)
        + inclusive["persistent.store"],
        "persistent.install.s": inclusive["persistent.install"],
        "pool.wait_s": inclusive["pool"],
        "jobs.encode.s": inclusive["jobs.encode"],
        "jobs.decode.s": inclusive["jobs.decode"],
        "engine.other_s": other,
    })
    return metrics, problems

