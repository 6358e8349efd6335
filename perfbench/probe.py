"""Benchmark-side probes around the public functions of each layer.

Nothing in ``src/`` is edited: :func:`install` rebinds the layer entry
points (module functions wherever a ``repro`` module imported them,
and methods on their classes) to thin wrappers that record into one
:class:`Probe` per process.

Two levels:

* **Marks** (always on, per file or per micro-batch, so their cost is
  noise): when the first log line is read, when each day's file is
  opened, when each durable micro-batch and each day finishes.  The
  end-to-end metrics are computed from these.
* **Trace** (``trace=True``): a span around every call into a layer's
  public function.  Spans nest through a stack, so each layer's *self
  time* is its span time minus the time of the spans it encloses.
  Generator layers (the log parsers, the reduction funnel, the
  normalizers) are timed per pulled chunk of :data:`CHUNK` items, so a
  400k-line day costs a few thousand spans, not a million.  Spans stay
  in memory until the pass ends.

Resident fleet workers are forked from the probed process, so they
inherit the wrappers; :func:`install` also wraps the worker entry
point so each worker writes its own probe state to ``dump_dir`` when
it exits, for the pass to fold in.
"""

from __future__ import annotations

import functools
import json
import os
import sys
from collections import Counter, defaultdict
from itertools import islice
from pathlib import Path
from time import perf_counter

#: Items pulled per timed step of a generator layer.
CHUNK = 128


class Probe:
    """Marks, spans and counters of one process."""

    def __init__(self, trace: bool) -> None:
        self.trace = trace
        self.reset()

    def reset(self) -> None:
        self.first_read: float | None = None
        self.day_start: float | None = None
        self.day_ms: list[float] = []
        self.batch_ms: list[float] = []
        self.batch_pending = False
        self.last_boundary: float | None = None
        self.stack: list[list] = []
        self.spans: list[tuple[str, float, float, int]] = []
        self.self_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, float] = defaultdict(float)
        self.engines: dict[int, object] = {}

    # -- marks ---------------------------------------------------------

    def file_opened(self) -> None:
        now = perf_counter()
        if self.first_read is None:
            self.first_read = now
            self.last_boundary = now
        self.day_start = now

    def boundary(self) -> None:
        """A durable write finished: close the open micro-batch."""
        now = perf_counter()
        if self.batch_pending and self.last_boundary is not None:
            self.batch_ms.append((now - self.last_boundary) * 1000.0)
        self.batch_pending = False
        self.last_boundary = now

    def day_closed(self) -> None:
        if self.day_start is not None:
            self.day_ms.append((perf_counter() - self.day_start) * 1000.0)
            self.day_start = None

    # -- spans ---------------------------------------------------------

    def enter(self, layer: str) -> None:
        self.stack.append([layer, perf_counter(), 0.0])

    def leave(self) -> None:
        end = perf_counter()
        layer, start, child = self.stack.pop()
        duration = end - start
        self.self_s[layer] += duration - child
        if self.stack:
            self.stack[-1][2] += duration
        self.spans.append((layer, start, end, len(self.stack)))

    def dump(self) -> dict:
        skip = Counter()
        for engine in self.engines.values():
            for key, value in engine.verdict_stats.as_dict().items():
                skip[key] += value
        return {
            "pid": os.getpid(),
            "first_read": self.first_read,
            "self_s": dict(self.self_s),
            "counts": dict(self.counts),
            "verdict_stats": dict(skip),
            "spans": self.spans,
        }


def _rebind(original, replacement) -> None:
    """Point every ``repro`` module name bound to ``original`` at
    ``replacement`` (modules that did ``from x import f``)."""
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "repro" or name.startswith("repro.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)


def _timed(probe: Probe, layer: str, func, after=None, before=None):
    """A wrapper that records ``func``'s calls as ``layer`` spans."""

    @functools.wraps(func)
    def wrapper(*args, **kwargs):
        pre = before(args) if before is not None else None
        probe.enter(layer)
        try:
            result = func(*args, **kwargs)
        finally:
            probe.leave()
        if after is not None:
            after(probe, args, result, pre)
        return result

    return wrapper


def _timed_items(probe: Probe, layer: str, items, count_key: str):
    """Re-yield a generator layer's items, timing each chunk pulled."""
    iterator = iter(items)
    while True:
        probe.enter(layer)
        try:
            chunk = list(islice(iterator, CHUNK))
        finally:
            probe.leave()
        if not chunk:
            return
        probe.counts[count_key] += len(chunk)
        yield from chunk


def _wrap_method(owner, name: str, wrapper_factory) -> None:
    original = owner.__dict__[name]
    setattr(owner, name, wrapper_factory(original))


def _wrap_function(module, name: str, wrapper_factory) -> None:
    original = getattr(module, name)
    _rebind(original, wrapper_factory(original))


def install(probe: Probe, line_counts: dict[str, int], dump_dir: Path) -> None:
    """Wrap the layer entry points for ``probe`` (marks, plus spans when
    ``probe.trace``).  ``line_counts`` maps log file names to their line
    counts by absolute path (``logs.parse.lines_in``); ``dump_dir``
    receives resident workers' probe dumps."""
    from repro.core import beliefprop, scoring
    from repro.fleet import workers
    from repro.intelstore import store
    from repro.logs import dns, normalize, proxy, reduction
    from repro.profiling import rare
    from repro import state
    from repro.streaming import detector, engine, enterprise, incremental
    from repro.timing import detector as timing_detector

    trace = probe.trace

    # -- logs: parse (marks the first read and each day's file) -------
    def parser(func):
        @functools.wraps(func)
        def wrapper(lines, *args, **kwargs):
            probe.file_opened()
            items = func(lines, *args, **kwargs)
            if not trace:
                return items
            name = os.path.abspath(getattr(lines, "name", ""))
            probe.counts["logs.parse.lines_in"] += line_counts.get(name, 0)
            return _timed_items(probe, "logs.parse", items,
                                "logs.parse.records_out")
        return wrapper

    _wrap_function(dns, "parse_dns_log", parser)
    _wrap_function(proxy, "parse_proxy_log", parser)

    # -- day and micro-batch boundaries --------------------------------
    def rollover(func):
        @functools.wraps(func)
        def wrapper(self, *args, **kwargs):
            report = func(self, *args, **kwargs)
            probe.day_closed()
            probe.engines[id(self)] = self
            return report
        return wrapper

    _wrap_method(detector.StreamingDetector, "rollover", rollover)
    _wrap_method(enterprise.StreamingEnterpriseDetector, "rollover", rollover)

    def checkpoint_bytes(probe_, args, result, pre):
        probe_.counts["state.checkpoint.writes"] += 1
        probe_.counts["state.checkpoint.bytes"] += Path(args[1]).stat().st_size

    def durable(func):
        inner = (
            _timed(probe, "state.checkpoint", func, after=checkpoint_bytes)
            if trace else func
        )

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            result = inner(*args, **kwargs)
            probe.boundary()
            return result
        return wrapper

    _wrap_function(state, "save_streaming_enterprise", durable)

    def worker_entry(func):
        @functools.wraps(func)
        def wrapper(worker_id, *args, **kwargs):
            probe.reset()
            try:
                return func(worker_id, *args, **kwargs)
            finally:
                path = dump_dir / f"worker-{worker_id}-{os.getpid()}.json"
                path.write_text(json.dumps(probe.dump()))
        return wrapper

    _wrap_function(workers, "worker_main", worker_entry)

    # A fleet "batch": one worker's ADVANCE_DAY command, from send to
    # the manager holding the response.
    sent: dict[int, float] = {}

    def send(func):
        @functools.wraps(func)
        def wrapper(self, handle, message):
            if message.get("cmd") == workers.CMD_ADVANCE_DAY:
                sent[handle.worker_id] = perf_counter()
            return func(self, handle, message)
        return wrapper

    def recv(func):
        @functools.wraps(func)
        def wrapper(self, handle):
            message = func(self, handle)
            if message.get("event") == "advanced":
                started = sent.pop(handle.worker_id)
                probe.batch_ms.append((perf_counter() - started) * 1000.0)
            return message
        return wrapper

    _wrap_method(workers.ResidentPool, "send", send)
    _wrap_method(workers.ResidentPool, "recv", recv)

    if not trace:
        return

    # -- trace-only layers ---------------------------------------------
    def gen_layer(layer, count_key):
        def factory(func):
            @functools.wraps(func)
            def wrapper(*args, **kwargs):
                return _timed_items(probe, layer, func(*args, **kwargs),
                                    count_key)
            return wrapper
        return factory

    _wrap_method(reduction.ReductionFunnel, "reduce",
                 gen_layer("logs.reduction", "logs.reduction.records_out"))
    for name in ("normalize_dns_records", "normalize_proxy_records"):
        _wrap_function(normalize, name,
                       gen_layer("logs.normalize", "logs.normalize.events_out"))

    def layer(name, after=None, before=None):
        return lambda func: _timed(probe, name, func, after, before)

    def add(key, value_of):
        def after(probe_, args, result, pre):
            probe_.counts[key] += value_of(args, result, pre)
        return after

    base = engine.StreamingEngineBase
    for owner, method in (
        (base, "submit"),
        (detector.StreamingDetector, "submit_raw"),
        (enterprise.StreamingEnterpriseDetector, "submit_raw"),
    ):
        _wrap_method(owner, method, layer("streaming.ingest"))
    _wrap_method(base, "poll", layer(
        "streaming.ingest",
        add("streaming.ingest.events_in", lambda a, r, p: r),
    ))

    _wrap_method(rare.DailyTraffic, "ingest", layer("profiling.ingest"))
    _wrap_method(rare.DailyTraffic, "finalize", layer("profiling.ingest"))
    _wrap_function(rare, "extract_rare_domains", layer(
        "profiling.rare",
        add("profiling.rare.domains_out", lambda a, r, p: len(r)),
    ))

    _wrap_method(timing_detector.AutomationDetector, "automated_pairs", layer(
        "timing.automation",
        add("timing.automation.series_in", lambda a, r, p: p),
        before=lambda a: len(a[1]) if hasattr(a[1], "__len__") else 0,
    ))
    _wrap_method(base, "_refresh_verdicts", layer(
        "timing.automation",
        add("timing.automation.series_in", lambda a, r, p: p),
        before=lambda a: len(a[0]._stale_pairs),
    ))

    _wrap_function(scoring, "multi_host_beacon_heuristic", layer("core.cc"))
    _wrap_method(scoring.RegressionCCScorer, "score_all", layer("core.cc"))
    _wrap_function(beliefprop, "belief_propagation", layer(
        "core.bp", add("core.bp.runs", lambda a, r, p: 1),
    ))

    def warm_mode(probe_, args, result, pre):
        probe_.counts["core.bp.warm_start_calls"] += 1
        probe_.counts["core.bp.warm_runs"] += result[1] == "warm"

    _wrap_function(incremental, "warm_start_belief_propagation",
                   layer("core.bp", warm_mode))
    for owner in (detector.StreamingDetector,
                  enterprise.StreamingEnterpriseDetector):
        _wrap_method(owner, "score", layer("streaming.score"))

    def delta_sizes(args):
        store_ = args[0]
        return {
            path: (path.stat().st_size, path.stat().st_mtime_ns)
            if path.exists() else (0, 0)
            for path in (store_.full_path, store_.delta_path)
        }

    def delta_written(probe_, args, result, pre):
        written = 0
        for path, (size, mtime) in pre.items():
            if not path.exists():
                continue
            stat = path.stat()
            if path == args[0].delta_path:
                written += max(0, stat.st_size - size)
            elif stat.st_mtime_ns != mtime:
                written += stat.st_size
        if written:
            probe_.counts["state.checkpoint.writes"] += 1
            probe_.counts["state.checkpoint.bytes"] += written

    _wrap_method(workers.TenantCheckpointStore, "commit", layer(
        "state.checkpoint", delta_written, before=delta_sizes,
    ))

    _wrap_method(workers.ResidentPool, "recv", layer("fleet.manager.wait"))
    # A worker's whole day advance: its self time is the part of the
    # worker's work that no layer above covers.
    _wrap_function(workers, "_advance_one_day", layer("fleet.worker.advance"))
    _wrap_method(store.IntelStore, "flush", layer(
        "intelstore.flush",
        add("intelstore.flush.rows", lambda a, r, p: r),
    ))
