"""Spans and counters recorded around calls into the program's layers.

The traced run wraps public functions of ``repro.relational``,
``repro.core``, ``repro.p2p`` and ``repro.service`` from outside: the
program itself is not edited.  A function imported *by name* into other
modules (``row_key`` is, into seven) is rebound in every module that
holds it, so no caller bypasses the wrapper.

Each wrapped call records a count, its inclusive time and its self time
(its duration minus the time its wrapped children cover, kept with a
per-thread stack).  Coarse boundaries also record a span — name, start,
end, parent span and the op index the benchmark is running as request
id — kept in memory and written out when the run ends.  Hot per-row
functions record counts and times only.

Wrappers record only while :attr:`Tracer.active` is set, so set-up and
the benchmark's own checks stay out of the per-layer numbers.
"""

from __future__ import annotations

import gc
import importlib
import json
import sys
import threading
import time
from collections import Counter, defaultdict
from pathlib import Path
from typing import Any, Callable

perf_counter = time.perf_counter


class _Frame:
    __slots__ = ("start", "child", "span_id")

    def __init__(self, start: float, span_id: int) -> None:
        self.start = start
        self.child = 0.0
        self.span_id = span_id


class _ThreadRecord:
    """One thread's share of the trace; merged when the run ends, so
    the hot path takes no lock."""

    def __init__(self) -> None:
        self.calls: Counter[str] = Counter()
        self.seconds: defaultdict[str, float] = defaultdict(float)
        self.self_seconds: defaultdict[str, float] = defaultdict(float)
        self.stack: list[_Frame] = []
        self.spans: list[tuple] = []


class Tracer:
    def __init__(self) -> None:
        self.active = False
        #: The op index the benchmark is running; spans carry it.
        self.request_id = -1
        self._local = threading.local()
        self._records: list[_ThreadRecord] = []
        self._records_lock = threading.Lock()
        self._span_ids = iter(range(1, sys.maxsize))
        self._undo: list[tuple[object, str, object]] = []
        self.gc_pause_s = 0.0
        self._gc_started = 0.0

    # -- recording ---------------------------------------------------------

    def _record(self) -> _ThreadRecord:
        record = getattr(self._local, "record", None)
        if record is None:
            record = _ThreadRecord()
            self._local.record = record
            with self._records_lock:
                self._records.append(record)
        return record

    def count(self, name: str, amount: int = 1) -> None:
        if self.active:
            self._record().calls[name] += amount

    def _timed(self, name: str, fn: Callable, span: bool) -> Callable:
        tracer = self

        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            record = tracer._record()
            stack = record.stack
            parent = stack[-1] if stack else None
            inherited = parent.span_id if parent is not None else 0
            frame = _Frame(
                perf_counter(), next(tracer._span_ids) if span else inherited
            )
            stack.append(frame)
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                duration = end - frame.start
                record.calls[name] += 1
                record.seconds[name] += duration
                record.self_seconds[name] += duration - frame.child
                if parent is not None:
                    parent.child += duration
                if span:
                    record.spans.append(
                        (frame.span_id, name, frame.start, end, inherited,
                         tracer.request_id)
                    )

        return traced

    def _counted(self, name: str, fn: Callable) -> Callable:
        tracer = self

        def counted(*args, **kwargs):
            if tracer.active:
                tracer._record().calls[name] += 1
            return fn(*args, **kwargs)

        return counted

    # -- installing ----------------------------------------------------------

    def wrap_method(
        self,
        owner: type,
        attr: str,
        name: str,
        *,
        span: bool = False,
        count_only: bool = False,
        make: Callable[[Callable], Callable] | None = None,
    ) -> None:
        """Replace ``owner.attr`` by a recording wrapper.  *make*, when
        given, builds a wrapper of its own around the original (for
        wrappers that also count what the call returned)."""
        original = owner.__dict__[attr]
        if make is not None:
            wrapper = make(original)
        elif count_only:
            wrapper = self._counted(name, original)
        else:
            wrapper = self._timed(name, original, span)
        self._undo.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def wrap_function(
        self, module_name: str, attr: str, name: str, *, count_only: bool = False
    ) -> int:
        """Wrap a module-level function and rebind it in every loaded
        ``repro`` module that imported it by name; returns how many
        modules were rebound."""
        module = importlib.import_module(module_name)
        original = getattr(module, attr)
        wrapper = (
            self._counted(name, original)
            if count_only
            else self._timed(name, original, span=True)
        )
        rebound = 0
        for loaded in list(sys.modules.values()):
            loaded_name = getattr(loaded, "__name__", "")
            if not (loaded_name == "repro" or loaded_name.startswith("repro.")):
                continue
            if loaded.__dict__.get(attr) is original:
                self._undo.append((loaded, attr, original))
                setattr(loaded, attr, wrapper)
                rebound += 1
        return rebound

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()
        if self._gc_callback in gc.callbacks:
            gc.callbacks.remove(self._gc_callback)

    def watch_gc(self) -> None:
        gc.callbacks.append(self._gc_callback)

    def _gc_callback(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._gc_started = perf_counter()
        elif self.active and self._gc_started:
            self.gc_pause_s += perf_counter() - self._gc_started

    # -- reading ---------------------------------------------------------------

    def totals(self) -> dict[str, dict[str, float]]:
        """``{name: {"calls", "ms", "self_ms"}}`` over every thread."""
        merged: dict[str, dict[str, float]] = {}
        with self._records_lock:
            records = list(self._records)
        for record in records:
            for name, calls in record.calls.items():
                entry = merged.setdefault(
                    name, {"calls": 0, "ms": 0.0, "self_ms": 0.0}
                )
                entry["calls"] += calls
                entry["ms"] += record.seconds.get(name, 0.0) * 1000.0
                entry["self_ms"] += record.self_seconds.get(name, 0.0) * 1000.0
        return merged

    def write_spans(self, path: Path) -> int:
        """Write every span as one JSON object per line; returns the count."""
        with self._records_lock:
            spans = [span for record in self._records for span in record.spans]
        spans.sort(key=lambda span: span[2])
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as out:
            for span_id, name, start, end, parent, request_id in spans:
                out.write(json.dumps({
                    "id": span_id, "name": name, "start": start, "end": end,
                    "parent": parent, "request_id": request_id,
                }) + "\n")
        return len(spans)


def _insert_new_counter(tracer: Tracer) -> Callable[[Callable], Callable]:
    """``insert_new`` also counts the rows offered and the rows that were
    new, the layer's useful share of its work."""

    def make(original: Callable) -> Callable:
        inner = tracer._timed("relational.insert_new", original, True)

        def insert_new(self, relation, rows):
            if not tracer.active:
                return original(self, relation, rows)
            rows = list(rows)
            new = inner(self, relation, rows)
            tracer.count("relational.insert_new.offered", len(rows))
            tracer.count("relational.insert_new.new", len(new))
            return new

        return insert_new

    return make


def _cache_get_counter(tracer: Tracer) -> Callable[[Callable], Callable]:
    """``AnswerCache.get`` also counts hits."""

    def make(original: Callable) -> Callable:
        inner = tracer._timed("core.answercache.get", original, False)

        def get(self, fingerprint):
            if not tracer.active:
                return original(self, fingerprint)
            rows = inner(self, fingerprint)
            if rows is not None:
                tracer.count("core.answercache.hit")
            return rows

        return get

    return make


def install_layers(tracer: Tracer) -> None:
    """Wrap the layer boundaries the per-layer metrics are read from.

    Must run before any network is built: nodes bind their message
    handlers when they are constructed."""
    from repro.core.answercache import AnswerCache
    from repro.core.links import IncomingLink, OutgoingLink, SessionLinkState
    from repro.core.query import QueryEngine
    from repro.core.statistics import NodeStatistics
    from repro.core.update import UpdateEngine
    from repro.p2p.endpoint import Endpoint
    from repro.p2p.inproc import InProcessNetwork
    from repro.p2p.messages import Message
    from repro.p2p.tcp import TcpNetwork
    from repro.relational.schema import RelationSchema
    from repro.relational.wrapper import MemoryStore, Wrapper
    import repro.service.gateway  # noqa: F401  (binds render_metrics by name)

    for attr in ("evaluate_query", "evaluate_query_delta", "evaluate_mapping_bindings"):
        tracer.wrap_method(Wrapper, attr, "relational.evaluate", span=True)
    tracer.wrap_method(
        MemoryStore, "insert_new", "relational.insert_new",
        make=_insert_new_counter(tracer),
    )
    tracer.wrap_function(
        "repro.relational.values", "row_key", "relational.row_key", count_only=True
    )
    tracer.wrap_method(
        RelationSchema, "validate_row", "relational.validate_row", count_only=True
    )

    tracer.wrap_method(UpdateEngine, "ingest_results", "core.update.ingest", span=True)
    for owner, attrs in (
        (OutgoingLink, ("has_fired", "mark_fired")),
        (IncomingLink, ("has_pushed", "mark_pushed")),
        (SessionLinkState, ("has_seen", "mark_seen")),
    ):
        for attr in attrs:
            tracer.wrap_method(owner, attr, "core.links.memory")
    for attr in ("on_query_request", "on_query_data", "root_complete"):
        tracer.wrap_method(QueryEngine, attr, "core.query", span=True)
    tracer.wrap_method(
        AnswerCache, "get", "core.answercache.get", make=_cache_get_counter(tracer)
    )
    tracer.wrap_method(
        NodeStatistics, "lifetime_totals", "core.statistics.lifetime_totals",
        span=True,
    )

    for attr in ("to_wire", "size_bytes", "payload_bytes"):
        tracer.wrap_method(Message, attr, "p2p.messages.serialise")
    tracer.wrap_method(InProcessNetwork, "send", "p2p.transport.send", span=True)
    tracer.wrap_method(TcpNetwork, "send", "p2p.transport.send", span=True)
    tracer.wrap_method(Endpoint, "_dispatch", "p2p.transport.deliver", span=True)

    tracer.wrap_function(
        "repro.service.metrics", "render_metrics", "service.metrics.render"
    )
    tracer.watch_gc()


def layer_counts(network: Any) -> dict[str, int]:
    """State the program retains, read off a live network at the end of
    a run: query participations and statistics reports."""
    nodes = network.nodes.values()
    return {
        "participations": sum(len(node.queries.participations) for node in nodes),
        "reports": sum(len(node.stats.reports) for node in nodes),
    }
