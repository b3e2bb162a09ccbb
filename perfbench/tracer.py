"""In-memory span tracer that wraps the program's layer boundaries.

The benchmark records spans from its own code: :func:`instrument`
replaces each traced public function with a wrapper for the duration of
a traced phase and restores the original afterwards.  A span is
``(name, start, end, parent)``; spans are kept in memory and written out
as JSON lines when the run ends.

Nesting follows a per-thread stack.  A span opened on a thread whose
stack is empty (the control plane compiles in an executor thread)
takes the current *root* span as its parent, so work an op hands to
another thread is still charged to that op.  Spans opened while no root
is open (set-up, output checks) are not recorded.

Coroutines are timed step by step (:class:`_SteppedAwait`): only the
intervals in which the coroutine itself runs count, never the time it
spends suspended waiting for the peer.  That is the busy time of a
layer such as ``wire.read_frame``, which otherwise would swallow the
whole server round trip.
"""

from __future__ import annotations

import functools
import json
import threading
import time
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

__all__ = ["Tracer", "instrument", "LAYER_TARGETS"]

_clock = time.perf_counter


class Tracer:
    """Collects spans; derives per-layer busy time, self time and calls."""

    def __init__(self) -> None:
        # Each span is a list [name, start, end, parent_index].
        self.spans: List[list] = []
        self._root: Optional[int] = None
        self._local = threading.local()
        self._lock = threading.Lock()

    # -- recording -----------------------------------------------------
    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name: str) -> Optional[int]:
        if self._root is None:
            return None
        stack = self._stack()
        parent = stack[-1] if stack else self._root
        with self._lock:
            idx = len(self.spans)
            self.spans.append([name, _clock(), None, parent])
        stack.append(idx)
        return idx

    def end(self, idx: Optional[int]) -> None:
        if idx is None:
            return
        self.spans[idx][2] = _clock()
        self._stack().pop()

    def record(self, name: str, start: float, end: float) -> None:
        """A finished interval (one step of a coroutine)."""
        if self._root is None:
            return
        stack = self._stack()
        parent = stack[-1] if stack else self._root
        with self._lock:
            self.spans.append([name, start, end, parent])

    @contextmanager
    def root(self, name: str) -> Iterator[None]:
        """The span of one op; every span recorded inside is its
        descendant."""
        with self._lock:
            idx = len(self.spans)
            self.spans.append([name, _clock(), None, None])
        self._root = idx
        self._stack().append(idx)
        try:
            yield
        finally:
            self.spans[idx][2] = _clock()
            self._stack().pop()
            self._root = None

    # -- derived figures -----------------------------------------------
    def layer_table(self) -> Dict[str, Dict[str, float]]:
        """``{name: {"calls", "busy_s", "self_s"}}`` over closed spans.

        Self time is a span's duration minus the durations of its
        children (children are nested in their parent's interval).
        """
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if end is not None and parent is not None:
                child_time[parent] += end - start
        table: Dict[str, Dict[str, float]] = {}
        for i, (name, start, end, _parent) in enumerate(self.spans):
            if end is None:
                continue
            row = table.setdefault(name, {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["busy_s"] += end - start
            row["self_s"] += end - start - child_time[i]
        return table

    def misnested(self, slack: float = 1e-6) -> int:
        """How many closed spans break the nesting that self times rely
        on: a span that leaves its parent's interval, or a span whose
        children add up to more than its own duration (overlapping
        children, e.g. from another thread)."""
        spans = self.spans
        child_time = [0.0] * len(spans)
        bad = 0
        for name, start, end, parent in spans:
            if end is None or parent is None:
                continue
            child_time[parent] += end - start
            p_start, p_end = spans[parent][1], spans[parent][2]
            if start < p_start - slack or p_end is None or end > p_end + slack:
                bad += 1
        for i, (_name, start, end, _parent) in enumerate(spans):
            if end is not None and child_time[i] > end - start + slack:
                bad += 1
        return bad

    def calls_under(self, name: str, parent_name: str) -> int:
        """How many ``name`` spans have a ``parent_name`` parent."""
        spans = self.spans
        return sum(
            1
            for n, _s, e, p in spans
            if n == name and e is not None and p is not None
            and spans[p][0] == parent_name
        )

    def write_jsonl(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for i, (name, start, end, parent) in enumerate(self.spans):
                fh.write(json.dumps(
                    {"id": i, "name": name, "start": start, "end": end,
                     "parent": parent},
                    separators=(",", ":"),
                ))
                fh.write("\n")


# ----------------------------------------------------------------------
# Wrappers
# ----------------------------------------------------------------------
def _wrap_sync(tracer: Tracer, name: str, fn: Callable) -> Callable:
    @functools.wraps(fn)
    def traced(*args: Any, **kwargs: Any) -> Any:
        idx = tracer.begin(name)
        try:
            return fn(*args, **kwargs)
        finally:
            tracer.end(idx)

    return traced


class _SteppedAwait:
    """Drive a coroutine by hand, timing each step it runs for."""

    __slots__ = ("_coro", "_tracer", "_name")

    def __init__(self, coro: Any, tracer: Tracer, name: str) -> None:
        self._coro = coro
        self._tracer = tracer
        self._name = name

    def __await__(self) -> Any:
        coro, tracer, name = self._coro, self._tracer, self._name
        value: Any = None
        error: Optional[BaseException] = None
        while True:
            start = _clock()
            try:
                if error is None:
                    pending = coro.send(value)
                else:
                    pending = coro.throw(error)
            except StopIteration as stop:
                tracer.record(name, start, _clock())
                return stop.value
            except BaseException:
                tracer.record(name, start, _clock())
                raise
            tracer.record(name, start, _clock())
            try:
                value, error = (yield pending), None
            except BaseException as exc:  # forwarded into the coroutine
                value, error = None, exc


def _wrap_async(tracer: Tracer, name: str, fn: Callable) -> Callable:
    @functools.wraps(fn)
    async def traced(*args: Any, **kwargs: Any) -> Any:
        return await _SteppedAwait(fn(*args, **kwargs), tracer, name)

    return traced


#: ``(module, attribute path, span name, is_coroutine)`` for every
#: traced boundary.  Functions are patched where their *callers* look
#: them up: ``repro.core.lamb`` imports the partition, reachability and
#: WVC entry points by name, so those bindings are the ones replaced.
LAYER_TARGETS: Tuple[Tuple[str, str, str, bool], ...] = (
    ("repro.core.reconfigure", "find_lamb_set", "core.lamb", False),
    ("repro.core.lamb", "find_ses_partition", "core.partition", False),
    ("repro.core.lamb", "find_des_partition", "core.partition", False),
    ("repro.core.lamb", "find_reachability", "core.reachability", False),
    ("repro.core.reachability", "one_round_reachability_matrix",
     "core.reachability.one_round", False),
    ("repro.core.reachability", "rect_intersection_matrix",
     "core.reachability.intersections", False),
    ("repro.core.reachability", "bool_matmul",
     "core.reachability.products", False),
    ("repro.core.reachability", "PackedBoolMatrix.matmul",
     "core.reachability.products", False),
    ("repro.core.lamb", "min_weight_vertex_cover_bipartite",
     "graphs.wvc", False),
    ("repro.wormhole.simulator", "find_k_round_route", "routing.route", False),
    ("repro.core.routing_table", "find_k_round_route", "routing.route", False),
    ("repro.wormhole.simulator", "WormholeSimulator.send", "wormhole.send",
     False),
    ("repro.wormhole.simulator", "WormholeSimulator.run", "wormhole.run",
     False),
    ("repro.core.routing_table", "RoutingTable.lookup",
     "core.routing_table.lookup", False),
    ("repro.service.wire", "encode_payload", "service.wire", False),
    ("repro.service.wire", "decode_payload", "service.wire", False),
    ("repro.service.wire", "reply_views", "service.wire", False),
    ("repro.service.wire", "read_frame", "service.wire", True),
    ("repro.service.compiler", "ReconfigurationCompiler.apply_delta",
     "service.compiler.apply_delta", False),
)


@contextmanager
def instrument(tracer: Tracer) -> Iterator[Tracer]:
    """Patch every :data:`LAYER_TARGETS` entry; restore on exit."""
    import importlib

    saved: List[Tuple[Any, str, Any]] = []
    try:
        for module_name, path, span, is_async in LAYER_TARGETS:
            owner: Any = importlib.import_module(module_name)
            *parents, attr = path.split(".")
            for part in parents:
                owner = getattr(owner, part)
            original = getattr(owner, attr)
            wrap = _wrap_async if is_async else _wrap_sync
            saved.append((owner, attr, original))
            setattr(owner, attr, wrap(tracer, span, original))
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)
