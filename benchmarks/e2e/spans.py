"""Outside-in span recorder for the end-to-end benchmark.

Every span is timed around a call *into* the program: the benchmark wraps
public methods of objects it builds itself (the session's classifier, store,
strategy and prefilter; the serving manager) by replacing the bound method on
that one instance; only the static ``ActiveSession.write_checkpoint`` is
wrapped on the class, in the server process.  Nothing under ``src/`` is
modified, and an untraced run installs no wrapper at all.

A span is ``{"id", "trace_id", "name", "start", "end", "parent"}`` plus
optional counters (``rows``, ``bytes``, ``kept``, ``queue_depth``).  ``trace_id`` is
``workload/session/round``; ``parent`` is the innermost open span on the same
thread.  Times are ``time.perf_counter()`` readings, which on Linux come from
the system-wide monotonic clock, so spans recorded by the server process of
the ``served`` workload share the client's time axis.
"""

from __future__ import annotations

import contextlib
import itertools
import json
import threading
import time
from collections import defaultdict
from typing import Callable, Dict, Iterable, List, Optional

__all__ = ["Tracer", "layer_self_times", "write_jsonl"]


class Tracer:
    """In-memory span store plus the instance-method wrappers that fill it."""

    def __init__(self, id_prefix: str = ""):
        self.spans: List[dict] = []
        self._prefix = id_prefix
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _record(self, record: dict) -> None:
        with self._lock:
            self.spans.append(record)

    @contextlib.contextmanager
    def span(self, name: str, trace_id: str):
        """Time the body as one span nested under this thread's open span."""

        stack = self._stack()
        record = {
            "id": f"{self._prefix}{next(self._ids)}",
            "trace_id": trace_id,
            "name": name,
            "parent": stack[-1]["id"] if stack else None,
            "start": time.perf_counter(),
        }
        stack.append(record)
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            stack.pop()
            self._record(record)

    def add(self, name: str, trace_id: str, start: float, end: float, parent: Optional[str]) -> dict:
        """Record a span whose duration the program measured itself.

        Used for solver components (``RelaxResult.timings`` and per-rank
        seconds): the program reports how long each took but not when, so
        the benchmark lays them end to end from the start of the enclosing
        ``strategy.select`` span.
        """

        record = {
            "id": f"{self._prefix}{next(self._ids)}",
            "trace_id": trace_id,
            "name": name,
            "parent": parent,
            "start": start,
            "end": end,
        }
        self._record(record)
        return record

    def wrap(
        self,
        obj,
        method: str,
        name: str,
        trace_id: Callable[..., str],
        counters: Optional[Callable[[tuple, object], dict]] = None,
        after: Optional[Callable[[dict, object], None]] = None,
    ) -> None:
        """Replace ``obj.method`` on this instance with a span-recording wrapper.

        ``trace_id(*args)`` names the span's trace from the call's arguments;
        ``counters(args, result)`` adds counts to the span; ``after(span,
        result)`` runs once the span is closed (to read result fields).
        """

        inner = getattr(obj, method)

        def traced(*args, **kwargs):
            with self.span(name, trace_id(*args)) as record:
                result = inner(*args, **kwargs)
                if counters is not None:
                    record.update(counters(args, result))
            if after is not None:
                after(record, result)
            return result

        setattr(obj, method, traced)

    def wrap_async(
        self, obj, method: str, name: str, trace_id: Callable[..., str],
        counters: Optional[Callable[[], dict]] = None,
    ) -> None:
        """Like :meth:`wrap` for a coroutine method.

        Coroutines of different tasks interleave on one thread, so these
        spans take no parent from the thread's stack.  ``counters()`` is read
        when the call starts (a queue depth seen on arrival).
        """

        inner = getattr(obj, method)

        async def traced(*args, **kwargs):
            record = {
                "id": f"{self._prefix}{next(self._ids)}",
                "trace_id": trace_id(*args),
                "name": name,
                "parent": None,
                "start": time.perf_counter(),
            }
            if counters is not None:
                record.update(counters())
            try:
                return await inner(*args, **kwargs)
            finally:
                record["end"] = time.perf_counter()
                self._record(record)

        setattr(obj, method, traced)


def layer_self_times(spans: Iterable[dict]) -> Dict[str, float]:
    """Seconds each layer spent outside its child spans, summed over the run.

    A span's layer is its name up to the first dot (``relax.cg`` is in
    ``relax``); a span's self time is its duration minus the part of it its
    child spans cover.
    """

    spans = list(spans)
    children = defaultdict(list)
    for span in spans:
        if span["parent"] is not None:
            children[span["parent"]].append(span)
    totals: Dict[str, float] = defaultdict(float)
    for span in spans:
        covered = 0.0
        cursor = span["start"]
        for child in sorted(children.get(span["id"], ()), key=lambda c: c["start"]):
            lo, hi = max(child["start"], cursor), min(child["end"], span["end"])
            if hi > lo:
                covered += hi - lo
                cursor = hi
        totals[span["name"].split(".", 1)[0]] += (span["end"] - span["start"]) - covered
    return dict(totals)


def write_jsonl(path, spans: Iterable[dict]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for span in spans:
            fh.write(json.dumps(span, sort_keys=True) + "\n")
