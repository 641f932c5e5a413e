"""An in-memory span recorder that wraps functions from outside.

Nothing in the program under test knows about tracing.  A
:class:`Tracer` replaces a function or method *at the name each caller
looks up* -- every module attribute bound to the function object, or
the attribute on the class that defines the method -- with a wrapper
that records a span: name, start, end, parent span, request id and
thread.  :meth:`Tracer.restore` puts every original back, so a traced
run cannot leak into an untraced one.

Times come from ``time.perf_counter_ns``, which on Linux reads the
system-wide monotonic clock, so spans recorded in a server process
line up with timestamps taken by the benchmark's client process.
"""

from __future__ import annotations

import functools
import json
import sys
import threading
import time
from collections import deque

# A span is a list with these fields: cheaper to build on the hot path
# than an object, and it serialises as it is.
NAME, START, END, PARENT, RID, THREAD, ATTRS = range(7)


class Tracer:
    """Records spans for every function it wraps until restored."""

    def __init__(self, clock=time.perf_counter_ns):
        self.clock = clock
        self.spans: list[list] = []
        self._local = threading.local()
        self._patches: list[tuple[object, str, object]] = []
        self._lock = threading.Lock()
        self._pending_rids: dict[object, deque] = {}

    # ------------------------------------------------------------------
    # Request ids
    # ------------------------------------------------------------------

    def set_rid(self, rid) -> None:
        """Tag spans opened from now on, on this thread, with ``rid``."""
        self._local.rid = rid

    def queue_rid(self, key, rid) -> None:
        """Remember that request ``rid`` was admitted for ``key``; the
        thread that later picks up ``key`` adopts it (:meth:`adopt_rid`)."""
        with self._lock:
            self._pending_rids.setdefault(key, deque()).append(rid)

    def adopt_rid(self, key) -> None:
        with self._lock:
            queue = self._pending_rids.get(key)
            rid = queue.popleft() if queue else None
        self.set_rid(rid)

    # ------------------------------------------------------------------
    # Wrapping
    # ------------------------------------------------------------------

    def wrap_function(self, func, name: str, on_exit=None,
                      on_enter=None) -> None:
        """Wrap every module-level binding of ``func``: callers that
        imported the function by name hold their own binding, and each
        one is patched."""
        wrapper = self._wrapper(func, name, on_enter, on_exit)
        for module in list(sys.modules.values()):
            namespace = getattr(module, "__dict__", None)
            if not namespace:
                continue
            for attr, value in list(namespace.items()):
                if value is func:
                    self._patch(module, attr, value, wrapper)

    def wrap_method(self, cls, attr: str, name: str, on_exit=None,
                    on_enter=None) -> None:
        """Wrap ``cls.attr`` where ``cls`` itself defines it.

        ``on_enter(tracer, args, kwargs)`` runs before the span opens;
        ``on_exit(tracer, span, args, kwargs, result)`` after it closes.
        """
        original = cls.__dict__[attr]
        self._patch(cls, attr, original,
                    self._wrapper(original, name, on_enter, on_exit))

    def restore(self) -> None:
        """Put every wrapped function back, most recent patch first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def _patch(self, owner, attr: str, original, wrapper) -> None:
        self._patches.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def _wrapper(self, func, name: str, on_enter, on_exit):
        spans = self.spans
        local = self._local
        clock = self.clock
        lock = self._lock

        @functools.wraps(func)
        def traced(*args, **kwargs):
            if on_enter is not None:
                on_enter(self, args, kwargs)
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            span = [name, clock(), 0, stack[-1] if stack else -1,
                    getattr(local, "rid", None), threading.get_ident(), None]
            with lock:
                index = len(spans)
                spans.append(span)
            stack.append(index)
            result = None
            try:
                result = func(*args, **kwargs)
                return result
            finally:
                span[END] = clock()
                stack.pop()
                if on_exit is not None:
                    on_exit(self, span, args, kwargs, result)

        return traced

    # ------------------------------------------------------------------
    # Output
    # ------------------------------------------------------------------

    def dump(self, path, **totals) -> None:
        """Write every span recorded so far, plus any process totals,
        as one JSON document."""
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"spans": self.spans, "totals": totals}, handle)


def load_dump(path) -> tuple[list[list], dict]:
    """The spans and totals a :meth:`Tracer.dump` wrote."""
    with open(path, encoding="utf-8") as handle:
        document = json.load(handle)
    return document["spans"], document["totals"]


def covered(intervals, start: int, end: int) -> int:
    """Length of ``[start, end]`` covered by the union of ``intervals``.

    Intervals may overlap one another -- children running on other
    threads at the same time -- and may stick out of the window; only
    the covered part inside the window counts, and once.
    """
    clipped = sorted(
        (max(s, start), min(e, end)) for s, e in intervals
        if min(e, end) > max(s, start)
    )
    total = 0
    run_start = run_end = None
    for s, e in clipped:
        if run_end is None or s > run_end:
            if run_end is not None:
                total += run_end - run_start
            run_start, run_end = s, e
        else:
            run_end = max(run_end, e)
    if run_end is not None:
        total += run_end - run_start
    return total


def self_times(spans) -> list[int]:
    """Each span's duration minus the part its child spans cover."""
    children: dict[int, list[tuple[int, int]]] = {}
    for span in spans:
        if span[PARENT] >= 0:
            children.setdefault(span[PARENT], []).append(
                (span[START], span[END])
            )
    return [
        (span[END] - span[START])
        - covered(children.get(index, ()), span[START], span[END])
        for index, span in enumerate(spans)
    ]
