"""Out-of-program span recorder for the traced benchmark run.

The benchmark measures layers from the outside: it replaces public
functions and methods of ``repro`` modules with thin wrappers that
record a span around each call, plus a ``gc.callbacks`` hook that
records every garbage collection as a span.  Spans stay in memory and
are written out once, when the run ends.

A span's parent is the innermost span open on the same thread, so a
layer's *self time* is its duration minus the durations of its direct
children (children on one thread run one after another inside their
parent, so their durations never overlap).

Spans are kept in ``array`` columns, which hold no Python objects: the
garbage collector never walks them, so recording does not lengthen the
collections that ``trainer.gc_s`` measures.
"""

from __future__ import annotations

import functools
import gc
import json
import math
import sys
import threading
import time
from array import array
from contextlib import contextmanager


class Tracer:
    """Records spans as columns: name code, thread, start, end, parent,
    and a per-span work count (rows gathered, edges aggregated) supplied
    by a wrapper's ``count`` callback.  An open span's end is NaN."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._codes: dict[str, int] = {}
        self.name = array("i")
        self.thread = array("Q")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.count = array("d")
        # Re-entrant: a collection can start while a span is being added.
        self._lock = threading.RLock()
        self._local = threading.local()
        self._patches: list[tuple[object, str, object]] = []
        self._gc_open: dict[int, int] = {}

    # -- recording ------------------------------------------------------
    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
            self._local.active = set()
        return stack

    def _code(self, name: str) -> int:
        code = self._codes.get(name)
        if code is None:
            code = self._codes[name] = len(self.names)
            self.names.append(name)
        return code

    def _open(self, name: str, count: float = 0.0) -> int:
        stack = self._stack()
        parent = stack[-1] if stack else -1
        thread = threading.get_ident()
        with self._lock:
            index = len(self.start)
            self.name.append(self._code(name))
            self.thread.append(thread)
            self.start.append(time.perf_counter())
            self.end.append(math.nan)
            self.parent.append(parent)
            self.count.append(count)
        stack.append(index)
        return index

    def _close(self, index: int) -> None:
        self.end[index] = time.perf_counter()
        stack = self._stack()
        if stack and stack[-1] == index:
            stack.pop()

    @contextmanager
    def span(self, name: str):
        """Record the enclosed block as one span."""
        index = self._open(name)
        try:
            yield
        finally:
            self._close(index)

    # -- installing wrappers ----------------------------------------------
    def wrap(self, owner, attr: str, name: str, count=None) -> None:
        """Replace ``owner.attr`` with a span-recording wrapper.

        A call made while a span of the same ``name`` is already open on
        the thread (a backend delegating to another backend's method)
        is passed through unrecorded, so it is counted once.
        """
        original = getattr(owner, attr)
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            tracer._stack()
            active = tracer._local.active
            if name in active:
                return original(*args, **kwargs)
            active.add(name)
            index = tracer._open(name, count(args, kwargs) if count else 0.0)
            try:
                return original(*args, **kwargs)
            finally:
                tracer._close(index)
                active.discard(name)

        setattr(owner, attr, traced)
        self._patches.append((owner, attr, original))

    def wrap_everywhere(self, function, name: str) -> None:
        """Wrap a module-level function at every ``repro`` import site.

        Modules that did ``from x import f`` hold their own reference,
        so each module namespace that holds ``function`` is patched.
        """
        for module_name, module in list(sys.modules.items()):
            if not module_name.startswith("repro") or module is None:
                continue
            for attr, value in list(vars(module).items()):
                if value is function:
                    self.wrap(module, attr, name)

    def observe(self, owner, attr: str, callback) -> None:
        """Call ``callback(result, args)`` after each call; no span."""
        original = getattr(owner, attr)

        @functools.wraps(original)
        def observed(*args, **kwargs):
            result = original(*args, **kwargs)
            callback(result, args)
            return result

        setattr(owner, attr, observed)
        self._patches.append((owner, attr, original))

    def install_gc(self) -> None:
        """Record every collection as a ``trainer.gc`` span."""

        def on_gc(phase, info):
            thread = threading.get_ident()
            if phase == "start":
                self._gc_open[thread] = self._open("trainer.gc")
            else:
                index = self._gc_open.pop(thread, None)
                if index is not None:
                    self._close(index)

        gc.callbacks.append(on_gc)
        self._patches.append((gc.callbacks, None, on_gc))

    def uninstall(self) -> None:
        """Restore every wrapped attribute and remove the gc hook."""
        for owner, attr, original in reversed(self._patches):
            if attr is None:
                owner.remove(original)
            else:
                setattr(owner, attr, original)
        self._patches.clear()

    # -- analysis ---------------------------------------------------------
    def summary(self, since: float = 0.0) -> dict[str, dict[str, float]]:
        """Per span name: calls, total and self seconds, summed counts.

        Only closed spans that started at or after ``since`` count.
        """
        n = len(self.start)
        child_time = [0.0] * n
        for index in range(n):
            parent = self.parent[index]
            if parent >= 0 and not math.isnan(self.end[index]):
                child_time[parent] += self.end[index] - self.start[index]
        out: dict[str, dict[str, float]] = {}
        for index in range(n):
            start, end = self.start[index], self.end[index]
            if math.isnan(end) or start < since:
                continue
            entry = out.setdefault(
                self.names[self.name[index]],
                {"calls": 0, "total_s": 0.0, "self_s": 0.0, "count": 0.0},
            )
            entry["calls"] += 1
            entry["total_s"] += end - start
            entry["self_s"] += end - start - child_time[index]
            entry["count"] += self.count[index]
        return out

    def durations(self, name: str, since: float = 0.0,
                  until: float = math.inf) -> list[float]:
        """Wall seconds of each closed ``name`` span started in a window."""
        code = self._codes.get(name)
        return [
            self.end[i] - self.start[i]
            for i in range(len(self.start))
            if self.name[i] == code and not math.isnan(self.end[i])
            and since <= self.start[i] <= until
        ]

    def write(self, path) -> None:
        """Write the spans as JSON lines (an open span's end is null)."""
        with open(path, "w", encoding="utf-8") as handle:
            for i in range(len(self.start)):
                end = self.end[i]
                handle.write(json.dumps({
                    "id": i, "name": self.names[self.name[i]],
                    "thread": self.thread[i], "start": self.start[i],
                    "end": None if math.isnan(end) else end,
                    "parent": self.parent[i], "count": self.count[i],
                }) + "\n")
