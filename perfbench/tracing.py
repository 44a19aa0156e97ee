"""Spans recorded from outside the program, around its public functions.

A :class:`Tracer` replaces a function or method with a wrapper that
times each call and links it to the call that caused it.  Spans are
kept in memory as ``(span_id, parent_id, name, start, end, attr)``
rows, ``time.perf_counter`` seconds (CLOCK_MONOTONIC, so comparable
across processes on one machine), and written out when the run ends.
Parent 0 is the root.
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
from time import perf_counter
from typing import Any, Callable, List, Optional


class Tracer:
    """In-memory span recorder with a per-thread stack of open spans."""

    def __init__(self) -> None:
        self.spans: List[tuple] = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    def current(self) -> int:
        """The innermost open span on this thread (0 when none)."""
        stack = getattr(self._local, "stack", None)
        return stack[-1] if stack else 0

    def add(self, name: str, parent: int, start: float, end: float,
            attr: Any = None) -> None:
        """Record a span timed by the caller."""
        self.spans.append((next(self._ids), parent, name, start, end, attr))

    def call(self, name: str, parent: int, fn: Callable[..., Any], *args,
             attr: Optional[Callable[[Any], Any]] = None, **kwargs) -> Any:
        """Run ``fn`` inside a span named ``name`` under ``parent``."""
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        span_id = next(self._ids)
        stack.append(span_id)
        value = None
        start = perf_counter()
        try:
            result = fn(*args, **kwargs)
            if attr is not None:
                value = attr(result)
            return result
        finally:
            end = perf_counter()
            stack.pop()
            self.spans.append((span_id, parent, name, start, end, value))

    def wrap(self, owner: Any, attribute: str, name: str,
             attr: Optional[Callable[[Any], Any]] = None) -> None:
        """Replace ``owner.attribute`` with a traced wrapper."""
        original = getattr(owner, attribute)
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            return tracer.call(name, tracer.current(), original, *args,
                               attr=attr, **kwargs)

        setattr(owner, attribute, traced)

    def dump(self, path: str) -> None:
        with open(path, "w") as out:
            json.dump(list(self.spans), out)
