"""In-memory span recording around the program's public functions.

The benchmark times each layer from the outside: :class:`Patches` swaps a
public method or function for a wrapper that records one span per call
(name, start, end, parent span) into a :class:`SpanRecorder`.  Spans
stay in memory and are written once, at the end of a run, as JSONL
records in the ``repro.obs`` format, so
``python -m repro.cli trace summarize FILE`` reads them.

The wrappers here add no spans inside the program; the program's own
tracer stays disabled.
"""

from __future__ import annotations

import functools
import json
import os
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional, Sequence, Tuple


class SpanRecorder:
    """Collects spans of one run; nesting follows the call stack.

    Each record is ``(name, span_id, parent_id, start, end)`` with
    ``perf_counter`` times.  The benchmark is single-threaded, so one
    stack is enough.
    """

    def __init__(self, trace_id: str) -> None:
        self.trace_id = trace_id
        self.records: List[Tuple[str, int, Optional[int], float, float]] = []
        self._stack: List[int] = []
        self._next_id = 0
        self._wall0 = time.time()
        self._perf0 = time.perf_counter()

    def call(self, name: str, fn: Callable, args, kwargs):
        """Run ``fn(*args, **kwargs)`` inside a span called ``name``."""
        stack = self._stack
        parent = stack[-1] if stack else None
        span_id = self._next_id
        self._next_id += 1
        stack.append(span_id)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
            self.records.append((name, span_id, parent, start, end))

    def jsonl_records(self) -> List[Dict]:
        """The spans as ``repro.obs`` trace records."""
        pid = os.getpid()
        return [
            {
                "trace": self.trace_id,
                "span": f"{span_id:016x}",
                "parent": None if parent is None else f"{parent:016x}",
                "name": name,
                "ts": self._wall0 + (start - self._perf0),
                "elapsed": end - start,
                "pid": pid,
                "attributes": {},
            }
            for name, span_id, parent, start, end in self.records
        ]

    def write_jsonl(self, path: str) -> None:
        """Write every span, one JSON object per line."""
        with open(path, "w", encoding="utf-8") as handle:
            for record in self.jsonl_records():
                handle.write(json.dumps(record, sort_keys=True) + "\n")


def self_times(
    records: Sequence[Tuple[str, int, Optional[int], float, float]],
) -> Tuple[Dict[str, float], Dict[str, int]]:
    """Per-name self time and call count.

    A span's self time is its duration minus the durations of its
    direct child spans; summing self times over a tree therefore adds
    every instant exactly once.
    """
    child_time: Dict[int, float] = defaultdict(float)
    for _, _, parent, start, end in records:
        if parent is not None:
            child_time[parent] += end - start
    totals: Dict[str, float] = defaultdict(float)
    calls: Dict[str, int] = defaultdict(int)
    for name, span_id, _, start, end in records:
        totals[name] += (end - start) - child_time[span_id]
        calls[name] += 1
    return dict(totals), dict(calls)


class Patches:
    """Swaps attributes for wrappers and puts the originals back."""

    def __init__(self) -> None:
        self._saved: List[Tuple[object, str, object, bool]] = []

    def replace(self, owner, attribute: str, make_wrapper: Callable) -> None:
        """Set ``owner.attribute`` to ``make_wrapper(original)``.

        ``owner`` is a class (the wrapper then sees ``self`` first) or a
        module that bound the function by name at import.
        """
        own = attribute in vars(owner)
        self._saved.append((owner, attribute, vars(owner).get(attribute), own))
        setattr(owner, attribute, make_wrapper(getattr(owner, attribute)))

    def span(self, recorder: SpanRecorder, owner, attribute: str, name: str) -> None:
        """Record a span called ``name`` around every call."""

        def make(original):
            @functools.wraps(original)
            def wrapper(*args, **kwargs):
                return recorder.call(name, original, args, kwargs)

            return wrapper

        self.replace(owner, attribute, make)

    def restore(self) -> None:
        """Undo every replacement, newest first."""
        while self._saved:
            owner, attribute, original, own = self._saved.pop()
            if own:
                setattr(owner, attribute, original)
            else:
                delattr(owner, attribute)

    def __enter__(self) -> "Patches":
        return self

    def __exit__(self, *exc) -> None:
        self.restore()
