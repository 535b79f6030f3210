"""Span tracer for the benchmark's traced run.

The tracer wraps public functions of `mfnet` at their module boundaries,
from outside the package: each wrapped call records one span (name,
parent, start, end). Spans stay in compact in-memory arrays and are
written out once, when the run ends. A span's self time is its duration
minus the time its child spans cover; the program is single-threaded and
the parent comes from a call stack, so children never overlap and the
covered time is the sum of their durations.

A wrapper may also carry a counter that counts work (tape records, edge
messages, sweeps) from the call's arguments and result. Counters run
outside the wrapped span, so their cost lands in the parent's self time and
in the measured tracing overhead, never in the layer they count.
"""
from __future__ import annotations

import functools
import inspect
import time
from array import array
from collections import Counter
from contextlib import contextmanager
from pathlib import Path

import numpy as np


class Tracer:
    """Records nested spans of wrapped calls, plus named work counters."""

    def __init__(self):
        self.names: list = []
        self._name_ids: dict = {}
        self.name_idx = array("q")
        self.parent = array("q")
        self.start = array("d")
        self.end = array("d")
        self.counts: Counter = Counter()
        self.excluded: list = []  # (innermost open span, seconds) not spent in the program
        self._stack = [-1]

    def __len__(self) -> int:
        return len(self.start)

    def _name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def exclude(self, seconds: float) -> None:
        """Take `seconds` spent outside the program (a speed probe run from a
        signal handler) out of the innermost open span, if any."""
        if self._stack[-1] >= 0:
            self.excluded.append((self._stack[-1], seconds))

    def wrap(self, fn, name: str, counter=None):
        """Return `fn` wrapped so that each call records a span called `name`.

        `counter(args, kwargs)` runs before the span opens and may return a
        function `finish(result)` that runs after it closes.
        """
        nid = self._name_id(name)
        clock = time.perf_counter
        stack = self._stack
        name_idx, parent, start, end = self.name_idx, self.parent, self.start, self.end

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            finish = counter(args, kwargs) if counter is not None else None
            sid = len(start)
            name_idx.append(nid)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(sid)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[sid] = clock()
                stack.pop()
            if finish is not None:
                finish(result)
            return result

        return traced

    def arrays(self):
        """Spans as numpy arrays: (name index, parent index, start, end)."""
        # Copies: a live buffer view would stop the arrays from growing.
        return (
            np.array(self.name_idx, dtype=np.int64),
            np.array(self.parent, dtype=np.int64),
            np.array(self.start, dtype=np.float64),
            np.array(self.end, dtype=np.float64),
        )

    def save(self, path) -> None:
        """Write every span, the name table and the excluded time as one .npz file."""
        name_idx, parent, start, end = self.arrays()
        np.savez(
            Path(path),
            names=np.array(self.names, dtype=str),
            name_idx=name_idx,
            parent=parent,
            start=start,
            end=end,
            excluded=np.array(self.excluded, dtype=np.float64).reshape(-1, 2),
        )


def wrapper_cost(calls: int = 20000) -> float:
    """Seconds a wrapper adds to one call: a wrapped minus a bare no-op."""

    def noop():
        return None

    traced = Tracer().wrap(noop, "noop")
    t0 = time.perf_counter()
    for _ in range(calls):
        noop()
    bare = time.perf_counter() - t0
    t0 = time.perf_counter()
    for _ in range(calls):
        traced()
    return (time.perf_counter() - t0 - bare) / calls


def self_times(parent: np.ndarray, start: np.ndarray, end: np.ndarray) -> np.ndarray:
    """Per-span self time: duration minus the summed durations of its children."""
    dur = end - start
    has_parent = parent >= 0
    child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
    return dur - child


def summarize(tracer: Tracer) -> dict:
    """Per span name: {"calls", "total_s", "self_s"}, where total is inclusive time.

    Excluded time comes off the self time of the span it fell in and off
    the inclusive time of that span and all its ancestors.
    """
    name_idx, parent, start, end = tracer.arrays()
    own = self_times(parent, start, end)
    dur = end - start
    for sid, seconds in tracer.excluded:
        own[sid] -= seconds
        while sid >= 0:
            dur[sid] -= seconds
            sid = parent[sid]
    n = len(tracer.names)
    calls = np.bincount(name_idx, minlength=n)
    total = np.bincount(name_idx, weights=dur, minlength=n)
    self_s = np.bincount(name_idx, weights=own, minlength=n)
    return {
        name: {"calls": int(calls[i]), "total_s": float(total[i]), "self_s": float(self_s[i])}
        for i, name in enumerate(tracer.names)
    }


@contextmanager
def installed(tracer: Tracer, targets):
    """Patch each (module, attribute, span name, counter) target for the duration.

    A target whose attribute is missing is skipped and listed in the yielded
    list, so a renamed function shows up as untraced rather than failing.
    """
    saved = []
    missing = []
    try:
        for module, attr, name, counter in targets:
            original = getattr(module, attr, None)
            if original is None:
                missing.append(f"{module.__name__}.{attr}")
                continue
            saved.append((module, attr, original))
            setattr(module, attr, tracer.wrap(original, name, counter))
        yield missing
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)


def bound_arguments(fn):
    """Counter helper: map a call's (args, kwargs) to fn's parameter names."""
    sig = inspect.signature(fn)

    def bind(args, kwargs) -> dict:
        bound = sig.bind(*args, **kwargs)
        bound.apply_defaults()
        return bound.arguments

    return bind
