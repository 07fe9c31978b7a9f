"""In-memory span recorder for the benchmark, plus call-site patching.

A span is one timed call: name, start, end, parent span and optional
attributes. Spans live in a list until the run writes them out. Library
functions are traced by replacing them, for the duration of a pass, at every
``jobfit`` module attribute that refers to them: modules import each other by
name (``from .model import propagate``), so a function has to be replaced
where its caller looks it up, not only where it is defined.

This module must not import NumPy: the runner pins thread counts first.
"""

from __future__ import annotations

import sys
import time
from contextlib import contextmanager

clock = time.perf_counter


class Tracer:
    """Records spans in memory and patches library functions to emit them."""

    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self.counts: dict[str, int] = {}

    def _open(self, name: str) -> dict:
        span = {
            "id": len(self.spans),
            "name": name,
            "parent": self._stack[-1] if self._stack else None,
            "start": clock(),
            "end": None,
        }
        self.spans.append(span)
        self._stack.append(span["id"])
        return span

    def _close(self, span: dict) -> None:
        span["end"] = clock()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        span = self._open(name)
        try:
            yield span
        finally:
            self._close(span)

    def adopt(self, spans: list[dict], parent: dict) -> None:
        """Append spans recorded by a child process under ``parent``.

        ``perf_counter`` is CLOCK_MONOTONIC on Linux, shared by every process,
        so child times need no shifting.
        """
        offset = len(self.spans)
        for span in spans:
            copy = dict(span, id=span["id"] + offset)
            copy["parent"] = parent["id"] if span["parent"] is None else span["parent"] + offset
            self.spans.append(copy)

    def wrap(self, owner, attr: str, name: str, sites: str = "all") -> None:
        """Trace ``owner.attr`` under span ``name``, if it exists.

        ``owner`` is a module or a class. For a module function, ``sites="all"``
        replaces every ``jobfit`` module attribute bound to it; otherwise
        ``sites`` names the one module whose lookup is replaced.
        """
        original = getattr(owner, attr, None)
        if original is None:
            return
        tracer = self

        def traced(*args, **kwargs):
            span = tracer._open(name)
            try:
                return original(*args, **kwargs)
            finally:
                tracer._close(span)

        if isinstance(owner, type):
            targets = [owner]
        elif sites == "all":
            targets = [
                module
                for mod_name, module in list(sys.modules.items())
                if (mod_name == "jobfit" or mod_name.startswith("jobfit."))
                and module is not None
                and getattr(module, attr, None) is original
            ]
        else:
            targets = [sys.modules[sites]] if getattr(sys.modules[sites], attr, None) is original else []
        for target in targets:
            self._patches.append((target, attr, original))
            setattr(target, attr, traced)

    def tally(self, owner, attr: str, counter) -> None:
        """Add ``counter(args)``'s {name: amount} to ``self.counts`` per call, untimed."""
        original = owner.__dict__.get(attr)
        inherited = getattr(owner, attr)
        counts = self.counts

        def tallied(*args, **kwargs):
            for key, amount in counter(args).items():
                counts[key] = counts.get(key, 0) + amount
            return inherited(*args, **kwargs)

        self._patches.append((owner, attr, original))
        setattr(owner, attr, tallied)

    def restore(self) -> None:
        for target, attr, original in reversed(self._patches):
            if original is None:
                delattr(target, attr)
            else:
                setattr(target, attr, original)
        self._patches.clear()


def children_of(spans: list[dict]) -> dict[int, list[dict]]:
    out: dict[int, list[dict]] = {}
    for span in spans:
        if span["parent"] is not None:
            out.setdefault(span["parent"], []).append(span)
    return out


def covered(intervals, lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to [lo, hi]."""
    total = 0.0
    reach = lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def self_times(spans: list[dict]) -> dict[int, float]:
    """Span duration minus the part of it that its child spans cover."""
    kids = children_of(spans)
    return {
        span["id"]: (span["end"] - span["start"])
        - covered(
            [(c["start"], c["end"]) for c in kids.get(span["id"], [])],
            span["start"],
            span["end"],
        )
        for span in spans
    }


def layer_table(spans: list[dict]) -> dict[str, dict[str, float]]:
    """Per span name: calls, busy seconds and self seconds."""
    selfs = self_times(spans)
    table: dict[str, dict[str, float]] = {}
    for span in spans:
        row = table.setdefault(span["name"], {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
        row["calls"] += 1
        row["busy_s"] += span["end"] - span["start"]
        row["self_s"] += selfs[span["id"]]
    return table
