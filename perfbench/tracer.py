"""Spans recorded from outside the library.

The traced run replaces public functions of `convexdesk` modules with
timing wrappers in every module namespace that holds them (so
`convexdesk.moreau.discrete_convexity_check` and
`convexdesk.grids.discrete_convexity_check` are both wrapped), runs the
jobs, and puts the originals back.  Nothing under `src/` is edited.

A span is (layer, start, end, parent span index, job id, attrs).  Spans
stay in memory; `write_jsonl` writes them out once the run is over.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Optional


@dataclass
class Span:
    layer: str
    start: float
    end: float
    parent: int  # index of the enclosing span, -1 at top level
    job: Optional[int]
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Recorder:
    """Collects spans while `active` is true; the harness sets `job`."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.stack: list[int] = []
        self.job: Optional[int] = None
        self.active = False
        self.job_objects: dict[int, object] = {}  # per-job state for wrappers

    def start_job(self, job: Optional[int]) -> None:
        self.job = job
        self.job_objects.clear()

    def wrap(self, layer: str, fn: Callable, attrs_fn: Optional[Callable] = None) -> Callable:
        rec = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not rec.active:
                return fn(*args, **kwargs)
            idx = len(rec.spans)
            span = Span(layer, 0.0, 0.0, rec.stack[-1] if rec.stack else -1, rec.job)
            rec.spans.append(span)
            rec.stack.append(idx)
            out = None
            span.start = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
                return out
            finally:
                span.end = time.perf_counter()
                rec.stack.pop()
                if attrs_fn is not None:
                    span.attrs = attrs_fn(args, kwargs, out)

        return traced


@contextmanager
def patched(wrappers: dict[tuple[str, str], Callable]):
    """Install wrappers keyed by (module, function name) wherever any
    `convexdesk` module namespace holds the original; restore on exit."""
    saved = []
    try:
        for (mod_name, fn_name), make in wrappers.items():
            orig = getattr(importlib.import_module(mod_name), fn_name)
            wrapped = make(orig)
            for mod in list(sys.modules.values()):
                name = getattr(mod, "__name__", "")
                if name != "convexdesk" and not name.startswith("convexdesk."):
                    continue
                if mod.__dict__.get(fn_name) is orig:
                    saved.append((mod, fn_name, orig))
                    setattr(mod, fn_name, wrapped)
        yield
    finally:
        for mod, fn_name, orig in reversed(saved):
            setattr(mod, fn_name, orig)


def self_times(spans: list[Span]) -> list[float]:
    """Per span: its duration minus its direct children's durations.

    Spans come from synchronous wrappers on one thread, so a span's
    direct children never overlap and end inside it."""
    out = [s.duration for s in spans]
    for s in spans:
        if s.parent >= 0:
            out[s.parent] -= s.duration
    return out


def write_jsonl(spans: list[Span], path: str, pass_no: int) -> None:
    with open(path, "a") as fh:
        for i, s in enumerate(spans):
            fh.write(json.dumps({
                "pass": pass_no, "i": i, "layer": s.layer, "start": s.start,
                "end": s.end, "parent": s.parent, "job": s.job, "attrs": s.attrs,
            }) + "\n")
