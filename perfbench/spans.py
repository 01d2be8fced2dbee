"""In-memory spans around the benchmark's calls into sparseball, and the
statistics the benchmark reports.

A span records name, tag, start, end, parent span and op id.  Spans are
kept in a list and written out when the run ends; nothing is flushed while
ops are being timed.  With tracing off, ``Tracer.span`` returns a shared
no-op context, so the untraced run pays one method call per span.
"""

from __future__ import annotations

import contextlib
import time

import numpy as np


class _Span:
    __slots__ = ("tracer", "record")

    def __init__(self, tracer, name, tag):
        self.tracer = tracer
        self.record = {"id": len(tracer.spans), "name": name, "tag": tag,
                       "parent": tracer.stack[-1] if tracer.stack else None,
                       "op": tracer.op, "start": 0.0, "end": 0.0, "info": {}}

    def __enter__(self):
        tracer = self.tracer
        tracer.spans.append(self.record)
        tracer.stack.append(self.record["id"])
        self.record["start"] = time.perf_counter()
        return self.record["info"]

    def __exit__(self, *exc):
        self.record["end"] = time.perf_counter()
        self.tracer.stack.pop()
        return False


class _NullSpan:
    __slots__ = ("info",)

    def __init__(self):
        self.info = {}

    def __enter__(self):
        return self.info

    def __exit__(self, *exc):
        return False


_NULL_SPAN = _NullSpan()


class Tracer:
    """Collects spans when enabled; ``op`` labels the spans of the current op."""

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list = []
        self.stack: list = []
        self.op = None

    def span(self, name: str, tag: str = ""):
        if not self.enabled:
            return _NULL_SPAN
        return _Span(self, name, tag)


@contextlib.contextmanager
def traced_enumeration(tracer: Tracer):
    """Wrap ``enumerate_Z`` where ``discrete`` and ``hull`` look it up, so the
    enumeration inside a brute-force solve or an exact separation gets its own
    child span.  The original function is restored on exit."""
    from sparseball import discrete, hull

    original = discrete.enumerate_Z

    def enumerate_z(zfam):
        with tracer.span("core.enumerate_Z", zfam.kind) as info:
            members = original(zfam)
            info["rows"] = int(members.shape[0])
        return members

    discrete.enumerate_Z = enumerate_z
    hull.enumerate_Z = enumerate_z
    try:
        yield
    finally:
        discrete.enumerate_Z = original
        hull.enumerate_Z = original


def duration(span) -> float:
    return span["end"] - span["start"]


def self_time_by_layer(spans) -> dict:
    """Seconds spent in each layer (the span name up to its first dot),
    excluding the time covered by the span's children."""
    child_time = {}
    for s in spans:
        if s["parent"] is not None:
            child_time[s["parent"]] = child_time.get(s["parent"], 0.0) + duration(s)
    layers: dict = {}
    for s in spans:
        layer = s["name"].split(".", 1)[0]
        layers[layer] = layers.get(layer, 0.0) + duration(s) - child_time.get(s["id"], 0.0)
    return layers


def median(values) -> float:
    return float(np.median(np.asarray(values, dtype=float)))


def tail(values):
    """The highest percentile with at least 10 samples beyond it.

    Returns (value, percentile, sample count).  The value is the
    nearest-rank sample with exactly 10 larger samples, so its percentile is
    100 * (count - 10) / count; with 10 samples or fewer there is no such
    percentile and the maximum is returned as percentile 100.
    """
    ordered = sorted(float(v) for v in values)
    count = len(ordered)
    if count <= 10:
        return ordered[-1], 100.0, count
    return ordered[count - 11], 100.0 * (count - 10) / count, count


def per_call_seconds(fn, reps: int, rounds: int = 5) -> float:
    """Median over rounds of the mean time of one call, for calls too short
    to time one at a time."""
    samples = []
    for _ in range(rounds):
        start = time.perf_counter()
        for _ in range(reps):
            fn()
        samples.append((time.perf_counter() - start) / reps)
    return median(samples)
