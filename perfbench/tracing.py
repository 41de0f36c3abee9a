"""In-memory spans around the public functions of each alpha-spectra layer.

``Tracer`` replaces each function in LAYERS by a wrapper that records a span
(name, start, end, parent) and the span's work counts, and puts the
originals back on exit.  The program itself is not changed: the wrappers
sit on the module attributes that callers look up at call time.  ``core``
has no span of its own; its validation and ``Spectrum`` copy fall in the
self time of ``fastpath.alpha_fft`` and ``oracle.naive_forward``.
"""

import contextlib
import functools
import os
import time
from collections import defaultdict
from dataclasses import dataclass

from alpha_spectra import cli, fastpath, io, oracle

#: Name of the root span the benchmark opens around each request.
REQUEST = "request"


def _count_read(counts, args, result):
    counts["io.read_signal.bytes"] += os.path.getsize(args[0])


def _count_write(counts, args, result):
    counts["io.write_spectrum.bytes"] += os.path.getsize(args[1])


def _count_transform(counts, args, result):
    p = args[1]
    counts["fastpath.complex_mults"] += fastpath.predicted_mults(p)
    counts["fastpath.complex_adds"] += fastpath.predicted_adds(p)
    # Computed, not measured: input, two arrays of alpha*N per level, output.
    counts["fastpath.transform_samples.bytes_computed"] += 16 * (p.n + 2 * p.depth * p.m + p.m)


def _count_macs(counts, args, result):
    counts["oracle.naive_forward.macs"] += len(args[0]) * result.m


#: (module, attribute, span name, work counter or None)
LAYERS = (
    (cli, "main", "cli.main", None),
    (io, "read_signal", "io.read_signal", _count_read),
    (io, "write_spectrum", "io.write_spectrum", _count_write),
    (fastpath, "plan", "fastpath.plan", None),
    (fastpath, "alpha_fft", "fastpath.alpha_fft", None),
    (fastpath, "transform_samples", "fastpath.transform_samples", _count_transform),
    (oracle, "naive_forward", "oracle.naive_forward", _count_macs),
)


@dataclass
class Span:
    name: str
    start: int
    parent: int | None
    end: int = 0
    error: bool = False


class Tracer:
    """Context manager that traces LAYERS while active.

    Single-threaded: spans nest strictly, so a span's children are the
    spans opened while it is the innermost open one.
    """

    def __init__(self):
        self.spans = []
        self.counts = defaultdict(int)
        self._open = []
        self._originals = []

    def __enter__(self):
        for module, attr, name, count in LAYERS:
            original = getattr(module, attr)
            self._originals.append((module, attr, original))
            setattr(module, attr, self._wrap(name, original, count))
        return self

    def __exit__(self, *exc):
        while self._originals:
            module, attr, original = self._originals.pop()
            setattr(module, attr, original)
        return False

    @contextlib.contextmanager
    def span(self, name: str):
        """Record a span around the body; nested spans become its children."""
        record = Span(name, time.perf_counter_ns(), self._open[-1] if self._open else None)
        self.spans.append(record)
        self._open.append(len(self.spans) - 1)
        try:
            yield record
        except BaseException:
            record.error = True
            raise
        finally:
            record.end = time.perf_counter_ns()
            self._open.pop()

    def _wrap(self, name, fn, count):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            if count is not None:
                count(self.counts, args, result)
            return result
        return traced

    def self_seconds(self) -> dict:
        """Per span name: summed duration minus the time its children cover."""
        child_ns = [0] * len(self.spans)
        for span in self.spans:
            if span.parent is not None:
                child_ns[span.parent] += span.end - span.start
        totals = defaultdict(float)
        for span, covered in zip(self.spans, child_ns):
            totals[span.name] += (span.end - span.start - covered) / 1e9
        return totals


def _ratio(numerator, denominator):
    return numerator / denominator if denominator else 0.0


def layer_metrics(tracer: Tracer, untraced_throughput: float, traced_throughput: float) -> dict:
    """Per-layer metrics from one traced run, as {name: (value, unit)}.

    Times, calls and counts are per request (the traced run ends on a whole
    round of shape classes, so counts repeat exactly from run to run).  The
    overhead ratio is untraced over traced throughput.
    """
    self_s = tracer.self_seconds()
    calls = defaultdict(int)
    errors = defaultdict(int)
    for span in tracer.spans:
        calls[span.name] += 1
        errors[span.name] += span.error
    requests = calls[REQUEST]
    request_s = sum((s.end - s.start) / 1e9 for s in tracer.spans if s.name == REQUEST)
    counts = tracer.counts

    metrics = {}
    for _, _, name, _ in LAYERS:
        metrics[f"{name}.self_s"] = (self_s[name] / requests, "s/req")
        metrics[f"{name}.calls"] = (calls[name] / requests, "count/req")
        metrics[f"{name}.errors"] = (errors[name] / requests, "count/req")
    for name in ("io.read_signal", "io.write_spectrum"):
        metrics[f"{name}.bytes"] = (counts[f"{name}.bytes"] / requests, "B/req")
        metrics[f"{name}.mb_per_s"] = (_ratio(counts[f"{name}.bytes"] / 1e6, self_s[name]), "MB/s")
    plans = calls["fastpath.plan"]
    metrics["fastpath.plan.accept_ratio"] = (_ratio(plans - errors["fastpath.plan"], plans), "ratio")
    for name in ("fastpath.complex_mults", "fastpath.complex_adds",
                 "fastpath.transform_samples.bytes_computed", "oracle.naive_forward.macs"):
        metrics[name] = (counts[name] / requests, "B/req" if name.endswith("bytes_computed") else "count/req")
    metrics["fastpath.transform_samples.mults_per_s"] = (
        _ratio(counts["fastpath.complex_mults"], self_s["fastpath.transform_samples"]), "1/s")
    metrics["oracle.naive_forward.macs_per_s"] = (
        _ratio(counts["oracle.naive_forward.macs"], self_s["oracle.naive_forward"]), "1/s")
    layer_self_s = sum(self_s[name] for _, _, name, _ in LAYERS)
    metrics["trace.coverage"] = (_ratio(layer_self_s, request_s), "ratio")
    metrics["trace.overhead_ratio"] = (_ratio(untraced_throughput, traced_throughput), "ratio")
    return metrics


def dominant_layer(tracer: Tracer) -> str:
    self_s = tracer.self_seconds()
    return max((name for _, _, name, _ in LAYERS), key=lambda name: self_s[name])
