"""Spans and counts around the program's public functions, recorded from
outside the program.

While a ``Tracer`` is entered, each function listed in ``TRACED`` is
replaced by a wrapper in the module namespace the program calls it
through (for example ``cli.analyze_matrix`` and
``pipeline.analyze_matrix`` are the same function imported into two
modules); leaving it puts the originals back.  A wrapper records a span: name, start, end, the span
that was open when it started, and the analysis it belongs to.  Calls
made on a worker thread have no open span of their own; their parent is
the innermost span open on the thread that runs the analysis, which is
the call that started the pool.  Spans stay in memory until ``write``.

The per-layer metrics are computed from the spans: see ``layer_metrics``.
"""

from __future__ import annotations

import json
import threading
import time
import tracemalloc
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

from sigpca import cli, pipeline, significance, vbpca

import checks

# (module, attribute, span name).  The span name is the layer, a dot and
# the function; one function imported into several modules keeps one name.
TRACED = (
    (cli, "main", "cli.main"),
    (cli, "read_schema", "ingest.read_schema"),
    (cli, "load_csv", "ingest.load_csv"),
    (cli, "load_matrix_csv", "ingest.load_matrix_csv"),
    (cli, "drop_sparse_matrix_columns", "ingest.drop_sparse_matrix_columns"),
    (cli, "preprocess", "ingest.preprocess"),
    (cli, "analyze_matrix", "pipeline.analyze_matrix"),
    (cli, "analyze_numeric", "pipeline.analyze_numeric"),
    (cli, "build_report", "pipeline.build_report"),
    (cli, "report_to_json", "pipeline.report_to_json"),
    (cli, "_emit", "cli.write_report"),
    (pipeline, "analyze_matrix", "pipeline.analyze_matrix"),
    (pipeline, "analyze_numeric", "pipeline.analyze_numeric"),
    (pipeline, "build_report", "pipeline.build_report"),
    (pipeline, "report_to_json", "pipeline.report_to_json"),
    (pipeline, "center_columns", "ingest.center_columns"),
    (pipeline, "select_n_components", "vbpca.select_n_components"),
    (pipeline, "reconstruct", "vbpca.reconstruct"),
    (pipeline, "reconstruction_spectrum", "significance.reconstruction_spectrum"),
    (pipeline, "sample_rank_null_spectra", "significance.sample_rank_null_spectra"),
    (pipeline, "count_significant", "significance.count_significant"),
    (vbpca, "fit", "vbpca.fit"),
    (significance, "sym_eigvals", "linalg.sym_eigvals"),
)
# Spans whose traced allocation peak above their start is recorded.
PEAK_SPANS = ("vbpca.select_n_components", "significance.sample_rank_null_spectra")
ROOT = "bench.analysis"
LAYERS = ("cli", "pipeline", "ingest", "vbpca", "significance", "linalg")


@dataclass
class Span:
    id: int
    name: str
    parent: int | None
    analysis: int
    start: float
    end: float = 0.0
    attrs: dict = field(default_factory=dict)


class Tracer:
    """Records spans; with ``memory`` it also runs ``tracemalloc`` and
    records the allocation peaks of ``PEAK_SPANS``, which slows the
    analysis down, so timings come from a tracer without it."""

    def __init__(self, memory: bool = False):
        self.memory = memory
        self.spans: list[Span] = []
        self.fit_problems: list[str] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._main_stack: list[Span] = []
        self._analysis = -1
        self._saved: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------
    def _stack(self) -> list[Span]:
        if threading.current_thread() is threading.main_thread():
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str) -> Span:
        stack = self._stack()
        parent = stack[-1] if stack else (self._main_stack[-1] if self._main_stack else None)
        with self._lock:
            span = Span(len(self.spans), name, parent.id if parent else None, self._analysis, 0.0)
            self.spans.append(span)
        stack.append(span)
        if self.memory and name in PEAK_SPANS:
            span.attrs["base"] = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
        span.start = time.perf_counter()
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter()
        if self.memory and span.name in PEAK_SPANS:
            span.attrs["peak_bytes"] = tracemalloc.get_traced_memory()[1] - span.attrs.pop("base")
        self._stack().pop()

    @contextmanager
    def analysis(self, index: int):
        """One analysis, the root of its spans."""
        self._analysis = index
        span = self.open(ROOT)
        try:
            yield
        finally:
            self.close(span)

    def _wrap(self, fn, name: str):
        def traced(*args, **kwargs):
            span = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(span)
            self._count(span, args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _count(self, span: Span, args, result) -> None:
        """Counts taken at a span's boundary from its arguments and result."""
        if span.name in ("ingest.load_csv", "ingest.load_matrix_csv"):
            matrix = result.matrix if span.name == "ingest.load_csv" else result
            span.attrs["cells"] = int(matrix.values.size)
        elif span.name == "vbpca.fit":
            data, config = args[0], args[1]
            model = result
            span.attrs["sweeps"] = len(model.cost_trace) - 1
            span.attrs["at_cap"] = span.attrs["sweeps"] == config.max_iters
            try:
                flat = np.asarray(data.values)[np.asarray(data.mask)]
                checks.check_free_energy(model.free_energy_trace, float(np.dot(flat, flat)))
            except checks.CheckError as exc:
                with self._lock:
                    self.fit_problems.append(f"q={config.n_components}: {exc}")
        elif span.name == "significance.sample_rank_null_spectra":
            spectrum, config = args[1], args[2]
            span.attrs["draws"] = config.n_null_samples
            span.attrs["ranks_sampled"] = int(np.count_nonzero(spectrum.eigenvalues))
        elif span.name == "significance.count_significant":
            span.attrs["ranks_tested"] = int(result.raw_p.size)

    def __enter__(self) -> "Tracer":
        """Install the wrappers (and start ``tracemalloc`` with ``memory``)."""
        if self.memory:
            tracemalloc.start()
        wrapped: dict[int, object] = {}
        for module, attr, name in TRACED:
            fn = getattr(module, attr)
            if id(fn) not in wrapped:
                wrapped[id(fn)] = self._wrap(fn, name)
            self._saved.append((module, attr, fn))
            setattr(module, attr, wrapped[id(fn)])
        return self

    def __exit__(self, *exc) -> None:
        """Put the program's own functions back."""
        for module, attr, fn in reversed(self._saved):
            setattr(module, attr, fn)
        self._saved.clear()
        if self.memory:
            tracemalloc.stop()

    def write(self, path) -> None:
        """One JSON object per span, in the order the spans opened."""
        with open(path, "w") as handle:
            for s in self.spans:
                record = {"id": s.id, "name": s.name, "parent": s.parent,
                          "analysis": s.analysis, "start": s.start, "end": s.end}
                record.update(s.attrs)
                handle.write(json.dumps(record, sort_keys=True) + "\n")


def _covered(intervals) -> float:
    """Length of the union of (start, end) intervals."""
    total, reach = 0.0, -np.inf
    for start, end in sorted(intervals):
        if end > reach:
            total += end - max(start, reach)
            reach = end
    return total


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span id -> duration minus the part of it its children cover
    (children on worker threads may overlap each other)."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    out = {}
    for s in spans:
        clipped = [(max(a, s.start), min(b, s.end)) for a, b in children.get(s.id, ())]
        out[s.id] = (s.end - s.start) - _covered([c for c in clipped if c[1] > c[0]])
    return out


def peak_metrics(spans: list[Span]) -> dict[str, tuple[float, str]]:
    """Largest allocation peak above the start level, over the analyses,
    of the component scan (all its fits) and of the null sampling."""

    def peak_mb(name: str) -> float:
        peaks = [s.attrs.get("peak_bytes", 0) for s in spans if s.name == name]
        return max(peaks, default=0) / 2**20

    return {
        "vbpca.fit_peak_mb": (peak_mb("vbpca.select_n_components"), "MB"),
        "significance.null_peak_mb": (peak_mb("significance.sample_rank_null_spectra"), "MB"),
    }


def layer_metrics(spans: list[Span]) -> dict[str, tuple[float, str]]:
    """Per-layer times and counts, each a total over the traced analyses
    divided by their number."""
    analyses = {s.analysis for s in spans if s.name == ROOT}
    n = max(len(analyses), 1)
    own = self_times(spans)

    def spans_named(*names):
        return [s for s in spans if s.name in names]

    def total_s(*names) -> float:
        return sum(s.end - s.start for s in spans_named(*names)) / n

    def total(key: str, *names) -> float:
        return sum(s.attrs.get(key, 0) for s in spans_named(*names))

    fits = spans_named("vbpca.fit")
    sweeps = total("sweeps", "vbpca.fit")
    fit_time = sum(s.end - s.start for s in fits)
    # The scan's closing fit is the last fit to start inside each scan.
    refit = 0.0
    for scan in spans_named("vbpca.select_n_components"):
        inner = [s for s in fits if s.parent == scan.id]
        if inner:
            last = max(inner, key=lambda s: s.start)
            refit += last.end - last.start
    sampled = total("ranks_sampled", "significance.sample_rank_null_spectra")
    tested = total("ranks_tested", "significance.count_significant")
    used = 0
    nulls = spans_named("significance.sample_rank_null_spectra")
    counts = spans_named("significance.count_significant")
    for null, count in zip(nulls, counts):
        used += min(null.attrs["ranks_sampled"], count.attrs["ranks_tested"])
    analyze = spans_named("pipeline.analyze_matrix")

    m = {
        "ingest.load_s": (total_s("ingest.load_csv", "ingest.load_matrix_csv"), "s"),
        "ingest.preprocess_s": (
            total_s("ingest.preprocess", "ingest.center_columns",
                    "ingest.drop_sparse_matrix_columns"), "s"),
        "ingest.cells": (total("cells", "ingest.load_csv", "ingest.load_matrix_csv") / n, "count"),
        "vbpca.scan_s": (total_s("vbpca.select_n_components"), "s"),
        "vbpca.fits": (len(fits) / n, "count"),
        "vbpca.fit_s": (total_s("vbpca.fit"), "s"),
        "vbpca.sweeps": (sweeps / n, "count"),
        "vbpca.sweep_ms": (1e3 * fit_time / sweeps if sweeps else 0.0, "ms"),
        "vbpca.fits_at_cap": (total("at_cap", "vbpca.fit") / n, "count"),
        "vbpca.refit_s": (refit / n, "s"),
        "vbpca.reconstruct_s": (total_s("vbpca.reconstruct"), "s"),
        "significance.null_s": (total_s("significance.sample_rank_null_spectra"), "s"),
        "significance.null_draws": (total("draws", "significance.sample_rank_null_spectra") / n, "count"),
        "significance.eigvals_calls": (len(spans_named("linalg.sym_eigvals")) / n, "count"),
        "significance.eigvals_s": (total_s("linalg.sym_eigvals"), "s"),
        "significance.ranks_sampled": (sampled / n, "count"),
        "significance.ranks_tested": (tested / n, "count"),
        "significance.rank_use_ratio": (used / sampled if sampled else 0.0, "ratio"),
        "significance.spectrum_s": (total_s("significance.reconstruction_spectrum"), "s"),
        "significance.count_s": (total_s("significance.count_significant"), "s"),
        "pipeline.analyze_s": (total_s("pipeline.analyze_matrix"), "s"),
        "pipeline.self_s": (sum(own[s.id] for s in analyze) / n, "s"),
        "pipeline.report_s": (
            total_s("pipeline.build_report", "pipeline.report_to_json", "cli.write_report"), "s"),
    }
    for layer in LAYERS:
        mine = [s for s in spans if s.name.split(".")[0] == layer]
        m[f"{layer}.layer_self_s"] = (sum(own[s.id] for s in mine) / n, "s")
    return m
