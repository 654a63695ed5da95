"""Spans at the boundaries between the package's layers.

The traced run rebinds, in each calling module, the name through which that
module calls the next layer (``pabsig.cli.gram_matrix``,
``pabsig.experiment.solve``, ...), so the package itself is unchanged.  Spans
(name, start, end, parent, attributes) are kept in memory and written out
when the run ends; per-layer metrics are computed from them.
"""

from __future__ import annotations

import importlib
import json
import statistics
import time
import tracemalloc
from contextlib import contextmanager
from pathlib import Path


def _no_attrs(*args, **kwargs):
    return {}


def _lift_attrs(ts, *args, **kwargs):
    return {"segments": ts.n_segments}


def _solve_attrs(px, py, *args, **kwargs):
    return {"degree": px.degree, "cells": px.n_intervals * py.n_intervals}


def _order1_attrs(increments_x, increments_y, *args, **kwargs):
    return {"cells": len(increments_x) * len(increments_y)}


# (calling module, name it calls through, span name, span attributes)
BINDINGS = (
    ("pabsig.cli", "gram_matrix", "experiment.gram_matrix", _no_attrs),
    ("pabsig.cli", "convergence_experiment", "experiment.convergence_experiment", _no_attrs),
    ("pabsig.cli", "kernel", "goursat.kernel", _no_attrs),
    ("pabsig.experiment", "build_pab", "lift.build_pab", _lift_attrs),
    ("pabsig.goursat", "build_pab", "lift.build_pab", _lift_attrs),
    ("pabsig.experiment", "solve", "goursat.solve", _solve_attrs),
    ("pabsig.goursat", "solve", "goursat.solve", _solve_attrs),
    ("pabsig.experiment", "solve_order1", "goursat.solve_order1", _order1_attrs),
)


# The memory probe reruns one call under tracemalloc, which slows the row
# sweep about 30-fold, so it takes the largest call of at most this many cells.
PROBE_CELLS = 4096


class Tracer:
    """In-memory span recorder.

    For every span name with a ``cells`` attribute it also keeps the
    function and arguments of its largest call of at most PROBE_CELLS cells
    (ties go to the higher degree), for the memory probe.
    """

    def __init__(self):
        self.spans = []          # [name, start, end, parent index, attrs]
        self._stack = []
        self.largest = {}        # name -> ((cells, degree), fn, args, kwargs)

    @contextmanager
    def span(self, name, **attrs):
        record = [name, time.perf_counter(), None,
                  self._stack[-1] if self._stack else -1, attrs]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        try:
            yield
        finally:
            record[2] = time.perf_counter()
            self._stack.pop()

    def wrap(self, name, fn, attrs_of):
        def traced(*args, **kwargs):
            attrs = attrs_of(*args, **kwargs)
            if attrs.get("cells", PROBE_CELLS + 1) <= PROBE_CELLS:
                key = (attrs["cells"], attrs.get("degree", 0))
                if key > self.largest.get(name, ((-1, 0),))[0]:
                    self.largest[name] = (key, fn, args, kwargs)
            with self.span(name, **attrs):
                return fn(*args, **kwargs)
        return traced

    @contextmanager
    def installed(self):
        """Rebind every name of BINDINGS that exists; restore on exit."""
        saved = []
        try:
            for module_name, attr, span_name, attrs_of in BINDINGS:
                module = importlib.import_module(module_name)
                fn = getattr(module, attr, None)
                if fn is None:
                    continue
                saved.append((module, attr, fn))
                setattr(module, attr, self.wrap(span_name, fn, attrs_of))
            yield
        finally:
            for module, attr, fn in saved:
                setattr(module, attr, fn)

    def peak_alloc_mb(self, name) -> float:
        """tracemalloc peak, in MB, of one rerun of the probe call of a span;
        0 when no call was small enough."""
        if name not in self.largest:
            return 0.0
        _, fn, args, kwargs = self.largest[name]
        tracemalloc.start()
        try:
            fn(*args, **kwargs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        return peak / 2**20

    def write(self, path: Path, header: dict) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        doc = dict(header, spans=self.spans)
        path.write_text(json.dumps(doc) + "\n", encoding="utf-8")


def layer_metrics(tracer: Tracer, rounds: int, distinct_segments: int) -> dict:
    """Per-round layer figures from the spans of `rounds` traced rounds.

    Spans named ``oracle.*`` come from the checks, which run once, so their
    figures are per run.
    """
    spans = tracer.spans
    child = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start

    def pick(name, where=lambda attrs: True):
        return [(end - start, k, attrs) for k, (n, start, end, _, attrs) in enumerate(spans)
                if n == name and where(attrs)]

    def busy(name, where=lambda attrs: True):
        return sum(dur for dur, _, _ in pick(name, where))

    def self_s(name):
        return sum(dur - child[k] for dur, k, _ in pick(name)) / rounds

    def rate(count, seconds):
        return count / seconds if seconds > 0 else 0.0

    def sweep(prefix, name, where=lambda attrs: True):
        found = pick(name, where)
        cells = sum(a["cells"] for _, _, a in found)
        s = busy(name, where)
        out[f"{prefix}.calls"] = (len(found) / rounds, "count")
        out[f"{prefix}.cells"] = (cells / rounds, "count")
        out[f"{prefix}.s"] = (s / rounds, "s")
        out[f"{prefix}.cells_per_s"] = (rate(cells, s), "1/s")

    out = {}
    sweep("goursat.solve.deg1", "goursat.solve", lambda a: a["degree"] == 1)
    sweep("goursat.solve.deg2plus", "goursat.solve", lambda a: a["degree"] >= 2)
    out["goursat.solve.peak_alloc_mb"] = (tracer.peak_alloc_mb("goursat.solve"), "MB")
    sweep("goursat.solve_order1", "goursat.solve_order1")

    found = pick("lift.build_pab")
    segments = sum(a["segments"] for _, _, a in found)
    s = busy("lift.build_pab")
    out["lift.build_pab.calls"] = (len(found) / rounds, "count")
    out["lift.build_pab.s"] = (s / rounds, "s")
    out["lift.build_pab.segments"] = (segments / rounds, "count")
    out["lift.build_pab.segments_per_s"] = (rate(segments, s), "1/s")
    out["lift.reads_per_segment"] = (segments / rounds / distinct_segments, "1")

    op_s = busy("cli")
    for name in ("goursat.solve", "goursat.solve_order1", "lift.build_pab"):
        out[f"{name}.share_pct"] = (100.0 * rate(busy(name), op_s), "%")
    out["experiment.gram_matrix.self_s"] = (self_s("experiment.gram_matrix"), "s")
    out["experiment.convergence_experiment.self_s"] = (
        self_s("experiment.convergence_experiment"), "s")
    out["cli.self_s"] = (self_s("cli"), "s")
    out["oracle.direct_truncated_kernel.calls"] = (
        float(len(pick("oracle.direct_truncated_kernel"))), "count")
    out["oracle.direct_truncated_kernel.s"] = (float(busy("oracle.direct_truncated_kernel")), "s")
    return out


def overhead_pct(untraced: list, traced: list) -> float:
    """Median traced round time over median untraced round time, as a
    percentage above 100."""
    return 100.0 * (statistics.median(traced) / statistics.median(untraced) - 1.0)
