"""Lifting sampled paths to truncated signatures and log-linear descriptions.

A sampled path is interpolated piecewise linearly.  Its truncated signature
over a window is the ordered product of per-segment exponentials (Chen's
identity), and the truncated logarithm of that product summarizes the window
as a single Lie element, a TruncTensor with scalar slot 0.  A
piecewise-abelian path fixes a partition and keeps one such log-signature
per interval, as the rows of one (n_intervals, N(d, m)) array; between
partition points the description evolves log-linearly.  Degree 1 recovers
the piecewise linear path itself.  The partial signatures
exp(L_0) (x) ... (x) exp(L_{i-1}) of such a path come from
tensors._partials, which also gives the Goursat solver its boundary data.

All intervals of a path are lifted at once.  One batched kernel steps
through segment positions and multiplies every interval that still has a
segment at that position by the exponential of its level-1 increment;
the multiply is fused into one Horner pass per level, so exp(delta) is
never formed (as in Signatory, Kidger & Lyons 2021).  One batched
logarithm follows.  Overflow raises NumericError instead of returning
non-finite coefficients.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .tensors import (
    NumericError,
    ShapeMismatchError,
    TruncTensor,
    _log,
    _offsets,
    _partials,
    tensor_dim,
)

__all__ = [
    "TimeSeries",
    "PiecewiseAbelianPath",
    "segment_signature",
    "chen_signature",
    "log_signature",
    "build_pab",
    "pab_partial_signatures",
    "thin_partition",
]


@dataclass(frozen=True, eq=False)
class TimeSeries:
    """Strictly increasing timestamps with d-dimensional samples.

    The series keeps read-only float64 copies of both arrays, so later
    writes to the arrays passed in do not reach it.
    """

    times: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        times = np.array(self.times, dtype=np.float64)
        values = np.array(self.values, dtype=np.float64)
        if times.ndim != 1 or times.size < 2:
            raise ValueError(f"need at least 2 samples, got times shape {times.shape}")
        if values.ndim != 2 or values.shape[0] != times.size:
            raise ValueError(
                f"values shape {values.shape} does not match {times.size} timestamps"
            )
        if not (np.all(np.isfinite(times)) and np.all(np.isfinite(values))):
            raise ValueError("non-finite sample")
        if not np.all(np.diff(times) > 0):
            raise ValueError("timestamps must be strictly increasing")
        times.flags.writeable = values.flags.writeable = False
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "values", values)

    @property
    def dim(self) -> int:
        return self.values.shape[1]

    @property
    def n_segments(self) -> int:
        return self.times.size - 1

    def increments(self) -> np.ndarray:
        """First differences of the samples, shape (n_segments, dim)."""
        return np.diff(self.values, axis=0)

    def locate(self, t):
        """Index of a sample time, or an array of indices for an array of
        times; raises on the first time that is not on the grid."""
        t = np.asarray(t, dtype=np.float64)
        idx = np.searchsorted(self.times, t)
        off = self.times[np.minimum(idx, self.times.size - 1)] != t
        if off.any():
            raise ValueError(f"time {float(t[off][0])!r} is not a sample time")
        return int(idx) if idx.ndim == 0 else idx


def _partition(partition) -> np.ndarray:
    """A float64 copy of partition points, checked to be at least 2 and
    strictly increasing."""
    part = np.array(partition, dtype=np.float64)
    if part.ndim != 1 or part.size < 2:
        raise ValueError("partition needs at least 2 points")
    if not np.all(np.diff(part) > 0):
        raise ValueError("partition must be strictly increasing")
    return part


@dataclass(frozen=True, eq=False)
class PiecewiseAbelianPath:
    """Partition times plus one interval log-signature per interval.

    increments holds the log-signatures as rows, shape
    (n_intervals, N(d, m)): row i describes the path over
    [partition[i], partition[i+1]] and its scalar column is exactly 0.  The
    path keeps read-only float64 copies of both arrays, so later writes to
    the arrays passed in do not reach it.
    """

    dim: int
    degree: int
    partition: np.ndarray
    increments: np.ndarray

    def __post_init__(self):
        part = _partition(self.partition)
        incs = np.array(self.increments, dtype=np.float64)
        n = tensor_dim(self.dim, self.degree)
        if incs.ndim != 2 or incs.shape[1] != n:
            raise ShapeMismatchError(
                f"increments have shape {incs.shape}, path (d={self.dim}, "
                f"m={self.degree}) needs rows of {n} coefficients"
            )
        if len(incs) != part.size - 1:
            raise ValueError(
                f"{len(incs)} increments for {part.size - 1} intervals"
            )
        if not np.all(np.isfinite(incs)):
            raise ValueError("non-finite increment coefficient")
        if np.any(incs[:, 0] != 0.0):
            raise ValueError("log-signatures must have scalar slot 0")
        part.flags.writeable = incs.flags.writeable = False
        object.__setattr__(self, "partition", part)
        object.__setattr__(self, "increments", incs)

    @property
    def n_intervals(self) -> int:
        return self.partition.size - 1


def _leading(p: PiecewiseAbelianPath, m: int) -> PiecewiseAbelianPath:
    """The degree-m lift inside a lift p of degree at least m.

    Level n of an interval's signature and of its logarithm reads only
    levels up to n, so the first tensor_dim(d, m) coefficients of each row
    are bit for bit the degree-m log-signature.  The path shares p's
    checked, read-only arrays (its increments are a view of p's), so the
    constructor's copies and checks are skipped.
    """
    path = object.__new__(PiecewiseAbelianPath)
    for name, value in (("dim", p.dim), ("degree", m), ("partition", p.partition),
                        ("increments", p.increments[:, :tensor_dim(p.dim, m)])):
        object.__setattr__(path, name, value)
    return path


def _chen(d: int, m: int, deltas: np.ndarray, bounds: np.ndarray) -> np.ndarray:
    """Signatures of consecutive runs of linear segments, one row per run.

    Run i is segments bounds[i] .. bounds[i+1]-1 of `deltas` (shape
    (n_segments, d)) and must hold at least one.  Rows are ordered by
    segment count, longest first, so that at position s the runs still
    going form a leading slice; finished rows are left untouched.  Each step
    multiplies by exp(delta) in place, top level first, by Horner:

        level n += (...((delta/n + a_1) (x) delta/(n-1) + a_2) ... + a_{n-1}) (x) delta/1

    using the scalar slot a_0 = 1, which the product keeps exact; a lift by
    _exp and the running product of tensors._partials instead was 3.7x
    slower.
    """
    offs = _offsets(d, m)
    counts = np.diff(bounds)
    order = np.argsort(-counts, kind="stable")
    starts, counts = bounds[:-1][order], counts[order]
    scaled = deltas / np.arange(1, m + 1)[:, None, None]   # [k-1] = delta/k
    # runs still going at each position s, and the segments they take there,
    # position after position: one gather of as many rows as there are segments
    lives = len(counts) - np.searchsorted(counts[::-1], np.arange(counts[0]), side="right")
    steps = scaled[:, np.concatenate([starts[:live] + s for s, live in enumerate(lives)])]
    sig = np.zeros((len(starts), offs[-1]))
    sig[:, 0] = 1.0
    levels = [sig[:, offs[n]:offs[n + 1]] for n in range(m + 1)]
    for live, end in zip(lives.tolist(), np.cumsum(lives).tolist()):
        step = steps[:, end - live:end]
        for n in range(m, 0, -1):
            acc = step[n - 1]
            for j in range(1, n):
                acc = ((acc + levels[j][:live])[:, :, None]
                       * step[n - j - 1][:, None, :]).reshape(live, -1)
            levels[n][:live] += acc
    out = np.empty_like(sig)
    out[order] = sig
    return out


def _lifted(d: int, m: int, deltas: np.ndarray, bounds: Sequence[int],
            log: bool) -> np.ndarray:
    """Batched signatures (or their logarithms) of runs of segments, as in
    _chen; raises NumericError where the truncated series overflow."""
    if m < 1:
        raise ValueError(f"degree must be >= 1, got {m}")
    with np.errstate(over="ignore", invalid="ignore"):
        out = _chen(d, m, deltas, np.asarray(bounds))
        if log:
            out = _log(d, m, out)
    if not np.all(np.isfinite(out)):
        what = "log-signature" if log else "signature"
        raise NumericError(
            f"degree-{m} {what} overflows: path increments are too large"
        )
    return out


def segment_signature(delta: Sequence[float], m: int) -> TruncTensor:
    """Signature of one linear segment: exp of the level-1 increment."""
    delta = np.asarray(delta, dtype=np.float64)
    if delta.ndim != 1 or delta.size < 1:
        raise ValueError(f"increment must be a vector, got shape {delta.shape}")
    d = delta.size
    return TruncTensor(d, m, _lifted(d, m, delta[None], [0, 1], log=False)[0])


def _window_lift(ts: TimeSeries, window: Optional[Tuple[float, float]], m: int,
                 log: bool) -> TruncTensor:
    """Signature, or its logarithm, over a window (s, t) of sample times;
    None is the whole series."""
    i0, i1 = 0, ts.times.size - 1
    if window is not None:
        s, t = window
        if not s < t:
            raise ValueError(f"window must satisfy s < t, got {window}")
        i0, i1 = ts.locate(s), ts.locate(t)
    deltas = np.diff(ts.values[i0:i1 + 1], axis=0)
    return TruncTensor(ts.dim, m, _lifted(ts.dim, m, deltas, [0, i1 - i0], log)[0])


def chen_signature(ts: TimeSeries, window: Optional[Tuple[float, float]], m: int) -> TruncTensor:
    """Truncated signature over a window whose endpoints are sample times.

    Multiplicative over concatenation: the product of the signatures of
    [s, u] and [u, t] equals the signature of [s, t] for any interior
    sample time u.
    """
    return _window_lift(ts, window, m, log=False)


def log_signature(ts: TimeSeries, window: Optional[Tuple[float, float]], m: int) -> TruncTensor:
    """Truncated log of the signature over a window of sample times; its
    scalar slot is exactly 0."""
    return _window_lift(ts, window, m, log=True)


def build_pab(ts: TimeSeries, partition: Sequence[float], m: int) -> PiecewiseAbelianPath:
    """Piecewise-abelian description of degree m on a partition.

    Every partition point must be a sample time (no resampling happens
    here), and the partition must span the whole series.
    """
    part = _partition(partition)
    idx = ts.locate(part)
    if idx[0] != 0 or idx[-1] != ts.times.size - 1:
        raise ValueError("partition must cover the whole series")
    logs = _lifted(ts.dim, m, ts.increments(), idx, log=True)
    return PiecewiseAbelianPath(ts.dim, m, part, logs)


def pab_partial_signatures(p: PiecewiseAbelianPath) -> List[TruncTensor]:
    """Running products G_i = exp(L_0) (x) ... (x) exp(L_{i-1}), G_0 = 1."""
    rows = _partials(p.dim, p.degree, p.increments)
    rows[:, 0] = 1.0
    return [TruncTensor(p.dim, p.degree, g) for g in rows]


def thin_partition(ts: TimeSeries, every: int) -> np.ndarray:
    """Every k-th sample time, always keeping the final one."""
    if every < 1:
        raise ValueError(f"subsampling stride must be >= 1, got {every}")
    n = ts.times.size - 1
    idx = list(range(0, n + 1, every))
    if idx[-1] != n:
        idx.append(n)
    return ts.times[idx]
