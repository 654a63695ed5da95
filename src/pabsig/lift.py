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

All intervals of a path are lifted at once, level by level.  Multiplying
a signature by the exponential of a segment's level-1 increment is fused
into one Horner product per level, so exp(delta) is never formed (as in
Signatory, Kidger & Lyons 2021).  The product at every segment position of
every interval is formed in a few batched numpy calls per chunk of
positions (a chunk holds at most tensors._BATCH_VALUES values), and one
cumulative sum along the positions turns them into the level at each
position.  It adds in the same order as multiplying one segment after the
other, so the bits are those of the sequential product.  One batched
logarithm follows.  Overflow raises NumericError instead of returning
non-finite coefficients.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .tensors import (
    _BATCH_VALUES,
    ShapeMismatchError,
    TruncTensor,
    _finite,
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
    are bit for bit the degree-m log-signature.  The cut goes through the
    constructor, which copies and checks it like any other path.
    """
    return PiecewiseAbelianPath(p.dim, m, p.partition, p.increments[:, :tensor_dim(p.dim, m)])


def _chen(d: int, m: int, deltas: np.ndarray, bounds: np.ndarray) -> np.ndarray:
    """Signatures of consecutive runs of linear segments, one row per run.

    Run i is segments bounds[i] .. bounds[i+1]-1 of `deltas` (shape
    (n_segments, d)) and must hold at least one.  Multiplying by exp(delta)
    at step position t changes level n by a Horner product of delta with
    the lower levels a_j(t-1) before the step:

        level n += (...((delta/n + a_1) (x) delta/(n-1) + a_2) ... + a_{n-1}) (x) delta/1

    with the scalar slot a_0 = 1, which the product keeps exact.  Runs are
    sorted longest first and their positions cut into chunks, each within
    _BATCH_VALUES values of working set.  A chunk gathers the increments of
    the runs still going at its first position into one (d, runs, steps)
    array, zero past each run's end; the run and step axes come last, so
    each broadcast product runs long contiguous inner loops.  Level by level
    from n = 1, it forms the product at every position of the chunk at
    once, from the lower levels found before, and one np.add.accumulate
    along the steps, started from each run's level n before the chunk,
    gives level n at every position.  The bits are those of
    tests/helpers.chen_steps, which multiplies one position at a time:
    accumulate adds in sequence, exactly as the in-place updates did, and a
    zero increment past a run's end adds a product of +-0 to a sum that
    started at +0, which leaves it unchanged.  A lift by _exp and the
    running product of tensors._partials instead was 3.7x slower.  When
    every run is one segment (a partition of every sample), the sort, the
    gather and the accumulate are skipped: level n is the same Horner
    product from a_j = +0, formed for all runs at once, in 0.41x the time
    at d=2, m=1, 128 segments (0.46x at d=3, m=3).
    """
    offs = _offsets(d, m)
    counts = bounds[1:] - bounds[:-1]
    if (counts == 1).all():
        # one segment per run: the Horner products from a_j = +0, as below
        runs, delta = len(counts), deltas[bounds[:-1]]
        out = np.zeros((runs, offs[-1]))
        out[:, 0] = 1.0
        for n in range(1, m + 1):
            acc = np.ones((runs, 1))
            for k in range(n, 0, -1):
                acc = (acc[:, :, None] * (delta / k)[:, None]).reshape(runs, -1) + 0.0
            out[:, offs[n]:offs[n + 1]] = acc
        return out
    order = np.argsort(-counts, kind="stable")
    starts, counts = bounds[:-1][order], counts[order]
    divisors = np.arange(1, m + 1)[:, None, None, None]
    one = np.ones((1, 1, 2))                    # a_0 = 1 at every position
    sig = np.zeros((offs[-1], len(starts)))     # coefficient-major state
    sig[0] = 1.0
    s, total = 0, int(counts[0])
    while s < total:
        live = int(np.count_nonzero(counts > s))
        width = min(total - s, max(1, _BATCH_VALUES // (live * offs[-1])))
        pos = np.arange(s, s + width)
        going = pos < counts[:live, None]
        steps = deltas.T[:, np.where(going, starts[:live, None] + pos, 0)]
        scaled = np.where(going, steps, 0.0) / divisors   # [k-1] = delta/k
        # levels[j][..., t] is level j after t steps of the chunk, so
        # levels[j][..., :-1] holds a_j(t-1) at every position t
        levels = [one]
        for n in range(1, m + 1):
            lev = np.empty((d ** (n - 1), d, live, width + 1))
            lev[..., 0] = sig[offs[n]:offs[n + 1], :live].reshape(-1, d, live)
            acc = levels[0][..., :-1]
            for j in range(1, n):
                acc = ((acc[:, None] * scaled[n - j]).reshape(-1, live, width)
                       + levels[j][..., :-1])
            np.multiply(acc[:, None], scaled[0], out=lev[..., 1:])
            lev = lev.reshape(-1, live, width + 1)
            np.add.accumulate(lev, axis=2, out=lev)
            sig[offs[n]:offs[n + 1], :live] = lev[..., -1]
            levels.append(lev)
        s += width
    out = np.empty((len(starts), offs[-1]))
    out[order] = sig.T
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
    what = "log-signature" if log else "signature"
    return _finite(out, f"degree-{m} {what} overflows: path increments are too large")


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


@np.errstate(over="ignore", invalid="ignore")
def _partial_rows(p: PiecewiseAbelianPath) -> np.ndarray:
    """tensors._partials of the increments of p, G_i - 1 for i = 0..N;
    raises NumericError where they overflow."""
    return _finite(_partials(p.dim, p.degree, p.increments),
                   f"degree-{p.degree} partial signature overflows: path increments are too large")


def pab_partial_signatures(p: PiecewiseAbelianPath) -> List[TruncTensor]:
    """Running products G_i = exp(L_0) (x) ... (x) exp(L_{i-1}), G_0 = 1;
    raises NumericError where they overflow."""
    rows = _partial_rows(p)
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
