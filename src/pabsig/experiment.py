"""Brownian-motion convergence harness and Gram matrices.

The experiment measures how well the kernel of two coarsely described paths
approximates a fine reference.  Pairs of Brownian paths are sampled on a
fine uniform grid; the reference kernel is the degree-1 solve on that grid.
Each (degree m, coarsening factor k) cell then lifts the same fine paths to
a degree-m description on the subgrid of every k-th point and records the
absolute deviation from the reference.  Results aggregate over a fixed set
of path pairs that is reused across all cells, so columns of the table are
directly comparable.

Randomness comes from numpy's default_rng (PCG64) seeded through a
SeedSequence tree, which makes every entry point reproducible for a given
seed within this build; bit equality across numpy versions or languages is
not promised.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import IO, List, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from .goursat import solve, solve_order1
from .lift import TimeSeries, build_pab, thin_partition
from .tensors import ShapeMismatchError

__all__ = [
    "ExperimentConfig",
    "ErrorRecord",
    "simulate_bm",
    "reference_value",
    "error_estimate",
    "convergence_experiment",
    "gram_matrix",
    "write_records_csv",
    "write_pair_errors_csv",
]


@dataclass(frozen=True)
class ExperimentConfig:
    """Parameters of the convergence experiment.

    factors and degrees are normalized to ascending order; every factor
    must divide n_fine so coarse grids are exact subgrids.
    """

    dim: int = 2
    n_fine: int = 1024
    factors: Tuple[int, ...] = (4, 8, 16, 32, 64)
    degrees: Tuple[int, ...] = (1, 2, 3, 4)
    repetitions: int = 20
    horizon: float = 1.0
    seed: int = 0

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError(f"dim must be >= 1, got {self.dim}")
        if self.n_fine < 1:
            raise ValueError(f"n_fine must be >= 1, got {self.n_fine}")
        if self.horizon <= 0:
            raise ValueError(f"horizon must be > 0, got {self.horizon}")
        if self.repetitions < 1:
            raise ValueError(f"repetitions must be >= 1, got {self.repetitions}")
        factors = tuple(sorted(int(k) for k in self.factors))
        degrees = tuple(sorted(int(m) for m in self.degrees))
        if not factors or not degrees:
            raise ValueError("factors and degrees must be non-empty")
        for k in factors:
            if k < 1 or self.n_fine % k:
                raise ValueError(f"factor {k} does not divide n_fine={self.n_fine}")
        if degrees[0] < 1:
            raise ValueError(f"degrees must be >= 1, got {degrees[0]}")
        object.__setattr__(self, "factors", factors)
        object.__setattr__(self, "degrees", degrees)

    @classmethod
    def from_mapping(cls, data: Mapping) -> "ExperimentConfig":
        """Build from a parsed JSON object; unknown keys are rejected."""
        known = {"dim", "n_fine", "factors", "degrees", "repetitions",
                 "horizon", "seed"}
        unknown = set(data) - known
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        kwargs = dict(data)
        for key in ("factors", "degrees"):
            if key in kwargs:
                kwargs[key] = tuple(kwargs[key])
        return cls(**kwargs)


@dataclass(frozen=True)
class ErrorRecord:
    """Aggregate of one (degree, factor) cell over all path pairs."""

    degree: int
    factor: int
    mean_error: float
    stderr: float
    errors: np.ndarray = field(repr=False)


def simulate_bm(d: int, n: int, horizon: float,
                seed: Union[int, np.random.SeedSequence]) -> TimeSeries:
    """Brownian path on a uniform grid of n steps over [0, horizon].

    Increments are independent centered Gaussians with variance horizon/n
    per coordinate, drawn from numpy's default_rng (PCG64).
    """
    if n < 1:
        raise ValueError(f"need at least one step, got {n}")
    rng = np.random.default_rng(seed)
    steps = rng.standard_normal((n, d)) * math.sqrt(horizon / n)
    values = np.vstack([np.zeros(d), np.cumsum(steps, axis=0)])
    return TimeSeries(np.linspace(0.0, horizon, n + 1), values)


def reference_value(ts_x: TimeSeries, ts_y: TimeSeries) -> float:
    """Degree-1 kernel on the full sample grids (the fine solution)."""
    return solve_order1(ts_x.increments(), ts_y.increments()).value


def error_estimate(ts_x: TimeSeries, ts_y: TimeSeries, m: int, k: int,
                   reference: Optional[float] = None) -> float:
    """Deviation of the degree-m, factor-k coarse kernel from the reference.

    The reference can be passed in to avoid recomputation; by default it is
    computed here, so for m=1, k=1 the two sides run the identical scalar
    solve and the result is exactly 0.
    """
    nx, ny = ts_x.n_segments, ts_y.n_segments
    if k < 1 or nx % k or ny % k:
        raise ValueError(f"factor {k} does not divide grid sizes {nx}, {ny}")
    if reference is None:
        reference = reference_value(ts_x, ts_y)
    px = build_pab(ts_x, thin_partition(ts_x, k), m)
    py = build_pab(ts_y, thin_partition(ts_y, k), m)
    return abs(reference - solve(px, py).value)


def _sample_pairs(cfg: ExperimentConfig) -> List[Tuple[TimeSeries, TimeSeries]]:
    root = np.random.SeedSequence(cfg.seed)
    pairs = []
    for child in root.spawn(cfg.repetitions):
        sx, sy = child.spawn(2)
        pairs.append((
            simulate_bm(cfg.dim, cfg.n_fine, cfg.horizon, sx),
            simulate_bm(cfg.dim, cfg.n_fine, cfg.horizon, sy),
        ))
    return pairs


def convergence_experiment(cfg: ExperimentConfig) -> List[ErrorRecord]:
    """One ErrorRecord per (degree, factor), degrees outer, ascending.

    The same repetitions are reused across all cells; the whole run is a
    deterministic function of the config.
    """
    pairs = _sample_pairs(cfg)
    refs = [reference_value(x, y) for x, y in pairs]
    records = []
    for m in cfg.degrees:
        for k in cfg.factors:
            errors = np.array([
                error_estimate(x, y, m, k, reference=r)
                for (x, y), r in zip(pairs, refs)
            ])
            mean = float(errors.mean())
            if errors.size > 1:
                stderr = float(errors.std(ddof=1) / math.sqrt(errors.size))
            else:
                stderr = 0.0
            records.append(ErrorRecord(m, k, mean, stderr, errors))
    return records


def gram_matrix(dataset: Sequence[TimeSeries], m: int, every: int = 1) -> np.ndarray:
    """Pairwise kernel matrix of a dataset of series with a shared dim.

    Partitions take every-th sample point (final point always kept).
    Entries are computed for i <= j and mirrored.
    """
    if not dataset:
        raise ValueError("empty dataset")
    d = dataset[0].dim
    for i, ts in enumerate(dataset):
        if ts.dim != d:
            raise ShapeMismatchError(
                f"series {i} has dim {ts.dim}, expected {d}"
            )
    pabs = [build_pab(ts, thin_partition(ts, every), m) for ts in dataset]
    n = len(pabs)
    gram = np.empty((n, n))
    for i in range(n):
        for j in range(i, n):
            gram[i, j] = gram[j, i] = solve(pabs[i], pabs[j]).value
    return gram


def write_records_csv(records: Sequence[ErrorRecord], out: IO[str]) -> None:
    """Aggregate table: one row per (degree, factor), shortest round-trip
    float formatting, byte-stable for identical records."""
    out.write("degree,factor,mean_error,stderr,pairs\n")
    for r in records:
        out.write(f"{r.degree},{r.factor},{float(r.mean_error)!r},"
                  f"{float(r.stderr)!r},{r.errors.size}\n")


def write_pair_errors_csv(records: Sequence[ErrorRecord], out: IO[str]) -> None:
    """Long-format table: one row per (degree, factor, pair)."""
    out.write("degree,factor,pair,error\n")
    for r in records:
        for i, e in enumerate(r.errors):
            out.write(f"{r.degree},{r.factor},{i},{float(e)!r}\n")
