"""Brownian-motion convergence harness and Gram matrices.

The experiment measures how well the kernel of two coarsely described paths
approximates a fine reference.  Pairs of Brownian paths are sampled on a
fine uniform grid; the reference kernel is the degree-1 solve on that grid.
Each (degree m, coarsening factor k) cell describes the same fine paths at
degree m on the subgrid of every k-th point and records the absolute
deviation from the reference.  A path is lifted once per factor, at the
highest degree of the experiment; the degree-m description is the leading
part of that lift, the same bits a degree-m lift gives, since no level of a
truncated signature or of its logarithm reads a higher level.  Results
aggregate over a fixed set of path pairs that is reused across all cells,
so columns of the table are directly comparable.

Randomness comes from numpy's default_rng (PCG64) seeded through a
SeedSequence tree, which makes every entry point reproducible for a given
seed within this build; bit equality across numpy versions or languages is
not promised.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field, fields
from typing import IO, List, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from .goursat import _IDENTITY_SLACK, kernel, solve, solve_order1
from .lift import TimeSeries, _leading, build_pab, thin_partition
from .tensors import NumericError, ShapeMismatchError

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


def _whole(name: str, value, low: int) -> int:
    """value as an int; it must be an integer (not a bool) of at least low."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < low:
        raise ValueError(f"{name} must be an integer >= {low}, got {value!r}")
    return int(value)


@dataclass(frozen=True)
class ExperimentConfig:
    """Parameters of the convergence experiment.

    Counts, factors, degrees and the seed are integers (not bools), the seed
    >= 0 and the rest >= 1; horizon is finite and > 0.  factors and degrees
    are normalized to ascending tuples, and none may repeat; every factor
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
        for name, low in (("dim", 1), ("n_fine", 1), ("repetitions", 1), ("seed", 0)):
            object.__setattr__(self, name, _whole(name, getattr(self, name), low))
        h = self.horizon
        if isinstance(h, bool) or not isinstance(h, numbers.Real) or not 0 < h < math.inf:
            raise ValueError(f"horizon must be finite and > 0, got {h!r}")
        factors = tuple(sorted(_whole("factor", k, 1) for k in self.factors))
        degrees = tuple(sorted(_whole("degree", m, 1) for m in self.degrees))
        if not factors or not degrees:
            raise ValueError("factors and degrees must be non-empty")
        for name, values in (("factor", factors), ("degree", degrees)):
            if len(set(values)) < len(values):
                raise ValueError(f"{name} {max(values, key=values.count)} is repeated")
        for k in factors:
            if self.n_fine % k:
                raise ValueError(f"factor {k} does not divide n_fine={self.n_fine}")
        object.__setattr__(self, "factors", factors)
        object.__setattr__(self, "degrees", degrees)

    @classmethod
    def from_mapping(cls, data: Mapping) -> "ExperimentConfig":
        """Build from a parsed JSON object; unknown keys are rejected."""
        unknown = set(data) - {f.name for f in fields(cls)}
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        return cls(**data)


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
    return abs(reference - kernel(ts_x, ts_y, m, thin_partition(ts_x, k), thin_partition(ts_y, k)))


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
    deterministic function of the config.  Each path is lifted once per
    factor, at the highest degree, and every degree takes its part of that
    lift; each error equals error_estimate() for its cell bit for bit.
    """
    pairs = _sample_pairs(cfg)
    refs = [reference_value(x, y) for x, y in pairs]
    top = cfg.degrees[-1]
    errors = {(m, k): [] for m in cfg.degrees for k in cfg.factors}
    for k in cfg.factors:
        for (x, y), ref in zip(pairs, refs):
            px = build_pab(x, thin_partition(x, k), top)
            py = build_pab(y, thin_partition(y, k), top)
            for m in cfg.degrees:
                value = solve(_leading(px, m), _leading(py, m)).value
                errors[m, k].append(abs(ref - value))
    records = []
    for (m, k), cell in errors.items():
        cell = np.array(cell)
        mean = float(cell.mean())
        if cell.size > 1:
            stderr = float(cell.std(ddof=1) / math.sqrt(cell.size))
        else:
            stderr = 0.0
        records.append(ErrorRecord(m, k, mean, stderr, cell))
    return records


def gram_matrix(dataset: Sequence[TimeSeries], m: int, every: int = 1) -> np.ndarray:
    """Pairwise kernel matrix of a dataset of series with a shared dim.

    Partitions take every-th sample point (final point always kept).
    Entries are computed for i <= j and mirrored.  A diagonal entry below
    1, or an entry above the Cauchy-Schwarz bound sqrt(K_ii K_jj), by more
    than the relative slack goursat._IDENTITY_SLACK raises NumericError:
    the exact kernel satisfies both.
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
    i = int(np.diag(gram).argmin())
    if gram[i, i] < 1.0 - _IDENTITY_SLACK:
        raise NumericError(f"kernel of series {i} with itself is {float(gram[i, i])!r}, below 1")
    root = np.sqrt(np.diag(gram))
    i, j = divmod(int((np.abs(gram) / np.outer(root, root)).argmax()), n)
    if abs(gram[i, j]) > root[i] * root[j] * (1.0 + _IDENTITY_SLACK):
        raise NumericError(f"kernel of series {i} and {j} exceeds the Cauchy-Schwarz bound")
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
