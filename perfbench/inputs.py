"""Seeded input series for the benchmark workloads.

Every generator is a pure function of its arguments and a numpy Generator,
so one seed gives one set of inputs.  The package only ever sees the CSV
files written from these series.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from pabsig import TimeSeries, simulate_bm

# Base paths: 8 straight pieces in the plane, total 1-variation 0.8, each
# piece cut into 16 collinear steps of a retraced series.
BASE_PIECES = 8
BASE_VARIATION = 0.8
STEPS_PER_PIECE = 16
# Excursions: half-lengths uniform in 1..24; 1-variation per unit amplitude.
MAX_HALF = 24
EXCURSION_VARIATION = 40.0


def brownian_set(rng: np.random.Generator, count: int, d: int, steps: int):
    """count Brownian series of `steps` steps on [0, 1], one child seed each."""
    seeds = rng.integers(0, 2**63 - 1, size=count)
    return [simulate_bm(d, steps, 1.0, int(s)) for s in seeds]


def base_path(rng: np.random.Generator) -> np.ndarray:
    """Increments of a planar path of BASE_PIECES straight pieces whose
    1-variation is exactly BASE_VARIATION, shape (BASE_PIECES, 2)."""
    steps = rng.standard_normal((BASE_PIECES, 2))
    return steps * (BASE_VARIATION / np.linalg.norm(steps, axis=1).sum())


def retraced_series(rng: np.random.Generator, base: np.ndarray, samples: int,
                    amplitude: float = 1.0) -> TimeSeries:
    """Base path sampled at `samples` points with palindromic excursions.

    Each base piece is cut into STEPS_PER_PIECE equal collinear steps.
    All other steps belong to excursions: an excursion runs v1..vk out and
    -vk..-v1 back (k uniform in 1..MAX_HALF), so its signature is exactly 1
    and the series has the signature of the base path.  Excursions sit
    between base steps at random places; their steps have Gaussian
    directions, scaled so that all excursions together have 1-variation
    amplitude * EXCURSION_VARIATION.
    """
    d = base.shape[1]
    base_steps = np.repeat(base / STEPS_PER_PIECE, STEPS_PER_PIECE, axis=0)
    budget = samples - 1 - len(base_steps)
    if budget % 2:
        # excursions take an even number of steps: halve the first base step
        base_steps = np.vstack([base_steps[:1] / 2, base_steps[:1] / 2, base_steps[1:]])
        budget -= 1
    if budget < 2:
        raise ValueError(f"{samples} samples leave no room for excursions")
    halves = []
    left = budget // 2
    while left > 0:
        k = min(int(rng.integers(1, MAX_HALF + 1)), left)
        halves.append(k)
        left -= k
    outs = [rng.standard_normal((k, d)) for k in halves]
    scale = amplitude * EXCURSION_VARIATION / (
        2.0 * sum(np.linalg.norm(o, axis=1).sum() for o in outs))
    excursions = [np.vstack([o * scale, -o[::-1] * scale]) for o in outs]
    n_base = len(base_steps)
    # slot s puts an excursion right before base step s (slot n_base: at the end)
    slots = np.sort(rng.integers(0, n_base + 1, size=len(excursions)))
    blocks = []
    e = 0
    for s in range(n_base + 1):
        while e < len(excursions) and slots[e] == s:
            blocks.append(excursions[e])
            e += 1
        if s < n_base:
            blocks.append(base_steps[s:s + 1])
    steps = np.vstack(blocks)
    values = np.vstack([np.zeros(d), np.cumsum(steps, axis=0)])
    return TimeSeries(np.linspace(0.0, 1.0, samples), values)


def base_series(base: np.ndarray) -> TimeSeries:
    """The base path itself, one sample per kink."""
    values = np.vstack([np.zeros(base.shape[1]), np.cumsum(base, axis=0)])
    return TimeSeries(np.linspace(0.0, 1.0, len(values)), values)


def write_csv(ts: TimeSeries, path: Path) -> None:
    """Series CSV with header time,x1..xd and repr-exact floats."""
    d = ts.dim
    lines = ["time," + ",".join(f"x{i}" for i in range(1, d + 1))]
    for t, row in zip(ts.times, ts.values):
        lines.append(",".join(repr(float(v)) for v in (t, *row)))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
