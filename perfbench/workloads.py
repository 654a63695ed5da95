"""The four benchmark workloads.

A workload writes its inputs from a seeded generator, names the CLI calls
of one round, and checks the outputs of a round.  Every operation is one
``pabsig`` command run in process through ``pabsig.cli.main``.
"""

from __future__ import annotations

import json
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, List, Tuple

import numpy as np

import checks
import inputs
from pabsig import (
    ExperimentConfig,
    TimeSeries,
    build_pab,
    direct_truncated_kernel,
    linear_kernel_closed_form,
    simulate_bm,
    solve,
    solve_order1,
)

# (exit code, stdout, stderr) of one CLI call
Output = Tuple[int, str, str]


@dataclass
class Verdict:
    """Outcome of checking one round."""

    problems: List[str] = field(default_factory=list)
    failed: int = 0                     # operations of the known fault
    rel_errors: List[float] = field(default_factory=list)


@dataclass
class Prepared:
    """Inputs of one workload, written and ready to run."""

    ops: List[List[str]]                # CLI argument lists of one round
    kernels: int                        # kernel values one round computes
    distinct_segments: int              # distinct fine segments in the inputs
    shapes: List[Tuple[int, int]]       # (dim, degree) pairs the round uses
    check: Callable[[List[Output], object], Verdict]


def _exit_problems(out: Output, what: str) -> List[str]:
    code, _, err = out
    return [] if code == 0 else [f"{what} exited {code}: {err.strip()[-300:]}"]


def gram(rng, workdir: Path, *, count: int, dim: int, steps: int, degree: int,
         every: int) -> Prepared:
    """`pabsig gram DIR --check-psd` over `count` Brownian series."""
    series = inputs.brownian_set(rng, count, dim, steps)
    for i, ts in enumerate(series):
        inputs.write_csv(ts, workdir / f"bm_{i:03d}.csv")
    argv = ["gram", str(workdir), "--check-psd"]
    if degree != 1:
        argv += ["--degree", str(degree)]
    if every != 1:
        argv += ["--every", str(every)]

    def check(outputs: List[Output], tracer) -> Verdict:
        (out,) = outputs
        verdict = Verdict(_exit_problems(out, "gram"))
        if verdict.problems:
            return verdict
        matrix = checks.parse_gram(out[1])
        verdict.problems += checks.gram_problems(matrix)
        if degree == 1 and every == 1 and not verdict.problems:
            incs = [ts.increments() for ts in series]
            reference = np.array([[solve_order1(a, b).value for b in incs] for a in incs])
            verdict.problems += checks.order1_problems(matrix, reference)
        return verdict

    return Prepared([argv], count * (count + 1) // 2, count * steps,
                    [(dim, degree)], check)


# The one-dimensional path 0, 30, -30, 30: its increments 30, -60, 60 give
# cell coefficients of 900 to 3600.  In one dimension the signature depends
# only on the total increment, so its kernel with itself is sum c^k/(k!)^2
# with c = 30^2 = 900, that is I0(60).
LARGE_VALUES = (0.0, 30.0, -30.0, 30.0)
LARGE_EXACT_C = (LARGE_VALUES[-1] - LARGE_VALUES[0]) ** 2


def osc_kernel(rng, workdir: Path, *, pairs: int, samples: int, degree: int,
               every: int) -> Prepared:
    """`pabsig kernel X Y` on retraced pairs, plus the large-coefficient case."""
    bases = []
    ops = []
    for p in range(pairs):
        bx, by = inputs.base_path(rng), inputs.base_path(rng)
        bases.append((bx, by))
        for tag, base in (("x", bx), ("y", by)):
            ts = inputs.retraced_series(rng, base, samples)
            inputs.write_csv(ts, workdir / f"osc_{p:02d}_{tag}.csv")
        ops.append(["kernel", str(workdir / f"osc_{p:02d}_x.csv"),
                    str(workdir / f"osc_{p:02d}_y.csv"),
                    "--degree", str(degree), "--every", str(every)])
    large = workdir / "large.csv"
    inputs.write_csv(TimeSeries(np.arange(4.0), np.array(LARGE_VALUES)[:, None]),
                     large)
    ops.append(["kernel", str(large), str(large), "--degree", str(degree)])

    def check(outputs: List[Output], tracer) -> Verdict:
        verdict = Verdict()
        for (bx, by), out in zip(bases, outputs):
            verdict.problems += _exit_problems(out, "kernel")
            if out[0] != 0:
                continue
            with (tracer.span("oracle.direct_truncated_kernel")
                  if tracer is not None else nullcontext()):
                exact = direct_truncated_kernel(inputs.base_series(bx),
                                                inputs.base_series(by), 12)
            value = float(out[1])
            verdict.rel_errors.append(checks.relative_error(value, exact))
            verdict.problems += checks.kernel_problems(value, exact,
                                                       checks.RETRACED_RTOL)
        code, text, _ = outputs[-1]
        exact = linear_kernel_closed_form(LARGE_EXACT_C, 200)
        if code != 0 or checks.kernel_problems(float(text), exact, checks.LARGE_RTOL):
            verdict.failed += 1
        return verdict

    # the large-coefficient path is read twice but has 3 distinct segments
    return Prepared(ops, len(ops), 2 * pairs * (samples - 1) + 3,
                    [(2, degree), (1, degree)], check)


def convergence(rng, workdir: Path, *, repetitions: int, n_fine: int,
                factors: Tuple[int, ...], degrees: Tuple[int, ...],
                recheck: Tuple[Tuple[int, int], ...]) -> Prepared:
    """`pabsig convergence --config CFG --seed S` on Brownian pairs."""
    seed = int(rng.integers(0, 2**31 - 1))
    config = {"dim": 2, "n_fine": n_fine, "factors": list(factors),
              "degrees": list(degrees), "repetitions": repetitions}
    path = workdir / "config.json"
    path.write_text(json.dumps(config) + "\n", encoding="utf-8")
    cfg = ExperimentConfig.from_mapping(dict(config, seed=seed))

    def check(outputs: List[Output], tracer) -> Verdict:
        (out,) = outputs
        verdict = Verdict(_exit_problems(out, "convergence"))
        if verdict.problems:
            return verdict
        rows = checks.parse_table(out[1])
        verdict.problems += checks.table_problems(rows, degrees, factors, repetitions)
        if verdict.problems:
            return verdict
        # recompute cells from their definition: mean over the experiment's
        # pairs of |fine scalar sweep - degree-m solve on the every-k subgrid|
        pairs = []
        for child in np.random.SeedSequence(seed).spawn(repetitions):
            sx, sy = child.spawn(2)
            pairs.append((simulate_bm(cfg.dim, n_fine, cfg.horizon, sx),
                          simulate_bm(cfg.dim, n_fine, cfg.horizon, sy)))
        fine = [solve_order1(x.increments(), y.increments()).value for x, y in pairs]
        reported = {(r["degree"], r["factor"]): r["mean_error"] for r in rows}
        for m, k in recheck:
            errors = [abs(ref - solve(build_pab(x, x.times[::k], m),
                                      build_pab(y, y.times[::k], m)).value)
                      for (x, y), ref in zip(pairs, fine)]
            want = float(np.mean(errors))
            scale = max(1.0, max(abs(v) for v in fine))
            if abs(want - reported[(m, k)]) > 1e-10 * scale:
                verdict.problems.append(
                    f"cell ({m}, {k}) reports {reported[(m, k)]!r}, "
                    f"recomputed {want!r}")
        return verdict

    kernels = repetitions * (1 + len(factors) * len(degrees))
    return Prepared([["convergence", "--config", str(path), "--seed", str(seed)]],
                    kernels, 2 * repetitions * n_fine,
                    [(2, m) for m in degrees], check)


WORKLOADS = {
    "gram-m1": lambda rng, workdir: gram(
        rng, workdir, count=4, dim=2, steps=128, degree=1, every=1),
    "gram-m3": lambda rng, workdir: gram(
        rng, workdir, count=5, dim=3, steps=512, degree=3, every=8),
    "osc-kernel": lambda rng, workdir: osc_kernel(
        rng, workdir, pairs=2, samples=4096, degree=3, every=64),
    "convergence": lambda rng, workdir: convergence(
        rng, workdir, repetitions=1, n_fine=512, factors=(4, 8, 16, 32, 64),
        degrees=(1, 2, 3, 4), recheck=((1, 64), (2, 64))),
}
