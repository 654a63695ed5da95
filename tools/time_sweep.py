"""Time the scalar sweep with the closed-form cell update against the
predictor-corrector average, and measure how far each rounds.

    python tools/time_sweep.py [--best N] [--rounds R] [--pairs P] [--size S ...]

For each grid size S (S x S cells), times goursat._sweep_order1 on one
pair twice: as it is, with goursat._corner in closed form, and with
tests/helpers.predictor_corrector, the four-point average as written,
bound in place of goursat._corner.  A round takes the best of N timings
of each, alternating which goes first; each timing repeats the sweep
enough times to last about 20 ms.  The script prints, per size, the
median over the rounds of both best times and the median [quartiles] of
the time ratio, closed form over average, so a ratio below 1 is a gain.

It then runs both forms on P pairs of 2-D Brownian paths of S steps on
[0, 1] (experiment.simulate_bm, seeds 2s and 2s+1 for s = 0..P-1) and
prints the median and the largest deviation of each from the same scheme
run in np.longdouble, |u - u_ld| / max(1, |u_ld|) at the far corner.
Brownian increments never repeat, so the curvature correction does not
fire and the reference is the plain four-point scheme.  The exit status is
1 if the closed form's median deviation exceeds 4 times the average's at
some size, else 0.

BLAS and OpenMP run on one thread.
"""

import argparse
import os
import sys
import time
from pathlib import Path

for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[var] = "1"

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

import numpy as np  # noqa: E402

from helpers import predictor_corrector  # noqa: E402
from pabsig import goursat  # noqa: E402
from pabsig.experiment import simulate_bm  # noqa: E402

SIZES = (128, 256, 512, 1024)
# A closed form whose median deviation passes this many times the
# average's rounds worse than the scheme it replaces.
DEVIATION_LIMIT = 4.0


def _sweep(corner, X, Y):
    """goursat._sweep_order1 on one pair with `corner` bound as _corner."""
    kept = goursat._corner
    goursat._corner = corner
    try:
        return float(goursat._sweep_order1(X[None], Y[None])[0])
    finally:
        goursat._corner = kept


def _longdouble_sweep(X, Y):
    """The four-point scheme without curvature terms in np.longdouble, by
    anti-diagonals: the far-corner u."""
    c = X.astype(np.longdouble) @ Y.astype(np.longdouble).T
    nx, ny = c.shape
    u0, u1, new = np.ones((3, nx + 2), dtype=np.longdouble)
    for p in range(nx + ny - 1):
        lo, hi = max(0, p - ny + 1), min(nx - 1, p) + 1
        i = np.arange(lo, hi)
        new[lo + 2:hi + 2] = predictor_corrector(
            u0[lo + 1:hi + 1], u1[lo + 1:hi + 1], u1[lo + 2:hi + 2], c[i, p - i])
        u0, u1, new = u1, new, u0
    return u1[nx + 1]


def _increments(n, seed):
    return simulate_bm(2, n, 1.0, seed).increments()


def _best(run, calls, best):
    times = []
    for _ in range(best):
        start = time.perf_counter()
        for _ in range(calls):
            run()
        times.append((time.perf_counter() - start) / calls)
    return min(times)


def time_size(n, best, rounds):
    X, Y = _increments(n, 0), _increments(n, 1)
    runs = {which: (lambda corner=corner: _sweep(corner, X, Y))
            for which, corner in (("new", goursat._corner), ("old", predictor_corrector))}
    once = time.perf_counter()
    runs["old"]()
    calls = max(1, int(0.02 / max(time.perf_counter() - once, 1e-6)))
    times = {"new": [], "old": []}
    for r in range(rounds):
        for which in ("new", "old") if r % 2 == 0 else ("old", "new"):
            times[which].append(_best(runs[which], calls, best))
    ratios = np.divide(times["new"], times["old"])
    q1, med, q3 = np.percentile(ratios, [25, 50, 75])
    print(f"{n:5}^2 {np.median(times['old']) * 1e3:11.3f} ms"
          f" {np.median(times['new']) * 1e3:11.3f} ms"
          f"   {med:.2f} [{q1:.2f}, {q3:.2f}]", flush=True)


def deviations(n, pairs):
    """Median and largest deviation of the average and of the closed form
    from the longdouble scheme over `pairs` Brownian pairs."""
    dev = {"old": [], "new": []}
    for s in range(pairs):
        X, Y = _increments(n, 2 * s), _increments(n, 2 * s + 1)
        ref = _longdouble_sweep(X, Y)
        scale = max(np.longdouble(1.0), abs(ref))
        for which, corner in (("old", predictor_corrector), ("new", goursat._corner)):
            dev[which].append(float(abs(np.longdouble(_sweep(corner, X, Y)) - ref) / scale))
    return {which: (float(np.median(d)), max(d)) for which, d in dev.items()}


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--best", type=int, default=9)
    parser.add_argument("--rounds", type=int, default=11)
    parser.add_argument("--pairs", type=int, default=8)
    parser.add_argument("--size", type=int, action="append",
                        help=f"cells a side (repeatable; default {SIZES})")
    args = parser.parse_args(argv)
    if args.best < 1 or args.rounds < 1 or args.pairs < 1:
        parser.error("--best, --rounds and --pairs must be >= 1")
    if any(n < 1 for n in args.size or ()):
        parser.error("--size must be >= 1")
    sizes = args.size or SIZES
    if np.finfo(np.longdouble).eps >= np.finfo(np.float64).eps:
        print("warning: np.longdouble is float64 here; the deviations measure nothing",
              file=sys.stderr)
    print(f"{'cells':7} {'average':>14} {'closed form':>14}   new/old median [quartiles]")
    for n in sizes:
        time_size(n, args.best, args.rounds)
    print(f"\ndeviation from np.longdouble, {args.pairs} Brownian pairs:"
          f" median (largest)")
    print(f"{'cells':7} {'average':>22} {'closed form':>22}")
    worse = []
    for n in sizes:
        dev = deviations(n, args.pairs)
        print(f"{n:5}^2 " + " ".join(f"{med:11.2e} ({top:8.2e})" for med, top in
                                     (dev["old"], dev["new"])), flush=True)
        if dev["new"][0] > DEVIATION_LIMIT * dev["old"][0]:
            worse.append(n)
    if worse:
        print(f"closed form's median deviation exceeds {DEVIATION_LIMIT:g}x the average's"
              f" at {', '.join(f'{n}^2' for n in worse)}")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
