"""Time the grid-free scalar sweep against the sweep over the full grid of
cell coefficients, and measure the memory and the rounding of each.

    python tools/time_sweep.py [--best N] [--rounds R] [--pairs P] [--size S ...]

For each grid size S (S x S cells), times goursat.solve_order1 on one pair
twice: as it is, with goursat._sweep_order1 building blocks of
anti-diagonals of coefficients, and with tests/helpers.skewed_sweep_order1,
which holds the whole (N_x, N_y) grid X @ Y^T and reads it through a
skewed view, bound in place of goursat._sweep_order1.
tools/abtime.compare times them: a round takes the best of N timings of
each, alternating which goes first; each timing repeats the call enough
times to last about 20 ms.  The script prints, per size, the median over
the rounds of both best times, the median [quartiles] of the time ratio,
grid-free over skewed, so a ratio below 1 is a gain, and the tracemalloc
peak of one call of each.

It then runs both forms on P pairs of 2-D Brownian paths of S steps on
[0, 1] (experiment.simulate_bm, seeds 2s and 2s+1 for s = 0..P-1) and
prints the median and the largest deviation of each from the grid-free
sweep run on the increments in np.longdouble, |u - u_ld| / max(1, |u_ld|)
at the far corner.  Brownian increments never repeat, so the curvature
correction does not fire.  The exit status is 1 if the grid-free form's
median deviation exceeds 4 times the skewed form's at some size, else 0.
The deviations are a few ulps, so a median over few pairs is noise: at
64^2 the ratio of the medians read 8.5 on 2 pairs, 2.2-2.9 on 4 pairs at
32^2-64^2, and 1.15-1.75 on 8 pairs at 16^2-128^2.  So the script takes
no fewer than 8 pairs, the default, and exits 2 on fewer, as on any other
bad option.

BLAS and OpenMP run on one thread.
"""

import sys
import tracemalloc

import abtime  # before numpy: one BLAS thread, src/ and tests/ on sys.path

import numpy as np
from helpers import skewed_sweep_order1
from pabsig import goursat
from pabsig.experiment import simulate_bm

SIZES = (128, 256, 512, 1024)
# A grid-free form whose median deviation passes this many times the
# skewed form's rounds worse than the sweep it replaces.
DEVIATION_LIMIT = 4.0
# Fewest pairs whose median deviation the limit is judged on.
VERDICT_PAIRS = 8
FORMS = {"old": skewed_sweep_order1, "new": goursat._sweep_order1}


def _solve(which, X, Y):
    """Kernel value of goursat.solve_order1 with the form `which` bound as
    goursat._sweep_order1."""
    with abtime.bound(goursat, "_sweep_order1", FORMS[which]):
        return goursat.solve_order1(X, Y).value


def _peak(which, X, Y):
    """tracemalloc peak of one call, in MB."""
    tracemalloc.start()
    try:
        _solve(which, X, Y)
        return tracemalloc.get_traced_memory()[1] / 1e6
    finally:
        tracemalloc.stop()


def _increments(n, seed):
    return simulate_bm(2, n, 1.0, seed).increments()


def time_size(n, best, rounds):
    X, Y = _increments(n, 0), _increments(n, 1)
    new, old = (lambda which=which: _solve(which, X, Y) for which in ("new", "old"))
    t_new, t_old, (med, q1, q3) = abtime.compare(new, old, best, rounds)
    print(f"{n:5}^2 {t_old * 1e3:11.3f} ms {t_new * 1e3:11.3f} ms"
          f"   {med:.2f} [{q1:.2f}, {q3:.2f}]"
          f" {_peak('old', X, Y):10.3f} MB {_peak('new', X, Y):8.3f} MB", flush=True)


def deviations(n, pairs):
    """Median and largest deviation of the skewed and of the grid-free form
    from the grid-free sweep in np.longdouble over `pairs` Brownian pairs."""
    dev = {"old": [], "new": []}
    for s in range(pairs):
        X, Y = _increments(n, 2 * s), _increments(n, 2 * s + 1)
        ref = goursat._sweep_order1(X.astype(np.longdouble)[None],
                                    Y.astype(np.longdouble)[None])[0]
        scale = max(np.longdouble(1.0), abs(ref))
        for which in dev:
            dev[which].append(float(abs(_solve(which, X, Y) - ref) / scale))
    return {which: (float(np.median(d)), max(d)) for which, d in dev.items()}


def main(argv):
    parser, args = abtime.parse(
        __doc__, argv, pairs=dict(type=int, default=VERDICT_PAIRS),
        size=dict(type=int, action="append", help=f"cells a side (repeatable; default {SIZES})"))
    if args.pairs < VERDICT_PAIRS:
        parser.error(f"--pairs must be >= {VERDICT_PAIRS}: the median deviation of"
                     f" fewer pairs is noise")
    if any(n < 1 for n in args.size or ()):
        parser.error("--size must be >= 1")
    sizes = args.size or SIZES
    if np.finfo(np.longdouble).eps >= np.finfo(np.float64).eps:
        print("warning: np.longdouble is float64 here; the deviations measure nothing",
              file=sys.stderr)
    print(f"{'cells':7} {'skewed':>14} {'grid-free':>14}   new/old median [quartiles]"
          f" {'peak skewed':>13} {'grid-free':>11}")
    for n in sizes:
        time_size(n, args.best, args.rounds)
    print(f"\ndeviation from np.longdouble, {args.pairs} Brownian pairs:"
          f" median (largest)")
    print(f"{'cells':7} {'skewed':>22} {'grid-free':>22}")
    worse = []
    for n in sizes:
        dev = deviations(n, args.pairs)
        print(f"{n:5}^2 " + " ".join(f"{med:11.2e} ({top:8.2e})" for med, top in
                                     (dev["old"], dev["new"])), flush=True)
        if dev["new"][0] > DEVIATION_LIMIT * dev["old"][0]:
            worse.append(n)
    if worse:
        print(f"grid-free form's median deviation exceeds {DEVIATION_LIMIT:g}x the"
              f" skewed form's at {', '.join(f'{n}^2' for n in worse)}")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
