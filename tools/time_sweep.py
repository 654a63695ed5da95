"""Time the scalar sweep, which forms the affine weights of its cell
update once per block and evaluates each anti-diagonal over its block's x
range, against the sweep that sliced each anti-diagonal to its own cells
with the nested update, and measure the memory and the rounding of each.

    python tools/time_sweep.py [--best N] [--rounds R] [--pairs P] [--size S ...]

For each grid size S (S x S cells), times goursat.solve_order1 on one pair
twice: as it is, with goursat._sweep_order1 forming the weights 1 + h and
h*h - 1 of the update (1 + h)*s + (h*h - 1)*u00 once per block of
coefficients and evaluating every anti-diagonal of the block over the
block's whole x range, in place, and with tests/helpers.sliced_sweep_order1
and the nested update (s - u00) + h*(s + h*u00) of
tests/helpers.nested_corner, which slices the u buffers, the coefficients
and the gate flags to each anti-diagonal's own cells, bound in place of
goursat._sweep_order1.  The two round differently.
tools/abtime.compare times them: a round takes the best of N timings of
each, alternating which goes first; each timing repeats the call enough
times to last about 20 ms.  The script prints, per size, the median over
the rounds of both best times, the median [quartiles] of the time ratio,
blocked over sliced, so a ratio below 1 is a gain, and the tracemalloc
peak of one call of each.  The sliced form with the nested update is
three changes older than the library's sweep, so the ratio is not the gain
of the last change alone: at 32^2-512^2 the affine update alone ran
0.80-0.89x the time of the blocked sweep with the nested update, where
this script reads 0.54-0.62x at 128^2-1024^2.

The same rows follow for a curvature-firing pair at each size: the
increments of 2-D Brownian paths of S/4 steps (seeds 0 and 1), each
repeated 4 times, so that three intervals in four repeat their
neighbour, the curvature terms fire, and the library's sweep takes its
general loop, which keeps the half coefficients for them.  There the
peak of each form is given as a fraction of goursat._pair_values(2, 1,
S, S), the working set that solve_pairs budgets for one such pair, in
values of 8 bytes.

It then runs both forms on P pairs of 2-D Brownian paths of S steps on
[0, 1] (tests/helpers.sweep_deviations: experiment.simulate_bm, seeds 2s
and 2s+1 for s = 0..P-1) and prints the median and the largest deviation
of each from the library's sweep run on the increments in np.longdouble,
|u - u_ld| / max(1, |u_ld|) at the far corner.  Brownian increments never
repeat, so the curvature correction does not fire.  The exit status is 1
if the blocked form's median deviation exceeds DEVIATION_LIMIT (4) times
the sliced form's at some size, else 0.
The deviations are a few ulps, so a median over few pairs is noise: at
64^2 the ratio of the medians read 8.5 on 2 pairs, 2.2-2.9 on 4 pairs at
32^2-64^2, and 1.15-1.75 on 8 pairs at 16^2-128^2.  So the script takes
no fewer than 8 pairs, the default, and exits 2 on fewer, as on any other
bad option.

BLAS and OpenMP run on one thread.
"""

import functools
import sys
import tracemalloc

import abtime  # before numpy: one BLAS thread, src/ and tests/ on sys.path

import numpy as np
from helpers import DEVIATION_LIMIT, nested_corner, sliced_sweep_order1, sweep_deviations
from pabsig import goursat
from pabsig.experiment import simulate_bm

SIZES = (128, 256, 512, 1024)
# Fewest pairs whose median deviation the limit is judged on.
VERDICT_PAIRS = 8
FORMS = {"old": functools.partial(sliced_sweep_order1, corner=nested_corner),
         "new": goursat._sweep_order1}


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


def _repeated(n, seed):
    """n increments: those of a Brownian path of ceil(n/4) steps, each
    repeated 4 times."""
    return np.repeat(_increments(-(-n // 4), seed), 4, axis=0)[:n]


def time_size(n, best, rounds, firing=False):
    """Print the time row of S = n: the Brownian pair, or with firing the
    curvature-firing pair, whose peaks are fractions of the pair budget."""
    make = _repeated if firing else _increments
    X, Y = make(n, 0), make(n, 1)
    new, old = (lambda which=which: _solve(which, X, Y) for which in ("new", "old"))
    t_new, t_old, (med, q1, q3) = abtime.compare(new, old, best, rounds)
    peaks = _peak("old", X, Y), _peak("new", X, Y)
    if firing:
        budget = 8 * goursat._pair_values(2, 1, n, n) / 1e6
        peaks = " ".join(f"{peak / budget:12.2f}" for peak in peaks)
    else:
        peaks = f"{peaks[0]:10.3f} MB {peaks[1]:8.3f} MB"
    print(f"{n:5}^2 {t_old * 1e3:11.3f} ms {t_new * 1e3:11.3f} ms"
          f"   {med:.2f} [{q1:.2f}, {q3:.2f}] {peaks}", flush=True)


def deviations(n, pairs):
    """Median and largest deviation of the sliced and of the blocked form
    from the library's sweep in np.longdouble over `pairs` Brownian pairs."""
    dev = sweep_deviations(FORMS, n, pairs)
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
    print(f"{'cells':7} {'sliced':>14} {'blocked':>14}   new/old median [quartiles]"
          f" {'peak sliced':>13} {'blocked':>11}")
    for n in sizes:
        time_size(n, args.best, args.rounds)
    print("\ncurvature-firing pairs (increments repeated 4 times), peaks per pair budget")
    print(f"{'cells':7} {'sliced':>14} {'blocked':>14}   new/old median [quartiles]"
          f" {'peak sliced':>12} {'blocked':>12}")
    for n in sizes:
        time_size(n, args.best, args.rounds, firing=True)
    print(f"\ndeviation from np.longdouble, {args.pairs} Brownian pairs:"
          f" median (largest)")
    print(f"{'cells':7} {'sliced':>22} {'blocked':>22}")
    worse = []
    for n in sizes:
        dev = deviations(n, args.pairs)
        print(f"{n:5}^2 " + " ".join(f"{med:11.2e} ({top:8.2e})" for med, top in
                                     (dev["old"], dev["new"])), flush=True)
        if dev["new"][0] > DEVIATION_LIMIT * dev["old"][0]:
            worse.append(n)
    if worse:
        print(f"blocked form's median deviation exceeds {DEVIATION_LIMIT:g}x the"
              f" sliced form's at {', '.join(f'{n}^2' for n in worse)}")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
