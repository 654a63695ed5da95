"""Time the level-by-level Chen lift against the per-position loop.

    python tools/time_lift.py [--best N] [--rounds R] [--shape NAME ...]

For each lift shape, times lift._lifted (the batched signature, then the
logarithm where the caller takes it, then the finiteness check) twice: as
it is, and with tests/helpers.chen_steps, the lift one step position at a
time, bound in place of lift._chen.  tools/abtime.compare times them: a
round takes the best of N timings of each, alternating which goes first;
each timing repeats the lift enough times to last about 20 ms.  The
script prints, per shape, the median over the rounds of both best times
and the median [quartiles] of the time ratio, level-by-level over
per-position, so a ratio below 1 is a gain.  Every round first checks
that both give the same bits.

BLAS and OpenMP run on one thread.  The shapes are those of the lifts of
the four perfbench workloads, plus two long one-run signatures of the
kind that oracle.direct_truncated_kernel takes at level 12:

    gram-m1        d=2, m=1,  128 segments, one per interval (build_pab)
    gram-m3        d=3, m=3,  512 segments, 8 per interval (build_pab)
    osc-kernel     d=2, m=3, 4095 segments, 64 per interval (build_pab)
    convergence-64 d=2, m=4,  512 segments, 64 per interval (build_pab)
    convergence-4  d=2, m=4,  512 segments, 4 per interval (build_pab)
    oracle         d=2, m=12, 1024 segments, one run (chen_signature)
    oracle-m8      d=2, m=8, 4096 segments, one run (chen_signature)

Increments are seeded Gaussian steps of scale 0.05.
"""

import argparse
import sys

import abtime  # before numpy: one BLAS thread, src/ and tests/ on sys.path

import numpy as np
from helpers import chen_steps
from pabsig import lift

# name: (d, m, segments, segments per interval, logarithm taken)
SHAPES = {
    "gram-m1": (2, 1, 128, 1, True),
    "gram-m3": (3, 3, 512, 8, True),
    "osc-kernel": (2, 3, 4095, 64, True),
    "convergence-64": (2, 4, 512, 64, True),
    "convergence-4": (2, 4, 512, 4, True),
    "oracle": (2, 12, 1024, 1024, False),
    "oracle-m8": (2, 8, 4096, 4096, False),
}


def _inputs(d, segments, every, seed=0):
    deltas = np.random.default_rng(seed).standard_normal((segments, d)) * 0.05
    bounds = list(range(0, segments + 1, every))
    if bounds[-1] != segments:
        bounds.append(segments)
    return deltas, bounds


def _lift(chen, d, m, deltas, bounds, log):
    """lift._lifted with `chen` bound as lift._chen."""
    with abtime.bound(lift, "_chen", chen):
        return lift._lifted(d, m, deltas, bounds, log)


def time_shape(name, best, rounds):
    d, m, segments, every, log = SHAPES[name]
    deltas, bounds = _inputs(d, segments, every)
    new, old = (lambda chen=chen: _lift(chen, d, m, deltas, bounds, log)
                for chen in (lift._chen, chen_steps))

    def check():
        if new().tobytes() != old().tobytes():
            raise SystemExit(f"{name}: the two lifts differ")

    t_new, t_old, (med, q1, q3) = abtime.compare(new, old, best, rounds, check)
    print(f"{name:15} d={d} m={m:<2} {segments:5} segs /{every:<5}"
          f" {t_old * 1e3:9.3f} ms {t_new * 1e3:9.3f} ms"
          f"   {med:.2f} [{q1:.2f}, {q3:.2f}]", flush=True)


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--best", type=int, default=9)
    parser.add_argument("--rounds", type=int, default=11)
    parser.add_argument("--shape", action="append", choices=sorted(SHAPES),
                        help="time only this shape (repeatable)")
    args = parser.parse_args(argv)
    if args.best < 1 or args.rounds < 1:
        parser.error("--best and --rounds must be >= 1")
    print(f"{'shape':15} {'':29} {'per-position':>12} {'by level':>12}"
          f"   new/old median [quartiles]")
    for name in args.shape or SHAPES:
        time_shape(name, args.best, args.rounds)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
