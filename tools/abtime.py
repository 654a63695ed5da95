"""The timing core of the A/B scripts in this directory.

A script imports this module before numpy: the import pins BLAS and OpenMP
to one thread and puts src/ and tests/ on sys.path, so that the script can
then import pabsig and the reference forms in tests/helpers.py.  parse()
reads the options, bound() puts an old form in place of a library name
for the time of a block, and compare() times the library as it is
against it.
"""

import argparse
import contextlib
import os
import sys
import time
from pathlib import Path

for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[var] = "1"

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

import numpy as np  # noqa: E402


def parse(doc, argv, **options):
    """Parse argv for a script whose docstring is doc.

    The options are --best N (default 9) and --rounds R (default 11),
    which compare() takes and which must be at least 1, then one --NAME
    per keyword, declared with the add_argument keywords it maps to.
    Returns the parser, for the script's own checks, and the values.
    """
    parser = argparse.ArgumentParser(description=doc.splitlines()[0])
    options = dict(best=dict(type=int, default=9), rounds=dict(type=int, default=11),
                   **options)
    for name, spec in options.items():
        parser.add_argument(f"--{name}", **spec)
    args = parser.parse_args(argv)
    if args.best < 1 or args.rounds < 1:
        parser.error("--best and --rounds must be >= 1")
    return parser, args


@contextlib.contextmanager
def bound(module, name, fn):
    """Bind `fn` as module.name inside the block, and restore the old value
    on the way out."""
    kept = getattr(module, name)
    setattr(module, name, fn)
    try:
        yield
    finally:
        setattr(module, name, kept)


def compare(new, old, best, rounds, check=None):
    """Time the calls new() and old() against each other.

    Each timing repeats a call enough times to last about 20 ms, as sized
    on one call of old().  A round runs check(), when given, and then
    takes the best of `best` timings of each side, alternating which side
    goes first.  Returns the median over the rounds of both best times, in
    seconds per call, and the (median, first quartile, third quartile) of
    the time ratio new/old, so a ratio below 1 is a gain.
    """
    once = time.perf_counter()
    old()
    calls = max(1, int(0.02 / max(time.perf_counter() - once, 1e-6)))
    runs = {"new": new, "old": old}
    times = {"new": [], "old": []}
    for r in range(rounds):
        if check is not None:
            check()
        for which in ("new", "old") if r % 2 == 0 else ("old", "new"):
            times[which].append(min(_timed(runs[which], calls) for _ in range(best)))
    q1, med, q3 = np.percentile(np.divide(times["new"], times["old"]), [25, 50, 75])
    return np.median(times["new"]), np.median(times["old"]), (med, q1, q3)


def _timed(run, calls):
    start = time.perf_counter()
    for _ in range(calls):
        run()
    return (time.perf_counter() - start) / calls
