"""Benchmark of the pabsig package: one workload per process.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from its
``src`` directory.  The last line of standard output is one JSON object
with the keys correct, attempted, failed and metrics.  With --trace 0 the
metrics are the end-to-end ones; with --trace 1 a traced run gives the
per-layer ones and writes its spans under perfbench/results/.
"""

import argparse
import io
import json
import os
import resource
import shutil
import statistics
import sys
import time
import traceback
from contextlib import nullcontext, redirect_stderr, redirect_stdout
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
# Set-up is repeated this many times per run and reported as the median.
SETUP_REPEATS = 3
# Set before the interpreter starts.  One BLAS thread: the workloads are
# serial.  A fixed hash seed: in six runs of one input, kernels_per_s ranged
# over 16% with random string hashing and over 4% with the seed fixed.
PINNED_ENV = {"PYTHONHASHSEED": "0", "OPENBLAS_NUM_THREADS": "1",
              "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _run_round(main, ops, tracer=None):
    """Run one round of CLI calls; returns [(exit code, stdout, stderr)]."""
    outputs = []
    for argv in ops:
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            with tracer.span("cli") if tracer is not None else nullcontext():
                try:
                    code = main(list(argv))
                except SystemExit as exc:
                    code = exc.code if isinstance(exc.code, int) else 2
                except Exception:
                    traceback.print_exc()
                    code = -1
        outputs.append((code, out.getvalue(), err.getvalue()))
    return outputs


def _timed_rounds(main, ops, seconds, calibrate, tracer=None):
    """Whole rounds until `seconds` have passed (at least one).

    Returns each round's time in reference seconds (see calibrate.py), with
    the calibration loop timed before and after every round, and each
    round's outputs.
    """
    times, results = [], []
    start = time.perf_counter()
    before = calibrate.loop_seconds()
    while True:
        t0 = time.perf_counter()
        results.append(_run_round(main, ops, tracer))
        elapsed = time.perf_counter() - t0
        after = calibrate.loop_seconds()
        times.append(elapsed * calibrate.REFERENCE_S / ((before + after) / 2))
        before = after
        if time.perf_counter() - start >= seconds:
            return times, results


def main(argv=None) -> int:
    args = _parse_args(argv)
    if not (SRC / "pabsig" / "__init__.py").is_file():
        print(f"error: no package source at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    t0 = time.perf_counter()
    import numpy as np
    import pabsig
    import pabsig.cli
    from pabsig.tensors import _concat_tables
    import_s = time.perf_counter() - t0
    import calibrate
    import tracing
    from workloads import WORKLOADS, Verdict
    if Path(pabsig.__file__).resolve().parent != SRC / "pabsig":
        print(f"error: pabsig imported from {pabsig.__file__}", file=sys.stderr)
        return 2
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2

    workdir = HERE / "_work" / f"{args.workload}-{os.getpid()}"
    try:
        setups = []
        for _ in range(SETUP_REPEATS):
            shutil.rmtree(workdir, ignore_errors=True)
            _concat_tables.cache_clear()
            t0 = time.perf_counter()
            workdir.mkdir(parents=True)
            prepared = WORKLOADS[args.workload](np.random.default_rng(args.seed), workdir)
            for d, m in prepared.shapes:
                tiny = pabsig.TimeSeries([0.0, 1.0, 2.0], np.outer([0.0, 0.1, 0.3], np.ones(d)))
                pabsig.kernel(tiny, tiny, m)
            setups.append(time.perf_counter() - t0)
        speed = calibrate.REFERENCE_S / calibrate.loop_seconds()
        setup_s = (import_s + statistics.median(setups)) * speed

        cli_main = pabsig.cli.main
        tracer = None
        if args.trace:
            # untraced and traced rounds alternate, in turn first in a pair,
            # so that neither drift of the machine's speed nor a slow first
            # round shows as tracing overhead
            tracer = tracing.Tracer()
            plain_times, times, results = [], [], []
            start = time.perf_counter()
            while time.perf_counter() - start < args.seconds or not times:
                for traced in ((False, True) if len(times) % 2 == 0 else (True, False)):
                    if not traced:
                        plain_times += _timed_rounds(cli_main, prepared.ops, 0, calibrate)[0]
                        continue
                    with tracer.installed():
                        more_times, more_results = _timed_rounds(
                            cli_main, prepared.ops, 0, calibrate, tracer)
                    times += more_times
                    results += more_results
        else:
            times, results = _timed_rounds(cli_main, prepared.ops, args.seconds,
                                           calibrate)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

        try:
            verdict = prepared.check(results[0], tracer)
        except Exception:
            verdict = Verdict([f"check raised:\n{traceback.format_exc()}"])
        if any(r != results[0] for r in results[1:]):
            verdict.problems.append("outputs differ between rounds")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass                # another run is using it

    print(f"{args.workload}: {len(times)} rounds, median round "
          f"{statistics.median(times):.3f} reference s, median set-up "
          f"{statistics.median(setups):.4f} s + import {import_s:.4f} s, "
          f"machine speed {speed:.3f}", file=sys.stderr)
    for problem in verdict.problems:
        print(f"check failed: {problem}", file=sys.stderr)
    rounds = len(results)
    if args.trace:
        metrics = tracing.layer_metrics(tracer, rounds, prepared.distinct_segments)
        metrics["trace.overhead_pct"] = (tracing.overhead_pct(plain_times, times), "%")
        rel = verdict.rel_errors
        metrics["kernel_rel_err"] = (sum(rel) / len(rel) if rel else 0.0, "1")
        tracer.write(HERE / "results" / f"trace-{args.workload}-seed{args.seed}.json",
                     {"workload": args.workload, "seed": args.seed, "rounds": rounds})
    else:
        metrics = {
            "setup_s": (setup_s, "s"),
            "kernels_per_s": (prepared.kernels / statistics.median(times), "1/s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
    result = {
        "correct": not verdict.problems,
        "attempted": rounds * len(prepared.ops),
        "failed": rounds * verdict.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    if any(os.environ.get(k) != v for k, v in PINNED_ENV.items()):
        os.environ.update(PINNED_ENV)
        os.execv(sys.executable, [sys.executable, *sys.argv])
    sys.exit(main())
