"""Command-line front-end.

Commands: kernel, logsig, gram, convergence, selftest.  Input series are
CSV files with a mandatory header ``time,x1,...,xd``, comma separated,
rows sorted by time.  Exit codes: 0 success, 2 usage, parse or output
failure, 3 data shape failure, 4 numeric failure (non-finite result, failed
numeric check, or a degree too large to allocate).
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import sys
import warnings
from pathlib import Path

import numpy as np

from .experiment import (
    ExperimentConfig,
    convergence_experiment,
    gram_matrix,
    simulate_bm,
    write_records_csv,
)
from .goursat import kernel, solve_order1
from .lift import TimeSeries, build_pab, thin_partition
from .oracle import linear_kernel_closed_form
from .tensors import NumericError, all_words

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_SHAPE = 3
EXIT_NUMERIC = 4


class _ParseFailure(Exception):
    """Malformed input or config, or unwritable output; maps to exit code 2."""


def _read_series(path: str) -> TimeSeries:
    try:
        text = Path(path).read_text(encoding="utf-8-sig")
    except OSError as exc:
        raise _ParseFailure(f"cannot read {path}: {exc}")
    data = _parse_rows(path, text)
    return TimeSeries(data[:, 0], data[:, 1:])


def _header_dim(path: str, fields) -> int:
    header = [h.strip() for h in fields]
    d = len(header) - 1
    if d < 1 or header[0] != "time" or header[1:] != [f"x{i}" for i in range(1, d + 1)]:
        raise _ParseFailure(f"{path}: header must be time,x1,...,xd")
    return d


def _parse_rows(path: str, text: str) -> np.ndarray:
    """Data rows of a series CSV as one (n, d+1) float64 array.

    text comes from Path.read_text, which translates every newline to
    "\n", so it holds no carriage return.  A plain file (header on the
    first line, no quotes) holds one CSV row per line, so numpy parses its
    body in one call; numpy accepts a subset of what float() accepts and
    reads it to the same value.  Any other file, and any body numpy rejects, is read
    row by row with csv and float(), which also names the failing line.
    """
    head, _, body = text.partition("\n")
    if head and '"' not in text:
        d = _header_dim(path, head.split(","))
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")     # a body without rows warns
                data = np.loadtxt(io.StringIO(body), delimiter=",",
                                  comments=None, ndmin=2)
        except ValueError:
            data = None
        if data is not None and len(data) and data.shape[1] == d + 1:
            return data
    reader = csv.reader(io.StringIO(text))
    rows = [(reader.line_num, row) for row in reader if row]
    if not rows:
        raise _ParseFailure(f"{path}: empty file")
    d = _header_dim(path, rows[0][1])
    data = []
    for lineno, row in rows[1:]:
        if len(row) != d + 1:
            raise _ParseFailure(f"{path}:{lineno}: expected {d + 1} fields, got {len(row)}")
        try:
            data.append([float(field) for field in row])
        except ValueError:
            raise _ParseFailure(f"{path}:{lineno}: non-numeric field")
    if not data:
        raise _ParseFailure(f"{path}: no data rows")
    return np.array(data)


def _write(args, text, doc) -> int:
    """Write text(), or the JSON of doc() under --format json, to --output or
    to stdout; only the chosen rendering is built.  An --output that cannot
    be written, the empty path included, is a _ParseFailure."""
    body = json.dumps(doc()) + "\n" if args.format == "json" else text()
    if args.output is None:
        sys.stdout.write(body)
        return EXIT_OK
    try:
        Path(args.output).write_text(body, encoding="utf-8")
    except OSError as exc:
        raise _ParseFailure(f"cannot write {args.output}: {exc}")
    return EXIT_OK


def _machine(v: float) -> str:
    return repr(float(v))


def _cmd_kernel(args) -> int:
    ts_x = _read_series(args.x)
    ts_y = _read_series(args.y)
    value = kernel(ts_x, ts_y, args.degree,
                   thin_partition(ts_x, args.every),
                   thin_partition(ts_y, args.every))
    human = args.output is None and args.format is None
    return _write(args,
                  lambda: f"{value:#.12g}\n" if human else f"kernel\n{_machine(value)}\n",
                  lambda: {"kernel": float(value)})


def _cmd_logsig(args) -> int:
    ts = _read_series(args.x)
    pab = build_pab(ts, thin_partition(ts, args.every), args.degree)
    rows = [(t0, t1, *row) for t0, t1, row
            in zip(pab.partition[:-1], pab.partition[1:], pab.increments)]
    labels = ["w_" + "".join(str(l) for l in w) for w in all_words(ts.dim, args.degree)]
    return _write(args,
                  lambda: "\n".join([",".join(["t_start", "t_end", *labels])]
                                    + [",".join(map(_machine, r)) for r in rows]) + "\n",
                  lambda: {"columns": ["t_start", "t_end", *labels],
                           "rows": [[float(v) for v in r] for r in rows]})


def _cmd_gram(args) -> int:
    root = Path(args.directory)
    if not root.is_dir():
        raise _ParseFailure(f"{args.directory}: not a directory")
    paths = sorted(root.glob("*.csv"))
    if not paths:
        raise _ParseFailure(f"{args.directory}: no CSV files")
    dataset = [_read_series(str(p)) for p in paths]
    matrix = gram_matrix(dataset, args.degree, args.every)
    if args.check_psd:
        lowest = float(np.linalg.eigvalsh(matrix)[0])
        print(f"min eigenvalue {lowest!r}", file=sys.stderr)
        if lowest < -1e-8:
            print("Gram matrix fails the positive semi-definite check",
                  file=sys.stderr)
            return EXIT_NUMERIC
    return _write(args,
                  lambda: "\n".join(",".join(map(_machine, row)) for row in matrix) + "\n",
                  lambda: {"files": [p.name for p in paths],
                           "gram": [[float(v) for v in row] for row in matrix]})


def _load_config(args) -> ExperimentConfig:
    data = {}
    if args.config:
        try:
            raw = Path(args.config).read_text(encoding="utf-8-sig")
        except OSError as exc:
            raise _ParseFailure(f"cannot read {args.config}: {exc}")
        try:
            data = json.loads(raw)
        except json.JSONDecodeError as exc:
            raise _ParseFailure(f"{args.config}: invalid JSON: {exc}")
        if not isinstance(data, dict):
            raise _ParseFailure(f"{args.config}: config must be a JSON object")
    if args.seed is not None:
        data["seed"] = args.seed
    if args.pairs is not None:
        data["repetitions"] = args.pairs
    try:
        return ExperimentConfig.from_mapping(data)
    except (TypeError, ValueError) as exc:
        raise _ParseFailure(f"bad config: {exc}")


def _cmd_convergence(args) -> int:
    cfg = _load_config(args)
    records = convergence_experiment(cfg)
    if not all(np.isfinite(r.mean_error) for r in records):
        print("experiment produced non-finite errors", file=sys.stderr)
        return EXIT_NUMERIC

    def table():
        buf = io.StringIO()
        write_records_csv(records, buf)
        return buf.getvalue()

    return _write(args, table,
                  lambda: [{"degree": r.degree, "factor": r.factor,
                            "mean_error": float(r.mean_error), "stderr": float(r.stderr),
                            "pairs": int(r.errors.size)}
                           for r in records])


def _selftest_checks():
    rng = np.random.default_rng(2024)
    from . import tensors as tn
    from .goursat import solve

    def adjoint_duality():
        for _ in range(50):
            a, b, c = (tn.TruncTensor(2, 3, rng.standard_normal(15)) for _ in range(3))
            lhs = tn.inner(c, tn.mul_trunc(a, b))
            left = tn.inner(tn.left_adjoint(a, c), b)
            right = tn.inner(tn.right_adjoint(b, c), a)
            scale = 1.0 + abs(lhs)
            if abs(lhs - left) > 1e-12 * scale or abs(lhs - right) > 1e-12 * scale:
                return "duality residual too large"
        return None

    def exp_log_round_trip():
        for _ in range(20):
            coeffs = rng.standard_normal(31) * 0.5
            coeffs[0] = 0.0
            a = tn.TruncTensor(2, 4, coeffs)
            back = tn.log_trunc(tn.exp_trunc(a))
            if np.max(np.abs(back.coeffs - a.coeffs)) > 1e-12:
                return "round trip residual too large"
        return None

    def chen_hand_value():
        ts = TimeSeries([0.0, 1.0, 2.0], [[0.0, 0.0], [1.0, 0.0], [1.0, 1.0]])
        from .lift import chen_signature
        sig = chen_signature(ts, None, 2)
        want = np.array([1.0, 1.0, 1.0, 0.5, 1.0, 0.0, 0.5])
        if np.max(np.abs(sig.coeffs - want)) > 1e-15:
            return f"got {sig.coeffs}"
        return None

    def single_cell():
        got = solve_order1([[1.0]], [[1.0]]).value
        if got != 2.25:
            return f"got {got!r}, want 2.25"
        return None

    def degree1_collapse():
        ts_x = simulate_bm(2, 8, 0.04 * 8, rng)     # steps of s.d. 0.2
        ts_y = simulate_bm(2, 8, 0.04 * 8, rng)
        full = solve(build_pab(ts_x, ts_x.times, 1),
                     build_pab(ts_y, ts_y.times, 1), keep_state=True)
        fast = solve_order1(ts_x.increments(), ts_y.increments(), keep_state=True)
        gap = np.max(np.abs(full.state.u - fast.state.u))
        if gap > 1e-12:
            return f"grid gap {gap}"
        return None

    def refined_closed_form():
        splits = np.linspace(0.0, 1.0, 257)
        ts = TimeSeries(splits, np.outer(splits, [1.0, 0.0]))
        got = solve_order1(ts.increments(), ts.increments()).value
        want = linear_kernel_closed_form(1.0, 20)
        if abs(got - want) > 1e-5:
            return f"|{got} - {want}| > 1e-5"
        return None

    def experiment_determinism():
        cfg = ExperimentConfig(n_fine=32, factors=(4, 8), degrees=(1, 2),
                               repetitions=2, seed=7)
        def run():
            buf = io.StringIO()
            write_records_csv(convergence_experiment(cfg), buf)
            return buf.getvalue()
        if run() != run():
            return "reruns differ"
        return None

    return [
        ("adjoint duality", adjoint_duality),
        ("exp/log round trip", exp_log_round_trip),
        ("two-segment signature", chen_hand_value),
        ("single-cell kernel", single_cell),
        ("degree-1 collapse", degree1_collapse),
        ("refined closed form", refined_closed_form),
        ("experiment determinism", experiment_determinism),
    ]


def _cmd_selftest(_args) -> int:
    failed = False
    for name, fn in _selftest_checks():
        detail = fn()
        if detail is None:
            print(f"ok   {name}")
        else:
            failed = True
            print(f"FAIL {name}: {detail}")
    return EXIT_NUMERIC if failed else EXIT_OK


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: parse_args keeps no
    state between calls, and every main() call in a process shares it."""
    parser = argparse.ArgumentParser(
        prog="pabsig",
        description="Signature kernels of time series via log-linear path lifts",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--degree", type=int, default=1, metavar="M",
                       help="truncation degree of the lift (default 1)")
        p.add_argument("--every", type=int, default=1, metavar="K",
                       help="partition stride over sample points (default 1)")
        p.add_argument("--output", metavar="FILE", help="write here instead of stdout")
        p.add_argument("--format", choices=("csv", "json"), default=None)

    p = sub.add_parser("kernel", help="kernel value of two series")
    p.add_argument("x", help="first series CSV")
    p.add_argument("y", help="second series CSV")
    common(p)
    p.set_defaults(func=_cmd_kernel)

    p = sub.add_parser("logsig", help="interval log-signatures of one series")
    p.add_argument("x", help="series CSV")
    common(p)
    p.set_defaults(func=_cmd_logsig)

    p = sub.add_parser("gram", help="kernel matrix of a directory of series")
    p.add_argument("directory", help="directory of series CSVs")
    common(p)
    p.add_argument("--check-psd", action="store_true",
                   help="fail if the matrix is not positive semi-definite")
    p.set_defaults(func=_cmd_gram)

    p = sub.add_parser("convergence", help="coarsening experiment on Brownian pairs")
    p.add_argument("--config", metavar="FILE", help="JSON config")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--pairs", type=int, default=None,
                   help="override the number of path pairs")
    p.add_argument("--output", metavar="FILE")
    p.add_argument("--format", choices=("csv", "json"), default=None)
    p.set_defaults(func=_cmd_convergence)

    p = sub.add_parser("selftest", help="run built-in numeric checks")
    p.set_defaults(func=_cmd_selftest)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "degree", 1) < 1:
        parser.error("--degree must be >= 1")
    if getattr(args, "every", 1) < 1:
        parser.error("--every must be >= 1")
    try:
        return args.func(args)
    except (_ParseFailure, ValueError, MemoryError) as exc:
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        if isinstance(exc, _ParseFailure):
            return EXIT_USAGE
        return EXIT_NUMERIC if isinstance(exc, (NumericError, MemoryError)) else EXIT_SHAPE


if __name__ == "__main__":
    sys.exit(main())
