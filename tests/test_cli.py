import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from pabsig import (
    ErrorRecord,
    TimeSeries,
    chen_signature,
    exp_trunc,
    kernel,
    mul_trunc,
    tensor_dim,
    thin_partition,
    unit,
)
from pabsig import cli
from pabsig.cli import _ParseFailure, _parse_rows, main

from pabsig import TruncTensor

# pytest's pythonpath setting does not reach child processes
CHILD_ENV = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]))


def write_series(path, times, values):
    values = np.atleast_2d(np.asarray(values, dtype=float))
    d = values.shape[1]
    lines = ["time," + ",".join(f"x{i}" for i in range(1, d + 1))]
    for t, row in zip(times, values):
        lines.append(",".join(repr(float(v)) for v in [t, *row]))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def flat_series(path, d=2, n=4):
    write_series(path, np.linspace(0.0, 1.0, n + 1), np.zeros((n + 1, d)))


def line_csv(path, v, n=4):
    times = np.linspace(0.0, 1.0, n + 1)
    write_series(path, times, np.outer(times, v))


def test_kernel_human_output(tmp_path, capsys):
    x = tmp_path / "x.csv"
    flat_series(x)
    assert main(["kernel", str(x), str(x)]) == 0
    assert capsys.readouterr().out == "1.00000000000\n"


def test_kernel_value_matches_api(tmp_path, capsys):
    rng = np.random.default_rng(70)
    times = np.linspace(0.0, 1.0, 7)
    vx = rng.standard_normal((7, 2)).cumsum(axis=0) * 0.4
    vy = rng.standard_normal((7, 2)).cumsum(axis=0) * 0.4
    x, y = tmp_path / "x.csv", tmp_path / "y.csv"
    write_series(x, times, vx)
    write_series(y, times, vy)
    assert main(["kernel", str(x), str(y), "--degree", "2", "--every", "2",
                 "--format", "json"]) == 0
    got = json.loads(capsys.readouterr().out)["kernel"]
    tsx = TimeSeries(times, vx)
    tsy = TimeSeries(times, vy)
    want = kernel(tsx, tsy, 2, thin_partition(tsx, 2), thin_partition(tsy, 2))
    assert got == want


def test_kernel_csv_output_round_trips(tmp_path, capsys):
    x = tmp_path / "x.csv"
    line_csv(x, [1.0, 0.0])
    assert main(["kernel", str(x), str(x), "--format", "csv"]) == 0
    header, value = capsys.readouterr().out.splitlines()
    assert header == "kernel"
    assert float(value) == kernel(
        TimeSeries(np.linspace(0, 1, 5), np.outer(np.linspace(0, 1, 5), [1, 0])),
        TimeSeries(np.linspace(0, 1, 5), np.outer(np.linspace(0, 1, 5), [1, 0])),
    )


def test_kernel_output_file(tmp_path, capsys):
    x = tmp_path / "x.csv"
    out = tmp_path / "result.csv"
    flat_series(x)
    assert main(["kernel", str(x), str(x), "--output", str(out)]) == 0
    assert capsys.readouterr().out == ""
    assert out.read_text() == "kernel\n1.0\n"


def test_kernel_parse_failures(tmp_path, capsys):
    missing = tmp_path / "missing.csv"
    ok = tmp_path / "ok.csv"
    flat_series(ok)
    assert main(["kernel", str(missing), str(ok)]) == 2

    bad_header = tmp_path / "bad_header.csv"
    bad_header.write_text("t,x1\n0.0,0.0\n1.0,1.0\n")
    assert main(["kernel", str(bad_header), str(ok)]) == 2

    bad_field = tmp_path / "bad_field.csv"
    bad_field.write_text("time,x1\n0.0,zero\n1.0,1.0\n")
    assert main(["kernel", str(bad_field), str(ok)]) == 2

    ragged = tmp_path / "ragged.csv"
    ragged.write_text("time,x1\n0.0,0.0\n1.0\n")
    assert main(["kernel", str(ragged), str(ok)]) == 2
    capsys.readouterr()


def test_kernel_shape_failures(tmp_path, capsys):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    flat_series(a, d=2)
    flat_series(b, d=1)
    assert main(["kernel", str(a), str(b)]) == 3

    unsorted = tmp_path / "unsorted.csv"
    unsorted.write_text("time,x1\n0.0,0.0\n2.0,1.0\n1.0,2.0\n")
    assert main(["kernel", str(unsorted), str(a)]) == 3

    single = tmp_path / "single.csv"
    single.write_text("time,x1\n0.0,0.0\n")
    assert main(["kernel", str(single), str(a)]) == 3
    capsys.readouterr()


def test_bad_flags_exit_usage(tmp_path, capsys):
    x = tmp_path / "x.csv"
    flat_series(x)
    with pytest.raises(SystemExit) as exc:
        main(["kernel", str(x), str(x), "--degree", "0"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["kernel", str(x), str(x), "--every", "0"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2
    capsys.readouterr()


def test_main_reuses_one_parser(tmp_path, capsys):
    x = tmp_path / "x.csv"
    line_csv(x, [1.0, 0.5])
    d = tmp_path / "set"
    d.mkdir()
    line_csv(d / "a.csv", [1.0, 0.0])
    line_csv(d / "b.csv", [0.3, 1.0])
    calls = (["kernel", str(x), str(x)], ["gram", str(d)],
             ["kernel", str(x), str(x), "--degree", "0"])

    def run(argv):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        return (code, *capsys.readouterr())

    fresh = []
    for argv in calls:
        cli._build_parser.cache_clear()
        fresh.append(run(argv))
    assert [out[0] for out in fresh] == [0, 0, 2]
    for _ in range(2):
        assert [run(argv) for argv in calls] == fresh
    assert cli._build_parser() is cli._build_parser()


def test_logsig_straight_line(tmp_path, capsys):
    x = tmp_path / "x.csv"
    line_csv(x, [2.0, 0.0], n=4)
    assert main(["logsig", str(x), "--degree", "2"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "t_start,t_end,w_,w_1,w_2,w_11,w_12,w_21,w_22"
    assert len(lines) == 5
    for row in lines[1:]:
        fields = [float(v) for v in row.split(",")]
        # each quarter of the line moves 0.5 along the first axis, and a
        # straight segment has no content above level 1
        assert fields[3] == pytest.approx(0.5, abs=1e-12)
        assert fields[2:3] == [0.0]
        np.testing.assert_allclose(fields[5:], 0.0, atol=1e-15)


def test_logsig_reconstructs_signature(tmp_path, capsys):
    rng = np.random.default_rng(71)
    times = np.linspace(0.0, 1.0, 9)
    values = rng.standard_normal((9, 2)).cumsum(axis=0) * 0.3
    x = tmp_path / "x.csv"
    write_series(x, times, values)
    assert main(["logsig", str(x), "--degree", "3", "--every", "4"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 3
    prod = unit(2, 3)
    for row in lines[1:]:
        fields = [float(v) for v in row.split(",")]
        tensor = TruncTensor(2, 3, np.array(fields[2:]))
        prod = mul_trunc(prod, exp_trunc(tensor))
    want = chen_signature(TimeSeries(times, values), None, 3)
    np.testing.assert_allclose(prod.coeffs, want.coeffs, rtol=1e-12, atol=1e-13)


def test_logsig_json(tmp_path, capsys):
    x = tmp_path / "x.csv"
    line_csv(x, [1.0], n=2)
    assert main(["logsig", str(x), "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["columns"] == ["t_start", "t_end", "w_", "w_1"]
    assert len(doc["rows"]) == 2
    assert doc["rows"][0][3] == pytest.approx(0.5)


def test_gram_directory(tmp_path, capsys):
    d = tmp_path / "set"
    d.mkdir()
    line_csv(d / "a.csv", [1.0, 0.0])
    line_csv(d / "b.csv", [0.0, 1.0])
    assert main(["gram", str(d), "--degree", "2"]) == 0
    rows = [
        [float(v) for v in line.split(",")]
        for line in capsys.readouterr().out.splitlines()
    ]
    g = np.array(rows)
    assert g.shape == (2, 2)
    np.testing.assert_array_equal(g, g.T)
    assert g[0, 1] == 1.0  # orthogonal lines share only the empty word
    assert g[0, 0] > 2.0


def test_gram_check_psd(tmp_path, monkeypatch, capsys):
    d = tmp_path / "set"
    d.mkdir()
    rng = np.random.default_rng(72)
    for i in range(3):
        times = np.linspace(0.0, 1.0, 9)
        write_series(d / f"p{i}.csv", times,
                     rng.standard_normal((9, 2)).cumsum(axis=0) * 0.3)
    assert main(["gram", str(d), "--check-psd"]) == 0
    err = capsys.readouterr().err
    assert "min eigenvalue" in err
    monkeypatch.setattr(cli, "gram_matrix", lambda *args: np.array([[1.0, 2.0], [2.0, 1.0]]))
    assert main(["gram", str(d), "--check-psd"]) == 4
    out, err = capsys.readouterr()
    assert out == ""
    assert err.splitlines() == ["min eigenvalue -1.0",
                                "Gram matrix fails the positive semi-definite check"]


def test_gram_json_lists_files(tmp_path, capsys):
    d = tmp_path / "set"
    d.mkdir()
    line_csv(d / "b.csv", [1.0])
    line_csv(d / "a.csv", [1.0])
    assert main(["gram", str(d), "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["files"] == ["a.csv", "b.csv"]
    assert np.array(doc["gram"]).shape == (2, 2)


def test_gram_failures(tmp_path, capsys):
    empty = tmp_path / "empty"
    empty.mkdir()
    assert main(["gram", str(empty)]) == 2
    assert main(["gram", str(tmp_path / "nope")]) == 2
    mixed = tmp_path / "mixed"
    mixed.mkdir()
    flat_series(mixed / "a.csv", d=1)
    flat_series(mixed / "b.csv", d=2)
    assert main(["gram", str(mixed)]) == 3
    capsys.readouterr()


@pytest.mark.parametrize("values, shown", (
    # the 1-D path 0, 30, -30, 30: exact I0(60), about 5.9e24, and cell
    # coefficients up to 3600, on which the sweep loses all accuracy
    ((0.0, 30.0, -30.0, 30.0), "-1.0723406656497966e+18"),
    # the zigzag 0, 1, 0: exact 1, and one step per cell gives 0.9375
    ((0.0, 1.0, 0.0), "0.9375"),
))
def test_self_kernel_below_one_exits_numeric(tmp_path, capsys, values, shown):
    # every exact kernel of a path with itself is at least 1
    d = tmp_path / "set"
    d.mkdir()
    write_series(d / "a.csv", [0.0, 1.0, 2.0], [[0.0], [0.1], [0.3]])
    x = d / "b.csv"
    write_series(x, np.arange(len(values), dtype=float), np.array(values)[:, None])
    for degree in ("1", "3"):
        assert main(["kernel", str(x), str(x), "--degree", degree]) == 4
        assert capsys.readouterr() == (
            "", f"error: kernel of a path with itself is {shown}, below 1\n")
        assert main(["gram", str(d), "--degree", degree]) == 4
        assert capsys.readouterr() == (
            "", f"error: kernel of series 1 with itself is {shown}, below 1\n")


def small_config(tmp_path, **overrides):
    cfg = {"n_fine": 32, "factors": [4, 8], "degrees": [1, 2],
           "repetitions": 2, "seed": 5}
    cfg.update(overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return path


def test_convergence_csv(tmp_path, capsys):
    cfg = small_config(tmp_path)
    assert main(["convergence", "--config", str(cfg)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "degree,factor,mean_error,stderr,pairs"
    assert len(lines) == 5
    first = lines[1].split(",")
    assert first[0] == "1" and first[1] == "4" and first[4] == "2"
    float(first[2]), float(first[3])


def test_convergence_deterministic(tmp_path):
    cfg = small_config(tmp_path)
    out1 = tmp_path / "r1.csv"
    out2 = tmp_path / "r2.csv"
    assert main(["convergence", "--config", str(cfg), "--output", str(out1)]) == 0
    assert main(["convergence", "--config", str(cfg), "--output", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_convergence_seed_and_pairs_override(tmp_path, capsys):
    cfg = small_config(tmp_path)
    assert main(["convergence", "--config", str(cfg), "--seed", "6",
                 "--pairs", "3"]) == 0
    base = capsys.readouterr().out
    assert base.splitlines()[1].split(",")[4] == "3"
    assert main(["convergence", "--config", str(cfg)]) == 0
    assert capsys.readouterr().out != base


def test_convergence_json(tmp_path, capsys):
    cfg = small_config(tmp_path)
    assert main(["convergence", "--config", str(cfg), "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert [(r["degree"], r["factor"]) for r in doc] == [
        (1, 4), (1, 8), (2, 4), (2, 8)
    ]
    assert all(r["pairs"] == 2 for r in doc)


def test_convergence_config_failures(tmp_path, capsys):
    bad_json = tmp_path / "bad.json"
    bad_json.write_text("{not json")
    assert main(["convergence", "--config", str(bad_json)]) == 2
    not_object = tmp_path / "arr.json"
    not_object.write_text("[1, 2]")
    assert main(["convergence", "--config", str(not_object)]) == 2
    unknown = small_config(tmp_path, mystery=1)
    assert main(["convergence", "--config", str(unknown)]) == 2
    bad_factor = small_config(tmp_path, factors=[5])
    assert main(["convergence", "--config", str(bad_factor)]) == 2
    capsys.readouterr()
    assert main(["convergence", "--config", str(tmp_path)]) == 2     # a directory
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith(f"error: cannot read {tmp_path}: ") and err.count("\n") == 1
    # values of the wrong type or range: one error line, no traceback, no
    # numpy warning, and nothing truncated to an int behind the user's back
    base = {"n_fine": "8", "factors": "[4]", "degrees": "[1]", "repetitions": "1"}
    path = tmp_path / "typed.json"
    for key, value in (("n_fine", "8.0"), ("dim", "2.5"), ("dim", "true"),
                       ("repetitions", "2.0"), ("seed", '"abc"'), ("degrees", "[1.7]"),
                       ("factors", "[4.5]"), ("seed", "-1"), ("horizon", "1e400"),
                       ("factors", "[4, 4]"), ("degrees", "[1, 1]")):
        fields = {**base, key: value}
        path.write_text("{" + ", ".join(f'"{k}": {v}' for k, v in fields.items()) + "}")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(["convergence", "--config", str(path)])
        out, err = capsys.readouterr()
        assert code == 2, (key, value)
        assert out == "" and err.startswith("error: bad config: ") and err.count("\n") == 1
        assert not caught, (key, value)


def test_convergence_non_finite_error_exits_numeric(tmp_path, monkeypatch, capsys):
    cfg = small_config(tmp_path)
    for bad in (np.nan, np.inf):
        records = [ErrorRecord(1, 4, 0.5, 0.1, np.array([0.4, 0.6])),
                   ErrorRecord(2, 4, bad, 0.0, np.array([bad, 0.6]))]
        monkeypatch.setattr(cli, "convergence_experiment", lambda cfg: records)
        assert main(["convergence", "--config", str(cfg)]) == 4
        assert capsys.readouterr() == ("", "experiment produced non-finite errors\n")


@pytest.mark.parametrize("command", ["kernel", "logsig", "gram", "convergence"])
def test_unwritable_output_exits_usage(tmp_path, capsys, command):
    x = tmp_path / "x.csv"
    line_csv(x, [1.0, 0.5])
    d = tmp_path / "set"
    d.mkdir()
    line_csv(d / "a.csv", [1.0, 0.0])
    argv = {"kernel": ["kernel", str(x), str(x)],
            "logsig": ["logsig", str(x)],
            "gram": ["gram", str(d)],
            "convergence": ["convergence", "--config", str(small_config(tmp_path))]}
    # a file in a missing directory, and the empty path, which names no file
    for target in (str(tmp_path / "missing" / "x"), ""):
        assert main([*argv[command], "--output", target]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith(f"error: cannot write {target}: ") and err.count("\n") == 1
    assert not (tmp_path / "missing").exists()


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("command", ["logsig", "gram"])
def test_output_file_matches_stdout(tmp_path, capsys, command, fmt):
    rng = np.random.default_rng(73)
    d = tmp_path / "set"
    d.mkdir()
    times = np.linspace(0.0, 1.0, 9)
    for i in range(2):
        write_series(d / f"p{i}.csv", times,
                     rng.standard_normal((9, 2)).cumsum(axis=0) * 0.3)
    argv = ["logsig", str(d / "p0.csv")] if command == "logsig" else ["gram", str(d)]
    argv += ["--degree", "2", "--format", fmt]
    assert main(argv) == 0
    printed = capsys.readouterr().out
    out = tmp_path / "result.txt"
    assert main([*argv, "--output", str(out)]) == 0
    assert capsys.readouterr().out == ""
    assert out.read_bytes() == printed.encode()


def test_selftest(monkeypatch, capsys):
    assert main(["selftest"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) >= 5
    assert all(line.startswith("ok   ") for line in lines)
    monkeypatch.setattr(cli, "_selftest_checks",
                        lambda: [("sound", lambda: None), ("broken", lambda: "got 3")])
    assert main(["selftest"]) == 4
    assert capsys.readouterr().out.splitlines() == ["ok   sound", "FAIL broken: got 3"]


def test_module_entry_point(tmp_path):
    x = tmp_path / "x.csv"
    flat_series(x)
    proc = subprocess.run(
        [sys.executable, "-m", "pabsig", "kernel", str(x), str(x)],
        capture_output=True, text=True, env=CHILD_ENV,
    )
    assert proc.returncode == 0
    assert proc.stdout == "1.00000000000\n"


def test_lift_overflow_exits_numeric(tmp_path):
    big = tmp_path / "big.csv"
    write_series(big, [0.0, 1.0, 2.0], [[0.0, 0.0], [1e200, 2e200], [-1e200, 3e200]])
    proc = subprocess.run(
        [sys.executable, "-m", "pabsig", "kernel", str(big), str(big), "--degree", "2"],
        capture_output=True, text=True, env=CHILD_ENV,
    )
    assert proc.returncode == 4
    assert proc.stdout == ""
    (line,) = proc.stderr.splitlines()
    assert line.startswith("error: ") and "overflows" in line


@pytest.mark.parametrize("scale, degree", ((1e200, 1), (1e100, 2)))
def test_sweep_overflow_exits_numeric(tmp_path, scale, degree):
    # both lifts stay finite; the kernel sweep overflows
    big = tmp_path / "big.csv"
    write_series(big, [0.0, 1.0, 2.0],
                 [[0.0, 0.0], [scale, 2 * scale], [-scale, 3 * scale]])
    # a benign series of the same length: gram fails on the one
    # overflowing pair of its three
    write_series(tmp_path / "calm.csv", [0.0, 1.0, 2.0],
                 [[0.0, 0.0], [0.1, 0.2], [0.3, 0.1]])
    for command in (["kernel", str(big), str(big)], ["gram", str(tmp_path)]):
        proc = subprocess.run(
            [sys.executable, "-m", "pabsig", *command, "--degree", str(degree)],
            capture_output=True, text=True, env=CHILD_ENV,
        )
        assert proc.returncode == 4
        assert proc.stdout == ""
        (line,) = proc.stderr.splitlines()
        assert line.startswith("error: ") and "not finite" in line


def test_failed_allocation_exits_numeric(tmp_path, monkeypatch, capsys):
    # a --degree too large to allocate ends in numpy's MemoryError; it is
    # raised here without allocating, since under memory overcommit a huge
    # allocation can succeed and then exhaust the machine's memory
    x = tmp_path / "s.csv"
    flat_series(x, n=2)
    for exc, line in ((MemoryError("Unable to allocate 32.0 TiB"),
                       "error: Unable to allocate 32.0 TiB\n"),
                      (MemoryError(), "error: out of memory\n")):
        def too_big(*args, exc=exc):
            raise exc
        monkeypatch.setattr(cli, "kernel", too_big)
        assert main(["kernel", str(x), str(x), "--degree", "40"]) == 4
        assert capsys.readouterr() == ("", line)


def test_csv_parse_matches_float_bitwise(monkeypatch):
    rng = np.random.default_rng(75)
    values = rng.standard_normal(300) * 10.0 ** rng.integers(-320, 300, 300)
    fields = [repr(float(v)) for v in values]
    fields += ["nan", "-nan", "NaN", "inf", "-inf", "+Infinity", "1e400",
               "-0.0", "5e-324", " 1.5", "2.5 ", "\t-3.25\t", "  4e-3  ",
               "0.1000000000000000055511151231257827", ".5", "7."]
    fields += [repr(float(v)) for v in rng.standard_normal(2)]
    rows = [fields[k:k + 3] for k in range(0, len(fields), 3)]
    body = "".join(",".join(row) + "\n" for row in rows[1:])
    want = np.array([[float(f) for f in row] for row in rows])
    plain = "time,x1,x2\n" + ",".join(rows[0]) + "\n" + body
    # quotes leave numpy out: csv and float() read every row
    quoted = "time,x1,x2\n" + ",".join(f'"{f}"' for f in rows[0]) + "\n" + body
    for text in (plain, quoted):
        got = _parse_rows("s.csv", text)
        assert got.dtype == np.float64
        assert got.tobytes() == want.tobytes()
    # the plain file is parsed by numpy alone
    monkeypatch.setattr(cli.csv, "reader", None)
    assert _parse_rows("s.csv", plain).tobytes() == want.tobytes()


def test_csv_parse_failures_name_the_line(tmp_path):
    cases = {
        "time,x1\n0.0,0.0\n1.0\n": "s.csv:3: expected 2 fields, got 1",
        "time,x1\n0.0,0.0\n\n1.0,zero\n": "s.csv:4: non-numeric field",
        "time,x1\n0.0,0.0\n   \n1.0,1.0\n": "s.csv:3: expected 2 fields, got 1",
        "time,x1\n0.0,1_0\n": None,       # float() reads underscores
        "time,x1\n0.0,0.0,\n": "s.csv:2: expected 2 fields, got 3",
        "t,x1\n0.0,0.0\n": "s.csv: header must be time,x1,...,xd",
        "time,x1\n\n": "s.csv: no data rows",
        "": "s.csv: empty file",
    }
    for text, message in cases.items():
        if message is None:
            assert _parse_rows("s.csv", text).tolist() == [[0.0, 10.0]]
            continue
        with pytest.raises(_ParseFailure) as info:
            _parse_rows("s.csv", text)
        assert str(info.value) == message
