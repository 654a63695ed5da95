"""Tests of the benchmark's own checks and input generators.

    python3 -m pytest perfbench/test_checks.py
"""

import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import checks  # noqa: E402
import inputs  # noqa: E402
from pabsig import chen_signature, linear_kernel_closed_form  # noqa: E402
from workloads import LARGE_EXACT_C  # noqa: E402


def test_retraced_series_has_the_base_signature():
    rng = np.random.default_rng(7)
    for samples, amplitude in ((4096, 1.0), (1024, 3.0), (301, 1.0)):
        base = inputs.base_path(rng)
        ts = inputs.retraced_series(rng, base, samples, amplitude=amplitude)
        assert ts.values.shape == (samples, 2)
        variation = np.linalg.norm(np.diff(ts.values, axis=0), axis=1).sum()
        assert abs(variation - (0.8 + amplitude * inputs.EXCURSION_VARIATION)) < 1e-9
        got = chen_signature(ts, None, 4).coeffs
        want = chen_signature(inputs.base_series(base), None, 4).coeffs
        assert np.max(np.abs(got - want)) < 1e-13 * max(1.0, amplitude**4)


def test_retraced_series_is_seeded():
    make = lambda: inputs.retraced_series(np.random.default_rng(3),
                                          inputs.base_path(np.random.default_rng(4)), 512)
    assert np.array_equal(make().values, make().values)


def test_large_coefficient_check():
    exact = linear_kernel_closed_form(LARGE_EXACT_C, 200)
    assert abs(exact / 5.8940770556098e24 - 1.0) < 1e-12   # I0(60)
    assert checks.kernel_problems(-1.07234066565e+18, exact, checks.LARGE_RTOL)
    assert checks.kernel_problems(float("nan"), exact, checks.LARGE_RTOL)
    assert checks.kernel_problems(exact * (1 + 2 * checks.LARGE_RTOL), exact,
                                  checks.LARGE_RTOL)
    assert not checks.kernel_problems(exact, exact, checks.LARGE_RTOL)


def test_retraced_check_rejects_values_below_one():
    assert checks.kernel_problems(0.99999, 1.0000001, checks.RETRACED_RTOL)
    assert not checks.kernel_problems(1.00001, 1.0000001, checks.RETRACED_RTOL)


def test_gram_check():
    rng = np.random.default_rng(0)
    feats = rng.standard_normal((5, 3))
    good = np.eye(5) + feats @ feats.T
    assert not checks.gram_problems(good)

    asymmetric = good.copy()
    asymmetric[0, 1] += 1e-3
    assert any("symmetric" in p for p in checks.gram_problems(asymmetric))

    vals, vecs = np.linalg.eigh(good)
    vals[0] = -0.5
    indefinite = (vecs * vals) @ vecs.T
    indefinite = (indefinite + indefinite.T) / 2
    assert any("eigenvalue" in p for p in checks.gram_problems(indefinite))

    low = good.copy()
    low[2, 2] = 0.5
    assert any("below 1" in p for p in checks.gram_problems(low))


def test_order1_check():
    ref = np.array([[2.0, 1.5], [1.5, 3.0]])
    assert not checks.order1_problems(ref.copy(), ref)
    assert checks.order1_problems(ref * (1 + 1e-9), ref)


def test_table_check():
    text = ("degree,factor,mean_error,stderr,pairs\n"
            "1,4,0.01,0.0,1\n1,8,0.02,0.0,1\n2,4,0.001,0.0,1\n2,8,0.002,0.0,1\n")
    rows = checks.parse_table(text)
    assert not checks.table_problems(rows, (1, 2), (4, 8), 1)
    assert checks.table_problems(rows[:-1], (1, 2), (4, 8), 1)
    assert checks.table_problems(rows, (1, 2), (4, 8), 2)
    rows[0]["mean_error"] = -1.0
    assert checks.table_problems(rows, (1, 2), (4, 8), 1)


def test_tracer_spans_a_gram_and_restores_the_bindings(tmp_path):
    import pabsig.cli
    import pabsig.experiment
    import tracing

    rng = np.random.default_rng(1)
    for i, ts in enumerate(inputs.brownian_set(rng, 3, 2, 8)):
        inputs.write_csv(ts, tmp_path / f"bm_{i}.csv")
    original = pabsig.experiment.solve
    tracer = tracing.Tracer()
    with tracer.installed():
        with tracer.span("cli"):
            assert pabsig.cli.main(["gram", str(tmp_path), "--degree", "2"]) == 0
    assert pabsig.experiment.solve is original
    names = [span[0] for span in tracer.spans]
    assert names.count("goursat.solve") == 6 and names.count("lift.build_pab") == 3
    layers = tracing.layer_metrics(tracer, rounds=1, distinct_segments=24)
    assert layers["goursat.solve.deg2plus.calls"][0] == 6
    assert layers["goursat.solve.deg2plus.cells"][0] == 6 * 64
    assert layers["lift.reads_per_segment"][0] == 1.0
    assert layers["goursat.solve.peak_alloc_mb"][0] > 0
    assert 0 < layers["cli.self_s"][0] < tracer.spans[0][2] - tracer.spans[0][1]
