import math
import warnings

import numpy as np
import pytest

from pabsig import (
    NumericError,
    ShapeMismatchError,
    TimeSeries,
    direct_truncated_kernel,
    linear_kernel_closed_form,
    tail_bound,
)

from pabsig import oracle

from helpers import line_series, series_with_variation


def test_direct_kernel_constant_paths():
    ts = TimeSeries([0.0, 1.0, 2.0], np.zeros((3, 2)))
    assert direct_truncated_kernel(ts, ts, 4) == 1.0


def test_direct_kernel_overflow_raises_numeric_error():
    # both level-12 signatures are finite (largest coefficient 1.9e234), but
    # their inner product overflows
    ts = TimeSeries([0.0, 1.0, 2.0], [[0.0, 0.0], [1e20, 0.0], [1e20, 1e20]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericError, match="tensor operation overflowed"):
            direct_truncated_kernel(ts, ts, 12)


def test_direct_kernel_orthogonal_segments():
    a = line_series([1.0, 0.0], 1)
    b = line_series([0.0, 1.0], 1)
    assert direct_truncated_kernel(a, b, 5) == 1.0


def test_direct_kernel_identical_unit_segments():
    a = line_series([1.0, 0.0], 1)
    got = direct_truncated_kernel(a, a, 4)
    want = 1.0 + 1.0 + 0.25 + 1.0 / 36.0 + 1.0 / 576.0
    assert got == pytest.approx(want, rel=1e-15)


def test_direct_kernel_matches_closed_form():
    rng = np.random.default_rng(40)
    for _ in range(10):
        v = rng.standard_normal(3) * 0.6
        w = rng.standard_normal(3) * 0.6
        a = line_series(v, 1)
        b = line_series(w, 1)
        c = float(v @ w)
        got = direct_truncated_kernel(a, b, 8)
        assert got == pytest.approx(linear_kernel_closed_form(c, 8), rel=1e-13)


def test_direct_kernel_symmetric():
    rng = np.random.default_rng(41)
    a = series_with_variation(rng, 2, 4, 0.8)
    b = series_with_variation(rng, 2, 3, 0.9)
    assert direct_truncated_kernel(a, b, 6) == pytest.approx(
        direct_truncated_kernel(b, a, 6), rel=1e-14
    )


def test_direct_kernel_validation(monkeypatch):
    def no_signature(*args):
        raise AssertionError("signature computed before the dimension check")

    a = line_series([1.0, 0.0], 1)
    b = line_series([1.0], 1)
    monkeypatch.setattr(oracle, "chen_signature", no_signature)
    with pytest.raises(ShapeMismatchError,
                       match=r"operands disagree: \(d=2, m=3\) vs \(d=1, m=3\)"):
        direct_truncated_kernel(a, b, 3)
    with pytest.raises(ValueError):
        direct_truncated_kernel(a, a, 0)


def test_truncation_gap_within_tail_bound():
    # raising the level changes the kernel by at most the factorial tail
    rng = np.random.default_rng(42)
    for _ in range(10):
        a = series_with_variation(rng, 2, 4, float(rng.uniform(0.3, 1.0)))
        b = series_with_variation(rng, 2, 5, float(rng.uniform(0.3, 1.0)))
        var_a = np.linalg.norm(np.diff(a.values, axis=0), axis=1).sum()
        var_b = np.linalg.norm(np.diff(b.values, axis=0), axis=1).sum()
        c = max(var_a, var_b)
        for n in (3, 5, 8):
            gap = abs(
                direct_truncated_kernel(a, b, n + 1)
                - direct_truncated_kernel(a, b, n)
            )
            assert gap <= tail_bound(c, n) + 1e-15


def test_direct_kernel_gram_psd():
    rng = np.random.default_rng(43)
    paths = [series_with_variation(rng, 2, 4, 0.7) for _ in range(4)]
    g = np.array(
        [[direct_truncated_kernel(a, b, 5) for b in paths] for a in paths]
    )
    np.testing.assert_allclose(g, g.T, rtol=1e-13)
    assert np.linalg.eigvalsh(g).min() >= -1e-8


def test_closed_form_values():
    assert linear_kernel_closed_form(0.0, 7) == 1.0
    assert linear_kernel_closed_form(1.0, 2) == pytest.approx(2.25, rel=1e-15)
    want = sum(2.0**k / math.factorial(k) ** 2 for k in range(6))
    assert linear_kernel_closed_form(2.0, 5) == pytest.approx(want, rel=1e-14)
    # negative c alternates but stays finite
    assert linear_kernel_closed_form(-1.0, 30) == pytest.approx(
        sum((-1.0) ** k / math.factorial(k) ** 2 for k in range(31)), rel=1e-13
    )


def test_tail_bound_values():
    assert tail_bound(0.0, 5) == 0.0
    want = 2.0 * math.e / math.factorial(13)
    assert tail_bound(1.0, 12) == pytest.approx(want, rel=1e-13)
    assert tail_bound(1.0, 12) < 1e-9
    want2 = 2.0 * math.exp(2.0) * 2.0**21 / math.factorial(21)
    assert tail_bound(2.0, 20) == pytest.approx(want2, rel=1e-13)


def test_tail_bound_monotone_in_level():
    for c in (0.5, 1.0, 2.0):
        values = [tail_bound(c, n) for n in range(3, 15)]
        assert all(a > b for a, b in zip(values, values[1:]))


def test_tail_bound_rejects_negative_variation():
    with pytest.raises(ValueError):
        tail_bound(-0.5, 4)
