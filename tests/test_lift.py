import tracemalloc
import warnings

import numpy as np
import pytest

from pabsig import (
    NumericError,
    PiecewiseAbelianPath,
    ShapeMismatchError,
    TimeSeries,
    TruncTensor,
    build_pab,
    chen_signature,
    exp_trunc,
    inner,
    log_signature,
    mul_trunc,
    pab_partial_signatures,
    project,
    segment_signature,
    tensor_dim,
    thin_partition,
    unit,
)
from pabsig import lift as lift_module

from helpers import (
    chen_loop,
    chen_steps,
    line_series,
    log_signature_rows,
    rand_lie,
    rand_series,
)


def test_time_series_validation():
    with pytest.raises(ValueError):
        TimeSeries([0.0], [[1.0]])
    with pytest.raises(ValueError):
        TimeSeries([0.0, 1.0, 0.5], np.zeros((3, 2)))
    with pytest.raises(ValueError):
        TimeSeries([0.0, 0.0], np.zeros((2, 1)))
    with pytest.raises(ValueError):
        TimeSeries([0.0, 1.0], np.zeros((3, 2)))
    with pytest.raises(ValueError):
        TimeSeries([0.0, 1.0], [[0.0], [np.nan]])


def test_time_series_basics():
    ts = TimeSeries([0.0, 0.5, 2.0], [[0.0, 0.0], [1.0, -1.0], [1.0, 3.0]])
    assert ts.dim == 2
    assert ts.n_segments == 2
    np.testing.assert_array_equal(ts.increments(), [[1.0, -1.0], [0.0, 4.0]])
    assert ts.locate(0.5) == 1
    with pytest.raises(ValueError):
        ts.locate(0.25)
    with pytest.raises(ValueError):
        ts.locate(3.0)


def test_time_series_keeps_read_only_copies():
    t = np.array([0.0, 1.0, 2.0])
    v = np.zeros((3, 1))
    ts = TimeSeries(t, v)
    t[1] = 5.0
    v[0, 0] = 7.0
    np.testing.assert_array_equal(ts.times, [0.0, 1.0, 2.0])
    np.testing.assert_array_equal(ts.values, np.zeros((3, 1)))
    assert not ts.times.flags.writeable and not ts.values.flags.writeable


def test_segment_signature_zero():
    sig = segment_signature([0.0, 0.0], 3)
    np.testing.assert_array_equal(sig.coeffs, unit(2, 3).coeffs)


def test_segment_signature_hand():
    sig = segment_signature([1.0, 2.0], 2)
    # exp of e1 + 2 e2: level 2 is the half outer square
    assert sig.coeffs.tolist() == [1.0, 1.0, 2.0, 0.5, 1.0, 1.0, 2.0]


def test_segment_signature_powers():
    import math

    sig = segment_signature([1.5], 5)
    expected = [1.5**k / math.factorial(k) for k in range(6)]
    np.testing.assert_allclose(sig.coeffs, expected, rtol=1e-15)


def test_segment_signature_rejects_bad_input():
    with pytest.raises(ValueError, match=r"increment must be a vector, got shape \(1, 2\)"):
        segment_signature([[1.0, 0.0]], 2)
    with pytest.raises(ValueError, match="degree must be >= 1, got 0"):
        segment_signature([1.0, 0.0], 0)


def test_chen_single_segment():
    ts = TimeSeries([0.0, 1.0], [[0.0, 0.0], [0.3, -0.7]])
    got = chen_signature(ts, None, 3)
    want = segment_signature([0.3, -0.7], 3)
    np.testing.assert_array_equal(got.coeffs, want.coeffs)


def test_chen_two_segments_hand():
    # axis step then the other axis: product of the two exponentials
    ts = TimeSeries(
        [0.0, 1.0, 2.0], [[0.0, 0.0], [1.0, 0.0], [1.0, 1.0]]
    )
    got = chen_signature(ts, None, 2)
    assert got.coeffs.tolist() == [1.0, 1.0, 1.0, 0.5, 1.0, 0.0, 0.5]


def test_chen_multiplicative_over_interior_points():
    rng = np.random.default_rng(10)
    ts = rand_series(rng, 2, 6)
    full = chen_signature(ts, None, 4)
    for i in range(1, ts.n_segments):
        u = ts.times[i]
        left = chen_signature(ts, (ts.times[0], u), 4)
        right = chen_signature(ts, (u, ts.times[-1]), 4)
        prod = mul_trunc(left, right)
        np.testing.assert_allclose(prod.coeffs, full.coeffs, rtol=1e-13, atol=1e-14)


def test_chen_round_trip_is_unit():
    # a path followed by its reversal has trivial signature
    rng = np.random.default_rng(11)
    fwd = np.vstack([np.zeros(2), rng.standard_normal((3, 2))]).cumsum(axis=0)
    values = np.vstack([fwd, fwd[-2::-1]])
    ts = TimeSeries(np.arange(values.shape[0], dtype=float), values)
    sig = chen_signature(ts, None, 3)
    np.testing.assert_allclose(sig.coeffs, unit(2, 3).coeffs, atol=1e-14)


def test_chen_window_endpoints_must_be_samples():
    ts = TimeSeries([0.0, 1.0, 2.0], np.zeros((3, 2)))
    with pytest.raises(ValueError):
        chen_signature(ts, (0.0, 1.5), 2)
    with pytest.raises(ValueError):
        chen_signature(ts, (1.0, 1.0), 2)


def test_chen_invariant_under_reparametrization():
    values = [[0.0, 0.0], [1.0, 2.0], [0.5, -1.0], [2.0, 0.0]]
    a = TimeSeries([0.0, 1.0, 2.0, 3.0], values)
    b = TimeSeries([0.0, 0.1, 0.2, 7.0], values)
    np.testing.assert_array_equal(
        chen_signature(a, None, 3).coeffs, chen_signature(b, None, 3).coeffs
    )


def test_log_signature_single_segment_is_level_one():
    ts = TimeSeries([0.0, 2.0], [[0.0, 0.0], [0.4, 0.9]])
    inc = log_signature(ts, None, 4)
    coeffs = inc.coeffs
    np.testing.assert_allclose(coeffs[1:3], [0.4, 0.9], rtol=1e-15)
    assert coeffs[0] == 0.0
    np.testing.assert_allclose(coeffs[3:], 0.0, atol=1e-15)


def test_log_signature_two_segments_hand():
    ts = TimeSeries(
        [0.0, 1.0, 2.0], [[0.0, 0.0], [1.0, 0.0], [1.0, 1.0]]
    )
    inc = log_signature(ts, None, 2)
    np.testing.assert_allclose(
        inc.coeffs, [0.0, 1.0, 1.0, 0.0, 0.5, -0.5, 0.0], atol=1e-15
    )


def test_log_signature_degree_one_telescopes():
    rng = np.random.default_rng(12)
    ts = rand_series(rng, 3, 5)
    inc = log_signature(ts, (ts.times[1], ts.times[4]), 1)
    want = ts.values[4] - ts.values[1]
    np.testing.assert_allclose(inc.coeffs[1:], want, rtol=1e-13, atol=1e-15)


def test_log_signature_group_like_round_trip():
    rng = np.random.default_rng(13)
    ts = rand_series(rng, 2, 5)
    sig = chen_signature(ts, None, 4)
    back = exp_trunc(log_signature(ts, None, 4))
    np.testing.assert_allclose(back.coeffs, sig.coeffs, rtol=1e-12, atol=1e-13)


def test_log_signature_projection_consistent():
    rng = np.random.default_rng(14)
    ts = rand_series(rng, 2, 4)
    lo = log_signature(ts, None, 3)
    hi = log_signature(ts, None, 4)
    np.testing.assert_allclose(
        project(hi, 3).coeffs, lo.coeffs, rtol=1e-12, atol=1e-14
    )


def test_pab_validation():
    part = [0.0, 1.0, 2.0]
    times, incs = np.array(part), np.zeros((2, 7))
    p = PiecewiseAbelianPath(2, 2, times, incs)
    assert p.n_intervals == 2
    assert p.increments.shape == (2, 7)
    assert p.increments.dtype == np.float64
    # the path keeps its own read-only copies
    with pytest.raises(ValueError):
        p.increments[0, 1] = 1.0
    with pytest.raises(ValueError):
        p.partition[1] = 5.0
    incs[0, 1] = 1.0
    times[1] = 5.0
    assert not p.increments.any()
    np.testing.assert_array_equal(p.partition, part)

    def rejected(error, partition, increments, match):
        with pytest.raises(error, match=match) as info:
            PiecewiseAbelianPath(2, 2, partition, increments)
        assert info.type is error

    rejected(ValueError, part, np.zeros((1, 7)), "1 increments for 2 intervals")
    rejected(ShapeMismatchError, part, np.zeros((2, 15)), "rows of 7")
    scalar = np.zeros((2, 7))
    scalar[1, 0] = 1.0
    rejected(ValueError, part, scalar, "scalar slot 0")
    for bad in (np.nan, np.inf):
        nonfinite = np.zeros((2, 7))
        nonfinite[0, 3] = bad
        rejected(ValueError, part, nonfinite, "non-finite")
    for partition in ([0.0, 1.0, 1.0], [0.0, 2.0, 1.0]):
        rejected(ValueError, partition, np.zeros((2, 7)), "strictly increasing")
    rejected(ValueError, [0.0], np.zeros((0, 7)), "partition needs at least 2 points")


def test_build_pab_full_grid_degree_one():
    rng = np.random.default_rng(15)
    ts = rand_series(rng, 2, 6)
    p = build_pab(ts, ts.times, 1)
    assert p.n_intervals == 6
    np.testing.assert_allclose(
        p.increments[:, 1:], ts.increments(), rtol=1e-15, atol=1e-15
    )
    assert not p.increments[:, 0].any()


def test_build_pab_single_interval_matches_log_signature():
    rng = np.random.default_rng(16)
    ts = rand_series(rng, 2, 5)
    p = build_pab(ts, [ts.times[0], ts.times[-1]], 3)
    want = log_signature(ts, None, 3)
    np.testing.assert_array_equal(p.increments[0], want.coeffs)


def test_build_pab_rejects_bad_partitions():
    ts = TimeSeries([0.0, 1.0, 2.0, 3.0], np.zeros((4, 1)))
    with pytest.raises(ValueError):
        build_pab(ts, [0.0, 1.5, 3.0], 2)
    with pytest.raises(ValueError):
        build_pab(ts, [0.0, 2.0], 2)
    with pytest.raises(ValueError):
        build_pab(ts, [1.0, 3.0], 2)
    # the order is checked before the grid, as PiecewiseAbelianPath checks it
    for part in ([0.0, 2.0, 1.0, 3.0], [0.0, 1.0, 1.0, 3.0], [0.0, 2.5, 1.0, 3.0]):
        with pytest.raises(ValueError, match="^partition must be strictly increasing$"):
            build_pab(ts, part, 2)
    with pytest.raises(ValueError, match="partition needs at least 2 points"):
        build_pab(ts, [0.0], 2)


def test_build_pab_names_the_first_off_grid_point():
    ts = TimeSeries([0.0, 1.0, 2.0, 3.0], np.zeros((4, 1)))
    for part, bad in (([0.0, 1.5, 2.0, 3.0], "1.5"), ([0.0, 1.0, 3.0, 3.5], "3.5"),
                      ([0.0, 1.5, 3.0, 3.5], "1.5"), ([-0.5, 1.0, 3.0], "-0.5")):
        with pytest.raises(ValueError, match=rf"^time {bad} is not a sample time$"):
            build_pab(ts, part, 2)


def test_locate_takes_an_array_of_times():
    ts = TimeSeries([0.0, 0.5, 2.0], np.zeros((3, 1)))
    np.testing.assert_array_equal(ts.locate([0.0, 2.0, 0.5]), [0, 2, 1])
    with pytest.raises(ValueError, match=r"^time 0.25 is not a sample time$"):
        ts.locate([0.0, 0.25, 3.0])
    with pytest.raises(ValueError, match=r"^time 3.0 is not a sample time$"):
        ts.locate(np.float64(3.0))


def test_partial_signatures_match_chen():
    rng = np.random.default_rng(17)
    ts = rand_series(rng, 2, 8)
    part = ts.times[::2]
    p = build_pab(ts, part, 3)
    sigs = pab_partial_signatures(p)
    assert len(sigs) == p.n_intervals + 1
    np.testing.assert_array_equal(sigs[0].coeffs, unit(2, 3).coeffs)
    for i in range(1, len(sigs)):
        want = chen_signature(ts, (part[0], part[i]), 3)
        np.testing.assert_allclose(
            sigs[i].coeffs, want.coeffs, rtol=1e-12, atol=1e-13
        )


def test_partial_signatures_straight_line():
    ts = line_series([1.0, 1.0], 4)
    p = build_pab(ts, [0.0, 1.0], 2)
    sigs = pab_partial_signatures(p)
    want = segment_signature([1.0, 1.0], 2)
    np.testing.assert_allclose(sigs[1].coeffs, want.coeffs, rtol=1e-14, atol=1e-15)


def test_pab_increments_are_lie_at_degree_two():
    # level 2 of a degree-2 log-signature is antisymmetric
    rng = np.random.default_rng(18)
    ts = rand_series(rng, 2, 6)
    p = build_pab(ts, ts.times[::3], 2)
    for row in p.increments:
        lev2 = TruncTensor(2, 2, row).level(2).reshape(2, 2)
        np.testing.assert_allclose(lev2, -lev2.T, atol=1e-15)


def test_rand_lie_helper_consistency():
    # brackets of brackets stay log-like: exp then log returns the input
    rng = np.random.default_rng(19)
    for m in (2, 3, 4):
        lie = rand_lie(rng, 2, m)
        from pabsig import log_trunc

        back = log_trunc(exp_trunc(lie))
        np.testing.assert_allclose(back.coeffs, lie.coeffs, rtol=1e-11, atol=1e-12)


def test_thin_partition():
    ts = TimeSeries(np.arange(9, dtype=float), np.zeros((9, 1)))
    np.testing.assert_array_equal(thin_partition(ts, 2), [0, 2, 4, 6, 8])
    np.testing.assert_array_equal(thin_partition(ts, 3), [0, 3, 6, 8])
    np.testing.assert_array_equal(thin_partition(ts, 100), [0, 8])
    np.testing.assert_array_equal(thin_partition(ts, 1), ts.times)
    with pytest.raises(ValueError):
        thin_partition(ts, 0)


@pytest.mark.parametrize("d", (1, 2, 3))
def test_build_pab_matches_per_segment_chen_loop(d):
    # 23 segments: every 5 leaves a 3-segment remainder, every 11 a final
    # one-segment interval, every 1 only one-segment intervals; the last
    # partition has runs of 1, 9, 2, 1, 6 and 4 segments, in no order of
    # length, so a different number of runs is still going at most steps
    rng = np.random.default_rng(40 + d)
    ts = rand_series(rng, d, 23)
    parts = [thin_partition(ts, every) for every in (1, 5, 11)]
    parts.append(ts.times[np.cumsum([0, 1, 9, 2, 1, 6, 4])])
    for m in (1, 2, 3, 4):
        for part in parts:
            got = build_pab(ts, part, m).increments
            want = log_signature_rows(ts, part, m)
            assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()
            # each row is bitwise the lift of its interval alone
            for i, row in enumerate(got):
                alone = log_signature(ts, (part[i], part[i + 1]), m)
                assert row.tobytes() == alone.coeffs.tobytes()
        sig = chen_signature(ts, None, m).coeffs
        want = chen_loop(d, m, ts.increments())
        assert np.abs(sig - want).max() <= 1e-13 * np.abs(want).max()


@pytest.mark.parametrize("d", (1, 2, 3))
def test_lift_prefix_is_the_lower_degree_lift_bitwise(d):
    # level n of a signature and of its logarithm reads no higher level, so
    # a degree-M lift holds every degree-m lift, m <= M, as its leading
    # coefficients; every 5 leaves a ragged 3-segment last interval
    rng = np.random.default_rng(60 + d)
    ts = rand_series(rng, d, 128, scale=1.0)
    for every in (1, 4, 64, 5):
        part = thin_partition(ts, every)
        lifts = {m: build_pab(ts, part, m).increments for m in range(1, 6)}
        for top, full in lifts.items():
            for m in range(1, top + 1):
                prefix = full[:, :tensor_dim(d, m)]
                assert prefix.tobytes() == lifts[m].tobytes(), (every, top, m)


def test_chen_matches_per_step_loop_bitwise(monkeypatch):
    # ragged runs in no order of length, runs of one segment among them, and
    # increments of 0.0 and -0.0; budgets of 1, 7 and 50 values cut chunks
    # inside runs, so runs end, and the count still going drops, mid-lift
    rng = np.random.default_rng(70)
    budgets = (1, 7, 50, lift_module._BATCH_VALUES)
    for d in (1, 2, 3):
        for m in range(1, 6):
            for counts in ([1], [6], [1, 1, 1], [3, 1, 7, 2, 1, 4],
                           rng.integers(1, 10, 5)):
                bounds = np.concatenate([[0], np.cumsum(counts)])
                deltas = rng.standard_normal((bounds[-1], d))
                zeros = rng.random(deltas.shape)
                deltas[zeros < 0.15] = 0.0
                deltas[zeros > 0.85] = -0.0
                want = chen_steps(d, m, deltas, bounds).tobytes()
                for budget in budgets:
                    monkeypatch.setattr(lift_module, "_BATCH_VALUES", budget)
                    got = lift_module._chen(d, m, deltas, bounds)
                    assert got.tobytes() == want, (d, m, list(counts), budget)


def test_chen_peak_memory_does_not_grow_with_the_steps():
    # one run at d=2, m=12: chunks of positions hold at most _BATCH_VALUES
    # values of levels, so the peak is the same at 1024 and 4096 steps (up
    # to a few hundred bytes of Python objects) and within a few budgets
    peaks = []
    for n in (1024, 4096):
        deltas = np.random.default_rng(n).standard_normal((n, 2)) * 0.05
        tracemalloc.start()
        try:
            lift_module._chen(2, 12, deltas, np.array([0, n]))
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert abs(peaks[1] - peaks[0]) <= 0.01 * peaks[0], peaks
    assert max(peaks) < 4 * lift_module._BATCH_VALUES * 8, peaks


def test_lift_overflow_raises_numeric_error():
    ts = TimeSeries([0.0, 1.0, 2.0], [[0.0, 0.0], [1e200, 2e200], [-1e200, 3e200]])
    lifts = (
        lambda: build_pab(ts, ts.times, 2),
        lambda: chen_signature(ts, None, 2),
        lambda: log_signature(ts, None, 2),
        lambda: segment_signature([1e200, 2e200], 2),
    )
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for lift in lifts:
            with pytest.raises(NumericError, match="overflows"):
                lift()
        # level 1 alone stays finite
        assert np.isfinite(build_pab(ts, ts.times, 1).increments).all()
        # each interval's log-signature is finite, their running product not
        p = PiecewiseAbelianPath(1, 2, [0.0, 1.0, 2.0], [[0.0, 1e154, 0.0]] * 2)
        with pytest.raises(NumericError, match="^degree-2 partial signature overflows"):
            pab_partial_signatures(p)
