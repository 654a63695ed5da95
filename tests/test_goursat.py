import tracemalloc

import numpy as np
import pytest

from pabsig import (
    NumericError,
    PiecewiseAbelianPath,
    ShapeMismatchError,
    TimeSeries,
    build_pab,
    init_boundaries,
    kernel,
    solve,
    solve_order1,
    solve_pairs,
    step,
    tensor_dim,
    unit,
)

from pabsig import goursat
from pabsig.goursat import _boundary_partials
from pabsig.tensors import _exp, _mul

from helpers import (
    line_series,
    pa_exact_kernel,
    pad_pab,
    rand_pab,
    rand_series,
    refine_pab,
    series_with_variation,
)


def closed_form(c, terms=25):
    """sum_k c^k / (k!)^2, the kernel of two straight lines with <v, w> = c."""
    total, term = 0.0, 1.0
    for k in range(1, terms + 1):
        term *= c / (k * k)
        total += term
    return 1.0 + total


def single_segment_pab(v, splits, m=1):
    ts = line_series(v, splits)
    return build_pab(ts, ts.times, m)


def manual_sweep(px, py):
    state = init_boundaries(px, py)
    for i in range(px.n_intervals):
        for j in range(py.n_intervals):
            step(state, i, j)
    return state


def test_init_boundaries_structure():
    rng = np.random.default_rng(20)
    px = rand_pab(rng, 2, 2, 3)
    py = rand_pab(rng, 2, 2, 4)
    state = init_boundaries(px, py)
    assert state.u.shape == (4, 5)
    assert state.phi.shape == (4, 5, 7)
    np.testing.assert_array_equal(state.u[0, :], 1.0)
    np.testing.assert_array_equal(state.u[:, 0], 1.0)
    assert np.isnan(state.u[1:, 1:]).all()
    np.testing.assert_array_equal(state.phi[0], 0.0)
    np.testing.assert_array_equal(state.psi[:, 0], 0.0)
    # bottom edge of phi carries the running signature minus one
    from helpers import pa_exact_kernel  # noqa: F401  (sibling import check)
    from pabsig import pab_partial_signatures

    sigs = pab_partial_signatures(px)
    for i in range(4):
        want = sigs[i].coeffs.copy()
        want[0] = 0.0
        np.testing.assert_allclose(state.phi[i, 0], want, rtol=1e-13, atol=1e-14)
        assert state.phi[i, 0][0] == 0.0


def test_init_boundaries_degree1_line():
    px = single_segment_pab([1.0, 0.0], 2)
    py = single_segment_pab([1.0, 0.0], 2)
    state = init_boundaries(px, py)
    # halfway along a unit line the partial increment is v/2
    np.testing.assert_allclose(state.phi[1, 0], [0.0, 0.5, 0.0], atol=1e-15)
    np.testing.assert_allclose(state.phi[2, 0], [0.0, 1.0, 0.0], atol=1e-15)


def test_init_boundaries_dim_mismatch():
    rng = np.random.default_rng(21)
    with pytest.raises(ShapeMismatchError):
        init_boundaries(rand_pab(rng, 2, 2, 2), rand_pab(rng, 3, 2, 2))
    with pytest.raises(ShapeMismatchError):
        init_boundaries(rand_pab(rng, 2, 2, 2), rand_pab(rng, 2, 3, 2))


def test_step_single_cell_unit_dot():
    px = single_segment_pab([1.0, 0.0], 1)
    py = single_segment_pab([1.0, 0.0], 1)
    state = manual_sweep(px, py)
    assert state.u[1, 1] == 2.25


def test_step_single_cell_formula():
    rng = np.random.default_rng(22)
    for _ in range(10):
        v = rng.standard_normal(2)
        w = rng.standard_normal(2)
        c = float(v @ w)
        state = manual_sweep(single_segment_pab(v, 1), single_segment_pab(w, 1))
        assert state.u[1, 1] == pytest.approx(1.0 + c + 0.25 * c * c, rel=1e-14)


def test_step_requires_dependencies():
    px = single_segment_pab([1.0, 0.0], 2)
    py = single_segment_pab([1.0, 0.0], 2)
    state = init_boundaries(px, py)
    with pytest.raises(ValueError):
        step(state, 1, 1)


def test_step_zero_x_increment():
    d, m = 2, 2
    px = PiecewiseAbelianPath(d, m, [0.0, 1.0], np.zeros((1, tensor_dim(d, m))))
    rng = np.random.default_rng(23)
    py = rand_pab(rng, d, m, 1)
    state = manual_sweep(px, py)
    # no x motion: u stays 1, phi does not grow
    assert state.u[1, 1] == 1.0
    np.testing.assert_array_equal(state.phi[1, 1], state.phi[0, 1])


def test_solve_matches_step_loop():
    rng = np.random.default_rng(24)
    cases = [(1, 2, 3, 4), (2, 2, 4, 5), (2, 3, 4, 3), (3, 2, 2, 6)]
    for d, m, nx, ny in cases:
        px = rand_pab(rng, d, m, nx)
        py = rand_pab(rng, d, m, ny)
        ref = manual_sweep(px, py)
        got = solve(px, py, keep_state=True)
        assert not np.isnan(got.state.u).any()
        np.testing.assert_allclose(got.state.u, ref.u, rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(got.state.phi, ref.phi, rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(got.state.psi, ref.psi, rtol=1e-12, atol=1e-12)
        assert got.value == pytest.approx(float(ref.u[nx, ny]), rel=1e-13)
    # repeated increments fire the curvature correction, at degree 1 and
    # through the coupled adjoint sweep of a zero-padded degree-2 path
    px = refine_pab(rand_pab(rng, 2, 1, 2), 3)
    py = refine_pab(rand_pab(rng, 2, 1, 3), 2)
    for a, b in ((px, py), (pad_pab(px, 2), pad_pab(py, 2))):
        ref = manual_sweep(a, b)
        got = solve(a, b, keep_state=True)
        np.testing.assert_allclose(got.state.u, ref.u, rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(got.state.phi, ref.phi, rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(got.state.psi, ref.psi, rtol=1e-12, atol=1e-12)


def test_solve_single_row_and_column():
    rng = np.random.default_rng(25)
    px = rand_pab(rng, 2, 2, 1)
    py = rand_pab(rng, 2, 2, 5)
    for a, b in ((px, py), (py, px)):
        ref = manual_sweep(a, b)
        got = solve(a, b, keep_state=True)
        np.testing.assert_allclose(got.state.u, ref.u, rtol=1e-12, atol=1e-12)


def test_solve_trivial_paths():
    d, m = 2, 2
    incs = np.zeros((3, tensor_dim(d, m)))
    p = PiecewiseAbelianPath(d, m, [0.0, 1.0, 2.0, 3.0], incs)
    assert solve(p, p).value == 1.0


def test_solve_closed_form_refinement():
    want = closed_form(1.0)
    errors = {}
    for splits in (64, 128, 256):
        px = single_segment_pab([1.0, 0.0], splits)
        py = single_segment_pab([1.0, 0.0], splits)
        errors[splits] = abs(solve(px, py).value - want)
    assert errors[256] < 1e-6
    assert errors[64] / errors[128] >= 3.0
    assert errors[128] / errors[256] >= 3.0


def test_closed_form_error_at_64_cells():
    # documents the actual accuracy of the curvature-corrected cell update
    # at a 64x64 grid for the hardest smooth case <v, w> = 1: about 2.9e-7
    px = single_segment_pab([1.0, 0.0], 64)
    err = abs(solve(px, px).value - closed_form(1.0))
    assert 1e-7 < err < 5e-7


def test_solve_converges_to_signature_products():
    # the exact kernel of a piecewise-abelian path pair is the inner product
    # of their signatures, computed independently at a high truncation level;
    # refining the partitions drives the solve toward it at first order
    rng = np.random.default_rng(26)
    for m in (2, 3):
        px = rand_pab(rng, 2, m, 2, scale=0.3)
        py = rand_pab(rng, 2, m, 2, scale=0.3)
        want = pa_exact_kernel(px, py, 12)
        errs = []
        for r in (4, 8, 16, 32, 64):
            got = solve(refine_pab(px, r), refine_pab(py, r)).value
            errs.append(abs(got - want))
        assert all(a > b for a, b in zip(errs, errs[1:]))
        assert 1.6 < errs[-2] / errs[-1] < 2.6
        assert errs[-1] < errs[0] / 6
        assert errs[-1] < 2e-4


def test_degree1_solve_collapses_to_scalar_recursion():
    rng = np.random.default_rng(27)
    for _ in range(5):
        tsx = rand_series(rng, 2, int(rng.integers(2, 8)))
        tsy = rand_series(rng, 2, int(rng.integers(2, 8)))
        px = build_pab(tsx, tsx.times, 1)
        py = build_pab(tsy, tsy.times, 1)
        full = solve(px, py, keep_state=True)
        fast = solve_order1(tsx.increments(), tsy.increments(), keep_state=True)
        np.testing.assert_allclose(
            full.state.u, fast.state.u, rtol=1e-12, atol=1e-12
        )
        assert abs(full.value - fast.value) <= 1e-12 * max(1.0, abs(fast.value))
    # straight pieces sampled several times fire the curvature correction
    tsx = series_with_variation(rng, 2, 3, 1.0, n_per_segment=4)
    tsy = series_with_variation(rng, 2, 2, 0.8, n_per_segment=5)
    full = solve(build_pab(tsx, tsx.times, 1), build_pab(tsy, tsy.times, 1),
                 keep_state=True)
    fast = solve_order1(tsx.increments(), tsy.increments(), keep_state=True)
    np.testing.assert_allclose(full.state.u, fast.state.u, rtol=1e-12, atol=1e-12)


def test_zero_padding_leaves_kernel_unchanged():
    rng = np.random.default_rng(28)
    for m in (1, 2):
        for _ in range(3):
            px = rand_pab(rng, 2, m, 3)
            py = rand_pab(rng, 2, m, 4)
            base = solve(px, py).value
            padded = solve(pad_pab(px, m + 2), pad_pab(py, m + 2)).value
            assert abs(base - padded) <= 1e-12 * max(1.0, abs(base))
    # repeated increments, where the curvature correction fires
    px = refine_pab(rand_pab(rng, 2, 1, 2), 4)
    py = refine_pab(rand_pab(rng, 2, 1, 3), 3)
    base = solve(px, py).value
    padded = solve(pad_pab(px, 3), pad_pab(py, 3)).value
    assert abs(base - padded) <= 1e-12 * max(1.0, abs(base))


def test_swap_symmetry():
    rng = np.random.default_rng(29)
    for d, m in ((2, 1), (2, 2), (3, 2)):
        px = rand_pab(rng, d, m, 4)
        py = rand_pab(rng, d, m, 3)
        v1 = solve(px, py).value
        v2 = solve(py, px).value
        assert abs(v1 - v2) <= 1e-12 * max(1.0, abs(v1))


def test_scalar_slots_stay_zero():
    rng = np.random.default_rng(30)
    px = rand_pab(rng, 2, 3, 4)
    py = rand_pab(rng, 2, 3, 5)
    state = solve(px, py, keep_state=True).state
    np.testing.assert_array_equal(state.phi[..., 0], 0.0)
    np.testing.assert_array_equal(state.psi[..., 0], 0.0)


def test_solve_order1_examples():
    v = solve_order1([[1.0, 0.0]], [[0.0, 1.0]]).value
    assert v == 1.0
    assert solve_order1([[1.0]], [[1.0]]).value == 2.25
    sol = solve_order1([[1.0, 0.0], [0.0, 1.0]], [[1.0, 0.0]], keep_state=True)
    assert sol.state.u.shape == (3, 2)
    assert sol.state.phi is None


def four_point_sweep(X, Y):
    """Row-major degree-1 recursion with the plain 4-point cell average."""
    c = X @ Y.T
    u = np.ones((len(X) + 1, len(Y) + 1))
    for i in range(len(X)):
        for j in range(len(Y)):
            a = u[i + 1, j] + u[i, j + 1] - u[i, j]
            f1 = u[i, j] * c[i, j]
            f2 = u[i, j + 1] * c[i, j]
            f3 = u[i + 1, j] * c[i, j]
            f4 = (a + f1) * c[i, j]
            u[i + 1, j + 1] = a + 0.25 * ((f1 + f4) + (f2 + f3))
    return u


def test_solve_order1_matches_row_major_reference():
    # distinct neighbouring increments: the curvature correction never fires
    rng = np.random.default_rng(31)
    X = rng.standard_normal((5, 2)) * 0.5
    Y = rng.standard_normal((7, 2)) * 0.5
    got = solve_order1(X, Y, keep_state=True)
    np.testing.assert_array_equal(got.state.u, four_point_sweep(X, Y))


def test_curvature_correction_fires_on_repeated_increments():
    # repeated level-1 increments fire the correction, which moves the
    # value toward the exact signature inner product
    rng = np.random.default_rng(33)
    px = refine_pab(rand_pab(rng, 2, 1, 2), 8)
    py = refine_pab(rand_pab(rng, 2, 1, 2), 8)
    X = px.increments[:, 1:]
    Y = py.increments[:, 1:]
    want = pa_exact_kernel(px, py, 12)
    corrected = solve_order1(X, Y).value
    plain = float(four_point_sweep(X, Y)[-1, -1])
    assert abs(corrected - want) < abs(plain - want) / 5


def test_solve_order1_validation():
    with pytest.raises(ShapeMismatchError):
        solve_order1([1.0, 2.0], [[1.0]])
    with pytest.raises(ShapeMismatchError):
        solve_order1([[1.0, 0.0]], [[1.0]])
    # bad input, not an overflow of the sweep
    for X, Y in (([[np.nan]], [[1.0]]), ([[1.0]], [[1.0], [np.inf]])):
        with pytest.raises(ValueError, match="non-finite") as err:
            solve_order1(X, Y)
        assert not isinstance(err.value, NumericError)


def test_kernel_wrapper():
    rng = np.random.default_rng(32)
    tsx = rand_series(rng, 2, 6)
    tsy = rand_series(rng, 2, 4)
    got = kernel(tsx, tsy, m=2)
    px = build_pab(tsx, tsx.times, 2)
    py = build_pab(tsy, tsy.times, 2)
    assert got == solve(px, py).value
    coarse = kernel(tsx, tsy, m=2, partition_x=tsx.times[::3])
    assert coarse != got


def test_kernel_wrapper_dim_mismatch():
    tsx = TimeSeries([0.0, 1.0], np.zeros((2, 2)))
    tsy = TimeSeries([0.0, 1.0], np.zeros((2, 3)))
    with pytest.raises(ShapeMismatchError):
        kernel(tsx, tsy)


def test_solution_without_state():
    px = single_segment_pab([1.0, 0.0], 2)
    sol = solve(px, px)
    assert sol.state is None


def test_boundary_partials_match_per_interval_loop_bitwise():
    rng = np.random.default_rng(61)
    for d, m in ((2, 2), (2, 3), (3, 2)):
        X = rand_pab(rng, d, m, 6).increments
        want = np.zeros((7, tensor_dim(d, m)))
        g = unit(d, m).coeffs
        for i, x in enumerate(X):
            g = _mul(d, m, g, _exp(d, m, x))
            want[i + 1] = g
            want[i + 1, 0] = 0.0
        assert _boundary_partials(d, m, X).tobytes() == want.tobytes()


def test_degree1_solve_takes_the_scalar_sweep():
    rng = np.random.default_rng(62)
    tsx = rand_series(rng, 2, 7)
    tsy = rand_series(rng, 2, 5)
    px = build_pab(tsx, tsx.times, 1)
    py = build_pab(tsy, tsy.times, 1)
    got = solve(px, py)
    assert got.state is None
    scalar = solve_order1(px.increments[:, 1:], py.increments[:, 1:])
    assert got.value == scalar.value
    coupled = solve(px, py, keep_state=True).value
    assert abs(got.value - coupled) <= 1e-12 * max(1.0, abs(coupled))


def same_bits(a, b):
    a, b = np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def batch_cases(rng):
    """Pairs of two shapes at each d = 1-3 and m = 1-3.  Two refined, padded
    pairs per (d, m) repeat increments along different axes, so the
    curvature correction fires on them, next to random pairs of the same
    shape, where it does not."""
    pairs = []
    for d in (1, 2, 3):
        for m in (1, 2, 3):
            pairs += [(rand_pab(rng, d, m, 4), rand_pab(rng, d, m, 3)),
                      (rand_pab(rng, d, m, 6), rand_pab(rng, d, m, 6))]
            for nx, ny in ((2, 3), (3, 2)):
                px = pad_pab(refine_pab(rand_pab(rng, d, 1, nx), 6 // nx), m)
                py = pad_pab(refine_pab(rand_pab(rng, d, 1, ny), 6 // ny), m)
                pairs.append((px, py))
            pairs.append((rand_pab(rng, d, m, 6), rand_pab(rng, d, m, 6)))
    return pairs


def test_solve_pairs_entries_match_single_solves_bitwise():
    rng = np.random.default_rng(90)
    pairs = batch_cases(rng)
    alone = [solve(px, py).value for px, py in pairs]
    repeats = [(np.diff(p.increments, axis=0) == 0).all(axis=1).any()
               for pair in pairs for p in pair]
    assert sum(repeats) == 2 * 2 * 9
    for order in (np.arange(len(pairs)), rng.permutation(len(pairs)),
                  rng.permutation(len(pairs))[:7]):
        got = solve_pairs([pairs[k][0] for k in order], [pairs[k][1] for k in order])
        assert same_bits(got, [alone[k] for k in order])
    # pair 13 (d = 1, m = 3, the second refined pair), where the correction
    # fires, among different batch-mates of its shape, and alone in a batch
    k = 2 * 5 + 3
    for mates in ([], pairs[10:13], pairs[14:15] + pairs[11:12], [pairs[k]] * 4):
        got = solve_pairs([a for a, _ in mates] + [pairs[k][0]],
                          [b for _, b in mates] + [pairs[k][1]])
        assert same_bits(got[-1], alone[k])


def test_solve_pairs_splits_large_groups_into_chunks(monkeypatch):
    rng = np.random.default_rng(91)
    pairs = [(rand_pab(rng, 2, m, 5), rand_pab(rng, 2, m, 4))
             for m in (1, 2) for _ in range(7)]
    pxs, pys = [a for a, _ in pairs], [b for _, b in pairs]
    alone = [solve(a, b).value for a, b in pairs]
    assert same_bits(solve_pairs(pxs, pys), alone)
    batches = []
    sweep, sweep_order1 = goursat._sweep, goursat._sweep_order1
    monkeypatch.setattr(goursat, "_sweep", lambda d, m, X, Y, state=None:
                        batches.append((m, len(X))) or sweep(d, m, X, Y, state))
    monkeypatch.setattr(goursat, "_sweep_order1", lambda X, Y, grid=None:
                        batches.append((1, len(X))) or sweep_order1(X, Y, grid))
    # per pair the budget counts 5 x 4 values at degree 1 and
    # 16 x 6 x 7 + 2 x 7 x 7 at degree 2 (N(2, 2) = 7 coefficients)
    for budget, want in ((40, [(1, 1), (1, 2), (1, 2), (1, 2)] + [(2, 1)] * 7),
                         (3 * (16 * 6 * 7 + 2 * 7 * 7),
                          [(1, 7), (2, 1), (2, 3), (2, 3)])):
        monkeypatch.setattr(goursat, "_BATCH_VALUES", budget)
        batches.clear()
        assert same_bits(solve_pairs(pxs, pys), alone)
        assert sorted(batches) == want

    # d = 3, m = 4 (N = 121) on 2 x 2 cells: the 2N x N matrix of the
    # current x increment outweighs the rows of adjoint states, and a
    # chunk of 4 pairs still holds no more than the budget
    pairs = [(rand_pab(rng, 3, 4, 2), rand_pab(rng, 3, 4, 2)) for _ in range(10)]
    pxs, pys = [a for a, _ in pairs], [b for _, b in pairs]
    alone = [solve(a, b).value for a, b in pairs]
    n = tensor_dim(3, 4)
    budget = 4 * (16 * 3 * n + 2 * n * n)
    monkeypatch.setattr(goursat, "_BATCH_VALUES", budget)
    batches.clear()
    tracemalloc.start()
    try:
        got = solve_pairs(pxs, pys)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert same_bits(got, alone)
    assert sorted(batches) == [(4, 2), (4, 4), (4, 4)]
    assert peak <= 8 * budget


def test_solve_pairs_validation():
    rng = np.random.default_rng(92)
    a, b = rand_pab(rng, 2, 2, 3), rand_pab(rng, 2, 2, 2)
    assert solve_pairs([], []).shape == (0,)
    with pytest.raises(ValueError):
        solve_pairs([a, b], [b])
    with pytest.raises(ShapeMismatchError):
        solve_pairs([a, a], [b, rand_pab(rng, 2, 3, 2)])
    # one overflowing pair fails the whole batch
    big = PiecewiseAbelianPath(2, 2, [0.0, 1.0, 2.0], b.increments * 1e100)
    with pytest.raises(NumericError):
        solve_pairs([b, big, b], [b, big, b])
