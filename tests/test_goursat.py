import tracemalloc

import numpy as np
import pytest

from pabsig import (
    GoursatState,
    NumericError,
    PiecewiseAbelianPath,
    ShapeMismatchError,
    TimeSeries,
    build_pab,
    init_boundaries,
    kernel,
    pab_partial_signatures,
    solve,
    solve_order1,
    solve_pairs,
    step,
    tensor_dim,
    unit,
)

from pabsig import goursat
from pabsig.tensors import _exp, _mul, _partials

from helpers import (
    line_series,
    pa_exact_kernel,
    pad_pab,
    rand_pab,
    rand_series,
    refine_pab,
    series_with_variation,
    skewed_sweep_order1,
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
    scalar = solve_order1([[1.0, 0.0]], [[0.5, 0.5]], keep_state=True).state
    with pytest.raises(ValueError, match="state lacks adjoint grids"):
        step(scalar, 0, 0)
    bare = GoursatState(state.dim, state.degree, state.u, state.phi, state.psi)
    with pytest.raises(ValueError, match="state lacks the path increments"):
        step(bare, 0, 0)


def test_step_zero_x_increment():
    d, m = 2, 2
    px = PiecewiseAbelianPath(d, m, [0.0, 1.0], np.zeros((1, tensor_dim(d, m))))
    rng = np.random.default_rng(23)
    py = rand_pab(rng, d, m, 1)
    state = manual_sweep(px, py)
    # no x motion: u stays 1, phi does not grow
    assert state.u[1, 1] == 1.0
    np.testing.assert_array_equal(state.phi[1, 1], state.phi[0, 1])


def step_cases(rng):
    """Pairs of the shapes that the sweeps are checked on against step():
    four random shapes at degrees 2-3; repeated increments, which fire the
    curvature correction, at degree 1 (the scalar sweep) and zero-padded
    to degree 2 (the coupled sweep); and a single row and a single
    column."""
    cases = [(rand_pab(rng, d, m, nx), rand_pab(rng, d, m, ny))
             for d, m, nx, ny in ((1, 2, 3, 4), (2, 2, 4, 5), (2, 3, 4, 3), (3, 2, 2, 6))]
    px = refine_pab(rand_pab(rng, 2, 1, 2), 3)
    py = refine_pab(rand_pab(rng, 2, 1, 3), 2)
    cases += [(px, py), (pad_pab(px, 2), pad_pab(py, 2))]
    px, py = rand_pab(rng, 2, 2, 1), rand_pab(rng, 2, 2, 5)
    return cases + [(px, py), (py, px)]


def test_solve_matches_step_loop():
    rng = np.random.default_rng(24)
    cases = step_cases(rng)
    for px, py in cases[:4]:
        ref = manual_sweep(px, py)
        assert solve(px, py).value == pytest.approx(float(ref.u[-1, -1]), rel=1e-13)
    # the curvature correction fires: at degree 1 through the scalar sweep,
    # at degree 2 through the coupled adjoint sweep
    for px, py in cases[4:6]:
        ref = manual_sweep(px, py)
        np.testing.assert_allclose(solve(px, py).value, ref.u[-1, -1], rtol=1e-12, atol=1e-12)


def test_keep_state_grids_are_the_step_loop():
    # keep_state runs the per-cell reference: init_boundaries, then step()
    # row by row, and the value is the far corner of its u grid
    rng = np.random.default_rng(24)
    for px, py in step_cases(rng):
        ref = manual_sweep(px, py)
        got = solve(px, py, keep_state=True)
        assert not np.isnan(got.state.u).any()
        for grid in ("u", "phi", "psi"):
            assert same_bits(getattr(got.state, grid), getattr(ref, grid)), grid
        assert same_bits(got.value, ref.u[-1, -1])


def test_top_level_of_adjoint_states_is_dead():
    # level m of phi and psi never reaches u or a lower level: with noise
    # written over it at every corner before each step, u and levels
    # 0..m-1 keep their bits
    rng = np.random.default_rng(95)
    for d in (1, 2, 3):
        for m in (2, 3, 4):
            px, py = rand_pab(rng, d, m, 3), rand_pab(rng, d, m, 4)
            ref = manual_sweep(px, py)
            state = init_boundaries(px, py)
            k = tensor_dim(d, m - 1)
            for i in range(px.n_intervals):
                for j in range(py.n_intervals):
                    for grid in (state.phi, state.psi):
                        grid[..., k:] = rng.standard_normal(grid[..., k:].shape)
                    step(state, i, j)
            assert state.u.tobytes() == ref.u.tobytes(), (d, m)
            assert state.phi[..., :k].tobytes() == ref.phi[..., :k].tobytes(), (d, m)
            assert state.psi[..., :k].tobytes() == ref.psi[..., :k].tobytes(), (d, m)


def test_reduced_sweep_matches_full_degree_sweep():
    # the coupled sweep carries levels 0..m-1 of the adjoint states, the
    # per-cell step() that keep_state runs all of levels 0..m
    rng = np.random.default_rng(96)
    for d in (1, 2, 3):
        for m in (2, 3, 4, 5):
            nx, ny = (3, 2) if (d, m) == (3, 5) else (6, 5)
            a, b = rand_series(rng, d, nx), rand_series(rng, d, ny)
            refined = (pad_pab(refine_pab(rand_pab(rng, d, 1, 2), 3), m),
                       pad_pab(refine_pab(rand_pab(rng, d, 1, 3), 2), m))
            assert any(repeats(refined[0].increments))   # the correction fires
            for px, py in ((rand_pab(rng, d, m, nx), rand_pab(rng, d, m, ny)), refined,
                           (build_pab(a, a.times, m), build_pab(b, b.times, m))):
                want = solve(px, py, keep_state=True).value
                got = solve(px, py).value
                assert abs(got - want) <= 1e-12 * max(1.0, abs(want)), (d, m, got, want)


def test_solve_single_row_and_column():
    rng = np.random.default_rng(25)
    px = rand_pab(rng, 2, 2, 1)
    py = rand_pab(rng, 2, 2, 5)
    for a, b in ((px, py), (py, px)):
        ref = manual_sweep(a, b)
        np.testing.assert_allclose(solve(a, b).value, ref.u[-1, -1], rtol=1e-12, atol=1e-12)


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
    sol = solve_order1(np.zeros((0, 2)), np.zeros((0, 2)), keep_state=True)
    assert sol.value == 1.0
    assert sol.state.u.tolist() == [[1.0]]


def test_single_cells_are_exact():
    # one cell from unit corners gives (1 + c/2)^2, and every operation of
    # the closed form is exact at these c: the scalar sweep, the coupled
    # sweep (on the degree-2 lifts, whose adjoint terms are 0 here), step()
    # and _corner, which takes h = c/2, give the same value
    for c, want in ((1.0, 2.25), (0.5, 1.5625), (-2.0, 0.0), (4.0, 9.0)):
        assert goursat._corner(1.0, 1.0, 1.0, 0.5 * c) == want
        assert solve_order1([[c, 0.0]], [[1.0, 0.0]]).value == want
        px = single_segment_pab([c, 0.0], 1)
        py = single_segment_pab([1.0, 0.0], 1)
        assert solve(px, py, keep_state=True).value == want
        assert manual_sweep(px, py).u[1, 1] == want
        px, py = single_segment_pab([c, 0.0], 1, 2), single_segment_pab([1.0, 0.0], 1, 2)
        assert solve(px, py).value == want


def repeats(X):
    """repeats[k]: increment k equals increment k-1 up to relative 1e-12."""
    out = [False]
    for prev, cur in zip(X, X[1:]):
        size = max(np.abs(prev).max(), np.abs(cur).max())
        out.append(bool(np.abs(cur - prev).max() <= 1e-12 * size))
    return out


def four_point_sweep(X, Y, curvature=False):
    """Row-major degree-1 recursion with the plain 4-point cell average in
    closed form, (s - u00) + h(s + h u00) with s = u10 + u01 and h = c/2,
    and, with curvature, the -(c/12)(D_s + D_t) term on cells whose x or y
    increment repeats its predecessor.  The cell coefficients
    c[i, j] = <x_i, y_j> are summed coordinate by coordinate, k = 0..d-1,
    the order the scalar sweep adds them in."""
    c = X[:, None, 0] * Y[None, :, 0]
    for k in range(1, X.shape[1]):
        c = c + X[:, None, k] * Y[None, :, k]
    rep_x = repeats(X) if curvature else [False] * len(X)
    rep_y = repeats(Y) if curvature else [False] * len(Y)
    u = np.ones((len(X) + 1, len(Y) + 1))
    for i in range(len(X)):
        for j in range(len(Y)):
            s = u[i + 1, j] + u[i, j + 1]
            h = 0.5 * c[i, j]
            u[i + 1, j + 1] = (s - u[i, j]) + h * (s + h * u[i, j])
            if rep_x[i] or rep_y[j]:
                ds = (u[i + 1, j] + u[i - 1, j]) - 2.0 * u[i, j] if rep_x[i] else 0.0
                dt = (u[i, j + 1] + u[i, j - 1]) - 2.0 * u[i, j] if rep_y[j] else 0.0
                u[i + 1, j + 1] -= (c[i, j] / 12.0) * (ds + dt)
    return u


def test_solve_order1_matches_row_major_reference():
    # distinct neighbouring increments: the curvature correction never fires
    rng = np.random.default_rng(31)
    X = rng.standard_normal((5, 2)) * 0.5
    Y = rng.standard_normal((7, 2)) * 0.5
    got = solve_order1(X, Y, keep_state=True)
    np.testing.assert_array_equal(got.state.u, four_point_sweep(X, Y))


def order1_cases():
    """Increment pairs of the scalar sweep's bitwise tests: single rows and
    columns and small grids, each with and without runs of equal
    increments, where the correction fires, then a straight line against
    a kinked path sampled along its pieces, both ways round."""
    rng = np.random.default_rng(34)
    for nx, ny in ((1, 1), (1, 9), (9, 1), (2, 9), (9, 2), (7, 5)):
        X = rng.standard_normal((nx, 2)) * 0.4
        Y = rng.standard_normal((ny, 2)) * 0.4
        Xr = np.repeat(X[:(nx + 2) // 3], 3, axis=0)[:nx]
        Yr = np.repeat(Y[:(ny + 1) // 2], 2, axis=0)[:ny]
        yield from ((X, Y), (Xr, Yr), (X, Yr), (Xr, Y))
    X = line_series([1.0, 0.5], 8).increments()
    Y = series_with_variation(rng, 2, 3, 1.2, n_per_segment=4).increments()
    yield from ((X, Y), (Y, X))


def test_solve_order1_grids_match_row_major_reference_bitwise():
    # the scalar sweep builds blocks of anti-diagonals of cell coefficients;
    # every shape, including single rows and columns, must give the
    # row-major grid bit for bit, with and without repeats
    cases = list(order1_cases())
    for a, b in cases[:-2]:
        got = solve_order1(a, b, keep_state=True)
        want = four_point_sweep(a, b, curvature=True)
        assert same_bits(got.state.u, want)
        assert same_bits(got.value, want[-1, -1])
        assert same_bits(solve_order1(a, b).value, want[-1, -1])
    # a straight line against a kinked path sampled along its pieces
    (X, Y), _ = cases[-2:]
    want = four_point_sweep(X, Y, curvature=True)
    assert want[-1, -1] != four_point_sweep(X, Y)[-1, -1]
    for a, b, grid in ((X, Y, want), (Y, X, four_point_sweep(Y, X, curvature=True))):
        assert same_bits(solve_order1(a, b, keep_state=True).state.u, grid)


@pytest.mark.parametrize("K", [1, 2, 5])
def test_scalar_sweep_blocks_match_row_major_reference_bitwise(monkeypatch, K):
    # blocks of K anti-diagonals end inside every shape above one cell; each
    # must give the row-major grid and value bit for bit, alone and in a
    # batch with the other repeat patterns of its shape
    monkeypatch.setattr(goursat, "_diagonal_block", lambda nx, ny: K)
    # at d = 3 the order of the coordinate sum shows in the bits
    rng = np.random.default_rng(35)
    wide = [(rng.standard_normal((nx, 3)) * 0.4, rng.standard_normal((ny, 3)) * 0.4)
            for nx, ny in ((6, 7), (11, 3), (3, 11)) for _ in range(2)]
    by_shape = {}
    for a, b in [*order1_cases(), *wide]:
        want = four_point_sweep(a, b, curvature=True)
        assert same_bits(solve_order1(a, b, keep_state=True).state.u, want)
        assert same_bits(solve_order1(a, b).value, want[-1, -1])
        by_shape.setdefault((len(a), len(b)), []).append((a, b, want[-1, -1]))
    for cases in by_shape.values():
        got = goursat._sweep_order1(np.stack([a for a, _, _ in cases]),
                                    np.stack([b for _, b, _ in cases]))
        assert same_bits(got, [v for _, _, v in cases])


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


def test_kernel_gates_a_self_kernel_below_one():
    # the zigzag 0, 1, 0 has exact self-kernel 1; one step per cell gives 0.9375
    zigzag = TimeSeries([0.0, 1.0, 2.0], [[0.0], [1.0], [0.0]])
    again = TimeSeries([0.0, 1.0, 2.0], [[0.0], [1.0], [0.0]])
    for m in (1, 2, 3):
        with pytest.raises(NumericError,
                           match=r"^kernel of a path with itself is 0\.9375, below 1$"):
            kernel(zigzag, again, m)
    # equal lifts only: on two partitions one path has two lifts, which the
    # gate does not compare, so this 0.890625 passes though the exact
    # kernel of the two 1-D lifts, of total increment 0, is 1
    twice = TimeSeries(np.arange(5.0), [[0.0], [1.0], [0.0], [1.0], [0.0]])
    for m in (1, 2, 3):
        coarse = kernel(twice, twice, m, partition_y=[0.0, 1.0, 2.0, 4.0])
        assert coarse == 0.890625
    # the kernel of two distinct paths may be below 1
    up, down = line_series([1.0], 2), line_series([-1.0], 2)
    assert kernel(up, down) < 1.0


def test_kernel_wrapper_dim_mismatch(monkeypatch):
    def no_lift(*args):
        raise AssertionError("lifted before the dimension check")

    tsx = TimeSeries([0.0, 1.0], np.zeros((2, 2)))
    tsy = TimeSeries([0.0, 1.0], np.zeros((2, 3)))
    with pytest.raises(ShapeMismatchError):
        kernel(tsx, tsy)
    # the series are checked before either is lifted
    monkeypatch.setattr(goursat, "build_pab", no_lift)
    with pytest.raises(ShapeMismatchError,
                       match=r"operands disagree: \(d=2, m=4\) vs \(d=3, m=4\)"):
        kernel(tsx, tsy, 4)


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
        assert _partials(d, m, X).tobytes() == want.tobytes()
        want[:, 0] = 1.0
        got = pab_partial_signatures(PiecewiseAbelianPath(d, m, np.arange(7.0), X))
        assert np.array([g.coeffs for g in got]).tobytes() == want.tobytes()


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


def test_coupled_sweep_gates_only_firing_rows():
    # x runs straight over its first four intervals, so rows 1-3 fire the
    # correction against the pure y intervals and rows 0 and 4-7 build no
    # gate masks; Brownian batch-mates of the same shape fire nowhere, so in
    # rows 1-3 they read all-false masks
    rng = np.random.default_rng(93)
    times = np.linspace(0.0, 1.0, 9)
    for m in (2, 3):
        steps = np.vstack([np.repeat(rng.standard_normal((1, 2)) * 0.3, 4, axis=0),
                           rng.standard_normal((4, 2)) * 0.3])
        tsx = TimeSeries(times, np.vstack([np.zeros(2), np.cumsum(steps, axis=0)]))
        tsy = rand_series(rng, 2, 6)
        px, py = build_pab(tsx, times, m), build_pab(tsy, tsy.times, m)
        assert repeats(px.increments) == [False] + [True] * 3 + [False] * 4
        mates = [(build_pab(a, a.times, m), build_pab(b, b.times, m))
                 for a, b in ((rand_series(rng, 2, 8), rand_series(rng, 2, 6))
                              for _ in range(3))]
        pairs = mates[:2] + [(px, py)] + mates[2:]
        alone = [solve(a, b).value for a, b in pairs]
        got = solve_pairs([a for a, _ in pairs], [b for _, b in pairs])
        assert same_bits(got, alone)
        ref = manual_sweep(px, py)
        np.testing.assert_allclose(alone[2], ref.u[-1, -1], rtol=1e-12, atol=1e-12)


def test_solve_pairs_splits_large_groups_into_chunks(monkeypatch):
    rng = np.random.default_rng(91)
    pairs = [(rand_pab(rng, 2, m, 5), rand_pab(rng, 2, m, 4))
             for m in (1, 2) for _ in range(7)]
    pxs, pys = [a for a, _ in pairs], [b for _, b in pairs]
    alone = [solve(a, b).value for a, b in pairs]
    assert same_bits(solve_pairs(pxs, pys), alone)
    batches = []
    sweep, sweep_order1 = goursat._sweep, goursat._sweep_order1
    monkeypatch.setattr(goursat, "_sweep", lambda d, m, X, Y:
                        batches.append((m, len(X))) or sweep(d, m, X, Y))
    monkeypatch.setattr(goursat, "_sweep_order1", lambda X, Y, grid=None:
                        batches.append((1, len(X))) or sweep_order1(X, Y, grid))
    # per pair the budget counts 4 x 8 x 5 + (2 x 2 + 12) x 9 + 2 x (8 + 5)
    # = 330 values at degree 1 (one block of all 8 anti-diagonals, 5 x
    # indices wide) and (8 x 3 + 10 x 7 + 32) x 6 + 2 x 3 x 7 = 798 at
    # degree 2 (N(2, 2) = 7 coefficients, 3 in each state row)
    for budget, want in ((2 * 330, [(1, 1), (1, 2), (1, 2), (1, 2)] + [(2, 1)] * 7),
                         (3 * (16 * 6 * 7 + 2 * 7 * 7),
                          [(1, 7), (2, 1), (2, 2), (2, 2), (2, 2)])):
        monkeypatch.setattr(goursat, "_BATCH_VALUES", budget)
        batches.clear()
        assert same_bits(solve_pairs(pxs, pys), alone)
        assert sorted(batches) == want

    # d = 3, m = 4 (N = 121, 40 in each state row) on 2 x 2 cells: the
    # 2 x 40 x N matrix of the current x increment outweighs the rows of
    # adjoint states, and a chunk of 9 pairs still holds no more than the
    # budget
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
    assert sorted(batches) == [(4, 1), (4, 9)]
    assert peak <= 8 * budget


def test_pair_values_bound_single_pair_peaks():
    # the chunk budget of a pair counts what the sweeps hold: the Python
    # float lists of the coupled sweep's u march, and the scalar sweep's
    # block of anti-diagonals with its temporaries
    rng = np.random.default_rng(97)
    for d, m, nx, ny in ((1, 2, 256, 256), (1, 3, 256, 256), (2, 2, 128, 128),
                         (3, 3, 64, 64), (2, 4, 128, 128), (2, 1, 256, 256),
                         (2, 1, 512, 64)):
        px, py = rand_pab(rng, d, m, nx, 0.1), rand_pab(rng, d, m, ny, 0.1)
        tracemalloc.start()
        try:
            solve_pairs([px], [py])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 8 * goursat._pair_values(d, m, nx, ny), (d, m, nx, ny, peak)


def test_coupled_sweep_holds_no_grid_per_pair():
    # the coupled sweep keeps rows, never a grid: on 256 x 256 cells one
    # N_x x N_y float64 grid (0.5 MB) outweighs its whole working set, and
    # on 64 rows of N = 40 coefficients so does the stack of the 2N x N
    # matrices [M_x^T ; S_x] of all rows (1.6 MB)
    rng = np.random.default_rng(94)
    for d, m, nx, ny in ((1, 2, 256, 256), (3, 3, 64, 4)):
        n = tensor_dim(d, m)
        px, py = rand_pab(rng, d, m, nx, 0.1), rand_pab(rng, d, m, ny, 0.1)
        tracemalloc.start()
        try:
            solve(px, py)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * max(nx * ny, nx * 2 * n * n), (d, m, peak)


def solve_pairs_peak(px, py):
    """tracemalloc peak, in bytes, of solve_pairs on the one pair."""
    tracemalloc.start()
    try:
        solve_pairs([px], [py])
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_scalar_sweep_holds_no_grid_per_pair(monkeypatch):
    # the scalar sweep keeps blocks of anti-diagonals, never the grid of
    # cell coefficients: from 128 x 128 cells on, one pair peaks lower than
    # in the sweep over the whole grid, and on 1024 x 1024 cells below
    # 2 MiB, a quarter of one N_x x N_y float64 grid
    rng = np.random.default_rng(95)
    for cells in (128, 256, 1024):
        px, py = rand_pab(rng, 2, 1, cells, 0.1), rand_pab(rng, 2, 1, cells, 0.1)
        peak = solve_pairs_peak(px, py)
        if cells < 1024:
            with monkeypatch.context() as patch:
                patch.setattr(goursat, "_sweep_order1", skewed_sweep_order1)
                assert peak < solve_pairs_peak(px, py), cells
    assert peak < 2 * 1024 * 1024, peak
    # no cells: no anti-diagonal, and u is 1 everywhere
    for nx, ny in ((0, 0), (0, 3), (3, 0)):
        X, Y = rng.standard_normal((nx, 2)), rng.standard_normal((ny, 2))
        sol = solve_order1(X, Y, keep_state=True)
        assert sol.value == 1.0 and solve_order1(X, Y).value == 1.0
        assert same_bits(sol.state.u, np.ones((nx + 1, ny + 1)))
        assert same_bits(goursat._sweep_order1(np.stack([X, X]), np.stack([Y, Y])), [1.0, 1.0])


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
    # so does its per-cell sweep, though step() reads the NaN it leaves in
    # u as a cell not yet computed
    with pytest.raises(NumericError, match="the sweep overflowed"):
        solve(big, big, keep_state=True)
