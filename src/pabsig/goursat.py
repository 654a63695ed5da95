"""Coupled Goursat solver for signature kernels of piecewise-abelian paths.

The kernel u(s, t) of two degree-m piecewise-abelian paths obeys a hyperbolic
PDE in which u is forced by two adjoint states phi and psi valued in
T^m(R^d).  On the product of the two partitions the system is discretized
with one step per cell: the adjoint states advance explicitly from the
corner values, and u advances by a four-point average with one
predictor-corrector pass and a curvature correction on linear pieces.  The
per-cell update is

    phi[i+1,j+1] = phi[i,j+1] + u[i,j]*x + phi[i,j+1] (x) x + L*_psi[i,j+1](x)
    psi[i+1,j+1] = psi[i+1,j] + u[i,j]*y + psi[i+1,j] (x) y + L*_phi[i+1,j](y)
    f_c          = u_c*<x,y> + <phi_c, R*_x(y)> + <psi_c, R*_y(x)>  at corners
    u[i+1,j+1]   = A + (f_1 + f_2 + f_3 + f_4)/4 - <x,y>/12 * (D_s + D_t),
                   A = u[i+1,j] + u[i,j+1] - u[i,j]

where x, y are the interval log-signatures (the cell measure is absorbed in
them), f_1..f_3 evaluate at the known corners, and f_4 evaluates at the new
corner using the predictor A + f_1 and the freshly updated adjoints.  The
scalar slot of phi and psi is forced to 0 after every update, which is
exactly the scalar-cancellation term of the continuous system.

The last term removes the O(h^2) error -(c/12)(u_ss + u_tt) that the
four-point (trapezoid) rule leaves on a cell whose integrand is c*u, i.e.
whose increments x, y have no content above level 1:

    D_s = u[i+1,j] - 2 u[i,j] + u[i-1,j]   if x_{i-1} equals x_i, else 0
    D_t = u[i,j+1] - 2 u[i,j] + u[i,j-1]   if y_{j-1} equals y_j, else 0

Both flags and the purity test hold up to rounding (relative 1e-12), so each
term fires where its path continues a straight piece, and the degree-1
error falls about 8x per mesh halving on such pieces.  Cells with genuine
higher-level content, and paths whose neighbouring increments all differ
(sampled Brownian paths, say), get the plain four-point update.

The u update is written once, in _corner, which step(), solve() and
solve_order1() share.  For degree-1 inputs the adjoint contributions to u
vanish identically and the system collapses to the classical scalar
recursion, provided here as a fast path (solve_order1) whose sweep
solve() and solve_pairs() take at degree 1.  Both sweeps raise
NumericError when the kernel value overflows.

Both sweeps carry a leading pair axis: solve_pairs() sweeps B pairs of one
shape together, and solve() and solve_order1() are its B = 1 case, so a
pair gives the same bits alone and in any batch.

Memory: a coupled sweep keeps two rows of state, the adjoint states as
(B, N_y+1, 2N) arrays where N is the number of tensor coefficients, plus
one (B, 2N, N) matrix of the current x increment; the scalar sweep keeps the
(B, N_x, N_y) cell coefficients and four anti-diagonals of u.  The full
grids exist only when asked for.  solve_pairs() splits a group of pairs so
that one call holds at most about _BATCH_VALUES float64 values (4 MiB).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .lift import PiecewiseAbelianPath, TimeSeries, build_pab
from .tensors import (
    NumericError,
    ShapeMismatchError,
    _concat_tables,
    _exp,
    _ladj,
    _mul,
    _offsets,
    _radj,
    _running,
    tensor_dim,
)

# Relative tolerance under which increments count as equal, or as free of
# content above level 1, for the curvature correction.
_ROUNDING = 1e-12

# Working set, in float64 values, that one pair-batched sweep call may hold;
# solve_pairs() runs larger groups of pairs in consecutive chunks.  Per pair
# the scalar sweep holds the N_x x N_y cell coefficients, and the coupled
# sweep about 16 arrays of (N_y+1) x N values (measured peaks: 11-19) plus
# the 2N x N matrix of the current x increment.
_BATCH_VALUES = 1 << 19

__all__ = [
    "GoursatState",
    "KernelSolution",
    "init_boundaries",
    "step",
    "solve",
    "solve_pairs",
    "solve_order1",
    "kernel",
]


@dataclass(eq=False)
class GoursatState:
    """Grids of the kernel u and the adjoint states over the cell corners.

    u has shape (N_x+1, N_y+1); phi and psi, when present, have shape
    (N_x+1, N_y+1, N(d, m)) with the scalar slot of every populated entry
    exactly 0; the adjoint states at corner (i, j) are the rows phi[i, j]
    and psi[i, j] (wrap one in TruncTensor(dim, degree, row) to use the
    tensors API).  Cells not yet computed hold NaN.  x_increments and
    y_increments, when present, are the interval log-signatures of the two
    paths, shape (N_x, N(d, m)) and (N_y, N(d, m)); step() reads the
    increments of a cell and of its neighbouring cells from them.
    """

    dim: int
    degree: int
    u: np.ndarray
    phi: Optional[np.ndarray]
    psi: Optional[np.ndarray]
    x_increments: Optional[np.ndarray] = None
    y_increments: Optional[np.ndarray] = None


@dataclass(frozen=True, eq=False)
class KernelSolution:
    """Kernel value at the far corner, with the full grids if retained."""

    value: float
    state: Optional[GoursatState] = None


def _check_compatible(px: PiecewiseAbelianPath, py: PiecewiseAbelianPath) -> None:
    if px.dim != py.dim or px.degree != py.degree:
        raise ShapeMismatchError(
            f"paths disagree: (d={px.dim}, m={px.degree}) vs "
            f"(d={py.dim}, m={py.degree})"
        )


def _finite(values: np.ndarray) -> np.ndarray:
    """Far-corner values of a sweep, which runs with overflow warnings off."""
    if not np.isfinite(values).all():
        raise NumericError("kernel value is not finite: the sweep overflowed")
    return values


def _gate_flags(level1: np.ndarray, higher: np.ndarray):
    """Per-interval flags (pure, repeat) of the curvature correction.

    level1 and higher hold the level-1 and the level >= 2 coefficients of
    the interval increments, one row per interval (leading axes hold other
    paths).  pure[k] marks rows with no content above level 1; repeat[k]
    marks pure rows equal to the pure row k-1, i.e. intervals k-1 and k lie
    on the same linear piece.  Both hold up to rounding, relative to the
    size of the level-1 part.
    """
    size = np.abs(level1).max(axis=-1, initial=0.0)
    pure = np.abs(higher).max(axis=-1, initial=0.0) <= _ROUNDING * size
    gap = np.abs(np.diff(level1, axis=-2)).max(axis=-1, initial=0.0)
    repeat = np.zeros_like(pure)
    repeat[..., 1:] = (pure[..., 1:] & pure[..., :-1]
                       & (gap <= _ROUNDING * np.maximum(size[..., 1:], size[..., :-1])))
    return pure, repeat


def _corner(u00, u01, u10, c, g=None, curv=None):
    """u at the new corner (i+1, j+1) of cells with coefficient c = <x_i, y_j>.

    The one cell update, elementwise on floats or on arrays of cells.  u00,
    u01, u10 are u at the corners (i, j), (i, j+1), (i+1, j); g holds the
    adjoint terms <phi, R*_x(y)> + <psi, R*_y(x)> there and at the new
    corner, or None at degree 1, where they vanish; curv is the fired
    D_s + D_t, or None where no cell fires.
    """
    a = u10 + u01 - u00
    f1, f2, f3 = u00 * c, u01 * c, u10 * c
    if g is not None:
        f1, f2, f3 = f1 + g[0], f2 + g[1], f3 + g[2]
    f4 = (a + f1) * c
    if g is not None:
        f4 = f4 + g[3]
    u = a + 0.25 * ((f1 + f4) + (f2 + f3))
    return u if curv is None else u - (c / 12.0) * curv


def _boundary_partials(d: int, m: int, incs: np.ndarray) -> np.ndarray:
    """Rows i = 0..N of the running signature with scalar slot zeroed,
    i.e. the group partial products minus 1 (leading axes hold other paths)."""
    out = _running(d, m, _exp(d, m, incs))
    out[..., 0] = 0.0
    return out


def init_boundaries(px: PiecewiseAbelianPath, py: PiecewiseAbelianPath) -> GoursatState:
    """Allocate full grids with boundary data set and interior marked NaN.

    u is 1 on both boundary edges; phi along the j=0 edge carries the
    running signature of the first path minus 1, psi along the i=0 edge
    the same for the second path; the opposite edges are 0.
    """
    _check_compatible(px, py)
    d, m = px.dim, px.degree
    nx, ny = px.n_intervals, py.n_intervals
    n = tensor_dim(d, m)
    u = np.full((nx + 1, ny + 1), np.nan)
    u[0, :] = 1.0
    u[:, 0] = 1.0
    phi = np.full((nx + 1, ny + 1, n), np.nan)
    psi = np.full((nx + 1, ny + 1, n), np.nan)
    phi[0, :, :] = 0.0
    psi[:, 0, :] = 0.0
    phi[:, 0, :] = _boundary_partials(d, m, px.increments)
    psi[0, :, :] = _boundary_partials(d, m, py.increments)
    return GoursatState(d, m, u, phi, psi, px.increments, py.increments)


def step(state: GoursatState, i: int, j: int) -> None:
    """Advance one cell, filling corner (i+1, j+1) from its three neighbors.

    This is the readable per-cell reference; solve() performs the same
    arithmetic in vectorized sweeps, and both take u at the new corner from
    _corner.  The cell's increments x_i and y_j come from the state, and
    the curvature correction compares them with x_{i-1} and y_{j-1} there.
    """
    d, m = state.dim, state.degree
    u, phi, psi = state.u, state.phi, state.psi
    X, Y = state.x_increments, state.y_increments
    if phi is None or psi is None:
        raise ValueError("state lacks adjoint grids; use init_boundaries")
    if X is None or Y is None:
        raise ValueError("state lacks the path increments; use init_boundaries")
    deps = (u[i, j], u[i, j + 1], u[i + 1, j])
    if any(np.isnan(v) for v in deps):
        raise ValueError(f"dependency cells of ({i + 1}, {j + 1}) not yet computed")
    x, y = X[i], Y[j]
    c = float(x @ y)
    rxy = _radj(d, m, x, m, y)
    ryx = _radj(d, m, y, m, x)

    ph = phi[i, j + 1] + (u[i, j] * x + _ladj(d, m, psi[i, j + 1], m, x)) \
        + _mul(d, m, phi[i, j + 1], x)
    ph[0] = 0.0
    phi[i + 1, j + 1] = ph
    ps = psi[i + 1, j] + (u[i, j] * y + _ladj(d, m, phi[i + 1, j], m, y)) \
        + _mul(d, m, psi[i + 1, j], y)
    ps[0] = 0.0
    psi[i + 1, j + 1] = ps

    g = [phi[k] @ rxy + psi[k] @ ryx
         for k in ((i, j), (i, j + 1), (i + 1, j), (i + 1, j + 1))]
    pure_x, rep_x = _gate_flags(X[:, 1:1 + d], X[:, 1 + d:])
    pure_y, rep_y = _gate_flags(Y[:, 1:1 + d], Y[:, 1 + d:])
    ds = (u[i + 1, j] + u[i - 1, j]) - 2.0 * u[i, j] if rep_x[i] and pure_y[j] else 0.0
    dt = (u[i, j + 1] + u[i, j - 1]) - 2.0 * u[i, j] if rep_y[j] and pure_x[i] else 0.0
    u[i + 1, j + 1] = _corner(u[i, j], u[i, j + 1], u[i + 1, j], c, g, ds + dt)


def solve(px: PiecewiseAbelianPath, py: PiecewiseAbelianPath,
          keep_state: bool = False) -> KernelSolution:
    """Sweep the whole grid and return the kernel value at the far corner.

    Without the grids this is solve_pairs() on the one pair, so a pair
    gives the same bits here as inside any batch.  Each row of the coupled
    sweep runs in two passes: phi, psi and the adjoint terms of the row are
    computed for all columns at once (psi by a prefix sum per tensor
    level), then u marches along the row through _corner, the update of
    step().

    At degree 1 the adjoint states never feed back into u, so unless the
    grids are asked for, the value comes from the scalar sweep of
    solve_order1 on the level-1 coefficients, which agrees with the coupled
    sweep to rounding.  With keep_state the coupled sweep fills the grids
    at every degree.  Raises NumericError when the kernel value overflows.
    """
    if not keep_state:
        return KernelSolution(float(solve_pairs([px], [py])[0]))
    state = init_boundaries(px, py)
    values = _sweep(px.dim, px.degree, px.increments[None], py.increments[None], state)
    return KernelSolution(float(_finite(values)[0]), state)


def solve_pairs(pxs: Sequence[PiecewiseAbelianPath],
                pys: Sequence[PiecewiseAbelianPath]) -> np.ndarray:
    """Kernel values of the pairs (pxs[k], pys[k]), as one float64 array.

    Pairs of one (d, m, N_x, N_y) shape are swept together, each numpy call
    serving all of them, in consecutive chunks of at most _BATCH_VALUES
    values of working set.  Degree 1 takes the scalar sweep of
    solve_order1, higher degrees the coupled sweep of solve.  Every value
    is bit for bit the one solve() gives for its pair alone.  Raises
    NumericError when any value overflows.
    """
    if len(pxs) != len(pys):
        raise ValueError(f"{len(pxs)} first paths but {len(pys)} second paths")
    groups = {}
    for k, (px, py) in enumerate(zip(pxs, pys)):
        _check_compatible(px, py)
        key = (px.dim, px.degree, px.n_intervals, py.n_intervals)
        groups.setdefault(key, []).append(k)
    values = np.empty(len(pxs))
    for (d, m, nx, ny), ks in groups.items():
        n = tensor_dim(d, m)
        per_pair = nx * ny if m == 1 else 16 * (max(nx, ny) + 1) * n + 2 * n * n
        size = max(1, _BATCH_VALUES // per_pair)
        for s in range(0, len(ks), size):
            chunk = ks[s:s + size]
            X = np.stack([pxs[k].increments for k in chunk])
            Y = np.stack([pys[k].increments for k in chunk])
            if m == 1:
                values[chunk] = _sweep_order1(X[..., 1:], Y[..., 1:])
            else:
                values[chunk] = _sweep(d, m, X, Y)
    return _finite(values)


@np.errstate(over="ignore", invalid="ignore")
def _sweep(d: int, m: int, X: np.ndarray, Y: np.ndarray,
           state: Optional[GoursatState] = None) -> np.ndarray:
    """Far-corner u of the coupled sweep over B pairs of one shape.

    X and Y hold the increments of the pairs, shape (B, N_x, N) and
    (B, N_y, N).  The adjoint states of a row live side by side in one
    array z = [phi | psi] of shape (B, N_y+1, 2N).  Per row, one matrix
    V = [M_x^T ; S_x] of x = x_i carries every x-side product: z @ V is
    phi (x) x + L*_psi(x), and Y @ V^T is [R*_x(y_j) | R*_{y_j}(x)], whose
    first slot is c = <x, y_j>.  The psi recursion along the row does not
    involve u: it is the running product tensors._running of y_j from 0,
    one prefix sum per tensor level.  u then advances on Python floats, which
    is the same IEEE arithmetic as numpy scalars.  With a state (B = 1) the
    rows are written into its grids.
    """
    B, nx, n = X.shape
    ny = Y.shape[1]
    offs = _offsets(d, m)
    words, prefixes, suffixes = _concat_tables(d, m)

    z = np.zeros((B, ny + 1, 2 * n))
    z[:, :, n:] = _boundary_partials(d, m, Y)
    z_new = np.empty_like(z)
    phi_bnd = _boundary_partials(d, m, X)
    pure_x, rep_x = _gate_flags(X[..., 1:1 + d], X[..., 1 + d:])
    pure_y, rep_y = _gate_flags(Y[..., 1:1 + d], Y[..., 1 + d:])
    u_prev = np.ones((B, ny + 1))
    u_prev2 = u_prev                            # row i-1, read once i > 0
    v = np.zeros((B, 2 * n, n))
    r = np.empty((B, ny, 2 * n))

    for i in range(nx):
        # V = [M_x^T ; S_x]: M_x[uv, u] = x[v] and S_x[u, v] = x[uv]
        x = X[:, i]
        v[:, prefixes, words] = x[:, suffixes]
        v[:, n + prefixes, suffixes] = x[:, words]
        np.matmul(Y, v.transpose(0, 2, 1), out=r)

        z_new[:, 0, :n] = phi_bnd[:, i + 1]
        phi = z_new[:, 1:, :n]
        np.matmul(z[:, 1:], v, out=phi)
        phi += u_prev[:, :-1, None] * x[:, None]
        phi += z[:, 1:, :n]
        phi[..., 0] = 0.0

        # psi[j+1] = psi[j] (x) (1 + y_j) + u_prev[j] y_j + L*_phi[j](y_j),
        # a running product from psi[0] = 0; phi and psi have no scalar part
        phi_lo = z_new[:, :-1, :n]
        f = u_prev[:, :-1, None] * Y
        for k in range(1, m):
            # the level >= k+1 part of y_j, rows indexed by prefix words
            tails = Y[..., offs[k + 1]:].reshape(B, ny, -1, d**k)
            lo = phi_lo[..., None, 1:offs[m - k + 1]]
            f[..., offs[k]:offs[k + 1]] += (lo @ tails)[..., 0, :]
        z_new[:, :, n:] = _running(d, m, Y, f, start=0.0)

        c = r[..., 0]
        g1 = np.einsum('bjn,bjn->bj', z[:, :-1], r)
        g2 = np.einsum('bjn,bjn->bj', z[:, 1:], r)
        g3 = np.einsum('bjn,bjn->bj', z_new[:, :-1], r)
        g4 = np.einsum('bjn,bjn->bj', z_new[:, 1:], r)
        fire_s = rep_x[:, i, None] & pure_y
        fire_t = rep_y & pure_x[:, i, None]
        fire = fire_s | fire_t
        dt_row = np.zeros((B, ny))
        dt_row[:, 1:] = (u_prev[:, 2:] + u_prev[:, :-2]) - 2.0 * u_prev[:, 1:-1]

        u_rows = []
        for b in range(B):
            up, up2 = u_prev[b].tolist(), u_prev2[b].tolist()
            fire_b, fs, ft = fire[b].tolist(), fire_s[b].tolist(), fire_t[b].tolist()
            dt = dt_row[b].tolist()
            gs = zip(g1[b].tolist(), g2[b].tolist(), g3[b].tolist(), g4[b].tolist())
            u = 1.0
            row = [u]
            for j, (u00, u01, cj, g) in enumerate(zip(up, up[1:], c[b].tolist(), gs)):
                curv = None
                if fire_b[j]:
                    curv = (((u + up2[j]) - 2.0 * u00 if fs[j] else 0.0)
                            + (dt[j] if ft[j] else 0.0))
                u = _corner(u00, u01, u, cj, g, curv)
                row.append(u)
            u_rows.append(row)
        u_new = np.array(u_rows)

        if state is not None:
            state.u[i + 1] = u_new[0]
            state.phi[i + 1] = z_new[0, :, :n]
            state.psi[i + 1] = z_new[0, :, n:]
        u_prev2 = u_prev
        u_prev, z, z_new = u_new, z_new, z
    return u_prev[:, ny]


@np.errstate(over="ignore", invalid="ignore")
def _sweep_order1(X: np.ndarray, Y: np.ndarray,
                  grid: Optional[np.ndarray] = None) -> np.ndarray:
    """Far-corner u of the scalar sweep over B pairs of one shape.

    X and Y hold level-1 increments, shape (B, N_x, d) and (B, N_y, d).
    Each anti-diagonal of cells is one _corner call without adjoint terms;
    its cells depend only on earlier anti-diagonals, so the result equals
    the row-major sweep.  Only the last four anti-diagonals of corners are
    kept, as rows of four (B, N_x+2) buffers indexed by 1 + the x index of
    the corner; boundary corners are never written and stay 1.  With a grid
    (B = 1, shape (N_x+1, N_y+1)) every corner is also written there.
    """
    c = X @ Y.transpose(0, 2, 1)
    B, nx, ny = c.shape
    _, rep_x = _gate_flags(X, X[..., :0])
    _, rep_y = _gate_flags(Y, Y[..., :0])
    # cell (i, p - i) reads column ny-1-p+i of the reversed y side
    rep_yr = rep_y[:, ::-1]
    diags = np.ones((4, B, nx + 2))
    for p in range(nx + ny - 1):
        lo, hi = max(0, p - ny + 1), min(nx - 1, p) + 1
        before, u0, u1, new = (diags[(p + k) % 4] for k in range(-1, 3))
        cells = slice(lo + 1, hi + 1)
        up = slice(lo + 2, hi + 2)
        col = slice(ny - 1 - p + lo, ny - 1 - p + hi)
        u00, u01, u10 = u0[:, cells], u1[:, cells], u1[:, up]
        ii = np.arange(lo, hi)
        fire_s, fire_t = rep_x[:, lo:hi], rep_yr[:, col]
        curv = None
        if fire_s.any() or fire_t.any():
            curv = (np.where(fire_s, (u10 + before[:, lo:hi]) - 2.0 * u00, 0.0)
                    + np.where(fire_t, (u01 + before[:, cells]) - 2.0 * u00, 0.0))
        new[:, up] = _corner(u00, u01, u10, c[:, ii, p - ii], curv=curv)
        if grid is not None:
            grid[ii + 1, p - ii + 1] = new[0, up]
    return diags[(nx + ny) % 4][:, nx + 1]


def solve_order1(increments_x: Sequence[Sequence[float]],
                 increments_y: Sequence[Sequence[float]],
                 keep_state: bool = False) -> KernelSolution:
    """Scalar fast path for degree-1 inputs.

    For level-1 increments the adjoint states never feed back into u, so
    only the scalar recursion with cell coefficients c[i, j] = <dx_i, dy_j>
    remains.  This is the one-pair case of the anti-diagonal sweep that
    solve_pairs() runs on batches.  Non-finite increments raise ValueError,
    an overflowing kernel value NumericError.
    """
    X = np.asarray(increments_x, dtype=np.float64)
    Y = np.asarray(increments_y, dtype=np.float64)
    if X.ndim != 2 or Y.ndim != 2:
        raise ShapeMismatchError(
            f"increments must be 2-D (n, d), got {X.shape} and {Y.shape}"
        )
    if X.shape[1] != Y.shape[1]:
        raise ShapeMismatchError(
            f"state dimension mismatch: {X.shape[1]} vs {Y.shape[1]}"
        )
    if not (np.isfinite(X).all() and np.isfinite(Y).all()):
        raise ValueError("non-finite increment coefficient")
    grid = np.ones((len(X) + 1, len(Y) + 1)) if keep_state else None
    value = float(_finite(_sweep_order1(X[None], Y[None], grid))[0])
    if keep_state:
        return KernelSolution(value, GoursatState(X.shape[1], 1, grid, None, None))
    return KernelSolution(value)


def kernel(ts_x: TimeSeries, ts_y: TimeSeries, m: int = 1,
           partition_x: Optional[Sequence[float]] = None,
           partition_y: Optional[Sequence[float]] = None) -> float:
    """Signature kernel of two sampled paths via their degree-m lifts.

    Partitions default to the full sample grids.
    """
    if ts_x.dim != ts_y.dim:
        raise ShapeMismatchError(
            f"series dimension mismatch: {ts_x.dim} vs {ts_y.dim}"
        )
    px = build_pab(ts_x, ts_x.times if partition_x is None else partition_x, m)
    py = build_pab(ts_y, ts_y.times if partition_y is None else partition_y, m)
    return solve(px, py).value
