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
recursion, provided here as a fast path (solve_order1) that solve() takes
at degree 1.  Both sweeps raise NumericError when the kernel value overflows.

Memory: a solve keeps two rows of state unless asked to retain the full
grids; the vectorized sweep additionally holds two (N_y, N, N) lookup stacks
where N is the number of tensor coefficients, so very long second partitions
at high degree are the expensive direction.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .lift import (
    PiecewiseAbelianPath,
    TimeSeries,
    _partial_products,
    build_pab,
)
from .tensors import (
    NumericError,
    ShapeMismatchError,
    TruncTensor,
    _concat_tables,
    _ladj,
    _mul,
    _radj,
    tensor_dim,
)

# Relative tolerance under which increments count as equal, or as free of
# content above level 1, for the curvature correction.
_ROUNDING = 1e-12

__all__ = [
    "GoursatState",
    "KernelSolution",
    "init_boundaries",
    "step",
    "solve",
    "solve_order1",
    "kernel",
]


@dataclass(eq=False)
class GoursatState:
    """Grids of the kernel u and the adjoint states over the cell corners.

    u has shape (N_x+1, N_y+1); phi and psi, when present, have shape
    (N_x+1, N_y+1, N(d, m)) with the scalar slot of every populated entry
    exactly 0.  Cells not yet computed hold NaN.  x_increments and
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

    def phi_at(self, i: int, j: int) -> TruncTensor:
        if self.phi is None:
            raise ValueError("adjoint grids were not retained")
        return TruncTensor(self.dim, self.degree, self.phi[i, j].copy())

    def psi_at(self, i: int, j: int) -> TruncTensor:
        if self.psi is None:
            raise ValueError("adjoint grids were not retained")
        return TruncTensor(self.dim, self.degree, self.psi[i, j].copy())


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


def _finite(value) -> float:
    """Far-corner value of a sweep, which runs with overflow warnings off."""
    value = float(value)
    if not np.isfinite(value):
        raise NumericError("kernel value is not finite: the sweep overflowed")
    return value


def _gate_flags(level1: np.ndarray, higher: np.ndarray):
    """Per-interval flags (pure, repeat) of the curvature correction.

    level1 and higher hold the level-1 and the level >= 2 coefficients of
    the interval increments, one row per interval.  pure[k] marks rows with
    no content above level 1; repeat[k] marks pure rows equal to the pure
    row k-1, i.e. intervals k-1 and k lie on the same linear piece.  Both
    hold up to rounding, relative to the size of the level-1 part.
    """
    size = np.abs(level1).max(axis=1, initial=0.0)
    pure = np.abs(higher).max(axis=1, initial=0.0) <= _ROUNDING * size
    gap = np.abs(np.diff(level1, axis=0)).max(axis=1, initial=0.0)
    repeat = np.zeros_like(pure)
    repeat[1:] = (pure[1:] & pure[:-1]
                  & (gap <= _ROUNDING * np.maximum(size[1:], size[:-1])))
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
    i.e. the group partial products minus 1."""
    out = _partial_products(d, m, incs)
    out[:, 0] = 0.0
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


@np.errstate(over="ignore", invalid="ignore")
def solve(px: PiecewiseAbelianPath, py: PiecewiseAbelianPath,
          keep_state: bool = False) -> KernelSolution:
    """Sweep the whole grid and return the kernel value at the far corner.

    The sweep runs row by row: the phi row and the corner terms that depend
    only on the previous row are vectorized over columns, then psi and u
    march sequentially along the row.  Each cell gets the update of step()
    from the same _corner, so the output is deterministic and reproducible
    bit-for-bit for identical inputs.

    At degree 1 the adjoint states never feed back into u, so unless the
    grids are asked for, the value comes from the scalar sweep solve_order1
    on the level-1 coefficients, which agrees with the coupled sweep to
    rounding.  Raises NumericError when the kernel value overflows.
    """
    _check_compatible(px, py)
    d, m = px.dim, px.degree
    X, Y = px.increments, py.increments
    if m == 1 and not keep_state:
        return solve_order1(X[:, 1:], Y[:, 1:])
    nx, ny = len(X), len(Y)
    n = X.shape[1]
    cat, ok, rows, cols, srcs = _concat_tables(d, m)

    # Column-axis lookup stacks: Sy[j] reads suffixes of y_j, My[j] is
    # right multiplication by y_j.
    Sy = Y[:, cat] * ok
    My = np.zeros((ny, n, n))
    My[:, rows, cols] = Y[:, srcs]

    phi_bnd = _boundary_partials(d, m, X)
    psi_bnd = _boundary_partials(d, m, Y)
    pure_x, rep_x = _gate_flags(X[:, 1:1 + d], X[:, 1 + d:])
    pure_y, rep_y = _gate_flags(Y[:, 1:1 + d], Y[:, 1 + d:])

    if keep_state:
        state = init_boundaries(px, py)
        u_grid, phi_grid, psi_grid = state.u, state.phi, state.psi

    u_prev = np.ones(ny + 1)
    u_prev2 = u_prev                            # row i-1, read once i > 0
    phi_prev = np.zeros((ny + 1, n))
    psi_prev = psi_bnd.copy()
    sx = np.empty((n, n))
    mx = np.zeros((n, n))

    for i in range(nx):
        x = X[i]
        np.multiply(x[cat], ok, out=sx)
        mx[rows, cols] = x[srcs]
        c_row = Y @ x
        r_yx = Y @ sx.T                        # rows j: R*_{y_j}(x)
        r_xy = np.einsum('juv,v->ju', Sy, x)   # rows j: R*_x(y_j)

        phi_new = np.empty((ny + 1, n))
        phi_new[0] = phi_bnd[i + 1]
        phi_new[1:] = (phi_prev[1:]
                       + (u_prev[:-1, None] * x + psi_prev[1:] @ sx)
                       + phi_prev[1:] @ mx.T)
        phi_new[1:, 0] = 0.0

        g1 = (np.einsum('jn,jn->j', phi_prev[:-1], r_xy)
              + np.einsum('jn,jn->j', psi_prev[:-1], r_yx))
        g2 = (np.einsum('jn,jn->j', phi_prev[1:], r_xy)
              + np.einsum('jn,jn->j', psi_prev[1:], r_yx))
        pre3 = np.einsum('jn,jn->j', phi_new[:-1], r_xy)
        pre4 = np.einsum('jn,jn->j', phi_new[1:], r_xy)
        bpsi = u_prev[:-1, None] * Y + np.einsum('juv,ju->jv', Sy, phi_new[:-1])
        fire_s = rep_x[i] & pure_y
        fire_t = rep_y & pure_x[i]
        dt_row = np.zeros(ny)
        dt_row[1:] = (u_prev[2:] + u_prev[:-2]) - 2.0 * u_prev[1:-1]

        psi_new = np.empty((ny + 1, n))
        psi_new[0] = 0.0
        u_new = np.empty(ny + 1)
        u_new[0] = 1.0
        psi_cur = psi_new[0]
        for j in range(ny):
            psi_next = (psi_cur + bpsi[j]) + My[j] @ psi_cur
            psi_next[0] = 0.0
            psi_new[j + 1] = psi_next
            g = (g1[j], g2[j], pre3[j] + psi_cur @ r_yx[j],
                 pre4[j] + psi_next @ r_yx[j])
            curv = None
            if fire_s[j] or fire_t[j]:
                ds = ((u_new[j] + u_prev2[j]) - 2.0 * u_prev[j]
                      if fire_s[j] else 0.0)
                curv = ds + (dt_row[j] if fire_t[j] else 0.0)
            u_new[j + 1] = _corner(u_prev[j], u_prev[j + 1], u_new[j],
                                   c_row[j], g, curv)
            psi_cur = psi_next

        if keep_state:
            u_grid[i + 1] = u_new
            phi_grid[i + 1] = phi_new
            psi_grid[i + 1] = psi_new
        u_prev2 = u_prev
        u_prev, phi_prev, psi_prev = u_new, phi_new, psi_new

    value = _finite(u_prev[ny])
    return KernelSolution(value, state if keep_state else None)


@np.errstate(over="ignore", invalid="ignore")
def solve_order1(increments_x: Sequence[Sequence[float]],
                 increments_y: Sequence[Sequence[float]],
                 keep_state: bool = False) -> KernelSolution:
    """Scalar fast path for degree-1 inputs.

    For level-1 increments the adjoint states never feed back into u, so
    only the scalar recursion with cell coefficients c[i, j] = <dx_i, dy_j>
    remains.  Each anti-diagonal is one _corner call without adjoint terms;
    its cells depend only on earlier anti-diagonals, so the result equals
    the row-major sweep.  Non-finite increments raise ValueError, an
    overflowing kernel value NumericError.
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
    c = X @ Y.T
    nx, ny = c.shape
    _, rep_x = _gate_flags(X, X[:, :0])
    _, rep_y = _gate_flags(Y, Y[:, :0])
    u = np.ones((nx + 1, ny + 1))
    for p in range(nx + ny - 1):
        lo = max(0, p - ny + 1)
        hi = min(nx - 1, p)
        ii = np.arange(lo, hi + 1)
        jj = p - ii
        u00 = u[ii, jj]
        u01 = u[ii, jj + 1]
        u10 = u[ii + 1, jj]
        fire_s = rep_x[ii]
        fire_t = rep_y[jj]
        curv = None
        if (fire_s | fire_t).any():
            curv = (np.where(fire_s, (u10 + u[ii - 1, jj]) - 2.0 * u00, 0.0)
                    + np.where(fire_t, (u01 + u[ii, jj - 1]) - 2.0 * u00, 0.0))
        u[ii + 1, jj + 1] = _corner(u00, u01, u10, c[ii, jj], curv=curv)
    value = _finite(u[nx, ny])
    if keep_state:
        return KernelSolution(value, GoursatState(X.shape[1], 1, u, None, None))
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
