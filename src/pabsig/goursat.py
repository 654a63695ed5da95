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

The average is linear in the corners and the adjoint terms.  With
c = <x,y>, g_k the adjoint term of f_k, s = u[i+1,j] + u[i,j+1] and
h = c/2, the u parts of f_1 + f_2 + f_3 + f_4 sum to
c*(u[i,j] + s) + c*A + c^2*u[i,j] = 2c*s + c^2*u[i,j], and g_1 enters
twice, once through the predictor.  So the update is, in exact arithmetic,

    u[i+1,j+1] = (1 + h)*s + (h*h - 1)*u[i,j]
                 + ((1 + c)*g_1 + g_2 + g_3 + g_4)/4 - <x,y>/12 * (D_s + D_t),

which is the form _corner evaluates: the u part is one affine combination
of s and u[i,j], whose weights a = 1 + h and b = h*h - 1 depend on the
cell alone.  It takes the half coefficient h, which each caller forms
once: step() per cell, the coupled sweep per block of rows and the scalar
sweep, with b and, where no cell can fire, a, per block of
anti-diagonals.  Since h + h and h/6 are exactly c and c/12 (barring
subnormal c), taking h changes no bits.
The form rounds differently from the four-point sum by a few ulps of the
terms.  It also rounds differently from the nested form
(s - u[i,j]) + h*(s + h*u[i,j]) of the same update, which takes six
array operations where this one takes four.  On 16-32 Brownian pairs of
32 x 32 to 128 x 128 cells, the scalar sweep's far corner lies a median
1.4-1.6 times as far from its own np.longdouble run with this form as
with the nested one, every deviation below 7e-14; tests/test_goursat.py
holds the median ratio within 4.

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

The coupled sweep advances u along a grid row by one multiply-add per
cell, with weights that _corner gives once per block of rows (see
_sweep).  That rounds differently from one _corner call per cell, by a few
ulps of the terms; step() and the scalar sweep keep the per-cell form.
Everything of the coupled sweep that does not change from row to row is
built once per call: the boundary partial signatures, the gate flags, the
views of the y increments and the product matrices of the psi levels, the
scatter of the row operator, and every view of the two state rows that a
row reads or writes, one set per parity of the row.  A row then runs only
the numpy calls that compute.

Level m of phi and psi is dead state: it never reaches u or a lower
level.  The increments have scalar slot 0, so R*_x(y) and R*_y(x) have no
level-m part and level m of phi and psi drops out of the terms of u;
phi_m (x) x lands above level m, where it is truncated; and L*_{phi_m}(y)
and L*_{psi_m}(x) land only in the scalar slot, which the update forces
to 0.  So the coupled sweep carries the k = N(d, m-1) coefficients of
levels 0..m-1 of each adjoint state in place of all N = N(d, m).  Outside
the scalar slot, which it overwrites, every term the shorter row products
drop is a product with an exact 0; the shorter sums still round
differently, by an ulp or so.

Memory: the coupled sweep's row step keeps per grid column the two rows
of state, one (2, B, N_y+1, 2k) array with k = N(d, m-1); the boundary
partial signatures, of k coefficients; the (B, N_y, 2k) right adjoints
of the row; per tensor level l the (B, N_y, 1, d^l) temporaries of the
psi forcing and products; and for 2 <= l <= m-1 the
(B, N_y, N(d, l-1) - 1, d^l) product matrices P_l of the y increments,
which outgrow k: 27 values per column against k = 13 at d=3, m=3, and
351 against 40 at d=3, m=4.  Only the
(B, 2k, N) matrix V, the increments and the block of K = N/2 rows of cell
coefficients and their weights are sized by N: four (B, K, N_y) arrays,
the half coefficients h, _corner's pair 1 + h and h*h - 1 and the weight
of the first adjoint term, and a fifth, the weight of u[i+1, j], in blocks
where some row fires the curvature correction.
The scalar sweep keeps no N_x x N_y array.  It holds two coefficient
blocks of K <= 64 anti-diagonals (N_y/5 of them, or enough for 512
coefficients on small shapes), (K, B, <= N_x) each, in both of its
loops: the half coefficients h and _corner's weight h*h - 1.  The weight
1 + h is formed in place over h where no interval repeats its neighbour
and no grid is asked for; elsewhere the curvature terms read h, so 1 + h
is formed per anti-diagonal into a row, next to a reversed, False-padded
copy of the y repeat flags.  While the first block is built it holds a
product temporary and numpy's two iteration buffers of at most its size
in place of the second.  The rest is O(N_x + N_y): the halved x
increments and a reversed, zero-padded copy of the y increments,
O((N_x + N_y) d) values; four anti-diagonals of u, which _corner updates
in place; and two rows of the block's width, for _corner's product
(h*h - 1)*u00 and for 1 + h.  Full grids exist only when asked for:
solve() then fills them with step(), and solve_order1() has the scalar
sweep write its u grid.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import cycle
from typing import Optional, Sequence

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .lift import PiecewiseAbelianPath, TimeSeries, _partial_rows, build_pab
from .tensors import (
    _BATCH_VALUES,
    NumericError,
    ShapeMismatchError,
    _check_pair,
    _finite,
    _ladj,
    _mul,
    _offsets,
    _operator,
    _partials,
    _products,
    _radj,
    tensor_dim,
)

# Relative tolerance under which increments count as equal, or as free of
# content above level 1, for the curvature correction.
_ROUNDING = 1e-12

# Message of the NumericError that an overflowing kernel value raises.
_OVERFLOW = "kernel value is not finite: the sweep overflowed"

# Relative slack of the exact-kernel identities k(x, x) >= 1 and
# |k(x, y)| <= sqrt(k(x, x) k(y, y)) (Cauchy-Schwarz); _check_identities
# raises NumericError on a value beyond it.
_IDENTITY_SLACK = 1e-9

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


def _gate_flags(level1: np.ndarray, higher: np.ndarray):
    """Per-interval flags (pure, repeat) of the curvature correction.

    level1 and higher hold the level-1 and the level >= 2 coefficients of
    the interval increments, one row per interval (leading axes hold other
    paths).  pure[k] marks rows with no content above level 1; repeat[k]
    marks pure rows equal to the pure row k-1, i.e. intervals k-1 and k lie
    on the same linear piece.  Both hold up to rounding, relative to the
    size of the level-1 part.  Rows without higher columns (the scalar
    sweep's) are pure unless their size is NaN, as 0 <= 1e-12 * size
    would have it.
    """
    size = np.abs(level1).max(axis=-1, initial=0.0)
    if higher.shape[-1]:
        pure = np.abs(higher).max(axis=-1, initial=0.0) <= _ROUNDING * size
    else:
        pure = size >= 0.0
    gap = np.abs(level1[..., 1:, :] - level1[..., :-1, :]).max(axis=-1, initial=0.0)
    repeat = np.zeros(pure.shape, bool)
    np.logical_and(pure[..., 1:] & pure[..., :-1],
                   gap <= _ROUNDING * np.maximum(size[..., 1:], size[..., :-1]),
                   repeat[..., 1:])
    return pure, repeat


def _corner(u00, u01, u10, h, g=None, curv=None, out=None, ab=None, tmp=None):
    """u at the new corner (i+1, j+1) of cells with h = c/2, c = <x_i, y_j>.

    The one cell update, elementwise on floats or on arrays of cells.  It
    takes the half coefficient h, which the callers form once, so that no
    call halves c again.  u00, u01, u10 are u at the corners (i, j),
    (i, j+1), (i+1, j); g holds the
    adjoint terms <phi, R*_x(y)> + <psi, R*_y(x)> there and at the new
    corner, or None at degree 1, where they vanish; curv is the fired
    D_s + D_t, or None where no cell fires.  ab is the pair (1 + h,
    h*h - 1) when the caller has formed it, as the scalar sweep does (see
    _sweep_order1); h is then read only by the g and curv terms, and may be
    None without them.  With out, an array of the cells' shape that
    aliases no input, the update is written there and out is returned;
    with tmp as well, a second such array, the degree-1 update without
    curv allocates nothing.

    The predictor-corrector average a + (f1 + f2 + f3 + f4)/4, with
    a = u10 + u01 - u00, f1..f3 = c*u00 + g[0], c*u01 + g[1], c*u10 + g[2]
    and f4 = c*(a + f1) + g[3], is linear in its inputs.  Its u part sums
    to c*(u00 + u01 + u10) + c*a + c^2*u00 = 2c*s + c^2*u00 with
    s = u10 + u01, and g[0] enters twice, once through f4.  So it is, in
    exact arithmetic,

        u' = (1 + h)*s + (h*h - 1)*u00
             + ((1 + h + h)*g[0] + g[1] + g[2] + g[3])/4 - (h/6)*curv,

    which is the form evaluated here: 4 array operations at degree 1 once
    the two weights are formed, the same with and without out, since IEEE
    sums and products do not depend on the order of their operands.  On
    the basis inputs the u part is exactly 1 + h, 1 + h, h*h - 1 and +0,
    the weights of _weights.  h + h and h/6 are exactly c and c/12 unless
    c is subnormal.
    """
    a, b = (1.0 + h, h * h - 1.0) if ab is None else ab
    u = u10 + u01 if out is None else np.add(u10, u01, out)
    u = np.multiply(a, u, out)
    u = np.add(u, np.multiply(b, u00, tmp), out)
    if g is not None:
        u = np.add(u, 0.25 * (((1.0 + (h + h)) * g[0] + g[1]) + (g[2] + g[3])), out=out)
    if curv is not None:
        u = np.subtract(u, (h / 6.0) * curv, out=out)
    return u


def _weights(h, fire_s=None):
    """Weights alpha, w01, w00, wg0 of u10, u01, u00 and g[0] in _corner.

    _corner is linear in its corners, adjoint terms and curvature terms,
    and the weights depend only on the half coefficient h = c/2, so up to
    rounding _corner(u00, u01, u10, h, g, curv) is alpha u10 + w01 u01
    + w00 u00 + wg0 g[0] + (g[1] + g[2] + g[3])/4
    + _corner(0, 0, 0, h, None, rest), where rest is curv without the u10
    of D_s in the cells fire_s marks.  On the basis inputs _corner gives
    exactly its own pair (1 + h, h*h - 1) as w01 and w00, and 1 + h as
    alpha where fire_s is None.  So that pair, formed once on the block of
    h that the coupled sweep halves once, is returned as those weights,
    alpha and w01 then being one array; only alpha with fire_s and wg0 are
    _corner on basis inputs.
    """
    ab = (1.0 + h, h * h - 1.0)
    alpha = ab[0] if fire_s is None else _corner(0.0, 0.0, 1.0, h, None, fire_s, ab=ab)
    return alpha, ab[0], ab[1], _corner(0.0, 0.0, 0.0, h, (1.0, 0.0, 0.0, 0.0), ab=ab)


# Most anti-diagonals per block of cell coefficients in the scalar sweep.
# At 1024^2 cells (one BLAS thread), blocks of 32, 48 and 128 ran 1.03x,
# 0.99x and 1.17x the time of blocks of 64, and 1.05x, 1.02x and 1.14x at
# 512^2.
_DIAGONALS = 64


def _diagonal_block(nx: int, ny: int) -> int:
    """Anti-diagonals K the scalar sweep builds at once on N_x x N_y cells.

    A block spans at most N_x x indices, and it is held with three
    temporaries of at most its size: the product of the next coordinate and
    numpy's two iteration buffers of the windowed multiply.  So K <= N_y/5
    keeps the four below 4/5 of the N_x x N_y coefficient grid, and shapes
    from 64 x 64 cells up peak lower than the sweep did when it held that
    grid.  Below that, K grows until a block holds 512 coefficients.  Each
    block builds a dozen views of the u buffers, and every anti-diagonal
    of it runs over the block's whole x range, so small shapes want long
    blocks: against a floor of 256 coefficients, one of 512 ran 0.92x the
    time at 16^2 cells and 0.88x at 32^2, one of 128 1.16x and 1.12x.  A
    floor of 1024 ran 0.79x at 32^2 and 0.93x at 64^2, but there it would
    hold blocks of N_y/4 anti-diagonals, as large as the grid.  Four blocks
    of 512 add 16 KiB to a working set of 10-28 kB at 8^2 to 32^2.  K never
    passes the N_x + N_y - 1 anti-diagonals of the grid.
    """
    wanted = max(ny // 5, 512 // nx)
    return max(1, min(_DIAGONALS, nx + ny - 1, wanted))


def _pair_values(d: int, m: int, nx: int, ny: int) -> int:
    """Values one pair of the shape adds to a sweep call's working set.

    The scalar sweep holds 2 K w values of the two weight blocks of K
    anti-diagonals, w = min(N_x, N_y + K - 1) x indices wide, or of the
    first block and its product temporary while it is built; numpy's two
    iteration buffers of the windowed multiply, each the smaller of the
    block and np.getbufsize(); d (K + w) of the padding of the y copy; and
    2d + 12 per interval of either path: d + 1 of the stacked increments, d
    of the halved x or the padded y copy, 4 of the u diagonals and 7 for
    the gate tests' temporaries, _corner's rows of products and of 1 + h
    and the fixed numpy and Python overhead.  The buffers are per call,
    not per pair, so this over-counts batches.  Measured single-pair peaks
    are 0.63-0.99 of this at d = 1, 2, 3, 5 on 64-1024 cells a side,
    512 x 64 and 64 x 512.  Where some interval repeats its neighbour, the
    two blocks are h and h*h - 1, and the sweep forms 1 + h per
    anti-diagonal: such pairs, refined 4 times, peaked at 0.70-0.96 of
    this at d = 1-3 on 256-1024 cells a side, and at up to 1.05 at 64.  In
    the coupled sweep every per-column array of the row step but the
    product matrices P_l has k = N(d, m-1) coefficients, and only V, the
    increments and the weight block are sized by N (see the module
    docstring).  Per grid column, of which it counts max(N_x, N_y) + 1, it
    holds 8k values of state rows, row adjoints and the per-level
    temporaries of the psi forcing and products; the (N(d, l-1) - 1) d^l
    values of each P_l, 2 <= l <= m-1; 10N of increments, boundary
    partials and the block's coefficients and weights with their
    temporaries, which over-counts the partials, of k coefficients; and 32
    of the u march, whose Python float lists take 4 values per float.  Add
    the 2k x N matrix V.  Measured single-pair peaks, after one untraced
    sweep of the shape, are 0.61-0.90 of this at d = 1-3, m = 2-4 on
    64-256 cells a side, the highest at d = 1 on 64 x 64, and up to 0.95
    at d = 1, where paths refined 4 times fire the curvature terms.
    """
    if m == 1:
        K = _diagonal_block(nx, ny)
        width = min(nx, ny + K - 1)
        block = K * width
        buffers = 2 * min(block, np.getbufsize())
        return 2 * block + buffers + (2 * d + 12) * (nx + ny) + d * (K + width)
    n, k = tensor_dim(d, m), tensor_dim(d, m - 1)
    offs = _offsets(d, m)
    prods = sum((offs[l] - 1) * d**l for l in range(2, m))
    return (8 * k + prods + 10 * n + 32) * (max(nx, ny) + 1) + 2 * k * n


def init_boundaries(px: PiecewiseAbelianPath, py: PiecewiseAbelianPath) -> GoursatState:
    """Allocate full grids with boundary data set and interior marked NaN.

    u is 1 on both boundary edges; phi along the j=0 edge carries the
    running signature of the first path minus 1, psi along the i=0 edge
    the same for the second path; the opposite edges are 0.  Raises
    NumericError where a running signature overflows.
    """
    _check_pair(px, py)
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
    phi[:, 0, :] = _partial_rows(px)
    psi[0, :, :] = _partial_rows(py)
    return GoursatState(d, m, u, phi, psi, px.increments, py.increments)


@np.errstate(over="ignore", invalid="ignore")
def step(state: GoursatState, i: int, j: int) -> None:
    """Advance one cell, filling corner (i+1, j+1) from its three neighbors.

    This is the readable per-cell reference: solve() with keep_state runs
    it on every cell, and the vectorized sweeps of solve_pairs() perform
    the same arithmetic; all take u at the new corner from _corner.  The
    cell's increments x_i and y_j come from the state, and the curvature
    correction compares them with x_{i-1} and y_{j-1} there, so a cell
    reads the gate flags of those four intervals only.  Computes with
    overflow warnings off and raises NumericError when u at the new corner
    is not finite; a non-finite phi or psi there makes it NaN.
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
    rxy = _radj(d, m, x, y)
    ryx = _radj(d, m, y, x)

    ph = phi[i, j + 1] + (u[i, j] * x + _ladj(d, m, psi[i, j + 1], x)) \
        + _mul(d, m, phi[i, j + 1], x)
    ph[0] = 0.0
    phi[i + 1, j + 1] = ph
    ps = psi[i + 1, j] + (u[i, j] * y + _ladj(d, m, phi[i + 1, j], y)) \
        + _mul(d, m, psi[i + 1, j], y)
    ps[0] = 0.0
    psi[i + 1, j + 1] = ps

    g = [phi[k] @ rxy + psi[k] @ ryx
         for k in ((i, j), (i, j + 1), (i + 1, j), (i + 1, j + 1))]
    # the flags of intervals i-1, i and j-1, j: the last row of each is
    # the cell's own
    xs, ys = X[max(i - 1, 0):i + 1], Y[max(j - 1, 0):j + 1]
    pure_x, rep_x = _gate_flags(xs[:, 1:1 + d], xs[:, 1 + d:])
    pure_y, rep_y = _gate_flags(ys[:, 1:1 + d], ys[:, 1 + d:])
    ds = (u[i + 1, j] + u[i - 1, j]) - 2.0 * u[i, j] if rep_x[-1] and pure_y[-1] else 0.0
    dt = (u[i, j + 1] + u[i, j - 1]) - 2.0 * u[i, j] if rep_y[-1] and pure_x[-1] else 0.0
    u[i + 1, j + 1] = _finite(_corner(u[i, j], u[i, j + 1], u[i + 1, j], 0.5 * c, g, ds + dt),
                              _OVERFLOW)


def solve(px: PiecewiseAbelianPath, py: PiecewiseAbelianPath,
          keep_state: bool = False) -> KernelSolution:
    """Sweep the whole grid and return the kernel value at the far corner.

    Without the grids this is solve_pairs() on the one pair, so a pair
    gives the same bits here as inside any batch.  At degree 1 the adjoint
    states never feed back into u, so the value comes from the scalar
    sweep of solve_order1 on the level-1 coefficients, which agrees with
    the coupled sweep to rounding.

    With keep_state the grids come from the per-cell reference at every
    degree: init_boundaries, then step() on each cell in row-major order,
    and the value is the far corner of the u grid.  It agrees with the
    sweeps to rounding.  It costs 0.09-0.13 ms per cell at d = 2 (one
    x86-64 core, numpy 2.4), 45-160 times the sweep of the values alone:
    7.7 ms on 9 x 9 cells at m = 1, 33 ms on 16 x 16, 0.30 s on 48 x 48
    and 0.54 s on 64 x 64 at m = 3.  step() raises at the first corner
    whose u is not finite, so the loop stops there: NumericError when the
    kernel value overflows, or when a running signature of the boundary
    does.
    """
    if not keep_state:
        return KernelSolution(float(solve_pairs([px], [py])[0]))
    state = init_boundaries(px, py)
    for i in range(px.n_intervals):
        for j in range(py.n_intervals):
            step(state, i, j)
    return KernelSolution(float(state.u[-1, -1]), state)


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
        _check_pair(px, py)
        key = (px.dim, px.degree, px.n_intervals, py.n_intervals)
        groups.setdefault(key, []).append(k)
    values = np.empty(len(pxs))
    for (d, m, nx, ny), ks in groups.items():
        size = max(1, _BATCH_VALUES // _pair_values(d, m, nx, ny))
        for s in range(0, len(ks), size):
            chunk = ks[s:s + size]
            X = np.array([pxs[k].increments for k in chunk])
            Y = np.array([pys[k].increments for k in chunk])
            if m == 1:
                values[chunk] = _sweep_order1(X[..., 1:], Y[..., 1:])
            else:
                values[chunk] = _sweep(d, m, X, Y)
    return _finite(values, _OVERFLOW)


@np.errstate(over="ignore", invalid="ignore")
def _sweep(d: int, m: int, X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """Far-corner u of the coupled sweep over B pairs of one shape.

    X and Y hold the increments of the pairs, shape (B, N_x, N) and
    (B, N_y, N).  The state rows hold the first k coefficients of phi and
    psi: those of levels 0..m-1, k = N(d, m-1), since level m is dead
    state (see the module docstring).  Grid rows i and i+1 live in one
    (2, B, N_y+1, 2k) buffer whose entry j is the state row [phi | psi] at
    corner j.  The scalar slot of phi, which the update forces to 0,
    carries u instead: u at corner j-1 of the same grid row, so u is
    shifted by one column.  Per
    row, the fill function that tensors._operator makes once for V fills
    the first k rows of both blocks of V = [M_x^T ; S_x] of x = x_i, shape
    (B, 2k, N), and then Y @ V^T = [R*_x(y_j) | R*_{y_j}(x)], whose first
    slot is <x, y_j>.
    With the identity added to the first k diagonal entries of the M_x^T
    block, one matmul of row i by the first k columns of V gives
    phi + phi (x) x + L*_psi(x) + u x at every column: the first row of
    M_x^T is x, so the u in the scalar slot brings the u x term.  Then the
    scalar slots of the new row take u[i, j], unshifted, so that the psi
    forcing u[i, j] y_j + L*_phi(y_j) of levels 1..m-1 is one matmul per
    tensor level of the new phi rows by the levels of y_j.  psi
    is the running product psi[j+1] = psi[j] (x) (1 + y_j) + forcing from
    psi[0] = 0, built level by level, since level l of psi[j+1] reads only
    lower levels of psi[j]: from l = 2 on, one more matmul of the levels
    1..l-1 of the new psi rows by the product matrices P_l of the y_j
    (tensors._products, filled once per call) adds the terms psi_a (x)
    y_{l-a}, and one add.accumulate along the row writes level l into the
    new row.  The adjoint terms <phi, R*_x(y)> + <psi, R*_y(x)> at the
    four corners of the cells are two row-wise dot products over both grid
    rows, which skip the scalar slots.  The boundary partial signatures
    come from the first k coefficients of the increments at degree m-1.

    The new u[i+1, j+1] is alpha_j u[i+1, j] + beta_j.  _corner is linear
    in its inputs, and the weights of u[i+1, j] (alpha_j: 1 + c/2, less
    c/12 where D_s fires), of u[i, j], of u[i, j+1] and of the first
    adjoint term depend only on the cell coefficient c = <x_i, y_j>.  They
    come from _weights once per block of K = N/2 rows: the weights of
    u[i, j+1] and u[i, j] are _corner's own pair (1 + h, h*h - 1) of
    h = c/2, which is alpha_j too in blocks where no row fires, and
    alpha_j in the other blocks and the adjoint weight are _corner on
    basis inputs.  Blocks of N/4 rows ran 1.23x slower at N = 7, and of
    4N/5 rows as fast with higher peaks.  beta_j is then one linear
    combination per row, plus _corner on the fired curvature terms in rows
    where the correction fires, and u advances by one multiply-add per
    cell on Python floats, which is the same IEEE arithmetic as numpy
    scalars.  Which rows have a cell that fires in some pair is worked out
    once per call.

    Built once per call: the boundary partials, the gate flags and the
    rows that fire, the views y_from and the matrices P_l; V with its fill
    function, transpose, state columns and diagonal; the view of r and
    the views of both grid rows that the adjoint dots read; and for each
    parity of i, the views of the buffer that a row reads or writes: the
    boundary entry, the phi rows, the u columns, and per level the inputs
    of the psi forcing and the accumulate target.  Once per block of K
    rows: the cell coefficients and the weights.  Once per row, only the
    computing calls: the fill, the matmuls, the psi levels, the adjoint
    dots, beta and the u march.
    """
    B, nx, n = X.shape
    ny = Y.shape[1]
    offs = _offsets(d, m)
    k = offs[m]                                 # N(d, m-1): levels 0..m-1

    rows = np.zeros((2, B, ny + 1, 2 * k))
    rows[0, :, :, k:] = _partials(d, m - 1, Y[..., :k])
    rows[0, :, 1:, 0] = 1.0
    phi_bnd = _partials(d, m - 1, X[..., :k])
    pure_x, rep_x = _gate_flags(X[..., 1:1 + d], X[..., 1 + d:])
    pure_y, rep_y = _gate_flags(Y[..., 1:1 + d], Y[..., 1 + d:])
    # row i of pair b has a cell that fires iff x_i repeats against some pure
    # y_j, or is pure against some repeating y_j
    row_fires = ((rep_x & pure_y.any(axis=1)[:, None])
                 | (pure_x & rep_y.any(axis=1)[:, None])).any(axis=0).tolist()
    u_prev = np.ones((B, ny + 1))
    u_prev2 = u_prev                            # row i-1, read once i > 0
    v = np.zeros((B, 2 * k, n))
    fill = _operator(d, m, v)
    vt, vk = v.transpose(0, 2, 1), v[..., :k]   # vk: the columns that reach the state
    diag = v.reshape(B, -1)[:, :k * n:n + 1]    # the diagonal of the M_x^T block
    r = np.empty((B, ny, 2 * k))
    r_adj = r[..., 1:, None]
    g_lo_rows, g_hi_rows = rows[:, :, :-1, None, 1:], rows[:, :, 1:, None, 1:]
    block = max(1, n // 2)
    Yt = Y.transpose(0, 2, 1)
    # per level l: the new phi rows (with u) cut to the prefixes of levels
    # 0..m-l, which meet the levels l..m of every y_j, rows indexed by those
    # prefix words; from l = 2 on the new psi levels 1..l-1 and the product
    # matrices P_l of the y_j (None at l = 1); and the new psi level l
    y_from = [Y[..., offs[l]:].reshape(B, ny, -1, d**l) for l in range(1, m)]
    prods = [None] + [_products(d, l, Y) for l in range(2, m)]
    parities = []
    for k0 in (0, 1):                           # rows i and i+1 in the buffer
        old, new = rows[k0], rows[1 - k0]
        lo = new[:, :-1, None]
        levels = [(lo[..., :offs[m - l + 1]], y_l,
                   None if p is None else lo[..., k + 1:k + offs[l]], p,
                   new[:, 1:, k + offs[l]:k + offs[l + 1]])
                  for l, y_l, p in zip(range(1, m), y_from, prods)]
        parities.append((new[:, 0, :k], old[:, 1:], new[:, 1:, :k], new[..., 0],
                         new[:, 1:, 0], levels))

    for i in range(nx):
        t = i % block                           # row i is row t of its block
        if t == 0:
            alpha_blk = w01 = w00 = wg0 = None  # free the last block first: peak memory
            h_blk = X[:, i:i + block] @ Yt
            h_blk *= 0.5
            fire_s = None
            if any(row_fires[i:i + block]):
                fire_s = rep_x[:, i:i + block, None] & pure_y[:, None]
            alpha_blk, w01, w00, wg0 = _weights(h_blk, fire_s)
        k0, k1 = i % 2, 1 - i % 2
        bnd, phi_old, phi_new, u_col, u_shifted, levels = parities[k0]
        fill(X[:, i])
        np.matmul(Y, vt, out=r)
        diag[...] = 1.0

        bnd[...] = phi_bnd[:, i + 1]
        np.matmul(phi_old, vk, out=phi_new)
        u_col[...] = u_prev

        # psi[j+1] = psi[j] (x) (1 + y_j) + u[i, j] y_j + L*_phi[j](y_j) from
        # psi[0] = 0, level by level; u[i, j] is the scalar slot of phi[j]
        for phi_l, y_l, psi_l, p, out in levels:
            f = phi_l @ y_l
            if p is not None:
                f += psi_l @ p
            np.add.accumulate(f[..., 0, :], axis=1, out=out)

        # adjoint terms at the corners (i, j), (i+1, j) and (i, j+1), (i+1, j+1)
        g_lo = (g_lo_rows @ r_adj)[..., 0, 0]
        g_hi = (g_hi_rows @ r_adj)[..., 0, 0]
        g0, g2, g1, g3 = g_lo[k0], g_lo[k1], g_hi[k0], g_hi[k1]
        u00, u01 = u_prev[:, :-1], u_prev[:, 1:]
        beta = (w01[:, t] * u01 + w00[:, t] * u00 + wg0[:, t] * g0
                + 0.25 * (g1 + g2 + g3))
        if row_fires[i]:
            # D_s without its u[i+1, j] term, which alpha carries, plus D_t
            fire_t = rep_y & pure_x[:, i, None]
            dt = np.zeros((B, ny))
            dt[:, 1:] = (u01[:, 1:] + u00[:, :-1]) - 2.0 * u00[:, 1:]
            curv = (np.where(fire_s[:, t], u_prev2[:, :-1] - 2.0 * u00, 0.0)
                    + np.where(fire_t, dt, 0.0))
            beta += _corner(0.0, 0.0, 0.0, h_blk[:, t], None, curv)

        u_rows = []
        for alpha_b, beta_b in zip(alpha_blk[:, t].tolist(), beta.tolist()):
            u = 1.0
            row = [u]
            for a, b in zip(alpha_b, beta_b):
                u = a * u + b
                row.append(u)
            u_rows.append(row)
        u_new = np.array(u_rows)
        u_shifted[...] = u_new[:, :-1]
        u_prev2, u_prev = u_prev, u_new
    return u_prev[:, ny]


@np.errstate(over="ignore", invalid="ignore")
def _sweep_order1(X: np.ndarray, Y: np.ndarray,
                  grid: Optional[np.ndarray] = None) -> np.ndarray:
    """Far-corner u of the scalar sweep over B pairs of one shape.

    X and Y hold level-1 increments, shape (B, N_x, d) and (B, N_y, d).
    Each anti-diagonal of cells is one _corner call without adjoint terms;
    its cells depend only on earlier anti-diagonals, so the result equals
    the row-major sweep.  No N_x x N_y array is formed: the half
    coefficients h = <x_i, y_j>/2 of K consecutive anti-diagonals
    (_diagonal_block) are built at once, over the x indices [first, last)
    their cells span, as one contiguous block with a (B, last - first) row
    per anti-diagonal.  The block is one multiply-add per coordinate of the
    halved x increments by a window view of a reversed, zero-padded copy of
    the y increments, summed in the order k = 0..d-1, so a pair gets the
    same bits alone and in any batch.  _corner's weight h*h - 1 is then
    formed once for the whole block, in one more block.  Only the last four
    anti-diagonals of corners are kept, as four (B, N_x+2) buffers indexed
    by 1 + the x index of the corner.  They rotate, so the views that an
    anti-diagonal reads and writes repeat with period 4: each block builds
    the views of the four phases once and cycles through them from the
    phase of its first anti-diagonal.

    When no interval of any pair repeats its neighbour (sampled Brownian
    paths, say), no cell can fire, and unless a grid is asked for the
    weight 1 + h is formed in place over h, and each anti-diagonal is one
    positional _corner call, into the new anti-diagonal and one
    preallocated row, with no other Python work.  On Brownian pairs of
    32^2-512^2 cells that loop ran 0.80-0.82x the time of the general loop,
    which the other pairs take.  There h stays for the curvature terms,
    and 1 + h is formed per anti-diagonal into a second row, the same IEEE
    sum, so both loops hold two blocks.  The fired flags of the block's
    range come from rep_x and from a reversed, False-padded copy of rep_y
    laid out like the y copy, and an anti-diagonal with no fired cell in
    the range skips the curvature terms.  With a grid (B = 1, shape
    (N_x+1, N_y+1)) the sweep takes this loop whatever the flags, which
    are then all False for a pair with no repeats, and every corner of the
    grid is also written there.  The rows of the blocks are views of them,
    so every name that holds one is cleared before the next block is
    built; a row left over would keep its block alive through the next
    one.

    Every anti-diagonal of a block is evaluated over the block's whole
    range [first, last), in place into the view of the new anti-diagonal.
    A cell (i, j) of the range outside the grid reads h = 0 from the zero
    padding, so its weights are exactly 1 and -1.  Where j < 0, all its
    corners lie in columns <= 0, which start at 1 and stay 1, since
    1*(1 + 1) - 1*1 = 1 and its curvature terms are 0.  Where j >= N_y,
    it writes a corner past column N_y, which no cell of the grid reads.
    So boundary corners stay 1, and the grid's cells get the bits of the
    per-cell update.  The sweep runs in the dtype of the increments.
    """
    B, nx, d = X.shape
    ny = Y.shape[1]
    if not (nx and ny):
        return np.ones(B, dtype=X.dtype)
    K = _diagonal_block(nx, ny)
    diagonals = nx + ny - 1
    width = min(nx, ny + K - 1)                # x indices a block spans at most
    # xh[:, k, i] is x_i[k]/2, and yr[:, k, K + ny - 2 - j] is y_j[k], with
    # K - 1 zeros before and width - 1 after: cell (i, q - i) reads
    # yr[:, k, K + ny - 2 - q + i], which runs forwards along i.  So
    # windows[t, :, :, i] is yr[:, :, t + i], and anti-diagonal q of a block
    # reads window t = K + ny - 2 - q + first.
    xh = 0.5 * np.ascontiguousarray(X.transpose(0, 2, 1))
    yr = np.zeros((B, d, ny + K - 2 + width), dtype=Y.dtype)
    yr[..., K - 1:K - 1 + ny] = Y[:, ::-1].transpose(0, 2, 1)
    s0, s1, s2 = yr.strides
    windows = as_strided(yr, (ny + K - 1, B, d, width), (s2, s0, s1, s2), writeable=False)
    # the repeat flags of both paths in one call, where x_{N_x-1} and y_0,
    # which meet in the stack, are no neighbours
    XY = np.concatenate((X, Y), axis=1)
    _, rep = _gate_flags(XY, XY[..., :0])
    XY = None
    rep[:, nx] = False
    rep_x, rep_y = rep[:, :nx], rep[:, nx:]
    # a grid takes the gated loop too, with all flags False for a pair with
    # no repeats
    gated = grid is not None or bool(rep.any())
    if gated:
        ry = np.zeros((B, ny + K - 2 + width), dtype=bool)
        ry[:, K - 1:K - 1 + ny] = rep_y[:, ::-1]
        r0, r1 = ry.strides
        fire_windows = as_strided(ry, (ny + K - 1, B, width), (r1, r0, r1), writeable=False)
    bufs = np.ones((4, B, nx + 2), dtype=X.dtype)
    rows = np.empty((2, B, width), dtype=X.dtype)
    for p in range(0, diagonals, K):
        # anti-diagonals p..last_p over x indices first..last-1: h_blk[q - p,
        # :, i - first] is h of cell (i, q - i)
        last_p = min(p + K, diagonals) - 1
        first, last = max(0, p - ny + 1), min(nx - 1, last_p) + 1
        start = K + ny - 2 - last_p + first
        # free the last blocks, which the rows of the loop view: peak memory
        h_blk = b_blk = a = b = h = None
        win = windows[start:start + last_p - p + 1, ..., :last - first][::-1]
        h_blk = xh[:, 0, first:last] * win[:, :, 0]
        for k in range(1, d):
            h_blk += xh[:, k, first:last] * win[:, :, k]
        # _corner's weight h*h - 1, and 1 + h below
        b_blk = np.multiply(h_blk, h_blk)
        b_blk -= 1.0
        tmp, one_h = rows[..., :last - first]
        # anti-diagonal q reads u00, u01, u10 from the buffers (q+1, q+2,
        # q+2) % 4 and writes the new corners into buffer (q+3) % 4
        at1, at2 = (tuple(bufs[..., first + s:last + s]) for s in (1, 2))
        views = cycle([(at1[(q + 1) % 4], at1[(q + 2) % 4], at2[(q + 2) % 4], at2[(q + 3) % 4])
                       for q in range(p, p + 4)])
        if not gated:
            h_blk += 1.0                               # now _corner's weight 1 + h
            for (u00, u01, u10, new), a, b in zip(views, h_blk, b_blk):
                _corner(u00, u01, u10, None, None, None, new, (a, b), tmp)
            continue
        # the D_s and D_t corners of the anti-diagonal before q are in
        # buffer q % 4; per anti-diagonal, whether some cell of the range
        # fires, and its y flags
        at0 = bufs[..., first:last]
        befores = cycle([(at0[q % 4], at1[q % 4]) for q in range(p, p + 4)])
        fire_s = rep_x[:, first:last]
        fire_t = fire_windows[start:start + last_p - p + 1, :, :last - first][::-1]
        fires = (fire_t | fire_s).any(axis=(1, 2)).tolist()
        for q, (u00, u01, u10, new), (before_s, before_t), h, b, fire_tq, fired in zip(
                range(p, last_p + 1), views, befores, h_blk, b_blk, fire_t, fires):
            np.add(h, 1.0, one_h)
            curv = None
            if fired:
                twice = 2.0 * u00
                curv = (np.where(fire_s, (u10 + before_s) - twice, 0.0)
                        + np.where(fire_tq, (u01 + before_t) - twice, 0.0))
            _corner(u00, u01, u10, h, None, curv, new, (one_h, b), tmp)
            if grid is not None:
                ii = np.arange(max(0, q - ny + 1), min(nx - 1, q) + 1)
                grid[ii + 1, q - ii + 1] = new[0, ii - first]
    return bufs[(diagonals + 2) % 4, :, nx + 1]


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
    value = float(_finite(_sweep_order1(X[None], Y[None], grid), _OVERFLOW)[0])
    if keep_state:
        return KernelSolution(value, GoursatState(X.shape[1], 1, grid, None, None))
    return KernelSolution(value)


def _check_identities(gram: np.ndarray, name: str = "series {}") -> None:
    """Raise NumericError where kernel values break an exact-kernel identity.

    gram[i, j] is the kernel of series i and j.  Every exact k(x, x) is at
    least 1 and every |k(x, y)| at most sqrt(k(x, x) k(y, y)) (Cauchy-
    Schwarz); a computed value may miss either by the relative slack
    _IDENTITY_SLACK only.  The smallest diagonal entry is checked first,
    then the entry furthest above its bound.  name.format(i) names series i
    in the diagonal message: experiment.gram_matrix() checks its matrix
    with the default, and kernel() the 1 x 1 matrix of two equal lifts as
    "a path", which meets the bound by construction.
    """
    i = int(np.diag(gram).argmin())
    if gram[i, i] < 1.0 - _IDENTITY_SLACK:
        raise NumericError(
            f"kernel of {name.format(i)} with itself is {float(gram[i, i])!r}, below 1")
    root = np.sqrt(np.diag(gram))
    i, j = divmod(int((np.abs(gram) / np.outer(root, root)).argmax()), len(gram))
    if abs(gram[i, j]) > root[i] * root[j] * (1.0 + _IDENTITY_SLACK):
        raise NumericError(f"kernel of series {i} and {j} exceeds the Cauchy-Schwarz bound")


def kernel(ts_x: TimeSeries, ts_y: TimeSeries, m: int = 1,
           partition_x: Optional[Sequence[float]] = None,
           partition_y: Optional[Sequence[float]] = None) -> float:
    """Signature kernel of two sampled paths via their degree-m lifts.

    Partitions default to the full sample grids.  Series of different
    dimensions raise ShapeMismatchError before either is lifted.  When both
    lifts are equal, a value below 1 - _IDENTITY_SLACK raises NumericError
    (_check_identities): every exact k(x, x) is at least 1.

    Only equal lifts are gated, so one path on two partitions is not
    checked, though both lifts have the same total increment: for the 1-D
    zigzag 0,1,0,1,0 at times 0..4, kernel(x, x, m, partition_y=[0, 1, 2,
    4]) returns 0.890625 with no error at m = 1-3, where the exact kernel
    of the two lifts is 1.  The command line cannot reach this case, since
    both series there share one --every.  A gate for it would need the two
    self-kernels, two more sweeps, so none is made.
    """
    _check_pair(ts_x, ts_y, m)
    px = build_pab(ts_x, ts_x.times if partition_x is None else partition_x, m)
    py = build_pab(ts_y, ts_y.times if partition_y is None else partition_y, m)
    value = solve(px, py).value
    if all(map(np.array_equal, (px.partition, px.increments), (py.partition, py.increments))):
        _check_identities(np.array([[value]]), "a path")
    return value
