"""Shared builders for randomized tests."""

import numpy as np

from pabsig import (
    PiecewiseAbelianPath,
    TimeSeries,
    TruncTensor,
    embed,
    exp_trunc,
    inner,
    linear_combine,
    mul_trunc,
    tensor_dim,
    unit,
)
from pabsig import goursat
from pabsig.experiment import simulate_bm
from pabsig.tensors import _exp, _log, _mul, _offsets

# A sweep whose median far-corner deviation from np.longdouble passes this
# many times that of the nested cell update rounds worse than the sweep it
# replaced (tests/test_goursat.py, tools/time_sweep.py).
DEVIATION_LIMIT = 4.0


def rand_tensor(rng, d, m, scale=1.0):
    return TruncTensor(d, m, rng.standard_normal(tensor_dim(d, m)) * scale)


def rand_scalar_free(rng, d, m, scale=1.0):
    coeffs = rng.standard_normal(tensor_dim(d, m)) * scale
    coeffs[0] = 0.0
    return TruncTensor(d, m, coeffs)


def level_one(d, m, vec):
    coeffs = np.zeros(tensor_dim(d, m))
    coeffs[1:1 + d] = vec
    return TruncTensor(d, m, coeffs)


def bracket(a, b):
    return linear_combine(1.0, mul_trunc(a, b), -1.0, mul_trunc(b, a))


def rand_lie(rng, d, m, scale=0.4):
    """Random Lie polynomial of degree m built from nested brackets."""
    a = level_one(d, m, rng.standard_normal(d) * scale)
    b = level_one(d, m, rng.standard_normal(d) * scale)
    out = level_one(d, m, rng.standard_normal(d) * scale)
    term = a
    for _ in range(2, m + 1):
        term = bracket(term, b)
        out = linear_combine(1.0, out, rng.standard_normal(), term)
    return out


def rand_pab(rng, d, m, n_intervals, scale=0.4):
    partition = np.arange(n_intervals + 1, dtype=float)
    incs = [rand_lie(rng, d, m, scale).coeffs for _ in range(n_intervals)]
    return PiecewiseAbelianPath(d, m, partition, np.array(incs))


def refine_pab(pab, r):
    """Split every interval of a piecewise-abelian path into r equal parts."""
    t = pab.partition
    partition = []
    for i in range(pab.n_intervals):
        width = (t[i + 1] - t[i]) / r
        partition += [t[i] + s * width for s in range(r)]
    partition.append(t[-1])
    incs = np.repeat(pab.increments / r, r, axis=0)
    return PiecewiseAbelianPath(pab.dim, pab.degree, np.array(partition), incs)


def pad_pab(pab, eta):
    """Zero-pad every increment to a higher degree eta."""
    incs = np.zeros((pab.n_intervals, tensor_dim(pab.dim, eta)))
    incs[:, :pab.increments.shape[1]] = pab.increments
    return PiecewiseAbelianPath(pab.dim, eta, pab.partition, incs)


def pa_exact_kernel(px, py, n_high):
    """Signature inner product of two piecewise-abelian paths at a high
    truncation level, bypassing the PDE solver entirely."""
    def full_sig(pab):
        sig = unit(pab.dim, n_high)
        for row in pab.increments:
            inc = TruncTensor(pab.dim, pab.degree, row)
            sig = mul_trunc(sig, exp_trunc(embed(inc, n_high)))
        return sig
    return inner(full_sig(px), full_sig(py))


def rand_series(rng, d, n_segments, scale=0.3, times=None):
    if times is None:
        times = np.linspace(0.0, 1.0, n_segments + 1)
    steps = rng.standard_normal((n_segments, d)) * scale
    values = np.vstack([np.zeros(d), np.cumsum(steps, axis=0)])
    return TimeSeries(times, values)


def line_series(v, n_segments, horizon=1.0):
    """Straight-line path along v sampled on a uniform grid."""
    v = np.asarray(v, dtype=float)
    times = np.linspace(0.0, horizon, n_segments + 1)
    return TimeSeries(times, np.outer(times / horizon, v))


def series_with_variation(rng, d, n_kinks, total, n_per_segment=1):
    """Piecewise linear path with 1-variation exactly `total`, sampled with
    n_per_segment points per linear piece."""
    steps = rng.standard_normal((n_kinks, d))
    norms = np.linalg.norm(steps, axis=1)
    steps *= total / norms.sum()
    values = [np.zeros(d)]
    for s in steps:
        base = values[-1]
        for q in range(1, n_per_segment + 1):
            values.append(base + s * (q / n_per_segment))
    values = np.array(values)
    times = np.linspace(0.0, 1.0, len(values))
    return TimeSeries(times, values)


def chen_loop(d, m, deltas):
    """Signature of consecutive linear segments, one unfused product
    sig (x) exp(delta) per segment: the reference for the batched lift."""
    sig = np.zeros(tensor_dim(d, m))
    sig[0] = 1.0
    for delta in deltas:
        step = np.zeros(tensor_dim(d, m))
        step[1:1 + d] = delta
        sig = _mul(d, m, sig, _exp(d, m, step))
    return sig


def chen_steps(d, m, deltas, bounds):
    """Signatures of consecutive runs of segments, as lift._chen gives
    them, one step position at a time: at position s the runs still going
    form a leading slice of the rows sorted longest first, and each is
    multiplied by exp(delta) in place, top level first, by the fused Horner
    step.  The reference that lift._chen must match bit for bit."""
    offs = _offsets(d, m)
    counts = np.diff(bounds)
    order = np.argsort(-counts, kind="stable")
    starts, counts = bounds[:-1][order], counts[order]
    scaled = deltas / np.arange(1, m + 1)[:, None, None]   # [k-1] = delta/k
    # runs still going at each position s, and the segments they take there,
    # position after position: one gather of as many rows as there are segments
    lives = len(counts) - np.searchsorted(counts[::-1], np.arange(counts[0]), side="right")
    steps = scaled[:, np.concatenate([starts[:live] + s for s, live in enumerate(lives)])]
    sig = np.zeros((len(starts), offs[-1]))
    sig[:, 0] = 1.0
    levels = [sig[:, offs[n]:offs[n + 1]] for n in range(m + 1)]
    for live, end in zip(lives.tolist(), np.cumsum(lives).tolist()):
        step = steps[:, end - live:end]
        for n in range(m, 0, -1):
            acc = step[n - 1]
            for j in range(1, n):
                acc = ((acc + levels[j][:live])[:, :, None]
                       * step[n - j - 1][:, None, :]).reshape(live, -1)
            levels[n][:live] += acc
    out = np.empty_like(sig)
    out[order] = sig
    return out


def horner_exp(d, m, a):
    """tensors._exp as it was before its level-truncated form: every Horner
    step is a full truncated product.  The reference that _exp must match
    bit for bit on finite input."""
    one = np.zeros(_offsets(d, m)[-1])
    one[0] = 1.0
    e = np.broadcast_to(one, a.shape).copy()
    for k in range(m, 0, -1):
        e = one + _mul(d, m, a, e) / k
    return e


def horner_log(d, m, g):
    """tensors._log as it was before its level-truncated form: every Horner
    step is a full truncated product.  The reference that _log must match
    bit for bit on finite input."""
    n = _offsets(d, m)[-1]
    if m == 0:
        return np.zeros(g.shape)
    x = g.copy()
    x[..., 0] = 0.0
    one = np.zeros(n)
    one[0] = 1.0
    t = ((-1.0) ** (m - 1) / m) * one
    for k in range(m - 1, 0, -1):
        t = ((-1.0) ** (k - 1) / k) * one + _mul(d, m, x, t)
    return _mul(d, m, x, t)


def predictor_corrector(u00, u01, u10, h, g=None, curv=None):
    """The degree-m cell update as the four-point average is written: the
    predictor A + f1, then A + (f1 + f2 + f3 + f4)/4, less (c/12)*curv.
    It takes the half coefficient h = c/2, as goursat._corner does, which
    evaluates the same update in closed form; this is its reference."""
    c = h + h
    a = u10 + u01 - u00
    f1, f2, f3 = u00 * c, u01 * c, u10 * c
    if g is not None:
        f1, f2, f3 = f1 + g[0], f2 + g[1], f3 + g[2]
    f4 = (a + f1) * c
    if g is not None:
        f4 = f4 + g[3]
    u = a + 0.25 * ((f1 + f4) + (f2 + f3))
    return u if curv is None else u - (c / 12.0) * curv


def nested_corner(u00, u01, u10, h, g=None, curv=None, out=None):
    """goursat._corner as it was before its affine form: the same update
    nested as (s - u00) + h*(s + h*u00), s = u10 + u01, in six array
    operations.  The reference that the affine form's rounding is weighed
    against."""
    s = u10 + u01
    u = np.multiply(h, u00, out=out)
    u = np.add(s, u, out=out)
    u = np.multiply(h, u, out=out)
    s -= u00
    u = np.add(s, u, out=out)
    if g is not None:
        u = np.add(u, 0.25 * (((1.0 + (h + h)) * g[0] + g[1]) + (g[2] + g[3])), out=out)
    if curv is not None:
        u = np.subtract(u, (h / 6.0) * curv, out=out)
    return u


def diff_gate_flags(level1, higher):
    """goursat._gate_flags as it was before it took fewer numpy calls:
    np.diff for the gaps, a zeros_like repeat array and the purity test of
    the higher levels even when there are none.  The reference whose
    flags _gate_flags must equal."""
    size = np.abs(level1).max(axis=-1, initial=0.0)
    pure = np.abs(higher).max(axis=-1, initial=0.0) <= goursat._ROUNDING * size
    gap = np.abs(np.diff(level1, axis=-2)).max(axis=-1, initial=0.0)
    repeat = np.zeros_like(pure)
    repeat[..., 1:] = (pure[..., 1:] & pure[..., :-1]
                       & (gap <= goursat._ROUNDING * np.maximum(size[..., 1:], size[..., :-1])))
    return pure, repeat


@np.errstate(over="ignore", invalid="ignore")
def skewed_sweep_order1(X, Y, grid=None):
    """goursat._sweep_order1 as it was before its grid-free form: the full
    (B, N_x, N_y) grid of cell coefficients X @ Y^T, read one anti-diagonal
    at a time through a read-only skewed view of its buffer and halved per
    anti-diagonal.  The memory test of the grid-free sweep weighs its peak
    against this one's."""
    c = np.ascontiguousarray(X @ Y.transpose(0, 2, 1))
    B, nx, ny = c.shape
    # cs[:, p, i] is c[:, i, p - i].  c is C-contiguous, so within a pair
    # c[i, p - i] sits at flat offset p + i*(ny - 1), and the largest offset,
    # nx*ny - 1 (p = nx+ny-2, i = nx-1), stays inside the buffer.
    size = c.itemsize
    cs = np.lib.stride_tricks.as_strided(
        c, (B, max(nx + ny - 1, 0), nx), (c.strides[0], size, size * (ny - 1)),
        writeable=False)
    _, rep_x = goursat._gate_flags(X, X[..., :0])
    _, rep_y = goursat._gate_flags(Y, Y[..., :0])
    gated = bool(rep_x.any() or rep_y.any())
    before, u0, u1, new = np.ones((4, B, nx + 2), dtype=c.dtype)
    for p in range(nx + ny - 1):
        lo, hi = max(0, p - ny + 1), min(nx - 1, p) + 1
        cells = slice(lo + 1, hi + 1)
        up = slice(lo + 2, hi + 2)
        u00, u01, u10 = u0[:, cells], u1[:, cells], u1[:, up]
        curv = None
        if gated:
            fire_s, fire_t = rep_x[:, lo:hi], rep_y[:, p - hi + 1:p - lo + 1][:, ::-1]
            if fire_s.any() or fire_t.any():
                curv = (np.where(fire_s, (u10 + before[:, lo:hi]) - 2.0 * u00, 0.0)
                        + np.where(fire_t, (u01 + before[:, cells]) - 2.0 * u00, 0.0))
        new[:, up] = goursat._corner(u00, u01, u10, 0.5 * cs[:, p, lo:hi], curv=curv)
        if grid is not None:
            ii = np.arange(lo, hi)
            grid[ii + 1, p - ii + 1] = new[0, up]
        before, u0, u1, new = u0, u1, new, before
    return u1[:, nx + 1]


@np.errstate(over="ignore", invalid="ignore")
def sliced_sweep_order1(X, Y, grid=None, corner=None):
    """goursat._sweep_order1 as it was before it evaluated each
    anti-diagonal over its whole block's x range: the same blocks of half
    coefficients, but every anti-diagonal sliced to its own cells, with
    the slices of the u buffers and of the gate flags taken per
    anti-diagonal, and one call of `corner` (default goursat._corner) per
    anti-diagonal.  The bitwise reference of the scalar sweep; with
    corner=nested_corner, the old form that tools/time_sweep.py times and
    weighs the rounding against."""
    corner = corner or goursat._corner
    B, nx, d = X.shape
    ny = Y.shape[1]
    if not (nx and ny):
        return np.ones(B, dtype=X.dtype)
    K = goursat._diagonal_block(nx, ny)
    width = min(nx, ny + K - 1)
    xh = 0.5 * np.ascontiguousarray(X.transpose(0, 2, 1))
    yr = np.zeros((B, d, ny + K - 2 + width), dtype=Y.dtype)
    yr[..., K - 1:K - 1 + ny] = Y[:, ::-1].transpose(0, 2, 1)
    windows = np.lib.stride_tricks.sliding_window_view(yr, width, axis=2)
    _, rep_x = goursat._gate_flags(X, X[..., :0])
    _, rep_y = goursat._gate_flags(Y, Y[..., :0])
    gated = bool(rep_x.any() or rep_y.any())
    before, u0, u1, new = np.ones((4, B, nx + 2), dtype=X.dtype)
    last_p = -1
    for p in range(nx + ny - 1):
        lo, hi = max(0, p - ny + 1), min(nx - 1, p) + 1
        if p > last_p:
            hb = None
            last_p = min(p + K, nx + ny - 1) - 1
            first, last = lo, min(nx - 1, last_p) + 1
            start = K + ny - 2 - last_p + first
            win = windows[:, :, start:start + last_p - p + 1, :last - first]
            hb = xh[:, 0, None, first:last] * win[:, 0]
            for k in range(1, d):
                hb += xh[:, k, None, first:last] * win[:, k]
        cells = slice(lo + 1, hi + 1)
        up = slice(lo + 2, hi + 2)
        u00, u01, u10 = u0[:, cells], u1[:, cells], u1[:, up]
        curv = None
        if gated:
            fire_s, fire_t = rep_x[:, lo:hi], rep_y[:, p - hi + 1:p - lo + 1][:, ::-1]
            if fire_s.any() or fire_t.any():
                curv = (np.where(fire_s, (u10 + before[:, lo:hi]) - 2.0 * u00, 0.0)
                        + np.where(fire_t, (u01 + before[:, cells]) - 2.0 * u00, 0.0))
        new[:, up] = corner(u00, u01, u10, hb[:, last_p - p, lo - first:hi - first], curv=curv)
        if grid is not None:
            ii = np.arange(lo, hi)
            grid[ii + 1, p - ii + 1] = new[0, up]
        before, u0, u1, new = u0, u1, new, before
    return u1[:, nx + 1]


def sweep_deviations(sweeps, n, pairs):
    """Far-corner deviations |u - u_ld| / max(1, |u_ld|) of each scalar
    sweep of `sweeps` (name -> a function of (X, Y) like
    goursat._sweep_order1) from goursat._sweep_order1 run in np.longdouble,
    on `pairs` pairs of 2-D Brownian paths of n steps on [0, 1]
    (experiment.simulate_bm, seeds 2s and 2s+1).  Returns name -> list."""
    dev = {name: [] for name in sweeps}
    for s in range(pairs):
        X, Y = (simulate_bm(2, n, 1.0, seed).increments()[None] for seed in (2 * s, 2 * s + 1))
        ref = goursat._sweep_order1(X.astype(np.longdouble), Y.astype(np.longdouble))[0]
        scale = max(np.longdouble(1.0), abs(ref))
        for name, sweep in sweeps.items():
            dev[name].append(float(abs(sweep(X, Y)[0] - ref) / scale))
    return dev


def log_signature_rows(ts, partition, m):
    """Interval log-signatures on a partition, one chen_loop per interval."""
    idx = [ts.locate(t) for t in partition]
    deltas = ts.increments()
    return np.array([_log(ts.dim, m, chen_loop(ts.dim, m, deltas[a:b]))
                     for a, b in zip(idx, idx[1:])])
