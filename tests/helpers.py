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
from pabsig.tensors import _exp, _log, _mul, _offsets


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


def predictor_corrector(u00, u01, u10, c, g=None, curv=None):
    """The degree-m cell update as the four-point average is written: the
    predictor A + f1, then A + (f1 + f2 + f3 + f4)/4, less (c/12)*curv.
    goursat._corner evaluates the same update in closed form; this is its
    reference."""
    a = u10 + u01 - u00
    f1, f2, f3 = u00 * c, u01 * c, u10 * c
    if g is not None:
        f1, f2, f3 = f1 + g[0], f2 + g[1], f3 + g[2]
    f4 = (a + f1) * c
    if g is not None:
        f4 = f4 + g[3]
    u = a + 0.25 * ((f1 + f4) + (f2 + f3))
    return u if curv is None else u - (c / 12.0) * curv


def log_signature_rows(ts, partition, m):
    """Interval log-signatures on a partition, one chen_loop per interval."""
    idx = [ts.locate(t) for t in partition]
    deltas = ts.increments()
    return np.array([_log(ts.dim, m, chen_loop(ts.dim, m, deltas[a:b]))
                     for a, b in zip(idx, idx[1:])])
