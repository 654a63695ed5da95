"""Property tests over drawn inputs: tensor adjoints, Chen's identity, the
kernel's symmetry and zero padding, and the shared cell update."""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402
from hypothesis.extra import numpy as hnp  # noqa: E402

from pabsig import (  # noqa: E402
    PiecewiseAbelianPath,
    TimeSeries,
    TruncTensor,
    chen_signature,
    inner,
    left_adjoint,
    linear_combine,
    mul_trunc,
    right_adjoint,
    solve,
    tensor_dim,
)
from pabsig.goursat import _corner, _weights  # noqa: E402
from pabsig.tensors import _mul  # noqa: E402

from helpers import bracket, level_one, pad_pab, predictor_corrector, refine_pab  # noqa: E402

# derandomized, so every run tries the same examples
PROPERTY = settings(derandomize=True, deadline=None, max_examples=40,
                    database=None)


def floats(bound):
    return st.floats(-bound, bound, allow_nan=False, allow_infinity=False)


def vectors(n, bound=1.0):
    return hnp.arrays(np.float64, n, elements=floats(bound))


@st.composite
def tensors(draw, d, m):
    return TruncTensor(d, m, draw(vectors(tensor_dim(d, m), 2.0)))


@st.composite
def pab_paths(draw, d, m, n):
    """Piecewise-abelian path whose increments are Lie polynomials of nested
    brackets of two drawn level-1 vectors."""
    rows = []
    for _ in range(n):
        a, b, out = (level_one(d, m, draw(vectors(d, 0.6))) for _ in range(3))
        term = a
        for _ in range(2, m + 1):
            term = bracket(term, b)
            out = linear_combine(1.0, out, draw(floats(1.0)), term)
        rows.append(out.coeffs)
    return PiecewiseAbelianPath(d, m, np.arange(n + 1.0), np.array(rows))


@st.composite
def path_pairs(draw):
    """Two paths of one (d, m), each optionally refined so that repeated
    increments fire the curvature correction."""
    d = draw(st.integers(1, 3))
    m = draw(st.integers(1, 3))
    pair = []
    for _ in range(2):
        p = draw(pab_paths(d, m, draw(st.integers(1, 4))))
        pair.append(refine_pab(p, draw(st.integers(1, 3))))
    return pair


@PROPERTY
@given(st.integers(1, 3).flatmap(lambda d: st.integers(0, 4).flatmap(
    lambda m: st.tuples(tensors(d, m), tensors(d, m), tensors(d, m)))))
def test_adjoint_duality(abc):
    # <a (x) b, c> == <b, L*_a(c)> == <a, R*_b(c)>, to rounding of the sum
    # of absolute terms
    a, b, c = abc
    ref = inner(mul_trunc(a, b), c)
    d, m = a.dim, a.degree
    scale = _mul(d, m, np.abs(a.coeffs), np.abs(b.coeffs)) @ np.abs(c.coeffs)
    tol = 1e-13 * tensor_dim(d, m) * scale + 1e-300
    assert abs(inner(b, left_adjoint(a, c)) - ref) <= tol
    assert abs(inner(a, right_adjoint(b, c)) - ref) <= tol


@PROPERTY
@given(st.integers(1, 3).flatmap(lambda d: st.tuples(
    st.integers(1, 4),
    hnp.arrays(np.float64, st.tuples(st.integers(3, 7), st.just(d)),
               elements=floats(1.0)),
    st.integers(1, 5))))
def test_chen_identity(args):
    # the signature over [t0, tn] is the product of the signatures over
    # [t0, tk] and [tk, tn]
    m, values, k = args
    ts = TimeSeries(np.arange(len(values), dtype=float), values)
    k = 1 + k % (len(values) - 2)
    left = chen_signature(ts, (0.0, float(k)), m)
    right = chen_signature(ts, (float(k), ts.times[-1]), m)
    full = chen_signature(ts, None, m)
    d = ts.dim
    scale = _mul(d, m, np.abs(left.coeffs), np.abs(right.coeffs))
    np.testing.assert_allclose(mul_trunc(left, right).coeffs, full.coeffs,
                               rtol=0, atol=1e-12 * scale.max())


@PROPERTY
@given(path_pairs())
def test_kernel_symmetry(pair):
    px, py = pair
    v1 = solve(px, py).value
    v2 = solve(py, px).value
    assert abs(v1 - v2) <= 1e-12 * max(1.0, abs(v1))


@PROPERTY
@given(path_pairs(), st.integers(1, 2))
def test_zero_padding_leaves_kernel_unchanged(pair, extra):
    px, py = pair
    base = solve(px, py).value
    eta = px.degree + extra
    padded = solve(pad_pab(px, eta), pad_pab(py, eta)).value
    assert abs(base - padded) <= 1e-12 * max(1.0, abs(base))


@st.composite
def cell_batches(draw):
    n = draw(st.integers(1, 8))
    cells = [draw(vectors(n, 3.0)) for _ in range(4)]
    g = draw(st.none() | st.tuples(*[vectors(n, 3.0)] * 4))
    curv = draw(st.none() | vectors(n, 3.0))
    return cells, g, curv


def bits(x):
    return np.asarray(x, dtype=np.float64).view(np.uint64)


@PROPERTY
@given(cell_batches())
def test_corner_on_arrays_matches_each_cell_bitwise(batch):
    (u00, u01, u10, c), g, curv = batch
    got = _corner(u00, u01, u10, c, g, curv)
    for k in range(len(c)):
        one = _corner(u00[k], u01[k], u10[k], c[k],
                      None if g is None else tuple(gc[k] for gc in g),
                      None if curv is None else curv[k])
        assert bits(one) == bits(got[k])


def corner_scale(u00, u01, u10, c, g, curv_abs):
    """The predictor-corrector average on absolute values: each term of the
    cell update is at most this, so rounding is a few ulps of it."""
    ag = (np.zeros_like(c),) * 4 if g is None else tuple(np.abs(x) for x in g)
    a = np.abs(u00) + np.abs(u01) + np.abs(u10)
    f1, f2, f3 = (np.abs(u * c) + gk for u, gk in zip((u00, u01, u10), ag))
    f4 = (a + f1) * np.abs(c) + ag[3]
    return a + 0.25 * (f1 + f2 + f3 + f4) + np.abs(c) / 12.0 * curv_abs


@PROPERTY
@given(cell_batches())
def test_corner_matches_the_predictor_corrector_average(batch):
    # _corner evaluates the four-point average in closed form, which is
    # the same update in exact arithmetic and rounds within a few ulps
    (u00, u01, u10, c), g, curv = batch
    got = _corner(u00, u01, u10, c, g, curv)
    want = predictor_corrector(u00, u01, u10, c, g, curv)
    scale = corner_scale(u00, u01, u10, c, g, 0.0 if curv is None else np.abs(curv))
    assert (np.abs(got - want) <= 8 * np.finfo(float).eps * scale).all()


@st.composite
def affine_cells(draw):
    n = draw(st.integers(1, 8))
    u00, u01, u10, c, ds_rest, dt = (draw(vectors(n, 3.0)) for _ in range(6))
    g = draw(st.none() | st.tuples(*[vectors(n, 3.0)] * 4))
    flags = hnp.arrays(np.bool_, n)
    fire_s = draw(st.none() | flags)
    fire_t = draw(st.none() | flags)
    return u00, u01, u10, c, g, fire_s, fire_t, ds_rest, dt


@PROPERTY
@given(affine_cells())
def test_corner_is_affine_in_u10(cells):
    # the coupled sweep advances u along a row as alpha*u10 + beta: D_s is
    # the only curvature term that reads u10, with weight 1 where it fires
    u00, u01, u10, c, g, fire_s, fire_t, ds_rest, dt = cells
    curv = rest = None
    s_on = np.zeros(len(c), bool) if fire_s is None else fire_s
    t_on = np.zeros(len(c), bool) if fire_t is None else fire_t
    if fire_s is not None or fire_t is not None:
        rest = np.where(s_on, ds_rest, 0.0) + np.where(t_on, dt, 0.0)
        curv = np.where(s_on, u10 + ds_rest, 0.0) + np.where(t_on, dt, 0.0)
    alpha = _corner(0.0, 0.0, 1.0, c, None, fire_s)
    beta = _corner(u00, u01, 0.0, c, g, rest)
    want = _corner(u00, u01, u10, c, g, curv)
    # rounding is bounded by a few ulps of the sum of absolute terms
    scale = corner_scale(u00, u01, u10, c, g, np.abs(u10) + np.abs(ds_rest) + np.abs(dt))
    err = np.abs(alpha * u10 + beta - want)
    assert (err <= 8 * np.finfo(float).eps * scale).all()
    # the split of the row sweep: weights once per block of rows from c
    # alone, then per row the adjoint terms and the fired curvature terms
    alpha, w01, w00, wg0 = _weights(c, fire_s)
    split = alpha * u10 + w01 * u01 + w00 * u00
    if g is not None:
        split = split + wg0 * g[0] + 0.25 * (g[1] + g[2] + g[3])
    if rest is not None:
        split = split + _corner(0.0, 0.0, 0.0, c, None, rest)
    err = np.abs(split - want)
    assert (err <= 8 * np.finfo(float).eps * scale).all()
