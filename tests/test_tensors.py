import numpy as np
import pytest

from pabsig import (
    ShapeMismatchError,
    TruncTensor,
    all_words,
    embed,
    exp_trunc,
    index_to_word,
    inner,
    left_adjoint,
    linear_combine,
    log_trunc,
    mul_trunc,
    project,
    right_adjoint,
    tensor_dim,
    unit,
    word_index,
)

from pabsig.tensors import _concat_tables, _exp, _ladj, _log, _mul, _operator, _radj, _running

from helpers import level_one, rand_scalar_free, rand_tensor


def tensor_from_words(d, m, entries):
    coeffs = np.zeros(tensor_dim(d, m))
    for word, value in entries.items():
        coeffs[word_index(word, d)] = value
    return TruncTensor(d, m, coeffs)


def test_tensor_dim():
    assert tensor_dim(2, 2) == 7
    assert tensor_dim(1, 4) == 5
    assert tensor_dim(3, 2) == 13
    assert tensor_dim(2, 0) == 1
    for d in (1, 2, 3):
        for m in range(5):
            assert tensor_dim(d, m) == sum(d**k for k in range(m + 1))


def test_word_index_examples():
    assert word_index((), 2) == 0
    assert word_index((1,), 2) == 1
    assert word_index((2,), 2) == 2
    assert word_index((1, 1), 2) == 3
    assert word_index((1, 2), 2) == 4
    assert word_index((2, 1), 2) == 5
    assert word_index((2, 2), 2) == 6


def test_word_index_bijection():
    for d in (1, 2, 3):
        words = all_words(d, 3)
        assert len(words) == tensor_dim(d, 3)
        for i, w in enumerate(words):
            assert word_index(w, d) == i
            assert index_to_word(i, d) == w


def test_word_index_rejects_bad_letters():
    with pytest.raises(ValueError):
        word_index((0,), 2)
    with pytest.raises(ValueError):
        word_index((3,), 2)


def test_unit():
    u = unit(2, 2)
    assert u.coeffs.tolist() == [1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0]
    assert unit(1, 0).coeffs.tolist() == [1.0]


def test_trunc_tensor_validation():
    with pytest.raises(ValueError):
        TruncTensor(2, 2, np.zeros(6))
    with pytest.raises(ValueError):
        TruncTensor(2, 1, np.array([1.0, np.nan, 0.0]))
    with pytest.raises(ValueError):
        TruncTensor(2, 1, np.array([1.0, np.inf, 0.0]))


def test_level_views():
    a = TruncTensor(2, 2, np.arange(7.0))
    assert a.level(0).tolist() == [0.0]
    assert a.level(1).tolist() == [1.0, 2.0]
    assert a.level(2).tolist() == [3.0, 4.0, 5.0, 6.0]
    assert a.coeff((2, 1)) == 5.0


def test_linear_combine():
    a = unit(2, 2)
    b = level_one(2, 2, [1.0, -1.0])
    c = linear_combine(2.0, a, 3.0, b)
    assert c.coeffs.tolist() == [2.0, 3.0, -3.0, 0.0, 0.0, 0.0, 0.0]
    with pytest.raises(ShapeMismatchError):
        linear_combine(1.0, unit(2, 2), 1.0, unit(2, 3))
    with pytest.raises(ShapeMismatchError):
        linear_combine(1.0, unit(2, 2), 1.0, unit(3, 2))


def test_mul_identity():
    rng = np.random.default_rng(0)
    for d, m in ((1, 3), (2, 2), (3, 2), (2, 4)):
        a = rand_tensor(rng, d, m)
        one = unit(d, m)
        np.testing.assert_array_equal(mul_trunc(one, a).coeffs, a.coeffs)
        np.testing.assert_array_equal(mul_trunc(a, one).coeffs, a.coeffs)


def test_mul_letters():
    e1 = level_one(2, 2, [1.0, 0.0])
    e2 = level_one(2, 2, [0.0, 1.0])
    p = mul_trunc(e1, e2)
    assert p.coeff((1, 2)) == 1.0
    assert np.count_nonzero(p.coeffs) == 1
    q = mul_trunc(e2, e1)
    assert q.coeff((2, 1)) == 1.0


def test_mul_truncates():
    # both factors live in the top level, so the product is zero
    a = tensor_from_words(2, 2, {(1, 2): 1.0})
    b = tensor_from_words(2, 2, {(2, 1): 1.0})
    assert not mul_trunc(a, b).coeffs.any()


def test_mul_group_example():
    e1 = level_one(2, 2, [1.0, 0.0])
    e2 = level_one(2, 2, [0.0, 1.0])
    g = mul_trunc(exp_trunc(e1), exp_trunc(e2))
    assert g.coeffs.tolist() == [1.0, 1.0, 1.0, 0.5, 1.0, 0.0, 0.5]


def test_mul_associative():
    rng = np.random.default_rng(1)
    for d, m in ((1, 4), (2, 3), (3, 3)):
        for _ in range(10):
            a = rand_tensor(rng, d, m)
            b = rand_tensor(rng, d, m)
            c = rand_tensor(rng, d, m)
            lhs = mul_trunc(mul_trunc(a, b), c)
            rhs = mul_trunc(a, mul_trunc(b, c))
            np.testing.assert_allclose(lhs.coeffs, rhs.coeffs, rtol=1e-12, atol=1e-12)


def test_mul_distributes():
    rng = np.random.default_rng(2)
    a = rand_tensor(rng, 2, 3)
    b = rand_tensor(rng, 2, 3)
    c = rand_tensor(rng, 2, 3)
    lhs = mul_trunc(a, linear_combine(2.0, b, -0.5, c))
    rhs = linear_combine(2.0, mul_trunc(a, b), -0.5, mul_trunc(a, c))
    np.testing.assert_allclose(lhs.coeffs, rhs.coeffs, rtol=1e-13, atol=1e-13)


def test_inner():
    a = tensor_from_words(2, 2, {(): 2.0, (1,): 3.0})
    b = tensor_from_words(2, 2, {(): 1.0, (1,): 1.0, (2,): 1.0, (1, 1): 5.0})
    assert inner(a, b) == 5.0
    assert inner(a, unit(2, 2)) == 2.0
    e1 = level_one(2, 2, [1.0, 0.0])
    assert inner(exp_trunc(e1), exp_trunc(e1)) == 2.25
    with pytest.raises(ShapeMismatchError):
        inner(unit(2, 2), unit(2, 3))


def test_inner_bilinear():
    rng = np.random.default_rng(3)
    a = rand_tensor(rng, 3, 2)
    b = rand_tensor(rng, 3, 2)
    c = rand_tensor(rng, 3, 2)
    lhs = inner(linear_combine(1.5, a, -2.0, b), c)
    assert lhs == pytest.approx(1.5 * inner(a, c) - 2.0 * inner(b, c), rel=1e-13)


def test_project_and_embed():
    a = TruncTensor(2, 2, np.arange(1.0, 8.0))
    p = project(a, 1)
    assert p.degree == 1
    assert p.coeffs.tolist() == [1.0, 2.0, 3.0]
    e = embed(p, 3)
    assert e.degree == 3
    assert e.coeffs[:3].tolist() == [1.0, 2.0, 3.0]
    assert not e.coeffs[3:].any()
    # projecting back recovers the original
    np.testing.assert_array_equal(project(embed(a, 4), 2).coeffs, a.coeffs)
    with pytest.raises(ValueError):
        project(a, 3)
    with pytest.raises(ValueError):
        embed(a, 1)


def test_exp_examples():
    d, m = 2, 2
    z = TruncTensor(d, m, np.zeros(tensor_dim(d, m)))
    np.testing.assert_array_equal(exp_trunc(z).coeffs, unit(d, m).coeffs)
    e1 = level_one(d, m, [1.0, 0.0])
    assert exp_trunc(e1).coeffs.tolist() == [1.0, 1.0, 0.0, 0.5, 0.0, 0.0, 0.0]
    both = level_one(d, m, [1.0, 1.0])
    assert exp_trunc(both).coeffs.tolist() == [1.0, 1.0, 1.0, 0.5, 0.5, 0.5, 0.5]


def test_exp_scalar_series():
    # at d=1 the algebra is polynomials in one letter, exp is the power series
    import math

    a = level_one(1, 4, [0.7])
    got = exp_trunc(a).coeffs
    expected = [0.7**k / math.factorial(k) for k in range(5)]
    np.testing.assert_allclose(got, expected, rtol=1e-15)


def test_exp_rejects_nonzero_scalar():
    with pytest.raises(ValueError):
        exp_trunc(unit(2, 2))


def test_log_examples():
    d, m = 2, 2
    assert not log_trunc(unit(d, m)).coeffs.any()
    e1 = level_one(d, m, [1.0, 0.0])
    np.testing.assert_allclose(log_trunc(exp_trunc(e1)).coeffs, e1.coeffs, atol=1e-15)
    e2 = level_one(d, m, [0.0, 1.0])
    g = mul_trunc(exp_trunc(e1), exp_trunc(e2))
    lg = log_trunc(g)
    np.testing.assert_allclose(
        lg.coeffs, [0.0, 1.0, 1.0, 0.0, 0.5, -0.5, 0.0], atol=1e-15
    )


def test_log_rejects_bad_scalar():
    a = TruncTensor(2, 2, np.zeros(7))
    with pytest.raises(ValueError):
        log_trunc(a)


def test_exp_log_round_trip():
    rng = np.random.default_rng(4)
    for d, m in ((1, 4), (2, 3), (3, 2), (2, 5)):
        for _ in range(10):
            a = rand_scalar_free(rng, d, m, scale=0.6)
            back = log_trunc(exp_trunc(a))
            np.testing.assert_allclose(back.coeffs, a.coeffs, rtol=1e-11, atol=1e-12)
            x = exp_trunc(a)
            again = exp_trunc(log_trunc(x))
            np.testing.assert_allclose(again.coeffs, x.coeffs, rtol=1e-11, atol=1e-12)


def test_left_adjoint_examples():
    d, m = 2, 2
    e1 = level_one(d, m, [1.0, 0.0])
    e2 = level_one(d, m, [0.0, 1.0])
    e12 = tensor_from_words(d, m, {(1, 2): 1.0})
    got = left_adjoint(e1, e12)
    assert got.coeffs.tolist() == [0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 0.0]
    assert not left_adjoint(e2, e12).coeffs.any()
    c = rand_tensor(np.random.default_rng(5), d, m)
    np.testing.assert_array_equal(left_adjoint(unit(d, m), c).coeffs, c.coeffs)


def test_right_adjoint_examples():
    d, m = 2, 2
    e1 = level_one(d, m, [1.0, 0.0])
    e2 = level_one(d, m, [0.0, 1.0])
    e12 = tensor_from_words(d, m, {(1, 2): 1.0})
    got = right_adjoint(e2, e12)
    assert got.coeffs.tolist() == [0.0, 1.0, 0.0, 0.0, 0.0, 0.0, 0.0]
    assert not right_adjoint(e1, e12).coeffs.any()
    c = rand_tensor(np.random.default_rng(6), d, m)
    np.testing.assert_array_equal(right_adjoint(unit(d, m), c).coeffs, c.coeffs)


def test_adjoint_shape_mismatch():
    with pytest.raises(ShapeMismatchError):
        left_adjoint(unit(2, 2), unit(3, 2))
    with pytest.raises(ShapeMismatchError):
        right_adjoint(unit(2, 2), unit(3, 2))


def test_adjoint_duality():
    # <a (x) b, c> == <b, ladj_a(c)> == <a, radj_b(c)>
    rng = np.random.default_rng(7)
    for d in (1, 2, 3):
        for m in (1, 2, 3, 4):
            for _ in range(5):
                a = rand_tensor(rng, d, m)
                b = rand_tensor(rng, d, m)
                c = rand_tensor(rng, d, m)
                ref = inner(mul_trunc(a, b), c)
                scale = max(1.0, abs(ref))
                assert abs(inner(b, left_adjoint(a, c)) - ref) <= 1e-12 * scale
                assert abs(inner(a, right_adjoint(b, c)) - ref) <= 1e-12 * scale


def test_right_adjoint_commutes_with_left_mul():
    # for homogeneous b, radj_b(A (x) c) == A (x) radj_b(c) whenever the
    # degrees fit inside the truncation
    rng = np.random.default_rng(8)
    d, m = 2, 4
    for p in (1, 2):
        for q in range(p, m + 1):
            for _ in range(5):
                b = homogeneous(rng, d, m, p)
                c = homogeneous(rng, d, m, q)
                deg_a = m - q
                a_small = rand_tensor(rng, d, deg_a)
                a = embed(a_small, m) if deg_a < m else a_small
                lhs = right_adjoint(b, mul_trunc(a, c))
                rhs = mul_trunc(a, right_adjoint(b, c))
                np.testing.assert_allclose(
                    lhs.coeffs, rhs.coeffs, rtol=1e-12, atol=1e-12
                )


def homogeneous(rng, d, m, k):
    coeffs = np.zeros(tensor_dim(d, m))
    lo = tensor_dim(d, k - 1) if k else 0
    hi = tensor_dim(d, k)
    coeffs[lo:hi] = rng.standard_normal(hi - lo)
    return TruncTensor(d, m, coeffs)


def test_batched_primitives_match_rows_bitwise():
    rng = np.random.default_rng(60)
    for d, m in ((1, 4), (2, 3), (3, 2)):
        n = tensor_dim(d, m)
        a = rng.standard_normal((2, 3, n))
        b = rng.standard_normal((2, 3, n))
        free = a.copy()
        free[..., 0] = 0.0
        group = a.copy()
        group[..., 0] = 1.0
        prod = _mul(d, m, a, b)
        prod_one = _mul(d, m, a, b[0, 0])
        e = _exp(d, m, free)
        lg = _log(d, m, group)
        for r in np.ndindex(2, 3):
            assert prod[r].tobytes() == _mul(d, m, a[r], b[r]).tobytes()
            assert prod_one[r].tobytes() == _mul(d, m, a[r], b[0, 0]).tobytes()
            assert e[r].tobytes() == _exp(d, m, free[r]).tobytes()
            assert lg[r].tobytes() == _log(d, m, group[r]).tobytes()


def test_running_matches_product_loop():
    rng = np.random.default_rng(63)
    for d, m in ((1, 4), (2, 3), (3, 2)):
        n = tensor_dim(d, m)
        b = rng.standard_normal((5, n)) * 0.5
        f = rng.standard_normal((5, n))
        f[:, 0] = 0.0
        free = b.copy()
        free[:, 0] = 0.0                      # the scalar slot of b is never read
        for start, ff in ((0.0, f), (1.0, f), (1.0, None)):
            got = _running(d, m, b, ff, start=start)
            a = np.zeros(n)
            a[0] = start
            assert got[0].tobytes() == a.tobytes()
            for j in range(5):
                a = a + _mul(d, m, a, free[j]) + (0.0 if ff is None else ff[j])
                scale = max(1.0, float(np.abs(a).max()))
                assert np.abs(got[j + 1] - a).max() <= 1e-13 * scale


def test_running_leading_axes_match_single_calls_bitwise():
    rng = np.random.default_rng(64)
    for d, m in ((1, 3), (2, 3), (3, 2)):
        n = tensor_dim(d, m)
        b = rng.standard_normal((2, 3, 4, n))
        f = rng.standard_normal((2, 3, 4, n))
        f[..., 0] = 0.0
        for start, ff in ((0.0, f), (1.0, None)):
            got = _running(d, m, b, ff, start=start)
            for r in np.ndindex(2, 3):
                alone = _running(d, m, b[r], None if ff is None else ff[r], start=start)
                assert got[r].tobytes() == alone.tobytes()


def adjoint_by_words(a, c, left):
    """The word definition: left, out[v] = sum_u a[u] c[uv]; right,
    out[u] = sum_v a[v] c[uv]; words of a above c's degree drop out."""
    d = c.dim
    out = np.zeros(len(c.coeffs))
    for s in all_words(d, min(a.degree, c.degree)):
        for t in all_words(d, c.degree - len(s)):
            w = word_index(s + t if left else t + s, d)
            out[word_index(t, d)] += a.coeff(s) * c.coeffs[w]
    return out


def test_concat_tables_fill_products_and_adjoints():
    rng = np.random.default_rng(65)
    for d in (1, 2, 3):
        for m in range(5):
            n = tensor_dim(d, m)
            words = all_words(d, m)
            a, b, x = rng.standard_normal((3, n))
            mt = np.zeros((n, n))                 # M_x^T[u, uv] == x[v]
            sx = np.zeros((n, n))                 # S_x[u, v] == x[uv]
            for iu, u in enumerate(words):
                for iv, v in enumerate(words):
                    if len(u) + len(v) <= m:
                        mt[iu, word_index(u + v, d)] = x[iv]
                        sx[iu, iv] = x[word_index(u + v, d)]
            op = np.zeros((2, 2 * n, n))
            _operator(d, m, np.stack([x, b]), op)
            assert op[0, :n].tobytes() == mt.tobytes()
            assert op[0, n:].tobytes() == sx.tobytes()
            for got, want in ((op[0, :n].T @ a, _mul(d, m, a, x)),
                              (_radj(d, m, b, x), sx @ b),
                              (_ladj(d, m, a, x), sx.T @ a)):
                scale = max(1.0, float(np.abs(want).max()))
                assert np.abs(got - want).max() <= 1e-13 * scale
            alone = np.zeros((2 * n, n))
            _operator(d, m, b, alone)
            assert alone.tobytes() == op[1].tobytes()
            _, pre, suf = _concat_tables(d, m)
            assert np.all(np.diff(pre * n + suf) > 0)   # (prefix, suffix) order


def test_adjoints_of_mixed_degrees_match_words():
    rng = np.random.default_rng(66)
    for d in (1, 2, 3):
        for ma in range(5):
            for mc in range(1, 5):
                a = rand_tensor(rng, d, ma)
                c = rand_tensor(rng, d, mc)
                for got, left in ((left_adjoint(a, c), True),
                                  (right_adjoint(a, c), False)):
                    want = adjoint_by_words(a, c, left)
                    assert (got.dim, got.degree) == (d, mc)
                    scale = max(1.0, float(np.abs(want).max()))
                    assert np.abs(got.coeffs - want).max() <= 1e-13 * scale
