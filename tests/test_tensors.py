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

from pabsig.tensors import (
    _concat_tables, _exp, _ladj, _log, _mul, _offsets, _operator, _operator_index,
    _partials, _products, _radj,
)

from helpers import horner_exp, horner_log, level_one, rand_scalar_free, rand_tensor


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
    with pytest.raises(ValueError, match="alphabet size must be >= 1, got 0"):
        tensor_dim(0, 2)
    with pytest.raises(ValueError, match="degree must be >= 0, got -1"):
        tensor_dim(2, -1)


def test_word_index_examples():
    assert word_index((), 2) == 0
    assert word_index((1,), 2) == 1
    assert word_index((2,), 2) == 2
    assert word_index((1, 1), 2) == 3
    assert word_index((1, 2), 2) == 4
    assert word_index((2, 1), 2) == 5
    assert word_index((2, 2), 2) == 6


def test_word_index_bijection():
    for d, m in ((1, 3), (2, 3), (3, 3), (1, 5), (2, 5), (3, 5)):
        words = all_words(d, m)
        assert len(words) == tensor_dim(d, m)
        for i, w in enumerate(words):
            assert word_index(w, d) == i
            assert index_to_word(i, d) == w


def test_word_index_rejects_bad_letters():
    with pytest.raises(ValueError):
        word_index((0,), 2)
    with pytest.raises(ValueError):
        word_index((3,), 2)
    with pytest.raises(ValueError, match="negative index -1"):
        index_to_word(-1, 2)
    with pytest.raises(ValueError, match="alphabet size must be >= 1, got 0"):
        index_to_word(3, 0)


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
    for k in (-1, 3):
        with pytest.raises(ValueError, match=f"level {k} outside 0..2"):
            a.level(k)
    with pytest.raises(ValueError, match="word longer than degree 2"):
        a.coeff((1, 2, 1))


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
    # degree 0 holds only the scalar slot, which a logarithm zeroes
    for d in (1, 2, 3):
        zero = log_trunc(unit(d, 0))
        assert (zero.dim, zero.degree, zero.coeffs.tolist()) == (d, 0, [0.0])


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


def test_exp_and_log_match_the_full_horner_products_bitwise():
    # _exp and _log form each Horner factor only up to the levels that can
    # still reach the result and skip the products with the zero scalar
    # slot; on finite input every bit is that of the full products, signed
    # zeros and subnormal products included.  The rows mix scales, with
    # exact +0.0 and -0.0 entries and a -0.0 scalar slot of exp's input.
    rng = np.random.default_rng(71)
    cases = [(d, m) for d in (1, 2, 3) for m in range(7)] + [(2, 12)]
    for d, m in cases:
        n = tensor_dim(d, m)
        for lead in ((), (4,), (2, 3)):
            rows = rng.standard_normal(lead + (n,)) * rng.choice(
                [1e-160, 0.01, 0.3, 3.0], lead + (1,))
            zeros = rng.random(rows.shape) < 0.3
            rows[zeros] = np.where(rng.random(rows.shape) < 0.5, 0.0, -0.0)[zeros]
            free, group = rows.copy(), rows.copy()
            free[..., 0] = -0.0
            group[..., 0] = 1.0
            assert _exp(d, m, free).tobytes() == horner_exp(d, m, free).tobytes(), \
                (d, m, lead)
            assert _log(d, m, group).tobytes() == horner_log(d, m, group).tobytes(), \
                (d, m, lead)
            assert _exp(d, m, free).shape == _log(d, m, group).shape == rows.shape


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


def test_running_leading_axes_match_single_calls_bitwise():
    # the running product of _partials, batched over leading axes, equals
    # one call per row bit for bit
    rng = np.random.default_rng(64)
    for d, m in ((1, 3), (2, 3), (3, 2)):
        n = tensor_dim(d, m)
        incs = rng.standard_normal((2, 3, 4, n))
        incs[..., 0] = 0.0
        got = _partials(d, m, incs)
        for r in np.ndindex(2, 3):
            assert got[r].tobytes() == _partials(d, m, incs[r]).tobytes()


def test_products_give_the_inner_terms_of_the_top_level():
    # the coupled sweep adds sum_{1 <= l < K} psi_l (x) y_{K-l} to level K of
    # psi as one matmul of psi's levels 1..K-1 by _products; with both scalar
    # slots 0, _mul's level K is that sum plus the vanishing l = 0 and l = K
    # terms, added in ascending l
    rng = np.random.default_rng(69)
    for d in (1, 2, 3):
        for K in range(2, 6):
            offs = _offsets(d, K)
            a, y = rng.standard_normal((2, 2, 3, offs[-1]))
            a[..., 0] = y[..., 0] = 0.0
            want = _mul(d, K, a, y)[..., offs[K]:]
            p = _products(d, K, y)
            assert p.shape == (2, 3, offs[K] - 1, d**K)
            got = (a[..., None, 1:offs[K]] @ p)[..., 0, :]
            if K == 2:
                assert got.tobytes() == want.tobytes(), d
            assert np.all(np.abs(got - want) <= 1e-14 * np.maximum(1.0, np.abs(want))), (d, K)


def test_exp_and_partials_prefix_is_the_lower_degree_result_bitwise():
    # level n of exp(L) and of the partial signatures reads no level above
    # n of L, and the terms a higher degree adds to the lower levels are
    # products with the exact 0 of the scalar slot, added first to the 0
    # they start from; so the coupled sweep builds its boundary rows at the
    # degree of its state.  Rows hold exact +0.0 and -0.0 entries.
    rng = np.random.default_rng(68)
    for d in (1, 2, 3):
        for m in range(2, 6):
            n = tensor_dim(d, m)
            rows = rng.standard_normal((2, 4, n)) * rng.choice([0.01, 0.3, 3.0], (2, 4, 1))
            zeros = rng.random(rows.shape) < 0.4
            rows[zeros] = np.where(rng.random(rows.shape) < 0.5, 0.0, -0.0)[zeros]
            rows[..., 0] = 0.0
            rows[1, :, 0] = -0.0
            assert np.signbit(rows[zeros]).any() and not np.signbit(rows[zeros]).all()
            e, g = _exp(d, m, rows), _partials(d, m, rows)
            for low in range(1, m):
                k = tensor_dim(d, low)
                assert _exp(d, low, rows[..., :k]).tobytes() == e[..., :k].tobytes(), (d, m, low)
                assert _partials(d, low, rows[..., :k]).tobytes() == g[..., :k].tobytes(), \
                    (d, m, low)


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
            _operator(d, m, op)(np.stack([x, b]))
            assert op[0, :n].tobytes() == mt.tobytes()
            assert op[0, n:].tobytes() == sx.tobytes()
            for got, want in ((op[0, :n].T @ a, _mul(d, m, a, x)),
                              (_radj(d, m, b, x), sx @ b),
                              (_ladj(d, m, a, x), sx.T @ a)):
                scale = max(1.0, float(np.abs(want).max()))
                assert np.abs(got - want).max() <= 1e-13 * scale
            alone = np.zeros((2 * n, n))
            _operator(d, m, alone)(b)
            assert alone.tobytes() == op[1].tobytes()
            _, pre, suf = _concat_tables(d, m)
            assert np.all(np.diff(pre * n + suf) > 0)   # (prefix, suffix) order


def test_operator_rows_below_k_match_the_full_operator_bitwise():
    # written into a (2k, N) out with k = N(d, m-1), as the coupled sweep
    # does, _operator gives rows [:k] and [N:N+k] of the full V
    rng = np.random.default_rng(67)
    for d in (1, 2, 3):
        for m in range(1, 6):
            n, k = tensor_dim(d, m), tensor_dim(d, m - 1)
            x = rng.standard_normal((3, n))
            full = np.zeros((3, 2 * n, n))
            part = np.zeros((3, 2 * k, n))
            _operator(d, m, full)(x)
            _operator(d, m, part)(x)
            want = np.concatenate([full[:, :k], full[:, n:n + k]], axis=1)
            assert part.tobytes() == want.tobytes(), (d, m)
            # the sweep makes one fill per call and refills out row after
            # row: every fill overwrites all the positions the last one wrote
            fill = _operator(d, m, part)
            fill(rng.standard_normal((3, n)))
            fill(x)
            assert part.tobytes() == want.tobytes(), (d, m)


def test_operator_index_fills_the_table_positions():
    # the one flat scatter of _operator writes exactly the split positions,
    # and the values, of a fill straight from the split tables
    rng = np.random.default_rng(70)
    for d in (1, 2, 3):
        for m in range(1, 5):
            n = tensor_dim(d, m)
            words, prefixes, suffixes = _concat_tables(d, m)
            for k in (tensor_dim(d, m - 1), n):
                x = rng.standard_normal((2, n))
                stop = np.searchsorted(prefixes, k)
                w, p, s = words[:stop], prefixes[:stop], suffixes[:stop]
                want = np.zeros((2, 2 * k, n))
                want[:, p, w] = x[:, s]
                want[:, k + p, s] = x[:, w]
                marks = np.zeros((2 * k, n), dtype=bool)
                marks[p, w] = marks[k + p, s] = True
                dest, _ = _operator_index(d, m, k)
                assert len(np.unique(dest)) == len(dest)
                assert np.array_equal(np.sort(dest), np.flatnonzero(marks)), (d, m, k)
                got = np.zeros((2, 2 * k, n))
                _operator(d, m, got)(x)
                assert got.tobytes() == want.tobytes(), (d, m, k)


def test_operator_rejects_out_that_is_not_c_contiguous():
    # a flat scatter through a reshape of such an out would fill a copy
    d, m = 2, 3
    n = tensor_dim(d, m)
    for out in (np.zeros((2 * n, 2 * n))[:, :n], np.zeros((n, 2 * n)).T,
                np.zeros((3, 2 * n, n))[::2]):
        before = out.copy()
        with pytest.raises(ValueError, match="C-contiguous"):
            _operator(d, m, out)
        assert out.tobytes() == before.tobytes()


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
