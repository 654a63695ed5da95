"""Dense arithmetic in the truncated tensor algebra T^m(R^d).

An element of T^m(R^d) is a formal series over words in the alphabet
{1, ..., d} of length at most m.  Coefficients are stored in a single flat
vector ordered by word length and then lexicographically within each length,
with the empty word at index 0.  Level k therefore occupies the contiguous
block starting at 1 + d + ... + d^(k-1), and the flattened outer product of
a level-p block with a level-q block lands exactly on the level-(p+q) block
in concatenation order.  Everything in this module relies on that layout.

All operations are pure: inputs are never mutated and results are freshly
allocated, except that the fill function of the private _operator writes
into the out array it was made for.  Coefficients are 64-bit floats
throughout.  The public operations compute with numpy's overflow warnings
off and raise NumericError on a result that is not finite (_finite).  The
raw-array primitives (_mul, _exp, _log and the partial signatures
_partials) broadcast over leading axes, so a stack of elements is one
array of shape (..., N); every row goes through the same elementwise
operations as the 1-D call, so batching never changes a bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
import itertools
from typing import Iterable, Optional, Sequence, Tuple

import numpy as np

# Working set, in float64 values, that one batched call may hold: the
# pair-batched sweeps of goursat.solve_pairs and the chunks of step
# positions of lift._chen are sized to stay within it.
_BATCH_VALUES = 1 << 19

__all__ = [
    "ShapeMismatchError",
    "NumericError",
    "TruncTensor",
    "tensor_dim",
    "unit",
    "linear_combine",
    "mul_trunc",
    "inner",
    "project",
    "embed",
    "exp_trunc",
    "log_trunc",
    "left_adjoint",
    "right_adjoint",
    "word_index",
    "index_to_word",
    "all_words",
]


class ShapeMismatchError(ValueError):
    """Operands disagree in alphabet size or truncation degree."""


class NumericError(ValueError):
    """A computed quantity, such as a lifted signature, is not finite, or a
    computed kernel breaks an identity that the exact kernel satisfies."""


# Message of the NumericError that an overflowing public operation raises.
_OVERFLOW = "result is not finite: the tensor operation overflowed"


def _finite(values, message: str):
    """values, computed with overflow warnings off; raises
    NumericError(message) unless every entry is finite."""
    if not np.isfinite(values).all():
        raise NumericError(message)
    return values


def _computed(op, d: int, m: int, *args) -> TruncTensor:
    """The TruncTensor of op(d, m, *args), computed with overflow warnings
    off; raises NumericError where a coefficient is not finite."""
    with np.errstate(over="ignore", invalid="ignore"):
        return TruncTensor(d, m, _finite(op(d, m, *args), _OVERFLOW))


@lru_cache(maxsize=None)
def _offsets(d: int, m: int) -> Tuple[int, ...]:
    """Start index of each level block, plus the total length at the end."""
    offs = [0]
    for k in range(m + 1):
        offs.append(offs[-1] + d**k)
    return tuple(offs)


def tensor_dim(d: int, m: int) -> int:
    """Number of coefficients of an element of T^m(R^d), i.e. sum of d^k."""
    if d < 1:
        raise ValueError(f"alphabet size must be >= 1, got {d}")
    if m < 0:
        raise ValueError(f"degree must be >= 0, got {m}")
    return _offsets(d, m)[-1]


@dataclass(frozen=True, eq=False)
class TruncTensor:
    """Element of T^m(R^d) as a flat word-indexed coefficient vector.

    Treat instances as immutable values; share them freely.
    """

    dim: int
    degree: int
    coeffs: np.ndarray

    def __post_init__(self):
        n = tensor_dim(self.dim, self.degree)
        coeffs = np.asarray(self.coeffs, dtype=np.float64)
        if coeffs.shape != (n,):
            raise ValueError(
                f"expected {n} coefficients for d={self.dim}, m={self.degree}, "
                f"got shape {coeffs.shape}"
            )
        if not np.all(np.isfinite(coeffs)):
            raise ValueError("non-finite coefficient")
        object.__setattr__(self, "coeffs", coeffs)

    def level(self, k: int) -> np.ndarray:
        """View of the level-k coefficient block (length d^k)."""
        offs = _offsets(self.dim, self.degree)
        if not 0 <= k <= self.degree:
            raise ValueError(f"level {k} outside 0..{self.degree}")
        return self.coeffs[offs[k]:offs[k + 1]]

    def coeff(self, word: Sequence[int]) -> float:
        """Coefficient of a single word, given as a sequence of letters."""
        if len(word) > self.degree:
            raise ValueError(f"word longer than degree {self.degree}")
        return float(self.coeffs[word_index(word, self.dim)])

    def __repr__(self):
        return (
            f"TruncTensor(dim={self.dim}, degree={self.degree}, "
            f"coeffs={np.array2string(self.coeffs, threshold=8)})"
        )


def _check_pair(a: TruncTensor, b: TruncTensor, degree: Optional[int] = None) -> None:
    """Raise ShapeMismatchError unless a and b, tensors or lifted paths,
    agree in alphabet size d and degree m.  Given a degree, only the dim of
    a and b is read, and both count at that degree: time series are
    checked so before their degree-m lifts."""
    ma = a.degree if degree is None else degree
    mb = b.degree if degree is None else degree
    if a.dim != b.dim or ma != mb:
        raise ShapeMismatchError(
            f"operands disagree: (d={a.dim}, m={ma}) vs (d={b.dim}, m={mb})"
        )


def unit(d: int, m: int) -> TruncTensor:
    """The multiplicative identity 1 = (1, 0, 0, ...)."""
    c = np.zeros(tensor_dim(d, m))
    c[0] = 1.0
    return TruncTensor(d, m, c)


def linear_combine(alpha: float, a: TruncTensor, beta: float, b: TruncTensor) -> TruncTensor:
    """Coefficient-wise alpha*a + beta*b."""
    _check_pair(a, b)
    return _computed(lambda d, m: alpha * a.coeffs + beta * b.coeffs, a.dim, a.degree)


def _mul(d: int, m: int, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Truncated product on raw coefficient arrays, broadcast over leading axes.

    The coefficient of a word w is the sum of a[u]*b[v] over all splits
    w = uv; level blocks are combined by flattened outer products, which
    match concatenation order under the layout of this module.
    """
    offs = _offsets(d, m)
    lead = np.broadcast_shapes(a.shape[:-1], b.shape[:-1])
    c = np.zeros(lead + (offs[-1],))
    for k in range(m + 1):
        ak = a[..., offs[k]:offs[k + 1], None]
        for i in range(m + 1 - k):
            bi = b[..., None, offs[i]:offs[i + 1]]
            c[..., offs[k + i]:offs[k + i + 1]] += (ak * bi).reshape(lead + (-1,))
    return c


def mul_trunc(a: TruncTensor, b: TruncTensor) -> TruncTensor:
    """Truncated tensor product; terms beyond level m are dropped."""
    _check_pair(a, b)
    return _computed(_mul, a.dim, a.degree, a.coeffs, b.coeffs)


@np.errstate(over="ignore", invalid="ignore")
def inner(a: TruncTensor, b: TruncTensor) -> float:
    """Inner product: Euclidean dot of the coefficient vectors."""
    _check_pair(a, b)
    return float(_finite(a.coeffs @ b.coeffs, _OVERFLOW))


def project(a: TruncTensor, k: int) -> TruncTensor:
    """Truncate to degree k, keeping levels 0..k."""
    if not 0 <= k <= a.degree:
        raise ValueError(f"projection degree {k} outside 0..{a.degree}")
    n = tensor_dim(a.dim, k)
    return TruncTensor(a.dim, k, a.coeffs[:n].copy())


def embed(a: TruncTensor, m: int) -> TruncTensor:
    """Zero-pad to a higher degree m; levels above a.degree are zero."""
    if m < a.degree:
        raise ValueError(f"cannot embed degree {a.degree} into lower degree {m}")
    c = np.zeros(tensor_dim(a.dim, m))
    c[:len(a.coeffs)] = a.coeffs
    return TruncTensor(a.dim, m, c)


def _level(a, f, l: int) -> np.ndarray:
    """Level l >= 1 of a (x) f for a scalar-free a, up to the sign of a 0.

    a and f are lists of level blocks, f[0] a float; only f[0..l-1] is
    read.  The terms a_j (x) f_{l-j} are summed as _mul sums them, in
    ascending j, but from j = 1: the j = 0 term is a product with the
    exact 0 of a's scalar slot, and on finite f it adds +-0 to the +0 that
    _mul's sum starts from.  So the sum differs from _mul's level l at
    most where both are 0, by the sign.  A factor f[0] = 1 is exact and
    not multiplied.
    """
    s = None
    for j in range(1, l + 1):
        if j < l:
            t = (a[j][..., :, None] * f[l - j][..., None, :]).reshape(a[l].shape)
        else:
            t = a[l] if f[0] == 1.0 else a[l] * f[0]
        if s is None:
            s = t
        else:
            s += t          # s is a fresh product: the first term is j = 1 < l
    return s


def _exp(d: int, m: int, a: np.ndarray) -> np.ndarray:
    """Truncated exponential of scalar-free rows, by Horner nesting:
    exp(a) = 1 + a/1 (1 + a/2 (1 + ... (1 + a/m))).

    Level l of a (x) e reads only levels below l of e.  So the factor
    1 + a (x) e / k of the step of divisor k, which reaches the result
    through k - 1 more products, is formed only up to level m - k + 1:
    level 1 at the first step (k = m), all m levels at the last (k = 1).
    Its scalar slot is exactly 1 and is kept as a float.  Each kept level
    is _level(a, e, l) / k, the terms in _mul's order, and the division
    by 1 of the last step is exact and skipped.  A sign of 0 reaches no
    other bit through products and sums, so only the result's zeros can
    differ from the full Horner product's; the one add of 0.0 at the end
    turns them into the +0 that the full product gives, whose sums start
    from +0.  So on finite input every bit is the full product's.
    """
    offs = _offsets(d, m)
    blocks = [None] + [a[..., offs[l]:offs[l + 1]] for l in range(1, m + 1)]
    e = [1.0]
    for k in range(m, 1, -1):
        e = [1.0] + [_level(blocks, e, l) / k for l in range(1, m - k + 2)]
    out = np.concatenate([np.ones(a.shape[:-1] + (1,))]
                         + [_level(blocks, e, l) for l in range(1, m + 1)], axis=-1)
    out += 0.0
    return out


def exp_trunc(a: TruncTensor) -> TruncTensor:
    """Truncated exponential sum of a^(x)k / k!; requires zero scalar slot."""
    if a.coeffs[0] != 0.0:
        raise ValueError(f"exp_trunc needs scalar slot 0, got {a.coeffs[0]}")
    return _computed(_exp, a.dim, a.degree, a.coeffs)


def _log(d: int, m: int, g: np.ndarray) -> np.ndarray:
    """Truncated logarithm of rows with unit scalar slot, by Horner
    nesting of log(1+x) = x (1 - x (1/2 - x (1/3 - ...))).

    With x = g - 1 scalar-free, level l of x (x) t reads only levels below
    l of t.  So the factor (-1)^(k-1)/k + x (x) t of the step of
    coefficient (-1)^(k-1)/k, which reaches the result through k more
    products, is formed only up to level m - k: level 0 alone at the first
    step (k = m), levels up to m - 1 at the last (k = 1), and then all m
    levels of the result x (x) t.  Its scalar slot is exactly that
    coefficient and is kept as a float.  Each kept level is
    _level(x, t, l), the terms in _mul's order.  A sign of 0 reaches no
    other bit through products and sums, so only the result's zeros can
    differ from the full Horner product's; the one add of 0.0 at the end
    turns them into the +0 that the full product gives, whose sums start
    from +0.  So on finite input every bit is the full product's.
    """
    if m == 0:
        return np.zeros(g.shape)
    offs = _offsets(d, m)
    x = [None] + [g[..., offs[l]:offs[l + 1]] for l in range(1, m + 1)]
    t = [(-1.0) ** (m - 1) / m]
    for k in range(m - 1, 0, -1):
        t = [(-1.0) ** (k - 1) / k] + [_level(x, t, l) for l in range(1, m - k + 1)]
    out = np.concatenate([np.zeros(g.shape[:-1] + (1,))]
                         + [_level(x, t, l) for l in range(1, m + 1)], axis=-1)
    out += 0.0
    return out


def log_trunc(a: TruncTensor) -> TruncTensor:
    """Truncated logarithm; requires unit scalar slot, returns scalar-free."""
    if a.coeffs[0] != 1.0:
        raise ValueError(f"log_trunc needs scalar slot 1, got {a.coeffs[0]}")
    return _computed(_log, a.dim, a.degree, a.coeffs)


def _partials(d: int, m: int, incs: np.ndarray) -> np.ndarray:
    """Rows i = 0..N of the partial signatures G_i = exp(L_0) (x) ... (x)
    exp(L_{i-1}) of scalar-free rows L_j, minus 1, broadcast over leading
    axes: incs has shape (..., N, n) and the result (..., N+1, n).

    With e_j = exp(L_j), G_{j+1} - 1 = (G_j - 1) (x) e_j + (e_j - 1) from
    G_0 - 1 = 0.  Level k of G_{j+1} - 1 reads only levels below k of
    G_j - 1, so each level is one prefix sum over the rows.  Within a level
    the terms are summed as _mul sums them: e_j first, then
    (G_j - 1)[l] (x) e_j[k-l] for ascending l >= 1; the l = 0 term, which
    is zero, is never added, so even signed zeros keep their bits.  The
    scalar slot of e_j is never read, and every row has scalar slot 0.
    """
    offs = _offsets(d, m)
    e = _exp(d, m, incs)
    lead, rows = e.shape[:-2], e.shape[-2]
    out = np.zeros(lead + (rows + 1, offs[-1]))
    for k in range(1, m + 1):
        acc = e[..., offs[k]:offs[k + 1]]
        for l in range(1, k):
            low = out[..., :-1, offs[l]:offs[l + 1], None]
            acc = acc + (low * e[..., None, offs[k - l]:offs[k - l + 1]]).reshape(acc.shape)
        np.cumsum(acc, axis=-2, out=out[..., 1:, offs[k]:offs[k + 1]])
    return out


@lru_cache(maxsize=None)
def _concat_tables(d: int, m: int):
    """Index arrays (words, prefixes, suffixes) of every split w = uv in T^m(R^d).

    Entry t says that the word of flat index words[t] is the concatenation
    of the words prefixes[t] and suffixes[t]; entries run over (u, v) in
    flat index order.  _ladj and _radj sum the adjoints over them in that
    order, L*_a(c)[v] = sum_u a[u] c[uv] and R*_b(c)[u] = sum_v b[v] c[uv].
    _operator places them in matrices: M_b[words, prefixes] = b[suffixes]
    gives M_b @ a == a (x) b, and S_x[prefixes, suffixes] = x[words] gives
    S_x[u, v] == x[uv], so S_x @ b == R*_b(x) and S_x.T @ a == L*_a(x).
    """
    offs = np.array(_offsets(d, m))
    flat = np.arange(offs[-1])
    level = np.repeat(np.arange(m + 1), np.diff(offs))     # level of each flat index
    sizes = [d**p * offs[m + 1 - p] for p in range(m + 1)]
    tables = tuple(np.empty(sum(sizes), dtype=np.intp) for _ in range(3))
    words, prefixes, suffixes = tables
    stop = 0
    for p, size in enumerate(sizes):
        # prefixes u of level p, each followed by every suffix v of level s <= m - p
        start, stop = stop, stop + size
        u, v = flat[:d**p], flat[:offs[m + 1 - p]]
        s = level[v]
        words[start:stop] = (u[:, None] * d**s + (offs[p + s] - offs[s] + v)).ravel()
        prefixes[start:stop] = np.repeat(offs[p] + u, len(v))
        suffixes[start:stop] = np.tile(v, len(u))
    for arr in tables:
        arr.setflags(write=False)
    return tables


@lru_cache(maxsize=None)
def _operator_index(d: int, m: int, k: int):
    """Flat positions in a (2k, N) matrix V = [M_x^T ; S_x] of its split
    entries, and the coefficients of x they hold, for the first k prefixes.

    The split tables run in prefix order, so the splits of the first k
    prefixes are a leading slice of them: position u N + uv of the M_x^T
    block takes x[v] and position (k + u) N + v of the S_x block x[uv].
    """
    words, prefixes, suffixes = _concat_tables(d, m)
    n = _offsets(d, m)[-1]
    stop = np.searchsorted(prefixes, k)
    words, prefixes, suffixes = words[:stop], prefixes[:stop], suffixes[:stop]
    dest = np.concatenate([prefixes * n + words, (k + prefixes) * n + suffixes])
    src = np.concatenate([suffixes, words])
    for arr in (dest, src):
        arr.setflags(write=False)
    return dest, src


def _operator(d: int, m: int, out: np.ndarray):
    """Return fill(x), which writes V = [M_x^T ; S_x] of rows x, shape
    (..., N), into out, shape (..., 2k, N).

    Only the rows of the first k <= N prefixes are written, rows u < k of
    M_x^T and of S_x.  For z = [phi | psi] with k coefficients each,
    z @ V == phi (x) x + L*_psi(x), and V @ y holds the first k
    coefficients of R*_x(y) and of R*_y(x).  Only split positions are
    written, by one scatter through the flat positions of _operator_index;
    out must be 0 elsewhere, and C-contiguous, since a reshape of any other
    out would be a copy.  The check, the index lookup and the flat view of
    out are made here, once, so a caller that refills one out row after
    row pays only the gather and the scatter per fill.
    """
    if not out.flags.c_contiguous:
        raise ValueError("out must be C-contiguous")
    dest, src = _operator_index(d, m, out.shape[-2] // 2)
    flat = out.reshape(out.shape[:-2] + (-1,))

    def fill(x: np.ndarray) -> None:
        flat[..., dest] = x[..., src]
    return fill


def _products(d: int, m: int, y: np.ndarray) -> np.ndarray:
    """Matrices P of rows y, shape (..., N(d, m-1) - 1, d^m), P[w, ws] = y[s].

    Row w - 1 is the word w of level 1..m-1 and column ws - N(d, m-1) the
    word ws of level m, so for a row a of levels 1..m-1 (a without its
    scalar slot, cut to N(d, m-1) coefficients), a @ P is the level-m
    block of the sum of a_l (x) y_{m-l} over 1 <= l < m: the level-m part
    of a (x) y without its l = 0 and l = m terms.  Filled from the split
    tables of degree m.
    """
    words, prefixes, suffixes = _concat_tables(d, m)
    offs = _offsets(d, m)
    keep = (words >= offs[m]) & (prefixes > 0) & (suffixes > 0)
    rows, cols = offs[m] - 1, d**m
    out = np.zeros(y.shape[:-1] + (rows * cols,))
    out[..., (prefixes[keep] - 1) * cols + words[keep] - offs[m]] = y[..., suffixes[keep]]
    return out.reshape(y.shape[:-1] + (rows, cols))


def _matched(a: TruncTensor, c: TruncTensor) -> np.ndarray:
    """Coefficients of a at the degree of c, truncated or zero-padded;
    raises ShapeMismatchError unless a and c share the alphabet."""
    if a.dim != c.dim:
        raise ShapeMismatchError(f"alphabet mismatch: {a.dim} vs {c.dim}")
    return (project(a, c.degree) if a.degree >= c.degree else embed(a, c.degree)).coeffs


def _ladj(d: int, m: int, a: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Raw adjoint of left multiplication in T^m(R^d): out[v] = sum_u a[u] * c[uv]."""
    words, prefixes, suffixes = _concat_tables(d, m)
    return np.bincount(suffixes, a[prefixes] * c[words], len(c))


def left_adjoint(a: TruncTensor, c: TruncTensor) -> TruncTensor:
    """Prefix removal dual to left multiplication.

    The result satisfies <c, a (x) b> == <left_adjoint(a, c), b> for every b
    within the truncation of c; its coefficient of e_v is sum_u a[u]*c[uv].
    """
    return _computed(_ladj, c.dim, c.degree, _matched(a, c), c.coeffs)


def _radj(d: int, m: int, b: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Raw adjoint of right multiplication in T^m(R^d): out[u] = sum_v b[v] * c[uv]."""
    words, prefixes, suffixes = _concat_tables(d, m)
    return np.bincount(prefixes, b[suffixes] * c[words], len(c))


def right_adjoint(b: TruncTensor, c: TruncTensor) -> TruncTensor:
    """Suffix removal dual to right multiplication.

    The result satisfies <c, a (x) b> == <right_adjoint(b, c), a> within the
    truncation of c; its coefficient of e_u is sum_v b[v]*c[uv].
    """
    return _computed(_radj, c.dim, c.degree, _matched(b, c), c.coeffs)


def word_index(word: Iterable[int], d: int) -> int:
    """Flat index of a word: block offset of its length plus its base-d rank."""
    letters = tuple(word)
    idx = 0
    for letter in letters:
        if not 1 <= letter <= d:
            raise ValueError(f"letter {letter} outside 1..{d}")
        idx = idx * d + (letter - 1)
    return _offsets(d, len(letters))[len(letters)] + idx


def index_to_word(index: int, d: int) -> Tuple[int, ...]:
    """Inverse of word_index; recovers the letter sequence."""
    if index < 0:
        raise ValueError(f"negative index {index}")
    length = 0
    while tensor_dim(d, length) <= index:
        length += 1
    local = index - _offsets(d, length)[length]
    letters = []
    for _ in range(length):
        local, letter = divmod(local, d)
        letters.append(letter + 1)
    return tuple(reversed(letters))


def all_words(d: int, m: int) -> Tuple[Tuple[int, ...], ...]:
    """Every word of length <= m in flat index order."""
    tensor_dim(d, m)   # raises on a bad alphabet size or degree
    return tuple(word for length in range(m + 1)
                 for word in itertools.product(range(1, d + 1), repeat=length))
