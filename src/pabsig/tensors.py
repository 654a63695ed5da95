"""Dense arithmetic in the truncated tensor algebra T^m(R^d).

An element of T^m(R^d) is a formal series over words in the alphabet
{1, ..., d} of length at most m.  Coefficients are stored in a single flat
vector ordered by word length and then lexicographically within each length,
with the empty word at index 0.  Level k therefore occupies the contiguous
block starting at 1 + d + ... + d^(k-1), and the flattened outer product of
a level-p block with a level-q block lands exactly on the level-(p+q) block
in concatenation order.  Everything in this module relies on that layout.

All operations are pure: inputs are never mutated and results are freshly
allocated.  Coefficients are 64-bit floats throughout.  The raw-array
primitives (_mul, _exp, _log, and the running product _running) broadcast
over leading axes, so a stack of elements is one array of shape (..., N);
every row goes through the same elementwise operations as the 1-D call, so
batching never changes a bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Optional, Sequence, Tuple

import numpy as np

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
    """A computed quantity, such as a lifted signature, is not finite."""


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


def _check_pair(a: TruncTensor, b: TruncTensor) -> None:
    if a.dim != b.dim or a.degree != b.degree:
        raise ShapeMismatchError(
            f"operands disagree: (d={a.dim}, m={a.degree}) vs "
            f"(d={b.dim}, m={b.degree})"
        )


def unit(d: int, m: int) -> TruncTensor:
    """The multiplicative identity 1 = (1, 0, 0, ...)."""
    c = np.zeros(tensor_dim(d, m))
    c[0] = 1.0
    return TruncTensor(d, m, c)


def linear_combine(alpha: float, a: TruncTensor, beta: float, b: TruncTensor) -> TruncTensor:
    """Coefficient-wise alpha*a + beta*b."""
    _check_pair(a, b)
    return TruncTensor(a.dim, a.degree, alpha * a.coeffs + beta * b.coeffs)


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
    return TruncTensor(a.dim, a.degree, _mul(a.dim, a.degree, a.coeffs, b.coeffs))


def inner(a: TruncTensor, b: TruncTensor) -> float:
    """Inner product: Euclidean dot of the coefficient vectors."""
    _check_pair(a, b)
    return float(a.coeffs @ b.coeffs)


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


def _exp(d: int, m: int, a: np.ndarray) -> np.ndarray:
    """Truncated exponential of scalar-free rows, by Horner nesting:
    exp(a) = 1 + a/1 (1 + a/2 (1 + ... (1 + a/m)))."""
    one = np.zeros(_offsets(d, m)[-1])
    one[0] = 1.0
    e = np.broadcast_to(one, a.shape).copy()
    for k in range(m, 0, -1):
        e = one + _mul(d, m, a, e) / k
    return e


def exp_trunc(a: TruncTensor) -> TruncTensor:
    """Truncated exponential sum of a^(x)k / k!; requires zero scalar slot."""
    if a.coeffs[0] != 0.0:
        raise ValueError(f"exp_trunc needs scalar slot 0, got {a.coeffs[0]}")
    return TruncTensor(a.dim, a.degree, _exp(a.dim, a.degree, a.coeffs))


def _log(d: int, m: int, g: np.ndarray) -> np.ndarray:
    """Truncated logarithm of rows with unit scalar slot, by Horner
    nesting of log(1+x) = x (1 - x (1/2 - x (1/3 - ...)))."""
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


def log_trunc(a: TruncTensor) -> TruncTensor:
    """Truncated logarithm; requires unit scalar slot, returns scalar-free."""
    if a.coeffs[0] != 1.0:
        raise ValueError(f"log_trunc needs scalar slot 1, got {a.coeffs[0]}")
    return TruncTensor(a.dim, a.degree, _log(a.dim, a.degree, a.coeffs))


def _running(d: int, m: int, b: np.ndarray, f: Optional[np.ndarray] = None,
             start: float = 1.0) -> np.ndarray:
    """Rows a_0..a_N of the running product a_{j+1} = a_j (x) (1 + b_j) + f_j.

    b and f hold one row per step, shape (..., N, n).  Their scalar slots
    are never read, so b may be a group element such as exp(L_j) as well;
    a_0 = start * 1, and every row keeps that scalar slot.  Level k of
    a_{j+1} reads only levels below k of a_j, so each level is one prefix
    sum over the rows.  Within a level the terms are summed as _mul sums
    them: f_j first (or 0), then a_j[l] (x) b_j[k-l] for ascending l.  With
    start = 0 the l = 0 term, which is zero, is not added at all, so even
    signed zeros keep their bits.
    """
    offs = _offsets(d, m)
    lead, rows = b.shape[:-2], b.shape[-2]
    out = np.zeros(lead + (rows + 1, offs[-1]))
    out[..., 0] = start
    for k in range(1, m + 1):
        acc = np.zeros(lead + (rows, d**k)) if f is None else f[..., offs[k]:offs[k + 1]]
        for l in range(0 if start else 1, k):
            low = out[..., :-1, offs[l]:offs[l + 1], None]
            acc = acc + (low * b[..., None, offs[k - l]:offs[k - l + 1]]).reshape(acc.shape)
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


def _operator(d: int, m: int, x: np.ndarray, out: np.ndarray) -> None:
    """Write V = [M_x^T ; S_x] of rows x, shape (..., N), into out, shape (..., 2N, N).

    For z = [phi | psi], z @ V == phi (x) x + L*_psi(x) and V @ y ==
    [R*_x(y) | R*_y(x)].  Only split positions are written; out must be 0 elsewhere.
    """
    words, prefixes, suffixes = _concat_tables(d, m)
    n = x.shape[-1]
    out[..., prefixes, words] = x[..., suffixes]
    out[..., n + prefixes, suffixes] = x[..., words]


def _ladj(d: int, m: int, a: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Raw adjoint of left multiplication in T^m(R^d): out[v] = sum_u a[u] * c[uv]."""
    words, prefixes, suffixes = _concat_tables(d, m)
    return np.bincount(suffixes, a[prefixes] * c[words], len(c))


def left_adjoint(a: TruncTensor, c: TruncTensor) -> TruncTensor:
    """Prefix removal dual to left multiplication.

    The result satisfies <c, a (x) b> == <left_adjoint(a, c), b> for every b
    within the truncation of c; its coefficient of e_v is sum_u a[u]*c[uv].
    """
    if a.dim != c.dim:
        raise ShapeMismatchError(f"alphabet mismatch: {a.dim} vs {c.dim}")
    a = project(a, c.degree) if a.degree >= c.degree else embed(a, c.degree)
    return TruncTensor(c.dim, c.degree, _ladj(c.dim, c.degree, a.coeffs, c.coeffs))


def _radj(d: int, m: int, b: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Raw adjoint of right multiplication in T^m(R^d): out[u] = sum_v b[v] * c[uv]."""
    words, prefixes, suffixes = _concat_tables(d, m)
    return np.bincount(prefixes, b[suffixes] * c[words], len(c))


def right_adjoint(b: TruncTensor, c: TruncTensor) -> TruncTensor:
    """Suffix removal dual to right multiplication.

    The result satisfies <c, a (x) b> == <right_adjoint(b, c), a> within the
    truncation of c; its coefficient of e_u is sum_v b[v]*c[uv].
    """
    if b.dim != c.dim:
        raise ShapeMismatchError(f"alphabet mismatch: {b.dim} vs {c.dim}")
    b = project(b, c.degree) if b.degree >= c.degree else embed(b, c.degree)
    return TruncTensor(c.dim, c.degree, _radj(c.dim, c.degree, b.coeffs, c.coeffs))


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
    if d < 1:
        raise ValueError(f"alphabet size must be >= 1, got {d}")
    start, block, length = 0, 1, 0
    while index >= start + block:
        start += block
        block *= d
        length += 1
    local = index - start
    letters = []
    for _ in range(length):
        letters.append(local % d + 1)
        local //= d
    return tuple(reversed(letters))


def all_words(d: int, m: int) -> Tuple[Tuple[int, ...], ...]:
    """Every word of length <= m in flat index order."""
    return tuple(index_to_word(i, d) for i in range(tensor_dim(d, m)))
