"""Reference values computed without the PDE solver.

The direct kernel here is an explicit truncated signature inner product;
it shares the tensor arithmetic with the rest of the package but none of
the solver code, which makes it a usable cross-check.  The closed form and
the factorial tail bound calibrate how far a truncated comparison can be
trusted.
"""

from __future__ import annotations

import math

from .lift import TimeSeries, chen_signature
from .tensors import _check_pair, inner

__all__ = ["direct_truncated_kernel", "linear_kernel_closed_form", "tail_bound"]


def direct_truncated_kernel(ts_x: TimeSeries, ts_y: TimeSeries, n: int) -> float:
    """Inner product of the two level-n signatures over the full windows;
    series of different dimensions raise ShapeMismatchError before either
    signature is computed."""
    if n < 1:
        raise ValueError(f"truncation level must be >= 1, got {n}")
    _check_pair(ts_x, ts_y, n)
    return inner(chen_signature(ts_x, None, n), chen_signature(ts_y, None, n))


def linear_kernel_closed_form(c: float, n: int) -> float:
    """Kernel of two linear segments with increment inner product c,
    truncated at level n: sum of c^k / (k!)^2 for k = 0..n."""
    total = 1.0
    term = 1.0
    for k in range(1, n + 1):
        term *= c / (k * k)
        total += term
    return total


def tail_bound(c: float, n: int) -> float:
    """Bound 2 e^c c^(n+1) / (n+1)! on the kernel truncation error for
    paths whose 1-variations are at most c."""
    if c < 0:
        raise ValueError(f"variation bound must be >= 0, got {c}")
    term = 1.0
    for k in range(1, n + 2):
        term *= c / k
    return 2.0 * math.exp(c) * term
