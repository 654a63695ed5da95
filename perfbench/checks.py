"""Correctness checks on workload outputs.

Each check returns a list of problems, empty when the output passes.  The
checks use only properties every signature kernel has, or values computed
without the coupled Goursat sweep, so they hold across solver changes.
"""

from __future__ import annotations

import math
from typing import Iterable, List, Sequence

import numpy as np

# Relative tolerance on each retraced-pair kernel against the base-path
# signature inner product.  Over 24 pairs the degree-3, every-64 lift was
# off by 5.6e-7 to 2.6e-5 (mean 5.7e-6, standard deviation about the same),
# so the tolerance leaves room for the tail of other seeds and still
# rejects any gross failure.
RETRACED_RTOL = 1e-3
# Relative tolerance on the one-dimensional large-coefficient kernel.
LARGE_RTOL = 1e-3
# Degree-1 Gram entries against the scalar sweep, relative.
ORDER1_RTOL = 1e-12
# Slack on the Gram properties, relative to the largest entry.
GRAM_SLACK = 1e-10


def parse_gram(text: str) -> np.ndarray:
    """Gram matrix from the CLI's CSV output (one row per line)."""
    return np.array([[float(v) for v in line.split(",")]
                     for line in text.splitlines() if line])


def gram_problems(gram: np.ndarray) -> List[str]:
    """Symmetry, positive semi-definiteness, diagonal >= 1, Cauchy-Schwarz."""
    if gram.ndim != 2 or gram.shape[0] != gram.shape[1] or gram.size == 0:
        return [f"Gram matrix has shape {gram.shape}"]
    if not np.all(np.isfinite(gram)):
        return ["Gram matrix has non-finite entries"]
    problems = []
    slack = GRAM_SLACK * float(np.abs(gram).max())
    if np.abs(gram - gram.T).max() > slack:
        problems.append("Gram matrix is not symmetric")
    lowest = float(np.linalg.eigvalsh((gram + gram.T) / 2)[0])
    if lowest < -slack:
        problems.append(f"Gram matrix has eigenvalue {lowest!r}")
    diag = np.diag(gram)
    if np.any(diag < 1.0 - slack):
        problems.append(f"Gram diagonal below 1: {float(diag.min())!r}")
    excess = gram**2 - np.outer(diag, diag)
    if excess.max() > GRAM_SLACK * float(diag.max()) ** 2:
        problems.append("Gram matrix violates Cauchy-Schwarz")
    return problems


def order1_problems(gram: np.ndarray, reference: np.ndarray) -> List[str]:
    """Every entry equals the scalar degree-1 sweep to ORDER1_RTOL."""
    gap = np.abs(gram - reference) / np.abs(reference)
    if gap.max() > ORDER1_RTOL:
        i, j = np.unravel_index(int(gap.argmax()), gap.shape)
        return [f"entry ({i}, {j}) is {gram[i, j]!r}, scalar sweep gives "
                f"{reference[i, j]!r}"]
    return []


def relative_error(value: float, exact: float) -> float:
    return abs(value - exact) / abs(exact)


def kernel_problems(value: float, exact: float, rtol: float) -> List[str]:
    """A kernel value must be finite and within rtol of the exact value;
    when the exact value is at least 1 (a kernel of a path with itself, or
    of paths of equal signature), the value must be at least 1 too."""
    if not math.isfinite(value):
        return [f"kernel value {value!r} is not finite"]
    problems = []
    if exact >= 1.0 and value < 1.0:
        problems.append(f"kernel value {value!r} is below 1")
    if relative_error(value, exact) > rtol:
        problems.append(f"kernel value {value!r} is off the exact {exact!r} "
                        f"by more than {rtol:g} relative")
    return problems


def parse_table(text: str) -> List[dict]:
    """Rows of the convergence CSV table as dicts of numbers."""
    lines = [line for line in text.splitlines() if line]
    if not lines or lines[0] != "degree,factor,mean_error,stderr,pairs":
        raise ValueError("convergence table lacks its header")
    rows = []
    for line in lines[1:]:
        degree, factor, mean, stderr, pairs = line.split(",")
        rows.append({"degree": int(degree), "factor": int(factor),
                     "mean_error": float(mean), "stderr": float(stderr),
                     "pairs": int(pairs)})
    return rows


def table_problems(rows: Sequence[dict], degrees: Iterable[int],
                   factors: Iterable[int], repetitions: int) -> List[str]:
    """Complete (degree, factor) grid in order, finite non-negative errors,
    and the configured number of pairs in every cell."""
    want = [(m, k) for m in sorted(degrees) for k in sorted(factors)]
    got = [(r["degree"], r["factor"]) for r in rows]
    if got != want:
        return [f"table cells {got} differ from {want}"]
    problems = []
    for r in rows:
        cell = (r["degree"], r["factor"])
        if not (math.isfinite(r["mean_error"]) and math.isfinite(r["stderr"])):
            problems.append(f"cell {cell} is not finite")
        elif r["mean_error"] < 0 or r["stderr"] < 0:
            problems.append(f"cell {cell} has a negative error")
        if r["pairs"] != repetitions:
            problems.append(f"cell {cell} has {r['pairs']} pairs, "
                            f"want {repetitions}")
    return problems
