"""Signature kernels of multivariate time series.

Paths are lifted to piecewise log-linear descriptions of a chosen degree;
the kernel of two such paths solves a coupled hyperbolic PDE on the product
of their partitions, discretized here with a predictor-corrector cell
update, evaluated in an expanded form that is equal in exact arithmetic.
The package also carries a direct truncated-signature oracle, a
Brownian-motion convergence harness, and a small CLI (``pabsig --help``).
"""

from .experiment import (
    ErrorRecord,
    ExperimentConfig,
    convergence_experiment,
    error_estimate,
    gram_matrix,
    reference_value,
    simulate_bm,
    write_pair_errors_csv,
    write_records_csv,
)
from .goursat import (
    GoursatState,
    KernelSolution,
    init_boundaries,
    kernel,
    solve,
    solve_order1,
    solve_pairs,
    step,
)
from .lift import (
    PiecewiseAbelianPath,
    TimeSeries,
    build_pab,
    chen_signature,
    log_signature,
    pab_partial_signatures,
    segment_signature,
    thin_partition,
)
from .oracle import direct_truncated_kernel, linear_kernel_closed_form, tail_bound
from .tensors import (
    NumericError,
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

__version__ = "0.1.0"
