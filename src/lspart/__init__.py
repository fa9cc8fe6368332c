"""Partitioning-based least-squares regression.

Regression function and derivative estimation on tensor-product partitions
(B-splines, piecewise polynomials, Haar), with three bias-corrected
estimator variants, heteroskedasticity-robust pointwise intervals, uniform
confidence bands, and data-driven partition-size selection.
"""

from .basis import BasisFamily, BasisSpec, SparseRows, alpha_list
from .biascorrect import LeadingErrorModel, leading_bias_many, projected_bias_term_many
from .dgp import dgp_dim, dgp_eval, dgp_sample
from .errors import (
    ConfigError,
    DataError,
    DegenerateData,
    InvalidGrid,
    InvalidKappa,
    InvalidModel,
    LeverageOverflow,
    LspartError,
    NegativeVarianceEstimate,
    NonPositiveVariance,
    NumericalError,
    OutOfSupport,
    ParseError,
    RankDeficient,
    UnsupportedDerivative,
)
from .fit import EstimatorKind, FitResult, fit_estimator
from .harness import (
    RunConfig,
    metrics_csv,
    read_data,
    run_fit,
    run_simulation,
)
from .inference import (
    BandResult,
    HCKind,
    PointwiseResult,
    VarianceEstimate,
    band_bootstrap,
    band_plugin,
    make_grid,
    normal_quantile,
    pointwise_ci,
    sigma_hat,
)
from .partition import KnotRule, TensorPartition, make_knots
from .tuning import (
    TuningReport,
    dpi_select,
    eta_constant,
    imse_components,
    rot_select,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
