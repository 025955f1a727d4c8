"""Local polynomial conditional distribution estimation with certainty bands."""

from .errors import (
    CondBandsError,
    EmptyInput,
    InsufficientLocalData,
    InvalidBandwidth,
    NoCrossing,
    ParseError,
    QuadratureFailure,
    YRangeViolation,
    ZeroJointDensity,
)
from .kernels import KERNELS, Kernel, get_kernel
from .estimator import (
    CdfCurve,
    EstimatorConfig,
    LocalWeights,
    Sample,
    cdf_curve,
    cdf_estimate,
    local_moments,
    local_weights,
    quantile_estimate,
    reference_bandwidth,
    regression_estimate,
)
from .bands import (
    BandTable,
    DensityPair,
    band_halfwidth,
    cdf_band,
    certainty_halfwidth,
    density_plugin,
    quantile_band,
    regression_band,
)
from .simulation import (
    SimModel,
    draw,
    draw_conditional,
    marginal_density,
    oracle_density_provider,
    sim_model,
    true_cdf,
    true_cdf_grid,
    true_densities,
    true_quantile,
    true_regression,
)
from .experiments import (
    ExperimentReport,
    bochner_check,
    centering_curve,
    centering_oracle,
    coverage_experiment,
    default_x_grid,
    em_constant_experiment,
    smoothed_moment,
    smoothed_response,
    sup_experiment,
)

__version__ = "0.1.0"
