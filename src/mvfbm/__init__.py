"""Interacting-particle Euler simulation of mean-field SDEs driven by fBm.

Exact fractional Brownian drivers (Davies-Harte circulant embedding), a
synchronous explicit Euler scheme over the particle ensemble, empirical
measure distances, and a reproducible experiment harness for strong-error,
chaos-trend, and moment studies.
"""

from .errors import ArgumentError
from .fbm import (
    CirculantEmbeddingError,
    CirculantSampler,
    UniformMesh,
    increment_covariance_matrix,
)
from .measure import (
    EmpiricalMeasure,
    coupled_upper_bound,
    wasserstein_1d_exact,
)
from .model import (
    ConstantDiffusion,
    MeasureDiffusion,
    ModelSpec,
    RegimeViolation,
    StateMeasureDiffusion,
    preset_by_name,
    preset_mean_deviation,
    preset_mean_reverting,
    validate,
)
from .reports import (
    ChaosReport,
    ConvergenceReport,
    CovarianceCheckReport,
    MomentReport,
    NonFiniteError,
    SimulateReport,
)
from .simulator import (
    NumericalBlowup,
    SimulationConfig,
    TrajectoryRecord,
    run,
    run_coupled_meshes,
)
from .streams import StreamKey
from .study import (
    chaos_study,
    covariance_check,
    fit_loglog_slope,
    moment_bound_check,
    strong_error_study,
)

__version__ = "0.1.0"
