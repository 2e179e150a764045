"""steerkit: inference-time steering of analytic conditional denoisers.

Closed-form Gaussian and Gaussian-mixture denoisers with exact derivative
products, embedding-space reward ascent and coordinate-space likelihood
guidance on top of a probability-flow Euler sampler, task rewards (Gaussian
measurements, clipped distance constraints, density-map agreement), an
oracle-backed verification suite, and a config-driven experiment harness.
"""

from .models import (
    Embedding,
    GaussianPriorModel,
    MixturePriorModel,
    NonFiniteStateError,
    make_gaussian_model,
    make_mixture_model,
    score_from_denoiser,
)
from .rewards import (
    DegenerateMapError,
    DistanceConstraintReward,
    GaussianMeasurementReward,
    MapGrid,
    MapMSEReward,
    map_correlation,
    render_map,
    render_map_raw,
    select_top_k_constraints,
)
from .samplers import (
    Af3SamplerParams,
    TrajectoryRecord,
    af3_noise_inflate,
    euler_step,
)
from .schedules import (
    NoiseSchedule,
    build_linear_schedule,
    step_fraction,
)
from .steering import (
    SteeringConfig,
    SteeringResult,
    dps_step,
    embedopt_step,
    rms_normalize,
    run_steered,
    taylor_predicted_step,
)
from .tasks import SyntheticTask, ToyTask, build_synthetic_task, build_toy_task
from .verification import (
    AscentAudit,
    CheckResult,
    MonotonicityReport,
    OracleFailureError,
    SampleSummary,
    audit_embedding_ascent,
    check_monotone_surrogate,
    conjugate_posterior,
    fd_gradient,
    rel_error,
    run_verification_suite,
    summarize_samples,
    taylor_gap_scaling,
)

__version__ = "0.1.0"

__all__ = [
    "Embedding",
    "GaussianPriorModel",
    "MixturePriorModel",
    "NonFiniteStateError",
    "make_gaussian_model",
    "make_mixture_model",
    "score_from_denoiser",
    "DegenerateMapError",
    "DistanceConstraintReward",
    "GaussianMeasurementReward",
    "MapGrid",
    "MapMSEReward",
    "map_correlation",
    "render_map",
    "render_map_raw",
    "select_top_k_constraints",
    "Af3SamplerParams",
    "TrajectoryRecord",
    "af3_noise_inflate",
    "euler_step",
    "NoiseSchedule",
    "build_linear_schedule",
    "step_fraction",
    "SteeringConfig",
    "SteeringResult",
    "dps_step",
    "embedopt_step",
    "rms_normalize",
    "run_steered",
    "taylor_predicted_step",
    "SyntheticTask",
    "ToyTask",
    "build_synthetic_task",
    "build_toy_task",
    "AscentAudit",
    "CheckResult",
    "MonotonicityReport",
    "OracleFailureError",
    "SampleSummary",
    "audit_embedding_ascent",
    "check_monotone_surrogate",
    "conjugate_posterior",
    "fd_gradient",
    "rel_error",
    "run_verification_suite",
    "summarize_samples",
    "taylor_gap_scaling",
    "__version__",
]
