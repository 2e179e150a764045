"""Sampler primitives: the Euler update, noise inflation and the step log.

Two sampler modes share the same Euler coordinate update x_{t-1} = x_t +
eta_t * (xhat - x_t):

* deterministic: straight probability-flow integration from x_T ~ N(0,
  sigma_T^2 I) down the schedule.
* af3: before each denoise, when sigma_{t-1} exceeds a floor, extra noise is
  injected and the working noise level is inflated by (gamma + 1); the step
  fraction is then scaled by eta_scale. With gamma = 0 and eta_scale = 1 the
  mode reduces exactly (bit-for-bit) to the deterministic sampler.

The one integration loop over a schedule is steering.run_steered; its
method "none" is the unguided sampler. It integrates a (B, D) batch with one
generator per row, so every noise draw here comes from the row's own
generator. Its step log is one (B, T) float64 array each for the surrogate
reward (when a reward is attached), gradient norm and embedding drift; each
row's TrajectoryRecord holds row views of them, the noise levels and the
trajectory's function evaluations by kind.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields

import numpy as np

from .models import _require_real
from .schedules import step_fraction

__all__ = [
    "Af3SamplerParams",
    "TrajectoryRecord",
    "euler_step",
    "af3_noise_inflate",
]


@dataclass(frozen=True)
class Af3SamplerParams:
    """Noise-amplification sampler knobs.

    gamma: amplification factor applied when the gate is open.
    gamma_min: gate floor; amplification applies only when sigma_{t-1} > gamma_min.
    rho_noise: scale on the injected noise standard deviation.
    eta_scale: multiplier on the Euler step fraction.

    Every field is a finite number. A manifest records them as SteeringConfig's
    `af3` entry.
    """

    gamma: float = 0.8
    gamma_min: float = 1.0
    rho_noise: float = 1.003
    eta_scale: float = 1.5

    def __post_init__(self):
        for f in fields(self):
            _require_real(f.name, getattr(self, f.name))
        if self.gamma < 0 or self.rho_noise <= 0 or self.eta_scale <= 0:
            raise ValueError("invalid sampler parameters")


NFE_KINDS = ("denoise", "vjp_x", "vjp_c", "reward_value_and_grad", "reward_value")


@dataclass
class TrajectoryRecord:
    """Per-step log of one trajectory, ordered by decreasing t (sampling order).

    steps counts T down to 1, one per entry of the (T,) sigmas. F, grad_norms
    and embed_drifts are (T,) float64 arrays, row views of run_steered's
    (B, T) logs; F is None when no reward was logged, and a batch total
    (SteeringResult.record) has no per-step values. The single_run experiment
    writes the arrays as the columns of its trajectory CSV. nfe counts function
    evaluations by kind (NFE_KINDS), one per row and call.
    """

    sigmas: np.ndarray
    F: np.ndarray | None = None
    grad_norms: np.ndarray | None = None
    embed_drifts: np.ndarray | None = None
    skip_counts: dict = field(default_factory=dict)
    nfe: dict = field(default_factory=lambda: dict.fromkeys(NFE_KINDS, 0))

    @property
    def steps(self) -> range:
        return range(len(self.sigmas), 0, -1)


def euler_step(
    x_t: np.ndarray,
    x_hat: np.ndarray,
    sigma_t: float,
    sigma_prev: float,
    eta_scale: float = 1.0,
) -> np.ndarray:
    """x_{t-1} = x_t + eta_t (xhat - x_t), the probability-flow Euler update."""
    eta = step_fraction(sigma_t, sigma_prev) * eta_scale
    return x_t + eta * (x_hat - x_t)


def standard_normal_rows(rngs, shape) -> np.ndarray:
    """Standard normals of a (B, D) shape from a sequence of B generators,
    row b drawn by generator b."""
    if len(shape) != 2 or len(rngs) != shape[0]:
        raise ValueError("need one generator per row of a (B, D) shape")
    if len(rngs) == 1:  # the one draw as a row, without np.stack's copy
        return rngs[0].standard_normal(shape[1])[None]
    return np.stack([g.standard_normal(shape[1]) for g in rngs])


def af3_noise_inflate(
    x_t: np.ndarray,
    sigma_t: float,
    params: Af3SamplerParams,
    rngs,
):
    """Inject noise and inflate the working level: sigma -> (gamma + 1) sigma.

    The injected std rho * sqrt((gamma+1)^2 - 1) * sigma_t tops the marginal
    variance up to approximately the inflated level when rho is near 1. The
    caller applies the gate (sigma_{t-1} > gamma_min); gamma = 0 injects
    nothing, returns x_t itself and leaves the generators untouched. x_t is a
    (B, D) batch, which is only read (a read-only broadcast will do), and rngs
    holds one generator per row (see standard_normal_rows). The result is a
    new array, formed in place over the normals: the bits of
    x_t + noise_std * z, since IEEE * and + commute.
    """
    g = params.gamma
    if g == 0.0:
        return x_t, sigma_t
    noise_std = params.rho_noise * np.sqrt((g + 1.0) ** 2 - 1.0) * sigma_t
    x = standard_normal_rows(rngs, np.shape(x_t))
    x *= noise_std
    x += x_t
    return x, (g + 1.0) * sigma_t

