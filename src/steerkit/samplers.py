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
generator. The per-step trajectory log records noise level, surrogate reward
(when a reward is attached), gradient norms and embedding drift, plus the
trajectory's function evaluations by kind.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .schedules import step_fraction

__all__ = [
    "NFE_KINDS",
    "Af3SamplerParams",
    "TrajectoryRecord",
    "euler_step",
    "af3_noise_inflate",
    "standard_normal_rows",
]


@dataclass(frozen=True)
class Af3SamplerParams:
    """Noise-amplification sampler knobs.

    gamma: amplification factor applied when the gate is open.
    gamma_min: gate floor; amplification applies only when sigma_{t-1} > gamma_min.
    rho_noise: scale on the injected noise standard deviation.
    eta_scale: multiplier on the Euler step fraction.
    """

    gamma: float = 0.8
    gamma_min: float = 1.0
    rho_noise: float = 1.003
    eta_scale: float = 1.5

    def __post_init__(self):
        if self.gamma < 0 or self.rho_noise <= 0 or self.eta_scale <= 0:
            raise ValueError("invalid sampler parameters")

    def to_manifest(self) -> dict:
        return {
            "gamma": self.gamma,
            "gamma_min": self.gamma_min,
            "rho_noise": self.rho_noise,
            "eta_scale": self.eta_scale,
        }


NFE_KINDS = ("denoise", "vjp_x", "vjp_c", "reward_value_and_grad", "reward_value")


@dataclass
class TrajectoryRecord:
    """Per-step log of one trajectory, ordered by decreasing t (sampling order).

    nfe counts the trajectory's function evaluations by kind (NFE_KINDS):
    denoiser calls, vjp products and reward calls, one per row and call.
    """

    steps: list = field(default_factory=list)
    sigmas: list = field(default_factory=list)
    F: list = field(default_factory=list)
    grad_norms: list = field(default_factory=list)
    embed_drifts: list = field(default_factory=list)
    skip_counts: dict = field(default_factory=dict)
    nfe: dict = field(default_factory=lambda: dict.fromkeys(NFE_KINDS, 0))

    @property
    def F_values(self) -> np.ndarray:
        if any(f is None for f in self.F):
            raise ValueError("trajectory has missing surrogate-reward entries")
        return np.asarray(self.F, dtype=np.float64)

    def csv_rows(self):
        """Rows (step, sigma, F, grad_norm, embed_drift); F empty when unrecorded."""
        for i in range(len(self.steps)):
            f = self.F[i]
            yield (self.steps[i], self.sigmas[i], "" if f is None else f,
                   self.grad_norms[i], self.embed_drifts[i])


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


def standard_normal_rows(rng, shape) -> np.ndarray:
    """Standard normals of `shape` from one generator, or for a (B, D) shape
    from a sequence of B generators, row b drawn by generator b."""
    if isinstance(rng, np.random.Generator):
        return rng.standard_normal(shape)
    if len(shape) != 2 or len(rng) != shape[0]:
        raise ValueError("need one generator per row of a (B, D) shape")
    return np.stack([g.standard_normal(shape[1]) for g in rng])


def af3_noise_inflate(
    x_t: np.ndarray,
    sigma_t: float,
    params: Af3SamplerParams,
    rng,
):
    """Inject noise and inflate the working level: sigma -> (gamma + 1) sigma.

    The injected std rho * sqrt((gamma+1)^2 - 1) * sigma_t tops the marginal
    variance up to approximately the inflated level when rho is near 1. The
    caller applies the gate (sigma_{t-1} > gamma_min); gamma = 0 injects
    nothing and leaves the rng untouched. For a (B, D) batch, rng holds one
    generator per row.
    """
    g = params.gamma
    if g == 0.0:
        return x_t, sigma_t
    noise_std = params.rho_noise * np.sqrt((g + 1.0) ** 2 - 1.0) * sigma_t
    x = x_t + noise_std * standard_normal_rows(rng, np.shape(x_t))
    return x, (g + 1.0) * sigma_t

