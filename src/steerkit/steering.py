"""Inference-time steering: embedding-ascent and coordinate-guidance methods.

Both methods wrap the same Euler integrator and differ in where the reward
gradient is applied:

* embedopt: per step, ascend the surrogate F(x, c, sigma) = R(xhat(x, c,
  sigma)) in the embedding, c_{t-1} = c_t + alpha * normalize(grad_c F),
  then take the coordinate step using the denoiser re-evaluated at the
  updated embedding. Normalization is per named component by RMS (so each
  component moves exactly alpha in RMS units), or disabled for the raw
  small-step regime.
* dps: keep c fixed and nudge the coordinates along the pulled-back reward
  gradient grad_{x_t} R(xhat) = J_x^T grad R. In sigma2w mode the step
  coefficient is sigma_t^2 (any likelihood weight rides inside the reward
  gradient); this is the DPS approximation p(y | x_t) ~ p(y | xhat), which
  drops Cov[x0 | x_t] and so does not sample the reweighted posterior. In
  l2_matched mode the guidance is rescaled to the length of the denoiser
  update ||xhat - x_t|| and multiplied by alpha. In exact_likelihood mode
  (Gaussian prior model with a Gaussian measurement reward only) the step
  follows the exact likelihood p_w(y | x_t) = N(y; xhat, tau^2/w + k sigma_t^2),
  where k sigma_t^2 = sigma_t^2 J_x is Cov[x0 | x_t] by Tweedie's second-order
  identity; its target is the w-reweighted posterior, as in PiGDM and TMPD.

Zero or near-zero gradients (component RMS or guidance norm below 1e-12) are
skipped with a logged flag rather than normalized into NaN. A trajectory that
ends with a non-finite endpoint or log entry raises NonFiniteStateError.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .models import Embedding, NonFiniteStateError
from .rewards import GaussianMeasurementReward
from .samplers import Af3SamplerParams, TrajectoryRecord, af3_noise_inflate, euler_step
from .schedules import NoiseSchedule, step_fraction

__all__ = [
    "SteeringConfig",
    "SteeringResult",
    "rms_normalize",
    "embedopt_step",
    "dps_step",
    "taylor_predicted_step",
    "run_steered",
]

SKIP_THRESHOLD = 1e-12

_METHODS = ("none", "embedopt", "dps")
_DPS_NORMS = ("sigma2w", "l2_matched", "exact_likelihood")
_EMBED_NORMS = ("rms_per_component", "none")
_SAMPLER_MODES = ("deterministic", "af3")


@dataclass(frozen=True)
class SteeringConfig:
    """Resolved per-run steering settings (one trajectory)."""

    method: str = "none"
    alpha: float = 0.0
    dps_norm_mode: str = "sigma2w"
    embed_norm_mode: str = "rms_per_component"
    sampler_mode: str = "deterministic"
    af3: Af3SamplerParams = field(default_factory=Af3SamplerParams)

    def __post_init__(self):
        if self.method not in _METHODS:
            raise ValueError(f"unknown method {self.method!r}")
        if self.alpha < 0:
            raise ValueError("alpha must be non-negative")
        if self.dps_norm_mode not in _DPS_NORMS:
            raise ValueError(f"unknown dps_norm_mode {self.dps_norm_mode!r}")
        if self.embed_norm_mode not in _EMBED_NORMS:
            raise ValueError(f"unknown embed_norm_mode {self.embed_norm_mode!r}")
        if self.sampler_mode not in _SAMPLER_MODES:
            raise ValueError(f"unknown sampler_mode {self.sampler_mode!r}")

    def to_manifest(self) -> dict:
        return {
            "method": self.method,
            "alpha": self.alpha,
            "dps_norm_mode": self.dps_norm_mode,
            "embed_norm_mode": self.embed_norm_mode,
            "sampler_mode": self.sampler_mode,
            "af3": self.af3.to_manifest(),
        }


@dataclass
class SteeringResult:
    x0: np.ndarray
    c_final: Embedding
    record: TrajectoryRecord


def rms_normalize(grad: Embedding, threshold: float = SKIP_THRESHOLD):
    """Divide each component by its RMS; components below threshold are zeroed.

    Returns (normalized Embedding, list of skipped component names). Every
    surviving component has RMS exactly 1, so a step alpha * normalized moves
    each component by alpha in RMS units independently of the others.
    """
    out, skipped = {}, []
    for name, g in grad.components.items():
        rms = float(np.sqrt(np.mean(g**2)))
        if rms < threshold:
            out[name] = np.zeros_like(g)
            skipped.append(name)
        else:
            out[name] = g / rms
    return Embedding(out), skipped


def _embed_update_direction(grad: Embedding, norm_mode: str):
    if norm_mode == "rms_per_component":
        return rms_normalize(grad)
    # raw-gradient mode: same degeneracy guard, no rescaling
    skipped = [
        name
        for name, g in grad.components.items()
        if float(np.sqrt(np.mean(g**2))) < SKIP_THRESHOLD
    ]
    if not skipped:
        return grad, []
    out = {
        name: (np.zeros_like(g) if name in skipped else g)
        for name, g in grad.components.items()
    }
    return Embedding(out), skipped


def embedopt_step(
    model,
    reward,
    x_t: np.ndarray,
    c_t: Embedding,
    sigma_t: float,
    sigma_prev: float,
    alpha: float,
    norm_mode: str = "rms_per_component",
    eta_scale: float = 1.0,
):
    """One embedding-ascent step followed by the coordinate Euler step.

    The surrogate gradient is pulled back through the denoiser at (x_t, c_t,
    sigma_t); the coordinate step re-evaluates the denoiser at the updated
    embedding and the same sigma_t. Returns (x_prev, c_prev, info) where
    info records the pre-update surrogate value F, the embedding gradient
    grad_c F and its norm, the denoiser output x_hat_step that the
    coordinate step used, and the skipped components.
    """
    x_hat = model.denoise(x_t, c_t, sigma_t)
    F, grad_R = reward.value_and_grad(x_hat)
    g = model.vjp_c(x_t, c_t, sigma_t, grad_R)
    direction, skipped = _embed_update_direction(g, norm_mode)
    c_prev = c_t.add(direction, alpha) if alpha != 0.0 else c_t
    x_hat_step = model.denoise(x_t, c_prev, sigma_t)
    x_prev = euler_step(x_t, x_hat_step, sigma_t, sigma_prev, eta_scale)
    info = {
        "F": F,
        "grad": g,
        "grad_norm": float(np.linalg.norm(g.flat())),
        "x_hat_step": x_hat_step,
        "skipped": skipped,
    }
    return x_prev, c_prev, info


def dps_step(
    model,
    reward,
    x_t: np.ndarray,
    c: Embedding,
    sigma_t: float,
    sigma_prev: float,
    alpha: float,
    norm_mode: str = "sigma2w",
    eta_scale: float = 1.0,
):
    """One coordinate-guidance step; the embedding is never touched.

    x_prev = x_t + eta_t (xhat - x_t + alpha_t * gbar), with alpha_t * gbar =
    sigma_t^2 * g in sigma2w mode, alpha * ||xhat - x_t|| * g/||g|| in
    l2_matched mode, and sigma_t^2 * tau^2 / (tau^2 + w v_t) * g in
    exact_likelihood mode, g = J_x^T grad R(xhat) and v_t = k sigma_t^2 the
    model's posterior variance. The last factor turns sigma_t^2 times the
    DPS likelihood score into sigma_t^2 times grad_{x_t} log N(y; xhat,
    tau^2/w + v_t).
    """
    x_hat = model.denoise(x_t, c, sigma_t)
    F, grad_R = reward.value_and_grad(x_hat)
    g = model.vjp_x(x_t, c, sigma_t, grad_R)
    gnorm = float(np.linalg.norm(g))
    skipped = False
    if norm_mode == "sigma2w":
        guidance = sigma_t**2 * g
    elif norm_mode == "l2_matched":
        if gnorm < SKIP_THRESHOLD:
            guidance = np.zeros_like(g)
            skipped = True
        else:
            guidance = alpha * float(np.linalg.norm(x_hat - x_t)) * g / gnorm
    elif norm_mode == "exact_likelihood":
        if not (
            isinstance(reward, GaussianMeasurementReward)
            and hasattr(model, "posterior_variance")
        ):
            raise ValueError(
                "exact_likelihood guidance needs a model with a closed-form "
                "posterior variance and a GaussianMeasurementReward"
            )
        tau2 = reward.tau2
        scale = sigma_t**2 * tau2 / (tau2 + reward.w * model.posterior_variance(sigma_t))
        guidance = scale * g
    else:
        raise ValueError(f"unknown dps_norm_mode {norm_mode!r}")
    eta = step_fraction(sigma_t, sigma_prev) * eta_scale
    x_prev = x_t + eta * (x_hat - x_t + guidance)
    info = {"F": F, "grad_norm": gnorm, "skipped": skipped}
    return x_prev, info


def taylor_predicted_step(
    model,
    reward,
    x_t: np.ndarray,
    c_t: Embedding,
    sigma_t: float,
    sigma_prev: float,
    alpha: float,
    norm_mode: str = "rms_per_component",
) -> np.ndarray:
    """First-order prediction of the embedding-ascent coordinate step.

    Linearizing the denoiser in c around c_t turns the re-evaluated step into

        x_t + eta_t [ xhat - x_t + J_c (c_{t-1} - c_t) ],

    where c_{t-1} - c_t is the exact update embedopt_step applies (alpha
    times the normalized gradient, i.e. the effective post-normalization rate
    times J_c^T grad R). Exact for denoisers affine in c; O(alpha^2) gap
    otherwise.
    """
    x_hat = model.denoise(x_t, c_t, sigma_t)
    _, grad_R = reward.value_and_grad(x_hat)
    g = model.vjp_c(x_t, c_t, sigma_t, grad_R)
    direction, _ = _embed_update_direction(g, norm_mode)
    delta = Embedding(
        {n: alpha * v for n, v in direction.components.items()}
    )
    correction = model.jvp_c(x_t, c_t, sigma_t, delta)
    eta = step_fraction(sigma_t, sigma_prev)
    return x_t + eta * (x_hat - x_t + correction)


def run_steered(
    model,
    reward,
    c_init: Embedding,
    schedule: NoiseSchedule,
    config: SteeringConfig,
    rng: np.random.Generator,
    on_update: Optional[Callable] = None,
) -> SteeringResult:
    """Integrate one steered trajectory from x_T ~ N(0, sigma_T^2 I).

    The one step loop of the package. Dispatches on config.method ("none"
    runs the unguided sampler, logging the surrogate when a reward is given).
    The af3 sampler mode wraps every method identically: gate on
    sigma_{t-1}, inflate, then step with the scaled fraction. For embedopt,
    on_update(x_t, c_t, sigma_t, c_prev, info) is called after every
    embedding update with the point where it was taken and embedopt_step's
    info; audits use it to evaluate the surrogate there. Raises
    NonFiniteStateError, after the last step, when x_0 or any logged value
    is NaN or inf.
    """
    sig = schedule.sigma_values
    T = schedule.num_steps
    x = sig[-1] * rng.standard_normal(model.D)
    c = c_init.copy()
    record = TrajectoryRecord()
    af3 = config.af3
    for t in range(T, 0, -1):
        sigma_t, sigma_prev = float(sig[t]), float(sig[t - 1])
        eta_scale = 1.0
        sigma_hat = sigma_t
        if config.sampler_mode == "af3":
            if sigma_prev > af3.gamma_min:
                x, sigma_hat = af3_noise_inflate(x, sigma_t, af3, rng)
            eta_scale = af3.eta_scale
        if config.method == "embedopt":
            drift = c.add(c_init, -1.0).norm()  # ||c_t - c_T|| before this update
            x_t, c_t = x, c
            x, c, info = embedopt_step(
                model, reward, x, c, sigma_hat, sigma_prev,
                config.alpha, config.embed_norm_mode, eta_scale,
            )
            if on_update is not None:
                on_update(x_t, c_t, sigma_hat, c, info)
            for name in info["skipped"]:
                record.bump_skip(f"embed:{name}")
            record.log(
                t, sigma_hat, F=info["F"], grad_norm=info["grad_norm"],
                embed_drift=drift,
            )
        elif config.method == "dps":
            x, info = dps_step(
                model, reward, x, c, sigma_hat, sigma_prev,
                config.alpha, config.dps_norm_mode, eta_scale,
            )
            if info["skipped"]:
                record.bump_skip("dps:guidance")
            record.log(t, sigma_hat, F=info["F"], grad_norm=info["grad_norm"])
        else:
            x_hat = model.denoise(x, c, sigma_hat)
            F = None if reward is None else reward.value(x_hat)
            record.log(t, sigma_hat, F=F)
            x = euler_step(x, x_hat, sigma_hat, sigma_prev, eta_scale)
    _check_finite(x, record)
    return SteeringResult(x0=x, c_final=c, record=record)


def _check_finite(x0: np.ndarray, record: TrajectoryRecord) -> None:
    """One end-of-run check, so no non-finite value reaches an artifact."""
    logged = [f for f in record.F if f is not None]
    if not (
        np.isfinite(x0).all()
        and np.isfinite(logged).all()
        and np.isfinite(record.grad_norms).all()
        and np.isfinite(record.embed_drifts).all()
    ):
        raise NonFiniteStateError("trajectory produced a non-finite endpoint or log entry")
