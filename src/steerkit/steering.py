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

run_steered integrates a (B, D) batch, one generator, embedding row and
alpha per trajectory; one generator is a batch of one. The steps take the
batch whole and share the model's intermediates (`model.parts`) between a
denoise and its pullback at the same (x, c, sigma). Every reduction is per
row (np.vecdot for the norms that were scalar np.linalg.norm), so each row
is bit-identical to the trajectory run alone.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from .models import Embedding, NonFiniteStateError
from .rewards import GaussianMeasurementReward
from .samplers import (
    NFE_KINDS,
    Af3SamplerParams,
    TrajectoryRecord,
    af3_noise_inflate,
    euler_step,
    standard_normal_rows,
)
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
    """Endpoints, final embeddings and step logs of one run_steered call.

    A batch has x0 of shape (B, D), a B-row c_final and one TrajectoryRecord
    per row in records; a run from a single generator has x0 of shape (D,),
    a single embedding and one record.
    """

    x0: np.ndarray
    c_final: Embedding
    records: list

    @property
    def record(self) -> TrajectoryRecord:
        """The log of a one-row run. For a batch, the batch's totals: the
        steps and sigmas every row shares, and skip and NFE counts summed over
        rows; per-step values are per row, in records."""
        if len(self.records) == 1:
            return self.records[0]
        total = TrajectoryRecord(
            steps=list(self.records[0].steps), sigmas=list(self.records[0].sigmas)
        )
        for rec in self.records:
            for name, n in rec.skip_counts.items():
                total.skip_counts[name] = total.skip_counts.get(name, 0) + n
            for kind, n in rec.nfe.items():
                total.nfe[kind] += n
        return total

    def row(self, b: int) -> "SteeringResult":
        """Row b of a batch as a one-trajectory result."""
        return SteeringResult(self.x0[b], self.c_final.row(b), [self.records[b]])


def _normalized(grad: Embedding, rescale: bool, threshold: float = SKIP_THRESHOLD):
    """Zero each component whose RMS is below threshold, and divide the others
    by their RMS when rescale is set. Every row of a batch is its own vector.
    Returns (direction, skipped): the skipped component names, or for a batch
    a (B, n_components) mask."""
    parts, skipped = [], []
    for g in grad.components.values():
        rms = np.sqrt(np.mean(g**2, axis=-1))
        small = rms < threshold
        kept = g / np.where(small, 1.0, rms)[..., None] if rescale else g
        parts.append(np.where(small[..., None], 0.0, kept))
        skipped.append(small)
    direction = grad.from_flat(np.concatenate(parts, axis=-1))
    if grad.batch is not None:
        return direction, np.stack(skipped, axis=-1)
    return direction, [name for name, s in zip(grad.names, skipped) if s]


def rms_normalize(grad: Embedding, threshold: float = SKIP_THRESHOLD):
    """Divide each component by its RMS; components below threshold are zeroed.

    Returns (normalized Embedding, skipped), skipped being the list of
    skipped component names, or for a batch a (B, n_components) bool mask.
    Every surviving component has RMS exactly 1, so a step alpha * normalized
    moves each component by alpha in RMS units independently of the others.
    """
    return _normalized(grad, True, threshold)


def _embed_update_direction(grad: Embedding, norm_mode: str):
    # raw-gradient mode: same degeneracy guard, no rescaling
    return _normalized(grad, norm_mode == "rms_per_component")


def _ascend(c: Embedding, direction: Embedding, alpha) -> Embedding:
    """c + alpha * direction, alpha one value or one per row; a row whose
    alpha is 0 keeps c exactly."""
    alpha = np.asarray(alpha, dtype=np.float64)
    if not alpha.any():
        return c
    moved = c.add(direction, alpha)
    if alpha.all():
        return moved
    return moved.from_flat(np.where((alpha == 0.0)[:, None], c.flat(), moved.flat()))


def embedopt_step(
    model,
    reward,
    x_t: np.ndarray,
    c_t: Embedding,
    sigma_t: float,
    sigma_prev: float,
    alpha,
    norm_mode: str = "rms_per_component",
    eta_scale: float = 1.0,
):
    """One embedding-ascent step followed by the coordinate Euler step.

    The surrogate gradient is pulled back through the denoiser at (x_t, c_t,
    sigma_t), sharing the model's intermediates with that denoise; the
    coordinate step re-evaluates the denoiser at the updated embedding and
    the same sigma_t. x_t may be a (B, D) batch with alpha one value per row.
    Returns (x_prev, c_prev, info) where info records the pre-update
    surrogate value F, the embedding gradient grad_c F and its norm, the
    denoiser output x_hat_step that the coordinate step used, and the skipped
    components (see rms_normalize).
    """
    parts = model.parts(x_t, c_t, sigma_t)
    x_hat = model.denoise(x_t, c_t, sigma_t, parts)
    F, grad_R = reward.value_and_grad(x_hat)
    g = model.vjp_c(x_t, c_t, sigma_t, grad_R, parts)
    direction, skipped = _embed_update_direction(g, norm_mode)
    c_prev = _ascend(c_t, direction, alpha)
    x_hat_step = model.denoise(x_t, c_prev, sigma_t)
    x_prev = euler_step(x_t, x_hat_step, sigma_t, sigma_prev, eta_scale)
    info = {
        "F": F,
        "grad": g,
        "grad_norm": g.norm(),
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
    alpha,
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
    tau^2/w + v_t). x_t may be a (B, D) batch with alpha one value per row;
    info["skipped"] is then one flag per row.
    """
    parts = model.parts(x_t, c, sigma_t)
    x_hat = model.denoise(x_t, c, sigma_t, parts)
    F, grad_R = reward.value_and_grad(x_hat)
    g = model.vjp_x(x_t, c, sigma_t, grad_R, parts)
    gnorm = np.sqrt(np.vecdot(g, g))
    skipped = np.zeros(gnorm.shape, dtype=bool)
    if norm_mode == "sigma2w":
        guidance = sigma_t**2 * g
    elif norm_mode == "l2_matched":
        skipped = gnorm < SKIP_THRESHOLD
        d = x_hat - x_t
        step = np.asarray(alpha * np.sqrt(np.vecdot(d, d)))
        guidance = np.where(
            skipped[..., None], 0.0,
            step[..., None] * g / np.where(skipped, 1.0, gnorm)[..., None],
        )
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
    if gnorm.ndim == 0:
        gnorm, skipped = float(gnorm), bool(skipped)
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
    parts = model.parts(x_t, c_t, sigma_t)
    x_hat = model.denoise(x_t, c_t, sigma_t, parts)
    _, grad_R = reward.value_and_grad(x_hat)
    g = model.vjp_c(x_t, c_t, sigma_t, grad_R, parts)
    direction, _ = _embed_update_direction(g, norm_mode)
    delta = direction.from_flat(alpha * direction.flat())
    correction = model.jvp_c(x_t, c_t, sigma_t, delta, parts)
    eta = step_fraction(sigma_t, sigma_prev)
    return x_t + eta * (x_hat - x_t + correction)


# function evaluations per row and step, by method (TrajectoryRecord.nfe)
_STEP_NFE = {
    "embedopt": {"denoise": 2, "vjp_c": 1, "reward_value_and_grad": 1},
    "dps": {"denoise": 1, "vjp_x": 1, "reward_value_and_grad": 1},
    "none": {"denoise": 1, "reward_value": 1},
}


def run_steered(
    model,
    reward,
    c_init: Embedding,
    schedule: NoiseSchedule,
    config: SteeringConfig,
    rng,
    on_update: Optional[Callable] = None,
    alphas: Optional[Sequence[float]] = None,
) -> SteeringResult:
    """Integrate a batch of steered trajectories from x_T ~ N(0, sigma_T^2 I).

    The one step loop of the package. rng holds one np.random.Generator per
    trajectory: B generators integrate a (B, D) batch, row b drawing x_T and
    every af3 noise draw from rng[b]. A single generator is a batch of one
    whose result is returned unbatched. c_init is one embedding for every
    row, or one row per trajectory; alphas gives each row its step size
    (default config.alpha for all). Rows never mix, so every row is
    bit-identical to the same trajectory run alone.

    Dispatches on config.method ("none" runs the unguided sampler, logging
    the surrogate when a reward is given). The af3 sampler mode wraps every
    method identically: gate on sigma_{t-1}, inflate, then step with the
    scaled fraction. For embedopt, on_update(x_t, c_t, sigma_t, c_prev, info)
    is called after every embedding update with the batch's point where it
    was taken and embedopt_step's info; audits use it to evaluate the
    surrogate there. Raises NonFiniteStateError, after the last step, when
    any x_0 or logged value is NaN or inf.
    """
    single = isinstance(rng, np.random.Generator)
    rngs = [rng] if single else list(rng)
    B = len(rngs)
    alpha = np.full(B, float(config.alpha)) if alphas is None else np.asarray(alphas, dtype=np.float64)
    if B == 0 or alpha.shape != (B,) or (alpha < 0).any():
        raise ValueError("need one generator and one non-negative alpha per row")
    if c_init.batch not in (None, B):
        raise ValueError("c_init must be one embedding or one row per trajectory")
    sig = schedule.sigma_values
    T = schedule.num_steps
    x = sig[-1] * standard_normal_rows(rngs, (B, model.D))
    c = c_init
    zeros = np.zeros(B)
    af3 = config.af3
    sigmas, F_log, grad_log, drift_log = [], [], [], []
    skips = {}  # skip kind -> per-row counts
    for t in range(T, 0, -1):
        sigma_t, sigma_prev = float(sig[t]), float(sig[t - 1])
        eta_scale = 1.0
        sigma_hat = sigma_t
        if config.sampler_mode == "af3":
            if sigma_prev > af3.gamma_min:
                x, sigma_hat = af3_noise_inflate(x, sigma_t, af3, rngs)
            eta_scale = af3.eta_scale
        if config.method == "embedopt":
            # ||c_t - c_T|| before this update
            drift = np.broadcast_to(c.add(c_init, -1.0).norm(), (B,))
            x_t, c_t = x, c
            x, c, info = embedopt_step(
                model, reward, x, c, sigma_hat, sigma_prev,
                alpha, config.embed_norm_mode, eta_scale,
            )
            if on_update is not None:
                on_update(x_t, c_t, sigma_hat, c, info)
            for name, skipped in zip(c_init.names, info["skipped"].T):
                _count_skips(skips, f"embed:{name}", skipped)
        elif config.method == "dps":
            x, info = dps_step(
                model, reward, x, c, sigma_hat, sigma_prev,
                alpha, config.dps_norm_mode, eta_scale,
            )
            _count_skips(skips, "dps:guidance", info["skipped"])
            drift = zeros
        else:
            x_hat = model.denoise(x, c, sigma_hat)
            F = None if reward is None else reward.value(x_hat)
            info = {"F": F, "grad_norm": zeros}
            drift = zeros
            x = euler_step(x, x_hat, sigma_hat, sigma_prev, eta_scale)
        sigmas.append(sigma_hat)
        F_log.append(info["F"])
        grad_log.append(info["grad_norm"])
        drift_log.append(drift)

    # one end-of-run check, so no non-finite value reaches an artifact
    logs = [np.array(grad_log).T, np.array(drift_log).T]  # (B, T) each
    if F_log[0] is not None:
        logs.append(np.array(F_log).T)
    if not all(np.isfinite(a).all() for a in [x] + logs):
        raise NonFiniteStateError("trajectory produced a non-finite endpoint or log entry")
    grad_rows, drift_rows = logs[0].tolist(), logs[1].tolist()
    F_rows = logs[2].tolist() if len(logs) == 3 else [[None] * T] * B
    nfe = dict.fromkeys(NFE_KINDS, 0)
    for kind, n in _STEP_NFE[config.method].items():
        if kind != "reward_value" or reward is not None:
            nfe[kind] = n * T
    records = [
        TrajectoryRecord(
            steps=list(range(T, 0, -1)), sigmas=list(sigmas), F=list(F_rows[b]),
            grad_norms=grad_rows[b], embed_drifts=drift_rows[b],
            skip_counts={kind: int(n[b]) for kind, n in skips.items() if n[b]},
            nfe=dict(nfe),
        )
        for b in range(B)
    ]
    result = SteeringResult(x0=x, c_final=c.broadcast(B), records=records)
    return result.row(0) if single else result


def _count_skips(skips: dict, kind: str, skipped: np.ndarray) -> None:
    if skipped.any():
        skips[kind] = skips.get(kind, 0) + skipped
