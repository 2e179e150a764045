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
alpha per trajectory; one trajectory is a batch of one. Its step logs are one
(B, T) float64 array per quantity, filled a column per step, and each row's
TrajectoryRecord holds row views of them. The steps take the batch whole and
share the model's intermediates (`model.parts`) between a denoise and its
pullback at the same (x, c, sigma). Every reduction is per row (np.vecdot
for the norms that were scalar np.linalg.norm), so each row is
bit-identical to the trajectory run alone. No step recomputes what cannot
have changed (the models memoise the last embedding's means), and
rms_normalize makes one bit-identical pass.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from .models import Embedding, NonFiniteStateError, _norm, _require_real
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
_CHOICES = {"method": _METHODS, "dps_norm_mode": _DPS_NORMS, "embed_norm_mode": _EMBED_NORMS,
            "sampler_mode": _SAMPLER_MODES}  # SteeringConfig's string fields and their values


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
        for name, allowed in _CHOICES.items():
            if getattr(self, name) not in allowed:
                raise ValueError(f"unknown {name} {getattr(self, name)!r}")
        _require_real("alpha", self.alpha)
        if self.alpha < 0:
            raise ValueError("alpha must be non-negative")

    def to_manifest(self) -> dict:
        return asdict(self)  # af3 becomes its own field dict


@dataclass
class SteeringResult:
    """Endpoints, final embeddings and step logs of one run_steered call:
    x0 of shape (B, D), a B-row c_final and one TrajectoryRecord per row in
    records, each holding row views of the batch's (B, T) logs.
    """

    x0: np.ndarray
    c_final: Embedding
    records: list

    @property
    def record(self) -> TrajectoryRecord:
        """The batch's totals: the steps and sigmas every row shares, and skip
        and NFE counts summed over rows; per-step values are per row, in records."""
        first, B = self.records[0], len(self.records)
        skips = {}
        for rec in self.records:
            for name, n in rec.skip_counts.items():
                skips[name] = skips.get(name, 0) + n
        nfe = {kind: n * B for kind, n in first.nfe.items()}  # every row counts the same
        return TrajectoryRecord(sigmas=first.sigmas, skip_counts=skips, nfe=nfe)


def rms_normalize(grad: Embedding, rescale: bool = True):
    """Divide each component by its RMS; components below SKIP_THRESHOLD are zeroed.

    Returns (normalized Embedding, skipped), skipped a bool mask of shape
    (n_components,), or (B, n_components) for a batch (each row its own
    vector), in grad.names order. Every surviving component has RMS exactly 1,
    so a step alpha * normalized moves each component by alpha in RMS units
    independently of the others. rescale=False is the raw-gradient mode.

    One pass over the flat buffer, squared once: each component's slice is
    summed with np.add.reduce and divided by its size, as np.mean does, so
    every entry has the bits of a per-component np.mean form.
    """
    g, sizes = grad.flat(), grad.sizes
    sq, start = np.square(g), 0
    rms = np.empty(g.shape[:-1] + (len(sizes),))  # one column per component
    for k, n in enumerate(sizes):
        np.divide(np.add.reduce(sq[..., start : start + n], axis=-1), n, out=rms[..., k])
        start += n
    np.sqrt(rms, out=rms)
    small = rms < SKIP_THRESHOLD
    if rescale:
        g = g / np.repeat(np.where(small, 1.0, rms), sizes, axis=-1)
    if small.any():
        g = np.where(np.repeat(small, sizes, axis=-1), 0.0, g)
    return grad.from_flat(g), small


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


def _pulled_back(model, reward, x_t, c, sigma_t: float, pullback: str):
    """(parts, x_hat, F, g), every step's prelude: the denoise at (x_t, c, sigma_t), the
    reward's value there, and its gradient pulled back by model.<pullback> with those parts."""
    parts = model.parts(x_t, c, sigma_t)
    x_hat = model.denoise(x_t, c, sigma_t, parts)
    F, grad_R = reward.value_and_grad(x_hat)
    return parts, x_hat, F, getattr(model, pullback)(x_t, c, sigma_t, grad_R, parts)


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
    the same sigma_t. x_t is a (B, D) batch; alpha is one value or one per row.
    Returns (x_prev, c_prev, info) where info records the pre-update
    surrogate value F, the embedding gradient grad_c F and its norm, the
    denoiser output x_hat_step that the coordinate step used, and the mask
    of skipped components (see rms_normalize).
    """
    _, x_hat, F, g = _pulled_back(model, reward, x_t, c_t, sigma_t, "vjp_c")
    direction, skipped = rms_normalize(g, rescale=norm_mode == "rms_per_component")
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
    tau^2/w + v_t). x_t is a (B, D) batch; alpha is one value or one per row;
    info's grad_norm and skipped are arrays, one entry per row.
    """
    _, x_hat, F, g = _pulled_back(model, reward, x_t, c, sigma_t, "vjp_x")
    gnorm = np.sqrt(np.vecdot(g, g))
    skipped = np.zeros(gnorm.shape, dtype=bool)
    if norm_mode == "sigma2w":
        guidance = sigma_t**2 * g
    elif norm_mode == "l2_matched":
        skipped = gnorm < SKIP_THRESHOLD
        d = x_hat - x_t
        step = alpha * np.sqrt(np.vecdot(d, d))
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
) -> np.ndarray:
    """First-order prediction of the embedding-ascent coordinate step.

    Linearizing the denoiser in c around c_t turns the re-evaluated step into

        x_t + eta_t [ xhat - x_t + J_c (c_{t-1} - c_t) ],

    where c_{t-1} - c_t is the exact update embedopt_step applies in its
    default mode (alpha times the RMS-normalized gradient, i.e. the effective
    post-normalization rate times J_c^T grad R). Exact for denoisers affine
    in c; O(alpha^2) gap otherwise. x_t is a (B, D) batch.
    """
    parts, x_hat, _, g = _pulled_back(model, reward, x_t, c_t, sigma_t, "vjp_c")
    direction, _ = rms_normalize(g)
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

    The one step loop of the package. rng is a sequence of one
    np.random.Generator per trajectory: B generators integrate a (B, D)
    batch, row b drawing x_T and every af3 noise draw from rng[b]; one
    trajectory is [rng], and a bare generator is a ValueError. c_init is one
    embedding for every row, or one row per trajectory; alphas gives each row
    its step size (default config.alpha for all). Rows never mix, so every
    row is bit-identical to the same trajectory run as a batch of one.

    Dispatches on config.method ("none" runs the unguided sampler, logging
    the surrogate when a reward is given). The af3 sampler mode wraps every
    method identically: gate on sigma_{t-1}, inflate, then step with the
    scaled fraction. For embedopt, on_update(x_t, c_t, sigma_t, c_prev, info)
    is called after every embedding update with the batch's point where it
    was taken and embedopt_step's info; audits use it to evaluate the
    surrogate there. Raises NonFiniteStateError, after the last step, when
    any x_0 or logged value is NaN or inf.
    """
    if isinstance(rng, np.random.Generator):
        raise ValueError("rng is one generator per row: pass [rng] for one trajectory")
    rngs = list(rng)
    B = len(rngs)
    for a in () if alphas is None else np.asarray(alphas, dtype=object).flat:
        _require_real("alphas", a)  # as SteeringConfig's alpha: no bool, string or overflow
    alpha = np.full(B, float(config.alpha)) if alphas is None else np.asarray(alphas, dtype=np.float64)
    if B == 0 or alpha.shape != (B,) or not (np.isfinite(alpha) & (alpha >= 0)).all():
        raise ValueError("need one generator and one finite, non-negative alpha per row")
    if c_init.batch not in (None, B):
        raise ValueError("c_init must be one embedding or one row per trajectory")
    sig = schedule.sigma_values
    T = schedule.num_steps
    x = sig[-1] * standard_normal_rows(rngs, (B, model.D))
    c = c_init
    af3 = config.af3
    # column-major, so each step's column is contiguous; records take row views
    sigmas = np.empty(T)
    grad_log, drift_log = np.zeros((B, T), order="F"), np.zeros((B, T), order="F")
    F_log = None if reward is None else np.empty((B, T), order="F")
    skips = {}  # skip kind -> per-row counts
    for i, t in enumerate(range(T, 0, -1)):
        sigma_t, sigma_prev = float(sig[t]), float(sig[t - 1])
        eta_scale = 1.0
        sigma_hat = sigma_t
        if config.sampler_mode == "af3":
            if sigma_prev > af3.gamma_min:
                x, sigma_hat = af3_noise_inflate(x, sigma_t, af3, rngs)
            eta_scale = af3.eta_scale
        if config.method == "embedopt":
            # ||c_t - c_T|| per row before this update, bit for bit c.add(c_init, -1).norm()
            drift_log[:, i] = _norm(c.flat() - c_init.flat())
            x_t, c_t = x, c
            x, c, info = embedopt_step(
                model, reward, x, c, sigma_hat, sigma_prev,
                alpha, config.embed_norm_mode, eta_scale,
            )
            if on_update is not None:
                on_update(x_t, c_t, sigma_hat, c, info)
            for name, skipped in zip(c_init.names, info["skipped"].T):
                _count_skips(skips, f"embed:{name}", skipped)
            F_log[:, i], grad_log[:, i] = info["F"], info["grad_norm"]
        elif config.method == "dps":
            x, info = dps_step(
                model, reward, x, c, sigma_hat, sigma_prev,
                alpha, config.dps_norm_mode, eta_scale,
            )
            _count_skips(skips, "dps:guidance", info["skipped"])
            F_log[:, i], grad_log[:, i] = info["F"], info["grad_norm"]
        else:
            x_hat = model.denoise(x, c, sigma_hat)
            if reward is not None:
                F_log[:, i] = reward.value(x_hat)
            x = euler_step(x, x_hat, sigma_hat, sigma_prev, eta_scale)
        sigmas[i] = sigma_hat

    # one end-of-run check, so no non-finite value reaches an artifact
    logs = [a for a in (x, F_log, grad_log, drift_log) if a is not None]
    if not all(np.isfinite(a).all() for a in logs):
        raise NonFiniteStateError("trajectory produced a non-finite endpoint or log entry")
    nfe = {kind: _STEP_NFE[config.method].get(kind, 0) * T for kind in NFE_KINDS}
    if reward is None:
        nfe["reward_value"] = 0
    skip_rows = {kind: n.tolist() for kind, n in skips.items()}
    records = [
        TrajectoryRecord(
            sigmas=sigmas, F=None if F_log is None else F_log[b],
            grad_norms=grad_log[b], embed_drifts=drift_log[b],
            skip_counts={kind: n[b] for kind, n in skip_rows.items() if n[b]},
            nfe=dict(nfe),
        )
        for b in range(B)
    ]
    return SteeringResult(x0=x, c_final=c.broadcast(B), records=records)


def _count_skips(skips: dict, kind: str, skipped: np.ndarray) -> None:
    if skipped.any():
        skips[kind] = skips.get(kind, 0) + skipped
