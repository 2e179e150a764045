"""Benchmark task construction: the scalar synthetic task and bead-chain toys.

The synthetic task is the fully analytic testbed: a 1-D Gaussian prior
N(loc, 0.5^2) whose location is the (identity-mapped) embedding, a Gaussian
measurement at y=20 with tau^2=1, and a linear schedule. Every acceptance
number for it has a closed-form or conjugate oracle: conjugate_posterior is
that closed form, and summarize_samples the endpoint summary it is held to.

The toy tasks realize the prior/measurement mismatch regime at desk scale: an
8-bead chain drawn from a 2-mode mixture prior with a dominant mode (weight
0.9), a target conformation drawn from the minority mode, and a reward built
from that target, either top-K distance constraints or a rendered density
map. Unguided sampling mostly lands in the dominant mode and violates the
constraints; steering has to pull samples into the minority region.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .models import Embedding, GaussianPriorModel, MixturePriorModel, _require_int, _require_real
from .rewards import (
    DistanceConstraintReward,
    GaussianMeasurementReward,
    MapGrid,
    MapMSEReward,
    select_top_k_constraints,
)
from .schedules import NoiseSchedule, build_linear_schedule

__all__ = [
    "SyntheticTask",
    "build_synthetic_task",
    "conjugate_posterior",
    "SampleSummary",
    "summarize_samples",
    "ToyTask",
    "build_toy_task",
]

SYNTH_PRIOR_LOC = 5.0
SYNTH_PRIOR_STD = 0.5
SYNTH_Y = 20.0
SYNTH_TAU2 = 1.0
SYNTH_T = 1000
SYNTH_SIGMA_MAX = 100.0

TOY_N_BEADS = 8
TOY_K_CONSTRAINTS = 5
TOY_DELTA = 2.0
TOY_MODE_WEIGHTS = (0.9, 0.1)
TOY_MODE_STD = 0.5
TOY_MODE_MAP_DIFF = 0.15
TOY_MODE_OFFSET = 0.7
TOY_T = 200
TOY_SIGMA_MAX = 12.0


@dataclass(frozen=True, eq=False)
class SyntheticTask:
    """1-D analytic task: identity mean map, conjugate everything."""

    model: GaussianPriorModel
    c_init: Embedding

    def reward(self, w: float = 1.0):
        return GaussianMeasurementReward(y=[SYNTH_Y], tau2=SYNTH_TAU2, w=w)

    @staticmethod
    def schedule(T: int = SYNTH_T, sigma_max: float = SYNTH_SIGMA_MAX) -> NoiseSchedule:
        return build_linear_schedule(T, sigma_max)


def build_synthetic_task() -> SyntheticTask:
    model = GaussianPriorModel(W=np.eye(1), b=np.zeros(1), s0=SYNTH_PRIOR_STD)
    c_init = Embedding({"loc": np.array([SYNTH_PRIOR_LOC])})
    return SyntheticTask(model=model, c_init=c_init)


def conjugate_posterior(
    prior_mean: float, prior_var: float, y: float, tau2: float = 1.0, w: float = 1.0
) -> tuple[float, float]:
    """Posterior mean and variance of a scalar Gaussian-Gaussian update.

    Prior N(prior_mean, prior_var), likelihood exp(-w (x - y)^2 / (2 tau2)).
    Precision adds: 1/var_post = 1/prior_var + w/tau2.
    """
    _require_real("prior_var", prior_var, above=0)
    _require_real("tau2", tau2, above=0)
    _require_real("w", w, least=0)
    precision = 1.0 / prior_var + w / tau2
    var = 1.0 / precision
    mean = var * (prior_mean / prior_var + w * y / tau2)
    return mean, var


@dataclass(frozen=True)
class SampleSummary:
    """Per-coordinate mean/std plus a histogram of the first coordinate."""

    mean: np.ndarray
    std: np.ndarray
    bin_edges: np.ndarray
    counts: np.ndarray


def summarize_samples(samples, bins: int = 60) -> SampleSummary:
    """Summarize endpoint samples: mean, sample std (ddof=1), histogram.

    The histogram covers [min, max] of the first coordinate with fixed-width
    bins (all tasks that get histogrammed are one-dimensional). Fewer than
    two samples is an error; identical samples occupy a single bin.
    """
    arr = np.asarray(samples, dtype=np.float64)
    if arr.ndim == 1:
        arr = arr[:, None]
    if arr.shape[0] < 2:
        raise ValueError("need at least two samples to summarize")
    _require_int("bins", bins)
    mean = arr.mean(axis=0)
    std = arr.std(axis=0, ddof=1)
    vals = arr[:, 0]
    lo, hi = float(vals.min()), float(vals.max())
    if lo == hi:
        lo, hi = lo - 0.5, hi + 0.5
    counts, edges = np.histogram(vals, bins=bins, range=(lo, hi))
    return SampleSummary(mean=mean, std=std, bin_edges=edges, counts=counts)


@dataclass(frozen=True, eq=False)
class ToyTask:
    """Bead-chain steering task in the mismatch regime. build_toy_task's seed
    rebuilds it bit for bit; a run's manifest records that seed as task_seed."""

    kind: str
    model: MixturePriorModel
    c_init: Embedding
    target_state: np.ndarray
    reward: object

    @staticmethod
    def schedule(T: int = TOY_T, sigma_max: float = TOY_SIGMA_MAX) -> NoiseSchedule:
        return build_linear_schedule(T, sigma_max)

    def metric(self, x: np.ndarray) -> np.ndarray:
        """Task score per row of a batch: satisfied-constraint count, or map correlation."""
        if self.kind == "distance":
            return self.reward.count_satisfied(x).astype(np.float64)
        return self.reward.correlation(x)

    def metric_name(self) -> str:
        return "constraints_satisfied" if self.kind == "distance" else "map_cc"


def build_toy_task(kind: str, seed: int = 0) -> ToyTask:
    """Construct the 2-mode bead-chain task with a minority-mode target.

    The two modes share a common affine mean map plus a small per-mode
    deviation (map difference 0.15, mean offsets 0.7 per coordinate), which
    keeps bead coordinates at the few-Angstrom scale and puts the top-K
    distance discrepancies a little beyond the constraint tolerance: far
    enough that unguided samples from the dominant mode violate constraints,
    close enough that the clipped reward has gradient support along the
    denoising path once the trajectory leans toward the minority mode. The
    target is an exact prior sample from that minority mode. Same seed, same
    task, bit for bit.
    """
    if kind not in ("distance", "map"):
        raise ValueError(f"unknown toy task kind {kind!r}")
    rng = np.random.default_rng(seed)
    D = 3 * TOY_N_BEADS
    dims = {"single": 16, "pair": 16}
    d = sum(dims.values())
    base_W = rng.standard_normal((D, d)) / np.sqrt(d)
    dW = rng.standard_normal((2, D, d)) / np.sqrt(d)
    Ws = base_W[None, :, :] + TOY_MODE_MAP_DIFF * dW
    b_common = rng.standard_normal(D)
    bs = b_common[None, :] + TOY_MODE_OFFSET * rng.standard_normal((2, D))
    model = MixturePriorModel(
        weights=np.array(TOY_MODE_WEIGHTS),
        Ws=Ws,
        bs=bs,
        stds=np.full(2, TOY_MODE_STD),
    )
    c_init = Embedding(
        {
            "single": rng.standard_normal(dims["single"]),
            "pair": rng.standard_normal(dims["pair"]),
        }
    )
    minority_mean = model.mode_means(c_init)[1]
    target = minority_mean + TOY_MODE_STD * rng.standard_normal(D)
    if kind == "distance":
        dominant_ref = model.mode_means(c_init)[0]
        pairs, targets = select_top_k_constraints(dominant_ref, target, TOY_K_CONSTRAINTS)
        reward = DistanceConstraintReward(pairs=pairs, targets=targets, delta=TOY_DELTA)
    else:
        pts = np.concatenate(
            [model.mode_means(c_init).reshape(-1, 3), target.reshape(-1, 3)]
        )
        lo = np.floor(pts.min(axis=0) - 4.0)
        hi = np.ceil(pts.max(axis=0) + 4.0)
        spacing = 1.0
        shape = tuple(min(24, int(n)) for n in np.ceil((hi - lo) / spacing) + 1)
        grid = MapGrid(shape=shape, origin=lo, spacing=spacing)
        reward = MapMSEReward.from_state(target, grid, atom_width=1.5)
    return ToyTask(
        kind=kind, model=model, c_init=c_init,
        target_state=target, reward=reward,
    )
