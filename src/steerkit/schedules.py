"""Discrete noise-level grids and per-step fractions.

A schedule is a strictly increasing grid sigma_0 < sigma_1 < ... < sigma_T,
with sigma_0 = 0 on the linear grid, traversed backwards (t = T down to 0)
by every sampler. The per-step fraction eta_t = (sigma_t - sigma_{t-1}) /
sigma_t is the exact Euler coefficient of the variance-exploding probability
flow written in terms of the denoiser output:

    x_{t-1} = x_t + eta_t * (xhat_0 - x_t)
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .models import NonFiniteStateError, _require_int, _require_real

__all__ = [
    "NoiseSchedule",
    "build_linear_schedule",
    "step_fraction",
]


@dataclass(frozen=True, eq=False)
class NoiseSchedule:
    """Immutable noise grid. sigma_values[t] is the level at step index t."""

    sigma_values: np.ndarray
    num_steps: int = field(init=False)

    def __post_init__(self):
        sig = np.asarray(self.sigma_values, dtype=np.float64)
        object.__setattr__(self, "sigma_values", sig)
        object.__setattr__(self, "num_steps", len(sig) - 1)
        if sig.ndim != 1 or len(sig) < 2:
            raise ValueError("schedule needs at least two sigma values")
        if not np.all(np.isfinite(sig)):
            raise NonFiniteStateError("schedule contains non-finite sigma")
        if sig[0] < 0:
            raise ValueError("sigma_0 must be non-negative")
        if not np.all(np.diff(sig) > 0):
            raise ValueError("sigma grid must be strictly increasing")

    def to_manifest(self) -> dict:
        return {
            "T": self.num_steps,
            "sigma_values": self.sigma_values.tolist(),
        }


def _require_allocatable(n: int, what: str) -> None:
    """MemoryError unless numpy can allocate n float64 entries: it allocates them
    once, untouched, and frees them (past what numpy can size it raises ValueError)."""
    try:
        np.empty(n)
    except (ValueError, MemoryError):
        raise MemoryError(f"cannot allocate {what}") from None


def build_linear_schedule(T: int, sigma_max: float) -> NoiseSchedule:
    """Uniform grid sigma_t = sigma_max * t / T, with sigma_0 = 0 exactly."""
    _require_int("T", T)
    _require_real("sigma_max", sigma_max, above=0)
    _require_allocatable(T + 1, f"a schedule of {T} steps")
    sig = sigma_max * np.arange(T + 1, dtype=np.float64) / T
    sig[0] = 0.0
    return NoiseSchedule(sigma_values=sig)


def step_fraction(sigma_t: float, sigma_prev: float) -> float:
    """Euler fraction eta_t = (sigma_t - sigma_{t-1}) / sigma_t for one step."""
    if not 0 <= sigma_prev < sigma_t < np.inf:  # False on NaN
        raise ValueError("need 0 <= sigma_prev < sigma_t < inf")
    return (sigma_t - sigma_prev) / sigma_t
