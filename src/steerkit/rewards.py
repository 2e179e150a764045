"""Differentiable rewards R(x0) proportional to a measurement log-likelihood.

Three families:

* GaussianMeasurementReward: R = -w/(2 tau^2) ||x - y||^2, the weighted
  log-density of a Gaussian measurement y (constant dropped).
* DistanceConstraintReward: R = -sum_i min(|d_i(x) - target_i|, delta)^2 over
  bead-pair distances, quadratic inside the tolerance and flat (zero
  gradient) outside it.
* MapMSEReward: negative mean squared error between zero-mean unit-variance
  normalized density maps, R = -mean((V(x) - V_obs)^2) = 2 (cc - 1) where cc
  is the Pearson correlation of the normalized maps.

The map reward evaluates its Gaussian splats from per-axis offset tables
d_a[i, b] = axis_a[i] - p_b[a], one (n_a, n_beads) table per grid axis,
rather than from an (n_voxels, n_beads, 3) difference tensor, where numpy's
per-element overhead on the length-3 inner axis cost more than the
arithmetic. The rendered maps are bit-identical to `render_map_raw`, which
keeps the brute-force form as the oracle. That pins two summation orders:
squared distances are summed as (x^2 + y^2) + z^2, and each gradient entry
sums its voxel terms in ascending voxel order. Factorising the splat into
per-axis Gaussians gx*gy*gz, or contracting the gradient with a BLAS
product, rounds differently and would change every map-task CSV.

All gradients are exact, including the chain through map normalization, and
are checked against central finite differences in the verification suite.
Coordinates for bead tasks are flat vectors of length 3 * n_beads.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

import numpy as np

__all__ = [
    "DegenerateMapError",
    "GaussianMeasurementReward",
    "DistanceConstraintReward",
    "MapGrid",
    "MapMSEReward",
    "render_map",
    "render_map_raw",
    "map_correlation",
    "select_top_k_constraints",
]


class DegenerateMapError(ValueError):
    """Raised when a rendered or supplied map has zero variance."""


@dataclass(frozen=True, eq=False)
class GaussianMeasurementReward:
    """R(x) = -w/(2 tau2) ||x - y||^2; maximum 0 at x = y."""

    y: np.ndarray
    tau2: float = 1.0
    w: float = 1.0

    def __post_init__(self):
        object.__setattr__(self, "y", np.atleast_1d(np.asarray(self.y, dtype=np.float64)))
        if self.tau2 <= 0:
            raise ValueError("tau2 must be positive")
        if self.w < 0:
            raise ValueError("weight w must be non-negative")

    def value(self, x: np.ndarray):
        d = np.asarray(x, dtype=np.float64) - self.y
        return _scalar(np.vecdot(-0.5 * self.w / self.tau2 * d, d))

    def value_and_grad(self, x: np.ndarray):
        d = np.asarray(x, dtype=np.float64) - self.y
        val = _scalar(np.vecdot(-0.5 * self.w / self.tau2 * d, d))
        return val, -(self.w / self.tau2) * d


def _scalar(v):
    """A 0-d result as a Python float; one value per row stays an array."""
    return float(v) if np.ndim(v) == 0 else v


@dataclass(frozen=True, eq=False)
class DistanceConstraintReward:
    """Clipped quadratic penalty on bead-pair distance deviations.

    R(x) = -sum_i min(|d_i - target_i|, delta)^2 with d_i = ||x_i - x_j||.
    The gradient is zero on the clipped plateau (|deviation| >= delta) and at
    coincident beads (d_i = 0), both measure-zero boundary choices.

    `value_and_grad` evaluates every pair of every row at once, in the
    rounding of the per-pair form it replaced: each distance is the square
    root of a dot product, as a scalar norm is; the squared clipped
    deviations are C pow, as Python float ** is (np.float_power; x * x
    differs in the last bit on about 0.1% of inputs); R sums them from 0 in
    pair order; and each bead's gradient adds its pairs' terms in pair
    order (np.add.at).
    """

    pairs: tuple
    targets: np.ndarray
    delta: float

    def __post_init__(self):
        pairs = tuple((int(i), int(j)) for i, j in self.pairs)
        targets = np.asarray(self.targets, dtype=np.float64).ravel()
        if len(pairs) != targets.size:
            raise ValueError("pairs and targets length mismatch")
        if self.delta <= 0:
            raise ValueError("delta must be positive")
        if any(i == j or i < 0 or j < 0 for i, j in pairs):
            raise ValueError("pairs must index distinct non-negative beads")
        object.__setattr__(self, "pairs", pairs)
        object.__setattr__(self, "targets", targets)

    @property
    def K(self) -> int:
        return len(self.pairs)

    def _bonds(self, x: np.ndarray) -> np.ndarray:
        """x_i - x_j for every pair, shape (..., K, 3)."""
        x = np.asarray(x, dtype=np.float64)
        pts = x.reshape(x.shape[:-1] + (-1, 3))
        ii = [i for i, _ in self.pairs]
        jj = [j for _, j in self.pairs]
        return pts[..., ii, :] - pts[..., jj, :]

    def distances(self, x: np.ndarray) -> np.ndarray:
        return np.linalg.norm(self._bonds(x), axis=-1)

    def count_satisfied(self, x: np.ndarray):
        """Constraints with |d - target| <= delta (inside the tolerance)."""
        dev = np.abs(self.distances(x) - self.targets)
        n = np.sum(dev <= self.delta, axis=-1)
        return int(n) if np.ndim(n) == 0 else n

    def value(self, x: np.ndarray):
        dev = np.abs(self.distances(x) - self.targets)
        return _scalar(-np.sum(np.minimum(dev, self.delta) ** 2, axis=-1))

    def value_and_grad(self, x: np.ndarray):
        x = np.asarray(x, dtype=np.float64)
        bond = self._bonds(x)  # (..., K, 3)
        d = np.sqrt(np.vecdot(bond, bond))
        dev = d - self.targets
        clipped = np.minimum(np.abs(dev), self.delta)
        val = np.subtract.reduce(np.float_power(clipped, 2.0), axis=-1, initial=0.0)
        # plateau or undefined direction: zero gradient
        active = (np.abs(dev) < self.delta) & (d != 0.0)
        unit = bond / np.where(active, d, 1.0)[..., None]
        term = np.where(active[..., None], (-2.0 * dev)[..., None] * unit, 0.0)
        # bead i gains the pair's term and bead j loses it, pair by pair
        idx = np.ravel(self.pairs)
        signed = np.stack([term, -term], axis=-2).reshape(term.shape[:-2] + (-1, 3))
        grad = np.zeros(x.shape[:-1] + (x.shape[-1] // 3, 3))
        np.add.at(grad, (..., idx, slice(None)), signed)
        return _scalar(val), grad.reshape(x.shape)


@dataclass(frozen=True, eq=False)
class MapGrid:
    """Regular voxel grid: shape counts, origin corner, isotropic spacing (A)."""

    shape: tuple
    origin: np.ndarray
    spacing: float

    def __post_init__(self):
        shape = tuple(int(n) for n in self.shape)
        if len(shape) != 3 or any(n < 1 for n in shape):
            raise ValueError("grid shape must be three positive counts")
        if self.spacing <= 0:
            raise ValueError("voxel spacing must be positive")
        object.__setattr__(self, "shape", shape)
        object.__setattr__(
            self, "origin", np.asarray(self.origin, dtype=np.float64).reshape(3)
        )

    @property
    def n_voxels(self) -> int:
        nx, ny, nz = self.shape
        return nx * ny * nz

    def axes(self) -> list:
        """Voxel-center coordinates along each axis: three 1-D arrays."""
        return [self.origin[a] + self.spacing * np.arange(self.shape[a]) for a in range(3)]

    def voxel_centers(self) -> np.ndarray:
        """All voxel centers as an (n_voxels, 3) array, x fastest last."""
        gx, gy, gz = np.meshgrid(*self.axes(), indexing="ij")
        return np.stack([gx.ravel(), gy.ravel(), gz.ravel()], axis=1)

    def to_manifest(self) -> dict:
        return {"shape": list(self.shape), "origin": self.origin.tolist(), "spacing": self.spacing}


def render_map_raw(x: np.ndarray, grid: MapGrid, atom_width: float) -> np.ndarray:
    """Sum of isotropic Gaussian splats evaluated at voxel centers (no normalization)."""
    if atom_width <= 0:
        raise ValueError("atom_width must be positive")
    pts = np.asarray(x, dtype=np.float64).reshape(-1, 3)
    centers = grid.voxel_centers()  # (M, 3)
    d2 = ((centers[:, None, :] - pts[None, :, :]) ** 2).sum(axis=2)  # (M, n_beads)
    return np.exp(-d2 / (2.0 * atom_width**2)).sum(axis=1)


def _splat(x: np.ndarray, grid: MapGrid, atom_width: float):
    """Per-bead splat values, shape (n_voxels, n_beads), and the offset tables.

    Their sum over beads is `render_map_raw`, bit for bit, computed from the
    per-axis tables d_a = axis_a[:, None] - pts[None, :, a] of shape
    (n_a, n_beads).
    The squared distance is broadcast as (x^2 + y^2) + z^2, the order in which
    the brute-force form reduces its length-3 axis; x^2 + (y^2 + z^2) rounds
    differently.
    """
    pts = np.asarray(x, dtype=np.float64).reshape(-1, 3)
    offsets = [axis[:, None] - pts[None, :, a] for a, axis in enumerate(grid.axes())]
    sx, sy, sz = (d * d for d in offsets)
    d2 = (sx[:, None, None, :] + sy[None, :, None, :]) + sz[None, None, :, :]
    splat = np.exp(-d2.reshape(grid.n_voxels, -1) / (2.0 * atom_width**2))
    return splat, offsets


def _render_raw(x: np.ndarray, grid: MapGrid, atom_width: float) -> np.ndarray:
    """`render_map_raw` from the per-axis kernel, bit for bit."""
    return _splat(x, grid, atom_width)[0].sum(axis=1)


def _normalize_map(v_raw: np.ndarray):
    mu = v_raw.mean()
    sd = v_raw.std()
    if sd < 1e-300 or not np.isfinite(sd):
        raise DegenerateMapError("rendered map has zero variance")
    return (v_raw - mu) / sd, mu, sd


def render_map(x: np.ndarray, grid: MapGrid, atom_width: float) -> np.ndarray:
    """Splat beads onto the grid and normalize to zero mean, unit variance."""
    return _normalize_map(render_map_raw(x, grid, atom_width))[0]


def map_correlation(v_a: np.ndarray, v_b: np.ndarray) -> float:
    """Pearson correlation over voxels of two same-shape maps."""
    a = np.asarray(v_a, dtype=np.float64).ravel()
    b = np.asarray(v_b, dtype=np.float64).ravel()
    if a.shape != b.shape:
        raise ValueError("maps must have the same shape")
    a = a - a.mean()
    b = b - b.mean()
    na, nb = np.linalg.norm(a), np.linalg.norm(b)
    if na < 1e-300 or nb < 1e-300:
        raise DegenerateMapError("map has zero variance")
    return float((a @ b) / (na * nb))


@dataclass(frozen=True, eq=False)
class MapMSEReward:
    """R(x) = -mean((V(x) - V_obs)^2) = 2 (cc - 1) on normalized maps.

    V(x) is the normalized rendering of x on the stored grid; V_obs must
    already be zero-mean unit-variance on the same grid. R lies in [-4, 0]
    and is 0 exactly when the rendered map equals the target.

    Every method renders through the per-axis kernel `_splat`, so `value`,
    `correlation` and `from_state` return exactly what their
    `render_map_raw` forms return. The gradient weights splat[m, b] by
    g_vraw[m], multiplies by each axis's offset table broadcast over the
    grid, and sums over voxels in ascending order with `np.einsum` (no BLAS
    call, whose blocking would reorder the sum).
    """

    grid: MapGrid
    v_obs: np.ndarray
    atom_width: float = 1.5

    def __post_init__(self):
        v = np.asarray(self.v_obs, dtype=np.float64).ravel()
        if v.size != self.grid.n_voxels:
            raise ValueError("target map size does not match grid")
        if abs(v.mean()) > 1e-8 or abs(v.std() - 1.0) > 1e-8:
            raise ValueError("target map must be normalized to zero mean, unit variance")
        object.__setattr__(self, "v_obs", v)

    @classmethod
    def from_state(cls, x_target: np.ndarray, grid: MapGrid, atom_width: float = 1.5):
        v_obs = _normalize_map(_render_raw(x_target, grid, atom_width))[0]
        return cls(grid=grid, v_obs=v_obs, atom_width=atom_width)

    def correlation(self, x: np.ndarray) -> float:
        return map_correlation(_render_raw(x, self.grid, self.atom_width), self.v_obs)

    def value(self, x: np.ndarray):
        x = np.asarray(x, dtype=np.float64)
        if x.ndim == 2:
            return np.array([self._value(row) for row in x])
        return self._value(x)

    def value_and_grad(self, x: np.ndarray):
        x = np.asarray(x, dtype=np.float64)
        if x.ndim == 2:
            rows = [self._value_and_grad(row) for row in x]
            return np.array([v for v, _ in rows]), np.stack([g for _, g in rows])
        return self._value_and_grad(x)

    def _value(self, x: np.ndarray) -> float:
        v = _normalize_map(_render_raw(x, self.grid, self.atom_width))[0]
        return float(-np.mean((v - self.v_obs) ** 2))

    def _value_and_grad(self, x: np.ndarray):
        splat, offsets = _splat(x, self.grid, self.atom_width)
        v_raw = splat.sum(axis=1)
        v, _, sd = _normalize_map(v_raw)
        M = v.size
        cc = float(v @ self.v_obs) / M
        val = 2.0 * (cc - 1.0)
        # dcc/dV_raw = (V_obs - cc * V) / (M * sd): V_obs is zero-mean, so the
        # mean-shift term vanishes and only the std chain survives.
        g_vraw = 2.0 * (self.v_obs - cc * v) / (M * sd)
        # chain through the splats: dV_raw[m]/d pts[b] = splat[m,b] * (c_m - p_b)/aw^2
        # per bead and axis, summed over voxels in ascending order
        w = (g_vraw[:, None] * splat).reshape(*self.grid.shape, -1)
        dx, dy, dz = offsets
        cols = [
            np.einsum("ijkb,ib->b", w, dx),
            np.einsum("ijkb,jb->b", w, dy),
            np.einsum("ijkb,kb->b", w, dz),
        ]
        grad_pts = np.stack(cols, axis=1) / self.atom_width**2
        return val, grad_pts.ravel()


def select_top_k_constraints(
    x_prior: np.ndarray, x_target: np.ndarray, K: int
) -> tuple:
    """Pick the K bead pairs (i < j) with the largest |d_prior - d_target|.

    Ties break lexicographically on (i, j). Targets are the distances in
    x_target. Returns (pairs, targets).
    """
    a = np.asarray(x_prior, dtype=np.float64).reshape(-1, 3)
    b = np.asarray(x_target, dtype=np.float64).reshape(-1, 3)
    if a.shape != b.shape:
        raise ValueError("states must have the same bead count")
    all_pairs = list(combinations(range(a.shape[0]), 2))
    if K > len(all_pairs):
        raise ValueError("K exceeds the number of distinct pairs")
    rows = []
    for i, j in all_pairs:
        dp = float(np.linalg.norm(a[i] - a[j]))
        dt = float(np.linalg.norm(b[i] - b[j]))
        rows.append((-abs(dp - dt), i, j, dt))
    rows.sort()
    chosen = rows[:K]
    pairs = tuple((i, j) for _, i, j, _ in chosen)
    targets = np.array([t for _, _, _, t in chosen])
    return pairs, targets
