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
keeps the brute-force form as the oracle. That pins three summation orders:
squared distances are summed as (x^2 + y^2) + z^2, each voxel's bead sum
follows numpy's pairwise order (`_bead_sum`), and each gradient entry sums
its voxel terms in ascending voxel order. Factorising the splat into per-axis
Gaussians gx*gy*gz, or a BLAS contraction, rounds differently and would
change every map-task CSV. The exponentials and the gradient weights reuse
the splat's buffer, so a call allocates one splat-sized array, not five.
A batch is one splat per chunk of rows (`_render_rows`), each row a column
block summed, normalized and weighted on its own: bit for bit the row alone.

All gradients are exact, including the chain through map normalization, and
are checked against central finite differences in the verification suite.
Every reward takes a (B, D) batch, one state per row (a bead state is 3 *
n_beads coordinates), and returns one value, count or gradient row per row.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .models import _check_coords, _finite_array, _require_int, _require_real

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
        object.__setattr__(self, "y", np.atleast_1d(_finite_array("measurement y", self.y)))
        _require_real("tau2", self.tau2, above=0)
        _require_real("weight w", self.w, least=0)

    def value(self, x: np.ndarray) -> np.ndarray:
        d = _check_coords(x, self.y.size) - self.y
        return np.vecdot(-0.5 * self.w / self.tau2 * d, d)

    def value_and_grad(self, x: np.ndarray):
        d = _check_coords(x, self.y.size) - self.y
        return np.vecdot(-0.5 * self.w / self.tau2 * d, d), -(self.w / self.tau2) * d


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
    order (np.add.at). The pair index arrays are built once.
    """

    pairs: tuple
    targets: np.ndarray
    delta: float

    def __post_init__(self):
        pairs = tuple(tuple(_require_int("bead index", i, least=0) for i in p) for p in self.pairs)
        targets = _finite_array("targets", self.targets).ravel()
        if len(pairs) != targets.size:
            raise ValueError("pairs and targets length mismatch")
        _require_real("delta", self.delta, above=0)
        if any(len(p) != 2 or p[0] == p[1] or max(p) > np.iinfo(np.intp).max for p in pairs):
            raise ValueError("pairs must index two distinct beads, each an intp")
        object.__setattr__(self, "pairs", pairs)
        object.__setattr__(self, "targets", targets)
        idx = np.array(pairs, dtype=np.intp).reshape(-1, 2)
        object.__setattr__(self, "_ii", np.ascontiguousarray(idx[:, 0]))
        object.__setattr__(self, "_jj", np.ascontiguousarray(idx[:, 1]))
        object.__setattr__(self, "_idx", idx.ravel())  # i, j, i, j, ... for the scatter

    @property
    def K(self) -> int:
        return len(self.pairs)

    def _bonds(self, x: np.ndarray) -> np.ndarray:
        """x_i - x_j for every pair of every row, shape (B, K, 3)."""
        pts = _check_coords(x).reshape(len(x), -1, 3)
        return np.take(pts, self._ii, axis=1) - np.take(pts, self._jj, axis=1)

    def distances(self, x: np.ndarray) -> np.ndarray:
        return np.linalg.norm(self._bonds(x), axis=-1)

    def count_satisfied(self, x: np.ndarray) -> np.ndarray:
        """Constraints with |d - target| <= delta (inside the tolerance), per row."""
        dev = np.abs(self.distances(x) - self.targets)
        return np.sum(dev <= self.delta, axis=-1)

    def value(self, x: np.ndarray) -> np.ndarray:
        dev = np.abs(self.distances(x) - self.targets)
        return -np.sum(np.minimum(dev, self.delta) ** 2, axis=-1)

    def value_and_grad(self, x: np.ndarray):
        x = _check_coords(x)
        bond = self._bonds(x)  # (B, K, 3)
        d = np.sqrt(np.vecdot(bond, bond))
        dev = d - self.targets
        abs_dev = np.abs(dev)
        clipped = np.minimum(abs_dev, self.delta)
        val = np.subtract.reduce(np.float_power(clipped, 2.0), axis=-1, initial=0.0)
        # plateau or undefined direction: zero gradient
        active = (abs_dev < self.delta) & (d != 0.0)
        unit = bond / np.where(active, d, 1.0)[..., None]
        term = np.where(active[..., None], (-2.0 * dev)[..., None] * unit, 0.0)
        # bead i gains the pair's term and bead j loses it, pair by pair
        signed = np.empty(term.shape[:-2] + (2 * self.K, 3))
        signed[..., 0::2, :] = term
        np.negative(term, out=signed[..., 1::2, :])
        grad = np.zeros(x.shape[:-1] + (x.shape[-1] // 3, 3))
        np.add.at(grad, (..., self._idx, slice(None)), signed)
        return val, grad.reshape(x.shape)


@dataclass(frozen=True, eq=False)
class MapGrid:
    """Regular voxel grid: shape counts, origin corner, isotropic spacing (A)."""

    shape: tuple
    origin: np.ndarray
    spacing: float

    def __post_init__(self):
        shape = tuple(_require_int("grid shape", n) for n in self.shape)
        if len(shape) != 3:
            raise ValueError("grid shape must be three positive counts")
        _require_real("voxel spacing", self.spacing, above=0)
        object.__setattr__(self, "shape", shape)
        object.__setattr__(self, "origin", _finite_array("grid origin", self.origin).reshape(3))

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


def render_map_raw(x: np.ndarray, grid: MapGrid, atom_width: float) -> np.ndarray:
    """Sum of isotropic Gaussian splats evaluated at voxel centers (no normalization)."""
    _require_real("atom_width", atom_width, above=0)
    pts = np.asarray(x, dtype=np.float64).reshape(-1, 3)
    centers = grid.voxel_centers()  # (M, 3)
    d2 = ((centers[:, None, :] - pts[None, :, :]) ** 2).sum(axis=2)  # (M, n_beads)
    return np.exp(-d2 / (2.0 * atom_width**2)).sum(axis=1)


def _bead_sum(splat: np.ndarray) -> np.ndarray:
    """`splat.sum(axis=1)`, bit for bit, as whole-column adds.

    numpy sums each row pairwise: under 8 terms in sequence; up to 128 in
    eight running accumulators, ((r0+r1)+(r2+r3))+((r4+r5)+(r6+r7)), then the
    rest in sequence; more split at a multiple of 8 near the middle. Its +0.0
    start shows only in a -0.0 total, and splats are never negative.
    """
    n = splat.shape[1]
    if n > 128:
        n2 = n // 2 - (n // 2) % 8
        return _bead_sum(splat[:, :n2]) + _bead_sum(splat[:, n2:])
    if n < 8:
        total, rest = splat[:, 0].copy(), 1
    else:
        r = [splat[:, j] for j in range(8)]
        for i in range(8, n - n % 8, 8):
            r = [acc + splat[:, i + j] for j, acc in enumerate(r)]
        total = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]))
        rest = n - n % 8
    for j in range(rest, n):
        total += splat[:, j]
    return total


_SPLAT_CHUNK_BYTES = 1 << 21  # splat bytes per kernel pass, about one L2; part of no artifact


def _render_rows(X: np.ndarray, grid: MapGrid, atom_width: float):
    """Yield (lo, splat, offsets, v_raws) per chunk of rows lo, lo + 1, ... of X.

    The chunk's beads, row after row, are the columns of its per-bead splat,
    shape (n_voxels, n_beads), computed from the per-axis tables
    d_a = axis_a[:, None] - pts[None, :, a] of shape (n_a, n_beads).
    v_raws[r] is the `_bead_sum` of row r's block of columns: bit for bit
    `render_map_raw` of the row alone. The squared distance is broadcast as
    (x^2 + y^2) + z^2, the order in which the brute-force form reduces its
    length-3 axis; x^2 + (y^2 + z^2) rounds differently. Negation, division
    and exp run in the brute-force order, in place. A chunk holds at most
    _SPLAT_CHUNK_BYTES (or one row), in one buffer that the next chunk
    reuses, so a call holds about two chunk-sized buffers at most.
    """
    n = X.shape[1] // 3
    step = max(1, _SPLAT_CHUNK_BYTES // (grid.n_voxels * n * 8))
    buf, axes = np.empty(min(step, len(X)) * grid.n_voxels * n), grid.axes()
    for lo in range(0, len(X), step):
        pts = np.asarray(X[lo : lo + step], dtype=np.float64).reshape(-1, 3)
        offsets = [axis[:, None] - pts[None, :, a] for a, axis in enumerate(axes)]
        sx, sy, sz = (d * d for d in offsets)
        d2 = buf[: grid.n_voxels * len(pts)].reshape(*grid.shape, -1)
        np.add(sx[:, None, None, :] + sy[None, :, None, :], sz[None, None, :, :], out=d2)
        splat = np.negative(d2, out=d2).reshape(grid.n_voxels, -1)
        splat /= 2.0 * atom_width**2
        np.exp(splat, out=splat)
        yield lo, splat, offsets, [_bead_sum(splat[:, j : j + n]) for j in range(0, len(pts), n)]


def _normalize_map(v_raw: np.ndarray):
    """(v_raw - mean) / std and std, in the operations `ndarray.mean`/`std` do."""
    dv = v_raw - v_raw.sum() / v_raw.size
    sd = np.sqrt((dv * dv).sum() / v_raw.size)
    if sd < 1e-300 or not np.isfinite(sd):
        raise DegenerateMapError("rendered map has zero variance")
    dv /= sd
    return dv, sd


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

    Every method takes a (B, 3 * n_beads) batch and renders it through one
    kernel, `_render_rows`, so each row's raw map is its `render_map_raw`,
    and each row gets what it gets as a batch of one. The gradient weights each
    row's splat columns by its g_vraw[m] in the splat's buffer, multiplies
    by each axis's offset table broadcast over the grid, and sums over voxels
    in ascending order with `np.einsum` over all beads (no BLAS call, whose
    blocking would reorder the sum).
    """

    grid: MapGrid
    v_obs: np.ndarray
    atom_width: float = 1.5

    def __post_init__(self):
        v = _finite_array("target map v_obs", self.v_obs).ravel()
        _require_real("atom_width", self.atom_width, above=0)
        if v.size != self.grid.n_voxels:
            raise ValueError("target map size does not match grid")
        if abs(v.mean()) > 1e-8 or abs(v.std() - 1.0) > 1e-8:
            raise ValueError("target map must be normalized to zero mean, unit variance")
        object.__setattr__(self, "v_obs", v)

    @classmethod
    def from_state(cls, x_target: np.ndarray, grid: MapGrid, atom_width: float = 1.5):
        v_raw = next(_render_rows(np.reshape(x_target, (1, -1)), grid, atom_width))[3][0]
        return cls(grid=grid, v_obs=_normalize_map(v_raw)[0], atom_width=atom_width)

    def correlation(self, x: np.ndarray) -> np.ndarray:
        """Each row's `map_correlation` of its raw map with V_obs, from one render pass."""
        chunks = _render_rows(_check_coords(x), self.grid, self.atom_width)
        return np.array([map_correlation(v, self.v_obs) for *_, v_raws in chunks for v in v_raws])

    def value(self, x: np.ndarray) -> np.ndarray:
        chunks = _render_rows(_check_coords(x), self.grid, self.atom_width)
        return np.array([-np.mean((_normalize_map(v)[0] - self.v_obs) ** 2)
                         for *_, v_raws in chunks for v in v_raws])

    def value_and_grad(self, x: np.ndarray):
        X = _check_coords(x)
        vals, grads, M = np.empty(len(X)), np.empty(X.shape), self.grid.n_voxels
        for lo, splat, offsets, v_raws in _render_rows(X, self.grid, self.atom_width):
            rows, g_vraw = len(v_raws), np.empty((M, len(v_raws)))
            for r, v_raw in enumerate(v_raws):
                v, sd = _normalize_map(v_raw)
                cc = float(v @ self.v_obs) / M
                vals[lo + r] = 2.0 * (cc - 1.0)
                # dcc/dV_raw = (V_obs - cc * V) / (M * sd): V_obs is zero-mean, so the
                # mean-shift term vanishes and only the std chain survives.
                g_vraw[:, r] = 2.0 * (self.v_obs - cc * v) / (M * sd)
            # chain through the splats: dV_raw[m]/d pts[b] = splat[m,b] * (c_m - p_b)/aw^2
            # per bead and axis, summed over voxels in ascending order
            w = splat.reshape(M, rows, -1)
            w = np.multiply(w, g_vraw[:, :, None], out=w).reshape(*self.grid.shape, -1)
            k = w.shape[-1]
            if k == 1:  # einsum drops a length-1 bead axis, then sums voxels in blocks
                w, offsets = np.concatenate([w, w], -1), [np.concatenate([d, d], 1) for d in offsets]
            cols = [np.einsum(f"ijkb,{a}b->b", w, d)[:k] for a, d in zip("ijk", offsets)]
            grads[lo : lo + rows] = (np.stack(cols, axis=1) / self.atom_width**2).reshape(rows, -1)
        return vals, grads


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
