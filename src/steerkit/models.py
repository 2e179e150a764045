"""Closed-form conditional denoisers with exact Jacobian-vector products.

These models stand in for a learned denoiser xhat(x, c, sigma): the
conditional prior p(x0 | c) is a Gaussian (or Gaussian mixture) whose mean is
an affine map of a named embedding c, so the posterior mean E[x0 | x_t] under
additive N(0, sigma^2 I) noise is available in closed form, along with exact
transposed-Jacobian (vjp) and Jacobian (jvp) products with respect to both
the coordinates x and the embedding c. Every derivative here is checked
against central finite differences in the verification suite.

Coordinates are flat float64 vectors of dimension D. Embeddings are ordered
named components, each a flat vector; affine maps consume the concatenation
of all components in name order.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

import numpy as np

__all__ = [
    "NonFiniteStateError",
    "Embedding",
    "GaussianPriorModel",
    "MixturePriorModel",
    "score_from_denoiser",
    "make_gaussian_model",
    "make_mixture_model",
]


class NonFiniteStateError(ValueError):
    """A computed value is NaN or inf: a noise grid, an embedding, or a
    trajectory's endpoint or logged values."""


class Embedding:
    """Named collection of flat embedding components.

    Component order is fixed at construction and defines the layout of the
    concatenated vector that affine mean maps consume. Instances are treated
    as immutable; arithmetic returns new objects.
    """

    def __init__(self, components: Dict[str, np.ndarray]):
        self.components = {
            name: np.asarray(v, dtype=np.float64).ravel()
            for name, v in components.items()
        }
        for name, v in self.components.items():
            if not np.all(np.isfinite(v)):
                raise NonFiniteStateError(f"non-finite entries in component {name!r}")

    @property
    def names(self):
        return list(self.components)

    @property
    def dim(self) -> int:
        return sum(v.size for v in self.components.values())

    def flat(self) -> np.ndarray:
        return np.concatenate([self.components[n] for n in self.components])

    def from_flat(self, vec: np.ndarray) -> "Embedding":
        """Split a flat vector back into this embedding's named layout."""
        vec = np.asarray(vec, dtype=np.float64).ravel()
        if vec.size != self.dim:
            raise ValueError("flat vector length does not match embedding dim")
        out, start = {}, 0
        for name, v in self.components.items():
            out[name] = vec[start : start + v.size].copy()
            start += v.size
        return Embedding(out)

    def add(self, other: "Embedding", scale: float = 1.0) -> "Embedding":
        if self.names != other.names:
            raise ValueError("component names differ")
        return Embedding(
            {n: self.components[n] + scale * other.components[n] for n in self.components}
        )

    def zeros_like(self) -> "Embedding":
        return Embedding({n: np.zeros_like(v) for n, v in self.components.items()})

    def copy(self) -> "Embedding":
        return Embedding({n: v.copy() for n, v in self.components.items()})

    def norm(self) -> float:
        return float(np.linalg.norm(self.flat()))

    def __repr__(self):
        shapes = {n: v.size for n, v in self.components.items()}
        return f"Embedding({shapes})"


def _check_coords(x: np.ndarray, D: int) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (D,):
        raise ValueError(f"expected coordinate vector of shape ({D},), got {x.shape}")
    return x


@dataclass(frozen=True, eq=False)
class GaussianPriorModel:
    """Isotropic Gaussian conditional prior N(m(c), s0^2 I), m(c) = W c + b.

    The denoiser is the exact conjugate posterior mean
        xhat = m(c) + k (x - m(c)),   k = s0^2 / (s0^2 + sigma^2),
    affine in both x and c, so all Jacobian products are closed-form:
    J_x = k I and J_c = (1 - k) W. The posterior covariance is
    Cov[x0 | x] = sigma^2 J_x = k sigma^2 I (Tweedie's second-order identity).
    """

    W: np.ndarray
    b: np.ndarray
    s0: float

    def __post_init__(self):
        W = np.atleast_2d(np.asarray(self.W, dtype=np.float64))
        b = np.asarray(self.b, dtype=np.float64).ravel()
        if W.shape[0] != b.size:
            raise ValueError("W row count must match b length")
        if self.s0 <= 0:
            raise ValueError("prior std s0 must be positive")
        object.__setattr__(self, "W", W)
        object.__setattr__(self, "b", b)

    @property
    def D(self) -> int:
        return self.b.size

    def shrinkage(self, sigma: float) -> float:
        return self.s0**2 / (self.s0**2 + sigma**2)

    def posterior_variance(self, sigma: float) -> float:
        """Per-coordinate variance of x0 given x at noise level sigma, k sigma^2."""
        return self.shrinkage(sigma) * sigma**2

    def mean(self, c: Embedding) -> np.ndarray:
        return self.W @ c.flat() + self.b

    def denoise(self, x: np.ndarray, c: Embedding, sigma: float) -> np.ndarray:
        x = _check_coords(x, self.D)
        if sigma == 0.0:
            return x.copy()
        m = self.mean(c)
        return m + self.shrinkage(sigma) * (x - m)

    def vjp_x(self, x, c: Embedding, sigma: float, v: np.ndarray) -> np.ndarray:
        _check_coords(x, self.D)
        v = _check_coords(v, self.D)
        k = 1.0 if sigma == 0.0 else self.shrinkage(sigma)
        return k * v

    def vjp_c(self, x, c: Embedding, sigma: float, v: np.ndarray) -> Embedding:
        _check_coords(x, self.D)
        v = _check_coords(v, self.D)
        k = 1.0 if sigma == 0.0 else self.shrinkage(sigma)
        return c.from_flat((1.0 - k) * (self.W.T @ v))

    def jvp_c(self, x, c: Embedding, sigma: float, u: Embedding) -> np.ndarray:
        _check_coords(x, self.D)
        k = 1.0 if sigma == 0.0 else self.shrinkage(sigma)
        return (1.0 - k) * (self.W @ u.flat())

    def sample_prior(self, c: Embedding, rng: np.random.Generator) -> np.ndarray:
        return self.mean(c) + self.s0 * rng.standard_normal(self.D)


@dataclass(frozen=True, eq=False)
class MixturePriorModel:
    """K-mode Gaussian mixture prior, mode k: weight pi_k, N(W_k c + b_k, s_k^2 I).

    The denoiser is the responsibility-weighted combination of per-mode
    posterior means,

        xhat = sum_k r_k h_k,  h_k = m_k + k_k (x - m_k),
        r_k  = softmax_k( log pi_k - D/2 log(2 pi a_k) - ||x - m_k||^2 / 2 a_k ),

    with a_k = s_k^2 + sigma^2 and k_k = s_k^2 / a_k. vjp/jvp include the
    responsibility derivatives (r_k depends on x directly and on c through
    every m_k). Responsibilities are formed in log-space so large ||x|| cannot
    overflow.
    """

    weights: np.ndarray
    Ws: np.ndarray
    bs: np.ndarray
    stds: np.ndarray

    def __post_init__(self):
        pi = np.asarray(self.weights, dtype=np.float64).ravel()
        Ws = np.asarray(self.Ws, dtype=np.float64)
        bs = np.atleast_2d(np.asarray(self.bs, dtype=np.float64))
        s = np.asarray(self.stds, dtype=np.float64).ravel()
        K = pi.size
        if Ws.ndim != 3 or Ws.shape[0] != K or bs.shape != (K, Ws.shape[1]):
            raise ValueError("per-mode shapes inconsistent")
        if s.shape != (K,) or np.any(s <= 0):
            raise ValueError("per-mode stds must be positive")
        if np.any(pi <= 0) or abs(pi.sum() - 1.0) > 1e-12:
            raise ValueError("mode weights must be positive and sum to 1")
        object.__setattr__(self, "weights", pi)
        object.__setattr__(self, "Ws", Ws)
        object.__setattr__(self, "bs", bs)
        object.__setattr__(self, "stds", s)

    @property
    def K(self) -> int:
        return self.weights.size

    @property
    def D(self) -> int:
        return self.Ws.shape[1]

    def mode_means(self, c: Embedding) -> np.ndarray:
        return self.Ws @ c.flat() + self.bs  # (K, D)

    def _parts(self, x: np.ndarray, c: Embedding, sigma: float):
        """Shared intermediates: means, variances, responsibilities."""
        x = _check_coords(x, self.D)
        m = self.mode_means(c)
        a = self.stds**2 + sigma**2  # (K,)
        kk = self.stds**2 / a
        diff = x[None, :] - m  # (K, D)
        q = np.einsum("kd,kd->k", diff, diff)
        log_r = np.log(self.weights) - 0.5 * self.D * np.log(2 * np.pi * a) - q / (2 * a)
        log_r -= log_r.max()
        r = np.exp(log_r)
        r /= r.sum()
        h = m + kk[:, None] * diff  # per-mode posterior means (K, D)
        return m, a, kk, diff, r, h

    def responsibilities(self, x, c: Embedding, sigma: float) -> np.ndarray:
        return self._parts(x, c, sigma)[4]

    def denoise(self, x: np.ndarray, c: Embedding, sigma: float) -> np.ndarray:
        _, _, _, _, r, h = self._parts(x, c, sigma)
        return r @ h

    def vjp_x(self, x, c: Embedding, sigma: float, v: np.ndarray) -> np.ndarray:
        v = _check_coords(v, self.D)
        _, a, kk, diff, r, h = self._parts(x, c, sigma)
        # d log N_k / dx = -(x - m_k)/a_k
        u = -diff / a[:, None]  # (K, D)
        ubar = r @ u
        hv = h @ v  # (K,)
        return (r @ kk) * v + ((hv * r) @ (u - ubar[None, :]))

    def vjp_c(self, x, c: Embedding, sigma: float, v: np.ndarray) -> Embedding:
        v = _check_coords(v, self.D)
        _, a, kk, diff, r, h = self._parts(x, c, sigma)
        # d log N_k / dc = W_k^T (x - m_k)/a_k
        wk = np.einsum("kdp,kd->kp", self.Ws, diff / a[:, None])  # (K, d)
        wbar = r @ wk
        hv = h @ v
        direct = np.einsum("k,kdp,d->p", r * (1.0 - kk), self.Ws, v)
        resp = (hv * r) @ (wk - wbar[None, :])
        return c.from_flat(direct + resp)

    def jvp_c(self, x, c: Embedding, sigma: float, u: Embedding) -> np.ndarray:
        uf = u.flat()
        _, a, kk, diff, r, h = self._parts(x, c, sigma)
        wk = np.einsum("kdp,kd->kp", self.Ws, diff / a[:, None])
        wbar = r @ wk
        direct = np.einsum("k,kdp,p->d", r * (1.0 - kk), self.Ws, uf)
        resp = ((wk - wbar[None, :]) @ uf * r) @ h
        return direct + resp

    def sample_prior(self, c: Embedding, rng: np.random.Generator) -> np.ndarray:
        k = rng.choice(self.K, p=self.weights)
        m = self.mode_means(c)[k]
        return m + self.stds[k] * rng.standard_normal(self.D)


def score_from_denoiser(x_hat: np.ndarray, x: np.ndarray, sigma: float) -> np.ndarray:
    """Score estimate (xhat - x)/sigma^2 at noise level sigma > 0."""
    if sigma == 0.0:
        raise ZeroDivisionError("score undefined at sigma=0")
    return (np.asarray(x_hat, dtype=np.float64) - np.asarray(x, dtype=np.float64)) / sigma**2


def make_gaussian_model(
    component_dims: Dict[str, int],
    D: int,
    s0: float,
    seed: int | None = None,
    identity: bool = False,
) -> GaussianPriorModel:
    """Build a Gaussian prior model with a seeded standard-normal mean map.

    identity=True requires the total embedding dim to equal D and sets
    W = I, b = 0 (the scalar synthetic task uses this with D = 1).
    """
    d = sum(component_dims.values())
    if identity:
        if d != D:
            raise ValueError("identity mean map needs embedding dim == D")
        return GaussianPriorModel(W=np.eye(D), b=np.zeros(D), s0=s0)
    rng = np.random.default_rng(seed)
    return GaussianPriorModel(W=rng.standard_normal((D, d)), b=np.zeros(D), s0=s0)


def make_mixture_model(
    component_dims: Dict[str, int],
    D: int,
    weights,
    stds,
    seed: int,
    mean_scale: float = 1.0,
) -> MixturePriorModel:
    """Build a mixture model with seeded standard-normal W_k and offsets b_k."""
    pi = np.asarray(weights, dtype=np.float64)
    K = pi.size
    d = sum(component_dims.values())
    rng = np.random.default_rng(seed)
    Ws = rng.standard_normal((K, D, d))
    bs = mean_scale * rng.standard_normal((K, D))
    return MixturePriorModel(weights=pi, Ws=Ws, bs=bs, stds=np.asarray(stds, dtype=np.float64))
