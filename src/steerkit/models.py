"""Closed-form conditional denoisers with exact Jacobian-vector products.

These models stand in for a learned denoiser xhat(x, c, sigma): the
conditional prior p(x0 | c) is a Gaussian (or Gaussian mixture) whose mean is
an affine map of a named embedding c, so the posterior mean E[x0 | x_t] under
additive N(0, sigma^2 I) noise is available in closed form, along with exact
transposed-Jacobian (vjp) and Jacobian (jvp) products with respect to both
the coordinates x and the embedding c. Every derivative here is checked
against central finite differences in the verification suite.

Every product takes coordinates as a (B, D) float64 batch, one trajectory
per row, and returns one result row per row; any other shape, a single
(D,) vector included, is a ValueError. Embeddings are ordered named
components stored in one flat buffer, of shape (d,) or (B, d); affine maps
consume that buffer. An unbatched embedding serves every row of a batch.

Batched products are written so that every row is bit-identical to the same
product on that row as a batch of one: np.matmul over a stack (one BLAS call
per row), np.vecdot for dot products and norms, and einsum with the batch as
an extra free index. A (B, D) @ (D, d) GEMM would block by B and round
differently. `parts` computes the intermediates a step shares between the
denoiser and its pullback at one (x, c, sigma).

Each model memoises, in one read-only entry, the means of the last embedding
object (a step's second denoise and the next step's first share c); a hit
returns the same bits the operations give. The mixture computes
log(weights) and stds**2 once, at construction.
"""

from __future__ import annotations

import math
import numbers
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


def _require_real(name: str, value, least=None, above=None) -> None:
    """Raise ValueError unless value is a real number with a finite float (a bool is
    not one), at least `least` and above `above` where given, so NaN never passes."""
    try:
        if (not isinstance(value, bool) and isinstance(value, numbers.Real) and math.isfinite(value)
                and (least is None or value >= least) and (above is None or value > above)):
            return
    except OverflowError:
        pass
    raise ValueError(f"{name} must be a finite number" + ("" if least is None else f" >= {least}")
                     + ("" if above is None else f" > {above}") + f", not {value!r}")


def _finite_array(name: str, value) -> np.ndarray:
    """value as a float64 array; ValueError unless it converts (a word, an object or
    10**400 does not, and None becomes NaN) and every entry is finite."""
    try:
        arr = np.asarray(value, dtype=np.float64)
        if np.isfinite(arr).all():
            return arr
    except (TypeError, ValueError, OverflowError):
        pass
    raise ValueError(f"{name} must be an array of finite numbers")


def _require_int(name: str, value, least: int = 1) -> int:
    """value as an int; ValueError unless it is an integer (a bool is not one) >= least."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < least:
        raise ValueError(f"{name} must be an integer of at least {least}, not {value!r}")
    return int(value)


class Embedding:
    """Named embedding components stored in one flat float64 buffer.

    Component order is fixed at construction and defines the buffer layout
    that affine mean maps consume. The buffer has shape (d,), or (B, d) for a
    batch with one embedding row per trajectory; `components` are read-only
    views of it. Instances are immutable; arithmetic returns new objects.
    """

    __slots__ = ("_layout", "_buf", "_views")

    def __init__(self, components: Dict[str, np.ndarray]):
        parts = [np.asarray(v, dtype=np.float64).ravel() for v in components.values()]
        layout = tuple((name, p.size) for name, p in zip(components, parts))
        self._set(layout, np.concatenate(parts) if parts else np.zeros(0))

    def _set(self, layout, buf: np.ndarray) -> None:
        buf.flags.writeable = False
        self._layout = layout
        self._buf = buf
        self._views = None
        if not np.isfinite(buf).all():
            bad = next(n for n, v in self.components.items() if not np.isfinite(v).all())
            raise NonFiniteStateError(f"non-finite entries in component {bad!r}")

    def _like(self, buf: np.ndarray) -> "Embedding":
        """An embedding with this layout over `buf`, which it takes over."""
        out = Embedding.__new__(Embedding)
        out._set(self._layout, buf)
        return out

    @property
    def components(self) -> Dict[str, np.ndarray]:
        if self._views is None:
            views, start = {}, 0
            for name, size in self._layout:
                views[name] = self._buf[..., start : start + size]
                start += size
            self._views = views
        return self._views

    @property
    def names(self):
        return [name for name, _ in self._layout]

    @property
    def sizes(self) -> tuple:
        """Component sizes in buffer order."""
        return tuple(size for _, size in self._layout)

    @property
    def dim(self) -> int:
        return self._buf.shape[-1]

    @property
    def batch(self):
        """Row count B of a batch, or None for a single embedding."""
        return self._buf.shape[0] if self._buf.ndim == 2 else None

    def flat(self) -> np.ndarray:
        """The read-only buffer, shape (d,) or (B, d)."""
        return self._buf

    def broadcast(self, B: int) -> "Embedding":
        """This embedding as a B-row batch (a view); a batch must have B rows."""
        return self._like(np.broadcast_to(self._buf, (B, self.dim)))

    def from_flat(self, vec: np.ndarray) -> "Embedding":
        """Split a flat vector, or a (B, d) batch of them, into this layout."""
        vec = np.array(vec, dtype=np.float64)
        if vec.ndim == 0 or vec.ndim > 2 or vec.shape[-1] != self.dim:
            raise ValueError("flat vector length does not match embedding dim")
        return self._like(vec)

    def add(self, other: "Embedding", scale=1.0) -> "Embedding":
        """self + scale * other; scale may hold one value per row."""
        if self._layout != other._layout:
            raise ValueError("component names differ")
        scale = np.asarray(scale, dtype=np.float64)
        return self._like(self._buf + scale[..., None] * other._buf)

    def norm(self):
        """Euclidean norm: a float, or one per row of a batch."""
        return _norm(self._buf)

    def __repr__(self):
        shapes = {n: size for n, size in self._layout}
        rows = "" if self.batch is None else f", batch={self.batch}"
        return f"Embedding({shapes}{rows})"


def _norm(v: np.ndarray):
    """Norm over the last axis, bit-identical to np.linalg.norm of each row."""
    n = np.sqrt(np.vecdot(v, v))
    return float(n) if n.ndim == 0 else n


def _matvec(A: np.ndarray, v: np.ndarray) -> np.ndarray:
    """A @ v for v of shape (n,) or a (B, n) batch, one stacked matvec per row."""
    if v.ndim == 1:
        return A @ v
    lead = (slice(None),) + (None,) * (A.ndim - 2)
    return np.matmul(A, v[lead + (slice(None), None)])[..., 0]


def _vecmat(r: np.ndarray, M: np.ndarray) -> np.ndarray:
    """Row-wise r[b] @ M[b] for r of shape (B, K) and M of shape (B, K, n)."""
    return np.matmul(r[:, None, :], M)[:, 0, :]


def _memo_affine(last: list, A: np.ndarray, b: np.ndarray, c: Embedding) -> np.ndarray:
    """A c + b, read-only; `last` holds the last (embedding, result) pair,
    reused while that embedding object, which is immutable, comes back."""
    if last[0] is not c:
        m = _matvec(A, c.flat()) + b
        m.flags.writeable = False
        last[:] = (c, m)
    return last[1]


def _check_coords(x: np.ndarray, D: int | None = None) -> np.ndarray:
    """x as a (B, D) float64 batch, of any width D when D is None; ValueError otherwise."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != (D or x.shape[1]):
        raise ValueError(f"expected coordinates of shape (B, {D or 'D'}), got {x.shape}")
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
        W = np.atleast_2d(_finite_array("W", self.W))
        b = _finite_array("b", self.b).ravel()
        if W.shape[0] != b.size:
            raise ValueError("W row count must match b length")
        _require_real("prior std s0", self.s0, above=0)
        object.__setattr__(self, "W", W)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "_last_mean", [None, None])

    @property
    def D(self) -> int:
        return self.b.size

    def shrinkage(self, sigma: float) -> float:
        return self.s0**2 / (self.s0**2 + sigma**2)

    def posterior_variance(self, sigma: float) -> float:
        """Per-coordinate variance of x0 given x at noise level sigma, k sigma^2."""
        return self.shrinkage(sigma) * sigma**2

    def mean(self, c: Embedding) -> np.ndarray:
        """W c + b, read-only and memoised."""
        return _memo_affine(self._last_mean, self.W, self.b, c)

    def parts(self, x, c: Embedding, sigma: float):
        """Nothing to share: every product here is one affine map."""
        return None

    def denoise(self, x: np.ndarray, c: Embedding, sigma: float, parts=None) -> np.ndarray:
        x = _check_coords(x, self.D)
        if sigma == 0.0:
            return x.copy()
        m = self.mean(c)
        return m + self.shrinkage(sigma) * (x - m)

    def vjp_x(self, x, c: Embedding, sigma: float, v: np.ndarray, parts=None) -> np.ndarray:
        _check_coords(x, self.D)
        v = _check_coords(v, self.D)
        k = self.shrinkage(sigma)
        return k * v

    def vjp_c(self, x, c: Embedding, sigma: float, v: np.ndarray, parts=None) -> Embedding:
        _check_coords(x, self.D)
        v = _check_coords(v, self.D)
        k = self.shrinkage(sigma)
        return c._like((1.0 - k) * _matvec(self.W.T, v))

    def jvp_c(self, x, c: Embedding, sigma: float, u: Embedding, parts=None) -> np.ndarray:
        x = _check_coords(x, self.D)
        k = self.shrinkage(sigma)
        out = (1.0 - k) * _matvec(self.W, u.flat())
        return np.broadcast_to(out, x.shape).copy()


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
        pi = _finite_array("weights", self.weights).ravel()
        Ws = _finite_array("Ws", self.Ws)
        bs = np.atleast_2d(_finite_array("bs", self.bs))
        s = _finite_array("stds", self.stds).ravel()
        K = pi.size
        if Ws.ndim != 3 or Ws.shape[0] != K or bs.shape != (K, Ws.shape[1]):
            raise ValueError("per-mode shapes inconsistent")
        with np.errstate(over="ignore"):
            s2 = s**2
        if s.shape != (K,) or not np.all(s > 0) or not np.isfinite(s2).all():
            raise ValueError("per-mode stds must be positive with a finite square")
        if not np.all(pi > 0) or abs(pi.sum() - 1.0) > 1e-12:
            raise ValueError("mode weights must be positive and sum to 1")
        object.__setattr__(self, "weights", pi)
        object.__setattr__(self, "Ws", Ws)
        object.__setattr__(self, "bs", bs)
        object.__setattr__(self, "stds", s)
        object.__setattr__(self, "_log_w", np.log(pi))
        object.__setattr__(self, "_s2", s2)
        object.__setattr__(self, "_last_means", [None, None])

    @property
    def K(self) -> int:
        return self.weights.size

    @property
    def D(self) -> int:
        return self.Ws.shape[1]

    def mode_means(self, c: Embedding) -> np.ndarray:
        """(K, D), or (B, K, D) for a batch; read-only and memoised."""
        return _memo_affine(self._last_means, self.Ws, self.bs, c)

    def parts(self, x: np.ndarray, c: Embedding, sigma: float):
        """Intermediates that denoise and the vjps/jvp share at (x, c, sigma):
        means, variances, shrinkages, offsets, responsibilities and per-mode
        posterior means, each with a leading batch axis."""
        x = _check_coords(x, self.D)
        m = self.mode_means(c)
        a = self._s2 + sigma**2  # (K,)
        kk = self._s2 / a
        diff = x[:, None, :] - m  # (B, K, D)
        q = np.einsum("bkd,bkd->bk", diff, diff)
        log_r = self._log_w - 0.5 * self.D * np.log(2 * np.pi * a) - q / (2 * a)
        log_r -= log_r.max(axis=1, keepdims=True)
        r = np.exp(log_r)
        r /= r.sum(axis=1, keepdims=True)
        h = m + kk[:, None] * diff  # per-mode posterior means (B, K, D)
        return m, a, kk, diff, r, h

    def responsibilities(self, x, c: Embedding, sigma: float) -> np.ndarray:
        return self.parts(x, c, sigma)[4]

    def denoise(self, x: np.ndarray, c: Embedding, sigma: float, parts=None) -> np.ndarray:
        _, _, _, _, r, h = parts or self.parts(x, c, sigma)
        return _vecmat(r, h)

    def vjp_x(self, x, c: Embedding, sigma: float, v: np.ndarray, parts=None) -> np.ndarray:
        v = _check_coords(v, self.D)
        _, a, kk, diff, r, h = parts or self.parts(x, c, sigma)
        # d log N_k / dx = -(x - m_k)/a_k
        u = -diff / a[:, None]  # (B, K, D)
        ubar = _vecmat(r, u)
        hv = np.matmul(h, v[:, :, None])[..., 0]  # (B, K)
        return np.vecdot(r, kk)[:, None] * v + _vecmat(hv * r, u - ubar[:, None, :])

    def vjp_c(self, x, c: Embedding, sigma: float, v: np.ndarray, parts=None) -> Embedding:
        v = _check_coords(v, self.D)
        _, a, kk, diff, r, h = parts or self.parts(x, c, sigma)
        # d log N_k / dc = W_k^T (x - m_k)/a_k
        wk = np.einsum("kdp,bkd->bkp", self.Ws, diff / a[:, None])  # (B, K, d)
        wbar = _vecmat(r, wk)
        hv = np.matmul(h, v[:, :, None])[..., 0]
        direct = np.einsum("bk,kdp,bd->bp", r * (1.0 - kk), self.Ws, v)
        resp = _vecmat(hv * r, wk - wbar[:, None, :])
        return c._like(direct + resp)

    def jvp_c(self, x, c: Embedding, sigma: float, u: Embedding, parts=None) -> np.ndarray:
        uf = u.flat()
        _, a, kk, diff, r, h = parts or self.parts(x, c, sigma)
        uf = np.broadcast_to(uf, (r.shape[0], uf.shape[-1]))
        wk = np.einsum("kdp,bkd->bkp", self.Ws, diff / a[:, None])
        wbar = _vecmat(r, wk)
        direct = np.einsum("bk,kdp,bp->bd", r * (1.0 - kk), self.Ws, uf)
        resp = _vecmat(np.matmul(wk - wbar[:, None, :], uf[:, :, None])[..., 0] * r, h)
        return direct + resp


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
) -> GaussianPriorModel:
    """Build a Gaussian prior model with a seeded standard-normal mean map W and b = 0."""
    d = sum(component_dims.values())
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
