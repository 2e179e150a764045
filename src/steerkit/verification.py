"""Independent numeric oracles and the self-check suite.

Everything here exists to catch the implementation lying to itself. The
analytic derivatives in models/rewards are compared against central finite
differences, the scalar task against its conjugate closed form, the mixture
denoiser against a Gauss-Hermite quadrature of its posterior mean (to 1e-10)
and against importance sampling (to 3 standard errors), and the steering loop
against structural audits: the adjoint identity between vjp and jvp, the
first-order (Taylor) prediction of the embedding-ascent coordinate step, the
exact-reduction identities, and the surrogate ascent audit.

The ascent audit checks what embedopt_step promises: each embedding update
raises the surrogate F(x_t, ., sigma_t) at the point where it is taken, on
every step inside the first-order trust region. It does not compare the
logged pre-update F across steps, since x_t and sigma_t move between them;
that whole-trajectory figure is still reported in the row's detail. On the
scalar task xhat is affine in c and R is quadratic, so there an audited
update can fail only if it has the wrong sign. The audit is evidence of
ascent only on the two-mode distance task, where xhat is nonlinear in c and
the reward is clipped; it runs there with the raw-gradient step.

`run_verification_suite` returns one (name, passed, detail) row per check and
never raises on a failed check. `steerkit verify` prints them, and with --out
writes them and the suite's telemetry. Failures are reported, not hidden:
each row states its measured numbers.
"""

from __future__ import annotations

import sys
import time
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from .models import (
    Embedding,
    GaussianPriorModel,
    MixturePriorModel,
    make_gaussian_model,
    make_mixture_model,
    score_from_denoiser,
)
from .rewards import (
    DistanceConstraintReward,
    GaussianMeasurementReward,
    MapGrid,
    MapMSEReward,
    map_correlation,
    render_map,
)
from .samplers import Af3SamplerParams, af3_noise_inflate
from .steering import (
    SteeringConfig,
    embedopt_step,
    run_steered,
    taylor_predicted_step,
)
# summarize_samples is no longer called here, but the benchmark's tracer wraps
# it under this module's name, so it stays importable from here
from .tasks import build_synthetic_task, build_toy_task, conjugate_posterior, summarize_samples  # noqa: F401

try:
    import resource
except ImportError:  # Windows has no getrusage
    resource = None

__all__ = [
    "OracleFailureError",
    "fd_gradient",
    "rel_error",
    "MonotonicityReport",
    "check_monotone_surrogate",
    "AscentAudit",
    "audit_embedding_ascent",
    "taylor_gap_scaling",
    "CheckResult",
    "run_verification_suite",
]


class OracleFailureError(RuntimeError):
    """An oracle itself produced unusable output (non-finite, degenerate)."""


def fd_gradient(
    f: Callable[[np.ndarray], np.ndarray],
    point: np.ndarray,
) -> np.ndarray:
    """Central-difference gradient at a flat vector of n entries, for f over an
    (m, n) batch that returns one value per row.

    The step is h = 1e-5 * (1 + ||point||), a good float64 compromise between
    truncation (O(h^2)) and cancellation (O(eps/h)) error. The 2n perturbed
    points, each coordinate stepped up and then down, go to f as one batch.
    """
    point = np.asarray(point, dtype=np.float64).ravel()
    h = 1e-5 * (1.0 + float(np.linalg.norm(point)))
    steps = h * np.eye(point.size)
    values = np.asarray(f(np.concatenate([point + steps, point - steps])), dtype=np.float64)
    g = (values[: point.size] - values[point.size :]) / (2.0 * h)
    if not np.all(np.isfinite(g)):
        raise OracleFailureError("finite-difference gradient is not finite")
    return g


def rel_error(a: np.ndarray, b: np.ndarray) -> float:
    """||a - b|| relative to ||b|| with a tiny floor on the denominator."""
    a = np.asarray(a, dtype=np.float64).ravel()
    b = np.asarray(b, dtype=np.float64).ravel()
    return float(np.linalg.norm(a - b) / max(float(np.linalg.norm(b)), 1e-12))


def _nan_max(worst: float, x: float) -> float:
    """max(worst, x), except that a NaN in either gives NaN.

    Python's max(worst, nan) keeps worst, so a NaN measurement would pass its
    row; every running worst in the suite goes through here instead.
    """
    return x if x != x or x > worst else worst


@dataclass(frozen=True)
class MonotonicityReport:
    """Count of surrogate decreases along a trajectory beyond 1e-9."""

    total_steps: int
    violations: int
    max_violation_magnitude: float


def check_monotone_surrogate(F: np.ndarray) -> MonotonicityReport:
    """Audit a trajectory's logged surrogate F for decreases larger than 1e-9.

    F is a TrajectoryRecord's F: values in sampling order (earliest step
    first), or None, which raises ValueError, when no reward was logged. A
    transition from F_t to F_{t-1} counts as a violation when F_{t-1} < F_t - 1e-9.
    """
    if F is None:
        raise ValueError("trajectory has no logged surrogate reward")
    F = np.asarray(F, dtype=np.float64).ravel()
    if F.size < 2:
        raise ValueError("need at least two surrogate values to audit")
    if not np.all(np.isfinite(F)):
        raise ValueError("surrogate trajectory contains non-finite values")
    decreases = F[:-1] - F[1:]
    mask = decreases > 1e-9
    violations = int(mask.sum())
    worst = float(decreases[mask].max()) if violations else 0.0
    return MonotonicityReport(
        total_steps=F.size - 1,
        violations=violations,
        max_violation_magnitude=worst,
    )


@dataclass(frozen=True)
class AscentAudit:
    """Per-update ascent audit of one embedding-ascent trajectory.

    updates counts every embedding update, audited those inside the trust
    region, and violations the audited updates that lowered the surrogate at
    the point where they were taken by more than 1e-9.
    """

    updates: int
    audited: int
    violations: int
    max_violation_magnitude: float


def audit_embedding_ascent(
    model, reward, c_init: Embedding, schedule, config: SteeringConfig,
    rngs: Sequence[np.random.Generator],
):
    """Run a batch of embedopt trajectories and audit every update where it is taken.

    An update c_t -> c_{t-1} at (x_t, sigma_t) violates when
    F(x_t, c_{t-1}, sigma_t) < F(x_t, c_t, sigma_t) - 1e-9. Only updates in
    the trust region are audited: those whose first-order gain
    <grad_c F, c_{t-1} - c_t> is no larger than the gap -F to the reward's
    supremum (every reward here is <= 0). A fixed-length step outside it can
    overshoot the ceiling, which no first-order method promises to avoid.
    For an affine denoiser and a quadratic reward, every correctly signed
    update inside it ascends; elsewhere the region is only first-order, and
    a step inside it can still lower F.
    The deterministic sampler re-evaluates the denoiser at (x_t, c_{t-1},
    sigma_t) for its coordinate step, so the audit only adds a reward
    evaluation of that output for the audited rows, and only here, never in
    runs that write artifacts. rngs holds one generator per row (see
    run_steered). Returns the batch's SteeringResult and one AscentAudit per
    row.
    """
    if config.method != "embedopt":
        raise ValueError("the ascent audit needs config.method 'embedopt'")
    if config.sampler_mode != "deterministic":
        raise ValueError("the ascent audit needs the deterministic sampler")
    B = len(rngs)
    tol = 1e-9
    audited = np.zeros(B, dtype=int)
    violations = np.zeros(B, dtype=int)
    worst = np.zeros(B)

    def on_update(x_t, c_t, sigma_t, c_prev, info):
        F = info["F"]
        gain = 0.0  # <grad_c F, c_{t-1} - c_t>, summed component by component
        for name, g in info["grad"].components.items():
            gain = gain + np.vecdot(g, c_prev.components[name] - c_t.components[name])
        rows = np.flatnonzero(~(gain > -F))
        if rows.size == 0:
            return
        audited[rows] += 1
        drop = F[rows] - reward.value(info["x_hat_step"][rows])  # xhat(x_t, c_{t-1}, sigma_t)
        bad = rows[drop > tol]
        violations[bad] += 1
        worst[bad] = np.maximum(worst[bad], drop[drop > tol])

    res = run_steered(model, reward, c_init, schedule, config, rngs, on_update=on_update)
    audits = [
        AscentAudit(schedule.num_steps, int(audited[b]), int(violations[b]), float(worst[b]))
        for b in range(B)
    ]
    return res, audits


def taylor_gap_scaling(
    model,
    reward,
    probes: Sequence[tuple],
    alpha: float = 1e-2,
) -> dict:
    """Measure how the step-vs-linearization gap scales when alpha halves.

    For each probe (x, c, sigma_t, sigma_prev) the gap is the norm between
    the actual RMS-normalized embedding-ascent coordinate step and its
    first-order prediction, evaluated at alpha and alpha/2. Quadratic
    remainders give a ratio near 4. Probes where both gaps sit below 1e-14
    are counted as exact (affine case) and excluded from the ratio statistics.
    """
    ratios: List[float] = []
    n_exact = 0
    for x, c, sigma_t, sigma_prev in probes:
        gaps = []
        for a in (alpha, alpha / 2.0):
            x_step, _, _ = embedopt_step(model, reward, x, c, sigma_t, sigma_prev, a)
            x_pred = taylor_predicted_step(model, reward, x, c, sigma_t, sigma_prev, a)
            gaps.append(float(np.linalg.norm(x_step - x_pred)))
        if gaps[0] < 1e-14 and gaps[1] < 1e-14:
            n_exact += 1
            continue
        ratios.append(gaps[0] / gaps[1])
    return {
        "ratios": ratios,
        "n_exact": n_exact,
        "median_ratio": _median(ratios) if ratios else None,
    }


def _median(values: Sequence[float]) -> float:
    """np.median's bits without its numpy.ma import: the middle sorted value, or
    the mean of the middle two for an even count; NaN if any value is NaN."""
    s, h = sorted(values), len(values) // 2
    mid = s[h] if len(s) % 2 else (s[h - 1] + s[h]) / 2
    return float("nan") if any(v != v for v in s) else mid


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str

    def __post_init__(self):
        # a numpy comparison gives np.bool_, which the JSON report cannot hold
        object.__setattr__(self, "passed", bool(self.passed))


def _worst_row(name: str, worst: float, tol: float, what: str, n: int, unit: str = "probes") -> CheckResult:
    """The row of a check that passes when its worst error over n probes is below tol (NaN fails)."""
    return CheckResult(name, worst < tol, f"{what} {worst:.3e} over {n} {unit} (tol {tol:g})")


# ---------------------------------------------------------------------------
# suite fixtures


def _gaussian_fixture(seed: int) -> Tuple[GaussianPriorModel, Embedding]:
    model = make_gaussian_model({"u": 3, "v": 4}, D=6, s0=0.7, seed=seed)
    rng = np.random.default_rng(seed + 1000)
    c = Embedding({"u": rng.standard_normal(3), "v": rng.standard_normal(4)})
    return model, c


def _mixture_fixture(seed: int) -> Tuple[MixturePriorModel, Embedding]:
    model = make_mixture_model(
        {"u": 3, "v": 4}, D=6,
        weights=(0.5, 0.3, 0.2), stds=(0.4, 0.7, 1.0),
        seed=seed, mean_scale=1.5,
    )
    rng = np.random.default_rng(seed + 2000)
    c = Embedding({"u": rng.standard_normal(3), "v": rng.standard_normal(4)})
    return model, c


def _probes(make_fixture, base: int, n_probes: int):
    """Probe p of a model row: (model, c, rng, x, sigma), the fixture seeded base + p, then
    x (a batch of one) and a log-uniform sigma in [0.05, 3] from rng, seeded base + 200 + p."""
    for p in range(n_probes):
        model, c = make_fixture(seed=base + p)
        rng = np.random.default_rng(base + 200 + p)
        x = 2.0 * rng.standard_normal((1, model.D))
        yield model, c, rng, x, float(np.exp(rng.uniform(np.log(0.05), np.log(3.0))))


def _model_fd_rows(make_fixture, label: str, n_probes: int, tol: float) -> List[CheckResult]:
    """FD-check vjp_x, vjp_c, jvp_c of a denoiser family at random probes."""
    worst = {"vjp_x": 0.0, "vjp_c": 0.0, "jvp_c": 0.0}
    for model, c, rng, x, sigma in _probes(make_fixture, 100, n_probes):
        v = rng.standard_normal((1, model.D))
        u = c.from_flat(rng.standard_normal(c.dim))

        got = model.vjp_x(x, c, sigma, v)
        want = fd_gradient(lambda z: np.vecdot(model.denoise(z, c, sigma), v[0]), x)
        worst["vjp_x"] = _nan_max(worst["vjp_x"], rel_error(got, want))

        got = model.vjp_c(x, c, sigma, v).flat()
        want = fd_gradient(
            lambda z: np.vecdot(model.denoise(x, c.from_flat(z), sigma), v[0]), c.flat()
        )
        worst["vjp_c"] = _nan_max(worst["vjp_c"], rel_error(got, want))

        got = model.jvp_c(x, c, sigma, u)
        h = 1e-5 * (1.0 + c.norm())
        want = (
            model.denoise(x, c.add(u, h), sigma) - model.denoise(x, c.add(u, -h), sigma)
        ) / (2.0 * h)
        worst["jvp_c"] = _nan_max(worst["jvp_c"], rel_error(got, want))
    return [
        _worst_row(f"fd_{label}_{kind}", err, tol, "max rel err", n_probes)
        for kind, err in worst.items()
    ]


def _distance_probe(rng: np.random.Generator, reward: DistanceConstraintReward, n_beads: int):
    """Bead configuration away from the plateau boundary and coincidence."""
    for _ in range(200):
        x = 3.0 * rng.standard_normal((1, 3 * n_beads))
        d = reward.distances(x)[0]
        dev = np.abs(d - reward.targets)
        if np.all(np.abs(dev - reward.delta) > 0.05) and np.all(d > 0.3):
            return x
    raise OracleFailureError("could not sample a distance probe off the boundary")


def _gaussian_reward_probe(rng):
    reward = GaussianMeasurementReward(
        y=rng.standard_normal(6), tau2=float(rng.uniform(0.5, 2.0)),
        w=float(rng.uniform(0.2, 5.0)),
    )
    return reward, 2.0 * rng.standard_normal((1, 6))


def _distance_reward_probe(rng):
    pairs = ((0, 1), (1, 2), (2, 3), (3, 4), (0, 4))
    targets = rng.uniform(1.0, 4.0, size=len(pairs))
    reward = DistanceConstraintReward(pairs=pairs, targets=targets, delta=2.0)
    return reward, _distance_probe(rng, reward, n_beads=5)


def _map_reward_probe(rng):
    grid = MapGrid(shape=(6, 6, 6), origin=np.array([-3.0, -3.0, -3.0]), spacing=1.2)
    reward = MapMSEReward.from_state(1.5 * rng.standard_normal(12), grid, atom_width=1.5)
    return reward, 1.5 * rng.standard_normal((1, 12))


def _reward_fd_rows(n_probes: int, tol: float) -> List[CheckResult]:
    """Each reward's analytic gradient against central differences at a batch
    of one; probe p of a reward draws from its own generator, seeded base + p."""
    rows = []
    for label, seed_base, probe in (
        ("gaussian", 500, _gaussian_reward_probe),
        ("distance", 700, _distance_reward_probe),
        ("map", 900, _map_reward_probe),
    ):
        worst = 0.0
        for p in range(n_probes):
            reward, x = probe(np.random.default_rng(seed_base + p))
            _, got = reward.value_and_grad(x)
            want = fd_gradient(reward.value, x)
            worst = _nan_max(worst, rel_error(got, want))
        rows.append(_worst_row(f"fd_reward_{label}", worst, tol, "max rel err", n_probes))
    return rows


def _adjoint_rows(n_probes: int) -> List[CheckResult]:
    """<v, J_c u> must equal <J_c^T v, u> to near machine precision."""
    rows = []
    for label, make_fixture in (("gaussian", _gaussian_fixture), ("mixture", _mixture_fixture)):
        worst = 0.0
        for model, c, rng, x, sigma in _probes(make_fixture, 1500, n_probes):
            v = rng.standard_normal((1, model.D))
            u = c.from_flat(rng.standard_normal(c.dim))
            lhs = float(v[0] @ model.jvp_c(x, c, sigma, u)[0])
            rhs = float(model.vjp_c(x, c, sigma, v).flat()[0] @ u.flat())
            worst = _nan_max(worst, abs(lhs - rhs) / (1.0 + abs(rhs)))
        rows.append(_worst_row(f"adjoint_identity_{label}", worst, 1e-10,
                               "max scaled mismatch", n_probes))
    return rows


def _tweedie_rows(n_probes: int) -> List[CheckResult]:
    """(xhat - x)/sigma^2 must equal the analytic marginal score."""
    worst_g = worst_m = 0.0
    for p, (model, c, rng, x, sigma) in enumerate(_probes(_gaussian_fixture, 2100, n_probes)):
        got = score_from_denoiser(model.denoise(x, c, sigma), x, sigma)
        want = (model.mean(c) - x) / (model.s0**2 + sigma**2)
        worst_g = _nan_max(worst_g, rel_error(got, want))

        mix, cm = _mixture_fixture(seed=2100 + p)
        xm = 2.0 * rng.standard_normal((1, mix.D))
        got = score_from_denoiser(mix.denoise(xm, cm, sigma), xm, sigma)
        m = mix.mode_means(cm)
        a = mix.stds**2 + sigma**2
        r = mix.responsibilities(xm, cm, sigma)[0]
        want = ((m - xm) / a[:, None] * r[:, None]).sum(axis=0)
        worst_m = _nan_max(worst_m, rel_error(got, want))
    return [
        _worst_row("tweedie_gaussian", worst_g, 1e-10, "max rel err", n_probes),
        _worst_row("tweedie_mixture", worst_m, 1e-10, "max rel err", n_probes),
    ]


def _conjugate_rows() -> List[CheckResult]:
    rows = []
    mean1, var1 = conjugate_posterior(5.0, 0.25, 20.0, 1.0, 1.0)
    mean100, var100 = conjugate_posterior(5.0, 0.25, 20.0, 1.0, 100.0)
    exact = (
        abs(mean1 - 8.0) < 1e-12
        and abs(var1 - 0.2) < 1e-12
        and abs(mean100 - 2020.0 / 104.0) < 1e-12
        and abs(var100 - 1.0 / 104.0) < 1e-12
    )
    rows.append(CheckResult(
        "conjugate_worked_examples", exact,
        f"w=1 -> ({mean1:.6f}, {var1:.6f}), w=100 -> ({mean100:.6f}, {var100:.6f})",
    ))

    def draw(rng, m):  # in place: the bits of mean1 + sqrt(var1) * z
        z = rng.standard_normal(m)
        z *= np.sqrt(var1)
        z += mean1
        return z

    n = 200000
    mean, std = _streamed_mean_and_std(draw, 4242, n, ddof=1)
    se_mean = np.sqrt(var1 / n)
    se_std = np.sqrt(var1 / (2.0 * n))
    ok = abs(mean - mean1) < 4.0 * se_mean and abs(std - np.sqrt(var1)) < 4.0 * se_std
    rows.append(CheckResult(
        "conjugate_sampling_mc", ok,
        f"direct posterior draws: mean {mean:.5f} vs {mean1:.5f}, "
        f"std {std:.5f} vs {np.sqrt(var1):.5f} (4 SE)",
    ))
    return rows


def _streamed_mean_and_std(draw: Callable[[np.random.Generator, int], np.ndarray], seed: int,
                           n: int, ddof: int = 0) -> Tuple[float, float]:
    """(mean, std(ddof)) of the n draws that draw(rng, m) gives from default_rng(seed)
    as eight leaves, in one pass holding one leaf at a time: each leaf is centred in
    place on its own mean and merged into the running count, mean and sum of squared
    deviations M2 (Chan, Golub and LeVeque, The American Statistician, 1983)."""
    rng, count, mean, m2 = np.random.default_rng(seed), 0, 0.0, 0.0
    for i in range(8):
        leaf = draw(rng, (i + 1) * n // 8 - i * n // 8)
        leaf_mean, k = leaf.mean(), leaf.size
        leaf -= leaf_mean
        delta, count = leaf_mean - mean, count + k
        mean += delta * k / count
        m2 += np.square(leaf, out=leaf).sum() + delta * delta * k * (count - k) / count
        del leaf  # so the next draw is the only leaf alive
    return float(mean), float(np.sqrt(m2 / (count - ddof)))


_IS_BLOCK = 4096  # draws per importance-sampling block
_GH_NODES = 44  # Gauss-Hermite nodes per axis of the quadrature oracle


def _is_posterior_mean(model: MixturePriorModel, means: np.ndarray, x_t: np.ndarray,
                       sigma: float, rng: np.random.Generator, n_draws: int):
    """Importance-sampled E[x0 | x_t] with the prior as proposal, given the mode means.

    Weights are the Gaussian likelihood N(x_t; x0, sigma^2 I) up to a
    constant. Returns (estimate, per-coordinate standard errors) using the
    standard self-normalized-IS variance estimate. The draws come _IS_BLOCK
    at a time: a block's components from `rng.choice`, then its standard
    normals, and its terms go into five running sums before the next block.
    """
    D = model.D
    sw = sw2 = 0.0
    swx, sw2x, sw2x2 = np.zeros(D), np.zeros(D), np.zeros(D)
    for done in range(0, n_draws, _IS_BLOCK):
        m = min(_IS_BLOCK, n_draws - done)
        k = rng.choice(model.K, m, p=model.weights)
        x0 = model.stds.take(k)[:, None] * rng.standard_normal((m, D))
        x0 += means.take(k, axis=0)  # in place: the bits of means[k] + stds[k] * z
        d = x_t - x0
        # logw <= 0 by construction, so exp never overflows; weights from all
        # blocks share the same (unit) scale and can be pooled directly.
        w = np.exp(np.einsum("nd,nd->n", d, d) / (-2.0 * sigma**2))
        w2 = w * w
        sw += w.sum()
        sw2 += w2.sum()
        swx += np.einsum("n,nd->d", w, x0)
        sw2x += np.einsum("n,nd->d", w2, x0)
        sw2x2 += np.einsum("n,nd,nd->d", w2, x0, x0)
    if not (np.isfinite(sw) and sw > 0):
        raise OracleFailureError(f"importance weights vanished or are not finite (sum {sw})")
    est = swx / sw
    var_terms = sw2x2 - 2.0 * est * sw2x + est**2 * sw2
    se = np.sqrt(np.maximum(var_terms, 0.0)) / sw
    return est, se


def _quadrature_posterior_mean(model: MixturePriorModel, means: np.ndarray, x_t: np.ndarray,
                               sigma: float) -> np.ndarray:
    """E[x0 | x_t] by a product Gauss-Hermite rule over each mode's prior.

    Mode k's prior N(m_k, s_k^2 I) and the likelihood
    exp(-|x_t - x0|^2 / 2 sigma^2) are both isotropic, so with
    x0 = m_k + s_k z the mode's integrals of the likelihood, once times x0
    and once times 1, are products over coordinates of one-dimensional
    _GH_NODES-point rules in z. The modes are then pooled with their prior
    weights. Only the mode means, stds and weights enter: no part of the
    model's own algebra (shrinkage, responsibilities) does.

    Each axis integrates a Gaussian in z of width sigma / s_k against the
    normal density, so the rule is accurate only where the likelihood is not
    much narrower than the prior. On the mixture rows' probes (sigma drawn
    from [0.3, 2.0], 0.59 the least; s_k 0.5 and 0.8) it agrees with `denoise`
    to 1.7e-14. For one mode with s = 0.5 its error was about 1e-16 at
    sigma >= 0.7, 1e-10 at sigma = 0.3 and 1e-2 at sigma = 0.05.

    The nodes and weights come by Golub and Welsch (Math. Comp. 1969): the
    eigenvalues of the Jacobi matrix of the probabilists' Hermite recurrence
    He_{j+1} = z He_j - j He_{j-1} (zero diagonal, sqrt(1), ...,
    sqrt(_GH_NODES - 1) beside it), and the squared first components of its
    unit eigenvectors, which sum to 1.
    """
    off = np.sqrt(np.arange(1.0, _GH_NODES))
    z, vectors = np.linalg.eigh(np.diag(off, 1) + np.diag(off, -1))
    gw = vectors[0] ** 2
    x0 = means[:, :, None] + model.stds[:, None, None] * z  # (K, D, nodes)
    lik = np.exp((x_t[:, None] - x0) ** 2 / (-2.0 * sigma**2))
    mass = np.einsum("kdn,n->kd", lik, gw)  # per mode and axis: the likelihood's integral
    first = np.einsum("kdn,kdn,n->kd", lik, x0, gw)  # and that of x0 times it
    log_z = np.log(model.weights) + np.log(mass).sum(axis=1)  # log of pi_k times mode k's integral
    p = np.exp(log_z - log_z.max())
    return np.einsum("k,kd->d", p / p.sum(), first / mass)


def _mixture_mean_rows(n_probes: int, n_draws: int) -> List[CheckResult]:
    """The mixture denoiser's posterior mean against importance sampling
    (n_draws per probe, tol 3 SE) and against the quadrature (tol 1e-10
    relative), at the same probes and one `denoise` call per probe."""
    model = make_mixture_model(
        {"u": 2, "v": 2}, D=3, weights=(0.65, 0.35), stds=(0.5, 0.8),
        seed=31, mean_scale=1.0,
    )
    rng_c = np.random.default_rng(32)
    c = Embedding({"u": rng_c.standard_normal(2), "v": rng_c.standard_normal(2)})
    means = model.mode_means(c)
    worst_z = worst_q = 0.0
    for p in range(n_probes):
        rng = np.random.default_rng(9000 + p)
        sigma = float(rng.uniform(0.3, 2.0))
        x_t = means[p % model.K] + sigma * rng.standard_normal(model.D)
        est, se = _is_posterior_mean(model, means, x_t, sigma, rng, n_draws)
        got = model.denoise(x_t[None], c, sigma)[0]
        worst_z = _nan_max(worst_z, float(np.max(np.abs(got - est) / np.maximum(se, 1e-12))))
        worst_q = _nan_max(worst_q, rel_error(got, _quadrature_posterior_mean(model, means, x_t, sigma)))
    return [
        CheckResult(
            "mixture_posterior_mean_mc", worst_z < 3.0,
            f"max |analytic - IS| = {worst_z:.2f} standard errors over "
            f"{n_probes} probes x {n_draws} draws (tol 3 SE)",
        ),
        CheckResult(
            "mixture_posterior_mean_quadrature", worst_q < 1e-10,
            f"max rel err {worst_q:.3e} over {n_probes} probes, "
            f"{_GH_NODES} Gauss-Hermite nodes per axis (tol 1e-10)",
        ),
    ]


def _is_gaussian_limit_row() -> CheckResult:
    """Sanity: the IS oracle reproduces a pure-Gaussian conjugate mean."""
    model = make_mixture_model({"u": 1}, D=1, weights=(1.0,), stds=(0.5,), seed=77)
    c = Embedding({"u": np.array([2.0])})
    m0 = float(model.mode_means(c)[0, 0])
    sigma = 1.3
    x_t = np.array([m0 + 1.7])
    rng = np.random.default_rng(555)
    est, se = _is_posterior_mean(model, model.mode_means(c), x_t, sigma, rng, 40000)
    k = 0.25 / (0.25 + sigma**2)
    want = m0 + k * (x_t[0] - m0)
    z = abs(float(est[0]) - want) / max(float(se[0]), 1e-12)
    return CheckResult(
        "is_oracle_gaussian_limit", z < 3.0,
        f"single-mode IS vs shrinkage formula: {z:.2f} SE",
    )


def _audit_totals(audits: Sequence[AscentAudit], what: str) -> Tuple[bool, str]:
    """(passed, detail) over a batch's ascent audits (tol 1e-9): passed when
    some update was audited and at most 1 percent of those lowered F."""
    updates = sum(a.updates for a in audits)
    audited = sum(a.audited for a in audits)
    viol = sum(a.violations for a in audits)
    worst = max(a.max_violation_magnitude for a in audits)
    frac = viol / audited if audited else 0.0
    return audited > 0 and frac <= 0.01, (
        f"{viol}/{audited} audited {what} lowered F where taken by more than "
        f"1e-9 ({100 * frac:.1f} percent, worst {worst:.2e}; {updates - audited} "
        f"updates outside the trust region)"
    )


def _monotonicity_rows(n_seeds: int) -> List[CheckResult]:
    """Audit per-update surrogate ascent on the scalar task (tol 1e-9).

    Passes when at most 1 percent of the audited updates (see
    audit_embedding_ascent) lower F where they are taken, for both the
    per-component RMS step and the raw-gradient step at alpha = 0.1. Here
    xhat is affine in c and R = -(xhat - y)^2 / 2, so with u = xhat - y and
    delta the update's move of xhat, F rises by |u||delta| - delta^2 / 2
    whenever delta points at y; the trust region keeps |delta| <= |u| / 2.
    These rows therefore check only the sign of the update; the evidence of
    ascent is _distance_ascent_row. The detail also reports the logged
    pre-update F across the whole trajectory: it falls on many transitions,
    because x_t and sigma_t move between steps and the fixed-length RMS step
    dithers at the surrogate ceiling.
    """
    task = build_synthetic_task()
    schedule = task.schedule(T=1000)
    reward = task.reward(w=1.0)
    rows = []
    for label, norm_mode in (("rms", "rms_per_component"), ("raw", "none")):
        cfg = SteeringConfig(method="embedopt", alpha=0.1, embed_norm_mode=norm_mode)
        res, audits = audit_embedding_ascent(
            task.model, reward, task.c_init, schedule, cfg,
            [np.random.default_rng(seed) for seed in range(n_seeds)],
        )
        reports = [check_monotone_surrogate(rec.F) for rec in res.records]
        del res  # its (B, T) logs must be gone before the next mode integrates
        logged_total = sum(rep.total_steps for rep in reports)
        logged_viol = sum(rep.violations for rep in reports)
        logged_worst = max(rep.max_violation_magnitude for rep in reports)
        logged_frac = logged_viol / logged_total
        passed, audit_detail = _audit_totals(audits, "updates")
        rows.append(CheckResult(
            f"monotone_surrogate_{label}", passed,
            f"sign check (xhat affine in c, R quadratic): {audit_detail}; logged F "
            f"decreased on {logged_viol}/{logged_total} transitions "
            f"({100 * logged_frac:.1f} percent, worst {logged_worst:.2e}) "
            f"over {n_seeds} seeds",
        ))
    return rows


def _distance_ascent_row(n_seeds: int) -> CheckResult:
    """Audit per-update surrogate ascent on the two-mode distance task.

    Raw-gradient step at alpha = 0.1 over the task's own T = 200 schedule,
    same 1 percent budget and 1e-9 tolerance as _monotonicity_rows. The
    mixture denoiser is nonlinear in c and the reward is clipped, so nothing
    makes an audited update ascend by construction. The per-component RMS
    step is not audited here: it moves every component by alpha whatever
    the gradient's size, so on this task the first-order gain misjudges it
    and it lowers F on many updates inside the trust region.
    """
    task = build_toy_task("distance", seed=0)
    schedule = task.schedule()
    cfg = SteeringConfig(method="embedopt", alpha=0.1, embed_norm_mode="none")
    _, audits = audit_embedding_ascent(
        task.model, task.reward, task.c_init, schedule, cfg,
        [np.random.default_rng(seed) for seed in range(n_seeds)],
    )
    passed, detail = _audit_totals(audits, "raw-gradient updates on the distance task")
    return CheckResult(
        "monotone_surrogate_distance_raw", passed,
        f"{detail} over {n_seeds} seeds at T = {schedule.num_steps}",
    )


def _taylor_rows(n_affine: int, n_mixture: int) -> List[CheckResult]:
    rows = []

    worst = 0.0
    for p in range(n_affine):
        model, c = _gaussian_fixture(seed=4100 + p)
        rng = np.random.default_rng(4300 + p)
        x = 2.0 * rng.standard_normal((1, model.D))
        sigma_t = float(rng.uniform(0.3, 3.0))
        sigma_prev = sigma_t * float(rng.uniform(0.5, 0.95))
        reward = GaussianMeasurementReward(y=rng.standard_normal(model.D))
        x_step, _, _ = embedopt_step(model, reward, x, c, sigma_t, sigma_prev, 1e-2)
        x_pred = taylor_predicted_step(model, reward, x, c, sigma_t, sigma_prev, 1e-2)
        worst = _nan_max(worst, float(np.linalg.norm(x_step - x_pred)) / (1.0 + float(np.linalg.norm(x_step))))
    rows.append(_worst_row("taylor_affine_exact", worst, 1e-10, "max scaled gap", n_affine))

    probes = []
    model, c = _mixture_fixture(seed=4500)
    reward = GaussianMeasurementReward(y=np.full(model.D, 1.5))
    for p in range(n_mixture):
        rng = np.random.default_rng(4700 + p)
        x = 2.0 * rng.standard_normal((1, model.D))
        sigma_t = float(rng.uniform(0.3, 2.0))
        sigma_prev = sigma_t * float(rng.uniform(0.5, 0.95))
        probes.append((x, c, sigma_t, sigma_prev))
    scaling = taylor_gap_scaling(model, reward, probes, alpha=1e-2)
    med = scaling["median_ratio"]
    ok = med is not None and 3.5 <= med <= 4.5
    med_txt = "n/a (all probes exact)" if med is None else f"{med:.3f}"
    rows.append(CheckResult(
        "taylor_mixture_quadratic", ok,
        f"median gap ratio {med_txt} over {len(scaling['ratios'])} probes "
        f"({scaling['n_exact']} exact, window [3.5, 4.5])",
    ))
    return rows


def _reduction_rows() -> List[CheckResult]:
    rows = []
    task = build_synthetic_task()
    schedule = task.schedule(T=200)

    endpoints = {}
    for label, cfg, reward in (
        ("none", SteeringConfig(method="none"), task.reward(w=1.0)),
        ("embedopt_a0", SteeringConfig(method="embedopt", alpha=0.0), task.reward(w=1.0)),
        ("dps_w0", SteeringConfig(method="dps", dps_norm_mode="sigma2w"), task.reward(w=0.0)),
        ("dps_l2_a0", SteeringConfig(method="dps", dps_norm_mode="l2_matched", alpha=0.0),
         task.reward(w=1.0)),
    ):
        res = run_steered(task.model, reward, task.c_init, schedule, cfg,
                          [np.random.default_rng(7)])
        endpoints[label] = float(res.x0[0, 0])
    base = endpoints["none"]
    worst = 0.0
    for v in endpoints.values():
        worst = _nan_max(worst, abs(v - base))
    rows.append(CheckResult(
        "reduction_unguided_identity", worst <= 1e-12,
        f"max endpoint deviation {worst:.2e} across alpha=0 / w=0 variants (tol 1e-12)",
    ))

    af3_off = Af3SamplerParams(gamma=0.0, eta_scale=1.0)
    for method, alpha in (("none", 0.0), ("embedopt", 0.1)):
        a = run_steered(
            task.model, task.reward(1.0), task.c_init, schedule,
            SteeringConfig(method=method, alpha=alpha), [np.random.default_rng(11)],
        )
        b = run_steered(
            task.model, task.reward(1.0), task.c_init, schedule,
            SteeringConfig(method=method, alpha=alpha, sampler_mode="af3", af3=af3_off),
            [np.random.default_rng(11)],
        )
        diff = float(np.max(np.abs(a.x0 - b.x0)))
        rows.append(CheckResult(
            f"reduction_af3_gamma0_{method}", diff <= 1e-12,
            f"gamma=0, eta_scale=1 endpoint diff {diff:.2e} (tol 1e-12)",
        ))
    return rows


def _map_identity_rows(n_configs: int) -> List[CheckResult]:
    worst = 0.0
    for p in range(n_configs):
        rng = np.random.default_rng(6100 + p)
        grid = MapGrid(
            shape=(5 + p % 3, 6, 5),
            origin=rng.uniform(-4.0, -2.0, size=3),
            spacing=float(rng.uniform(0.8, 1.5)),
        )
        target = 2.0 * rng.standard_normal(3 * 7)
        reward = MapMSEReward.from_state(target, grid, atom_width=1.5)
        x = 2.0 * rng.standard_normal((1, 3 * 7))
        cc = map_correlation(render_map(x, grid, 1.5), reward.v_obs)
        worst = _nan_max(worst, abs(reward.value(x)[0] - 2.0 * (cc - 1.0)))
    rows = [_worst_row("map_mse_correlation_identity", worst, 1e-10,
                       "max |R - 2(cc-1)| =", n_configs, "configs")]

    rng = np.random.default_rng(6500)
    grid = MapGrid(shape=(6, 6, 6), origin=np.array([-3.0, -3.0, -3.0]), spacing=1.1)
    target = 1.5 * rng.standard_normal(3 * 6)
    reward = MapMSEReward.from_state(target, grid)
    self_val = reward.value(target[None])[0]
    self_cc = reward.correlation(target[None])[0]
    ok = abs(self_val) < 1e-12 and abs(self_cc - 1.0) < 1e-12
    rows.append(CheckResult(
        "map_self_render", ok,
        f"R(target) = {self_val:.2e}, cc(target) = {self_cc:.12f}",
    ))
    return rows


def _af3_bookkeeping_row() -> CheckResult:
    """Empirical std of injected noise vs rho * sigma * sqrt((gamma+1)^2 - 1)."""
    params = Af3SamplerParams()
    sigma = 2.0
    want_hat = (params.gamma + 1.0) * sigma
    n = 200000
    hats = []

    def draw(rng, m):
        x_out, sigma_hat = af3_noise_inflate(np.broadcast_to(0.0, (1, m)), sigma, params, [rng])
        hats.append(sigma_hat)
        return x_out

    got_std = _streamed_mean_and_std(draw, 808, n)[1]
    # the first of the 8 calls' sigma_hat that is off (NaN included), else the last
    sigma_hat = next((s for s in hats if not abs(s - want_hat) < 1e-12), hats[-1])
    want_std = params.rho_noise * sigma * np.sqrt((params.gamma + 1.0) ** 2 - 1.0)
    se = want_std / np.sqrt(2.0 * n)
    ok = abs(got_std - want_std) < 4.0 * se and abs(sigma_hat - want_hat) < 1e-12
    return CheckResult(
        "af3_noise_bookkeeping", ok,
        f"injected std {got_std:.5f} vs {want_std:.5f} (4 SE), "
        f"sigma_hat {sigma_hat:.3f} vs {want_hat:.3f}",
    )


def _peak_rss_mb() -> Optional[float]:
    """The process's resident-set high-water mark so far, in MB of 2^20 bytes
    (as the benchmark's peak_rss_mb), or None where the resource module is
    absent. ru_maxrss counts bytes on macOS and KiB elsewhere."""
    if resource is None:
        return None
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return peak / (2.0**20 if sys.platform == "darwin" else 2.0**10)


def run_verification_suite(telemetry: Optional[dict] = None) -> List[CheckResult]:
    """Run every oracle-backed self-check; returns (name, passed, detail) rows.

    One size, the one `steerkit verify` and the acceptance gate use. Every
    row runs on the calling thread. A `telemetry` dict receives what the
    manifest of `verify --out` records: `phases_s`, the wall seconds of each
    check group, and `phases_peak_rss_mb`, the process's peak resident set
    after each group (`_peak_rss_mb`).
    """
    n_fd = 20
    n_mc_probes = 10

    groups = (
        ("model_fd", lambda: _model_fd_rows(_gaussian_fixture, "gaussian", n_fd, 1e-5)
         + _model_fd_rows(_mixture_fixture, "mixture", n_fd, 1e-5)),
        ("reward_fd", lambda: _reward_fd_rows(n_fd, 1e-6)),
        ("adjoint", lambda: _adjoint_rows(n_fd)),
        ("tweedie", lambda: _tweedie_rows(n_fd)),
        ("conjugate", _conjugate_rows),
        ("is_gaussian_limit", lambda: [_is_gaussian_limit_row()]),
        ("is_mixture_mean", lambda: _mixture_mean_rows(n_mc_probes, 100000)),
        ("monotone_scalar", lambda: _monotonicity_rows(20)),
        ("monotone_distance", lambda: [_distance_ascent_row(4)]),
        ("taylor", lambda: _taylor_rows(n_fd, 50)),
        ("reduction", _reduction_rows),
        ("map_identity", lambda: _map_identity_rows(20)),
        ("af3_noise", lambda: [_af3_bookkeeping_row()]),
    )
    rows: List[CheckResult] = []
    phases, peaks = {}, {}
    for group, check in groups:
        t0 = time.perf_counter()
        rows += check()
        phases[group] = time.perf_counter() - t0
        peaks[group] = _peak_rss_mb()
    if telemetry is not None:
        telemetry["phases_s"] = phases
        telemetry["phases_peak_rss_mb"] = peaks
    return rows
