"""Analytic denoisers against independent oracles.

Oracles used here:

* central finite differences for every Jacobian product (vjp_x, vjp_c, jvp_c),
  with the jvp checked as a directional derivative;
* the conjugate shrinkage formula, hand-computed for a 1-D worked example;
* Tweedie's identity (xhat - x)/sigma^2 == marginal score, with the Gaussian
  marginal score written out independently;
* a dense trapezoidal quadrature of E[x0 | x_t] for a 2-D mixture, sharing no
  code with the responsibility-based implementation;
* Monte Carlo moments for the prior samplers.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from steerkit import (
    Af3SamplerParams,
    DistanceConstraintReward,
    Embedding,
    GaussianMeasurementReward,
    GaussianPriorModel,
    MapGrid,
    MapMSEReward,
    MixturePriorModel,
    NonFiniteStateError,
    SteeringConfig,
    SteeringResult,
    build_linear_schedule,
    conjugate_posterior,
    fd_gradient,
    make_mixture_model,
    rel_error,
    run_steered,
    score_from_denoiser,
)
from conftest import gaussian_fixture, mixture_fixture, sample_prior

N_PROBES = 20


def random_embedding_like(c: Embedding, rng) -> Embedding:
    return Embedding({n: rng.standard_normal(v.size) for n, v in c.components.items()})


def probe_sigma(rng) -> float:
    return float(np.exp(rng.uniform(np.log(0.05), np.log(3.0))))


def stack(rows):
    """One embedding batch whose row b is rows[b]."""
    return rows[0].from_flat(np.stack([r.flat() for r in rows]))


# ---------------------------------------------------------------------------
# Embedding container


def test_embedding_flat_round_trip():
    c = Embedding({"a": [1.0, 2.0], "b": [3.0]})
    assert c.dim == 3
    assert c.names == ["a", "b"]
    np.testing.assert_array_equal(c.flat(), [1.0, 2.0, 3.0])
    back = c.from_flat(np.array([4.0, 5.0, 6.0]))
    np.testing.assert_array_equal(back.components["a"], [4.0, 5.0])
    np.testing.assert_array_equal(back.components["b"], [6.0])


def test_embedding_add_and_zeros():
    c = Embedding({"a": [1.0, 2.0]})
    d = Embedding({"a": [10.0, 20.0]})
    np.testing.assert_array_equal(c.add(d, 0.5).components["a"], [6.0, 12.0])
    assert c.norm() == pytest.approx(np.sqrt(5.0))


def test_embedding_errors():
    c = Embedding({"a": [1.0, 2.0]})
    with pytest.raises(ValueError):
        c.from_flat(np.zeros(5))
    with pytest.raises(ValueError):
        c.add(Embedding({"b": [1.0, 2.0]}))
    with pytest.raises(ValueError):
        Embedding({"a": [np.nan]})


def test_embedding_preserves_component_order():
    c = Embedding({"z": [1.0], "a": [2.0]})
    assert c.names == ["z", "a"]
    np.testing.assert_array_equal(c.flat(), [1.0, 2.0])


def test_embedding_components_are_read_only_views_of_one_buffer():
    c = Embedding({"a": [1.0, 2.0], "b": [3.0]})
    assert np.shares_memory(c.components["a"], c.flat())
    assert np.shares_memory(c.components["b"], c.flat())
    with pytest.raises(ValueError):
        c.flat()[0] = 9.0
    source = np.array([4.0, 5.0, 6.0])
    back = c.from_flat(source)
    source[0] = -1.0  # from_flat copies its input
    assert back.components["a"][0] == 4.0


def test_embedding_batch_rows():
    rows = [Embedding({"a": [1.0, 2.0], "b": [3.0]}), Embedding({"a": [4.0, 5.0], "b": [6.0]})]
    batch = stack(rows)
    assert batch.batch == 2 and rows[0].batch is None
    np.testing.assert_array_equal(batch.components["b"], [[3.0], [6.0]])
    np.testing.assert_array_equal(batch.flat()[1], rows[1].flat())
    moved = rows[0].add(rows[1], np.array([1.0, 0.5]))  # one scale per row
    np.testing.assert_array_equal(moved.flat(), [[5.0, 7.0, 9.0], [3.0, 4.5, 6.0]])
    assert list(batch.norm()) == [rows[0].norm(), rows[1].norm()]
    assert batch.norm()[1] == float(np.linalg.norm([4.0, 5.0, 6.0]))
    np.testing.assert_array_equal(rows[0].broadcast(3).flat(), [[1.0, 2.0, 3.0]] * 3)
    with pytest.raises(ValueError):
        rows[0].from_flat(np.zeros((2, 4)))


def test_embedding_finiteness_check_names_the_bad_component():
    with pytest.raises(NonFiniteStateError, match="'b'"):
        Embedding({"a": [1.0], "b": [0.0, np.inf]})
    c = Embedding({"a": [1.0], "b": [0.0, 1.0]})
    with pytest.raises(NonFiniteStateError, match="'a'"):
        c.from_flat([[0.0, 0.0, 0.0], [np.nan, 0.0, 0.0]])


# ---------------------------------------------------------------------------
# Gaussian prior model: worked examples and closed forms


def test_gaussian_denoise_worked_example():
    # 1-D, m = c = 3, s0 = 0.5, sigma = 1: k = 0.25/1.25 = 0.2
    model = GaussianPriorModel(W=np.eye(1), b=np.zeros(1), s0=0.5)
    c = Embedding({"loc": [3.0]})
    x = np.array([[8.0]])
    assert model.shrinkage(1.0) == pytest.approx(0.2)
    np.testing.assert_allclose(model.denoise(x, c, 1.0), [[3.0 + 0.2 * 5.0]])


def test_gaussian_denoise_sigma_zero_is_identity():
    model, c = gaussian_fixture(0)
    x = np.arange(6.0)[None]
    np.testing.assert_array_equal(model.denoise(x, c, 0.0), x)


def test_gaussian_denoiser_is_affine_in_c():
    model, c1 = gaussian_fixture(3)
    rng = np.random.default_rng(7)
    c2 = random_embedding_like(c1, rng)
    x = rng.standard_normal((1, model.D))
    sigma = 0.9
    for t in (0.25, 0.5, 2.0):
        mix = c1.add(c2.add(c1, -1.0), t)
        lhs = model.denoise(x, mix, sigma)
        rhs = model.denoise(x, c1, sigma) + t * (
            model.denoise(x, c2, sigma) - model.denoise(x, c1, sigma)
        )
        np.testing.assert_allclose(lhs, rhs, atol=1e-12)


def test_gaussian_model_validation():
    with pytest.raises(ValueError):
        GaussianPriorModel(W=np.ones((2, 3)), b=np.zeros(3), s0=1.0)
    with pytest.raises(ValueError):
        GaussianPriorModel(W=np.eye(2), b=np.zeros(2), s0=0.0)


def test_coordinate_shape_checked():
    model, c = gaussian_fixture(0)
    with pytest.raises(ValueError):
        model.denoise(np.zeros(5), c, 1.0)


_PRODUCTS = {
    "denoise": lambda m, c, x, v: m.denoise(x, c, 0.7),
    "vjp_x": lambda m, c, x, v: m.vjp_x(x, c, 0.7, v),
    "vjp_c": lambda m, c, x, v: m.vjp_c(x, c, 0.7, v),
    "jvp_c": lambda m, c, x, v: m.jvp_c(x, c, 0.7, c),
    "parts": lambda m, c, x, v: m.parts(x, c, 0.7),
    "responsibilities": lambda m, c, x, v: m.responsibilities(x, c, 0.7),
}


@pytest.mark.parametrize("make_fixture, product", [
    *((gaussian_fixture, name) for name in ("denoise", "vjp_x", "vjp_c", "jvp_c")),
    *((mixture_fixture, name) for name in _PRODUCTS),
], ids=lambda p: p if isinstance(p, str) else p.__name__.split("_")[0])
def test_products_reject_a_single_vector_before_any_compute(make_fixture, product):
    """A (D,) vector, as x or as the cotangent v, is a ValueError raised before
    the model forms its means: the memo of a fresh model stays empty. (The
    Gaussian model's `parts` shares nothing and has no responsibilities.)"""
    model, c = make_fixture(seed=5)
    X = np.ones((2, model.D))
    for x, v in ((X[0], X), (X, X[0])):
        if product in ("vjp_x", "vjp_c") or x.ndim == 1:
            fresh = _fresh(model)
            with pytest.raises(ValueError, match="shape"):
                _PRODUCTS[product](fresh, c, x, v)
            memo = fresh._last_means if isinstance(fresh, MixturePriorModel) else fresh._last_mean
            assert memo == [None, None]


@pytest.mark.parametrize("make_fixture", [gaussian_fixture, mixture_fixture],
                         ids=["gaussian", "mixture"])
def test_batched_products_equal_each_row_alone(make_fixture):
    """Every product on a (B, D) batch returns, row by row, exactly what the
    row gives as a batch of one, with one shared embedding or one embedding
    per row, and with the intermediates from `parts` passed in or recomputed."""
    model, c = make_fixture(seed=42)
    rng = np.random.default_rng(9)
    X = 2.0 * rng.standard_normal((5, model.D))
    V = rng.standard_normal((5, model.D))
    rows_c = [random_embedding_like(c, rng) for _ in range(5)]
    u = random_embedding_like(c, rng)
    sigma = 0.7
    for emb, row_emb in ((c, lambda b: c), (stack(rows_c), lambda b: rows_c[b])):
        parts = model.parts(X, emb, sigma)
        for p in (None, parts):
            den = model.denoise(X, emb, sigma, p)
            vx = model.vjp_x(X, emb, sigma, V, p)
            vc = model.vjp_c(X, emb, sigma, V, p)
            jc = model.jvp_c(X, emb, sigma, u, p)
            assert vc.batch == 5
            for b in range(5):
                cb, xb, vb = row_emb(b), X[b : b + 1], V[b : b + 1]
                assert np.array_equal(den[b], model.denoise(xb, cb, sigma)[0])
                assert np.array_equal(vx[b], model.vjp_x(xb, cb, sigma, vb)[0])
                assert np.array_equal(vc.flat()[b], model.vjp_c(xb, cb, sigma, vb).flat()[0])
                assert np.array_equal(jc[b], model.jvp_c(xb, cb, sigma, u)[0])


def _fresh(model):
    """A model with the same parameters and empty memos."""
    if isinstance(model, MixturePriorModel):
        return MixturePriorModel(weights=model.weights, Ws=model.Ws, bs=model.bs, stds=model.stds)
    return GaussianPriorModel(W=model.W, b=model.b, s0=model.s0)


@pytest.mark.parametrize("make_fixture", [gaussian_fixture, mixture_fixture],
                         ids=["gaussian", "mixture"])
def test_memoised_terms_match_a_fresh_model_and_are_read_only(make_fixture):
    """Alternating two embeddings (one a batch) and two sigmas, every product
    equals a fresh model's, bit for bit, and the memoised arrays refuse
    writes."""
    model, c1 = make_fixture(seed=43)
    rng = np.random.default_rng(10)
    c2 = stack([random_embedding_like(c1, rng) for _ in range(4)])
    X = 2.0 * rng.standard_normal((4, model.D))
    V = rng.standard_normal((4, model.D))
    u = random_embedding_like(c1, rng)
    mean = model.mode_means if isinstance(model, MixturePriorModel) else model.mean
    for c, sigma in [(c1, 0.7), (c2, 0.7), (c2, 1.9), (c1, 1.9), (c1, 0.7), (c2, 0.7),
                     (c2, 0.7), (c1, 1.9)]:
        fresh = _fresh(model)
        fresh_mean = fresh.mode_means if isinstance(fresh, MixturePriorModel) else fresh.mean
        assert np.array_equal(mean(c), fresh_mean(c))
        for name in ("denoise", "vjp_x", "vjp_c", "jvp_c"):
            args = {"denoise": (), "vjp_x": (V,), "vjp_c": (V,), "jvp_c": (u,)}[name]
            got = getattr(model, name)(X, c, sigma, *args)
            want = getattr(fresh, name)(X, c, sigma, *args)
            if isinstance(got, Embedding):
                got, want = got.flat(), want.flat()
            assert np.array_equal(got, want), (name, sigma)
        parts = model.parts(X, c, sigma)
        memoised = [mean(c)] + ([] if parts is None else [parts[0]])
        for arr in memoised:
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr[...] = 0.0


# ---------------------------------------------------------------------------
# finite-difference oracle for all Jacobian products


@pytest.mark.parametrize(
    "make_fixture, tol",
    [(gaussian_fixture, 1e-5), (mixture_fixture, 1e-5)],
    ids=["gaussian", "mixture"],
)
def test_vjp_x_matches_finite_differences(make_fixture, tol):
    worst = 0.0
    for p in range(N_PROBES):
        model, c = make_fixture(seed=100 + p)
        rng = np.random.default_rng(p)
        x = 2.0 * rng.standard_normal((1, model.D))
        v = rng.standard_normal((1, model.D))
        sigma = probe_sigma(rng)
        analytic = model.vjp_x(x, c, sigma, v)
        numeric = fd_gradient(lambda z: np.vecdot(model.denoise(z, c, sigma), v[0]), x)
        worst = max(worst, rel_error(analytic, numeric))
    assert worst < tol, f"worst rel err {worst:.3e}"


@pytest.mark.parametrize(
    "make_fixture, tol",
    [(gaussian_fixture, 1e-5), (mixture_fixture, 1e-5)],
    ids=["gaussian", "mixture"],
)
def test_vjp_c_matches_finite_differences(make_fixture, tol):
    worst = 0.0
    for p in range(N_PROBES):
        model, c = make_fixture(seed=200 + p)
        rng = np.random.default_rng(p)
        x = 2.0 * rng.standard_normal((1, model.D))
        v = rng.standard_normal((1, model.D))
        sigma = probe_sigma(rng)
        analytic = model.vjp_c(x, c, sigma, v).flat()
        numeric = fd_gradient(
            lambda cf: np.vecdot(model.denoise(x, c.from_flat(cf), sigma), v[0]), c.flat()
        )
        worst = max(worst, rel_error(analytic, numeric))
    assert worst < tol, f"worst rel err {worst:.3e}"


@pytest.mark.parametrize(
    "make_fixture, tol",
    [(gaussian_fixture, 1e-5), (mixture_fixture, 1e-5)],
    ids=["gaussian", "mixture"],
)
def test_jvp_c_matches_directional_differences(make_fixture, tol):
    worst = 0.0
    for p in range(N_PROBES):
        model, c = make_fixture(seed=300 + p)
        rng = np.random.default_rng(p)
        x = 2.0 * rng.standard_normal((1, model.D))
        u = random_embedding_like(c, rng)
        sigma = probe_sigma(rng)
        analytic = model.jvp_c(x, c, sigma, u)
        h = 1e-6 * (1.0 + c.norm())
        numeric = (
            model.denoise(x, c.add(u, h), sigma) - model.denoise(x, c.add(u, -h), sigma)
        ) / (2.0 * h)
        worst = max(worst, rel_error(analytic, numeric))
    assert worst < tol, f"worst rel err {worst:.3e}"


@pytest.mark.parametrize(
    "make_fixture", [gaussian_fixture, mixture_fixture], ids=["gaussian", "mixture"]
)
def test_adjoint_identity(make_fixture):
    # <v, J_c u> == <J_c^T v, u> to near machine precision
    worst = 0.0
    for p in range(N_PROBES):
        model, c = make_fixture(seed=400 + p)
        rng = np.random.default_rng(p)
        x = 2.0 * rng.standard_normal((1, model.D))
        v = rng.standard_normal((1, model.D))
        u = random_embedding_like(c, rng)
        sigma = probe_sigma(rng)
        lhs = float(v[0] @ model.jvp_c(x, c, sigma, u)[0])
        rhs = float(model.vjp_c(x, c, sigma, v).flat()[0] @ u.flat())
        worst = max(worst, abs(lhs - rhs) / (1.0 + abs(rhs)))
    assert worst < 1e-10, f"worst scaled mismatch {worst:.3e}"


# ---------------------------------------------------------------------------
# Tweedie identity: (xhat - x)/sigma^2 equals the marginal score


def test_tweedie_gaussian():
    worst = 0.0
    for p in range(N_PROBES):
        model, c = gaussian_fixture(seed=500 + p)
        rng = np.random.default_rng(p)
        x = 2.0 * rng.standard_normal((1, model.D))
        sigma = probe_sigma(rng)
        est = score_from_denoiser(model.denoise(x, c, sigma), x, sigma)
        # marginal is N(m, (s0^2 + sigma^2) I)
        exact = (model.mean(c) - x) / (model.s0**2 + sigma**2)
        worst = max(worst, rel_error(est, exact))
    assert worst < 1e-10


def test_gaussian_posterior_variance_is_conjugate():
    # prior N(m, s0^2) observed through N(0, sigma^2) noise: precisions add
    model, _ = gaussian_fixture(seed=3)
    for sigma in (0.05, 0.7, 3.0):
        want = 1.0 / (1.0 / model.s0**2 + 1.0 / sigma**2)
        assert model.posterior_variance(sigma) == pytest.approx(want, rel=1e-12)


def test_tweedie_mixture():
    worst = 0.0
    for p in range(N_PROBES):
        model, c = mixture_fixture(seed=600 + p)
        rng = np.random.default_rng(p)
        x = 2.0 * rng.standard_normal((1, model.D))
        sigma = probe_sigma(rng)
        est = score_from_denoiser(model.denoise(x, c, sigma), x, sigma)
        # responsibility-weighted sum of per-mode marginal scores
        m = model.mode_means(c)
        a = model.stds**2 + sigma**2
        r = model.responsibilities(x, c, sigma)[0]
        exact = (r / a) @ (m - x)
        worst = max(worst, rel_error(est, exact))
    assert worst < 1e-10


def test_score_rejects_sigma_zero():
    with pytest.raises(ZeroDivisionError):
        score_from_denoiser(np.zeros(2), np.zeros(2), 0.0)


# ---------------------------------------------------------------------------
# mixture posterior mean against a quadrature oracle


def test_mixture_denoiser_matches_quadrature():
    """Dense 2-D trapezoid quadrature of E[x0 | x_t], no shared code paths."""
    rng = np.random.default_rng(42)
    model = MixturePriorModel(
        weights=np.array([0.6, 0.4]),
        Ws=rng.standard_normal((2, 2, 3)),
        bs=1.5 * rng.standard_normal((2, 2)),
        stds=np.array([0.5, 0.9]),
    )
    c = Embedding({"e": rng.standard_normal(3)})
    grid = np.linspace(-12.0, 12.0, 481)
    gx, gy = np.meshgrid(grid, grid, indexing="ij")
    pts = np.stack([gx.ravel(), gy.ravel()], axis=1)
    m = model.mode_means(c)
    prior = np.zeros(len(pts))
    for k in range(2):
        q = ((pts - m[k]) ** 2).sum(axis=1)
        prior += model.weights[k] * np.exp(-q / (2 * model.stds[k] ** 2)) / (
            2 * np.pi * model.stds[k] ** 2
        )
    for sigma in (0.3, 1.0, 2.5):
        x_t = m[0] + np.array([0.7, -0.4]) + sigma * np.array([0.3, 0.1])
        lik = np.exp(-((pts - x_t) ** 2).sum(axis=1) / (2 * sigma**2))
        w = prior * lik
        oracle = (w[:, None] * pts).sum(axis=0) / w.sum()
        ours = model.denoise(x_t[None], c, sigma)[0]
        assert rel_error(ours, oracle) < 1e-6, f"sigma={sigma}"


def test_single_mode_mixture_equals_gaussian():
    rng = np.random.default_rng(5)
    W = rng.standard_normal((4, 3))
    b = rng.standard_normal(4)
    gauss = GaussianPriorModel(W=W, b=b, s0=0.8)
    mix = MixturePriorModel(
        weights=np.array([1.0]), Ws=W[None], bs=b[None], stds=np.array([0.8])
    )
    c = Embedding({"e": rng.standard_normal(3)})
    x = rng.standard_normal((1, 4))
    for sigma in (0.1, 1.0, 10.0):
        np.testing.assert_allclose(
            mix.denoise(x, c, sigma), gauss.denoise(x, c, sigma), atol=1e-12
        )


def test_mixture_log_space_stability_at_huge_inputs():
    model, c = mixture_fixture(seed=0)
    x = np.full((1, model.D), 1e8)
    r = model.responsibilities(x, c, 2.0)[0]
    assert np.all(np.isfinite(r)) and r.sum() == pytest.approx(1.0)
    assert np.all(np.isfinite(model.denoise(x, c, 2.0)))
    assert np.all(np.isfinite(model.vjp_x(x, c, 2.0, np.ones((1, model.D)))))


def test_mixture_validation():
    with pytest.raises(ValueError):
        MixturePriorModel(
            weights=np.array([0.5, 0.6]),  # does not sum to 1
            Ws=np.zeros((2, 2, 2)), bs=np.zeros((2, 2)), stds=np.ones(2),
        )
    with pytest.raises(ValueError):
        MixturePriorModel(
            weights=np.array([0.5, 0.5]),
            Ws=np.zeros((2, 2, 2)), bs=np.zeros((2, 2)), stds=np.array([1.0, 0.0]),
        )
    with pytest.raises(ValueError):
        MixturePriorModel(
            weights=np.array([0.5, 0.5]),
            Ws=np.zeros((3, 2, 2)), bs=np.zeros((2, 2)), stds=np.ones(2),
        )


# ---------------------------------------------------------------------------
# prior samplers


def test_gaussian_prior_sampler_moments():
    model, c = gaussian_fixture(seed=1)
    rng = np.random.default_rng(0)
    draws = np.array([sample_prior(model, c, rng) for _ in range(4000)])
    np.testing.assert_allclose(draws.mean(axis=0), model.mean(c), atol=0.06)
    np.testing.assert_allclose(draws.std(axis=0), model.s0, atol=0.05)


def test_mixture_prior_sampler_mode_proportions():
    rng = np.random.default_rng(0)
    model = MixturePriorModel(
        weights=np.array([0.9, 0.1]),
        Ws=np.zeros((2, 1, 1)),
        bs=np.array([[0.0], [100.0]]),
        stds=np.array([0.5, 0.5]),
    )
    c = Embedding({"e": [0.0]})
    draws = np.array([sample_prior(model, c, rng)[0] for _ in range(5000)])
    frac_minority = float(np.mean(draws > 50.0))
    assert abs(frac_minority - 0.1) < 0.02


# ---------------------------------------------------------------------------
# properties


@given(sigma=st.floats(min_value=0.0, max_value=1e4), s0=st.floats(min_value=1e-3, max_value=10.0))
def test_shrinkage_in_unit_interval(sigma, s0):
    model = GaussianPriorModel(W=np.eye(1), b=np.zeros(1), s0=s0)
    k = model.shrinkage(sigma)
    assert 0.0 < k <= 1.0


@settings(max_examples=50)
@given(seed=st.integers(min_value=0, max_value=10_000), sigma=st.floats(min_value=1e-3, max_value=100.0))
def test_gaussian_denoiser_between_mean_and_input(seed, sigma):
    model, c = gaussian_fixture(seed % 7)
    rng = np.random.default_rng(seed)
    x = 3.0 * rng.standard_normal((1, model.D))
    xhat = model.denoise(x, c, sigma)
    m = model.mean(c)
    lo = np.minimum(m, x) - 1e-9
    hi = np.maximum(m, x) + 1e-9
    assert np.all(xhat >= lo) and np.all(xhat <= hi)


@settings(max_examples=50)
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_mixture_responsibilities_simplex(seed):
    model, c = mixture_fixture(seed % 5)
    rng = np.random.default_rng(seed)
    x = 5.0 * rng.standard_normal((1, model.D))
    sigma = probe_sigma(rng)
    r = model.responsibilities(x, c, sigma)[0]
    assert np.all(r >= 0.0)
    assert r.sum() == pytest.approx(1.0, abs=1e-12)


NAN = float("nan")
INF = float("inf")
_MIXTURE = dict(component_dims={"u": 1}, D=2, seed=0)
_GRID = MapGrid(shape=(2, 2, 2), origin=np.zeros(3), spacing=1.0)
_V_OBS = np.tile([1.0, -1.0], 4)  # zero mean, unit variance on _GRID


def _mixture(**fields):
    """A one-mode mixture in one dimension, with `fields` replaced."""
    return MixturePriorModel(**{"weights": [1.0], "Ws": [[[1.0]]], "bs": [[0.0]], "stds": [1.0],
                                **fields})


@pytest.mark.parametrize("build", [
    lambda: GaussianMeasurementReward(y=[1.0], tau2=NAN),
    lambda: GaussianMeasurementReward(y=[1.0], w=NAN),
    lambda: GaussianMeasurementReward(y=[1.0], w=float("inf")),
    lambda: DistanceConstraintReward(pairs=[(0, 1)], targets=[1.0], delta=NAN),
    lambda: MapGrid(shape=(2, 2, 2), origin=np.zeros(3), spacing=NAN),
    lambda: GaussianPriorModel(W=np.eye(2), b=np.zeros(2), s0=NAN),
    lambda: make_mixture_model(weights=(0.5, 0.5), stds=(0.5, NAN), **_MIXTURE),
    lambda: make_mixture_model(weights=(1.0, NAN), stds=(0.5, 0.5), **_MIXTURE),
    lambda: conjugate_posterior(5.0, NAN, 20.0),
    lambda: build_linear_schedule(True, 1.0),
    lambda: build_linear_schedule(2.5, 1.0),
    lambda: build_linear_schedule("3", 1.0),
    lambda: build_linear_schedule(5, 10**400),
    lambda: GaussianMeasurementReward(y=[NAN]),
    lambda: GaussianMeasurementReward(y=[INF]),
    lambda: DistanceConstraintReward(pairs=[(0, 1)], targets=[NAN], delta=1.0),
    lambda: DistanceConstraintReward(pairs=[(0, 1.5)], targets=[1.0], delta=1.0),
    lambda: DistanceConstraintReward(pairs=[(0, True)], targets=[1.0], delta=1.0),
    lambda: DistanceConstraintReward(pairs=[(0, 10**400)], targets=[1.0], delta=1.0),
    lambda: MapGrid(shape=(2, 2, 2), origin=[NAN, 0.0, 0.0], spacing=1.0),
    lambda: MapGrid(shape=(2.7, 3, 3), origin=np.zeros(3), spacing=1.0),
    lambda: MapGrid(shape=(INF, 2, 2), origin=np.zeros(3), spacing=1.0),
    lambda: MapMSEReward(grid=_GRID, v_obs=np.full(8, NAN)),
    lambda: MapMSEReward(grid=_GRID, v_obs=_V_OBS, atom_width=NAN),
    lambda: GaussianPriorModel(W=[[NAN]], b=[0.0], s0=1.0),
    lambda: GaussianPriorModel(W=[[1.0]], b=[NAN], s0=1.0),
    lambda: _mixture(Ws=[[[NAN]]]),
    lambda: _mixture(bs=[[NAN]]),
    lambda: _mixture(stds=[INF]),
    lambda: _mixture(stds=[1.3407807929942597e154]),  # finite, but its square is inf
], ids=["tau2-nan", "w-nan", "w-inf", "delta-nan", "spacing-nan", "s0-nan", "std-nan",
        "weight-nan", "prior_var-nan", "T-bool", "T-float", "T-str", "sigma_max-10**400",
        "y-nan", "y-inf", "targets-nan", "index-1.5", "index-True", "index-10**400",
        "origin-nan", "shape-2.7", "shape-inf", "v_obs-nan", "atom_width-nan", "W-nan", "b-nan",
        "Ws-nan", "bs-nan", "stds-inf", "stds-1.34e154"])
def test_library_boundary_rejects_nan_inf_and_non_integer_steps(build):
    """A comparison such as x <= 0 is False on NaN, a float, string or bool T
    is no step count, every array a constructor stores must be finite, and a
    bead index or grid count must be a non-bool integer in range: each of
    these is a ValueError, not a NaN result, a truncated index, a TypeError or
    an OverflowError."""
    with pytest.raises(ValueError):
        build()


def _alphas_run(value):
    """A two-row embedopt batch on the scalar task with row 1's step size `value`."""
    model = GaussianPriorModel(W=np.eye(1), b=np.zeros(1), s0=1.0)
    return run_steered(
        model, GaussianMeasurementReward(y=[2.0]), Embedding({"loc": [0.0]}),
        build_linear_schedule(2, 3.0), SteeringConfig(method="embedopt"),
        [np.random.default_rng(0), np.random.default_rng(1)], alphas=[0.1, value],
    )


# one library input per slot, with the drawn value put in it
_SLOTS = {
    "y": lambda v: GaussianMeasurementReward(y=[0.0, v]),
    "tau2": lambda v: GaussianMeasurementReward(y=[0.0], tau2=v),
    "w": lambda v: GaussianMeasurementReward(y=[0.0], w=v),
    "bead index": lambda v: DistanceConstraintReward(pairs=[(0, v)], targets=[1.0], delta=1.0),
    "targets": lambda v: DistanceConstraintReward(pairs=[(0, 1)], targets=[v], delta=1.0),
    "delta": lambda v: DistanceConstraintReward(pairs=[(0, 1)], targets=[1.0], delta=v),
    "grid shape": lambda v: MapGrid(shape=(2, v, 2), origin=np.zeros(3), spacing=1.0),
    "grid origin": lambda v: MapGrid(shape=(2, 2, 2), origin=[0.0, v, 0.0], spacing=1.0),
    "spacing": lambda v: MapGrid(shape=(2, 2, 2), origin=np.zeros(3), spacing=v),
    "v_obs": lambda v: MapMSEReward(grid=_GRID, v_obs=[*_V_OBS[:-1], v]),
    "atom_width": lambda v: MapMSEReward(grid=_GRID, v_obs=_V_OBS, atom_width=v),
    "W": lambda v: GaussianPriorModel(W=[[1.0], [v]], b=[0.0, 0.0], s0=1.0),
    "b": lambda v: GaussianPriorModel(W=[[1.0]], b=[v], s0=1.0),
    "s0": lambda v: GaussianPriorModel(W=[[1.0]], b=[0.0], s0=v),
    "weights": lambda v: _mixture(weights=[0.5, v], Ws=np.zeros((2, 1, 1)), bs=np.zeros((2, 1)),
                                  stds=[1.0, 1.0]),
    "Ws": lambda v: _mixture(Ws=[[[v]]]),
    "bs": lambda v: _mixture(bs=[[v]]),
    "stds": lambda v: _mixture(stds=[v]),
    "method": lambda v: SteeringConfig(method=v),
    "alpha": lambda v: SteeringConfig(alpha=v),
    **{f"af3 {name}": lambda v, name=name: Af3SamplerParams(**{name: v})
       for name in ("gamma", "gamma_min", "rho_noise", "eta_scale")},
    "T": lambda v: build_linear_schedule(v, 1.0),
    "sigma_max": lambda v: build_linear_schedule(3, v),
    "alphas": _alphas_run,
}

# integers stay small or are at least 10**19, which no float64 array can hold:
# a schedule of T steps in between would be allocated
_WILD = st.one_of(
    st.sampled_from([NAN, INF, -INF, True, False, None, 0, 1, -1, 10**400, -(10**400)]),
    st.floats(allow_nan=True, allow_infinity=True),
    st.integers(-1000, 1000),
    st.integers(10**19, 10**400) | st.integers(-(10**400), -(10**19)),
    st.text(alphabet="0123456789.-+eEinfaINFA x", max_size=4),  # "1", "inf", "nan", "1e9", ...
)


def _arrays(result):
    if isinstance(result, SteeringResult):
        return [result.x0]
    return [v for v in vars(result).values() if isinstance(v, np.ndarray)]


@settings(max_examples=300, deadline=None)
@given(slot=st.sampled_from(sorted(_SLOTS)), value=_WILD)
def test_library_boundary_returns_finite_arrays_or_raises_value_error(slot, value):
    """NaN, inf, bools, strings, None and integers up to 10**400 in any slot
    of the library's constructors, the schedule builder or run_steered's
    alphas: each call returns finite arrays or raises ValueError, never
    OverflowError or TypeError. A schedule whose T cannot be allocated raises
    MemoryError, which the CLI maps to its own exit code."""
    with np.errstate(all="ignore"):
        try:
            result = _SLOTS[slot](value)
        except ValueError:
            return
        except MemoryError:
            assert slot == "T" and value >= 10**19
            return
    assert all(np.isfinite(a).all() for a in _arrays(result)), (slot, value)
