"""Embedding-ascent and coordinate-guidance steps against hand-derived values.

Scalar worked example used below: identity mean map, s0 = 0.5, c = 5, x = 6,
sigma = 1 gives k = 0.2 and xhat = 5.2; with a measurement at y = 20 the
pulled-back embedding gradient is (1-k) * (20 - xhat) = 0.8 * 14.8 = 11.84,
whose RMS normalization is the sign, so one ascent step moves c to 5 + alpha.
Re-denoising at the updated embedding and stepping with eta = 0.5 lands at
x' = 6 + 0.5 * (c' + 0.2*(6 - c') - 6).
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
    NonFiniteStateError,
    SteeringConfig,
    build_linear_schedule,
    dps_step,
    embedopt_step,
    fd_gradient,
    rms_normalize,
    run_steered,
    taylor_gap_scaling,
    taylor_predicted_step,
)
from steerkit.models import _norm
from conftest import gaussian_fixture, mixture_fixture


def scalar_setup():
    model = GaussianPriorModel(W=np.eye(1), b=np.zeros(1), s0=0.5)
    c = Embedding({"loc": [5.0]})
    reward = GaussianMeasurementReward(y=[20.0], tau2=1.0, w=1.0)
    return model, c, reward


def make_reward_for(model):
    return GaussianMeasurementReward(y=np.zeros(model.D), tau2=1.0, w=1.0)


# ---------------------------------------------------------------------------
# normalization


def test_rms_normalize_worked_example():
    g = Embedding({"a": [3.0, 4.0], "b": [0.0]})
    out, skipped = rms_normalize(g)
    rms = np.sqrt((9.0 + 16.0) / 2.0)
    np.testing.assert_allclose(out.components["a"], [3.0 / rms, 4.0 / rms])
    np.testing.assert_array_equal(out.components["b"], [0.0])
    assert skipped.tolist() == [False, True]  # one flag per component, in names order


def test_rms_normalize_scalar_is_sign():
    out, _ = rms_normalize(Embedding({"a": [-7.0]}))
    np.testing.assert_array_equal(out.components["a"], [-1.0])


@settings(max_examples=100)
@given(seed=st.integers(min_value=0, max_value=100_000))
def test_rms_normalize_unit_rms_per_component(seed):
    rng = np.random.default_rng(seed)
    g = Embedding({"a": rng.standard_normal(5), "b": 1e-3 * rng.standard_normal(3)})
    out, skipped = rms_normalize(g)
    for v, small in zip(out.components.values(), skipped):
        rms = float(np.sqrt(np.mean(v**2)))
        if small:
            assert rms == 0.0
        else:
            assert rms == pytest.approx(1.0, rel=1e-12)


def _frozen_normalized(grad: Embedding, rescale: bool, threshold: float = 1e-12):
    """The per-component normaliser that the one-pass rms_normalize replaced,
    kept as its bit-identity reference."""
    parts, skipped = [], []
    for g in grad.components.values():
        rms = np.sqrt(np.mean(g**2, axis=-1))
        small = rms < threshold
        kept = g / np.where(small, 1.0, rms)[..., None] if rescale else g
        parts.append(np.where(small[..., None], 0.0, kept))
        skipped.append(small)
    return grad.from_flat(np.concatenate(parts, axis=-1)), np.stack(skipped, axis=-1)


@pytest.mark.parametrize("rescale", [True, False])
@pytest.mark.parametrize("batch", [None, 1, 5])
def test_rms_normalize_matches_per_component_form_bit_for_bit(batch, rescale):
    # component sizes 1-300, scales that keep, skip (zero, 1e-13) or sit at
    # the threshold, drawn per row and component
    rng = np.random.default_rng(2024)
    scales = np.array([1.0, 1e3, 0.0, 1e-13, 1e-12, 3e-13])
    rows = 1 if batch is None else batch
    n_skipped = 0
    for n in range(1, 301):
        sizes = {"a": n, "b": int(rng.integers(1, 301)), "c": 1 + n % 7}
        layout = Embedding({k: np.zeros(v) for k, v in sizes.items()})
        flat = np.concatenate([
            rng.standard_normal((rows, v)) * rng.choice(scales, size=(rows, 1))
            for v in sizes.values()
        ], axis=1)
        grad = layout.from_flat(flat if batch else flat[0])
        got, got_skip = rms_normalize(grad, rescale=rescale)
        want, want_skip = _frozen_normalized(grad, rescale)
        assert np.array_equal(got.flat().view(np.uint64), want.flat().view(np.uint64)), n
        assert got_skip.shape == ((3,) if batch is None else (batch, 3))
        assert np.array_equal(got_skip, want_skip)
        n_skipped += int(want_skip.sum())
    assert 0 < n_skipped < 300 * rows * 3  # both branches taken


# ---------------------------------------------------------------------------
# single steps, hand-checked


def test_embedopt_step_scalar_worked_example():
    model, c, reward = scalar_setup()
    alpha = 0.3
    x_prev, c_prev, info = embedopt_step(
        model, reward, np.array([[6.0]]), c, sigma_t=1.0, sigma_prev=0.5, alpha=alpha
    )
    assert c_prev.components["loc"][0, 0] == pytest.approx(5.3)
    assert info["grad_norm"][0] == pytest.approx(11.84)
    assert info["F"][0] == pytest.approx(-0.5 * 14.8**2)  # logged before the update
    xhat2 = 5.3 + 0.2 * (6.0 - 5.3)
    assert info["x_hat_step"][0, 0] == pytest.approx(xhat2)  # at the updated embedding
    assert x_prev[0, 0] == pytest.approx(6.0 + 0.5 * (xhat2 - 6.0))


def test_embedopt_alpha_zero_keeps_embedding():
    model, c, reward = scalar_setup()
    x_prev, c_prev, _ = embedopt_step(
        model, reward, np.array([[6.0]]), c, 1.0, 0.5, alpha=0.0
    )
    assert c_prev.components["loc"][0] == 5.0
    # identical to the unguided Euler step
    xhat = 5.0 + 0.2 * 1.0
    assert x_prev[0, 0] == pytest.approx(6.0 + 0.5 * (xhat - 6.0), abs=1e-15)


def test_embedopt_skips_flat_gradient():
    model, c = gaussian_fixture(0)
    flat = GaussianMeasurementReward(y=np.zeros(model.D), w=0.0)
    x = np.ones((1, model.D))
    x_prev, c_prev, info = embedopt_step(model, flat, x, c, 1.0, 0.5, alpha=0.7)
    assert info["skipped"].tolist() == [[True, True]]  # both components, u and v
    np.testing.assert_array_equal(c_prev.flat(), c.flat()[None])


def test_dps_sigma2w_guidance_linear_in_weight():
    model, c = gaussian_fixture(1)
    x = 2.0 * np.ones((1, model.D))
    base, _ = dps_step(
        model, GaussianMeasurementReward(y=np.zeros(model.D), w=0.0), x, c, 1.2, 0.9, alpha=0.0
    )
    out1, _ = dps_step(
        model, GaussianMeasurementReward(y=np.zeros(model.D), w=1.0), x, c, 1.2, 0.9, alpha=0.0
    )
    out2, _ = dps_step(
        model, GaussianMeasurementReward(y=np.zeros(model.D), w=2.0), x, c, 1.2, 0.9, alpha=0.0
    )
    np.testing.assert_allclose(out2 - base, 2.0 * (out1 - base), atol=1e-12)


def test_dps_l2_matched_guidance_length():
    model, c = gaussian_fixture(2)
    rng = np.random.default_rng(0)
    x = 2.0 * rng.standard_normal((1, model.D))
    reward = make_reward_for(model)
    alpha = 0.25
    sigma_t, sigma_prev = 1.5, 1.0
    x_guided, info = dps_step(model, reward, x, c, sigma_t, sigma_prev, alpha, "l2_matched")
    xhat = model.denoise(x, c, sigma_t)
    eta = (sigma_t - sigma_prev) / sigma_t
    plain = x + eta * (xhat - x)
    assert np.linalg.norm(x_guided - plain) == pytest.approx(
        eta * alpha * float(np.linalg.norm(xhat - x)), rel=1e-12
    )
    assert info["skipped"].tolist() == [False]


def test_dps_l2_matched_skips_zero_gradient():
    model, c = gaussian_fixture(2)
    x = np.ones((1, model.D))
    flat = GaussianMeasurementReward(y=np.zeros(model.D), w=0.0)
    x_guided, info = dps_step(model, flat, x, c, 1.5, 1.0, alpha=0.25, norm_mode="l2_matched")
    assert info["skipped"].tolist() == [True]
    xhat = model.denoise(x, c, 1.5)
    np.testing.assert_allclose(x_guided, x + (1.0 / 3.0) * (xhat - x), atol=1e-14)


def test_dps_exact_likelihood_scalar_worked_example():
    # k = 0.2, xhat = 5.2, Cov[x0 | x_t] = k sigma^2 = 0.2, so the guidance is
    # sigma^2 * k (y - xhat) / (tau2/w + 0.2) = 0.2 * 14.8 / 1.2
    model, c, reward = scalar_setup()
    x_prev, info = dps_step(
        model, reward, np.array([[6.0]]), c, 1.0, 0.5, alpha=0.0,
        norm_mode="exact_likelihood",
    )
    assert x_prev[0, 0] == pytest.approx(6.0 + 0.5 * (5.2 - 6.0 + 0.2 * 14.8 / 1.2), abs=1e-12)
    assert info["skipped"].tolist() == [False]


def test_dps_exact_likelihood_follows_likelihood_score():
    """Guidance is sigma^2 grad_x log N(y; xhat(x), tau2/w + k sigma^2),
    checked against central differences of that log-density."""
    model, c = gaussian_fixture(3)
    rng = np.random.default_rng(5)
    y = rng.standard_normal(model.D)
    reward = GaussianMeasurementReward(y=y, tau2=0.5, w=2.0)
    x = 2.0 * rng.standard_normal((1, model.D))
    sigma_t, sigma_prev = 1.3, 0.8
    var = reward.tau2 / reward.w + model.posterior_variance(sigma_t)

    def log_lik(z):
        d = y - model.denoise(z[None], c, sigma_t)[0]
        return float(-0.5 * d @ d / var)

    guided, _ = dps_step(
        model, reward, x, c, sigma_t, sigma_prev, alpha=0.0, norm_mode="exact_likelihood"
    )
    eta = (sigma_t - sigma_prev) / sigma_t
    guidance = (guided - x) / eta - (model.denoise(x, c, sigma_t) - x)
    np.testing.assert_allclose(guidance[0], sigma_t**2 * fd_gradient(log_lik, x), rtol=1e-7)


def test_dps_exact_likelihood_needs_closed_form_posterior():
    mix, c = mixture_fixture(0)
    with pytest.raises(ValueError, match="exact_likelihood"):
        dps_step(mix, make_reward_for(mix), np.ones((1, mix.D)), c, 1.0, 0.5, 0.0,
                 norm_mode="exact_likelihood")
    model, c = gaussian_fixture(0)
    distance = DistanceConstraintReward(pairs=((0, 1),), targets=[1.0], delta=2.0)
    with pytest.raises(ValueError, match="exact_likelihood"):
        dps_step(model, distance, np.ones((1, model.D)), c, 1.0, 0.5, 0.0,
                 norm_mode="exact_likelihood")


# ---------------------------------------------------------------------------
# first-order step prediction


def test_taylor_prediction_exact_for_affine_model():
    worst = 0.0
    for p in range(10):
        model, c = gaussian_fixture(seed=700 + p)
        reward = make_reward_for(model)
        rng = np.random.default_rng(p)
        x = 2.0 * rng.standard_normal((1, model.D))
        actual, _, _ = embedopt_step(model, reward, x, c, 1.3, 0.9, alpha=0.05)
        predicted = taylor_predicted_step(model, reward, x, c, 1.3, 0.9, alpha=0.05)
        worst = max(worst, float(np.linalg.norm(actual - predicted)))
    assert worst < 1e-10


def test_taylor_gap_quadratic_in_alpha_for_mixture():
    model, c = mixture_fixture(0)
    reward = make_reward_for(model)
    rng = np.random.default_rng(1)
    probes = [
        (2.0 * rng.standard_normal((1, model.D)), c, 1.2, 0.8) for _ in range(10)
    ]
    out = taylor_gap_scaling(model, reward, probes, alpha=1e-2)
    assert out["median_ratio"] is not None
    assert 3.0 < out["median_ratio"] < 5.0


# ---------------------------------------------------------------------------
# full-trajectory reductions and bookkeeping


def test_run_steered_alpha_zero_matches_unguided():
    model, c = gaussian_fixture(3)
    reward = make_reward_for(model)
    sched = build_linear_schedule(T=40, sigma_max=6.0)
    ref = run_steered(model, None, c, sched, SteeringConfig(method="none"),
                      [np.random.default_rng(9)])
    for config in (
        SteeringConfig(method="embedopt", alpha=0.0),
        SteeringConfig(method="dps", alpha=0.0, dps_norm_mode="l2_matched"),
    ):
        res = run_steered(model, reward, c, sched, config, [np.random.default_rng(9)])
        assert float(np.max(np.abs(res.x0 - ref.x0))) <= 1e-12
    # dps in sigma2w mode reduces through w = 0 instead of alpha
    res = run_steered(
        model, GaussianMeasurementReward(y=np.zeros(model.D), w=0.0), c, sched,
        SteeringConfig(method="dps", dps_norm_mode="sigma2w"), [np.random.default_rng(9)],
    )
    assert float(np.max(np.abs(res.x0 - ref.x0))) <= 1e-12


def test_run_steered_af3_gamma_zero_reduction():
    model, c = gaussian_fixture(3)
    reward = make_reward_for(model)
    sched = build_linear_schedule(T=30, sigma_max=6.0)
    params = Af3SamplerParams(gamma=0.0, eta_scale=1.0)
    for method, rwd in (("none", None), ("embedopt", reward), ("dps", reward)):
        det = run_steered(
            model, rwd, c, sched,
            SteeringConfig(method=method, alpha=0.1), [np.random.default_rng(4)],
        )
        af3 = run_steered(
            model, rwd, c, sched,
            SteeringConfig(method=method, alpha=0.1, sampler_mode="af3", af3=params),
            [np.random.default_rng(4)],
        )
        np.testing.assert_array_equal(det.x0, af3.x0)


def test_embedding_drift_bound():
    # each step moves every component by at most alpha in RMS, so the flat
    # drift is bounded by alpha * sqrt(dim) per step
    model, c = gaussian_fixture(6)
    reward = make_reward_for(model)
    T, alpha = 50, 0.2
    sched = build_linear_schedule(T=T, sigma_max=6.0)
    res = run_steered(
        model, reward, c, sched,
        SteeringConfig(method="embedopt", alpha=alpha), [np.random.default_rng(0)],
    )
    per_step = alpha * np.sqrt(c.dim)
    drifts = res.records[0].embed_drifts
    assert drifts[0] == 0.0  # logged before the first update
    for i, d in enumerate(drifts):
        assert d <= per_step * i + 1e-12
    assert res.c_final.add(c, -1.0).norm()[0] <= per_step * T + 1e-12


@pytest.mark.parametrize("per_row", [False, True])
def test_logged_drift_equals_embedding_difference_norm(per_row):
    # run_steered logs ||c_t - c_T|| from the flat buffers; the Embedding form
    # c_t + (-1) c_T gives the same bits, for one c_T or one per row
    model, c = mixture_fixture(8)
    reward = make_reward_for(model)
    B, T = 3, 12
    c_init = c.broadcast(B).from_flat(c.broadcast(B).flat() + np.arange(B)[:, None]) if per_row else c
    seen = []
    res = run_steered(
        model, reward, c_init, build_linear_schedule(T=T, sigma_max=4.0),
        SteeringConfig(method="embedopt", alpha=0.3),
        [np.random.default_rng(s) for s in range(B)],
        on_update=lambda x_t, c_t, sigma, c_prev, info: seen.append(
            np.broadcast_to(c_t.add(c_init, -1.0).norm(), (B,))
        ),
        alphas=[0.3, 0.0, 0.05],
    )
    assert len(seen) == T
    for b in range(B):
        assert res.records[b].embed_drifts.tobytes() == np.array([d[b] for d in seen]).tobytes()
    assert any(d.any() for d in seen)
    flat_c, flat_init = res.c_final.flat(), c_init.flat()
    assert np.array_equal(_norm(flat_c - flat_init), res.c_final.add(c_init, -1.0).norm())


def test_surrogate_logged_before_update():
    model, c = gaussian_fixture(7)
    reward = make_reward_for(model)
    sched = build_linear_schedule(T=10, sigma_max=4.0)
    res = run_steered(
        model, reward, c, sched,
        SteeringConfig(method="embedopt", alpha=0.5), [np.random.default_rng(1)],
    )
    x_T = 4.0 * np.random.default_rng(1).standard_normal((1, model.D))
    expected_first_F = reward.value(model.denoise(x_T, c, 4.0))[0]
    assert res.records[0].F[0] == pytest.approx(expected_first_F, rel=1e-12)


def test_flat_reward_skips_every_step():
    model, c = gaussian_fixture(8)
    flat = GaussianMeasurementReward(y=np.zeros(model.D), w=0.0)
    T = 15
    sched = build_linear_schedule(T=T, sigma_max=4.0)
    res = run_steered(
        model, flat, c, sched,
        SteeringConfig(method="embedopt", alpha=0.5), [np.random.default_rng(2)],
    )
    assert res.records[0].skip_counts == {"embed:u": T, "embed:v": T}
    np.testing.assert_array_equal(res.c_final.flat()[0], c.flat())
    assert all(g == 0.0 for g in res.records[0].grad_norms)


@pytest.mark.parametrize("method", ["none", "dps", "embedopt"])
def test_run_steered_rejects_non_finite_trajectories(method):
    # w = 1e308 overflows the reward and its gradient on the first step
    model, c = gaussian_fixture(0)
    reward = GaussianMeasurementReward(y=np.zeros(model.D), w=1e308)
    sched = build_linear_schedule(T=5, sigma_max=4.0)
    with np.errstate(all="ignore"), pytest.raises(NonFiniteStateError):
        run_steered(model, reward, c, sched, SteeringConfig(method=method, alpha=0.1),
                    [np.random.default_rng(0)])


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(method="warp"),
        dict(alpha=-0.1),
        dict(alpha=True),  # a bool is not a number
        dict(alpha=None),
        dict(alpha="0.1"),
        dict(dps_norm_mode="l1"),
        dict(embed_norm_mode="l2"),
        dict(sampler_mode="ancestral"),
        dict(alpha=float("nan")),
        dict(alpha=float("inf")),
        dict(method="embedopt", alpha=10**400),  # no float holds it
    ],
)
def test_steering_config_validation(kwargs):
    with pytest.raises(ValueError):
        SteeringConfig(**kwargs)


def test_steering_config_manifest_round_trip():
    config = SteeringConfig(method="embedopt", alpha=0.1)
    info = config.to_manifest()
    assert list(info) == [
        "method", "alpha", "dps_norm_mode", "embed_norm_mode", "sampler_mode", "af3",
    ]
    assert list(info["af3"]) == ["gamma", "gamma_min", "rho_noise", "eta_scale"]
    assert info["method"] == "embedopt"
    assert info["alpha"] == 0.1
    assert info["af3"]["gamma"] == 0.8


def test_steering_config_accepts_exact_likelihood():
    exact = SteeringConfig(method="dps", dps_norm_mode="exact_likelihood")
    assert exact.to_manifest()["dps_norm_mode"] == "exact_likelihood"


@settings(max_examples=20, deadline=None)
@given(
    alpha=st.floats(min_value=0.0, max_value=2.0),
    seed=st.integers(min_value=0, max_value=500),
)
def test_embedopt_trajectories_stay_finite(alpha, seed):
    model, c = gaussian_fixture(seed % 4)
    reward = make_reward_for(model)
    sched = build_linear_schedule(T=20, sigma_max=5.0)
    res = run_steered(
        model, reward, c, sched,
        SteeringConfig(method="embedopt", alpha=alpha), [np.random.default_rng(seed)],
    )
    assert np.all(np.isfinite(res.x0))
    assert np.all(np.isfinite(res.c_final.flat()))
