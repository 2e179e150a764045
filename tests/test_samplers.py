"""The unguided sampler, the noise-amplifying sampler mode, and trajectory logs.

The unguided sampler is run_steered with method "none". The
noise-amplification bookkeeping has a closed form: with amplification gamma
the working level inflates to (gamma+1) sigma and the injected noise has
standard deviation rho * sqrt((gamma+1)^2 - 1) * sigma, checked here by
Monte Carlo. gamma = 0 must leave both the coordinates and the random stream
untouched, which makes the reduction to the deterministic sampler exact
rather than approximate.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from steerkit import (
    Af3SamplerParams,
    GaussianMeasurementReward,
    SteeringConfig,
    TrajectoryRecord,
    af3_noise_inflate,
    build_linear_schedule,
    build_synthetic_task,
    euler_step,
    run_steered,
)
from conftest import gaussian_fixture


def sample(model, c, sched, rng, reward=None, **config):
    """Unguided trajectory: (x_0, TrajectoryRecord)."""
    res = run_steered(model, reward, c, sched, SteeringConfig(method="none", **config), rng)
    return res.x0, res.record


def test_euler_step_worked_example():
    # eta = (2 - 1)/2 = 0.5, so x moves halfway toward xhat
    x = np.array([4.0])
    xhat = np.array([0.0])
    np.testing.assert_allclose(euler_step(x, xhat, 2.0, 1.0), [2.0])
    # eta_scale stretches the same move
    np.testing.assert_allclose(euler_step(x, xhat, 2.0, 1.0, eta_scale=1.5), [1.0])


def test_af3_inflation_bookkeeping():
    params = Af3SamplerParams(gamma=0.8, rho_noise=1.003)
    rng = np.random.default_rng(0)
    x = np.zeros(50_000)
    sigma = 2.0
    x_noised, sigma_hat = af3_noise_inflate(x, sigma, params, rng)
    assert sigma_hat == pytest.approx((0.8 + 1.0) * sigma)
    expected_std = 1.003 * np.sqrt(1.8**2 - 1.0) * sigma
    assert np.std(x_noised) == pytest.approx(expected_std, abs=0.03)


def test_af3_gamma_zero_touches_nothing():
    params = Af3SamplerParams(gamma=0.0)
    rng = np.random.default_rng(7)
    x = np.arange(5.0)
    x_out, sigma_hat = af3_noise_inflate(x, 3.0, params, rng)
    np.testing.assert_array_equal(x_out, x)
    assert sigma_hat == 3.0
    # the random stream must be exactly where a fresh one would be
    assert rng.standard_normal() == np.random.default_rng(7).standard_normal()


def test_af3_params_validation():
    with pytest.raises(ValueError):
        Af3SamplerParams(gamma=-0.1)
    with pytest.raises(ValueError):
        Af3SamplerParams(rho_noise=0.0)
    with pytest.raises(ValueError):
        Af3SamplerParams(eta_scale=0.0)
    info = Af3SamplerParams().to_manifest()
    assert info == {"gamma": 0.8, "gamma_min": 1.0, "rho_noise": 1.003, "eta_scale": 1.5}


def test_trajectory_record_logging():
    rec = TrajectoryRecord(
        steps=[3, 2], sigmas=[1.5, 1.0], F=[-2.0, None], grad_norms=[0.1, 0.0],
        embed_drifts=[0.0, 0.0], skip_counts={"embed:u": 2},
    )
    assert rec.nfe == {
        "denoise": 0, "vjp_x": 0, "vjp_c": 0, "reward_value_and_grad": 0, "reward_value": 0,
    }
    rows = list(rec.csv_rows())
    assert rows[0] == (3, 1.5, -2.0, 0.1, 0.0)
    assert rows[1][2] == ""  # missing F renders as an empty cell
    with pytest.raises(ValueError):
        rec.F_values  # noqa: B018 - property access is the check


def test_trajectory_record_f_values_when_complete():
    rec = TrajectoryRecord(steps=[2, 1], sigmas=[2.0, 1.0], F=[-3.0, -1.0])
    np.testing.assert_array_equal(rec.F_values, [-3.0, -1.0])


def test_sampler_reproducibility():
    model, c = gaussian_fixture(0)
    sched = build_linear_schedule(T=30, sigma_max=5.0)
    x_a, rec_a = sample(model, c, sched, np.random.default_rng(11))
    x_b, rec_b = sample(model, c, sched, np.random.default_rng(11))
    np.testing.assert_array_equal(x_a, x_b)
    assert rec_a.sigmas == rec_b.sigmas


def test_sampler_single_step_collapses_to_denoiser():
    # T=1: eta = 1, so x0 is exactly the denoised draw at sigma_max
    model, c = gaussian_fixture(1)
    sched = build_linear_schedule(T=1, sigma_max=4.0)
    seed = 5
    x0, _ = sample(model, c, sched, np.random.default_rng(seed))
    x_T = 4.0 * np.random.default_rng(seed).standard_normal(model.D)
    np.testing.assert_allclose(x0, model.denoise(x_T, c, 4.0), atol=1e-14)


def test_sampler_logs_reward_when_given():
    model, c = gaussian_fixture(2)
    sched = build_linear_schedule(T=12, sigma_max=3.0)
    reward = GaussianMeasurementReward(y=np.zeros(model.D))
    x0, rec = sample(model, c, sched, np.random.default_rng(0), reward=reward)
    assert len(rec.F_values) == 12
    assert all(f <= 0.0 for f in rec.F_values)
    x0_plain, rec_plain = sample(model, c, sched, np.random.default_rng(0))
    np.testing.assert_array_equal(x0, x0_plain)  # logging must not perturb
    assert all(f is None for f in rec_plain.F)


def test_sampler_rejects_unknown_mode():
    model, c = gaussian_fixture(0)
    sched = build_linear_schedule(T=5, sigma_max=1.0)
    with pytest.raises(ValueError):
        sample(model, c, sched, np.random.default_rng(0), sampler_mode="leapfrog")


def test_af3_gamma_zero_reduces_to_deterministic():
    model, c = gaussian_fixture(4)
    sched = build_linear_schedule(T=25, sigma_max=6.0)
    params = Af3SamplerParams(gamma=0.0, eta_scale=1.0)
    x_det, rec_det = sample(model, c, sched, np.random.default_rng(3))
    x_af3, rec_af3 = sample(
        model, c, sched, np.random.default_rng(3), sampler_mode="af3", af3=params
    )
    np.testing.assert_array_equal(x_det, x_af3)
    assert rec_det.sigmas == rec_af3.sigmas


def test_af3_with_noise_differs_and_stays_finite():
    model, c = gaussian_fixture(4)
    sched = build_linear_schedule(T=25, sigma_max=6.0)
    x_det, _ = sample(model, c, sched, np.random.default_rng(3))
    x_af3, _ = sample(
        model, c, sched, np.random.default_rng(3), sampler_mode="af3",
        af3=Af3SamplerParams(gamma=0.8),
    )
    assert np.all(np.isfinite(x_af3))
    assert not np.allclose(x_det, x_af3)


def test_unguided_endpoint_statistics_on_scalar_task():
    # endpoints should recover the prior N(5, 0.5^2) up to discretization
    task = build_synthetic_task()
    sched = task.schedule()
    draws = np.array(
        [
            sample(task.model, task.c_init, sched, np.random.default_rng(s))[0][0]
            for s in range(100)
        ]
    )
    assert abs(draws.mean() - 5.0) < 0.2
    assert 0.35 < draws.std(ddof=1) < 0.6


@settings(max_examples=25, deadline=None)
@given(T=st.integers(min_value=1, max_value=40), seed=st.integers(min_value=0, max_value=1000))
def test_sampler_endpoints_finite(T, seed):
    model, c = gaussian_fixture(seed % 3)
    sched = build_linear_schedule(T=T, sigma_max=8.0)
    x0, rec = sample(model, c, sched, np.random.default_rng(seed))
    assert np.all(np.isfinite(x0))
    assert len(rec.steps) == T
