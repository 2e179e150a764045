"""The unguided sampler, the noise-amplifying sampler mode, and trajectory logs.

The unguided sampler is run_steered with method "none". The
noise-amplification bookkeeping has a closed form: with amplification gamma
the working level inflates to (gamma+1) sigma and the injected noise has
standard deviation rho * sqrt((gamma+1)^2 - 1) * sigma, checked here by
Monte Carlo. gamma = 0 must leave both the coordinates and the random stream
untouched, which makes the reduction to the deterministic sampler exact
rather than approximate.
"""

import dataclasses

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
from conftest import gaussian_fixture, run_script


def sample(model, c, sched, rng, reward=None, **config):
    """Unguided trajectory, a batch of one drawing from rng: (x_0, TrajectoryRecord)."""
    res = run_steered(model, reward, c, sched, SteeringConfig(method="none", **config), [rng])
    return res.x0[0], res.records[0]


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
    x = np.zeros((1, 50_000))
    sigma = 2.0
    x_noised, sigma_hat = af3_noise_inflate(x, sigma, params, [rng])
    assert sigma_hat == pytest.approx((0.8 + 1.0) * sigma)
    expected_std = 1.003 * np.sqrt(1.8**2 - 1.0) * sigma
    assert np.std(x_noised) == pytest.approx(expected_std, abs=0.03)


def test_af3_gamma_zero_touches_nothing():
    params = Af3SamplerParams(gamma=0.0)
    rng = np.random.default_rng(7)
    x = np.arange(5.0)[None, :]
    x_out, sigma_hat = af3_noise_inflate(x, 3.0, params, [rng])
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
    # a bool is not a number, nor an integer no float holds: 2**1024 - 2**970 is
    # the least that float() overflows on, and one less rounds to the largest float
    for name in ("gamma", "gamma_min", "rho_noise", "eta_scale"):
        for bad in ("a", None, True, float("nan"), float("inf"), 10**400, 2**1024 - 2**970):
            with pytest.raises(ValueError, match=name):
                Af3SamplerParams(**{name: bad})
    assert Af3SamplerParams(gamma_min=np.float64(2.0), eta_scale=2).gamma_min == 2.0
    assert Af3SamplerParams(gamma_min=2**1024 - 2**970 - 1).gamma_min == 2**1024 - 2**970 - 1
    info = dataclasses.asdict(Af3SamplerParams())
    assert info == {"gamma": 0.8, "gamma_min": 1.0, "rho_noise": 1.003, "eta_scale": 1.5}


def test_trajectory_record_logging():
    rec = TrajectoryRecord(
        sigmas=np.array([1.5, 1.0]), grad_norms=np.array([0.1, 0.0]),
        embed_drifts=np.zeros(2), skip_counts={"embed:u": 2},
    )
    assert list(rec.steps) == [2, 1]  # derived from the sigmas
    assert rec.nfe == {
        "denoise": 0, "vjp_x": 0, "vjp_c": 0, "reward_value_and_grad": 0, "reward_value": 0,
    }
    assert rec.F is None  # no reward logged


@pytest.mark.parametrize("method", ["embedopt", "none"])
def test_trajectory_demo_script_prints_the_log(method):
    """scripts/trajectory_demo.py prints a row per 20th step and the last one,
    with an empty F column when no reward is logged."""
    out = run_script("trajectory_demo.py", "--T", "20", "--method", method)
    assert out.returncode == 0, out.stderr
    lines = out.stdout.splitlines()
    assert lines[0].split() == ["step", "sigma", "F", "|grad|", "drift"]
    rows = [line.split() for line in lines[1:3]]
    assert [row[0] for row in rows] == ["20", "1"]
    assert all(len(row) == (5 if method == "embedopt" else 4) for row in rows)
    assert all(np.isfinite(float(v)) for row in rows for v in row)
    assert lines[3].startswith("final reward ")


@pytest.mark.parametrize(
    "bad", [("--every", "0"), ("--T", "0"), ("--alpha", "-1")], ids=["every0", "T0", "alpha-1"]
)
def test_trajectory_demo_script_rejects_bad_arguments(bad):
    """A step interval or T below 1, or a negative alpha, is a usage error
    (exit 2) raised before any compute, not a traceback after it."""
    out = run_script("trajectory_demo.py", "--T", "5", *bad)
    assert out.returncode == 2 and out.stdout == ""
    assert out.stderr.startswith("usage: ") and f"error: {bad[0]} must be" in out.stderr


def test_sampler_reproducibility():
    model, c = gaussian_fixture(0)
    sched = build_linear_schedule(T=30, sigma_max=5.0)
    x_a, rec_a = sample(model, c, sched, np.random.default_rng(11))
    x_b, rec_b = sample(model, c, sched, np.random.default_rng(11))
    np.testing.assert_array_equal(x_a, x_b)
    assert rec_a.sigmas.tobytes() == rec_b.sigmas.tobytes()


def test_sampler_single_step_collapses_to_denoiser():
    # T=1: eta = 1, so x0 is exactly the denoised draw at sigma_max
    model, c = gaussian_fixture(1)
    sched = build_linear_schedule(T=1, sigma_max=4.0)
    seed = 5
    x0, _ = sample(model, c, sched, np.random.default_rng(seed))
    x_T = 4.0 * np.random.default_rng(seed).standard_normal((1, model.D))
    np.testing.assert_allclose(x0, model.denoise(x_T, c, 4.0)[0], atol=1e-14)


def test_sampler_logs_reward_when_given():
    model, c = gaussian_fixture(2)
    sched = build_linear_schedule(T=12, sigma_max=3.0)
    reward = GaussianMeasurementReward(y=np.zeros(model.D))
    x0, rec = sample(model, c, sched, np.random.default_rng(0), reward=reward)
    assert len(rec.F) == 12
    assert all(f <= 0.0 for f in rec.F)
    x0_plain, rec_plain = sample(model, c, sched, np.random.default_rng(0))
    np.testing.assert_array_equal(x0, x0_plain)  # logging must not perturb
    assert rec_plain.F is None


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
    assert rec_det.sigmas.tobytes() == rec_af3.sigmas.tobytes()


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
