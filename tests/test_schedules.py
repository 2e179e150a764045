"""Noise-grid construction and the per-step Euler fraction.

Worked examples are hand-computed; the linear grid at T=4, sigma_max=2 is
[0, 0.5, 1.0, 1.5, 2.0] and eta_t = (sigma_t - sigma_{t-1})/sigma_t = 1/t on
any linear grid.
"""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from steerkit import (
    NoiseSchedule,
    build_linear_schedule,
    step_fraction,
)


def test_linear_schedule_worked_example():
    sched = build_linear_schedule(T=4, sigma_max=2.0)
    np.testing.assert_allclose(sched.sigma_values, [0.0, 0.5, 1.0, 1.5, 2.0])
    assert sched.num_steps == 4
    assert sched.sigma_values[-1] == 2.0


def test_linear_schedule_endpoints_exact():
    sched = build_linear_schedule(T=1000, sigma_max=100.0)
    assert sched.sigma_values[0] == 0.0
    assert sched.sigma_values[-1] == 100.0
    assert len(sched.sigma_values) == 1001


@pytest.mark.parametrize(
    "builder, kwargs",
    [
        (build_linear_schedule, dict(T=0, sigma_max=1.0)),
        (build_linear_schedule, dict(T=10, sigma_max=0.0)),
        (build_linear_schedule, dict(T=10, sigma_max=-1.0)),
    ],
)
def test_builder_rejects_bad_arguments(builder, kwargs):
    with pytest.raises(ValueError):
        builder(**kwargs)


@pytest.mark.parametrize("T", [10**18, 2 * 10**18, 10**19, 10**400])
def test_step_counts_too_large_to_allocate_are_memory_errors(T):
    # 10**18 fails in numpy's allocation; the rest are past what numpy can
    # size, where it raises ValueError
    with pytest.raises(MemoryError):
        build_linear_schedule(T, 1.0)


@pytest.mark.parametrize(
    "values",
    [
        [0.0],                 # too short
        [0.0, 1.0, 1.0],       # not strictly increasing
        [0.0, 2.0, 1.0],       # decreasing
        [-0.1, 1.0],           # negative floor
        [0.0, np.inf],         # non-finite
        [0.0, np.nan],
    ],
)
def test_schedule_validation(values):
    with pytest.raises(ValueError):
        NoiseSchedule(sigma_values=np.array(values))


def test_step_fraction_worked_examples():
    # (2.0 - 1.5)/2.0
    assert step_fraction(2.0, 1.5) == 0.25
    # final step of any schedule fully denoises
    assert step_fraction(0.7, 0.0) == 1.0


def test_step_fraction_rejects_bad_inputs():
    with pytest.raises(ValueError):
        step_fraction(1.0, 1.0)
    with pytest.raises(ValueError):
        step_fraction(1.0, 2.0)
    # NaN fails every comparison and inf / inf is NaN: each must raise, not return NaN
    nan, inf = float("nan"), float("inf")
    for sigma_t, sigma_prev in ((nan, 0.0), (1.0, nan), (inf, 1.0), (1.0, -0.5)):
        with pytest.raises(ValueError):
            step_fraction(sigma_t, sigma_prev)


def test_linear_step_fractions_are_one_over_t():
    sched = build_linear_schedule(T=64, sigma_max=7.3)
    sig = sched.sigma_values
    for t in range(64, 0, -1):
        eta = step_fraction(float(sig[t]), float(sig[t - 1]))
        assert eta == pytest.approx(1.0 / t, rel=1e-12)


def test_manifest_round_trip():
    sched = build_linear_schedule(T=8, sigma_max=3.0)
    info = sched.to_manifest()
    assert info["T"] == 8
    rebuilt = NoiseSchedule(sigma_values=np.array(info["sigma_values"]))
    np.testing.assert_array_equal(rebuilt.sigma_values, sched.sigma_values)


@given(
    T=st.integers(min_value=1, max_value=400),
    sigma_max=st.floats(min_value=1e-3, max_value=1e4),
)
def test_linear_grid_strictly_increasing(T, sigma_max):
    sig = build_linear_schedule(T, sigma_max).sigma_values
    assert sig[0] == 0.0
    assert np.all(np.diff(sig) > 0)


@given(
    sigma_t=st.floats(min_value=1e-6, max_value=1e6),
    frac=st.floats(min_value=0.0, max_value=0.999),
)
def test_current_mode_fraction_in_unit_interval(sigma_t, frac):
    sigma_prev = sigma_t * frac
    eta = step_fraction(sigma_t, sigma_prev)
    assert 0.0 < eta <= 1.0
