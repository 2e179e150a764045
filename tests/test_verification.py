"""The verification utilities themselves, checked on known inputs.

The conjugate worked examples are hand-derived: prior N(5, 0.25) with a
unit-variance measurement at 20 has posterior precision 1/0.25 + 1 = 5, mean
(5*4 + 20*1)/5 = 8; with likelihood weight 100 the precision is 104 and the
mean (20 + 2000)/104 = 19.4230769...
"""

import numpy as np
import pytest

from steerkit import steering, verification
from steerkit import (
    AscentAudit,
    MonotonicityReport,
    OracleFailureError,
    SampleSummary,
    SteeringConfig,
    TrajectoryRecord,
    audit_embedding_ascent,
    build_synthetic_task,
    build_toy_task,
    check_monotone_surrogate,
    conjugate_posterior,
    fd_gradient,
    rel_error,
    run_verification_suite,
    summarize_samples,
)
from steerkit.steering import embedopt_step


def test_conjugate_posterior_worked_examples():
    mean1, var1 = conjugate_posterior(5.0, 0.25, 20.0, tau2=1.0, w=1.0)
    assert mean1 == pytest.approx(8.0, abs=1e-12)
    assert var1 == pytest.approx(0.2, abs=1e-12)
    mean100, var100 = conjugate_posterior(5.0, 0.25, 20.0, tau2=1.0, w=100.0)
    assert mean100 == pytest.approx(2020.0 / 104.0, abs=1e-12)
    assert var100 == pytest.approx(1.0 / 104.0, abs=1e-12)


def test_conjugate_posterior_zero_weight_returns_prior():
    mean, var = conjugate_posterior(5.0, 0.25, 20.0, w=0.0)
    assert (mean, var) == (5.0, 0.25)


def test_conjugate_posterior_validation():
    with pytest.raises(ValueError):
        conjugate_posterior(0.0, 0.0, 1.0)
    with pytest.raises(ValueError):
        conjugate_posterior(0.0, 1.0, 1.0, tau2=-1.0)
    with pytest.raises(ValueError):
        conjugate_posterior(0.0, 1.0, 1.0, w=-0.5)


def test_fd_gradient_on_polynomial():
    point = np.array([1.0, -2.0, 0.5])
    grad = fd_gradient(lambda x: float(np.sum(x**3)), point)
    np.testing.assert_allclose(grad, 3.0 * point**2, rtol=1e-8)


def test_fd_gradient_quadratic_near_exact():
    A = np.array([[2.0, 0.5], [0.5, 1.0]])
    point = np.array([0.3, -0.7])
    grad = fd_gradient(lambda x: float(x @ A @ x), point)
    np.testing.assert_allclose(grad, 2.0 * A @ point, atol=1e-9)


def test_fd_gradient_flags_non_finite_oracle():
    with pytest.raises(OracleFailureError):
        fd_gradient(lambda x: float("nan"), np.zeros(2))


def test_rel_error_basics():
    assert rel_error(np.array([1.0, 0.0]), np.array([1.0, 0.0])) == 0.0
    assert rel_error(np.array([2.0]), np.array([1.0])) == pytest.approx(1.0)
    # zero denominator is floored, not a division error
    assert np.isfinite(rel_error(np.array([1e-8]), np.array([0.0])))


def test_monotone_check_worked_examples():
    report = check_monotone_surrogate(np.array([-72.0, -60.0, -50.0]))
    assert (report.total_steps, report.violations) == (2, 0)
    assert report.fraction == 0.0
    report = check_monotone_surrogate(np.array([-50.0, -51.0]))
    assert report.violations == 1
    assert report.max_violation_magnitude == pytest.approx(1.0)
    assert report.fraction == 1.0


def test_monotone_check_respects_tolerance():
    wiggle = np.array([0.0, -5e-10, 1.0])  # decrease below tol does not count
    assert check_monotone_surrogate(wiggle, tol=1e-9).violations == 0
    assert check_monotone_surrogate(wiggle, tol=1e-11).violations == 1


def test_monotone_check_accepts_trajectory_record():
    rec = TrajectoryRecord(steps=[3, 2, 1], sigmas=[3.0, 2.0, 1.0], F=[-5.0, -4.0, -4.5])
    report = check_monotone_surrogate(rec)
    assert report.violations == 1
    missing = TrajectoryRecord(steps=[1, 0], sigmas=[1.0, 0.5], F=[None, -1.0])
    with pytest.raises(ValueError):
        check_monotone_surrogate(missing)


def test_monotone_check_needs_two_values():
    with pytest.raises(ValueError):
        check_monotone_surrogate(np.array([1.0]))


def test_monotonicity_report_fraction():
    report = MonotonicityReport(total_steps=200, violations=5,
                                max_violation_magnitude=0.1, tol=1e-9)
    assert report.fraction == pytest.approx(0.025)


def _audit(norm_mode, seed, T=1000):
    task = build_synthetic_task()
    cfg = SteeringConfig(method="embedopt", alpha=0.1, embed_norm_mode=norm_mode)
    return audit_embedding_ascent(
        task.model, task.reward(w=1.0), task.c_init, task.schedule(T=T), cfg,
        np.random.default_rng(seed),
    )


@pytest.mark.parametrize("norm_mode", ["rms_per_component", "none"])
def test_ascent_audit_counts_every_update(norm_mode):
    res, audit = _audit(norm_mode, seed=3, T=300)
    assert isinstance(audit, AscentAudit)
    assert audit.updates == 300 == len(res.record.F)
    assert 0 < audit.audited <= audit.updates
    assert audit.violations == 0 and audit.fraction == 0.0
    if norm_mode == "none":
        # a raw step gains alpha (1 - k)^2 (xhat - y)^2 to first order, at most
        # -F = (xhat - y)^2 / 2 at alpha = 0.1, so every update is audited
        assert audit.audited == audit.updates


@pytest.mark.parametrize(
    "changes", [{"method": "dps"}, {"sampler_mode": "af3"}]
)
def test_ascent_audit_rejects_configs_it_cannot_audit(changes):
    # the audit reads the coordinate step's denoiser output, which is
    # xhat(x_t, c_{t-1}, sigma_t) only under the deterministic sampler
    task = build_synthetic_task()
    cfg = SteeringConfig(**{"method": "embedopt", "alpha": 0.1, **changes})
    with pytest.raises(ValueError):
        audit_embedding_ascent(
            task.model, task.reward(), task.c_init, task.schedule(T=10), cfg,
            np.random.default_rng(0),
        )


def test_ascent_audit_can_fail_correctly_signed_updates():
    """On the distance task xhat is nonlinear in c, so the trust region does
    not make ascent hold by construction: fixed-length RMS steps, though
    signed to ascend, lower F at many audited updates."""
    task = build_toy_task("distance", seed=0)
    cfg = SteeringConfig(method="embedopt", alpha=0.1)
    _, audit = audit_embedding_ascent(
        task.model, task.reward, task.c_init, task.schedule(), cfg,
        np.random.default_rng(0),
    )
    assert audit.audited > 0
    assert audit.fraction > 0.01


def _wrong_sign_step(model, reward, x_t, c_t, sigma_t, sigma_prev, alpha, *args):
    """embedopt_step with the embedding update reversed: it descends F."""
    return embedopt_step(model, reward, x_t, c_t, sigma_t, sigma_prev, -alpha, *args)


def test_ascent_audit_flags_wrong_sign_updates(monkeypatch):
    """Negative control: descending the surrogate fails the audit on every
    audited update, so criterion 3 can still fail."""
    monkeypatch.setattr(steering, "embedopt_step", _wrong_sign_step)
    for norm_mode in ("rms_per_component", "none"):
        _, audit = _audit(norm_mode, seed=0)
        assert audit.audited > 0
        assert audit.violations == audit.audited
        assert audit.max_violation_magnitude > 1e-9
    rows = verification._monotonicity_rows(1) + [verification._distance_ascent_row(1)]
    assert [r.name for r in rows] == [
        "monotone_surrogate_rms", "monotone_surrogate_raw", "monotone_surrogate_distance_raw",
    ]
    assert not any(r.passed for r in rows)


def test_summarize_samples_moments_and_histogram():
    samples = np.array([1.0, 2.0, 3.0, 4.0])
    s = summarize_samples(samples, bins=3)
    assert isinstance(s, SampleSummary)
    assert s.mean[0] == pytest.approx(2.5)
    assert s.std[0] == pytest.approx(np.std(samples, ddof=1))
    assert s.counts.sum() == 4
    assert len(s.bin_edges) == 4
    assert s.bin_edges[0] == 1.0 and s.bin_edges[-1] == 4.0


def test_summarize_samples_identical_values():
    s = summarize_samples(np.array([2.0, 2.0, 2.0]), bins=5)
    assert s.bin_edges[0] == 1.5 and s.bin_edges[-1] == 2.5
    assert s.counts.sum() == 3
    assert s.std[0] == 0.0


def test_summarize_samples_needs_two():
    with pytest.raises(ValueError):
        summarize_samples(np.array([1.0]))


def test_quick_suite_outcomes():
    """The self-check suite is deterministic and every check passes,
    including the per-update surrogate ascent audits (see
    audit_embedding_ascent).
    """
    results = run_verification_suite(quick=True)
    outcomes = {r.name: r.passed for r in results}
    failing = sorted(name for name, ok in outcomes.items() if not ok)
    assert failing == []
    assert len(results) >= 25
    for r in results:
        assert r.detail  # every check explains itself
