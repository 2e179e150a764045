"""The verification utilities themselves, checked on known inputs.

The conjugate worked examples are hand-derived: prior N(5, 0.25) with a
unit-variance measurement at 20 has posterior precision 1/0.25 + 1 = 5, mean
(5*4 + 20*1)/5 = 8; with likelihood weight 100 the precision is 104 and the
mean (20 + 2000)/104 = 19.4230769...
"""

import functools
import importlib
import importlib.util
import json
import sys
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from steerkit import cli, steering, verification
from steerkit import (
    AscentAudit,
    CheckResult,
    Embedding,
    GaussianPriorModel,
    MixturePriorModel,
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
    make_mixture_model,
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
    report = check_monotone_surrogate(np.array([-50.0, -51.0]))
    assert report.violations == 1
    assert report.max_violation_magnitude == pytest.approx(1.0)
    assert report.violations / report.total_steps == 1.0


def test_monotone_check_respects_tolerance():
    wiggle = np.array([0.0, -5e-10, 1.0])  # decrease below tol does not count
    assert check_monotone_surrogate(wiggle, tol=1e-9).violations == 0
    assert check_monotone_surrogate(wiggle, tol=1e-11).violations == 1


def test_monotone_check_accepts_trajectory_record():
    rec = TrajectoryRecord(sigmas=np.array([3.0, 2.0, 1.0]), F=np.array([-5.0, -4.0, -4.5]))
    report = check_monotone_surrogate(rec.F)
    assert report.violations == 1
    missing = TrajectoryRecord(sigmas=np.array([1.0, 0.5]))  # no reward logged
    with pytest.raises(ValueError):
        check_monotone_surrogate(missing.F)


def test_monotone_check_needs_two_values():
    with pytest.raises(ValueError):
        check_monotone_surrogate(np.array([1.0]))


def _audit(norm_mode, seed, T=1000):
    task = build_synthetic_task()
    cfg = SteeringConfig(method="embedopt", alpha=0.1, embed_norm_mode=norm_mode)
    return audit_embedding_ascent(
        task.model, task.reward(w=1.0), task.c_init, task.schedule(T=T), cfg,
        [np.random.default_rng(seed)],
    )


@pytest.mark.parametrize("norm_mode", ["rms_per_component", "none"])
def test_ascent_audit_counts_every_update(norm_mode):
    res, audits = _audit(norm_mode, seed=3, T=300)
    audit = audits[0]
    assert len(audits) == 1 and isinstance(audit, AscentAudit)
    assert audit.updates == 300 == len(res.record.F)
    assert 0 < audit.audited <= audit.updates
    assert audit.violations == 0
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
            [np.random.default_rng(0)],
        )


def test_ascent_audit_can_fail_correctly_signed_updates():
    """On the distance task xhat is nonlinear in c, so the trust region does
    not make ascent hold by construction: fixed-length RMS steps, though
    signed to ascend, lower F at many audited updates."""
    task = build_toy_task("distance", seed=0)
    cfg = SteeringConfig(method="embedopt", alpha=0.1)
    _, audits = audit_embedding_ascent(
        task.model, task.reward, task.c_init, task.schedule(), cfg,
        [np.random.default_rng(0)],
    )
    audit = audits[0]
    assert audit.audited > 0
    assert audit.violations / audit.audited > 0.01


def _wrong_sign_step(model, reward, x_t, c_t, sigma_t, sigma_prev, alpha, *args):
    """embedopt_step with the embedding update reversed: it descends F."""
    return embedopt_step(model, reward, x_t, c_t, sigma_t, sigma_prev, -alpha, *args)


def test_ascent_audit_flags_wrong_sign_updates(monkeypatch):
    """Negative control: descending the surrogate fails the audit on every
    audited update, so criterion 3 can still fail."""
    monkeypatch.setattr(steering, "embedopt_step", _wrong_sign_step)
    for norm_mode in ("rms_per_component", "none"):
        audit = _audit(norm_mode, seed=0)[1][0]
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


def _frozen_is_posterior_mean(model, c, x_t, sigma, rng, n_draws, chunk=200000):
    """The importance-sampling chunk loop as it was written with fresh
    temporaries and `.sum(axis=1)`; the live one must match it bit for bit."""
    D = model.D
    sw = 0.0
    swx = np.zeros(D)
    sw2 = 0.0
    sw2x = np.zeros(D)
    sw2x2 = np.zeros(D)
    done = 0
    while done < n_draws:
        m = min(chunk, n_draws - done)
        comps = rng.choice(model.K, size=m, p=model.weights)
        means = model.mode_means(c)[comps]
        x0 = means + model.stds[comps, None] * rng.standard_normal((m, D))
        logw = -((x_t[None, :] - x0) ** 2).sum(axis=1) / (2.0 * sigma**2)
        w = np.exp(logw)
        sw += w.sum()
        swx += w @ x0
        sw2 += (w**2).sum()
        sw2x += (w**2) @ x0
        sw2x2 += (w**2) @ x0**2
        done += m
    est = swx / sw
    var_terms = sw2x2 - 2.0 * est * sw2x + est**2 * sw2
    return est, np.sqrt(np.maximum(var_terms, 0.0)) / sw


def _is_fixture(D, K):
    weights = np.arange(1.0, K + 1.0) / (K * (K + 1) / 2)
    model = make_mixture_model(
        {"u": 2, "v": 1}, D=D, weights=weights, stds=np.linspace(0.4, 1.0, K),
        seed=10 * D + K, mean_scale=1.5,
    )
    c = Embedding({"u": np.array([0.3, -0.7]), "v": np.array([1.1])})
    rng = np.random.default_rng(100 * D + K)
    x_t = model.mode_means(c)[K - 1] + 0.8 * rng.standard_normal(D)
    return model, c, x_t


def _one_is_probe(model, c, x_t, sigma, rng, n_draws):
    """One probe through the suite's IS path: the thread pool, one buffer set."""
    return verification._run_is_probes(model, model.mode_means(c), [(x_t, sigma, rng)], n_draws)[0]


@pytest.mark.parametrize("n_draws", [
    17, 250001, verification._IS_BLOCK + 1, verification._IS_CHUNK + verification._IS_BLOCK - 1,
])
@pytest.mark.parametrize("K", [1, 2, 3])
@pytest.mark.parametrize("D", [1, 3, 6, 9])
def test_is_posterior_mean_matches_frozen_loop_bit_for_bit(D, K, n_draws):
    # 250,001 draws end in a one-draw chunk after a full one; _IS_BLOCK + 1 ends
    # one draw into a chunk's second block, and the last case one draw short of a
    # block's end in a second chunk
    model, c, x_t = _is_fixture(D, K)
    want = _frozen_is_posterior_mean(model, c, x_t, 0.9, np.random.default_rng(D + K), n_draws)
    got = _one_is_probe(model, c, x_t, 0.9, np.random.default_rng(D + K), n_draws)
    assert np.array_equal(got[0], want[0])
    assert np.array_equal(got[1], want[1])


@pytest.mark.parametrize("values", [
    [-0.0, np.inf, np.nan], [np.nan, 5e-324, -0.0], [5e-324, -1.5, -np.inf],
])
@pytest.mark.parametrize("K", [1, 2, 3])
def test_select_writes_the_fill_copyto_bits(K, values):
    # a strided column, as each coordinate's means reach _select; 5e-324 is subnormal
    values = np.stack([values, values], axis=1)[:K, 0]
    u = np.random.default_rng(K).random(1001)
    masks = np.array([u >= k / K for k in range(1, K)], dtype=bool).reshape(K - 1, u.size)
    want = np.empty(u.size)
    want.fill(values[0])
    for k in range(1, K):
        np.copyto(want, values[k], where=masks[k - 1])
    got = np.full(u.size, 7.0)
    verification._select(got, values, masks)
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("D", [3, 9])
def test_is_posterior_mean_peaks_below_one_and_a_half_chunk_buffers(D):
    # only x0, the weights and the masks are chunk-sized; the rest is block-sized
    model, c, x_t = _is_fixture(D, 2)
    chunk_bytes = 200000 * D * 8
    _one_is_probe(model, c, x_t, 0.9, np.random.default_rng(0), 1000)
    tracemalloc.start()
    try:
        _one_is_probe(model, c, x_t, 0.9, np.random.default_rng(1), 1000000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.5 * chunk_bytes, f"{peak / chunk_bytes:.2f} chunk buffers"


@pytest.mark.parametrize("x_t", [[np.nan, 0.0, 0.0], [np.inf, 0.0, 0.0]])
def test_is_posterior_mean_raises_on_unusable_weights(x_t):
    model, c, _ = _is_fixture(3, 2)
    with pytest.raises(OracleFailureError):
        _one_is_probe(model, c, np.array(x_t), 0.9, np.random.default_rng(0), 1000)


def test_nan_measurement_fails_model_fd_row(monkeypatch):
    """Negative control: a NaN derivative fails its row instead of being
    dropped by a running max."""
    monkeypatch.setattr(
        GaussianPriorModel, "vjp_x", lambda self, x, c, sigma, v: np.full(self.D, np.nan),
    )
    rows = {r.name: r for r in verification._model_fd_rows(
        verification._gaussian_fixture, "gaussian", 2, 1e-5)}
    assert not rows["fd_gaussian_vjp_x"].passed
    assert "nan" in rows["fd_gaussian_vjp_x"].detail
    assert rows["fd_gaussian_vjp_c"].passed and rows["fd_gaussian_jvp_c"].passed


def test_nan_denoiser_fails_mixture_mc_row(monkeypatch):
    monkeypatch.setattr(
        MixturePriorModel, "denoise", lambda self, x, c, sigma: np.full(self.D, np.nan),
    )
    row = verification._mixture_mc_row(2, 1000)
    assert row.name == "mixture_posterior_mean_mc"
    assert not row.passed
    assert "nan standard errors" in row.detail


def _record_is_calls(monkeypatch, fake=None):
    """Wrap the pool's per-probe IS call; returns the list it appends
    (thread id, sigma, result) to."""
    calls = []
    real = verification._is_posterior_mean

    def recorded(model, means, x_t, sigma, rng, n_draws, bufs):
        out = (fake or real)(model, means, x_t, sigma, rng, n_draws, bufs)
        calls.append((threading.get_ident(), sigma, out))
        return out

    monkeypatch.setattr(verification, "_is_posterior_mean", recorded)
    return calls


def test_mixture_mc_row_is_bit_identical_at_any_pool_size(monkeypatch):
    """1, 2 and 4 workers (more than most hosts' cores, with a short switch
    interval) give the same per-probe bits: no two probes share a buffer set."""
    calls = _record_is_calls(monkeypatch)
    runs = {}
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for workers in (1, 2, 4):
            monkeypatch.setattr(verification, "_usable_cpus", lambda w=workers: w)
            calls.clear()
            row = verification._mixture_mc_row(4, 250001)
            per_probe = sorted((sigma, est.tobytes(), se.tobytes()) for _, sigma, (est, se) in calls)
            runs[workers] = (row, per_probe, {tid for tid, _, _ in calls})
    finally:
        sys.setswitchinterval(interval)
    assert len(runs[1][1]) == 4
    assert runs[1][1] == runs[2][1] == runs[4][1]
    assert runs[1][0] == runs[2][0] == runs[4][0]
    assert len(runs[1][2]) == 1 and len(runs[2][2]) <= 2


def _tracer_targets():
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracer", Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TARGETS


def test_mixture_mc_row_keeps_models_and_traced_functions_on_the_calling_thread(monkeypatch):
    """The models' one-entry memo and the benchmark tracer's span stack are
    not thread-safe, so only the IS draws may run on the pool's threads."""
    seen = {}

    def record(name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            seen.setdefault(name, set()).add(threading.get_ident())
            return fn(*args, **kwargs)
        return wrapper

    modules = [m for n, m in sys.modules.items() if n == "steerkit" or n.startswith("steerkit.")]
    targets = dict(_tracer_targets())
    targets["models.mixture.mode_means"] = ("steerkit.models", "MixturePriorModel.mode_means")
    for name, (mod_name, attr) in targets.items():
        owner = importlib.import_module(mod_name)
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(owner, cls_name)
            monkeypatch.setattr(cls, meth, record(name, cls.__dict__[meth]))
            continue
        original = getattr(owner, attr)
        wrapper = record(name, original)
        for mod in modules:
            for key, value in list(vars(mod).items()):
                if value is original:
                    monkeypatch.setattr(mod, key, wrapper)
    monkeypatch.setattr(verification, "_usable_cpus", lambda: 2)
    calls = _record_is_calls(monkeypatch)
    verification._mixture_mc_row(4, 1000)
    caller = threading.get_ident()
    assert {"models.mixture.denoise", "models.mixture.mode_means"} <= set(seen)
    assert all(threads == {caller} for threads in seen.values()), seen
    assert len(calls) == 4 and caller not in {tid for tid, _, _ in calls}


def test_is_pool_workers_see_the_callers_errstate(monkeypatch):
    states = []

    def fake(model, means, x_t, sigma, rng, n_draws, bufs):
        states.append(np.geterr())
        return np.zeros(model.D), np.ones(model.D)

    monkeypatch.setattr(verification, "_usable_cpus", lambda: 2)
    calls = _record_is_calls(monkeypatch, fake)
    with np.errstate(all="ignore"):
        caller_state = np.geterr()
        verification._mixture_mc_row(4, 1000)
    assert caller_state != np.geterr()
    assert len(calls) == 4 and all(tid != threading.get_ident() for tid, _, _ in calls)
    assert states == [caller_state] * 4


def test_is_pool_reraises_the_first_probes_oracle_failure(monkeypatch):
    raised = {}

    def fake(model, means, x_t, sigma, rng, n_draws, bufs):
        raised[sigma] = OracleFailureError(f"probe at sigma {sigma}")
        raise raised[sigma]

    monkeypatch.setattr(verification, "_usable_cpus", lambda: 2)
    monkeypatch.setattr(verification, "_is_posterior_mean", fake)
    with pytest.raises(OracleFailureError) as excinfo:
        verification._mixture_mc_row(4, 1000)
    first_sigma = float(np.random.default_rng(9000).uniform(0.3, 2.0))
    assert excinfo.value is raised[first_sigma]


def test_nan_max_propagates_nan():
    nan = float("nan")
    assert verification._nan_max(1.0, 2.0) == 2.0
    assert verification._nan_max(2.0, 1.0) == 2.0
    assert np.isnan(verification._nan_max(0.0, nan))
    assert np.isnan(verification._nan_max(nan, 5.0))


@pytest.mark.parametrize("failing", [False, True])
def test_verify_cli_prints_one_line_per_check(monkeypatch, capsys, tmp_path, failing):
    """The same table and exit code with and without --out; with it, the
    report holds the same verdicts."""
    rows = [
        CheckResult("fd_gaussian_vjp_x", True, "max rel err 1.000e-09 over 2 probes (tol 1e-05)"),
        CheckResult("tweedie_mixture", not failing, "max rel err 2.000e-15 over 2 probes (tol 1e-10)"),
    ]
    monkeypatch.setattr(verification, "run_verification_suite", lambda telemetry: rows)
    out = tmp_path / "verify"
    runs = []
    for argv in (["verify"], ["verify", "--out", str(out)]):
        code = cli.main(argv)
        runs.append((code, capsys.readouterr().out.splitlines()))
    status = "FAIL" if failing else "PASS"
    lines = [
        "PASS  fd_gaussian_vjp_x  max rel err 1.000e-09 over 2 probes (tol 1e-05)",
        f"{status}  tweedie_mixture    max rel err 2.000e-15 over 2 probes (tol 1e-10)",
        f"{1 if failing else 2}/2 checks passed",
    ]
    assert runs == [(1 if failing else 0, lines)] * 2
    report = json.loads((out / "verify_report.json").read_text(encoding="utf-8"))
    assert report["all_passed"] is not failing
    assert [c["passed"] for c in report["checks"]] == [r.passed for r in rows]
