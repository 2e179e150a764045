"""The verification utilities themselves, checked on known inputs.

The conjugate worked examples are hand-derived: prior N(5, 0.25) with a
unit-variance measurement at 20 has posterior precision 1/0.25 + 1 = 5, mean
(5*4 + 20*1)/5 = 8; with likelihood weight 100 the precision is 104 and the
mean (20 + 2000)/104 = 19.4230769...
"""

import inspect
import json
import os
import re
import subprocess
import sys
import textwrap
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from steerkit import cli, models, steering, verification
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
    grad = fd_gradient(lambda x: np.sum(x**3, axis=1), point)
    np.testing.assert_allclose(grad, 3.0 * point**2, rtol=1e-8)


def test_fd_gradient_quadratic_near_exact():
    A = np.array([[2.0, 0.5], [0.5, 1.0]])
    point = np.array([0.3, -0.7])
    grad = fd_gradient(lambda x: np.vecdot(x @ A, x), point)
    np.testing.assert_allclose(grad, 2.0 * A @ point, atol=1e-9)


def test_fd_gradient_flags_non_finite_oracle():
    with pytest.raises(OracleFailureError):
        fd_gradient(lambda x: np.full(len(x), np.nan), np.zeros(2))


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
    # the tolerance is 1e-9: a decrease of 5e-10 does not count, one of 2e-9 does
    assert check_monotone_surrogate(np.array([0.0, -5e-10, 1.0])).violations == 0
    assert check_monotone_surrogate(np.array([0.0, -2e-9, 1.0])).violations == 1


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
    assert audit.updates == 300 == len(res.records[0].F)
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


@pytest.mark.parametrize("bins", [2.5, True, "60", 0], ids=["float", "bool", "string", "zero"])
def test_summarize_samples_takes_an_integer_bin_count(bins):
    # the rule build_linear_schedule applies to T: a non-bool integer of at least 1
    with pytest.raises(ValueError, match="bins"):
        summarize_samples(np.array([1.0, 2.0, 3.0]), bins=bins)
    assert summarize_samples(np.array([1.0, 2.0, 3.0]), bins=np.int64(2)).counts.tolist() == [1, 2]


def test_full_suite_outcomes(verify_run):
    """Every check of the self-check suite passes, including the per-update
    surrogate ascent audits (see audit_embedding_ascent), and `steerkit
    verify` prints one line per check and the count."""
    results = verify_run.rows
    outcomes = {r.name: r.passed for r in results}
    failing = sorted(name for name, ok in outcomes.items() if not ok)
    assert failing == []
    assert len(results) >= 25
    for r in results:
        assert r.detail  # every check explains itself
    assert verify_run.code == 0
    assert verify_run.lines[-1] == f"{len(results)}/{len(results)} checks passed"
    assert len(verify_run.lines) == len(results) + 1


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


def _is_probe(model, c, x_t, sigma, rng, n_draws):
    return verification._is_posterior_mean(model, model.mode_means(c), x_t, sigma, rng, n_draws)


# rows, and one 10^5-draw IS probe, with their tracemalloc bounds: the two
# 200,000-draw rows stream eight 25,000-draw leaves (0.19 MiB each) and hold
# one at a time; the IS rows hold one block
_HEAP_BOUND_ROWS = {
    "conjugate": (verification._conjugate_rows, 2**19),
    "af3_noise": (verification._af3_bookkeeping_row, 2**19),
    "is_gaussian_limit": (verification._is_gaussian_limit_row, 2 * 2**20),
    "is_probe": (lambda: _is_probe(*_is_fixture(3, 2), 0.9, np.random.default_rng(1), 100000),
                 2 * 2**20),
}


@pytest.mark.parametrize("name", sorted(_HEAP_BOUND_ROWS))
def test_big_sample_rows_hold_no_second_sample_sized_array(name):
    row, bound = _HEAP_BOUND_ROWS[name]
    row()  # warm: imports, the models' memos
    tracemalloc.start()
    try:
        row()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < bound, f"{peak / 2**20:.2f} MiB"


def test_monotonicity_rows_hold_one_batch_of_logs_at_a_time():
    """The rms batch's SteeringResult is gone before the raw batch integrates:
    the peak stays under one batch's three (B, T) float64 logs (F, grad_norms,
    embed_drifts) plus 0.25 MiB; holding both batches' logs reads about 2.2
    times the one."""
    n_seeds, T = 20, 1000
    bound = 3 * n_seeds * T * 8 + 2**18
    verification._monotonicity_rows(1)  # warm
    tracemalloc.start()
    try:
        verification._monotonicity_rows(n_seeds)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < bound, f"{peak / 2**20:.3f} MiB against {bound / 2**20:.3f}"


_MEAN1, _VAR1 = conjugate_posterior(5.0, 0.25, 20.0, 1.0, 1.0)
# the conjugate and af3 rows' leaf draws with their seeds, and two other samples
_LEAF_DRAWS = {
    "conjugate": (lambda rng, m: np.sqrt(_VAR1) * rng.standard_normal(m) + _MEAN1, 4242),
    "af3_noise": (lambda rng, m: verification.af3_noise_inflate(
        np.broadcast_to(0.0, (1, m)), 2.0, verification.Af3SamplerParams(), [rng])[0], 808),
    "scaled_normal": (lambda rng, m: 40.0 * rng.standard_normal(m) + 7.0, 3),
    "lognormal": (lambda rng, m: rng.lognormal(0.0, 2.0, m), 5),
}


@pytest.mark.parametrize("n", [200000, 160000, 80000, 576])
@pytest.mark.parametrize("leaves", sorted(_LEAF_DRAWS))
def test_streamed_mean_and_std_match_the_whole_sample(leaves, n):
    """The one-pass moments agree with x.mean() and x.std(ddof) of the whole
    sample to within 1e-12 std, at ddof 0 and 1."""
    draw, seed = _LEAF_DRAWS[leaves]
    rng = np.random.default_rng(seed)
    x = np.concatenate([np.ravel(draw(rng, n // 8)) for _ in range(8)])
    for ddof in (0, 1):
        mean, std = verification._streamed_mean_and_std(draw, seed, n, ddof)
        want = x.std(ddof=ddof)
        assert abs(mean - x.mean()) <= 1e-12 * want
        assert abs(std - want) <= 1e-12 * want


def test_streamed_rows_draw_their_sample_once(monkeypatch):
    """Each 200,000-draw row's generator gives n draws in eight leaves, one
    pass: the af3 row calls af3_noise_inflate once per leaf."""
    sizes, inflate_calls = [], []
    streamed, inflate = verification._streamed_mean_and_std, verification.af3_noise_inflate

    def counted_streamed(draw, seed, n, ddof=0):
        sizes.append([])
        return streamed(lambda rng, m: sizes[-1].append(m) or draw(rng, m), seed, n, ddof)

    monkeypatch.setattr(verification, "_streamed_mean_and_std", counted_streamed)
    monkeypatch.setattr(verification, "af3_noise_inflate",
                        lambda *a: inflate_calls.append(a[0].shape) or inflate(*a))
    assert verification._conjugate_rows()[1].passed
    assert verification._af3_bookkeeping_row().passed
    assert sizes == [[25000] * 8, [25000] * 8]
    assert inflate_calls == [(1, 25000)] * 8


@pytest.mark.parametrize("x_t", [[np.nan, 0.0, 0.0], [np.inf, 0.0, 0.0]])
def test_is_posterior_mean_raises_on_unusable_weights(x_t):
    model, c, _ = _is_fixture(3, 2)
    with pytest.raises(OracleFailureError):
        _is_probe(model, c, np.array(x_t), 0.9, np.random.default_rng(0), 1000)


def _mixture_row_probes():
    """(model, c, means, [(x_t, sigma)]) of verify's two mixture-mean rows."""
    model = make_mixture_model({"u": 2, "v": 2}, D=3, weights=(0.65, 0.35), stds=(0.5, 0.8),
                               seed=31, mean_scale=1.0)
    rng_c = np.random.default_rng(32)
    c = Embedding({"u": rng_c.standard_normal(2), "v": rng_c.standard_normal(2)})
    means = model.mode_means(c)
    probes = []
    for p in range(10):
        rng = np.random.default_rng(9000 + p)
        sigma = float(rng.uniform(0.3, 2.0))
        probes.append((means[p % model.K] + sigma * rng.standard_normal(model.D), sigma))
    return model, c, means, probes


def test_quadrature_matches_the_denoiser_on_the_mixture_rows_probes():
    model, c, means, probes = _mixture_row_probes()
    for x_t, sigma in probes:
        want = model.denoise(x_t[None], c, sigma)[0]
        got = verification._quadrature_posterior_mean(model, means, x_t, sigma)
        assert verification.rel_error(got, want) < 1e-10


@pytest.mark.parametrize("D", [1, 3])
def test_single_mode_quadrature_is_the_shrinkage_formula(D):
    """At K = 1 the posterior mean is m + s^2 / (s^2 + sigma^2) (x_t - m), with
    no responsibilities; where the likelihood is not much narrower than the
    prior (sigma / s >= 1.4 here) the rule must give it to rounding."""
    model = make_mixture_model({"u": 1}, D=D, weights=(1.0,), stds=(0.5,), seed=77)
    means = model.mode_means(Embedding({"u": np.array([2.0])}))
    rng = np.random.default_rng(D)
    for sigma in (0.7, 1.3, 2.0):
        x_t = means[0] + 1.7 * rng.standard_normal(D)
        want = means[0] + 0.25 / (0.25 + sigma**2) * (x_t - means[0])
        got = verification._quadrature_posterior_mean(model, means, x_t, sigma)
        assert verification.rel_error(got, want) < 1e-14


def _planted_parts(old, new):
    """MixturePriorModel.parts with `old` replaced by `new` in its source."""
    source = textwrap.dedent(inspect.getsource(MixturePriorModel.parts))
    assert source.count(old) == 1
    namespace = {}
    exec(source.replace(old, new), vars(models), namespace)
    return namespace["parts"]


# (old text, new text, whether the 3-SE IS row catches it); the quadrature row
# must catch every one
_PARTS_MUTANTS = {
    "a_scaled": ("a = self._s2 + sigma**2", "a = (self._s2 + sigma**2) * (1 + 1e-4)", False),
    "weights_swapped": ("self._log_w", "self._log_w[::-1]", True),
    "no_log_normaliser": (" - 0.5 * self.D * np.log(2 * np.pi * a)", "", True),
    "mean_shifted": ("m = self.mode_means(c)",
                     "m = self.mode_means(c) + 1e-5 * np.outer(np.arange(self.K) == 0, "
                     "np.arange(self.D) == 0)", False),
}


@pytest.mark.parametrize("mutant", sorted(_PARTS_MUTANTS))
def test_quadrature_row_kills_every_planted_parts_mutant(monkeypatch, mutant):
    old, new, is_kills = _PARTS_MUTANTS[mutant]
    monkeypatch.setattr(MixturePriorModel, "parts", _planted_parts(old, new))
    mc, quadrature = verification._mixture_mean_rows(10, 100000)
    assert not quadrature.passed, quadrature.detail
    assert mc.passed is not is_kills, mc.detail


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
    mc, quadrature = verification._mixture_mean_rows(2, 1000)
    assert mc.name == "mixture_posterior_mean_mc"
    assert quadrature.name == "mixture_posterior_mean_quadrature"
    assert not mc.passed and not quadrature.passed
    assert "nan standard errors" in mc.detail and "max rel err nan" in quadrature.detail


_TAYLOR_MEDIAN_PROBE = """
import json, sys
import numpy as np
from steerkit import verification
model, c = verification._mixture_fixture(seed=4500)
reward = verification.GaussianMeasurementReward(y=np.full(model.D, 1.5))
rng = np.random.default_rng(4700)
probes = [(2.0 * rng.standard_normal((1, model.D)), c, 1.2, 0.8) for _ in range(int(sys.argv[1]))]
out = verification.taylor_gap_scaling(model, reward, probes)
print(json.dumps({"ma": "numpy.ma" in sys.modules, "ratios": [r.hex() for r in out["ratios"]],
                  "median": out["median_ratio"].hex()}))
"""


@pytest.mark.parametrize("n_probes", [5, 6])
def test_taylor_gap_median_has_np_medians_bits_without_importing_numpy_ma(n_probes):
    """np.median imports numpy.ma (about 1 MB of verify's peak), so the Taylor
    row takes the sorted-middle median; it must give np.median's bits for an
    odd and an even count of ratios."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    run = subprocess.run([sys.executable, "-c", _TAYLOR_MEDIAN_PROBE, str(n_probes)],
                         capture_output=True, text=True, check=True,
                         env={**os.environ, "PYTHONPATH": src})
    out = json.loads(run.stdout)
    ratios = [float.fromhex(r) for r in out["ratios"]]
    assert out["ma"] is False and len(ratios) == n_probes
    assert float.fromhex(out["median"]) == float(np.median(ratios))
    assert np.isnan(verification._median([3.0, float("nan"), 1.0]))  # as np.median gives


def test_nan_max_propagates_nan():
    nan = float("nan")
    assert verification._nan_max(1.0, 2.0) == 2.0
    assert verification._nan_max(2.0, 1.0) == 2.0
    assert np.isnan(verification._nan_max(0.0, nan))
    assert np.isnan(verification._nan_max(nan, 5.0))


_VERIFY_PROBE = """
import hashlib, json, sys
from steerkit import cli, verification
digest = hashlib.sha256()
for name in ("_is_posterior_mean", "_quadrature_posterior_mean"):
    def recorded(*args, _real=getattr(verification, name)):
        out = _real(*args)
        for array in out if isinstance(out, tuple) else (out,):
            digest.update(array.tobytes())
        return out
    setattr(verification, name, recorded)
code = cli.main(["verify"])
print(json.dumps({"code": code, "oracles": digest.hexdigest(),
                  "modules": [m for m in ("numpy.ma", "numpy.polynomial") if m in sys.modules]}),
      file=sys.stderr)
"""


def test_verify_table_is_the_same_bytes_with_blas_on_one_thread_or_unpinned():
    """The IS and quadrature results, and so the printed table, are the same
    bytes with the BLAS and OpenMP thread variables at 1 or unset; and verify
    imports neither numpy.ma nor numpy.polynomial (1.2 and 0.6 MB of peak RSS)."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    unset = {k: v for k, v in os.environ.items() if k not in cli._THREAD_VARS}
    runs = [
        subprocess.run([sys.executable, "-c", _VERIFY_PROBE], capture_output=True, check=True,
                       env={**unset, **pinned, "PYTHONPATH": src})
        for pinned in ({v: "1" for v in cli._THREAD_VARS}, {})
    ]
    assert runs[0].stdout == runs[1].stdout and runs[0].stdout.endswith(b" checks passed\n")
    probes = [json.loads(run.stderr) for run in runs]
    assert probes[0] == probes[1]
    assert probes[0]["code"] == 0 and probes[0]["modules"] == []


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
    lines = [  # every name padded to cli._NAME_WIDTH (33)
        "PASS  fd_gaussian_vjp_x                  max rel err 1.000e-09 over 2 probes (tol 1e-05)",
        f"{status}  tweedie_mixture                    max rel err 2.000e-15 over 2 probes (tol 1e-10)",
        f"{1 if failing else 2}/2 checks passed",
    ]
    assert runs == [(1 if failing else 0, lines)] * 2
    report = json.loads((out / "verify_report.json").read_text(encoding="utf-8"))
    assert report["all_passed"] is not failing
    assert [c["passed"] for c in report["checks"]] == [r.passed for r in rows]


def test_verify_table_keeps_every_line_when_a_longer_name_joins(monkeypatch, capsys):
    """Names pad to one fixed width, so a 40-character name added to the suite
    changes only its own line and the total; the benchmark's verdict pattern
    still reads every name."""
    rows = [
        CheckResult("fd_gaussian_vjp_x", True, "max rel err 1.000e-09 over 2 probes (tol 1e-05)"),
        CheckResult("mixture_posterior_mean_quadrature", True, "max rel err 1.650e-14"),
        CheckResult("tweedie_mixture", True, "max rel err 2.000e-15 over 2 probes (tol 1e-10)"),
    ]
    longer = CheckResult("a_check_with_a_name_of_forty_characters_", True, "detail")
    assert len(longer.name) == 40
    tables = []
    for suite in (rows, rows[:2] + [longer] + rows[2:]):
        monkeypatch.setattr(verification, "run_verification_suite", lambda telemetry, suite=suite: suite)
        assert cli.main(["verify"]) == 0
        tables.append(capsys.readouterr().out.splitlines())
    before, after = tables
    assert after[:2] + after[3:-1] == before[:-1]
    assert after[2] == f"PASS  {longer.name}  detail"
    assert before[1] == "PASS  mixture_posterior_mean_quadrature  max rel err 1.650e-14"
    verdict = re.compile(r"^(PASS|FAIL)\s+(\S+)")
    assert [verdict.match(line).group(2) for line in after[:-1]] == [
        r.name for r in rows[:2] + [longer] + rows[2:]]
