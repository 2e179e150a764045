"""Acceptance gate: one test per numbered criterion, each at its stated
tolerance, each printing a PASS/FAIL line with the measured values.

Criteria 1b and 1c hold exact-likelihood coordinate guidance to the
conjugate posterior mean. They also hold the sigma2w (DPS) guidance that the
figure draws to its documented bias: that scale drops Cov[x0 | x_t], which
makes its guidance stronger than the exact likelihood's, so its endpoints
land beyond the reweighted posterior, on the measurement's side, by more
than the tolerance (8.42 for 8.0 at w=1, 20.01 for 19.42 at w=100).

Criterion 3 audits each embedding update where it is taken, inside the
first-order trust region. On the scalar task (T=1000, 20 seeds) xhat is
affine in c and R quadratic, so those two rows check only the update's
sign. The evidence of ascent is the raw-gradient row on the two-mode
distance task, where xhat is nonlinear in c. The criterion also prints how
often the logged pre-update surrogate falls across a whole trajectory, which
it does on many steps because x_t and sigma_t move between them.
"""

import platform

import numpy as np
import pytest

from steerkit import SteeringConfig, build_synthetic_task, run_steered
from steerkit.harness import config_from_dict, fig1_noise, fig1_panel_samples, run_from_config
from steerkit.verification import conjugate_posterior, run_verification_suite

N_SAMPLES = 2000

FIG1_PANELS = (
    "unguided", "dps_w1", "dps_w100",
    "embedopt_a0.1", "embedopt_a0.05", "embedopt_a0.5", "embedopt_a5",
)

GRADIENT_CHECKS = (
    "fd_gaussian_vjp_x", "fd_gaussian_vjp_c", "fd_gaussian_jvp_c",
    "fd_mixture_vjp_x", "fd_mixture_vjp_c", "fd_mixture_jvp_c",
    "fd_reward_gaussian", "fd_reward_distance", "fd_reward_map",
    "adjoint_identity_gaussian", "adjoint_identity_mixture",
)

REDUCTION_CHECKS = (
    "reduction_unguided_identity",
    "reduction_af3_gamma0_none",
    "reduction_af3_gamma0_embedopt",
)


def _verdict(ok: bool) -> str:
    return "PASS" if ok else "FAIL"


def _read_rows(path):
    lines = path.read_text(encoding="utf-8").splitlines()
    header = lines[0].split(",")
    return [dict(zip(header, line.split(","))) for line in lines[1:]]


@pytest.fixture(scope="module")
def fig1():
    """Endpoint samples for every histogram panel, and exact-likelihood
    coordinate guidance at w=1 and w=100 ("dps_exact_w1", "dps_exact_w100")
    from the engine, `dps_step`'s exact branch: 2000 seeds each at T=1000,
    seed s drawing x_T from default_rng(s) as every panel does."""
    z = fig1_noise(range(N_SAMPLES))
    samples = {p: fig1_panel_samples(p, z) for p in FIG1_PANELS}
    task = build_synthetic_task()
    exact = SteeringConfig(method="dps", alpha=0.0, dps_norm_mode="exact_likelihood")
    for w in (1, 100):
        rngs = [np.random.default_rng(s) for s in range(N_SAMPLES)]
        res = run_steered(task.model, task.reward(w=float(w)), task.c_init,
                          task.schedule(T=1000), exact, rngs)
        samples[f"dps_exact_w{w}"] = np.ravel(res.x0)
    return samples


@pytest.fixture(scope="module")
def suite():
    """Full verification suite, keyed by check name."""
    return {r.name: r for r in run_verification_suite()}


@pytest.fixture(scope="module")
def best_rows(tmp_path_factory):
    """Default-grid sweep on the two-mode distance task, seeds 0..2."""
    out = tmp_path_factory.mktemp("acceptance_sweep")
    cfg = config_from_dict({
        "experiment": "lr_sweep",
        "out_dir": str(out),
        "task": {"kind": "distance", "seed": 0},
    })
    run_from_config(cfg)
    return _read_rows(out / "best_achieved.csv")


@pytest.fixture(scope="module")
def scale_rows(tmp_path_factory):
    out = tmp_path_factory.mktemp("acceptance_scale")
    cfg = config_from_dict({
        "experiment": "step_scaling",
        "out_dir": str(out),
        "seeds": [0, 1, 2],
        "task": {"kind": "distance", "seed": 0},
    })
    run_from_config(cfg)
    return _read_rows(out / "scale.csv")


def test_criterion_1a_unguided_moments(fig1, criterion_report):
    s = fig1["unguided"]
    mean, std = float(np.mean(s)), float(np.std(s, ddof=1))
    ok = abs(mean - 5.0) <= 0.05 and abs(std - 0.5) <= 0.05
    criterion_report(
        f"{_verdict(ok)} criterion 1a: unguided mean {mean:.4f} / std {std:.4f} "
        f"(want 5.0 / 0.5 within 0.05, n={N_SAMPLES})"
    )
    assert ok


def test_criterion_1b_guidance_w1_posterior_mean(fig1, criterion_report):
    ref, _ = conjugate_posterior(5.0, 0.25, 20.0, tau2=1.0, w=1.0)
    mean = float(np.mean(fig1["dps_exact_w1"]))
    sigma2w = float(np.mean(fig1["dps_w1"]))
    ok = abs(mean - ref) <= 0.1 and sigma2w - ref > 0.1
    criterion_report(
        f"{_verdict(ok)} criterion 1b: exact-likelihood coordinate guidance w=1 "
        f"mean {mean:.4f} (want conjugate mean {ref:.4f} within 0.1); "
        f"sigma2w guidance mean {sigma2w:.4f} (want beyond it, toward y = 20, "
        f"by more than 0.1)"
    )
    assert ok


def test_criterion_1c_guidance_w100_posterior_mean(fig1, criterion_report):
    ref, _ = conjugate_posterior(5.0, 0.25, 20.0, tau2=1.0, w=100.0)
    mean = float(np.mean(fig1["dps_exact_w100"]))
    sigma2w = float(np.mean(fig1["dps_w100"]))
    ok = abs(mean - ref) <= 0.1 and sigma2w - ref > 0.1
    criterion_report(
        f"{_verdict(ok)} criterion 1c: exact-likelihood coordinate guidance w=100 "
        f"mean {mean:.4f} (want conjugate mean {ref:.4f} within 0.1); "
        f"sigma2w guidance mean {sigma2w:.4f} (want beyond it, toward y = 20, "
        f"by more than 0.1)"
    )
    assert ok


def test_criterion_1d_embedding_ascent_reaches_target(fig1, criterion_report):
    means = {
        p.split("_a")[1]: float(np.mean(fig1[p]))
        for p in FIG1_PANELS if p.startswith("embedopt")
    }
    ok = all(abs(m - 20.0) <= 0.5 for m in means.values())
    detail = ", ".join(f"alpha={a}: {m:.3f}" for a, m in sorted(means.items()))
    criterion_report(
        f"{_verdict(ok)} criterion 1d: embedding-ascent means {{{detail}}} "
        f"(want 20.0 within 0.5 for every alpha)"
    )
    assert ok


def test_criterion_2_gradient_oracles(suite, criterion_report):
    failed = [n for n in GRADIENT_CHECKS if not suite[n].passed]
    ok = not failed
    criterion_report(
        f"{_verdict(ok)} criterion 2: {len(GRADIENT_CHECKS) - len(failed)}/"
        f"{len(GRADIENT_CHECKS)} derivative checks passed (20 probes each, "
        f"rel tol 1e-5 models / 1e-6 rewards, adjoint identity 1e-10)"
        + (f"; failed: {failed}" if failed else "")
    )
    assert ok, failed


def test_criterion_3_surrogate_monotonicity(suite, criterion_report):
    row = suite["monotone_surrogate_rms"]
    raw = suite["monotone_surrogate_raw"]
    dist = suite["monotone_surrogate_distance_raw"]
    ok = row.passed and raw.passed and dist.passed
    criterion_report(
        f"{_verdict(ok)} criterion 3: per-update surrogate ascent "
        f"(alpha=0.1, budget 1 percent at tol 1e-9). Scalar task, T=1000, "
        f"20 seeds: {row.detail}; raw-gradient variant: {raw.detail}. "
        f"Distance task: {dist.detail}"
    )
    assert ok, (row.detail, raw.detail, dist.detail)


def test_criterion_4_linearized_step_agreement(suite, criterion_report):
    affine = suite["taylor_affine_exact"]
    mixture = suite["taylor_mixture_quadratic"]
    ok = affine.passed and mixture.passed
    criterion_report(
        f"{_verdict(ok)} criterion 4: affine step vs linearization {affine.detail}; "
        f"mixture {mixture.detail}"
    )
    assert ok, (affine.detail, mixture.detail)


def test_criterion_5_reductions_and_determinism(suite, tmp_path, criterion_report):
    failed = [n for n in REDUCTION_CHECKS if not suite[n].passed]
    payload = {
        "experiment": "lr_sweep",
        "seeds": [0, 1],
        "alphas": [0.1],
        "methods": ["embedopt", "dps"],
        "schedule": {"T": 60},
        "task": {"kind": "distance", "seed": 0},
    }
    bodies = []
    for sub in ("a", "b"):
        cfg = config_from_dict(dict(payload, out_dir=str(tmp_path / sub)))
        run_from_config(cfg)
        bodies.append(tuple(
            (tmp_path / sub / name).read_bytes()
            for name in ("sweep.csv", "best_achieved.csv")
        ))
    bytes_ok = bodies[0] == bodies[1]
    ok = not failed and bytes_ok
    criterion_report(
        f"{_verdict(ok)} criterion 5: alpha=0 / w=0 / unguided trajectories and "
        f"af3 gamma=0 eta_scale=1 reductions within 1e-12 "
        f"({'ok' if not failed else f'failed: {failed}'}); identical configs "
        f"byte-identical CSV bodies ({'ok' if bytes_ok else 'FAILED'})"
    )
    assert ok, (failed, bytes_ok)


def test_criterion_6_map_reward_identity(suite, criterion_report):
    ident = suite["map_mse_correlation_identity"]
    self_render = suite["map_self_render"]
    ok = ident.passed and self_render.passed
    criterion_report(
        f"{_verdict(ok)} criterion 6: {ident.detail}; self-render {self_render.detail}"
    )
    assert ok, (ident.detail, self_render.detail)


def test_criterion_7_minority_mode_steering(best_rows, criterion_report):
    embed = [r for r in best_rows if r["method"] == "embedopt"]
    dps = [r for r in best_rows if r["method"] == "dps"]
    assert len(embed) == 3
    beats_baseline = all(
        float(r["best_metric"]) >= float(r["baseline_metric"]) for r in embed
    )
    all_five = all(float(r["best_metric"]) == 5.0 for r in embed)
    ok = beats_baseline and all_five
    embed_txt = "; ".join(
        f"seed {r['seed']}: {float(r['best_metric']):.0f}/5 at alpha {r['best_alpha']} "
        f"(baseline {float(r['baseline_metric']):.0f})"
        for r in embed
    )
    dps_txt = ", ".join(f"seed {r['seed']}: {float(r['best_metric']):.0f}/5" for r in dps)
    criterion_report(
        f"{_verdict(ok)} criterion 7: embedding ascent {embed_txt}; "
        f"coordinate guidance best (reported, not asserted): {dps_txt}"
    )
    assert ok


def test_criterion_8_step_scaling_bookkeeping(scale_rows, criterion_report):
    product_ok = all(r["alpha_times_T"] == "20.0" for r in scale_rows)
    ts = sorted({int(r["T"]) for r in scale_rows}, reverse=True)
    grid_ok = ts == [200, 100, 50, 20]
    t50 = [r for r in scale_rows if r["T"] == "50" and r["method"] == "embedopt"]
    finite_ok = bool(t50) and all(
        np.isfinite(float(r["final_reward"])) and np.isfinite(float(r["task_metric"]))
        for r in t50
    )
    nan_free = all("nan" not in v.lower() for r in scale_rows for v in r.values())
    ok = product_ok and grid_ok and finite_ok and nan_free
    criterion_report(
        f"{_verdict(ok)} criterion 8: alpha*T exactly 20.0 on every row, "
        f"T grid {ts}, T=50 embedding-ascent rewards finite, "
        f"{'no' if nan_free else 'FOUND'} NaN cells ({len(scale_rows)} rows)"
    )
    assert ok


# `steerkit verify`'s 28 rows (name, passed, detail), in order, as recorded with
# numpy 2.4.6 on Python 3.11.7; the printed table is these rows and the total
VERIFY_RECORDED_WITH = {"numpy": "2.4.6", "python": "3.11.7"}
VERIFY_TABLE = (
    ("fd_gaussian_vjp_x", True, "max rel err 6.692e-11 over 20 probes (tol 1e-05)"),
    ("fd_gaussian_vjp_c", True, "max rel err 8.098e-10 over 20 probes (tol 1e-05)"),
    ("fd_gaussian_jvp_c", True, "max rel err 4.799e-10 over 20 probes (tol 1e-05)"),
    ("fd_mixture_vjp_x", True, "max rel err 1.253e-08 over 20 probes (tol 1e-05)"),
    ("fd_mixture_vjp_c", True, "max rel err 4.827e-08 over 20 probes (tol 1e-05)"),
    ("fd_mixture_jvp_c", True, "max rel err 1.644e-08 over 20 probes (tol 1e-05)"),
    ("fd_reward_gaussian", True, "max rel err 8.474e-12 over 20 probes (tol 1e-06)"),
    ("fd_reward_distance", True, "max rel err 3.640e-09 over 20 probes (tol 1e-06)"),
    ("fd_reward_map", True, "max rel err 7.610e-10 over 20 probes (tol 1e-06)"),
    ("adjoint_identity_gaussian", True, "max scaled mismatch 5.639e-16 over 20 probes (tol 1e-10)"),
    ("adjoint_identity_mixture", True, "max scaled mismatch 1.784e-15 over 20 probes (tol 1e-10)"),
    ("tweedie_gaussian", True, "max rel err 1.201e-14 over 20 probes (tol 1e-10)"),
    ("tweedie_mixture", True, "max rel err 3.141e-14 over 20 probes (tol 1e-10)"),
    ("conjugate_worked_examples", True,
     "w=1 -> (8.000000, 0.200000), w=100 -> (19.423077, 0.009615)"),
    ("conjugate_sampling_mc", True,
     "direct posterior draws: mean 8.00055 vs 8.00000, std 0.44771 vs 0.44721 (4 SE)"),
    ("is_oracle_gaussian_limit", True, "single-mode IS vs shrinkage formula: 0.65 SE"),
    ("mixture_posterior_mean_mc", True,
     "max |analytic - IS| = 1.97 standard errors over 10 probes x 1000000 draws (tol 3 SE)"),
    ("monotone_surrogate_rms", True,
     "sign check (xhat affine in c, R quadratic): 0/3028 audited updates lowered F where "
     "taken by more than 1e-9 (0.0 percent, worst 0.00e+00; 16972 updates outside the "
     "trust region); logged F decreased on 8507/19980 transitions (42.6 percent, worst "
     "1.46e-02) over 20 seeds"),
    ("monotone_surrogate_raw", True,
     "sign check (xhat affine in c, R quadratic): 0/20000 audited updates lowered F where "
     "taken by more than 1e-9 (0.0 percent, worst 0.00e+00; 0 updates outside the trust "
     "region); logged F decreased on 4218/19980 transitions (21.1 percent, worst 3.30e-02) "
     "over 20 seeds"),
    ("monotone_surrogate_distance_raw", True,
     "0/799 audited raw-gradient updates on the distance task lowered F where taken by "
     "more than 1e-9 (0.0 percent, worst 0.00e+00; 1 updates outside the trust region) "
     "over 4 seeds at T = 200"),
    ("taylor_affine_exact", True, "max scaled gap 1.379e-16 over 20 probes (tol 1e-10)"),
    ("taylor_mixture_quadratic", True,
     "median gap ratio 4.037 over 49 probes (1 exact, window [3.5, 4.5])"),
    ("reduction_unguided_identity", True,
     "max endpoint deviation 0.00e+00 across alpha=0 / w=0 variants (tol 1e-12)"),
    ("reduction_af3_gamma0_none", True, "gamma=0, eta_scale=1 endpoint diff 0.00e+00 (tol 1e-12)"),
    ("reduction_af3_gamma0_embedopt", True,
     "gamma=0, eta_scale=1 endpoint diff 0.00e+00 (tol 1e-12)"),
    ("map_mse_correlation_identity", True,
     "max |R - 2(cc-1)| = 4.441e-16 over 20 configs (tol 1e-10)"),
    ("map_self_render", True, "R(target) = -0.00e+00, cc(target) = 1.000000000000"),
    ("af3_noise_bookkeeping", True,
     "injected std 3.01232 vs 3.00231 (4 SE), sigma_hat 3.600 vs 3.600"),
)


def test_verify_table_matches_recorded_rows(suite):
    here = {"numpy": np.__version__, "python": platform.python_version()}
    if here != VERIFY_RECORDED_WITH:
        pytest.skip(f"table recorded with {VERIFY_RECORDED_WITH}, running {here}")
    assert [(r.name, r.passed, r.detail) for r in suite.values()] == list(VERIFY_TABLE)
