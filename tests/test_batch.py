"""Batch invariance of the one integrator: run_steered over a (B, D) batch.

Every row of a batch must be bit-identical to the same trajectory run alone
(a single generator, B = 1): the endpoint, the final embedding and every
logged F, grad_norm and embed_drift, compared with np.array_equal, tobytes
and ==. The batch mixes seeds and step sizes, including alpha = 0, so any
coupling between rows (a GEMM blocked by B, a reduction over the batch
axis, a shared generator) shows up as a mismatch.
"""

import json
import tracemalloc

import numpy as np
import pytest

from steerkit import (
    Af3SamplerParams,
    SteeringConfig,
    build_linear_schedule,
    build_synthetic_task,
    build_toy_task,
    run_steered,
)
from steerkit.samplers import NFE_KINDS

SEEDS = (4, 0, 11, 7)
ALPHAS = (0.1, 0.0, 1.0, 0.0316)

METHODS = [
    ("none", {}),
    ("embedopt_rms", {"method": "embedopt"}),
    ("embedopt_raw", {"method": "embedopt", "embed_norm_mode": "none"}),
    ("dps_sigma2w", {"method": "dps", "dps_norm_mode": "sigma2w"}),
    ("dps_l2_matched", {"method": "dps", "dps_norm_mode": "l2_matched"}),
    ("dps_exact_likelihood", {"method": "dps", "dps_norm_mode": "exact_likelihood"}),
]


def stack(rows):
    """One embedding batch whose row b is rows[b]."""
    return rows[0].from_flat(np.stack([r.flat() for r in rows]))


def _setup(kind: str):
    """(model, reward, c_init, schedule) with a schedule short enough for a test."""
    if kind == "synthetic":
        task = build_synthetic_task()
        return task.model, task.reward(w=1.0), task.c_init, task.schedule(T=60)
    task = build_toy_task(kind, seed=1)
    T = 40 if kind == "distance" else 8
    return task.model, task.reward, task.c_init, task.schedule(T=T)


def assert_rows_match_single_runs(model, reward, c_init, schedule, config, alphas=ALPHAS, rows_c=None):
    batch = run_steered(
        model, reward, c_init if rows_c is None else stack(rows_c), schedule,
        config, [np.random.default_rng(s) for s in SEEDS], alphas=alphas,
    )
    assert batch.x0.shape == (len(SEEDS), model.D)
    assert batch.c_final.batch == len(SEEDS)
    for b, seed in enumerate(SEEDS):
        alone = run_steered(
            model, reward, c_init if rows_c is None else rows_c[b], schedule,
            config, np.random.default_rng(seed), alphas=[alphas[b]],
        )
        row = batch.row(b)
        assert np.array_equal(row.x0, alone.x0)
        assert np.array_equal(row.c_final.flat(), alone.c_final.flat())
        for log in ("F", "grad_norms", "embed_drifts", "sigmas"):
            assert getattr(row.record, log).tobytes() == getattr(alone.record, log).tobytes()
        assert row.record.skip_counts == alone.record.skip_counts
        assert row.record.nfe == alone.record.nfe
    return batch


@pytest.mark.parametrize("kind", ["synthetic", "distance", "map"])
@pytest.mark.parametrize("label,settings", METHODS, ids=[m for m, _ in METHODS])
def test_every_row_matches_its_single_run(kind, label, settings):
    model, reward, c_init, schedule = _setup(kind)
    config = SteeringConfig(**settings)
    if label == "dps_exact_likelihood" and kind != "synthetic":
        # the exact likelihood needs a Gaussian prior and measurement; the
        # toy tasks pair a mixture prior with a distance or map reward
        with pytest.raises(ValueError):
            run_steered(model, reward, c_init, schedule, config,
                        [np.random.default_rng(s) for s in SEEDS], alphas=ALPHAS)
        return
    batch = assert_rows_match_single_runs(model, reward, c_init, schedule, config)
    if label != "none":
        # the rows really differ, so the comparison above is not vacuous
        assert len({row.tobytes() for row in batch.x0}) == len(SEEDS)


@pytest.mark.parametrize("method", ["none", "embedopt", "dps"])
def test_af3_rows_draw_from_their_own_generators(method):
    model, reward, c_init, schedule = _setup("distance")
    config = SteeringConfig(
        method=method, sampler_mode="af3", dps_norm_mode="l2_matched",
        af3=Af3SamplerParams(gamma_min=0.5),
    )
    assert_rows_match_single_runs(model, reward, c_init, schedule, config)


@pytest.mark.parametrize("kind", ["synthetic", "distance"])
def test_per_row_embeddings_match_single_runs(kind):
    model, reward, c_init, schedule = _setup(kind)
    rng = np.random.default_rng(5)
    rows_c = [c_init.from_flat(c_init.flat() + 0.3 * rng.standard_normal(c_init.dim))
              for _ in SEEDS]
    for settings in ({"method": "embedopt"}, {"method": "dps", "dps_norm_mode": "sigma2w"}):
        assert_rows_match_single_runs(
            model, reward, c_init, schedule, SteeringConfig(**settings), rows_c=rows_c,
        )


def test_batch_record_sums_rows_for_the_benchmark_tracer():
    """result.record of a batch holds the shared steps and the rows' summed
    skip and NFE counts, which is what the benchmark's tracer reads."""
    model, reward, c_init, schedule = _setup("distance")
    config = SteeringConfig(method="embedopt")
    batch = run_steered(model, reward, c_init, schedule, config,
                        [np.random.default_rng(s) for s in SEEDS], alphas=ALPHAS)
    total = batch.record
    assert list(total.steps) == list(range(schedule.num_steps, 0, -1))
    for kind in NFE_KINDS:
        assert total.nfe[kind] == sum(rec.nfe[kind] for rec in batch.records)
    assert batch.records[0].nfe == {
        "denoise": 2 * schedule.num_steps, "vjp_x": 0, "vjp_c": schedule.num_steps,
        "reward_value_and_grad": schedule.num_steps, "reward_value": 0,
    }
    assert sum(total.skip_counts.values()) == sum(
        n for rec in batch.records for n in rec.skip_counts.values()
    )
    # the tracer json-dumps the summed skip counts
    assert all(type(n) is int for n in total.skip_counts.values())
    json.dumps(total.skip_counts)


def test_records_are_row_views_of_one_array_per_log():
    model, reward, c_init, schedule = _setup("distance")
    batch = run_steered(model, reward, c_init, schedule, SteeringConfig(method="embedopt"),
                        [np.random.default_rng(s) for s in SEEDS], alphas=ALPHAS)
    T = schedule.num_steps
    for log in ("F", "grad_norms", "embed_drifts"):
        rows = [getattr(rec, log) for rec in batch.records]
        assert all(r.shape == (T,) and r.dtype == np.float64 for r in rows)
        assert all(r.base is rows[0].base and r.base.shape == (len(SEEDS), T) for r in rows)
    assert all(rec.sigmas is batch.records[0].sigmas for rec in batch.records)


def test_batch_inputs_are_checked():
    model, reward, c_init, schedule = _setup("synthetic")
    config = SteeringConfig(method="embedopt", alpha=0.1)
    rngs = [np.random.default_rng(s) for s in SEEDS]
    for alphas in ([0.1], [0.1, 0.1, -0.1, 0.1]):
        with pytest.raises(ValueError):
            run_steered(model, reward, c_init, schedule, config, rngs, alphas=alphas)
    with pytest.raises(ValueError):
        run_steered(model, reward, stack([c_init, c_init]), schedule, config, rngs)
    with pytest.raises(ValueError):
        run_steered(model, reward, c_init, schedule, config, [])


@pytest.mark.parametrize(
    "bad", [float("nan"), float("inf"), 10**400, "0.1", True],
    ids=["nan", "inf", "10**400", "string", "bool"],
)
def test_non_finite_alpha_is_rejected_before_any_compute(bad):
    _, reward, c_init, schedule = _setup("synthetic")
    used = []

    class Model:  # records every attribute run_steered asks of its model
        def __getattr__(self, name):
            used.append(name)
            raise AttributeError(name)

    rngs = [np.random.default_rng(s) for s in SEEDS]
    states = [g.bit_generator.state for g in rngs]
    alphas = [0.1, bad, 0.1, 0.1]
    with pytest.raises(ValueError, match="finite"):
        run_steered(Model(), reward, c_init, schedule, SteeringConfig(method="embedopt"),
                    rngs, alphas=alphas)
    assert used == []
    assert [g.bit_generator.state for g in rngs] == states  # no x_T was drawn


def test_unguided_noise_grid_is_shared_and_rows_use_their_seeds():
    model, _, c_init, _ = _setup("synthetic")
    schedule = build_linear_schedule(5, 10.0)
    batch = run_steered(model, None, c_init, schedule, SteeringConfig(),
                        [np.random.default_rng(s) for s in (3, 3, 4)])
    assert np.array_equal(batch.x0[0], batch.x0[1])
    assert not np.array_equal(batch.x0[0], batch.x0[2])
    assert all(rec.F is None for rec in batch.records)


def test_step_logs_bound_run_steered_memory():
    """The logs are three (B, T) float64 arrays and dominate the batch's peak
    allocation: 2.5 times their bytes leaves room for the records and the
    step temporaries, and per-row lists of Python floats take over 7."""
    B, T = 2000, 50
    task = build_synthetic_task()
    reward, schedule = task.reward(w=1.0), task.schedule(T=T)
    config = SteeringConfig(method="embedopt", alpha=0.1)
    rngs = [np.random.default_rng(s) for s in range(B)]
    tracemalloc.start()
    try:
        batch = run_steered(task.model, reward, task.c_init, schedule, config, rngs)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2.5 * 3 * B * T * 8
    assert len(batch.records) == B
