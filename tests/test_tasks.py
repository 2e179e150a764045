"""Benchmark task construction: determinism, geometry, and the mismatch regime.

The defining property of the bead-chain tasks is checked by Monte Carlo:
unguided prior draws come mostly from the dominant mode and violate at least
one selected distance constraint in at least 80 percent of samples.
"""

import numpy as np
import pytest

from steerkit import (
    DistanceConstraintReward,
    MapMSEReward,
    build_synthetic_task,
    build_toy_task,
)
from steerkit.tasks import TOY_DELTA, TOY_K_CONSTRAINTS, TOY_N_BEADS
from conftest import sample_prior


def test_synthetic_task_constants():
    task = build_synthetic_task()
    assert task.model.D == 1
    assert task.model.s0 == 0.5
    np.testing.assert_array_equal(task.model.W, np.eye(1))
    assert task.c_init.components["loc"][0] == 5.0
    reward = task.reward(w=3.0)
    assert reward.w == 3.0 and reward.tau2 == 1.0
    np.testing.assert_array_equal(reward.y, [20.0])
    sched = task.schedule()
    assert sched.num_steps == 1000 and sched.sigma_values[-1] == 100.0


def test_toy_task_reproducible_bit_for_bit():
    a = build_toy_task("distance", seed=3)
    b = build_toy_task("distance", seed=3)
    np.testing.assert_array_equal(a.model.Ws, b.model.Ws)
    np.testing.assert_array_equal(a.model.bs, b.model.bs)
    np.testing.assert_array_equal(a.c_init.flat(), b.c_init.flat())
    np.testing.assert_array_equal(a.target_state, b.target_state)
    assert a.reward.pairs == b.reward.pairs
    np.testing.assert_array_equal(a.reward.targets, b.reward.targets)


def test_toy_task_seeds_differ():
    a = build_toy_task("distance", seed=0)
    b = build_toy_task("distance", seed=1)
    assert not np.array_equal(a.target_state, b.target_state)


def test_toy_task_rejects_unknown_kind():
    with pytest.raises(ValueError):
        build_toy_task("angles", seed=0)


def test_toy_task_shapes_and_weights():
    task = build_toy_task("distance", seed=0)
    D = 3 * TOY_N_BEADS
    assert task.model.D == D
    assert task.model.K == 2
    np.testing.assert_allclose(task.model.weights, [0.9, 0.1])
    assert task.c_init.dim == 32
    assert task.target_state.shape == (D,)


def test_target_drawn_from_minority_mode():
    for seed in range(5):
        task = build_toy_task("distance", seed=seed)
        means = task.model.mode_means(task.c_init)
        d_minority = np.linalg.norm(task.target_state - means[1])
        d_dominant = np.linalg.norm(task.target_state - means[0])
        assert d_minority < d_dominant


def test_distance_task_constraints():
    task = build_toy_task("distance", seed=0)
    assert isinstance(task.reward, DistanceConstraintReward)
    assert task.reward.K == TOY_K_CONSTRAINTS
    assert task.reward.delta == TOY_DELTA
    # targets are the pair distances realized in the target state
    pts = task.target_state.reshape(-1, 3)
    for (i, j), t in zip(task.reward.pairs, task.reward.targets):
        assert t == pytest.approx(float(np.linalg.norm(pts[i] - pts[j])))
    # the target itself satisfies everything
    assert task.metric(task.target_state[None]).tolist() == [TOY_K_CONSTRAINTS]
    assert task.metric_name() == "constraints_satisfied"


def test_unguided_prior_mostly_violates():
    task = build_toy_task("distance", seed=0)
    rng = np.random.default_rng(999)
    n = 300
    X = np.array([sample_prior(task.model, task.c_init, rng) for _ in range(n)])
    violated = int(np.sum(task.reward.count_satisfied(X) < TOY_K_CONSTRAINTS))
    assert violated / n >= 0.8


def test_map_task_self_consistency():
    task = build_toy_task("map", seed=0)
    assert isinstance(task.reward, MapMSEReward)
    assert task.metric_name() == "map_cc"
    assert task.metric(task.target_state[None])[0] == pytest.approx(1.0, abs=1e-12)
    assert task.reward.value(task.target_state[None])[0] == pytest.approx(0.0, abs=1e-12)
    # grid covers every bead of the target with margin
    lo = task.reward.grid.origin
    hi = lo + task.reward.grid.spacing * (np.array(task.reward.grid.shape) - 1)
    pts = task.target_state.reshape(-1, 3)
    assert np.all(pts >= lo - 1e-9) and np.all(pts <= hi + 1e-9)


def test_map_and_distance_tasks_share_generative_state():
    dist = build_toy_task("distance", seed=4)
    mapped = build_toy_task("map", seed=4)
    np.testing.assert_array_equal(dist.target_state, mapped.target_state)
    np.testing.assert_array_equal(dist.model.Ws, mapped.model.Ws)


def test_toy_schedule_defaults():
    sched = build_toy_task("distance", seed=0).schedule()
    assert sched.num_steps == 200
    assert sched.sigma_values[-1] == 12.0
