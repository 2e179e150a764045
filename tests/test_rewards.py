"""Reward values and gradients against hand-computed and brute-force oracles.

Hand-worked distance example: beads at (0,0,0) and (3,0,0), target distance 2,
tolerance delta=2. Deviation is 1 (inside the clip), so R = -1 and dR/dd = -2;
the bond unit vector from bead 1 to bead 0 is (-1,0,0), giving gradient
(+2,0,0) on bead 0 and (-2,0,0) on bead 1. Moving the far bead to distance 7
puts the deviation at 5 >= delta: the penalty saturates at -delta^2 = -4 with
exactly zero gradient.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from steerkit import (
    DegenerateMapError,
    DistanceConstraintReward,
    GaussianMeasurementReward,
    MapGrid,
    MapMSEReward,
    fd_gradient,
    map_correlation,
    rel_error,
    render_map,
    render_map_raw,
    select_top_k_constraints,
)
from steerkit import rewards as rewards_module
from steerkit.rewards import _SPLAT_CHUNK_BYTES, _bead_sum
from steerkit.tasks import build_toy_task

N_PROBES = 20


def random_rotation(rng) -> np.ndarray:
    q, r = np.linalg.qr(rng.standard_normal((3, 3)))
    q = q @ np.diag(np.sign(np.diag(r)))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    return q


def make_distance_reward(rng, n_beads=6, K=4, delta=1.0):
    pts = 3.0 * rng.standard_normal((n_beads, 3))
    pairs = [(0, 1), (1, 2), (2, 3), (3, 4)][:K]
    targets = [float(np.linalg.norm(pts[i] - pts[j])) + 0.3 for i, j in pairs]
    return DistanceConstraintReward(pairs=tuple(pairs), targets=np.array(targets), delta=delta)


def at_one(f):
    """f of a flat vector z as a batch of one: the scalar function fd_gradient differentiates."""
    return lambda z: f(z[None])[0]


def probe_off_boundary(rng, reward, n_beads):
    """Configuration, a batch of one, with every |deviation| clear of the clip
    boundary and no near-coincident pair, so central differences see a smooth function."""
    for _ in range(500):
        x = 3.0 * rng.standard_normal((1, 3 * n_beads))
        d = reward.distances(x)[0]
        dev = np.abs(d - reward.targets)
        if np.all(np.abs(dev - reward.delta) > 0.05) and np.all(d > 0.3):
            return x
    raise AssertionError("could not find an off-boundary probe")


# ---------------------------------------------------------------------------
# Gaussian measurement reward


def test_gaussian_reward_worked_example():
    r = GaussianMeasurementReward(y=[0.0, 0.0], tau2=1.0, w=2.0)
    val, grad = r.value_and_grad(np.array([[3.0, 4.0]]))
    assert val.shape == (1,) and val[0] == pytest.approx(-25.0)
    np.testing.assert_allclose(grad, [[-6.0, -8.0]])
    assert r.value(np.zeros((1, 2)))[0] == 0.0


def test_gaussian_reward_scales_linearly_in_w():
    x = np.array([[1.0, -2.0, 0.5]])
    y = np.array([0.3, 0.3, 0.3])
    r1 = GaussianMeasurementReward(y=y, tau2=2.0, w=1.0)
    r3 = GaussianMeasurementReward(y=y, tau2=2.0, w=3.0)
    assert r3.value(x) == pytest.approx(3.0 * r1.value(x))
    np.testing.assert_allclose(r3.value_and_grad(x)[1], 3.0 * r1.value_and_grad(x)[1])


def test_gaussian_reward_validation():
    with pytest.raises(ValueError):
        GaussianMeasurementReward(y=[0.0], tau2=0.0)
    with pytest.raises(ValueError):
        GaussianMeasurementReward(y=[0.0], w=-1.0)


def test_gaussian_reward_fd():
    worst = 0.0
    for p in range(N_PROBES):
        rng = np.random.default_rng(p)
        r = GaussianMeasurementReward(y=rng.standard_normal(4), tau2=0.7, w=2.5)
        x = rng.standard_normal((1, 4))
        _, grad = r.value_and_grad(x)
        worst = max(worst, rel_error(grad, fd_gradient(at_one(r.value), x)))
    assert worst < 1e-6


# ---------------------------------------------------------------------------
# distance-constraint reward


def test_distance_reward_worked_example_inside_tolerance():
    r = DistanceConstraintReward(pairs=((0, 1),), targets=[2.0], delta=2.0)
    x = np.array([[0.0, 0.0, 0.0, 3.0, 0.0, 0.0]])
    val, grad = r.value_and_grad(x)
    assert val[0] == pytest.approx(-1.0)
    np.testing.assert_allclose(grad, [[2.0, 0, 0, -2.0, 0, 0]])
    assert r.count_satisfied(x)[0] == 1


def test_distance_reward_worked_example_clipped():
    r = DistanceConstraintReward(pairs=((0, 1),), targets=[2.0], delta=2.0)
    x = np.array([[0.0, 0.0, 0.0, 7.0, 0.0, 0.0]])
    val, grad = r.value_and_grad(x)
    assert val[0] == pytest.approx(-4.0)
    np.testing.assert_array_equal(grad, np.zeros((1, 6)))
    assert r.count_satisfied(x)[0] == 0


def test_distance_reward_zero_gradient_at_coincident_beads():
    r = DistanceConstraintReward(pairs=((0, 1),), targets=[1.0], delta=2.0)
    x = np.zeros((1, 6))
    val, grad = r.value_and_grad(x)
    assert val[0] == pytest.approx(-1.0)  # dev = 1, inside clip
    np.testing.assert_array_equal(grad, np.zeros((1, 6)))


def test_distance_reward_exact_target_is_stationary():
    r = DistanceConstraintReward(pairs=((0, 1),), targets=[3.0], delta=2.0)
    x = np.array([[0.0, 0.0, 0.0, 3.0, 0.0, 0.0]])
    val, grad = r.value_and_grad(x)
    assert val[0] == 0.0
    np.testing.assert_array_equal(grad, np.zeros((1, 6)))


def test_distance_reward_fd_off_boundaries():
    worst = 0.0
    n_beads = 6
    for p in range(N_PROBES):
        rng = np.random.default_rng(1000 + p)
        r = make_distance_reward(rng, n_beads=n_beads)
        x = probe_off_boundary(rng, r, n_beads)
        _, grad = r.value_and_grad(x)
        worst = max(worst, rel_error(grad, fd_gradient(at_one(r.value), x)))
    assert worst < 1e-6, f"worst rel err {worst:.3e}"


def test_distance_reward_rigid_motion_invariance():
    rng = np.random.default_rng(3)
    r = make_distance_reward(rng, n_beads=6)
    for p in range(10):
        x = 3.0 * rng.standard_normal((1, 18))
        Q = random_rotation(rng)
        shift = rng.standard_normal(3)
        moved = (x.reshape(-1, 3) @ Q.T + shift).reshape(1, -1)
        assert abs(r.value(moved)[0] - r.value(x)[0]) < 1e-9
        # the gradient moves covariantly with the rotation
        g = r.value_and_grad(x)[1].reshape(-1, 3)
        g_moved = r.value_and_grad(moved)[1].reshape(-1, 3)
        np.testing.assert_allclose(g_moved, g @ Q.T, atol=1e-9)


def test_distance_reward_validation():
    with pytest.raises(ValueError):
        DistanceConstraintReward(pairs=((0, 0),), targets=[1.0], delta=1.0)
    with pytest.raises(ValueError):
        DistanceConstraintReward(pairs=((0, 1),), targets=[1.0, 2.0], delta=1.0)
    with pytest.raises(ValueError):
        DistanceConstraintReward(pairs=((0, 1),), targets=[1.0], delta=0.0)
    with pytest.raises(ValueError):
        DistanceConstraintReward(pairs=((-1, 1),), targets=[1.0], delta=1.0)


@settings(max_examples=100)
@given(seed=st.integers(min_value=0, max_value=100_000))
def test_distance_reward_bounded(seed):
    rng = np.random.default_rng(seed)
    r = make_distance_reward(rng, n_beads=6, K=4, delta=1.5)
    x = 5.0 * rng.standard_normal((1, 18))
    val = r.value(x)[0]
    assert -r.K * r.delta**2 <= val <= 0.0
    assert 0 <= r.count_satisfied(x)[0] <= r.K


def _loop_value_and_grad(reward, x):
    """The per-pair loop that DistanceConstraintReward.value_and_grad replaced,
    frozen here as the bit-identity oracle for the vectorised form."""
    pts = np.asarray(x, dtype=np.float64).reshape(-1, 3)
    grad = np.zeros_like(pts)
    val = 0.0
    for (i, j), target in zip(reward.pairs, reward.targets):
        bond = pts[i] - pts[j]
        d = float(np.linalg.norm(bond))
        dev = d - target
        clipped = min(abs(dev), reward.delta)
        val -= clipped**2
        if abs(dev) >= reward.delta or d == 0.0:
            continue
        g_d = -2.0 * dev
        unit = bond / d
        grad[i] += g_d * unit
        grad[j] -= g_d * unit
    return val, grad.ravel()


@pytest.mark.parametrize("seed", range(16))
def test_distance_reward_bit_identical_to_pair_loop_on_tasks(seed):
    task = build_toy_task("distance", seed=seed)
    reward = task.reward
    rng = np.random.default_rng(100 + seed)
    for scale in (0.1, 0.3, 1.0, 3.0, 10.0):
        X = task.target_state + scale * rng.standard_normal((12, task.target_state.size))
        values, grads = reward.value_and_grad(X)
        batch_values = reward.value(X)
        for b, x in enumerate(X):
            want_val, want_grad = _loop_value_and_grad(reward, x)
            val, grad = reward.value_and_grad(X[b : b + 1])
            assert val[0] == want_val and values[b] == want_val
            assert np.array_equal(grad[0], want_grad) and np.array_equal(grads[b], want_grad)
            assert reward.value(X[b : b + 1])[0] == batch_values[b]


def test_distance_reward_batch_shapes_and_shared_beads():
    # bead 1 sits in three pairs, so its gradient sums terms in pair order
    reward = DistanceConstraintReward(
        pairs=((0, 1), (1, 2), (3, 1)), targets=[1.0, 2.0, 1.5], delta=2.0,
    )
    X = np.random.default_rng(3).standard_normal((5, 12))
    values, grads = reward.value_and_grad(X)
    assert values.shape == (5,) and grads.shape == (5, 12)
    counts = reward.count_satisfied(X)
    assert counts.shape == (5,)
    for b, (x, v, g) in enumerate(zip(X, values, grads)):
        want_val, want_grad = _loop_value_and_grad(reward, x)
        assert v == want_val and np.array_equal(g, want_grad)
        assert counts[b] == reward.count_satisfied(X[b : b + 1])[0] == int(np.sum(
            np.abs(reward.distances(X[b : b + 1])[0] - reward.targets) <= reward.delta))


# ---------------------------------------------------------------------------
# map rendering and map reward


def test_voxel_centers_worked_example():
    grid = MapGrid(shape=(2, 1, 1), origin=np.array([1.0, 0.0, -1.0]), spacing=2.0)
    assert grid.n_voxels == 2
    np.testing.assert_allclose(grid.voxel_centers(), [[1, 0, -1], [3, 0, -1]])


def test_render_map_raw_matches_brute_force():
    grid = MapGrid(shape=(3, 2, 2), origin=np.array([-1.0, 0.0, 0.5]), spacing=1.1)
    rng = np.random.default_rng(0)
    x = rng.standard_normal(9)
    aw = 0.9
    got = render_map_raw(x, grid, aw)
    pts = x.reshape(-1, 3)
    idx = 0
    for i in range(3):
        for j in range(2):
            for k in range(2):
                center = grid.origin + grid.spacing * np.array([i, j, k])
                expect = sum(
                    np.exp(-np.sum((center - p) ** 2) / (2 * aw**2)) for p in pts
                )
                assert got[idx] == pytest.approx(expect, rel=1e-12)
                idx += 1


def test_map_reward_equals_correlation_identity():
    grid = MapGrid(shape=(6, 6, 6), origin=np.full(3, -3.6), spacing=1.2)
    rng = np.random.default_rng(1)
    target = 2.0 * rng.standard_normal(12 * 3)
    reward = MapMSEReward.from_state(target, grid, atom_width=1.5)
    worst = 0.0
    for _ in range(20):
        x = 2.0 * rng.standard_normal((1, 12 * 3))
        val = reward.value(x)[0]
        cc = reward.correlation(x)[0]
        worst = max(worst, abs(val - 2.0 * (cc - 1.0)))
    assert worst < 1e-10


def test_map_reward_self_render_is_perfect():
    grid = MapGrid(shape=(5, 5, 5), origin=np.full(3, -3.0), spacing=1.5)
    rng = np.random.default_rng(2)
    target = 2.0 * rng.standard_normal(8 * 3)
    reward = MapMSEReward.from_state(target, grid, atom_width=1.5)
    assert abs(reward.correlation(target[None])[0] - 1.0) < 1e-12
    assert abs(reward.value(target[None])[0]) < 1e-12


def test_map_reward_fd():
    grid = MapGrid(shape=(6, 6, 6), origin=np.full(3, -3.6), spacing=1.2)
    worst = 0.0
    for p in range(N_PROBES):
        rng = np.random.default_rng(2000 + p)
        target = 2.0 * rng.standard_normal(12 * 3)
        reward = MapMSEReward.from_state(target, grid, atom_width=1.5)
        x = 2.0 * rng.standard_normal((1, 12 * 3))
        val, grad = reward.value_and_grad(x)
        assert val[0] == pytest.approx(reward.value(x)[0], abs=1e-12)
        worst = max(worst, rel_error(grad, fd_gradient(at_one(reward.value), x)))
    assert worst < 1e-6, f"worst rel err {worst:.3e}"


def _frozen_normalize(v_raw):
    """The map normalisation as first written, with `ndarray.mean` and `std`."""
    sd = v_raw.std()
    return (v_raw - v_raw.mean()) / sd, sd


def _brute_force_value_and_grad(reward, x):
    """MapMSEReward.value_and_grad from the (M, n_beads, 3) difference tensor.

    A frozen copy of the brute-force contraction; the reward's per-axis
    kernel must reproduce it bit for bit. Also returns the per-entry sum of
    |terms| of the gradient contraction, which bounds the rounding of any
    summation order.
    """
    pts = np.asarray(x, dtype=np.float64).reshape(-1, 3)
    centers = reward.grid.voxel_centers()
    diff = centers[:, None, :] - pts[None, :, :]
    splat = np.exp(-(diff**2).sum(axis=2) / (2.0 * reward.atom_width**2))
    v, sd = _frozen_normalize(splat.sum(axis=1))
    M = v.size
    cc = float(v @ reward.v_obs) / M
    g_vraw = 2.0 * (reward.v_obs - cc * v) / (M * sd)
    grad = np.einsum("m,mb,mbi->bi", g_vraw, splat, diff) / reward.atom_width**2
    abs_terms = np.einsum("m,mb,mbi->bi", np.abs(g_vraw), splat, np.abs(diff))
    return 2.0 * (cc - 1.0), grad.ravel(), abs_terms.ravel() / reward.atom_width**2


def _assert_matches_render_map_raw(reward, x):
    v_raw = render_map_raw(x, reward.grid, reward.atom_width)
    v = _frozen_normalize(v_raw)[0]
    assert np.array_equal(render_map(x, reward.grid, reward.atom_width), v)
    assert reward.value(x[None])[0] == float(-np.mean((v - reward.v_obs) ** 2))
    assert reward.correlation(x[None])[0] == map_correlation(v_raw, reward.v_obs)


@pytest.mark.parametrize("seed", range(16))
def test_map_reward_bit_identical_to_brute_force_on_tasks(seed):
    task = build_toy_task("map", seed)
    reward, target = task.reward, task.target_state
    assert np.array_equal(
        reward.v_obs, MapMSEReward.from_state(target, reward.grid, reward.atom_width).v_obs
    )
    v_raw = render_map_raw(target, reward.grid, reward.atom_width)
    assert np.array_equal(reward.v_obs, _frozen_normalize(v_raw)[0])
    rng = np.random.default_rng(seed)
    for scale in (0.0, 0.1, 1.0, 3.0):
        for _ in range(1 if scale == 0.0 else 3):
            x = target + scale * rng.standard_normal(target.size)
            val, grad = reward.value_and_grad(x[None])
            val_ref, grad_ref, _ = _brute_force_value_and_grad(reward, x)
            assert val[0] == val_ref
            assert np.array_equal(grad[0], grad_ref)
            _assert_matches_render_map_raw(reward, x)


@pytest.mark.parametrize("n_beads", [1, 3, 13])
@pytest.mark.parametrize("shape", [(3, 5, 7), (7, 1, 4)])
def test_map_reward_bit_identical_on_uneven_grids(shape, n_beads):
    # distinct axis lengths and bead counts catch an axis or reshape mix-up
    grid = MapGrid(shape=shape, origin=np.array([-2.1, -1.3, -3.7]), spacing=0.9)
    rng = np.random.default_rng(10 * n_beads + shape[0])
    target = 1.5 * rng.standard_normal(3 * n_beads)
    reward = MapMSEReward.from_state(target, grid, atom_width=1.5)
    assert np.array_equal(reward.v_obs, render_map(target, grid, 1.5))
    for _ in range(5):
        x = target + rng.standard_normal(3 * n_beads)
        (val,), (grad,) = reward.value_and_grad(x[None])
        val_ref, grad_ref, abs_terms = _brute_force_value_and_grad(reward, x)
        assert val == val_ref
        _assert_matches_render_map_raw(reward, x)
        if n_beads > 1:
            assert np.array_equal(grad, grad_ref)
        else:
            # with a bead axis of length one the brute-force einsum reduces
            # the voxel axis in unrolled blocks, not in ascending order; both
            # sums lie within M * eps * sum|terms| of the exact one
            bound = 2 * grid.n_voxels * np.finfo(np.float64).eps * abs_terms
            assert np.all(np.abs(grad - grad_ref) <= bound)


@pytest.mark.parametrize("n_beads", [*range(1, 41), 64, 127, 128, 129, 300])
def test_bead_sum_matches_numpy_pairwise_sum(n_beads):
    # numpy's pairwise order changes at 8 and 128 terms and splits above 128
    rng = np.random.default_rng(n_beads)
    splat = np.exp(-rng.uniform(0.0, 30.0, size=(20_000, n_beads)))
    assert np.array_equal(_bead_sum(splat), splat.sum(axis=1))


def _assert_rows_match_alone(reward, X):
    """A (B, D) call returns, row by row, the bytes of that row as a batch of
    one, and each row's correlation is `map_correlation` of its `render_map_raw`."""
    values, grads = reward.value_and_grad(X)
    batch_values, corrs = reward.value(X), reward.correlation(X)
    assert values.shape == batch_values.shape == corrs.shape == (len(X),)
    assert grads.shape == X.shape
    for b, x in enumerate(X):
        one_val, one_grad = reward.value_and_grad(X[b : b + 1])
        assert one_val.tobytes() == values[b : b + 1].tobytes()
        assert one_grad.tobytes() == grads[b : b + 1].tobytes()
        assert reward.value(X[b : b + 1]).tobytes() == batch_values[b : b + 1].tobytes()
        want = map_correlation(render_map_raw(x, reward.grid, reward.atom_width), reward.v_obs)
        assert np.float64(want).tobytes() == corrs[b].tobytes()


def _rows_per_chunk(reward, n_beads):
    return max(1, _SPLAT_CHUNK_BYTES // (reward.grid.n_voxels * n_beads * 8))


@pytest.mark.parametrize("B", [1, 2, 5, 15])
@pytest.mark.parametrize("seed", [0, 3, 7, 2])
def test_map_reward_batch_rows_match_rows_alone(seed, B):
    # one task per voxel-count stratum; rows near and far from the target
    task = build_toy_task("map", seed)
    rng = np.random.default_rng(50 + seed)
    scales = np.geomspace(0.1, 3.0, B)[:, None]
    X = task.target_state + scales * rng.standard_normal((B, task.target_state.size))
    _assert_rows_match_alone(task.reward, X)


@pytest.mark.parametrize("n_beads", [1, 3, 13])
@pytest.mark.parametrize("shape", [(3, 5, 7), (7, 1, 4)])
def test_map_reward_batch_rows_match_rows_alone_on_uneven_grids(shape, n_beads):
    grid = MapGrid(shape=shape, origin=np.array([-2.1, -1.3, -3.7]), spacing=0.9)
    rng = np.random.default_rng(10 * n_beads + shape[0])
    target = 1.5 * rng.standard_normal(3 * n_beads)
    reward = MapMSEReward.from_state(target, grid, atom_width=1.5)
    for B in (1, 2, 5, 15):
        _assert_rows_match_alone(reward, target + rng.standard_normal((B, 3 * n_beads)))


@pytest.mark.parametrize("seed", [0, 2])
def test_map_reward_batch_crossing_the_chunk_budget_matches_rows_alone(seed):
    # two full chunks and a one-row tail, all splatted into one reused buffer
    task = build_toy_task("map", seed)
    B = 2 * _rows_per_chunk(task.reward, task.target_state.size // 3) + 1
    X = task.target_state + 0.5 * np.random.default_rng(seed).standard_normal(
        (B, task.target_state.size))
    _assert_rows_match_alone(task.reward, X)


def test_map_reward_batch_with_a_degenerate_row_raises():
    grid = MapGrid(shape=(5, 5, 5), origin=np.full(3, -3.0), spacing=1.5)
    rng = np.random.default_rng(4)
    target = 2.0 * rng.standard_normal(8 * 3)
    reward = MapMSEReward.from_state(target, grid, atom_width=1.5)
    X = target + rng.standard_normal((5, target.size))
    X[3] += 1000.0  # every bead of row 3 far outside the grid: a zero map
    with pytest.raises(DegenerateMapError):
        reward.value_and_grad(X)
    with pytest.raises(DegenerateMapError):
        reward.value(X)


@pytest.mark.parametrize("rows", [1, 3, 5, 200])
@pytest.mark.parametrize("seed", [0, 3, 7, 2])
def test_map_reward_peaks_below_two_splat_buffers(seed, rows):
    # one task per voxel-count stratum. A call splats one chunk of rows at a
    # time into one buffer, reused in place and from chunk to chunk, so it
    # holds about one chunk-sized buffer and its bead sums, whatever the
    # batch size. One row is the old bound exactly: two one-row buffers.
    task = build_toy_task("map", seed)
    reward, target = task.reward, task.target_state
    rng = np.random.default_rng(seed)
    x = target + 0.3 * rng.standard_normal((rows, target.size))
    n_beads = target.size // 3
    chunk_bytes = min(rows, _rows_per_chunk(reward, n_beads)) * reward.grid.n_voxels * n_beads * 8
    for call in (reward.value_and_grad, reward.value):
        call(x)  # warm up
        tracemalloc.start()
        try:
            call(x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2 * chunk_bytes, f"{call.__name__}: {peak / chunk_bytes:.2f} chunk buffers"
        assert peak < 2 * _SPLAT_CHUNK_BYTES <= 8 << 20  # 200 rows unchunked: 40-62 MB


def _reward_methods():
    task = build_toy_task("map", seed=0)
    gaussian = GaussianMeasurementReward(y=np.zeros(6))
    distance = DistanceConstraintReward(pairs=((0, 1),), targets=[1.0], delta=2.0)
    return [
        (task.reward, "value"), (task.reward, "value_and_grad"), (task.reward, "correlation"),
        (gaussian, "value"), (gaussian, "value_and_grad"),
        (distance, "value"), (distance, "value_and_grad"), (distance, "count_satisfied"),
    ]


@pytest.mark.parametrize("reward, method", _reward_methods(),
                         ids=lambda p: p if isinstance(p, str) else type(p).__name__)
def test_reward_methods_reject_a_single_vector_before_rendering(reward, method, monkeypatch):
    """A (D,) vector is a ValueError; the map reward raises it before it renders anything."""
    def no_render(*args):
        raise AssertionError("rendered a single vector")

    monkeypatch.setattr(rewards_module, "_render_rows", no_render)
    with pytest.raises(ValueError, match="shape"):
        getattr(reward, method)(np.zeros(6))  # two beads, or six Gaussian coordinates


def test_map_reward_raises_on_degenerate_rendering():
    grid = MapGrid(shape=(5, 5, 5), origin=np.full(3, -3.0), spacing=1.5)
    rng = np.random.default_rng(4)
    target = 2.0 * rng.standard_normal(8 * 3)
    reward = MapMSEReward.from_state(target, grid, atom_width=1.5)
    # every bead a thousand units outside the grid renders a zero map
    far = (target + 1000.0)[None]
    with pytest.raises(DegenerateMapError):
        reward.value_and_grad(far)
    with pytest.raises(DegenerateMapError):
        reward.value(far)
    with pytest.raises(DegenerateMapError):
        reward.correlation(far)


def test_map_reward_range_and_gradient_at_optimum():
    grid = MapGrid(shape=(5, 5, 5), origin=np.full(3, -3.0), spacing=1.5)
    rng = np.random.default_rng(3)
    target = 2.0 * rng.standard_normal(8 * 3)
    reward = MapMSEReward.from_state(target, grid, atom_width=1.5)
    _, grad = reward.value_and_grad(target[None])
    np.testing.assert_allclose(grad, np.zeros_like(grad), atol=1e-10)
    for _ in range(10):
        x = 3.0 * rng.standard_normal((1, 8 * 3))
        assert -4.0 - 1e-12 <= reward.value(x)[0] <= 0.0


def test_degenerate_map_raises():
    grid = MapGrid(shape=(3, 3, 3), origin=np.zeros(3), spacing=1.0)
    # one bead a thousand units away renders to numerically zero everywhere
    with pytest.raises(DegenerateMapError):
        render_map(np.array([1000.0, 1000.0, 1000.0]), grid, 0.5)
    with pytest.raises(DegenerateMapError):
        map_correlation(np.ones(8), np.arange(8.0))


def test_map_reward_rejects_unnormalized_target():
    grid = MapGrid(shape=(2, 2, 2), origin=np.zeros(3), spacing=1.0)
    with pytest.raises(ValueError):
        MapMSEReward(grid=grid, v_obs=np.arange(8.0))


def test_map_grid_validation():
    with pytest.raises(ValueError):
        MapGrid(shape=(0, 2, 2), origin=np.zeros(3), spacing=1.0)
    with pytest.raises(ValueError):
        MapGrid(shape=(2, 2), origin=np.zeros(3), spacing=1.0)
    with pytest.raises(ValueError):
        MapGrid(shape=(2, 2, 2), origin=np.zeros(3), spacing=0.0)
    with pytest.raises(ValueError):
        render_map_raw(np.zeros(3), MapGrid(shape=(2, 2, 2), origin=np.zeros(3), spacing=1.0), 0.0)
    with pytest.raises(ValueError):
        map_correlation(np.ones(8), np.ones(9))


# ---------------------------------------------------------------------------
# constraint selection


def test_select_top_k_worked_example():
    # beads on a line; moving the last bead changes two of three pair distances
    prior = np.array([0, 0, 0, 1, 0, 0, 2, 0, 0], dtype=float)
    target = np.array([0, 0, 0, 1, 0, 0, 5, 0, 0], dtype=float)
    pairs, targets = select_top_k_constraints(prior, target, K=2)
    # discrepancies: (0,1) -> 0, (0,2) -> 3, (1,2) -> 3; ties break on (i, j)
    assert pairs == ((0, 2), (1, 2))
    np.testing.assert_allclose(targets, [5.0, 4.0])


def test_select_top_k_errors():
    prior = np.zeros(9)
    target = np.zeros(9)
    with pytest.raises(ValueError):
        select_top_k_constraints(prior, target, K=4)  # only 3 pairs exist
    with pytest.raises(ValueError):
        select_top_k_constraints(np.zeros(9), np.zeros(12), K=1)


def test_select_top_k_targets_are_target_distances():
    rng = np.random.default_rng(9)
    prior = rng.standard_normal(15)
    target = rng.standard_normal(15)
    pairs, targets = select_top_k_constraints(prior, target, K=5)
    pts = target.reshape(-1, 3)
    for (i, j), t in zip(pairs, targets):
        assert t == pytest.approx(float(np.linalg.norm(pts[i] - pts[j])))
