#!/usr/bin/env python3
"""Print the wall time per integrator step for each method, task and batch size.

Each cell times `run_steered` on one batch of B trajectories over a
50-step schedule, in this process, and divides by the steps: the median of
5 timed runs after one untimed warm-up. The tasks are the scalar synthetic
task and the distance and map bead-chain toys (task seed 0); the methods are
embedopt, dps and the unguided sampler with the reward logged. A second
table times the synthetic histogram's fast path, `fig1_panel_samples`, for
each panel over its 1000-step schedule at the benchmark's 10,000 seeds,
timed the same way, and the x_T draw those panels share, `fig1_noise`, per
seed. Two rows time the engine, `run_steered`, on exact-likelihood DPS at
w = 1 and w = 100 over 2,000 seeds and 1000 steps, as acceptance criteria 1b
and 1c integrate them. Two last lines time, the same way, one 10^5-draw probe
of the importance-sampling oracle, with its tracemalloc peak, and one call of
the Gauss-Hermite quadrature oracle, on `steerkit verify`'s mixture-mean
fixture. Run it from a
checkout with `PYTHONPATH=src python scripts/step_cost.py`; pin BLAS to one
thread (OPENBLAS_NUM_THREADS=1) to compare two checkouts.
"""

import argparse
import itertools
import statistics
import time
import tracemalloc

import numpy as np

from steerkit import SteeringConfig, build_synthetic_task, build_toy_task, run_steered
from steerkit.harness import FIG1_PANEL_SPECS, fig1_noise, fig1_panel_samples
from steerkit.models import Embedding, make_mixture_model
from steerkit.tasks import SYNTH_T
from steerkit.verification import _GH_NODES, _is_posterior_mean, _quadrature_posterior_mean

T = 50  # steps per run
REPEATS = 5  # timed runs per cell
TASKS = ("synthetic", "distance", "map")
METHODS = ("embedopt", "dps", "none")
FIG1_SEEDS = 10_000  # trajectories per fig1 panel, as in the benchmark's fig1_batch
EXACT_SEEDS = 2_000  # trajectories per exact-likelihood run, as in criteria 1b and 1c
IS_DRAWS = 100_000  # draws per importance-sampling probe, as in `steerkit verify`


def _median_s(run, prepare=lambda: None) -> float:
    """Median seconds of REPEATS timed calls run(prepare()) after one untimed
    warm-up call; prepare() runs outside the timed region."""
    times = []
    for i in range(REPEATS + 1):
        arg = prepare()
        t0 = time.perf_counter()
        run(arg)
        if i:
            times.append(time.perf_counter() - t0)
    return statistics.median(times)


def _setup(kind: str):
    """(model, reward, c_init, schedule, dps_norm_mode) for one task."""
    if kind == "synthetic":
        task = build_synthetic_task()
        return task.model, task.reward(), task.c_init, task.schedule(T=T), "sigma2w"
    task = build_toy_task(kind, 0)
    return task.model, task.reward, task.c_init, task.schedule(T=T), "l2_matched"


def step_cost_us(kind: str, method: str, B: int) -> float:
    """Median microseconds per step of one B-row run_steered call."""
    model, reward, c_init, schedule, dps_mode = _setup(kind)
    config = SteeringConfig(method=method, alpha=0.1, dps_norm_mode=dps_mode)
    return _median_s(
        lambda rngs: run_steered(model, reward, c_init, schedule, config, rngs),
        lambda: [np.random.default_rng(seed) for seed in range(B)],
    ) / T * 1e6


def fig1_step_cost_us(panel: str, z: np.ndarray) -> float:
    """Median microseconds per step of one fig1_panel_samples call."""
    return _median_s(lambda _: fig1_panel_samples(panel, z)) / SYNTH_T * 1e6


def exact_step_cost_us(w: float) -> float:
    """Median microseconds per step of one run_steered call integrating
    exact-likelihood DPS at weight w, one default_rng(s) per seed s < EXACT_SEEDS."""
    task = build_synthetic_task()
    config = SteeringConfig(method="dps", alpha=0.0, dps_norm_mode="exact_likelihood")
    return _median_s(
        lambda rngs: run_steered(task.model, task.reward(w=w), task.c_init, task.schedule(),
                                 config, rngs),
        lambda: [np.random.default_rng(seed) for seed in range(EXACT_SEEDS)],
    ) / SYNTH_T * 1e6


def fig1_noise_cost_us() -> float:
    """Median microseconds per seed of one fig1_noise call over FIG1_SEEDS seeds."""
    return _median_s(lambda _: fig1_noise(range(FIG1_SEEDS))) / FIG1_SEEDS * 1e6


def oracle_costs() -> tuple:
    """(median milliseconds, tracemalloc peak MiB) of one IS_DRAWS-draw IS
    probe, and the median milliseconds of one quadrature call, at one probe of
    the mixture-mean fixture (D = 3, K = 2); each IS run seeds its own generator."""
    model = make_mixture_model(
        {"u": 2, "v": 2}, D=3, weights=(0.65, 0.35), stds=(0.5, 0.8), seed=31, mean_scale=1.0,
    )
    rng_c = np.random.default_rng(32)
    means = model.mode_means(Embedding({"u": rng_c.standard_normal(2), "v": rng_c.standard_normal(2)}))
    x_t, sigma = means[0] + 0.5, 0.9

    def probe(seed):
        _is_posterior_mean(model, means, x_t, sigma, np.random.default_rng(seed), IS_DRAWS)

    is_s = _median_s(probe, itertools.count().__next__)
    tracemalloc.start()
    try:
        probe(0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    quadrature_s = _median_s(lambda _: _quadrature_posterior_mean(model, means, x_t, sigma))
    return is_s * 1e3, peak / 2**20, quadrature_s * 1e3


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--batches", default="1,3,5,15", help="comma-separated batch sizes")
    ap.add_argument("--tasks", default=",".join(TASKS))
    ap.add_argument("--methods", default=",".join(METHODS))
    args = ap.parse_args()
    batches = [int(b) for b in args.batches.split(",")]
    if not batches or min(batches) < 1:
        ap.error("every batch size must be positive")

    print(f"us per step (median of {REPEATS}, T = {T})")
    print(f"{'task':<10} {'method':<9}" + "".join(f"{f'B={B}':>10}" for B in batches))
    for kind in args.tasks.split(","):
        for method in args.methods.split(","):
            cells = [step_cost_us(kind, method, B) for B in batches]
            print(f"{kind:<10} {method:<9}" + "".join(f"{c:>10.1f}" for c in cells))
    z = fig1_noise(range(FIG1_SEEDS))
    print(f"\nfig1 fast path: us per step (median of {REPEATS}, T = {SYNTH_T}, B = {FIG1_SEEDS})")
    for panel in FIG1_PANEL_SPECS:
        print(f"{panel:<16}{fig1_step_cost_us(panel, z):>10.1f}")
    print(f"{'fig1_noise':<16}{fig1_noise_cost_us():>10.2f}  (us per seed, B = {FIG1_SEEDS})")
    print(f"\nengine, exact-likelihood dps: us per step (median of {REPEATS}, T = {SYNTH_T}, "
          f"B = {EXACT_SEEDS})")
    for w in (1.0, 100.0):
        print(f"{f'dps_exact_w{w:g}':<16}{exact_step_cost_us(w):>10.1f}")
    is_ms, mib, quadrature_ms = oracle_costs()
    print(f"\nIS oracle: {is_ms:.1f} ms per {IS_DRAWS:,}-draw probe (median of {REPEATS}), "
          f"tracemalloc peak {mib:.1f} MiB")
    print(f"quadrature oracle: {quadrature_ms:.2f} ms per call ({_GH_NODES} nodes per axis, "
          f"median of {REPEATS})")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
