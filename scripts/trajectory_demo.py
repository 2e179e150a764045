#!/usr/bin/env python3
"""Steer one bead-chain trajectory and print the per-step log.

Shows what the steering loop records at each step: the pre-update surrogate
F = R(denoiser output), the embedding-gradient norm, and the cumulative
embedding drift from the task's initial conditioning.
"""

import argparse
import math

import numpy as np

from steerkit import SteeringConfig, build_toy_task, run_steered


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--kind", choices=("distance", "map"), default="distance")
    ap.add_argument("--task-seed", type=int, default=0)
    ap.add_argument("--seed", type=int, default=0, help="trajectory seed")
    ap.add_argument("--method", choices=("embedopt", "dps", "none"), default="embedopt")
    ap.add_argument("--alpha", type=float, default=0.1)
    ap.add_argument("--T", type=int, default=200)
    ap.add_argument("--every", type=int, default=20, help="print every n-th step")
    args = ap.parse_args()
    if args.T < 1:
        ap.error("--T must be at least 1")
    if not 0 <= args.alpha < math.inf:
        ap.error("--alpha must be a finite non-negative number")
    if args.every < 1:
        ap.error("--every must be at least 1")

    task = build_toy_task(args.kind, args.task_seed)
    schedule = task.schedule(T=args.T)
    config = SteeringConfig(
        method=args.method, alpha=args.alpha,
        dps_norm_mode="l2_matched",
    )
    reward = None if args.method == "none" else task.reward
    res = run_steered(
        task.model, reward, task.c_init, schedule,
        config, [np.random.default_rng(args.seed)],  # a batch of one trajectory
    )

    rec = res.records[0]
    print(f"{'step':>5} {'sigma':>8} {'F':>12} {'|grad|':>10} {'drift':>8}")
    for i, step in enumerate(rec.steps):
        if step % args.every == 0 or step == 1:
            f_txt = " " * 12 if rec.F is None else f"{rec.F[i]:12.5f}"  # no reward logged
            print(f"{step:>5} {rec.sigmas[i]:>8.3f} {f_txt} {rec.grad_norms[i]:>10.3e} "
                  f"{rec.embed_drifts[i]:>8.3f}")
    print(f"final reward {task.reward.value(res.x0)[0]:.5f}")
    print(f"{task.metric_name()} {task.metric(res.x0)[0]:g}")
    if rec.skip_counts:
        print(f"skipped updates: {dict(rec.skip_counts)}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
