#!/usr/bin/env python3
"""Run every shipped experiment config and report where the artifacts went.

Full reproduction takes about 2 s with --jobs 2 on a 2-vCPU machine, most of
it the map sweep, whose rows run on --jobs worker processes (default: one per
CPU; the CSVs do not depend on it). --quick shrinks the seed counts for a
smoke pass.
Artifact directories keep the basename from each config's out_dir but are
rooted at --out.
"""

import argparse
import dataclasses
import os
from pathlib import Path

from steerkit.harness import load_config, run_from_config

CONFIG_NAMES = (
    "fig1.json",
    "sweep_distance.json",
    "sweep_map.json",
    "scale_distance.json",
    "single_synthetic.json",
    "single_distance.json",
)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument(
        "--configs",
        type=Path,
        default=Path(__file__).resolve().parent.parent / "configs",
        help="directory holding the shipped config JSONs",
    )
    ap.add_argument("--out", type=Path, default=Path("out"))
    ap.add_argument(
        "--jobs", type=int, default=os.cpu_count(), help="worker processes for sweep rows"
    )
    ap.add_argument("--quick", action="store_true", help="small seed counts, smoke pass only")
    args = ap.parse_args()
    if args.jobs < 1:
        ap.error("--jobs must be at least 1")

    for name in CONFIG_NAMES:
        cfg = load_config(args.configs / name)
        out_dir = args.out / Path(cfg.out_dir).name
        seeds = cfg.seeds
        if args.quick:
            keep = 40 if cfg.experiment == "synthetic_fig1" else 1
            seeds = cfg.seeds[:keep]
        jobs = args.jobs if cfg.experiment in ("lr_sweep", "step_scaling") else cfg.jobs
        # a prefix of validated seeds and a checked jobs need no second parse
        cfg = dataclasses.replace(cfg, out_dir=str(out_dir), seeds=seeds, jobs=jobs)
        manifest = run_from_config(cfg)
        print(f"{name:>22} -> {out_dir}  (wall {manifest['wall_time_s']:.1f}s)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
