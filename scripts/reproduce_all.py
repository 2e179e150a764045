#!/usr/bin/env python3
"""Run every shipped experiment config as `steerkit run CONFIG` does.

Each JSON config in configs/ goes, in name order, through the CLI's own
parser and checks with `--out OUT/<file name without .json>`. --jobs
(default: the CPUs this process may use, the count the pool rule caps at)
goes to the experiments whose config reads `jobs`, the sweeps; their rows
run on up to that many worker processes, and the CSVs do not depend on it.
--quick adds `--seeds` with a prefix of each config's seeds (40 for the
histogram figure, 1 otherwise) for a smoke pass. Full reproduction takes
about 2 s with --jobs 2 on a 2-vCPU machine, most of it the map sweep.

Stops at the first run that fails, with that run's exit code and its one
JSON error line on stderr; exits 0 when every run wrote its artifacts.
"""

import argparse
from pathlib import Path

from steerkit import cli
from steerkit.harness import _KEYS, load_config
from steerkit.schedules import _usable_cpus

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def commands(out: Path, jobs: int, quick: bool) -> list:
    """The `steerkit` argument list of each shipped config's run."""
    argvs = []
    for path in sorted(CONFIGS.glob("*.json")):
        argv = ["run", str(path), "--out", str(out / path.stem)]
        try:
            cfg = load_config(path)
        except Exception:  # `steerkit run` meets the same error and reports it
            argvs.append(argv)
            continue
        if quick:
            keep = 40 if cfg.experiment == "synthetic_fig1" else 1
            argv += ["--seeds", ",".join(map(str, cfg.seeds[:keep]))]
        if cfg.experiment in _KEYS["jobs"][0]:
            argv += ["--jobs", str(jobs)]
        argvs.append(argv)
    return argvs


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", type=Path, default=Path("out"))
    ap.add_argument("--jobs", type=int, default=_usable_cpus(),
                    help="worker processes for sweep rows")
    ap.add_argument("--quick", action="store_true", help="small seed counts, smoke pass only")
    args = ap.parse_args(argv)
    if args.jobs < 1:
        ap.error("--jobs must be at least 1")
    for run in commands(args.out, args.jobs, args.quick):
        code = cli.main(run)
        if code:
            return code
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
