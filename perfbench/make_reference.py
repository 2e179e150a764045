#!/usr/bin/env python3
"""Record the reference that every benchmark run is checked against.

    python3 perfbench/make_reference.py

Run from the root of a checkout. For every command in every workload's pool
it runs the command twice and stores the sha256 of each CSV, refusing to
record a command whose two runs differ or whose artifacts are not finite and
strict JSON. It also runs
`steerkit verify` once traced and stores its verdict table, its call counts
and the number of steps its trajectories integrate. The result is written to
`perfbench/reference.json`; re-record only when a change is meant to alter
artifacts, and say so.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import shutil
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402
import workloads  # noqa: E402


def _digests(out_dir: Path) -> dict:
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(out_dir.glob("*.csv"))}


def record_verify(runner, work: Path) -> dict:
    unit = workloads.Unit("oracle_suite", "verify", [workloads.Command("verify", "verify")])
    res = run.run_unit(runner, unit, work / "verify", trace=True)
    if res["crashed"]:
        raise SystemExit("steerkit verify did not run")
    trace = run.merge_traces(run.read_trace(p) for p in res["traces"])
    return {
        "verdicts": run.parse_verdicts(res["outputs"]["verify"]["stdout"]),
        "steps": trace["counters"]["run_steered_steps"],
        "counts": {k: v for k, v in trace["calls"].items() if v},
    }


def record_command(runner, command, work: Path) -> dict:
    """CSV digests of one command, identical over two runs."""
    unit = workloads.Unit("reference", command.key, [command])
    seen = []
    for attempt in range(2):
        res = run.run_unit(runner, unit, work / f"{command.key}-{attempt}", trace=False)
        if res["crashed"]:
            raise SystemExit(f"{command.key} did not run")
        out_dir = res["outputs"][command.key]["dir"]
        problem = run.manifest_problem(out_dir / "manifest.json")
        if problem:
            raise SystemExit(f"{command.key}: manifest {problem}")
        digests = _digests(out_dir)
        for name in digests:
            problem = run.csv_problem(out_dir / name, None)
            if problem:
                raise SystemExit(f"{command.key}/{name}: {problem}")
        seen.append(digests)
        print(f"{command.key} run {attempt}: wall {res['wall_s']:.2f} s", flush=True)
    if seen[0] != seen[1]:
        raise SystemExit(f"{command.key}: two runs wrote different CSVs")
    return seen[0]


def main() -> int:
    root = Path.cwd()
    if not (root / "src" / "steerkit" / "__init__.py").is_file():
        print("error: run from the root of a steerkit checkout", file=sys.stderr)
        return 2
    work = root / ".perfbench_work" / f"reference-p{os.getpid()}"
    work.mkdir(parents=True)
    runner = run.Runner(root, time.monotonic() + 6 * 3600)
    try:
        verify = record_verify(runner, work)
        print(f"verify: {sum(verify['verdicts'].values())}/{len(verify['verdicts'])} pass, "
              f"{verify['steps']} trajectory steps", flush=True)
        artifacts = {}
        for wl in workloads.WORKLOADS:
            for entry in workloads.pool(wl):
                for command, _, _ in workloads.pool_commands(wl, entry):
                    artifacts[command.key] = record_command(runner, command, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    import numpy as np

    reference = {
        "recorded_with": {"python": platform.python_version(), "numpy": np.__version__},
        "verify": verify,
        "artifacts": artifacts,
    }
    run.REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {run.REFERENCE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
