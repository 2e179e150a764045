"""Child process of the benchmark: one steerkit command in a fresh interpreter.

    launch.py setup <kind> <task_seed> <config>
        import steerkit, parse the config and build the task, then print the
        CLOCK_MONOTONIC time at which the first integration step could start.
    launch.py cli <timing.json> <trace_prefix or -> -- <steerkit cli args...>
        run `steerkit.cli.main(args)` exactly as the console script does and
        write its return code and wall seconds; with a trace prefix, wrap the
        public functions first and write the spans when main returns.

The parent puts the checkout's `src` first on PYTHONPATH and pins the BLAS and
OpenMP thread counts in the environment.
"""

from __future__ import annotations

import json
import sys
import time


def _setup(kind: str, task_seed: int, config: str) -> int:
    import steerkit
    from steerkit.harness import load_config

    load_config(config)
    if kind == "synthetic":
        steerkit.build_synthetic_task()
    else:
        steerkit.build_toy_task(kind, task_seed)
    ready = time.monotonic()
    print(json.dumps({"ready": ready, "module": steerkit.__file__}))
    return 0


def _cli(timing_path: str, trace_prefix: str, argv) -> int:
    tracer = None
    if trace_prefix != "-":
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    import steerkit.cli

    t0 = time.perf_counter()
    try:
        rc = steerkit.cli.main(argv)
    finally:
        wall = time.perf_counter() - t0
        if tracer is not None:
            tracer.dump(trace_prefix)
    sys.stdout.flush()
    with open(timing_path, "w", encoding="utf-8") as fh:
        json.dump({"rc": rc, "wall_s": wall}, fh)
    return 0


def main(argv) -> int:
    if argv[:1] == ["setup"] and len(argv) == 4:
        return _setup(argv[1], int(argv[2]), argv[3])
    if argv[:1] == ["cli"] and len(argv) >= 4 and argv[3] == "--":
        return _cli(argv[1], argv[2], argv[4:])
    print(__doc__, file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
