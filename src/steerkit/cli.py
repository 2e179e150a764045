"""Command-line entry point.

Subcommands: run/sweep/scale/fig1 each take a JSON config file (the kind-
specific subcommands assert the config's experiment kind matches); verify
runs the self-check suite and prints a pass/fail table, and with --out DIR
writes its report and a manifest there: the suite's telemetry and the BLAS
and OpenMP thread variables it ran under. Errors exit with a distinct code
per failure class (2 parse; 3 validation, a non-finite, overflowing or
degenerate result, or a failed allocation; 4 IO) and one machine-readable
JSON error record on stderr. Numpy's floating-point warnings are silenced
during a config run, since any NaN or inf that reaches a result is reported
by that record. Only verify imports the verification suite.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from .harness import (
    EXIT_IO,
    EXIT_OK,
    EXIT_PARSE,
    EXIT_VALIDATION,
    ConfigParseError,
    ConfigValidationError,
    _base_manifest,
    _write_json,
    load_config,
    run_from_config,
    write_manifest,
)
from .models import NonFiniteStateError
from .rewards import DegenerateMapError

# the variables that size BLAS's and OpenMP's own thread pools; verify --out
# records their values as `blas_threads`
_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

_KIND_BY_COMMAND = {
    "run": None,  # any experiment kind
    "fig1": "synthetic_fig1",
    "sweep": "lr_sweep",
    "scale": "step_scaling",
}


def _error_record(kind: str, message: str) -> None:
    print(json.dumps({"error": kind, "message": message}), file=sys.stderr)


def _add_config_command(sub, name: str, help_text: str) -> None:
    p = sub.add_parser(name, help=help_text)
    p.add_argument("config", help="path to a JSON experiment config")
    p.add_argument("--out", help="override the config's output directory")
    p.add_argument(
        "--seeds",
        help="override seeds: comma-separated integers, e.g. 0,1,2",
    )
    p.add_argument("--jobs", type=int, help="worker processes for sweep rows")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="steerkit",
        description="inference-time steering experiments over analytic denoisers",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    _add_config_command(sub, "run", "run any experiment config")
    _add_config_command(sub, "fig1", "synthetic histogram panels")
    _add_config_command(sub, "sweep", "learning-rate sweep on a toy task")
    _add_config_command(sub, "scale", "step-count scaling table")
    verify = sub.add_parser("verify", help="run the verification suite, print a table")
    verify.add_argument("--out", help="also write its report and manifest into this directory")
    return parser


def _parse_seeds(text: str) -> Sequence[int]:
    try:
        return [int(tok) for tok in text.split(",") if tok.strip() != ""]
    except ValueError as e:
        raise ConfigValidationError(f"bad --seeds value: {e}") from e


def _run_config_command(args) -> int:
    seeds = None if args.seeds is None else _parse_seeds(args.seeds)
    cfg = load_config(args.config, out_dir=args.out, seeds=seeds, jobs=args.jobs)
    expected = _KIND_BY_COMMAND[args.command]
    if expected is not None and cfg.experiment != expected:
        raise ConfigValidationError(
            f"'{args.command}' needs a {expected!r} config, got {cfg.experiment!r}"
        )
    with np.errstate(all="ignore"):
        manifest = run_from_config(cfg)
    print(f"wrote {cfg.out_dir} ({cfg.experiment}, wall {manifest['wall_time_s']:.2f}s)")
    return EXIT_OK


def _run_verify(out: Optional[str]) -> int:
    """Print the suite's table (exit 1 if a check fails); given `out`, make that
    directory before any check runs and write the report and manifest there."""
    from .verification import run_verification_suite
    if out is not None:
        Path(out).mkdir(parents=True, exist_ok=True)
    t0 = time.perf_counter()
    telemetry = {}
    results = run_verification_suite(telemetry=telemetry)
    width = max(len(r.name) for r in results)
    for r in results:
        print(f"{'PASS' if r.passed else 'FAIL'}  {r.name:<{width}}  {r.detail}")
    passed = sum(r.passed for r in results)
    print(f"{passed}/{len(results)} checks passed")
    if out is not None:
        report = {"all_passed": passed == len(results), "checks": [vars(r) for r in results]}
        _write_json(Path(out) / "verify_report.json", report)
        manifest = _base_manifest("verify", {"experiment": "verify", "out_dir": out}, t0)
        manifest.update(telemetry, artifacts=["verify_report.json"], all_passed=report["all_passed"])
        manifest["blas_threads"] = {v: os.environ.get(v) for v in _THREAD_VARS}
        write_manifest(out, manifest)
    return EXIT_OK if passed == len(results) else 1


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Run one subcommand; an error is reported as one JSON line on stderr and
    exits with its class's code."""
    args = build_parser().parse_args(argv)
    try:
        if args.command == "verify":
            return _run_verify(args.out)
        return _run_config_command(args)
    except ConfigParseError as e:
        _error_record("parse", str(e))
        return EXIT_PARSE
    except ConfigValidationError as e:
        _error_record("validation", str(e))
        return EXIT_VALIDATION
    except (NonFiniteStateError, DegenerateMapError, OverflowError) as e:
        _error_record("numeric", f"{type(e).__name__}: {e}")
        return EXIT_VALIDATION
    except MemoryError as e:  # a count so large that its first array cannot be allocated
        _error_record("memory", str(e) or "out of memory")
        return EXIT_VALIDATION
    except OSError as e:
        _error_record("io", str(e))
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
