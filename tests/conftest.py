"""Shared fixtures and the acceptance-line reporter.

Acceptance tests append one human-readable pass/fail line per criterion; the
terminal-summary hook replays them at the end of the run so the verdicts are
visible even when pytest captures stdout.
"""

import contextlib
import importlib.util
import io
import json
import os
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from steerkit import Embedding, GaussianPriorModel, cli, make_gaussian_model, make_mixture_model
from steerkit.verification import CheckResult

ACCEPTANCE_LINES = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.write_sep("=", "acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


@pytest.fixture(scope="session")
def criterion_report():
    def _report(line: str) -> None:
        ACCEPTANCE_LINES.append(line)
        print(line)

    return _report


@pytest.fixture(scope="session")
def verify_run(tmp_path_factory):
    """One `steerkit verify --out DIR` run, the suite at its one size, shared by
    every test that reads its outcome: the exit code, the printed lines, the
    output directory and the report's rows as CheckResults."""
    out = tmp_path_factory.mktemp("verify_run") / "verify"
    printed = io.StringIO()
    with contextlib.redirect_stdout(printed):
        code = cli.main(["verify", "--out", str(out)])
    report = json.loads((out / "verify_report.json").read_text(encoding="utf-8"))
    rows = [CheckResult(**row) for row in report["checks"]]
    return SimpleNamespace(code=code, lines=printed.getvalue().splitlines(), out=out, rows=rows)


def gaussian_fixture(seed: int):
    """Affine-prior model plus a matching random embedding."""
    model = make_gaussian_model({"u": 3, "v": 4}, D=6, s0=0.7, seed=seed)
    rng = np.random.default_rng(seed + 1000)
    c = Embedding({"u": rng.standard_normal(3), "v": rng.standard_normal(4)})
    return model, c


def mixture_fixture(seed: int):
    """3-mode mixture model plus a matching random embedding."""
    model = make_mixture_model(
        {"u": 3, "v": 4}, D=6,
        weights=(0.5, 0.3, 0.2), stds=(0.4, 0.7, 1.0),
        seed=seed, mean_scale=1.5,
    )
    rng = np.random.default_rng(seed + 1000)
    c = Embedding({"u": rng.standard_normal(3), "v": rng.standard_normal(4)})
    return model, c


def sample_prior(model, c: Embedding, rng: np.random.Generator) -> np.ndarray:
    """One draw x0 ~ p(x0 | c) from a Gaussian or mixture prior model."""
    if isinstance(model, GaussianPriorModel):
        return model.mean(c) + model.s0 * rng.standard_normal(model.D)
    k = rng.choice(model.K, p=model.weights)
    return model.mode_means(c)[k] + model.stds[k] * rng.standard_normal(model.D)


def run_script(name: str, *args) -> subprocess.CompletedProcess:
    """Run scripts/<name> with these arguments on the checkout's src/."""
    root = Path(__file__).resolve().parents[1]
    return subprocess.run(
        [sys.executable, str(root / "scripts" / name), *map(str, args)],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": str(root / "src")},
    )


def load_module(relpath: str):
    """The checkout's file at relpath (say, scripts/artifact_diff.py) as a module,
    loaded once and registered as perfbench_workloads, scripts_artifact_diff..."""
    path = Path(__file__).resolve().parents[1] / relpath
    name = relpath.removesuffix(".py").replace("/", "_")
    if name not in sys.modules:
        spec = importlib.util.spec_from_file_location(name, path)
        module = importlib.util.module_from_spec(spec)
        sys.modules[name] = module  # its dataclasses look their module up
        spec.loader.exec_module(module)
    return sys.modules[name]
