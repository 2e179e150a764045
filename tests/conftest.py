"""Shared fixtures and the acceptance-line reporter.

Acceptance tests append one human-readable pass/fail line per criterion; the
terminal-summary hook replays them at the end of the run so the verdicts are
visible even when pytest captures stdout.
"""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from steerkit import Embedding, GaussianPriorModel, make_gaussian_model, make_mixture_model

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
