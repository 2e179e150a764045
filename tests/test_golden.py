"""Golden digests: the shipped configs and benchmark commands reproduce
recorded CSVs.

The benchmark's reference (perfbench/reference.json) records the sha256 of
every CSV its commands write; at task seed 0 its distance commands are the
shipped sweep_distance, scale_distance and single_distance configs. Running
those configs must give the same bytes. So must one benchmark command of
each other kernel, built by perfbench/workloads.py: one 10,000-seed fig1
block (the fast path), one map sweep per voxel-count stratum (the splat
kernel) and one synthetic single run. Floating-point results can differ
across numpy and Python builds, so the test runs only under the versions
the reference was recorded with, and says so when it skips.
"""

import hashlib
import importlib.util
import json
import platform
import sys
from pathlib import Path

import numpy as np
import pytest

from steerkit.harness import config_from_dict, load_config, run_from_config

ROOT = Path(__file__).resolve().parents[1]
REFERENCE = ROOT / "perfbench" / "reference.json"
CASES = [
    ("sweep_distance.json", "distance_sweep_task0"),
    ("scale_distance.json", "distance_scale_task0"),
    ("single_distance.json", "distance_single_task0"),
]


def _load_workloads():
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", ROOT / "perfbench" / "workloads.py"
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up
    spec.loader.exec_module(module)
    return module


workloads = _load_workloads()
COMMANDS = [
    workloads.fig1(0)[0],
    *(workloads.lr_sweep("map", stratum[0], [stratum[0]], workloads.MAP_T)[0]
      for stratum in workloads.MAP_STRATA),
    workloads.single_run("synthetic", 0, [0, 1])[0],
]


@pytest.fixture(scope="module")
def reference():
    ref = json.loads(REFERENCE.read_text(encoding="utf-8"))
    here = {"numpy": np.__version__, "python": platform.python_version()}
    if here != ref["recorded_with"]:
        pytest.skip(f"digests recorded with {ref['recorded_with']}, running {here}")
    return ref["artifacts"]


def assert_csv_digests(out_dir: Path, want: dict) -> None:
    got = {
        name: hashlib.sha256((out_dir / name).read_bytes()).hexdigest()
        for name in want
    }
    assert got == want
    assert sorted(p.name for p in out_dir.glob("*.csv")) == sorted(want)


@pytest.mark.parametrize("config,key", CASES, ids=[key for _, key in CASES])
def test_shipped_distance_config_matches_reference_digests(tmp_path, reference, config, key):
    cfg = load_config(ROOT / "configs" / config).with_overrides(out_dir=str(tmp_path))
    run_from_config(cfg)
    assert_csv_digests(tmp_path, reference[key])


@pytest.mark.parametrize("command", COMMANDS, ids=[c.key for c in COMMANDS])
def test_benchmark_command_matches_reference_digests(tmp_path, reference, command):
    run_from_config(config_from_dict({**command.config, "out_dir": str(tmp_path)}))
    assert_csv_digests(tmp_path, reference[command.key])
