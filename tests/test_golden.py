"""Golden digests: the shipped distance configs reproduce recorded CSVs.

The benchmark's reference (perfbench/reference.json) records the sha256 of
every CSV its commands write; at task seed 0 its distance commands are the
shipped sweep_distance, scale_distance and single_distance configs. Running
those configs must give the same bytes. Floating-point results can differ
across numpy and Python builds, so the test runs only under the versions
the reference was recorded with, and says so when it skips.
"""

import hashlib
import json
import platform
from pathlib import Path

import numpy as np
import pytest

from steerkit.harness import load_config, run_from_config

ROOT = Path(__file__).resolve().parents[1]
REFERENCE = ROOT / "perfbench" / "reference.json"
CASES = [
    ("sweep_distance.json", "distance_sweep_task0"),
    ("scale_distance.json", "distance_scale_task0"),
    ("single_distance.json", "distance_single_task0"),
]


@pytest.fixture(scope="module")
def reference():
    ref = json.loads(REFERENCE.read_text(encoding="utf-8"))
    here = {"numpy": np.__version__, "python": platform.python_version()}
    if here != ref["recorded_with"]:
        pytest.skip(f"digests recorded with {ref['recorded_with']}, running {here}")
    return ref["artifacts"]


@pytest.mark.parametrize("config,key", CASES, ids=[key for _, key in CASES])
def test_shipped_distance_config_matches_reference_digests(tmp_path, reference, config, key):
    cfg = load_config(ROOT / "configs" / config).with_overrides(out_dir=str(tmp_path))
    run_from_config(cfg)
    want = reference[key]
    got = {
        name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
        for name in want
    }
    assert got == want
    assert sorted(p.name for p in tmp_path.glob("*.csv")) == sorted(want)
