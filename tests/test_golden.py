"""Golden digests: the shipped configs and benchmark commands reproduce
recorded CSVs.

`scripts/reproduce_all.py` at full size must write the 12 CSVs recorded in
FULL_SIZE_CSVS and the 6 manifests recorded in FULL_SIZE_MANIFESTS, which
pins every shipped config, through the config parser, to its artifacts.

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
import json
import platform
from pathlib import Path

import numpy as np
import pytest

from steerkit.harness import config_from_dict, load_config, run_from_config
from steerkit.schedules import _usable_cpus
from conftest import load_module, run_script

ROOT = Path(__file__).resolve().parents[1]
REFERENCE = ROOT / "perfbench" / "reference.json"
CASES = [
    ("sweep_distance.json", "distance_sweep_task0"),
    ("scale_distance.json", "distance_scale_task0"),
    ("single_distance.json", "distance_single_task0"),
]


workloads = load_module("perfbench/workloads.py")
artifact_diff = load_module("scripts/artifact_diff.py")
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
    cfg = load_config(ROOT / "configs" / config, out_dir=str(tmp_path))
    run_from_config(cfg)
    assert_csv_digests(tmp_path, reference[key])


@pytest.mark.parametrize("command", COMMANDS, ids=[c.key for c in COMMANDS])
def test_benchmark_command_matches_reference_digests(tmp_path, reference, command):
    run_from_config(config_from_dict({**command.config, "out_dir": str(tmp_path)}))
    assert_csv_digests(tmp_path, reference[command.key])


# the sha256 of each CSV that `reproduce_all.py --jobs 2` writes at full size, by
# path under --out; as sorted `sha256sum` lines they hash to 3c155a8e...
FULL_SIZE_RECORDED_WITH = {"numpy": "2.4.6", "python": "3.11.7"}
FULL_SIZE_CSVS = {
    "fig1/fig1_dps_w1.csv": "25b45cae994a4a5802dc7b35b4f37559884fdc0b4d72537c8b5b72ef55fc941e",
    "fig1/fig1_dps_w100.csv": "3af857ec9b31ad0233712efc9e8be205237ee9b16980682a4e8d73ef25091ccf",
    "fig1/fig1_embedopt_a0.1.csv": "b6affd23e56c3aeec6c07364a906cc51a77ea176bab762290ae04cbe57f49840",
    "fig1/fig1_unguided.csv": "3c2407d5df6aa13e6bcb5028ecb1f577d0d71140b436a990f786c37d847dd6f0",
    "scale_distance/scale.csv": "99857de849c2d3fc589c8faec82b4319468b74ee8eb616814d326829a34e1d78",
    "single_distance/trajectory_seed0.csv":
        "a16b445e65a17e73c77df072f7ff76bf61bf619ffe50fcaf456365012a03b922",
    "single_synthetic/trajectory_seed0.csv":
        "336337ad2a2131c66858dd7bf671bf9c095017778779de04de88f94adbdd6d2c",
    "single_synthetic/trajectory_seed1.csv":
        "cd932aa4954b46d91414b514968cce14783687229163cde757c9d035e226f8df",
    "sweep_distance/best_achieved.csv":
        "3050fe3cf1647e39fbeeb486190454dbfa76a23662fdf23d5f18c0e5180aa868",
    "sweep_distance/sweep.csv": "adb6e74d2462f2a28b28e8b37dcdb3baf19ba1699c5d1215d383aa2ce94fffd2",
    "sweep_map/best_achieved.csv": "bf63498b48bd9b4d7e7b01efa4d91ea2fc687109cb55be04999c63b9485795d9",
    "sweep_map/sweep.csv": "53907fa821b8d71a830836b8023b957b8802a40376a85d0148046ce3b6e36bf6",
}


# the sha256 of each manifest.json of the same run, by path under --out, taken of
# json.dumps(strip_runtime(manifest), sort_keys=True): artifact_diff.py's
# comparison, without the keys that say when, where or how fast the run went
FULL_SIZE_MANIFESTS = {
    "fig1/manifest.json": "8a3582ee2870d2283cc7d51a799b212950680532c889ed03724fca3b7b14aef2",
    "scale_distance/manifest.json":
        "69087638aad8339f04004e8c9fafd7c268b95e98c35eb620372e3ad2801ba481",
    "single_distance/manifest.json":
        "198da3bfae2b90c61727de728ab0124688af4b559f220fe2ebcfc48ce05b0f3e",
    "single_synthetic/manifest.json":
        "5c6b7390006cf40f32554547810ead1c0905243fd15c8ac6f7169b7a2a8622a8",
    "sweep_distance/manifest.json":
        "db984c30b5bd3fee19fc9ea5aae024308c697dcfd4168ad1beb29b7739cb3b86",
    "sweep_map/manifest.json": "f819a3673f8ea6e66740d9eba9a7dd01b890d85a2efb1967969c606fcdf4bde0",
}


def _manifest_digest(path: Path) -> str:
    manifest = artifact_diff.strip_runtime(json.loads(path.read_text(encoding="utf-8")))
    return hashlib.sha256(json.dumps(manifest, sort_keys=True).encode()).hexdigest()


def test_full_size_reproduction_matches_recorded_digests(tmp_path):
    here = {"numpy": np.__version__, "python": platform.python_version()}
    if here != FULL_SIZE_RECORDED_WITH:
        pytest.skip(f"digests recorded with {FULL_SIZE_RECORDED_WITH}, running {here}")
    if _usable_cpus() < 2:  # one worker: one batch_runtimes_s entry per batch, unchunked
        pytest.skip("the manifests' batch_runtimes_s follow a two-worker pool's chunking")
    proc = run_script("reproduce_all.py", "--jobs", "2", "--out", tmp_path)
    assert proc.returncode == 0, proc.stderr
    got = {
        p.relative_to(tmp_path).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in tmp_path.rglob("*.csv")
    }
    assert got == FULL_SIZE_CSVS
    got = {p.relative_to(tmp_path).as_posix(): _manifest_digest(p)
           for p in tmp_path.rglob("manifest.json")}
    assert got == FULL_SIZE_MANIFESTS
