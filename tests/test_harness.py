"""Experiment harness: configs, exit codes, artifact formats, determinism.

Byte-identity is the load-bearing property here: identical configs must
produce identical CSV bodies whether run twice in a row or fanned out over a
process pool, with everything wall-clock flavored confined to the manifest.
"""

import contextlib
import functools
import io
import json
import math
import os
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from steerkit import NonFiniteStateError, SteeringConfig, build_synthetic_task, run_steered
from steerkit import harness, verification
from steerkit.cli import main as cli_main
from steerkit.harness import (
    EXIT_IO,
    EXIT_OK,
    EXIT_PARSE,
    EXIT_VALIDATION,
    ConfigParseError,
    ConfigValidationError,
    ExperimentConfig,
    FIG1_CSV_PANELS,
    FIG1_PANEL_SPECS,
    atomic_write_text,
    fig1_noise,
    fig1_panel_samples,
    load_config,
    run_from_config,
    write_csv,
    write_manifest,
)
from steerkit.harness import _chunks, _pool_size, config_from_dict
from conftest import run_script


def write_config(tmp_path: Path, payload: dict, name: str = "config.json") -> Path:
    path = tmp_path / name
    path.write_text(json.dumps(payload), encoding="utf-8")
    return path


def sweep_payload(out_dir: Path) -> dict:
    return {
        "experiment": "lr_sweep",
        "out_dir": str(out_dir),
        "seeds": [0, 1],
        "alphas": [0.0, 0.1],
        "methods": ["embedopt", "dps"],
        "schedule": {"T": 40},
        "task": {"kind": "distance", "seed": 0},
    }


def read_rows(path: Path):
    lines = path.read_text(encoding="utf-8").splitlines()
    header = lines[0].split(",")
    return header, [dict(zip(header, line.split(","))) for line in lines[1:]]


def assert_no_tmp_leftovers(out_dir: Path):
    assert not list(out_dir.glob("*.tmp"))


# ---------------------------------------------------------------------------
# low-level artifact plumbing


def test_write_csv_formatting(tmp_path):
    path = tmp_path / "t.csv"
    write_csv(path, ("a", "b", "c", "d"),
              (np.array([1, 2]), np.array([0.1, 2.0]), [None, 3], ["embedopt", "x"]))
    text = path.read_text(encoding="utf-8")
    assert text == "a,b,c,d\n1,0.1,,embedopt\n2,2.0,3,x\n"


def test_write_csv_floats_round_trip(tmp_path):
    values = [0.1 + 0.2, 1e-17, 12345.6789, float(np.float64(1) / 3)]
    path = tmp_path / "t.csv"
    for column in (np.array(values), values):  # an array column and a plain one
        write_csv(path, ("v",), [column])
        _, rows = read_rows(path)
        assert [float(row["v"]) for row in rows] == values  # repr is exact under round-trip


def test_write_csv_cell_bytes(tmp_path):
    """Each cell is repr(float(v)) or str(int(v)), whether the column is an
    array or a plain sequence; None is an empty cell; columns of unequal
    length are an error, not a short file."""
    floats = np.array([-0.0, 1e16, 1e-5, 5e-324, 0.1 + 0.2, -np.pi, 2.0**60, 1 / 3])
    ints = np.array([0, -1, 2**62, -(2**63), 7, 1, 10**15, 3], dtype=np.int64)
    mixed = [None, 5, None, 0, np.int64(2), None, 1, None]
    path = tmp_path / "t.csv"
    write_csv(path, ("f", "f_list", "i", "i_list", "v"),
              (floats, floats.tolist(), ints, list(ints), mixed))
    lines = path.read_text(encoding="utf-8").split("\n")
    assert lines[0] == "f,f_list,i,i_list,v" and lines[-1] == "" and len(lines) == 10
    for line, f, i, v in zip(lines[1:-1], floats, ints, mixed, strict=True):
        cell_f, cell_i = repr(float(f)), str(int(i))
        assert line == ",".join([cell_f, cell_f, cell_i, cell_i, "" if v is None else str(v)])
    assert lines[1].startswith("-0.0,") and lines[2].startswith("1e+16,")
    assert lines[3].startswith("1e-05,") and lines[4].startswith("5e-324,")
    assert lines[4].split(",")[2] == "-9223372036854775808"
    for ragged in ((floats, ints[:-1]), (floats[:-1], mixed), (mixed, floats[:3])):
        with pytest.raises(ValueError):
            write_csv(tmp_path / "ragged.csv", ("a", "b"), ragged)
    assert not (tmp_path / "ragged.csv").exists()


def test_atomic_write_replaces_existing(tmp_path):
    path = tmp_path / "f.txt"
    atomic_write_text(path, "first")
    atomic_write_text(path, "second")
    assert path.read_text(encoding="utf-8") == "second"
    assert_no_tmp_leftovers(tmp_path)


# ---------------------------------------------------------------------------
# config parsing and validation


@pytest.mark.parametrize(
    "payload",
    [
        {"out_dir": "x"},                                   # missing experiment
        {"experiment": "lr_sweep"},                         # missing out_dir
        {"experiment": 7, "out_dir": "x"},                  # wrong type
        {"experiment": "lr_sweep", "out_dir": "x", "seeds": [0.5]},
        {"experiment": "lr_sweep", "out_dir": "x", "alphas": "0.1"},
        {"experiment": "lr_sweep", "out_dir": "x", "methods": [1]},
        {"experiment": "lr_sweep", "out_dir": "x", "task": {"seed": True}},
        {"experiment": "lr_sweep", "out_dir": "x", "n_seeds": True},
        {"experiment": "step_scaling", "out_dir": "x", "T_values": [True]},
    ],
)
def test_structural_problems_are_parse_errors(payload):
    with pytest.raises(ConfigParseError):
        config_from_dict(payload)


@pytest.mark.parametrize(
    "payload",
    [
        {"experiment": "mystery", "out_dir": "x"},
        {"experiment": "lr_sweep", "out_dir": "x", "frobnicate": 1},
        {"experiment": "lr_sweep", "out_dir": "x", "seeds": [0], "n_seeds": 3},
        {"experiment": "lr_sweep", "out_dir": "x", "seeds": []},
        {"experiment": "lr_sweep", "out_dir": "x", "n_seeds": 0},
        {"experiment": "synthetic_fig1", "out_dir": "x", "seeds": [0]},
        {"experiment": "synthetic_fig1", "out_dir": "x", "bins": 0},
        {"experiment": "lr_sweep", "out_dir": "x", "alphas": []},
        {"experiment": "lr_sweep", "out_dir": "x", "alphas": [-0.1]},
        {"experiment": "lr_sweep", "out_dir": "x", "methods": ["gradient_descent"]},
        {"experiment": "lr_sweep", "out_dir": "x", "methods": []},
        {"experiment": "lr_sweep", "out_dir": "x", "task": {"kind": "synthetic"}},
        {"experiment": "lr_sweep", "out_dir": "x", "task": {"kind": "torsion"}},
        {"experiment": "lr_sweep", "out_dir": "x", "task": {"beads": 9}},
        {"experiment": "step_scaling", "out_dir": "x", "T_values": [200, 1]},
        {"experiment": "step_scaling", "out_dir": "x", "T_values": []},
        {"experiment": "lr_sweep", "out_dir": "x", "schedule": {"kind": "power"}},
        {"experiment": "lr_sweep", "out_dir": "x", "schedule": {"sigma_max": -2}},
        {"experiment": "lr_sweep", "out_dir": "x", "schedule": {"sigma_max": 0}},
        {"experiment": "lr_sweep", "out_dir": "x", "schedule": {"T": 0}},
        {"experiment": "lr_sweep", "out_dir": "x", "dps_norm_mode": "l1"},
        {"experiment": "lr_sweep", "out_dir": "x", "jobs": 0},
        {"experiment": "single_run", "out_dir": "x", "reward_w": -1},
        {"experiment": "single_run", "out_dir": "x", "steering": {"method": "bogus"}},
        {"experiment": "single_run", "out_dir": "x", "steering": {"alpha": -1}},
        {"experiment": "verify", "out_dir": "x"},  # the suite runs as `steerkit verify`
        # rows are keys: a repeated list entry is rejected, never deduplicated
        {"experiment": "single_run", "out_dir": "x", "seeds": [1, 1]},
        {"experiment": "lr_sweep", "out_dir": "x", "seeds": [0, 0]},
        {"experiment": "lr_sweep", "out_dir": "x", "alphas": [0.1, 0.10000000000000001]},
        {"experiment": "lr_sweep", "out_dir": "x", "alphas": [10**17 + 1, 1e17]},  # equal as floats
        {"experiment": "lr_sweep", "out_dir": "x", "methods": ["dps", "dps"]},
        {"experiment": "step_scaling", "out_dir": "x", "T_values": [20, 20]},
        {"experiment": "synthetic_fig1", "out_dir": "x", "seeds": [3, 3]},
    ],
)
def test_semantic_problems_are_validation_errors(payload):
    with pytest.raises(ConfigValidationError):
        config_from_dict(payload)


@pytest.mark.parametrize(
    "payload",
    [
        {"experiment": "synthetic_fig1", key: value}
        for key, value in (
            ("dps_norm_mode", "sigma2w"), ("steering", {}), ("reward_w", 2.0),
            ("methods", ["dps"]), ("alphas", [0.1]), ("T_values", [20]),
            ("task", {"kind": "distance"}), ("jobs", 2),
        )
    ] + [
        {"experiment": "lr_sweep", "reward_w": 2.0},
        {"experiment": "lr_sweep", "bins": 10},
        {"experiment": "step_scaling", "alphas": [0.1]},
        {"experiment": "step_scaling", "schedule": {"T": 40}},
        {"experiment": "single_run", "dps_norm_mode": "sigma2w"},
        {"experiment": "single_run", "task": {"kind": "distance"}, "reward_w": 2.0},
        {"experiment": "single_run", "bins": 10},
    ],
)
def test_unread_keys_are_rejected(tmp_path, capsys, payload):
    out = tmp_path / "out"
    path = write_config(tmp_path, dict(payload, out_dir=str(out)))
    assert cli_main(["run", str(path)]) == EXIT_VALIDATION
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and json.loads(err[0])["error"] == "validation"
    assert not out.exists()


@pytest.mark.parametrize(
    "steering",
    [
        {"method": "embedopt", "denominator_mode": "previous"},
        {"method": "embedopt", "denominator_mode": "current"},
        {"method": "embedopt", "single_eval": True},
        {"method": "embedopt", "seed": 3},
        {"method": "dps", "sampler_mode": "af3", "af3": {"coord_denoise_at": "previous"}},
    ],
)
def test_removed_steering_keys_are_rejected(tmp_path, capsys, steering):
    out = tmp_path / "out"
    payload = {"experiment": "single_run", "out_dir": str(out), "steering": steering}
    assert cli_main(["run", str(write_config(tmp_path, payload))]) == EXIT_VALIDATION
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and json.loads(err[0])["error"] == "validation"
    assert not out.exists()


@pytest.mark.parametrize(
    "steering",
    [
        {"method": "embedopt", "sampler_mode": "af3", "af3": {"gamma_min": "a"}},
        {"method": "embedopt", "sampler_mode": "af3", "af3": {"gamma_min": None}},
        {"method": "embedopt", "alpha": True},
    ],
)
def test_non_numeric_steering_values_are_rejected(tmp_path, capsys, steering):
    # each once passed validation: gamma_min died mid-run with a TypeError and
    # alpha true ran as 1.0 with "alpha": true in the manifest
    out = tmp_path / "out"
    payload = {"experiment": "single_run", "out_dir": str(out), "schedule": {"T": 5},
               "steering": steering}
    assert cli_main(["run", str(write_config(tmp_path, payload))]) == EXIT_VALIDATION
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and json.loads(err[0])["error"] == "validation"
    assert not out.exists()


def test_config_defaults_fill_in():
    cfg = config_from_dict({"experiment": "lr_sweep", "out_dir": "x"})
    assert cfg.seeds == (0, 1, 2)
    assert cfg.alphas == (0.01, 0.0316, 0.1, 0.316, 1.0)
    assert cfg.methods == ("embedopt", "dps")
    assert cfg.dps_norm_mode == "l2_matched"
    fig = config_from_dict({"experiment": "synthetic_fig1", "out_dir": "x"})
    assert fig.seeds == tuple(range(2000))


def test_config_n_seeds_expansion_and_overrides(tmp_path):
    path = write_config(tmp_path, {"experiment": "lr_sweep", "out_dir": "x", "n_seeds": 4})
    cfg = load_config(path)
    assert cfg.seeds == (0, 1, 2, 3)
    over = load_config(path, out_dir="y", seeds=[5, 6], jobs=2)
    assert (over.out_dir, over.seeds, over.jobs) == ("y", (5, 6), 2)
    assert load_config(path, out_dir=None, seeds=None, jobs=None) == cfg
    for jobs in (0, -3):
        with pytest.raises(ConfigValidationError):
            load_config(path, jobs=jobs)
    with pytest.raises(ConfigValidationError):
        load_config(path, seeds=[])
    fig = write_config(tmp_path, {"experiment": "synthetic_fig1", "out_dir": "x"}, "fig.json")
    with pytest.raises(ConfigValidationError):
        load_config(fig, seeds=[3])
    with pytest.raises(ConfigValidationError):
        load_config(fig, jobs=1)
    # an override is the same key written in the file
    written = {"experiment": "lr_sweep", "out_dir": "y", "seeds": [5, 6], "jobs": 2}
    assert over == load_config(write_config(tmp_path, written, "written.json"))
    # so --out stands in for a missing out_dir, and --jobs is unread by single_run
    no_out = write_config(tmp_path, {"experiment": "lr_sweep"}, "no_out.json")
    with pytest.raises(ConfigParseError):
        load_config(no_out)
    assert load_config(no_out, out_dir="z").out_dir == "z"
    single = write_config(tmp_path, {"experiment": "single_run", "out_dir": "x"}, "single.json")
    with pytest.raises(ConfigValidationError):
        load_config(single, jobs=1)


def test_pool_size_is_capped_by_rows_and_cpus():
    assert _pool_size(100_000, rows=12, cpus=2) == 2
    assert _pool_size(100_000, rows=1, cpus=64) == 1
    assert _pool_size(3, rows=12, cpus=64) == 3
    assert _pool_size(1, rows=0, cpus=4) == 1


@pytest.mark.parametrize("literal", [
    "NaN", "Infinity", "-Infinity", "1e999", "-1e999",
    pytest.param("1" + "0" * 5000, id="5001-digit"),  # past int()'s 4300-digit limit
])
@pytest.mark.parametrize(
    "template",
    [
        '{"experiment": "single_run", "steering": {"alpha": %s}, "schedule": {"T": 3}',
        '{"experiment": "single_run", "reward_w": %s, "schedule": {"T": 3}',
        '{"experiment": "lr_sweep", "alphas": [0.1, %s], "seeds": [0], "schedule": {"T": 3}',
        '{"experiment": "synthetic_fig1", "seeds": [0, 1], "schedule": {"T": 3, "sigma_max": %s}',
    ],
    ids=["steering.alpha", "reward_w", "alphas", "schedule.sigma_max"],
)
def test_non_finite_number_literals_are_parse_errors(tmp_path, capsys, template, literal):
    out = tmp_path / "out"
    path = tmp_path / "config.json"
    path.write_text(template % literal + f', "out_dir": {json.dumps(str(out))}}}', encoding="utf-8")
    assert cli_main(["run", str(path)]) == EXIT_PARSE
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and json.loads(err[0])["error"] == "parse"
    assert not out.exists()  # rejected before any compute or write


_BIG = "1" + "0" * 400  # an integer literal no float holds


@pytest.mark.parametrize(
    "payload",
    [
        {"experiment": "single_run", "steering": {"method": "embedopt", "alpha": _BIG}},
        {"experiment": "lr_sweep", "alphas": [0.1, _BIG], "seeds": [0]},
        {"experiment": "single_run", "reward_w": _BIG},
        {"experiment": "single_run", "schedule": {"T": 5, "sigma_max": _BIG}},
        {"experiment": "single_run", "steering": {
            "method": "embedopt", "alpha": 0.1, "sampler_mode": "af3", "af3": {"gamma": _BIG}}},
    ],
    ids=["steering.alpha", "alphas", "reward_w", "schedule.sigma_max", "steering.af3.gamma"],
)
def test_integer_literals_too_large_for_a_float_are_validation_errors(
    tmp_path, capsys, monkeypatch, payload
):
    """Exit 3 with error kind validation, before any task is built or file written."""
    def no_task(*args):
        raise AssertionError("a task was built")

    monkeypatch.setattr(harness, "build_synthetic_task", no_task)
    monkeypatch.setattr(harness, "build_toy_task", no_task)
    out = tmp_path / "out"
    payload = dict({"schedule": {"T": 5}}, **payload, out_dir=str(out))
    path = tmp_path / "config.json"
    path.write_text(json.dumps(payload).replace(f'"{_BIG}"', _BIG), encoding="utf-8")
    assert f'"{_BIG}"' not in path.read_text(encoding="utf-8")  # a number, not a string
    assert cli_main(["run", str(path)]) == EXIT_VALIDATION
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and json.loads(err[0])["error"] == "validation"
    assert not out.exists()


def test_load_config_bad_json(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json", encoding="utf-8")
    with pytest.raises(ConfigParseError):
        load_config(path)


# ---------------------------------------------------------------------------
# CLI exit codes


def test_cli_exit_parse_error(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json", encoding="utf-8")
    assert cli_main(["run", str(path)]) == EXIT_PARSE
    err = capsys.readouterr().err
    assert json.loads(err.strip())["error"] == "parse"


def test_cli_exit_validation_error(tmp_path, capsys):
    path = write_config(tmp_path, {"experiment": "mystery", "out_dir": str(tmp_path / "o")})
    assert cli_main(["run", str(path)]) == EXIT_VALIDATION
    assert json.loads(capsys.readouterr().err.strip())["error"] == "validation"


def test_cli_exit_io_error(tmp_path, capsys):
    blocker = tmp_path / "blocker"
    blocker.write_text("a file, not a directory", encoding="utf-8")
    payload = sweep_payload(blocker / "out")
    payload["seeds"] = [0]
    payload["alphas"] = [0.1]
    payload["methods"] = ["embedopt"]
    path = write_config(tmp_path, payload)
    assert cli_main(["run", str(path)]) == EXIT_IO
    assert json.loads(capsys.readouterr().err.strip())["error"] == "io"


def test_cli_missing_config_is_io_error(tmp_path, capsys):
    assert cli_main(["run", str(tmp_path / "absent.json")]) == EXIT_IO


def test_cli_kind_guard(tmp_path, capsys):
    path = write_config(tmp_path, sweep_payload(tmp_path / "out"))
    assert cli_main(["fig1", str(path)]) == EXIT_VALIDATION


def test_cli_bad_seeds_flag(tmp_path, capsys):
    path = write_config(tmp_path, sweep_payload(tmp_path / "out"))
    assert cli_main(["sweep", str(path), "--seeds", "0,x"]) == EXIT_VALIDATION


def test_cli_rejects_jobs_below_one(tmp_path, capsys):
    out = tmp_path / "out"
    path = write_config(tmp_path, sweep_payload(out))
    assert cli_main(["sweep", str(path), "--jobs", "0"]) == EXIT_VALIDATION
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and json.loads(err[0])["error"] == "validation"
    assert not out.exists()


@pytest.mark.parametrize(
    "command, payload",
    [
        ("fig1", {"experiment": "synthetic_fig1", "seeds": [0, 1], "schedule": {"T": 2}}),
        ("run", {"experiment": "single_run", "task": {"kind": "synthetic"}, "schedule": {"T": 2}}),
    ],
)
def test_cli_rejects_jobs_on_experiments_without_rows(tmp_path, capsys, command, payload):
    out = tmp_path / "out"
    path = write_config(tmp_path, dict(payload, out_dir=str(out)))
    assert cli_main([command, str(path), "--jobs", "4"]) == EXIT_VALIDATION
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and json.loads(err[0])["error"] == "validation"
    assert not out.exists()
    assert cli_main([command, str(path)]) == EXIT_OK


@pytest.mark.parametrize(
    "command, payload, flags",
    [
        ("run", {"experiment": "single_run", "seeds": [0, -2]}, []),
        ("run", {"experiment": "single_run", "task": {"kind": "distance", "seed": -1}}, []),
        ("sweep", {"experiment": "lr_sweep", "seeds": [-1]}, []),
        ("sweep", {"experiment": "lr_sweep", "task": {"kind": "map", "seed": -3}}, []),
        ("sweep", {"experiment": "lr_sweep", "seeds": [0]}, ["--seeds=-5"]),
        ("scale", {"experiment": "step_scaling", "seeds": [0]}, ["--seeds", "1,-2"]),
        ("scale", {"experiment": "step_scaling", "task": {"kind": "distance", "seed": -2}}, []),
        ("fig1", {"experiment": "synthetic_fig1", "seeds": [0, -1]}, []),
        ("fig1", {"experiment": "synthetic_fig1", "seeds": [0, 1]}, ["--seeds=-5,3"]),
    ],
)
def test_negative_seeds_exit_with_one_validation_line(tmp_path, capsys, command, payload, flags):
    out = tmp_path / "out"
    path = write_config(tmp_path, dict(payload, out_dir=str(out)))
    assert cli_main([command, str(path)] + flags) == EXIT_VALIDATION
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and json.loads(err[0])["error"] == "validation"
    assert "non-negative" in json.loads(err[0])["message"]
    assert not out.exists()


def test_repeated_cli_seeds_exit_3_before_any_compute(tmp_path, capsys, monkeypatch):
    def no_run(*args):
        raise AssertionError("a repeated seed reached the integrator")

    monkeypatch.setattr(harness, "_run_batches", no_run)
    out = tmp_path / "out"
    path = write_config(tmp_path, {"experiment": "single_run", "out_dir": str(out)})
    assert cli_main(["run", str(path), "--seeds", "1,1"]) == EXIT_VALIDATION
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and json.loads(err[0])["error"] == "validation"
    assert "repeats" in json.loads(err[0])["message"]
    assert not out.exists()


def test_cli_run_and_overrides(tmp_path, capsys):
    payload = sweep_payload(tmp_path / "ignored")
    payload["alphas"] = [0.1]
    payload["methods"] = ["embedopt"]
    path = write_config(tmp_path, payload)
    out = tmp_path / "real_out"
    assert cli_main(["sweep", str(path), "--out", str(out), "--seeds", "0"]) == EXIT_OK
    assert (out / "sweep.csv").exists()
    _, rows = read_rows(out / "sweep.csv")
    assert len(rows) == 1 and rows[0]["seed"] == "0"
    assert not (tmp_path / "ignored").exists()


# ---------------------------------------------------------------------------
# histogram experiment


@pytest.mark.parametrize("panel", FIG1_PANEL_SPECS)
@pytest.mark.parametrize("seed", [0, 7])
def test_fig1_fast_path_matches_engine(panel, seed):
    batched = fig1_panel_samples(panel, fig1_noise([seed]), T=150)
    single = fig1_engine_endpoint(panel, np.random.default_rng(seed), T=150)
    assert batched[0] == single  # bit-identical, not just close


class FixedNormal:
    """Generator stand-in whose standard_normal(n) returns n copies of z."""

    def __init__(self, z: float):
        self.z = z

    def standard_normal(self, n):
        return np.full(n, self.z)


# x_T = 100 z puts the first step's denoiser on y = 20 at any T: at z = 6000.2
# the first embedding gradient is -0.0, at 6000.199999999999 it is about
# 3.6e-15, so the engine skips that update (rms_normalize's threshold is 1e-12)
@pytest.mark.parametrize("z", [6000.2, 6000.199999999999])
@pytest.mark.parametrize("panel", [p for p in FIG1_PANEL_SPECS if p != "unguided"])
def test_fig1_fast_path_matches_engine_at_zero_gradient(panel, z):
    fast = fig1_panel_samples(panel, np.array([z]), T=150)
    assert fast[0] == fig1_engine_endpoint(panel, [FixedNormal(z)], T=150)


def test_fig1_panel_rows_are_independent_of_their_batch():
    # the reused buffers must not leak across rows, also where one row skips
    z = np.concatenate([fig1_noise(range(3)), [6000.2, -3.0]])
    for panel in FIG1_PANEL_SPECS:
        batched = fig1_panel_samples(panel, z)
        alone = [fig1_panel_samples(panel, z[i : i + 1])[0] for i in range(len(z))]
        assert batched.tobytes() == np.array(alone).tobytes()


def test_fig1_panel_samples_takes_only_the_figure_panels():
    # exact-likelihood guidance runs in the engine (run_steered), not here
    for panel in ("dps_exact_w1", "dps_exact_w100", "DPS_W1"):
        with pytest.raises(ValueError, match="unknown panel"):
            fig1_panel_samples(panel, np.zeros(2))


def default_rng_noise(seeds) -> np.ndarray:
    return np.array([np.random.default_rng(int(s)).standard_normal(1)[0] for s in seeds])


FIG1_NOISE_EDGE_SEEDS = [0, 1, 2**31, 2**32 - 1, 2**32, 2**63, 2**64 - 1, 2**64, 2**128 + 5]


def test_fig1_noise_is_default_rng_bit_for_bit():
    # 2**64 and 2**128 + 5 do not fit the vectorised hash and take default_rng
    sample = np.random.default_rng(2024).integers(0, 2**63, 2000)
    for seeds in (FIG1_NOISE_EDGE_SEEDS, [int(s) for s in sample], list(sample), np.arange(5)):
        got = fig1_noise(seeds)
        assert got.dtype == np.float64
        assert got.tobytes() == default_rng_noise(seeds).tobytes()


def test_fig1_noise_edge_cases():
    empty = fig1_noise([])
    assert empty.dtype == np.float64 and empty.shape == (0,)
    with pytest.raises(ValueError):
        fig1_noise([3, -1])


def test_fig1_noise_shim_serves_only_pcg64s_request(monkeypatch):
    real, shims = np.random.PCG64, []

    def spy(seed):
        shims.append(seed)
        return real(seed)

    monkeypatch.setattr(np.random, "PCG64", spy)
    assert fig1_noise([5]).tobytes() == default_rng_noise([5]).tobytes()
    (shim,) = shims
    assert shim.generate_state(4, np.uint64).tobytes() == (
        np.random.SeedSequence(5).generate_state(4, np.uint64).tobytes()
    )
    with pytest.raises(ValueError):
        shim.generate_state(8)
    with pytest.raises(ValueError):
        shim.generate_state(4, dtype=np.uint32)


def test_import_and_synthetic_task_leave_numpy_random_unloaded():
    code = (
        "import sys, steerkit\n"
        "from steerkit.harness import load_config\n"
        "steerkit.build_synthetic_task()\n"
        "print('numpy.random' in sys.modules)\n"
    )
    src = str(Path(harness.__file__).resolve().parents[1])
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": src}, cwd=src,
    )
    assert out.stdout.strip() == "False"


def test_commands_load_only_what_they_run(tmp_path):
    """`import steerkit` loads no submodule, and sweep, scale, run and fig1 load
    neither the verification suite nor a process pool: each command compiles
    only the modules it runs."""
    commands = [
        ("sweep", {"experiment": "lr_sweep", "seeds": [0], "alphas": [0.1], "schedule": {"T": 2}}),
        ("scale", {"experiment": "step_scaling", "seeds": [0], "T_values": [2, 3]}),
        ("run", {"experiment": "single_run", "schedule": {"T": 2}}),
        ("fig1", {"experiment": "synthetic_fig1", "n_seeds": 40}),
    ]
    argv = [
        [command, str(write_config(tmp_path, dict(payload, out_dir=str(tmp_path / command)),
                                   name=f"{command}.json"))]
        for command, payload in commands
    ]
    code = (
        "import json, sys\n"
        "import steerkit\n"
        "print(json.dumps(sorted(m for m in sys.modules if m.startswith('steerkit.'))))\n"
        "from steerkit import cli\n"
        "codes = [cli.main(args) for args in json.loads(sys.argv[1])]\n"
        "print(json.dumps(codes))\n"
        "print(json.dumps([m for m in ('steerkit.verification', 'concurrent.futures',\n"
        "                              'multiprocessing') if m in sys.modules]))\n"
    )
    src = str(Path(harness.__file__).resolve().parents[1])
    out = subprocess.run(
        [sys.executable, "-c", code, json.dumps(argv)], capture_output=True, text=True,
        check=True, env={**os.environ, "PYTHONPATH": src}, cwd=tmp_path,
    )
    lines = out.stdout.splitlines()
    assert json.loads(lines[0]) == []
    assert json.loads(lines[-2]) == [EXIT_OK] * len(commands)
    assert json.loads(lines[-1]) == []
    assert all((tmp_path / command / "manifest.json").exists() for command, _ in commands)


@pytest.mark.parametrize(
    "kind, payload",
    [
        ("synthetic", {"experiment": "synthetic_fig1", "n_seeds": 40}),
        ("distance", {"experiment": "lr_sweep", "task": {"kind": "distance", "seed": 1}}),
        ("map", {"experiment": "lr_sweep", "task": {"kind": "map", "seed": 1}}),
    ],
)
def test_benchmark_setup_probe_builds_each_task_kind(tmp_path, kind, payload):
    """The benchmark's set-up probe (perfbench/launch.py setup), which its
    setup_s rests on, imports steerkit from src/ and builds each task kind
    through the package's lazily resolved build_*_task."""
    root = Path(__file__).resolve().parents[1]
    config = write_config(tmp_path, dict(payload, out_dir=str(tmp_path / "out")))
    run = subprocess.run(
        [sys.executable, str(root / "perfbench" / "launch.py"), "setup", kind, "1", str(config)],
        capture_output=True, text=True, cwd=root,
        env={**os.environ, "PYTHONPATH": str(root / "src")},
    )
    assert run.returncode == 0, run.stderr
    (line,) = run.stdout.splitlines()
    probe = json.loads(line)
    assert isinstance(probe["ready"], float)
    assert Path(probe["module"]).resolve().is_relative_to(root / "src")


def test_artifact_diff_script(tmp_path):
    """Two --quick reproductions agree once run-time keys are dropped; one flipped
    CSV byte, or one changed manifest value, is exit 1 and names what changed."""
    old, new = tmp_path / "old", tmp_path / "new"
    for out_dir in (old, new):
        run = run_script("reproduce_all.py", "--quick", "--jobs", 1, "--out", out_dir)
        assert run.returncode == 0, run.stderr
    same = run_script("artifact_diff.py", old, new)
    assert same.returncode == 0, same.stdout
    assert "SAME: 11 CSVs and 6 manifests agree" in same.stdout
    assert same.stdout.count("listing sha256 ") == 2 and "phases_s.draw_x_T" in same.stdout

    flipped = tmp_path / "flipped"
    shutil.copytree(new, flipped)
    csv = flipped / "sweep_map" / "sweep.csv"
    data = bytearray(csv.read_bytes())
    data[-2] ^= 1  # the last digit of the last cell
    csv.write_bytes(bytes(data))
    diff = run_script("artifact_diff.py", old, flipped)
    assert diff.returncode == 1
    assert [line for line in diff.stdout.splitlines() if "differs" in line] == [
        "CSV differs: sweep_map/sweep.csv"
    ]

    edited = tmp_path / "edited"
    shutil.copytree(new, edited)
    path = edited / "single_synthetic" / "manifest.json"
    manifest = json.loads(path.read_text(encoding="utf-8"))
    manifest["runs"]["0"]["final_reward"] += 1e-9
    path.write_text(json.dumps(manifest), encoding="utf-8")
    diff = run_script("artifact_diff.py", old, edited)
    assert diff.returncode == 1
    assert [line.split(": ")[:3] for line in diff.stdout.splitlines() if "differs" in line] == [
        ["manifest differs", "single_synthetic/manifest.json", "runs.0.final_reward"]
    ]


def test_traffic_lines_script(tmp_path):
    """Given one config, the traffic trace lists the runners that config never
    reaches and ends on the totals; a failing command is exit 1."""
    config = tmp_path / "single.json"
    config.write_text(json.dumps({
        "experiment": "single_run", "out_dir": "unused", "schedule": {"T": 5},
        "steering": {"method": "embedopt", "alpha": 0.1},
    }), encoding="utf-8")
    run = run_script("traffic_lines.py", config)
    assert run.returncode == 0, run.stderr
    lines = run.stdout.splitlines()
    assert "  run_lr_sweep" in lines
    assert re.fullmatch(r"\d+ of \d+ statements never ran: \d+ raise or handle an error, "
                        r"\d+ do not", lines[-1])

    config.write_text(json.dumps({"experiment": "single_run", "out_dir": "x", "bins": 3}),
                      encoding="utf-8")
    run = run_script("traffic_lines.py", config)
    assert run.returncode == 1 and "FAILED (exit 3)" in run.stderr


def test_package_exports():
    """steerkit.__all__ is its submodules' __all__ plus __version__: these 48
    names, each bound in the package."""
    import steerkit

    assert sorted(steerkit.__all__) == sorted({
        "Af3SamplerParams", "AscentAudit", "CheckResult", "DegenerateMapError",
        "DistanceConstraintReward", "Embedding", "GaussianMeasurementReward",
        "GaussianPriorModel", "MapGrid", "MapMSEReward", "MixturePriorModel",
        "MonotonicityReport", "NoiseSchedule", "NonFiniteStateError", "OracleFailureError",
        "SampleSummary", "SteeringConfig", "SteeringResult", "SyntheticTask", "ToyTask",
        "TrajectoryRecord", "__version__", "af3_noise_inflate", "audit_embedding_ascent",
        "build_linear_schedule", "build_synthetic_task", "build_toy_task",
        "check_monotone_surrogate", "conjugate_posterior", "dps_step", "embedopt_step",
        "euler_step", "fd_gradient", "make_gaussian_model", "make_mixture_model",
        "map_correlation", "rel_error", "render_map", "render_map_raw", "rms_normalize",
        "run_steered", "run_verification_suite", "score_from_denoiser",
        "select_top_k_constraints", "step_fraction", "summarize_samples",
        "taylor_gap_scaling", "taylor_predicted_step",
    })
    assert all(hasattr(steerkit, name) for name in steerkit.__all__)
    namespace = {}
    exec("from steerkit import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(steerkit.__all__)
    assert set(steerkit.__all__) <= set(dir(steerkit))


def fig1_engine_endpoint(panel: str, rng, T: int) -> float:
    """Reference endpoint from the generic engine (one trajectory drawing
    x_T from rng, a generator or a one-element list of one)."""
    spec = FIG1_PANEL_SPECS[panel]
    task = build_synthetic_task()
    config = SteeringConfig(method=spec["method"], alpha=spec["alpha"], dps_norm_mode="sigma2w")
    res = run_steered(
        task.model, task.reward(w=spec["w"]), task.c_init, task.schedule(T=T), config, rng
    )
    return float(np.ravel(res.x0)[0])


def test_fig1_artifacts(tmp_path):
    out = tmp_path / "fig1"
    cfg = config_from_dict(
        {"experiment": "synthetic_fig1", "out_dir": str(out), "n_seeds": 80}
    )
    manifest = run_from_config(cfg)
    for panel in FIG1_CSV_PANELS:
        csv_path = out / f"fig1_{panel}.csv"
        assert csv_path.exists()
        header, rows = read_rows(csv_path)
        assert header == ["bin_left", "bin_right", "count"]
        assert sum(int(r["count"]) for r in rows) == 80
    on_disk = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
    assert set(on_disk["panels"]) == set(FIG1_PANEL_SPECS)
    assert on_disk["schedule"]["T"] == 1000
    assert on_disk["panels"]["unguided"]["reference_mean"] == 5.0
    assert manifest["panels"]["dps_w100"]["n_samples"] == 80
    assert_no_tmp_leftovers(out)


_SMALL_RUNS = {
    "synthetic_fig1": {"n_seeds": 50},
    "lr_sweep": {"seeds": [0, 1], "alphas": [0.1], "schedule": {"T": 8}},
    "step_scaling": {"seeds": [0], "T_values": [8, 4]},
    "single_run": {"seeds": [0, 1], "schedule": {"T": 8}},
}


def test_fig1_manifest_phases_are_finite_and_within_wall_time(tmp_path):
    """Every experiment's manifest, written once by run_from_config, holds the
    base keys, and its wall time covers what the run timed inside it: fig1's
    phases_s, or each batch's runtime_s."""
    for experiment, payload in _SMALL_RUNS.items():
        out = tmp_path / experiment
        returned = run_from_config(config_from_dict(
            dict(payload, experiment=experiment, out_dir=str(out))
        ))
        manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
        assert manifest == json.loads(json.dumps(returned))
        assert {"experiment", "config", "git_describe", "created_utc", "wall_time_s",
                "versions"} <= set(manifest)
        assert manifest["experiment"] == manifest["config"]["experiment"] == experiment
        assert set(manifest["versions"]) == {"python", "numpy"}
        if experiment == "synthetic_fig1":
            phases = manifest["phases_s"]
            assert set(phases) == {"draw_x_T", "integrate"}
            assert set(phases["integrate"]) == set(FIG1_PANEL_SPECS)
            times = [phases["draw_x_T"], *phases["integrate"].values()]
        else:
            times = [batch["runtime_s"] for batch in manifest["batch_runtimes_s"]]
        assert times and all(math.isfinite(t) and t >= 0.0 for t in times)
        assert sum(times) <= manifest["wall_time_s"]


def test_verify_manifest_records_phases_and_pool_size(tmp_path, monkeypatch):
    monkeypatch.setattr(
        verification, "run_verification_suite",
        functools.partial(verification.run_verification_suite, quick=True),
    )
    out = tmp_path / "verify"
    assert cli_main(["verify", "--out", str(out)]) == EXIT_OK
    manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
    assert manifest["config"] == {"experiment": "verify", "out_dir": str(out)}
    assert manifest["artifacts"] == ["verify_report.json"] and manifest["all_passed"] is True
    phases = manifest["phases_s"]
    assert "is_mixture_mean" in phases
    assert all(math.isfinite(t) and t >= 0.0 for t in phases.values())
    assert sum(phases.values()) <= manifest["wall_time_s"]
    assert manifest["is_workers"] == verification._is_workers(3)
    report = json.loads((out / "verify_report.json").read_text(encoding="utf-8"))
    assert set(report) == {"all_passed", "checks"}


def test_verify_out_under_a_file_exits_4_before_any_check(tmp_path, capsys, monkeypatch):
    def suite(**kwargs):
        raise AssertionError("the suite ran before the output directory was made")

    monkeypatch.setattr(verification, "run_verification_suite", suite)
    (tmp_path / "file").write_text("", encoding="utf-8")
    assert cli_main(["verify", "--out", str(tmp_path / "file" / "verify")]) == EXIT_IO
    captured = capsys.readouterr()
    err = captured.err.strip().splitlines()
    assert captured.out == "" and len(err) == 1 and json.loads(err[0])["error"] == "io"


def test_git_describe_runs_once_per_process(tmp_path, monkeypatch):
    calls = []

    def fake_run(args, **kwargs):
        calls.append(args)
        return subprocess.CompletedProcess(args, 0, stdout="abc1234\n", stderr="")

    harness._git_describe.cache_clear()
    monkeypatch.setattr(harness.subprocess, "run", fake_run)
    try:
        cfg = config_from_dict({"experiment": "single_run", "out_dir": str(tmp_path)})
        manifests = [harness._base_manifest(cfg.experiment, cfg.to_manifest(), 0.0)
                     for _ in range(2)]
    finally:
        harness._git_describe.cache_clear()
    assert len(calls) == 1
    assert [m["git_describe"] for m in manifests] == ["abc1234", "abc1234"]


def test_fig1_manifest_config_holds_only_keys_it_reads(tmp_path):
    out = tmp_path / "fig1"
    cfg = config_from_dict({"experiment": "synthetic_fig1", "out_dir": str(out), "n_seeds": 20})
    run_from_config(cfg)
    config = json.loads((out / "manifest.json").read_text(encoding="utf-8"))["config"]
    for key in ("task_kind", "alphas", "methods", "T_values", "dps_norm_mode", "reward_w", "jobs"):
        assert key not in config
    assert set(config) == {
        "experiment", "out_dir", "seeds", "bins", "schedule_T", "schedule_sigma_max",
    }
    assert config["seeds"] == list(range(20))


@pytest.mark.parametrize(
    "experiment,fields",
    [
        ("lr_sweep", {"task_kind", "task_seed", "alphas", "methods", "dps_norm_mode", "jobs"}),
        ("step_scaling", {"task_kind", "task_seed", "methods", "T_values", "dps_norm_mode", "jobs"}),
        ("single_run", {"task_kind", "task_seed", "steering", "reward_w"}),
    ],
)
def test_manifest_config_fields_follow_read_keys(experiment, fields):
    config = config_from_dict({"experiment": experiment, "out_dir": "x"}).to_manifest()
    common = {"experiment", "out_dir", "seeds", "schedule_T", "schedule_sigma_max"}
    assert set(config) == common | fields


_NO_SCHEDULE = {"schedule_T": None, "schedule_sigma_max": None}
_SWEEP_MANIFEST = {
    "experiment": "lr_sweep", "seeds": [0, 1, 2], "task_seed": 0,
    "alphas": [0.01, 0.0316, 0.1, 0.316, 1.0], "methods": ["embedopt", "dps"],
    **_NO_SCHEDULE, "dps_norm_mode": "l2_matched", "jobs": 1,
}
_SINGLE_MANIFEST = {
    "experiment": "single_run", "task_seed": 0, **_NO_SCHEDULE,
    "steering": {"method": "embedopt", "alpha": 0.1}, "reward_w": 1.0,
}
SHIPPED_MANIFEST_CONFIGS = {
    "fig1.json": {
        "experiment": "synthetic_fig1", "out_dir": "out/fig1", "seeds": list(range(2000)),
        "bins": 60, **_NO_SCHEDULE,
    },
    "scale_distance.json": {
        "experiment": "step_scaling", "out_dir": "out/scale_distance", "seeds": [0, 1, 2],
        "task_kind": "distance", "task_seed": 0, "methods": ["embedopt"],
        "T_values": [200, 100, 50, 20], **_NO_SCHEDULE, "dps_norm_mode": "l2_matched", "jobs": 1,
    },
    "single_distance.json": dict(
        _SINGLE_MANIFEST, out_dir="out/single_distance", seeds=[0], task_kind="distance"
    ),
    "single_synthetic.json": dict(
        _SINGLE_MANIFEST, out_dir="out/single_synthetic", seeds=[0, 1], task_kind="synthetic"
    ),
    "sweep_distance.json": dict(
        _SWEEP_MANIFEST, out_dir="out/sweep_distance", task_kind="distance"
    ),
    "sweep_map.json": dict(_SWEEP_MANIFEST, out_dir="out/sweep_map", task_kind="map"),
}


@pytest.mark.parametrize("name", sorted(SHIPPED_MANIFEST_CONFIGS))
def test_shipped_config_manifest_blocks_are_pinned(name):
    configs = Path(__file__).resolve().parents[1] / "configs"
    assert sorted(p.name for p in configs.glob("*.json")) == sorted(SHIPPED_MANIFEST_CONFIGS)
    assert load_config(configs / name).to_manifest() == SHIPPED_MANIFEST_CONFIGS[name]


def test_readme_key_table_lists_exactly_the_config_keys():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    table = readme.split("| key | JSON type | allowed values | default | read by |\n")[1]
    table = table.split("\n\n")[0]
    rows = [line.split("|")[1:-1] for line in table.splitlines()[1:]]
    documented = {
        key.strip(" `"): set(re.findall(r"`(\w+)`", read_by)) for key, *_, read_by in rows
    }
    assert documented == {key: set(exps) for key, (exps, _) in harness._KEYS.items()}


def test_fig1_reruns_byte_identical(tmp_path):
    cfg_a = config_from_dict(
        {"experiment": "synthetic_fig1", "out_dir": str(tmp_path / "a"), "n_seeds": 60}
    )
    cfg_b = config_from_dict(
        {"experiment": "synthetic_fig1", "out_dir": str(tmp_path / "b"), "n_seeds": 60}
    )
    run_from_config(cfg_a)
    run_from_config(cfg_b)
    for panel in FIG1_CSV_PANELS:
        name = f"fig1_{panel}.csv"
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


# ---------------------------------------------------------------------------
# learning-rate sweep


def test_sweep_row_count_and_baseline_match(tmp_path):
    out = tmp_path / "sweep"
    cfg = config_from_dict(sweep_payload(out))
    manifest = run_from_config(cfg)
    header, rows = read_rows(out / "sweep.csv")
    assert header == ["method", "alpha", "seed", "final_reward", "task_metric", "violations"]
    # exactly one row per method x alpha x seed, baselines excluded
    assert len(rows) == 2 * 2 * 2
    combos = {(r["method"], r["alpha"], r["seed"]) for r in rows}
    assert len(combos) == 8
    # alpha = 0 rows must reproduce the unguided baselines bit for bit
    baselines = {str(b["seed"]): b for b in manifest["baselines"]}
    for r in rows:
        if float(r["alpha"]) == 0.0:
            b = baselines[r["seed"]]
            assert float(r["task_metric"]) == b["task_metric"]
            assert float(r["final_reward"]) == b["final_reward"]
    # runtimes and NFE counts live in the manifest only: one runtime per
    # batch (one per method plus the baselines), NFE counts per row
    assert "runtime" not in header and "nfe" not in header
    batches = manifest["batch_runtimes_s"]
    assert [(b["method"], b["T"], b["rows"]) for b in batches] == [
        ("embedopt", 40, 4), ("dps", 40, 4), ("unguided", 40, 2),
    ]
    assert all(b["runtime_s"] > 0.0 for b in batches)
    nfe = manifest["row_nfe"]
    assert len(nfe) == 8 + 2
    by_method = {r["method"]: r["nfe"] for r in nfe}
    assert by_method["embedopt"] == {
        "denoise": 80, "vjp_x": 0, "vjp_c": 40, "reward_value_and_grad": 40, "reward_value": 0,
    }
    assert by_method["dps"] == {
        "denoise": 40, "vjp_x": 40, "vjp_c": 0, "reward_value_and_grad": 40, "reward_value": 0,
    }
    assert by_method["unguided"] == {
        "denoise": 40, "vjp_x": 0, "vjp_c": 0, "reward_value_and_grad": 0, "reward_value": 0,
    }
    assert_no_tmp_leftovers(out)


def test_sweep_best_achieved_table(tmp_path):
    out = tmp_path / "sweep"
    cfg = config_from_dict(sweep_payload(out))
    run_from_config(cfg)
    header, rows = read_rows(out / "best_achieved.csv")
    assert header == ["method", "seed", "best_alpha", "best_metric", "baseline_metric"]
    assert len(rows) == 2 * 2  # method x seed
    sweep_rows = read_rows(out / "sweep.csv")[1]
    for r in rows:
        group = [
            s for s in sweep_rows
            if s["method"] == r["method"] and s["seed"] == r["seed"]
        ]
        best = max(float(s["task_metric"]) for s in group)
        assert float(r["best_metric"]) == best
        # smallest alpha wins ties
        tied = [float(s["alpha"]) for s in group if float(s["task_metric"]) == best]
        assert float(r["best_alpha"]) == min(tied)


def test_sweep_parallel_rows_byte_identical(tmp_path):
    payload = sweep_payload(tmp_path / "serial")
    run_from_config(config_from_dict(payload))
    payload_par = dict(payload, out_dir=str(tmp_path / "parallel"), jobs=2)
    run_from_config(config_from_dict(payload_par))
    for name in ("sweep.csv", "best_achieved.csv"):
        assert (tmp_path / "serial" / name).read_bytes() == (
            tmp_path / "parallel" / name
        ).read_bytes()


def test_pool_chunks_are_contiguous_and_cover_the_batch():
    desc = {"method": "dps", "T": 20, "alphas": [0.1, 0.2, 0.3, 0.4, 0.5], "seeds": [7, 1, 2, 3, 4]}
    chunks = _chunks(desc, 2)
    assert [c["seeds"] for c in chunks] == [[7, 1, 2], [3, 4]]
    assert [c["alphas"] for c in chunks] == [[0.1, 0.2, 0.3], [0.4, 0.5]]
    assert all(c["method"] == "dps" and c["T"] == 20 for c in chunks)
    assert [c["seeds"] for c in _chunks(desc, 8)] == [[7], [1], [2], [3], [4]]
    assert _chunks(desc, 1) == [desc]


def test_sweep_map_task_leaves_violations_empty(tmp_path):
    out = tmp_path / "mapsweep"
    payload = {
        "experiment": "lr_sweep",
        "out_dir": str(out),
        "seeds": [0],
        "alphas": [0.1],
        "methods": ["embedopt"],
        "schedule": {"T": 30},
        "task": {"kind": "map", "seed": 0},
    }
    run_from_config(config_from_dict(payload))
    _, rows = read_rows(out / "sweep.csv")
    assert rows[0]["violations"] == ""
    assert -1.0 <= float(rows[0]["task_metric"]) <= 1.0


# ---------------------------------------------------------------------------
# step scaling


def test_scale_alpha_times_t_exact_strings(tmp_path):
    out = tmp_path / "scale"
    payload = {
        "experiment": "step_scaling",
        "out_dir": str(out),
        "seeds": [0],
        "methods": ["embedopt"],
        "T_values": [200, 100, 50, 20],
        "task": {"kind": "distance", "seed": 0},
    }
    manifest = run_from_config(config_from_dict(payload))
    header, rows = read_rows(out / "scale.csv")
    assert header == [
        "method", "T", "alpha", "alpha_times_T", "seed",
        "final_reward", "task_metric", "violations",
    ]
    assert len(rows) == 4
    for r in rows:
        assert r["alpha_times_T"] == "20.0"  # exact, not approximately 20
        assert float(r["alpha"]) * int(r["T"]) == 20.0
    assert manifest["alpha_by_T"]["50"] == pytest.approx(0.4)
    assert_no_tmp_leftovers(out)


# ---------------------------------------------------------------------------
# single runs


def test_single_run_synthetic_trajectory(tmp_path):
    out = tmp_path / "single"
    payload = {
        "experiment": "single_run",
        "out_dir": str(out),
        "seeds": [0],
        "task": {"kind": "synthetic"},
        "schedule": {"T": 50},
        "steering": {"method": "embedopt", "alpha": 0.1},
    }
    manifest = run_from_config(config_from_dict(payload))
    header, rows = read_rows(out / "trajectory_seed0.csv")
    assert header == ["step", "sigma", "F", "grad_norm", "embed_drift"]
    assert len(rows) == 50
    assert all(r["F"] != "" for r in rows)
    steps = [int(r["step"]) for r in rows]
    assert steps == list(range(50, 0, -1))
    run_info = manifest["runs"]["0"]
    assert run_info["embedding_drift"] > 0.0
    assert run_info["nfe"] == {
        "denoise": 100, "vjp_x": 0, "vjp_c": 50, "reward_value_and_grad": 50, "reward_value": 0,
    }
    [batch] = manifest["batch_runtimes_s"]
    assert (batch["method"], batch["T"], batch["rows"]) == ("embedopt", 50, 1)
    assert manifest["steering"]["method"] == "embedopt"
    assert manifest["schedule"]["T"] == 50


def test_single_run_seeds_run_as_one_batch_matching_separate_runs(tmp_path):
    payload = {
        "experiment": "single_run",
        "task": {"kind": "distance", "seed": 2},
        "schedule": {"T": 30},
        "steering": {"method": "dps", "alpha": 0.3, "dps_norm_mode": "l2_matched"},
    }
    together = run_from_config(config_from_dict(
        dict(payload, out_dir=str(tmp_path / "all"), seeds=[5, 1, 3])
    ))
    assert together["batch_runtimes_s"][0]["rows"] == 3
    for seed in (5, 1, 3):
        alone = run_from_config(config_from_dict(
            dict(payload, out_dir=str(tmp_path / f"s{seed}"), seeds=[seed])
        ))
        name = f"trajectory_seed{seed}.csv"
        assert (tmp_path / "all" / name).read_bytes() == (tmp_path / f"s{seed}" / name).read_bytes()
        assert together["runs"][str(seed)] == alone["runs"][str(seed)]


@pytest.mark.parametrize("method", ["embedopt", "dps"])
@pytest.mark.parametrize("kind", ["distance", "map"])
def test_single_run_matches_the_sweep_row_of_its_method_alpha_and_seed(tmp_path, kind, method):
    base = {"task": {"kind": kind, "seed": 0}, "schedule": {"T": 20}}
    steering = {"method": method, "alpha": 0.1}
    if method == "dps":
        steering["dps_norm_mode"] = "l2_matched"  # the sweeps' norm
    single = run_from_config(config_from_dict(dict(
        base, experiment="single_run", out_dir=str(tmp_path / "single"), seeds=[1],
        steering=steering,
    )))
    sweep = run_from_config(config_from_dict(dict(
        base, experiment="lr_sweep", out_dir=str(tmp_path / "sweep"), seeds=[0, 1],
        alphas=[0.1, 1.0], methods=[method],
    )))
    _, rows = read_rows(tmp_path / "sweep" / "sweep.csv")
    [row] = [r for r in rows if (r["alpha"], r["seed"]) == ("0.1", "1")]
    run = single["runs"]["1"]
    assert (repr(run["final_reward"]), repr(run["task_metric"])) == (
        row["final_reward"], row["task_metric"]
    )
    [nfe] = [r["nfe"] for r in sweep["row_nfe"]
             if (r["method"], r["alpha"], r["seed"]) == (method, 0.1, 1)]
    assert run["nfe"] == nfe


@pytest.mark.parametrize(
    "payload",
    [
        {"experiment": "lr_sweep", "dps_norm_mode": "exact_likelihood"},
        {"experiment": "step_scaling", "dps_norm_mode": "exact_likelihood",
         "task": {"kind": "map"}},
        {"experiment": "single_run", "task": {"kind": "distance"},
         "steering": {"method": "dps", "dps_norm_mode": "exact_likelihood"}},
        {"experiment": "single_run", "task": {"kind": "map"},
         "steering": {"method": "dps", "dps_norm_mode": "exact_likelihood"}},
    ],
)
def test_exact_likelihood_rejected_without_closed_form_posterior(tmp_path, capsys, payload):
    out = tmp_path / "out"
    path = write_config(tmp_path, dict(payload, out_dir=str(out)))
    assert cli_main(["run", str(path)]) == EXIT_VALIDATION
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and json.loads(err[0])["error"] == "validation"
    assert "exact_likelihood" in json.loads(err[0])["message"]
    assert not out.exists()  # rejected before any compute or write


def test_exact_likelihood_runs_on_synthetic_task(tmp_path):
    out = tmp_path / "exact"
    payload = {
        "experiment": "single_run",
        "out_dir": str(out),
        "seeds": [0],
        "task": {"kind": "synthetic"},
        "schedule": {"T": 50},
        "steering": {"method": "dps", "dps_norm_mode": "exact_likelihood"},
    }
    manifest = run_from_config(config_from_dict(payload))
    assert manifest["steering"]["dps_norm_mode"] == "exact_likelihood"
    _, rows = read_rows(out / "trajectory_seed0.csv")
    assert len(rows) == 50 and all(np.isfinite(float(r["F"])) for r in rows)


def test_single_run_toy_defaults_to_synthetic_kind():
    cfg = config_from_dict({"experiment": "single_run", "out_dir": "x"})
    assert cfg.task_kind == "synthetic"
    assert cfg.seeds == (0,)


# ---------------------------------------------------------------------------
# the config-to-artifact contract: finite artifacts, or exit 2/3/4 with one
# JSON line on stderr


def _reject_constant(name):
    raise ValueError(f"non-finite JSON constant {name}")


def assert_artifacts_finite(out: Path):
    """Every numeric CSV cell is finite and every manifest is strict JSON."""
    for csv_path in out.glob("*.csv"):
        for line in csv_path.read_text(encoding="utf-8").splitlines()[1:]:
            for cell in line.split(","):
                try:
                    value = float(cell)
                except ValueError:
                    continue  # text or empty cell
                assert math.isfinite(value), f"{csv_path.name}: {cell}"
    for json_path in out.glob("*.json"):
        json.loads(json_path.read_text(encoding="utf-8"), parse_constant=_reject_constant)


@pytest.mark.parametrize("method", ["none", "dps", "embedopt"])
def test_overflowing_reward_exits_3_and_writes_nothing(tmp_path, capsys, method):
    out = tmp_path / "out"
    payload = {
        "experiment": "single_run", "out_dir": str(out), "reward_w": 1e308,
        "schedule": {"T": 5}, "steering": {"method": method, "alpha": 0.1},
    }
    assert cli_main(["run", str(write_config(tmp_path, payload))]) == EXIT_VALIDATION
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and json.loads(err[0])["error"] == "numeric"
    assert not out.exists()


@pytest.mark.parametrize(
    "payload",
    [
        {"experiment": "single_run", "n_seeds": 10**15},
        {"experiment": "single_run", "schedule": {"T": 10**18}},
        {"experiment": "step_scaling", "T_values": [10**18]},
        # past what numpy can size at all: its ValueError is a memory error too
        {"experiment": "single_run", "schedule": {"T": 10**19}},
        {"experiment": "step_scaling", "T_values": [10**19]},
        {"experiment": "single_run", "n_seeds": 10**19},
        {"experiment": "synthetic_fig1", "n_seeds": 40, "bins": 10**19},
        # sized by numpy but not allocatable: rejected with the config, before x_T is drawn
        {"experiment": "synthetic_fig1", "n_seeds": 40, "bins": 10**15},
    ],
    ids=["n_seeds", "schedule.T", "T_values", "schedule.T-10**19", "T_values-10**19",
         "n_seeds-10**19", "bins-10**19", "bins-10**15"],
)
def test_counts_too_large_to_allocate_exit_3_and_write_nothing(
    tmp_path, capsys, monkeypatch, payload
):
    # each count's first array is petabytes or more, so its allocation fails at once
    def no_draw(seeds):
        raise AssertionError("x_T drawn for a config that must be rejected")

    monkeypatch.setattr(harness, "fig1_noise", no_draw)
    out = tmp_path / "out"
    path = write_config(tmp_path, dict(payload, out_dir=str(out)))
    assert cli_main(["run", str(path)]) == EXIT_VALIDATION
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and json.loads(err[0])["error"] == "memory"
    assert not out.exists()


def test_manifest_rejects_non_finite_numbers(tmp_path):
    with pytest.raises(NonFiniteStateError):
        write_manifest(tmp_path, {"final_reward": float("nan")})
    assert not (tmp_path / "manifest.json").exists()


_RUN_KEYS = ("seeds", "bins", "task", "alphas", "methods", "T_values", "schedule",
             "steering", "reward_w", "dps_norm_mode", "jobs")


@st.composite
def experiment_payloads(draw):
    """Cheap configs (T <= 5, at most four seeds, jobs 1), with overflowing
    weights, removed steering keys, negative trajectory and task seeds, repeated
    seeds, alphas and T values, keys the experiment does not read and counts too
    large to allocate (T 10**18 and 10**19, n_seeds 10**15 and 10**19, bins
    10**15 and 10**19) mixed in."""
    experiment = draw(st.sampled_from(["synthetic_fig1", "lr_sweep", "step_scaling", "single_run"]))
    T = draw(st.sampled_from([1, 2, 3, 4, 5, 10**18, 10**19]))
    schedule = {"T": T}
    if draw(st.booleans()):
        schedule["sigma_max"] = draw(st.sampled_from([0.5, 1e150, 1e306, 1e308]))
    toy_task = {"kind": draw(st.sampled_from(["distance", "map"])), "seed": draw(st.integers(-2, 3))}
    seeds = draw(st.sampled_from([[0], [0], [0, -2], [-1], [0, 0]]))
    methods = draw(st.lists(st.sampled_from(["embedopt", "dps"]), min_size=1, max_size=2, unique=True))
    payload = {"experiment": experiment}
    if experiment == "synthetic_fig1":
        payload.update(seeds=list(range(draw(st.integers(2, 4)))) + seeds[1:], schedule=schedule)
        if draw(st.integers(0, 4)) == 0:
            payload["bins"] = draw(st.sampled_from([10**15, 10**19]))
    elif experiment == "lr_sweep":
        payload.update(
            seeds=seeds, task=toy_task, methods=methods, schedule=schedule,
            alphas=draw(st.lists(st.sampled_from([0.0, 0.1, 1.0]), min_size=1, max_size=2)),
        )
    elif experiment == "step_scaling":
        payload.update(
            seeds=seeds, task=toy_task, methods=methods,
            T_values=draw(st.lists(st.sampled_from([2, 3, 4, 5, 10**18, 10**19]),
                                   min_size=1, max_size=2)),
        )
    else:
        steering = {
            "method": draw(st.sampled_from(["none", "dps", "embedopt"])),
            "alpha": draw(st.sampled_from([0.0, 0.1, 5.0])),
        }
        if steering["method"] == "dps":
            steering["dps_norm_mode"] = draw(st.sampled_from(["sigma2w", "l2_matched", "exact_likelihood"]))
        if draw(st.booleans()):
            steering["sampler_mode"] = "af3"
        payload.update(
            seeds=seeds, task=draw(st.sampled_from([{"kind": "synthetic"}, toy_task])),
            schedule=schedule, steering=steering,
        )
    if draw(st.booleans()):
        payload["reward_w"] = draw(
            st.sampled_from([0.0, 1.0, 1e150, 1e300, 1e308])
            | st.floats(min_value=0.0, max_value=1e308)
        )
    if draw(st.booleans()):
        key, value = draw(st.sampled_from([
            ("denominator_mode", "previous"), ("seed", 1), ("single_eval", True),
            ("af3", {"coord_denoise_at": "previous"}),
        ]))
        payload.setdefault("steering", {"method": "embedopt"})[key] = value
    if draw(st.booleans()):
        key = draw(st.sampled_from(_RUN_KEYS))
        payload.setdefault(key, {"bins": 10, "jobs": 1, "reward_w": 2.0}.get(key, [1]))
    if experiment in ("lr_sweep", "step_scaling") and draw(st.booleans()):
        payload["jobs"] = 1
    if draw(st.integers(0, 9)) == 0:
        del payload["seeds"]
        payload["n_seeds"] = draw(st.sampled_from([10**15, 10**19]))
    return payload


@settings(max_examples=150, deadline=None)
@given(
    payload=experiment_payloads(),
    overrides=st.lists(
        st.sampled_from([
            ("--jobs", "0"), ("--jobs", "1"), ("--seeds", ""), ("--seeds", "0,1"),
            ("--seeds", "0,-2"), ("--seeds=-5",), ("--seeds", "1,1"),
        ]),
        max_size=2, unique_by=lambda o: o[0].split("=")[0],
    ),
)
def test_every_config_writes_finite_artifacts_or_exits_with_one_error_line(payload, overrides):
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "out"
        path = write_config(Path(tmp), dict(payload, out_dir=str(out)))
        argv = ["run", str(path)] + [arg for o in overrides for arg in o]
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = cli_main(argv)
        lines = stderr.getvalue().splitlines()
        if code == EXIT_OK:
            assert lines == []
            assert (out / "manifest.json").exists()
        else:
            assert code in (EXIT_PARSE, EXIT_VALIDATION, EXIT_IO)
            assert len(lines) == 1 and "error" in json.loads(lines[0])
        if out.exists():
            assert_artifacts_finite(out)
