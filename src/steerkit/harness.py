"""Config-driven experiment harness: histograms, sweeps, scaling tables.

Reads a JSON config, dispatches on its experiment kind, and writes CSV
artifacts plus a JSON manifest into the output directory. All CSV content is
deterministic: identical configs give byte-identical CSV bodies, floats are
written with repr (shortest round-trip), and anything wall-clock flavored
(timestamps, per-batch runtimes) is confined to the manifest. Files land via
write-to-temp-then-rename so a crashed run never leaves half an artifact.

Every trajectory integrates through run_steered, as a batch: an lr_sweep runs
one batch per method (its alpha x seed grid) plus one for the unguided
baselines, step_scaling one per (method, T), and a single run one over its
seeds. With jobs > 1 a process pool runs contiguous chunks of those batches;
a row does not depend on its batch, so no CSV depends on jobs.

The synthetic histogram experiment keeps its own vectorized fast path,
fig1_panel_samples: every panel is one-dimensional and deterministic, so
all seeds integrate as a single elementwise batch without the engine's
per-step logs (10^7 entries per panel at 10,000 seeds). At 10,000 seeds
the engine took about 1.3 ms per step against 0.06-0.17 ms for the fast
path's loop (2-vCPU Xeon VM), and the benchmark's tracer wraps
fig1_panel_samples by name, so it stays. The ops are ordered exactly as
run_steered orders them, which makes the two paths bit-identical (asserted
in the test suite). Every panel starts a seed from the same x_T, so a run
draws the seeds' noise once (fig1_noise) and hands it to every panel.
Besides the figure's panels, the fast path also integrates exact-likelihood
coordinate guidance (FIG1_EXTRA_PANEL_SPECS), which the acceptance gate
compares with the conjugate posterior; those endpoints are not part of the
figure.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import os
import subprocess
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from datetime import datetime, timezone
from pathlib import Path
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .models import NonFiniteStateError
from .rewards import GaussianMeasurementReward
from .samplers import Af3SamplerParams
from .schedules import build_linear_schedule
from .steering import SteeringConfig, run_steered
from .tasks import (
    SYNTH_PRIOR_LOC,
    SYNTH_PRIOR_STD,
    SYNTH_SIGMA_MAX,
    SYNTH_T,
    SYNTH_TAU2,
    SYNTH_Y,
    TOY_SIGMA_MAX,
    TOY_T,
    build_synthetic_task,
    build_toy_task,
)
from .verification import conjugate_posterior, run_verification_suite, summarize_samples

__all__ = [
    "ConfigParseError",
    "ConfigValidationError",
    "ExperimentConfig",
    "load_config",
    "run_from_config",
    "run_synthetic_fig1",
    "run_lr_sweep",
    "run_step_scaling",
    "run_single_run",
    "run_verify_experiment",
    "fig1_noise",
    "fig1_panel_samples",
    "FIG1_PANEL_SPECS",
    "FIG1_EXTRA_PANEL_SPECS",
    "FIG1_CSV_PANELS",
    "write_csv",
    "atomic_write_text",
    "EXIT_OK",
    "EXIT_PARSE",
    "EXIT_VALIDATION",
    "EXIT_IO",
]

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_VALIDATION = 3
EXIT_IO = 4

DEFAULT_ALPHA_GRID = (0.01, 0.0316, 0.1, 0.316, 1.0)
DEFAULT_T_VALUES = (200, 100, 50, 20)
SCALE_ALPHA_REF = 0.1
SCALE_T_REF = 200

_EXPERIMENTS = ("synthetic_fig1", "lr_sweep", "step_scaling", "single_run", "verify")
_SWEEP_METHODS = ("embedopt", "dps")
_TASK_KINDS = ("synthetic", "distance", "map")
_DPS_NORM_MODES = ("sigma2w", "l2_matched", "exact_likelihood")


class ConfigParseError(Exception):
    """Config file is structurally unusable: bad JSON, missing or mistyped fields."""


class ConfigValidationError(Exception):
    """Config parsed but a value is semantically invalid."""


# ---------------------------------------------------------------------------
# artifact plumbing


def atomic_write_text(path: Path, text: str) -> None:
    """Write UTF-8 text via a same-directory temp file and atomic rename."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(text, encoding="utf-8")
    os.replace(tmp, path)


def _fmt_cell(v) -> str:
    """Deterministic CSV cell: repr for floats (shortest round-trip form)."""
    if v is None:
        return ""
    if isinstance(v, str):
        return v
    if isinstance(v, (bool, np.bool_)):
        return "true" if v else "false"
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    return repr(float(v))


def write_csv(path: Path, header: Sequence[str], rows) -> None:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_fmt_cell(v) for v in row))
    atomic_write_text(path, "\n".join(lines) + "\n")


def _json_default(obj):
    if isinstance(obj, np.floating):
        return float(obj)
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    raise TypeError(f"not JSON serializable: {type(obj)!r}")


def write_manifest(out_dir: Path, manifest: dict) -> None:
    """Write manifest.json as strict JSON; a NaN or inf in it is an error."""
    try:
        text = json.dumps(
            manifest, indent=2, sort_keys=True, default=_json_default, allow_nan=False
        )
    except ValueError as e:
        raise NonFiniteStateError(f"manifest holds a non-finite number: {e}") from e
    atomic_write_text(Path(out_dir) / "manifest.json", text + "\n")


@functools.lru_cache(maxsize=1)
def _git_describe() -> str:
    """`git describe` of the source tree, looked up once per process."""
    try:
        proc = subprocess.run(
            ["git", "describe", "--always", "--dirty"],
            capture_output=True,
            text=True,
            timeout=10,
            cwd=Path(__file__).resolve().parent,
        )
        if proc.returncode == 0:
            return proc.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    return "unknown"


def _base_manifest(cfg: "ExperimentConfig", t0: float) -> dict:
    return {
        "experiment": cfg.experiment,
        "config": cfg.to_manifest(),
        "git_describe": _git_describe(),
        "created_utc": datetime.now(timezone.utc).isoformat(),
        "wall_time_s": time.perf_counter() - t0,
        "versions": {
            "python": sys.version.split()[0],
            "numpy": np.__version__,
        },
    }


# ---------------------------------------------------------------------------
# configuration


@dataclass(frozen=True)
class ExperimentConfig:
    """Resolved experiment settings; one instance drives one artifact set."""

    experiment: str
    out_dir: str
    seeds: tuple
    bins: int = 60
    task_kind: str = "distance"
    task_seed: int = 0
    alphas: tuple = DEFAULT_ALPHA_GRID
    methods: tuple = _SWEEP_METHODS
    T_values: tuple = DEFAULT_T_VALUES
    schedule_T: Optional[int] = None
    schedule_sigma_max: Optional[float] = None
    steering: dict = field(default_factory=dict)
    reward_w: float = 1.0
    dps_norm_mode: str = "l2_matched"
    jobs: int = 1

    def to_manifest(self) -> dict:
        """The fields the experiment reads (see _READ_KEYS), tuples as lists."""
        read = {"experiment", "out_dir"}
        for key in _READ_KEYS[self.experiment]:
            read.update(_KEY_FIELDS[key])
        return {
            name: list(v) if isinstance(v, tuple) else v
            for name, v in dataclasses.asdict(self).items()
            if name in read
        }

    def with_overrides(
        self,
        out_dir: Optional[str] = None,
        seeds: Optional[Sequence[int]] = None,
        jobs: Optional[int] = None,
    ) -> "ExperimentConfig":
        kw = {}
        if out_dir is not None:
            kw["out_dir"] = out_dir
        if seeds is not None:
            kw["seeds"] = _check_seeds(self.experiment, tuple(int(s) for s in seeds))
        if jobs is not None:
            if "jobs" not in _READ_KEYS[self.experiment]:
                raise ConfigValidationError(f"{self.experiment} does not read jobs")
            if int(jobs) < 1:
                raise ConfigValidationError("jobs must be at least 1")
            kw["jobs"] = int(jobs)
        return dataclasses.replace(self, **kw) if kw else self


# the top-level keys each experiment reads besides experiment and out_dir; any
# other key, unknown or just unread by the chosen experiment, is rejected
# rather than ignored
_READ_KEYS = {
    "synthetic_fig1": {"seeds", "n_seeds", "bins", "schedule"},
    "lr_sweep": {
        "seeds", "n_seeds", "task", "alphas", "methods", "schedule",
        "dps_norm_mode", "jobs",
    },
    "step_scaling": {
        "seeds", "n_seeds", "task", "methods", "T_values", "schedule",
        "dps_norm_mode", "jobs",
    },
    "single_run": {"seeds", "n_seeds", "task", "schedule", "steering", "reward_w"},
    "verify": set(),
}
# the ExperimentConfig fields each config key sets
_KEY_FIELDS = {
    "seeds": ("seeds",),
    "n_seeds": ("seeds",),
    "bins": ("bins",),
    "task": ("task_kind", "task_seed"),
    "alphas": ("alphas",),
    "methods": ("methods",),
    "T_values": ("T_values",),
    "schedule": ("schedule_T", "schedule_sigma_max"),
    "steering": ("steering",),
    "reward_w": ("reward_w",),
    "dps_norm_mode": ("dps_norm_mode",),
    "jobs": ("jobs",),
}


def _require(raw: dict, key: str, types) -> object:
    if key not in raw:
        raise ConfigParseError(f"missing required field {key!r}")
    v = raw[key]
    if not isinstance(v, types):
        raise ConfigParseError(f"field {key!r} has the wrong type")
    return v


def _optional(raw: dict, key: str, types, default):
    if key not in raw:
        return default
    v = raw[key]
    if not isinstance(v, types) or isinstance(v, bool) and types is not bool:
        raise ConfigParseError(f"field {key!r} has the wrong type")
    return v


def _int_list(raw, key: str) -> Tuple[int, ...]:
    v = raw[key]
    if not isinstance(v, list) or not all(
        isinstance(s, int) and not isinstance(s, bool) for s in v
    ):
        raise ConfigParseError(f"field {key!r} must be a list of integers")
    return tuple(v)


def _float_list(raw, key: str) -> Tuple[float, ...]:
    v = raw[key]
    if not isinstance(v, list) or not all(
        isinstance(s, (int, float)) and not isinstance(s, bool) for s in v
    ):
        raise ConfigParseError(f"field {key!r} must be a list of numbers")
    return tuple(float(s) for s in v)


def _default_seeds(experiment: str) -> tuple:
    if experiment == "synthetic_fig1":
        return tuple(range(2000))
    if experiment in ("lr_sweep", "step_scaling"):
        return (0, 1, 2)
    return (0,)


def _check_seeds(experiment: str, seeds: tuple) -> tuple:
    if not seeds:
        raise ConfigValidationError("at least one seed is required")
    if experiment == "synthetic_fig1" and len(seeds) < 2:
        raise ConfigValidationError("synthetic_fig1 needs at least two seeds")
    if min(seeds) < 0:
        raise ConfigValidationError("seeds must be non-negative")
    return seeds


def config_from_dict(raw: dict) -> ExperimentConfig:
    """Build and validate an ExperimentConfig from parsed JSON.

    Structural problems (missing fields, wrong types, unparseable JSON
    upstream) raise ConfigParseError; semantic ones (bad values) raise
    ConfigValidationError. The CLI maps these to distinct exit codes.
    """
    if not isinstance(raw, dict):
        raise ConfigParseError("config root must be a JSON object")
    experiment = _require(raw, "experiment", str)
    out_dir = _require(raw, "out_dir", str)

    if experiment not in _EXPERIMENTS:
        raise ConfigValidationError(
            f"unknown experiment {experiment!r}; expected one of {_EXPERIMENTS}"
        )
    unread = set(raw) - _READ_KEYS[experiment] - {"experiment", "out_dir"}
    if unread:
        raise ConfigValidationError(f"{experiment} does not read keys {sorted(unread)}")

    if "seeds" in raw and "n_seeds" in raw:
        raise ConfigValidationError("give either seeds or n_seeds, not both")
    if "seeds" in raw:
        seeds = _int_list(raw, "seeds")
    elif "n_seeds" in raw:
        n = _optional(raw, "n_seeds", int, None)
        if n is None or n < 1:
            raise ConfigValidationError("n_seeds must be a positive integer")
        seeds = tuple(range(n))
    else:
        seeds = _default_seeds(experiment)
    _check_seeds(experiment, seeds)

    bins = _optional(raw, "bins", int, 60)
    if bins < 1:
        raise ConfigValidationError("bins must be positive")

    task = _optional(raw, "task", dict, {})
    task_kind = _optional(task, "kind", str, "synthetic" if experiment == "single_run" else "distance")
    task_seed = _optional(task, "seed", int, 0)
    if task_seed < 0:
        raise ConfigValidationError("task seed must be non-negative")
    if set(task) - {"kind", "seed"}:
        raise ConfigValidationError(f"unknown task keys: {sorted(set(task) - {'kind', 'seed'})}")
    if task_kind not in _TASK_KINDS:
        raise ConfigValidationError(f"unknown task kind {task_kind!r}")
    if experiment in ("lr_sweep", "step_scaling") and task_kind == "synthetic":
        raise ConfigValidationError(f"{experiment} needs a toy task (distance or map)")
    if experiment == "single_run" and task_kind != "synthetic" and "reward_w" in raw:
        raise ConfigValidationError(f"the {task_kind} task does not read reward_w")

    alphas = _float_list(raw, "alphas") if "alphas" in raw else DEFAULT_ALPHA_GRID
    if experiment == "lr_sweep":
        if len(alphas) == 0:
            raise ConfigValidationError("alphas must be a non-empty list")
        if any(a < 0 for a in alphas):
            raise ConfigValidationError("alphas must be non-negative")

    if "methods" in raw:
        methods = raw["methods"]
        if not isinstance(methods, list) or not all(isinstance(m, str) for m in methods):
            raise ConfigParseError("field 'methods' must be a list of strings")
        methods = tuple(methods)
    else:
        methods = _SWEEP_METHODS if experiment == "lr_sweep" else ("embedopt",)
    if experiment in ("lr_sweep", "step_scaling"):
        if not methods:
            raise ConfigValidationError("methods must be non-empty")
        bad = [m for m in methods if m not in _SWEEP_METHODS]
        if bad:
            raise ConfigValidationError(f"unknown methods {bad}; expected subset of {_SWEEP_METHODS}")

    T_values = _int_list(raw, "T_values") if "T_values" in raw else DEFAULT_T_VALUES
    if experiment == "step_scaling":
        if not T_values:
            raise ConfigValidationError("T_values must be non-empty")
        if any(T < 2 for T in T_values):
            raise ConfigValidationError("every T must be at least 2")

    schedule = _optional(raw, "schedule", dict, {})
    if set(schedule) - {"T", "sigma_max"}:
        raise ConfigValidationError(
            f"unknown schedule keys: {sorted(set(schedule) - {'T', 'sigma_max'})}"
        )
    if experiment == "step_scaling" and "T" in schedule:
        raise ConfigValidationError("step_scaling takes its step counts from T_values")
    schedule_T = _optional(schedule, "T", int, None)
    if schedule_T is not None and schedule_T < 1:
        raise ConfigValidationError("schedule T must be positive")
    schedule_sigma_max = _optional(schedule, "sigma_max", (int, float), None)
    if schedule_sigma_max is not None:
        schedule_sigma_max = float(schedule_sigma_max)
        if schedule_sigma_max <= 0:
            raise ConfigValidationError("schedule sigma_max must be positive")

    steering = _optional(raw, "steering", dict, {})
    reward_w = float(_optional(raw, "reward_w", (int, float), 1.0))
    if reward_w < 0:
        raise ConfigValidationError("reward_w must be non-negative")
    dps_norm_mode = _optional(raw, "dps_norm_mode", str, "l2_matched")
    if dps_norm_mode not in _DPS_NORM_MODES:
        raise ConfigValidationError(f"unknown dps_norm_mode {dps_norm_mode!r}")
    # exact_likelihood needs a closed-form posterior variance, which only the
    # synthetic task (Gaussian prior, Gaussian measurement reward) has; the
    # toy tasks pair a mixture prior with a distance or map reward
    if task_kind != "synthetic" and "exact_likelihood" in (
        dps_norm_mode, steering.get("dps_norm_mode")
    ):
        raise ConfigValidationError(
            f"dps_norm_mode 'exact_likelihood' needs the synthetic task, not {task_kind!r}"
        )
    jobs = _optional(raw, "jobs", int, 1)
    if jobs < 1:
        raise ConfigValidationError("jobs must be at least 1")

    cfg = ExperimentConfig(
        experiment=experiment,
        out_dir=out_dir,
        seeds=seeds,
        bins=bins,
        task_kind=task_kind,
        task_seed=task_seed,
        alphas=alphas,
        methods=methods,
        T_values=T_values,
        schedule_T=schedule_T,
        schedule_sigma_max=schedule_sigma_max,
        steering=dict(steering),
        reward_w=reward_w,
        dps_norm_mode=dps_norm_mode,
        jobs=jobs,
    )
    # steering settings must construct cleanly; surface bad values now, before
    # any compute or writes
    if experiment == "single_run":
        try:
            _steering_config(cfg)
        except (TypeError, ValueError) as e:
            raise ConfigValidationError(f"invalid steering settings: {e}") from e
    return cfg


def load_config(path) -> ExperimentConfig:
    """Read and validate a JSON config file."""
    text = Path(path).read_text(encoding="utf-8")
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as e:
        raise ConfigParseError(f"invalid JSON: {e}") from e
    return config_from_dict(raw)


def _steering_config(cfg: ExperimentConfig) -> SteeringConfig:
    kw = dict(cfg.steering)
    af3 = kw.pop("af3", None)
    if af3 is not None:
        kw["af3"] = Af3SamplerParams(**af3)
    return SteeringConfig(**kw)


# ---------------------------------------------------------------------------
# synthetic histogram experiment (vectorized fast path)

_CONJ_W1 = conjugate_posterior(SYNTH_PRIOR_LOC, SYNTH_PRIOR_STD**2, SYNTH_Y, SYNTH_TAU2, 1.0)
_CONJ_W100 = conjugate_posterior(SYNTH_PRIOR_LOC, SYNTH_PRIOR_STD**2, SYNTH_Y, SYNTH_TAU2, 100.0)

FIG1_PANEL_SPECS = {
    "unguided": {"method": "none", "w": 1.0, "alpha": 0.0},
    "dps_w1": {"method": "dps", "w": 1.0, "alpha": 0.0, "norm": "sigma2w"},
    "dps_w100": {"method": "dps", "w": 100.0, "alpha": 0.0, "norm": "sigma2w"},
    "embedopt_a0.1": {"method": "embedopt", "w": 1.0, "alpha": 0.1},
    "embedopt_a0.05": {"method": "embedopt", "w": 1.0, "alpha": 0.05},
    "embedopt_a0.5": {"method": "embedopt", "w": 1.0, "alpha": 0.5},
    "embedopt_a5": {"method": "embedopt", "w": 1.0, "alpha": 5.0},
}
FIG1_CSV_PANELS = ("unguided", "dps_w1", "dps_w100", "embedopt_a0.1")
# endpoints the fast path integrates but the figure does not draw
FIG1_EXTRA_PANEL_SPECS = {
    "dps_exact_w1": {"method": "dps", "w": 1.0, "alpha": 0.0, "norm": "exact_likelihood"},
    "dps_exact_w100": {"method": "dps", "w": 100.0, "alpha": 0.0, "norm": "exact_likelihood"},
}
_PANEL_SPECS = {**FIG1_PANEL_SPECS, **FIG1_EXTRA_PANEL_SPECS}

FIG1_REFERENCES = {
    "unguided": (SYNTH_PRIOR_LOC, SYNTH_PRIOR_STD),
    "dps_w1": (_CONJ_W1[0], float(np.sqrt(_CONJ_W1[1]))),
    "dps_w100": (_CONJ_W100[0], float(np.sqrt(_CONJ_W100[1]))),
    "embedopt_a0.1": (SYNTH_Y, None),
    "embedopt_a0.05": (SYNTH_Y, None),
    "embedopt_a0.5": (SYNTH_Y, None),
    "embedopt_a5": (SYNTH_Y, None),
}


def fig1_noise(seeds: Sequence[int]) -> np.ndarray:
    """Each seed's standard-normal x_T draw, from default_rng(seed) as the
    engine draws it. One array serves every panel of a run."""
    return np.array([np.random.default_rng(int(s)).standard_normal(1)[0] for s in seeds])


def fig1_panel_samples(
    panel: str,
    z: np.ndarray,
    T: int = SYNTH_T,
    sigma_max: float = SYNTH_SIGMA_MAX,
) -> np.ndarray:
    """Endpoint samples for one panel, all seeds as one batch.

    The panel is a figure panel or an extra endpoint (FIG1_EXTRA_PANEL_SPECS).
    `z` holds one standard-normal draw per seed (fig1_noise); trajectory i
    starts at x_T = sigma_max * z[i]. Bit-identical to running the generic
    per-trajectory engine seed by seed: the task is one-dimensional, so every
    update is elementwise and the batch applies the engine's operations in
    the engine's order.
    """
    if panel not in _PANEL_SPECS:
        raise ValueError(f"unknown panel {panel!r}")
    spec = _PANEL_SPECS[panel]
    method, w, alpha = spec["method"], spec["w"], spec["alpha"]
    sig = build_linear_schedule(T, sigma_max).sigma_values
    s0, y, tau2 = SYNTH_PRIOR_STD, SYNTH_Y, SYNTH_TAU2

    x = sig[-1] * z
    c = np.full(len(x), SYNTH_PRIOR_LOC)
    for t in range(T, 0, -1):
        st, sp = float(sig[t]), float(sig[t - 1])
        k = s0**2 / (s0**2 + st**2)
        eta = (st - sp) / st
        if method == "none":
            xh = c + k * (x - c)
            x = x + eta * (xh - x)
        elif method == "dps":
            xh = c + k * (x - c)
            grad = -(w / tau2) * (xh - y)
            if spec["norm"] == "sigma2w":
                guidance = st**2 * (k * grad)
            else:
                # exact likelihood N(y; xh, tau2/w + k st^2), as in dps_step
                guidance = st**2 * tau2 / (tau2 + w * (k * st**2)) * (k * grad)
            x = x + eta * (xh - x + guidance)
        else:
            xh = c + k * (x - c)
            g = (1.0 - k) * (-(w / tau2) * (xh - y))
            rms = np.sqrt(g**2)
            small = rms < 1e-12
            direction = np.where(small, 0.0, g / np.where(small, 1.0, rms))
            c = c + alpha * direction
            xh2 = c + k * (x - c)
            x = x + eta * (xh2 - x)
    return x


def run_synthetic_fig1(cfg: ExperimentConfig) -> dict:
    """Emit the four histogram CSVs plus a manifest with oracle comparisons.

    The seeds' x_T noise is drawn once and shared by every panel. The manifest
    records the wall time of that draw and of each panel's integration under
    `phases_s`.
    """
    if cfg.experiment != "synthetic_fig1":
        raise ConfigValidationError("config experiment kind is not synthetic_fig1")
    t0 = time.perf_counter()
    out = Path(cfg.out_dir)
    T = cfg.schedule_T if cfg.schedule_T is not None else SYNTH_T
    sigma_max = cfg.schedule_sigma_max if cfg.schedule_sigma_max is not None else SYNTH_SIGMA_MAX

    t_draw = time.perf_counter()
    z = fig1_noise(cfg.seeds)
    phases = {"draw_x_T": time.perf_counter() - t_draw, "integrate": {}}
    panels = {}
    for panel in FIG1_PANEL_SPECS:
        t_panel = time.perf_counter()
        samples = fig1_panel_samples(panel, z, T=T, sigma_max=sigma_max)
        phases["integrate"][panel] = time.perf_counter() - t_panel
        if not np.isfinite(samples).all():
            raise NonFiniteStateError(f"panel {panel!r} has non-finite endpoints")
        summary = summarize_samples(samples, bins=cfg.bins)
        ref_mean, ref_std = FIG1_REFERENCES[panel]
        entry = {
            "mean": float(summary.mean[0]),
            "std": float(summary.std[0]),
            "reference_mean": ref_mean,
            "reference_std": ref_std,
            "n_samples": len(cfg.seeds),
        }
        if panel in FIG1_CSV_PANELS:
            name = f"fig1_{panel}.csv"
            rows = zip(summary.bin_edges[:-1], summary.bin_edges[1:], summary.counts)
            write_csv(out / name, ("bin_left", "bin_right", "count"), rows)
            entry["csv"] = name
        panels[panel] = entry

    manifest = _base_manifest(cfg, t0)
    manifest["schedule"] = build_linear_schedule(T, sigma_max).to_manifest()
    manifest["panels"] = panels
    manifest["phases_s"] = phases
    write_manifest(out, manifest)
    return manifest


# ---------------------------------------------------------------------------
# toy-task tables (sweep and step scaling)


def _toy_batch(desc: dict) -> dict:
    """Run one batch of toy-task rows: one method and T, one (alpha, seed)
    pair per row. Returns the rows in order and the batch's telemetry.

    Module-level and dict-driven so a process pool can pickle it. Each batch
    rebuilds its task from the task seed, which keeps workers stateless and
    costs little next to the trajectory integration.
    """
    task = build_toy_task(desc["task_kind"], desc["task_seed"])
    schedule = task.schedule(T=desc["T"], sigma_max=desc["sigma_max"])
    method = desc["method"]
    if method == "unguided":
        config = SteeringConfig(method="none")
        reward = None
    elif method == "dps":
        config = SteeringConfig(method="dps", dps_norm_mode=desc["dps_norm_mode"])
        reward = task.reward
    elif method == "embedopt":
        config = SteeringConfig(method="embedopt")
        reward = task.reward
    else:
        raise ValueError(f"unknown method {method!r}")
    t0 = time.perf_counter()
    res = run_steered(
        task.model, reward, task.c_init, schedule, config,
        [np.random.default_rng(seed) for seed in desc["seeds"]], alphas=desc["alphas"],
    )
    runtime = time.perf_counter() - t0
    rows = []
    for x0, rec, alpha, seed in zip(res.x0, res.records, desc["alphas"], desc["seeds"]):
        if task.kind == "distance":
            violations = task.reward.K - task.reward.count_satisfied(x0)
        else:
            violations = None
        rows.append({
            "method": method,
            "alpha": alpha,
            "T": desc["T"],
            "seed": seed,
            "final_reward": task.reward.value(x0),
            "task_metric": task.metric(x0),
            "violations": violations,
            "nfe": rec.nfe,
        })
    batch = {"method": method, "T": desc["T"], "rows": len(rows), "runtime_s": runtime}
    return {"rows": rows, "batch": batch}


def _pool_size(jobs: int, rows: int, cpus: int) -> int:
    """Worker count for a row pool: at most one per row and one per CPU.

    The pool starts all its workers at the first submit, so an uncapped
    jobs value would start that many processes.
    """
    return max(1, min(jobs, rows, cpus))


def _chunks(desc: dict, n: int) -> List[dict]:
    """A batch descriptor cut into at most n contiguous, near-equal chunks."""
    size = -(-len(desc["seeds"]) // n)
    return [
        dict(desc, alphas=desc["alphas"][i : i + size], seeds=desc["seeds"][i : i + size])
        for i in range(0, len(desc["seeds"]), size)
    ]


def _run_batches(descs: List[dict], jobs: int):
    """Evaluate batches, on a process pool as contiguous chunks when jobs > 1.

    Returns (rows, per-batch telemetry). Rows come back in descriptor order,
    and each row is bit-identical whatever batch it runs in, so parallelism
    cannot change any artifact.
    """
    workers = _pool_size(jobs, sum(len(d["seeds"]) for d in descs), os.cpu_count() or 1)
    if workers == 1:
        done = [_toy_batch(d) for d in descs]
    else:
        chunks = [chunk for d in descs for chunk in _chunks(d, workers)]
        with ProcessPoolExecutor(max_workers=workers) as pool:
            done = list(pool.map(_toy_batch, chunks))
    return [r for out in done for r in out["rows"]], [out["batch"] for out in done]


def _row_nfe(rows: List[dict], keys: Sequence[str]) -> List[dict]:
    return [dict({k: r[k] for k in keys}, nfe=r["nfe"]) for r in rows]


def _toy_schedule_params(cfg: ExperimentConfig) -> Tuple[int, float]:
    T = cfg.schedule_T if cfg.schedule_T is not None else TOY_T
    sigma_max = cfg.schedule_sigma_max if cfg.schedule_sigma_max is not None else TOY_SIGMA_MAX
    return T, sigma_max


def run_lr_sweep(cfg: ExperimentConfig) -> dict:
    """Learning-rate sweep table plus the best-achieved companion summary.

    sweep.csv has exactly one row per method x alpha x seed. Unguided
    baselines (needed for the best-achieved comparison) are run per seed and
    reported in best_achieved.csv and the manifest, not as sweep rows.
    Per-batch runtimes are wall-clock and live in the manifest so the CSV
    bodies stay byte-identical across reruns.
    """
    if cfg.experiment != "lr_sweep":
        raise ConfigValidationError("config experiment kind is not lr_sweep")
    t0 = time.perf_counter()
    out = Path(cfg.out_dir)
    T, sigma_max = _toy_schedule_params(cfg)
    alphas = tuple(sorted(cfg.alphas))
    seeds = tuple(sorted(cfg.seeds))

    base = {
        "task_kind": cfg.task_kind,
        "task_seed": cfg.task_seed,
        "T": T,
        "sigma_max": sigma_max,
        "dps_norm_mode": cfg.dps_norm_mode,
    }
    grid = [(alpha, seed) for alpha in alphas for seed in seeds]
    descs = [
        dict(base, method=method, alphas=[a for a, _ in grid], seeds=[s for _, s in grid])
        for method in cfg.methods
    ]
    descs.append(dict(base, method="unguided", alphas=[0.0] * len(seeds), seeds=list(seeds)))
    rows, batches = _run_batches(descs, cfg.jobs)
    rows, baselines = rows[: -len(seeds)], rows[-len(seeds) :]

    write_csv(
        out / "sweep.csv",
        ("method", "alpha", "seed", "final_reward", "task_metric", "violations"),
        (
            (r["method"], r["alpha"], r["seed"], r["final_reward"],
             r["task_metric"], r["violations"])
            for r in rows
        ),
    )

    baseline_by_seed = {r["seed"]: r for r in baselines}
    best_rows = []
    for method in cfg.methods:
        for seed in seeds:
            candidates = [r for r in rows if r["method"] == method and r["seed"] == seed]
            best = max(candidates, key=lambda r: (r["task_metric"], -r["alpha"]))
            best_rows.append((
                method, seed, best["alpha"], best["task_metric"],
                baseline_by_seed[seed]["task_metric"],
            ))
    write_csv(
        out / "best_achieved.csv",
        ("method", "seed", "best_alpha", "best_metric", "baseline_metric"),
        best_rows,
    )

    manifest = _base_manifest(cfg, t0)
    manifest["schedule"] = build_linear_schedule(T, sigma_max).to_manifest()
    manifest["artifacts"] = ["sweep.csv", "best_achieved.csv"]
    manifest["batch_runtimes_s"] = batches
    manifest["row_nfe"] = _row_nfe(rows + baselines, ("method", "alpha", "seed"))
    manifest["baselines"] = [
        {"seed": r["seed"], "task_metric": r["task_metric"], "final_reward": r["final_reward"]}
        for r in baselines
    ]
    write_manifest(out, manifest)
    return manifest


def run_step_scaling(cfg: ExperimentConfig) -> dict:
    """Step-count scaling table with alpha set by the alpha*T constancy rule.

    The constant is fixed from alpha=0.1 at T=200, so alpha(T) = 20/T; each
    row echoes both the resolved alpha and the alpha*T product. The declared
    margin between the T=50 and T=200 task metrics is measured from this
    run's own T=200 reference and recorded in the manifest (post hoc, as a
    report rather than a prespecified bound).
    """
    if cfg.experiment != "step_scaling":
        raise ConfigValidationError("config experiment kind is not step_scaling")
    t0 = time.perf_counter()
    out = Path(cfg.out_dir)
    _, sigma_max = _toy_schedule_params(cfg)
    const = SCALE_ALPHA_REF * SCALE_T_REF
    seeds = tuple(sorted(cfg.seeds))
    T_values = tuple(sorted(cfg.T_values, reverse=True))

    base = {
        "task_kind": cfg.task_kind,
        "task_seed": cfg.task_seed,
        "sigma_max": sigma_max,
        "dps_norm_mode": cfg.dps_norm_mode,
    }
    descs = [
        dict(base, method=method, T=T, alphas=[const / T] * len(seeds), seeds=list(seeds))
        for method in cfg.methods
        for T in T_values
    ]
    rows, batches = _run_batches(descs, cfg.jobs)

    write_csv(
        out / "scale.csv",
        ("method", "T", "alpha", "alpha_times_T", "seed",
         "final_reward", "task_metric", "violations"),
        (
            (r["method"], r["T"], r["alpha"], r["alpha"] * r["T"], r["seed"],
             r["final_reward"], r["task_metric"], r["violations"])
            for r in rows
        ),
    )

    manifest = _base_manifest(cfg, t0)
    manifest["alpha_times_T"] = const
    manifest["alpha_by_T"] = {str(T): const / T for T in T_values}
    manifest["artifacts"] = ["scale.csv"]
    manifest["batch_runtimes_s"] = batches
    manifest["row_nfe"] = _row_nfe(rows, ("method", "T", "seed"))
    if "embedopt" in cfg.methods and 200 in T_values and 50 in T_values:
        m200 = {r["seed"]: r["task_metric"] for r in rows if r["method"] == "embedopt" and r["T"] == 200}
        m50 = {r["seed"]: r["task_metric"] for r in rows if r["method"] == "embedopt" and r["T"] == 50}
        diffs = [abs(m50[s] - m200[s]) for s in seeds]
        margin = float(np.ceil(max(diffs) * 10.0) / 10.0)
        manifest["t50_vs_t200"] = {
            "per_seed_abs_diff": diffs,
            "declared_margin_post_hoc": margin,
            "within_margin": bool(max(diffs) <= margin),
        }
    write_manifest(out, manifest)
    return manifest


# ---------------------------------------------------------------------------
# single runs and verification


def run_single_run(cfg: ExperimentConfig) -> dict:
    """One steered trajectory per seed, all seeds as one batch; emits
    per-step trajectory CSVs."""
    if cfg.experiment != "single_run":
        raise ConfigValidationError("config experiment kind is not single_run")
    t0 = time.perf_counter()
    out = Path(cfg.out_dir)

    if cfg.task_kind == "synthetic":
        task = build_synthetic_task()
        reward = GaussianMeasurementReward(y=[SYNTH_Y], tau2=SYNTH_TAU2, w=cfg.reward_w)
        T = cfg.schedule_T if cfg.schedule_T is not None else SYNTH_T
        sigma_max = cfg.schedule_sigma_max if cfg.schedule_sigma_max is not None else SYNTH_SIGMA_MAX
        metric = None
    else:
        task = build_toy_task(cfg.task_kind, cfg.task_seed)
        reward = task.reward
        T, sigma_max = _toy_schedule_params(cfg)
        metric = task.metric
    schedule = build_linear_schedule(T, sigma_max)
    config = _steering_config(cfg)

    seeds = [int(seed) for seed in cfg.seeds]
    t_run = time.perf_counter()
    res = run_steered(
        task.model, reward, task.c_init, schedule, config,
        [np.random.default_rng(seed) for seed in seeds],
    )
    runtime = time.perf_counter() - t_run
    runs = {}
    for b, seed in enumerate(seeds):
        row = res.row(b)
        name = f"trajectory_seed{seed}.csv"
        write_csv(
            out / name,
            ("step", "sigma", "F", "grad_norm", "embed_drift"),
            row.record.csv_rows(),
        )
        runs[str(seed)] = {
            "csv": name,
            "final_reward": float(reward.value(row.x0)),
            "task_metric": None if metric is None else metric(row.x0),
            "skip_counts": dict(row.record.skip_counts),
            "embedding_drift": float(row.c_final.add(task.c_init, -1.0).norm()),
            "nfe": row.record.nfe,
        }

    manifest = _base_manifest(cfg, t0)
    manifest["schedule"] = schedule.to_manifest()
    manifest["steering"] = config.to_manifest()
    manifest["runs"] = runs
    manifest["batch_runtimes_s"] = [
        {"method": config.method, "T": T, "rows": len(seeds), "runtime_s": runtime}
    ]
    write_manifest(out, manifest)
    return manifest


def run_verify_experiment(cfg: ExperimentConfig) -> dict:
    """Run the verification suite and write its report as JSON.

    The manifest records the wall seconds of each check group (`phases_s`)
    and the size of the importance-sampling pool (`is_workers`); the report
    holds only the checks.
    """
    if cfg.experiment != "verify":
        raise ConfigValidationError("config experiment kind is not verify")
    t0 = time.perf_counter()
    out = Path(cfg.out_dir)
    telemetry = {}
    results = run_verification_suite(telemetry=telemetry)
    report = {
        "all_passed": all(r.passed for r in results),
        "checks": [
            {"name": r.name, "passed": r.passed, "detail": r.detail} for r in results
        ],
    }
    atomic_write_text(
        out / "verify_report.json",
        json.dumps(report, indent=2, sort_keys=True) + "\n",
    )
    manifest = _base_manifest(cfg, t0)
    manifest["artifacts"] = ["verify_report.json"]
    manifest["all_passed"] = report["all_passed"]
    manifest.update(telemetry)
    write_manifest(out, manifest)
    return manifest


_DISPATCH = {
    "synthetic_fig1": run_synthetic_fig1,
    "lr_sweep": run_lr_sweep,
    "step_scaling": run_step_scaling,
    "single_run": run_single_run,
    "verify": run_verify_experiment,
}


def run_from_config(cfg: ExperimentConfig) -> dict:
    """Dispatch a validated config to its experiment runner."""
    return _DISPATCH[cfg.experiment](cfg)
