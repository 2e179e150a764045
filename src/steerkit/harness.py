"""Config-driven experiment harness: histograms, sweeps, scaling tables.

Reads a JSON config, dispatches on its experiment kind, and writes CSV
artifacts plus a JSON manifest into the output directory. All CSV content is
deterministic: identical configs give byte-identical CSV bodies, and anything
wall-clock flavored (timestamps, per-batch runtimes) is confined to the
manifest. write_csv takes a CSV's columns and alone decides the cell format:
repr for floats (shortest round-trip), str for integers, a column at a time.
Every artifact streams, chunk by chunk, to a same-directory temp file that is
renamed into place on success and removed on any error (atomic_write), so no
run leaves half an artifact: a CSV is joined a row at a time from its
formatted columns, and a manifest is written as the JSON encoder yields it.

Every trajectory experiment is a list of batch descriptors (a task, a
SteeringConfig, one (alpha, seed) pair per row) that _run_batches hands to
_batch, the one caller of run_steered: an lr_sweep has one per method (its
alpha x seed grid) plus one for the unguided baselines, step_scaling one per
(method, T), and a single run one over its seeds. With jobs > 1 a process
pool runs contiguous chunks of them; a row does not depend on its batch, so
no CSV depends on jobs. The pool is imported only by the runs that use it and
the verification suite never (the `verify` command runs it), so a command
compiles only the modules it runs.

The synthetic histogram experiment keeps its own vectorized fast path,
fig1_panel_samples: every panel is one-dimensional and deterministic, so all
seeds integrate as one elementwise batch in run_steered's order of ops,
bit-identical to it (asserted in the test suite) and without its per-step
logs: at 10,000 seeds a step took 0.014-0.04 ms there against about 1.3 ms in
the engine (2-vCPU Xeon VM). Every panel starts a seed from the same x_T,
drawn once per run by fig1_noise, which hashes all seeds' SeedSequences in one
vectorized pass.
"""

from __future__ import annotations

import dataclasses
import functools
import itertools
import json
import math
import os
import subprocess
import sys
import time
from dataclasses import dataclass
from datetime import datetime, timezone
from pathlib import Path
from typing import Iterable, Iterator, List, Optional, Sequence

import numpy as np

from .models import NonFiniteStateError
from .samplers import Af3SamplerParams
from .schedules import _pool_size, _require_allocatable
from .steering import _DPS_NORMS, SKIP_THRESHOLD, SteeringConfig, run_steered
from .tasks import (
    SYNTH_PRIOR_LOC,
    SYNTH_PRIOR_STD,
    SYNTH_TAU2,
    SYNTH_Y,
    SyntheticTask,
    ToyTask,
    build_synthetic_task,
    build_toy_task,
    conjugate_posterior,
    summarize_samples,
)

__all__ = [
    "ConfigParseError",
    "ConfigValidationError",
    "ExperimentConfig",
    "load_config",
    "run_from_config",
    "fig1_noise",
    "fig1_panel_samples",
    "FIG1_PANEL_SPECS",
    "FIG1_CSV_PANELS",
    "write_csv",
    "atomic_write",
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

_EXPERIMENTS = ("synthetic_fig1", "lr_sweep", "step_scaling", "single_run")
_SWEEP_METHODS = ("embedopt", "dps")
_TASK_KINDS = ("synthetic", "distance", "map")


class ConfigParseError(Exception):
    """Config file is structurally unusable: bad JSON, missing or mistyped fields."""


class ConfigValidationError(Exception):
    """Config parsed but a value is semantically invalid."""


# ---------------------------------------------------------------------------
# artifact plumbing


def atomic_write(path: Path, chunks: Iterable[str]) -> None:
    """Write UTF-8 `chunks` as they come to a same-directory temp file, renamed
    over `path` at the end and removed on any error. A bare str is a TypeError."""
    if isinstance(chunks, str):
        raise TypeError("atomic_write takes an iterable of text chunks, not a str")
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + ".tmp")
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            fh.writelines(chunks)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


_CSV_SLICE = 4096  # array cells converted per tolist() call


def _cells(col) -> Iterator[str]:
    """One column's CSV cells, yielded as the rows take them: repr of each float
    (its shortest round-trip form), str of each integer. An array is formatted
    a slice at a time, a range by str; any other sequence cell by cell, where a
    string is written as is and None as an empty cell."""
    if isinstance(col, np.ndarray):
        fmt = repr if col.dtype.kind == "f" else str
        return itertools.chain.from_iterable(
            map(fmt, col[lo:lo + _CSV_SLICE].tolist()) for lo in range(0, len(col), _CSV_SLICE))
    if isinstance(col, range):
        return map(str, col)
    return ("" if v is None else v if isinstance(v, str)
            else str(int(v)) if isinstance(v, (int, np.integer)) else repr(float(v))
            for v in col)


def write_csv(path: Path, header: Sequence[str], columns: Sequence) -> None:
    """Write a CSV from its columns, one per header name, all of one length
    (ValueError otherwise); every cell's format is decided here (_cells). Cells
    are formatted and rows joined as they stream to the file."""
    if len(columns) != len(header):
        raise ValueError(f"{len(header)} header names but {len(columns)} columns")
    rows = map(",".join, zip(*map(_cells, columns), strict=True))
    atomic_write(path, (line + "\n" for line in itertools.chain([",".join(header)], rows)))


def _write_json(path: Path, obj) -> None:
    """Stream `obj` to `path` as strict, key-sorted, 2-space JSON; a NaN or inf in it is an error."""
    encoder = json.JSONEncoder(indent=2, sort_keys=True, allow_nan=False)
    try:
        atomic_write(path, itertools.chain(encoder.iterencode(obj), ["\n"]))
    except ValueError as e:
        raise NonFiniteStateError(f"{path.stem} holds a non-finite number: {e}") from e


def write_manifest(out_dir: Path, manifest: dict) -> None:
    """Write manifest.json (see `_write_json`)."""
    _write_json(Path(out_dir) / "manifest.json", manifest)


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


def _base_manifest(experiment: str, config: dict, t0: float) -> dict:
    return {
        "experiment": experiment,
        "config": config,
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
    """Resolved experiment settings, one artifact set's; config_from_dict sets every field."""

    experiment: str
    out_dir: str
    seeds: tuple
    bins: int
    task_kind: str
    task_seed: int
    alphas: tuple
    methods: tuple
    T_values: tuple
    schedule_T: Optional[int]
    schedule_sigma_max: Optional[float]
    steering: dict
    reward_w: float
    dps_norm_mode: str
    jobs: int

    def to_manifest(self) -> dict:
        """The fields of the keys the experiment reads (see _KEYS), tuples as lists."""
        read = {f for exps, fields in _KEYS.values() if self.experiment in exps for f in fields}
        out = {}
        for name in (f.name for f in dataclasses.fields(self) if f.name in read):
            v = getattr(self, name)
            out[name] = list(v) if isinstance(v, tuple) else dict(v) if isinstance(v, dict) else v
        return out


_SWEEPS = ("lr_sweep", "step_scaling")
# each config key: the experiments that read it and the ExperimentConfig fields
# it sets; any other key, unknown or just unread by the chosen experiment, is
# rejected rather than ignored
_KEYS = {
    "experiment": (_EXPERIMENTS, ("experiment",)),
    "out_dir": (_EXPERIMENTS, ("out_dir",)),
    "seeds": (_EXPERIMENTS, ("seeds",)),
    "n_seeds": (_EXPERIMENTS, ("seeds",)),
    "bins": (("synthetic_fig1",), ("bins",)),
    "task": ((*_SWEEPS, "single_run"), ("task_kind", "task_seed")),
    "alphas": (("lr_sweep",), ("alphas",)),
    "methods": (_SWEEPS, ("methods",)),
    "T_values": (("step_scaling",), ("T_values",)),
    "schedule": (_EXPERIMENTS, ("schedule_T", "schedule_sigma_max")),
    "steering": (("single_run",), ("steering",)),
    "reward_w": (("single_run",), ("reward_w",)),
    "dps_norm_mode": (_SWEEPS, ("dps_norm_mode",)),
    "jobs": (_SWEEPS, ("jobs",)),
}
_DEFAULT_N_SEEDS = {"synthetic_fig1": 2000, "lr_sweep": 3, "step_scaling": 3}  # else 1
_REQUIRED = object()


def _get(raw: dict, key: str, types, default=_REQUIRED, item=None, least=None, among=None,
         keys=None):
    """raw[key], checked by every rule on it alone; `default`, unchecked, if absent.

    ConfigParseError: the value is not of `types`, or a list entry not of
    `item` (a bool is never a number). ConfigValidationError: an empty list, a
    repeated entry, a number (or entry) below `least`, a string (or entry) not
    in `among`, a dict sub-key not in `keys`, or an integer too large for a
    float where a number is read (it comes back as a float).
    """
    if key not in raw:
        if default is _REQUIRED:
            raise ConfigParseError(f"missing required field {key!r}")
        return default
    v = raw[key]
    entries = [v] if item is None else v
    if not isinstance(v, types) or any(
        not isinstance(x, item or types) or isinstance(x, bool) for x in entries
    ):
        raise ConfigParseError(f"field {key!r} has the wrong type")
    if isinstance(v, list) and not v:
        raise ConfigValidationError(f"{key} must be a non-empty list")
    if (item or types) == (int, float):
        try:
            entries = [float(x) for x in entries]
        except OverflowError:
            raise ConfigValidationError(f"{key} is too large for a float") from None
        v = entries[0] if item is None else entries
    if item is not None and len(set(entries)) < len(entries):  # numbers as floats
        raise ConfigValidationError(f"{key} repeats an entry")
    if least is not None and any(x < least for x in entries):
        bound = "non-negative" if least == 0 else f"at least {least}"
        raise ConfigValidationError(f"{key} must be {bound}")
    if among is not None and any(x not in among for x in entries):
        raise ConfigValidationError(f"{key} must be one of {list(among)}, not {v!r}")
    if keys is not None and set(v) - set(keys):
        raise ConfigValidationError(f"{key} takes only the keys {list(keys)}, not {sorted(v)}")
    return v


def config_from_dict(raw: dict) -> ExperimentConfig:
    """Build and validate an ExperimentConfig from parsed JSON.

    Each key is read once by _get, which checks every rule on its value
    alone; the checks written out here relate two keys. Structural problems
    (missing fields, wrong types, unparseable JSON upstream) raise
    ConfigParseError; semantic ones (bad values) raise ConfigValidationError.
    The CLI maps these to distinct exit codes.
    """
    if not isinstance(raw, dict):
        raise ConfigParseError("config root must be a JSON object")
    out_dir = _get(raw, "out_dir", str)
    if not out_dir or "\0" in out_dir:  # "" is the working directory; a NUL fails at mkdir
        raise ConfigValidationError("out_dir must be a non-empty path with no NUL character")
    experiment = _get(raw, "experiment", str, among=_EXPERIMENTS)
    unread = {key for key in raw if key not in _KEYS or experiment not in _KEYS[key][0]}
    if unread:
        raise ConfigValidationError(f"{experiment} does not read keys {sorted(unread)}")

    if "seeds" in raw and "n_seeds" in raw:
        raise ConfigValidationError("give either seeds or n_seeds, not both")
    n_seeds = _get(raw, "n_seeds", int, _DEFAULT_N_SEEDS.get(experiment, 1), least=1)
    _require_allocatable(n_seeds, f"{n_seeds} seeds")  # else tuple(range()) overflows past 2**63
    seeds = tuple(_get(raw, "seeds", list, range(n_seeds), item=int, least=0))
    if experiment == "synthetic_fig1" and len(seeds) < 2:
        raise ConfigValidationError("synthetic_fig1 needs at least two seeds")
    bins = _get(raw, "bins", int, 60, least=1)
    _require_allocatable(bins + 1, f"{bins} histogram bins")  # the edges, before fig1 draws x_T

    task = _get(raw, "task", dict, {}, keys=("kind", "seed"))
    default_kind = "synthetic" if experiment == "single_run" else "distance"
    task_kind = _get(task, "kind", str, default_kind, among=_TASK_KINDS)
    task_seed = _get(task, "seed", int, 0, least=0)
    if experiment in _SWEEPS and task_kind == "synthetic":
        raise ConfigValidationError(f"{experiment} needs a toy task (distance or map)")
    if task_kind != "synthetic" and "reward_w" in raw:
        raise ConfigValidationError(f"the {task_kind} task does not read reward_w")

    alphas = tuple(_get(raw, "alphas", list, DEFAULT_ALPHA_GRID, item=(int, float), least=0))
    default_methods = _SWEEP_METHODS if experiment == "lr_sweep" else ("embedopt",)
    methods = tuple(_get(raw, "methods", list, default_methods, item=str, among=_SWEEP_METHODS))
    T_values = tuple(_get(raw, "T_values", list, DEFAULT_T_VALUES, item=int, least=2))

    schedule = _get(raw, "schedule", dict, {}, keys=("T", "sigma_max"))
    if experiment == "step_scaling" and "T" in schedule:
        raise ConfigValidationError("step_scaling takes its step counts from T_values")
    schedule_T = _get(schedule, "T", int, None, least=1)
    schedule_sigma_max = _get(schedule, "sigma_max", (int, float), None)
    if schedule_sigma_max is not None and schedule_sigma_max <= 0:
        raise ConfigValidationError("schedule sigma_max must be positive")

    steering = _get(raw, "steering", dict, {})
    reward_w = _get(raw, "reward_w", (int, float), 1.0, least=0)
    dps_norm_mode = _get(raw, "dps_norm_mode", str, "l2_matched", among=_DPS_NORMS)
    # exact_likelihood needs a closed-form posterior variance, which only the
    # synthetic task (Gaussian prior, Gaussian measurement reward) has; the
    # toy tasks pair a mixture prior with a distance or map reward
    if task_kind != "synthetic" and "exact_likelihood" in (
        dps_norm_mode, steering.get("dps_norm_mode")
    ):
        raise ConfigValidationError(
            f"dps_norm_mode 'exact_likelihood' needs the synthetic task, not {task_kind!r}"
        )
    jobs = _get(raw, "jobs", int, 1, least=1)

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
    try:
        _steering_config(cfg)
    except (TypeError, ValueError) as e:
        raise ConfigValidationError(f"invalid steering settings: {e}") from e
    return cfg


def _finite(literal: str) -> float:
    """A JSON number or NaN/Infinity constant, which must be finite."""
    v = float(literal)
    if not math.isfinite(v):
        raise ConfigParseError(f"non-finite number {literal}")
    return v


def load_config(path, out_dir=None, seeds=None, jobs=None) -> ExperimentConfig:
    """Read a JSON config file and validate it with config_from_dict.

    A given out_dir, seeds (a list of integers) or jobs replaces that key of
    the file first, exactly as if it were written there; seeds drops n_seeds.
    """
    try:  # an OSError (a missing or unreadable file) is not caught: exit 4
        text = Path(path).read_text(encoding="utf-8")
        raw = json.loads(text, parse_float=_finite, parse_constant=_finite)
    except (ValueError, RecursionError) as e:  # bytes that are not UTF-8, a JSONDecodeError,
        # an integer literal too long for int(), or nesting past the recursion limit
        raise ConfigParseError(f"invalid JSON: {e}") from e
    if isinstance(raw, dict):  # config_from_dict rejects any other root
        if seeds is not None:
            raw.pop("n_seeds", None)
        overrides = {"out_dir": out_dir, "seeds": seeds, "jobs": jobs}
        raw.update((key, v) for key, v in overrides.items() if v is not None)
    return config_from_dict(raw)


def _steering_config(cfg: ExperimentConfig) -> SteeringConfig:
    kw = dict(cfg.steering)
    af3 = kw.pop("af3", None)
    if af3 is not None:
        kw["af3"] = Af3SamplerParams(**af3)
    return SteeringConfig(**kw)


# ---------------------------------------------------------------------------
# synthetic histogram experiment (vectorized fast path)

FIG1_PANEL_SPECS = {
    "unguided": {"method": "none", "w": 1.0, "alpha": 0.0},
    "dps_w1": {"method": "dps", "w": 1.0, "alpha": 0.0},
    "dps_w100": {"method": "dps", "w": 100.0, "alpha": 0.0},
    "embedopt_a0.1": {"method": "embedopt", "w": 1.0, "alpha": 0.1},
    "embedopt_a0.05": {"method": "embedopt", "w": 1.0, "alpha": 0.05},
    "embedopt_a0.5": {"method": "embedopt", "w": 1.0, "alpha": 0.5},
    "embedopt_a5": {"method": "embedopt", "w": 1.0, "alpha": 5.0},
}
FIG1_CSV_PANELS = ("unguided", "dps_w1", "dps_w100", "embedopt_a0.1")


def _fig1_reference(spec: dict) -> tuple:
    """A panel's reference (mean, std): EmbedOpt's target y, with no width, and
    otherwise the conjugate posterior at the panel's weight (0 when unguided)."""
    if spec["method"] == "embedopt":
        return SYNTH_Y, None
    w = spec["w"] if spec["method"] == "dps" else 0.0
    mean, var = conjugate_posterior(SYNTH_PRIOR_LOC, SYNTH_PRIOR_STD**2, SYNTH_Y, SYNTH_TAU2, w)
    return mean, float(np.sqrt(var))


def _seed_states(seeds: np.ndarray) -> np.ndarray:
    """SeedSequence(s).generate_state(4, np.uint64) for a uint64 array, as (n, 4):
    O'Neill's seed_seq hash over NumPy's zero-padded 4-word pool, on all seeds at once."""
    a = [0x43B0D7E5 * pow(0x931E8875, k, 1 << 32) % (1 << 32) for k in range(17)]
    b = [0x8B51F9DD * pow(0x58F38DED, k, 1 << 32) % (1 << 32) for k in range(9)]

    def hashmix(v, k, c=a):  # the k-th hash; its constants are the same for every seed
        v = (v ^ c[k]) * c[k + 1]
        return v ^ (v >> 16)

    zero = np.zeros(len(seeds), np.uint32)
    words = (seeds.astype(np.uint32), (seeds >> 32).astype(np.uint32), zero, zero)
    pool = [hashmix(w, k) for k, w in enumerate(words)]
    for k, (src, dst) in enumerate(itertools.permutations(range(4), 2), 4):
        r = pool[dst] * 0xCA01F9DD - hashmix(pool[src], k) * 0x4973F715  # mix
        pool[dst] = r ^ (r >> 16)
    state = np.empty((len(seeds), 8), "<u4")
    for i in range(8):
        state[:, i] = hashmix(pool[i % 4], i, b)
    return state.view("<u8").astype(np.uint64, copy=False)


def fig1_noise(seeds: Sequence[int]) -> np.ndarray:
    """Each seed's standard-normal x_T draw, bit for bit default_rng(seed)'s first
    standard_normal; one array serves every panel of a run. `_seed_states` hashes all
    seeds in [0, 2^64) at once, and a shim hands each state to NumPy's PCG64, which
    seeds from its ISeedSequence's generate_state(4, np.uint64), the one request the
    shim serves. Other seeds keep default_rng(s): a negative one raises ValueError."""
    from numpy.random.bit_generator import ISeedSequence  # ~14 ms that import steerkit skips

    class Shim(ISeedSequence):
        def __init__(self, state):
            self.state = state

        def generate_state(self, n_words, dtype=np.uint32):
            if (n_words, np.dtype(dtype)) != (4, np.uint64):  # else NumPy would draw other bits
                raise ValueError(f"state is 4 uint64 words, not {n_words} {np.dtype(dtype)}")
            return self.state

    n = len(seeds)
    states = _seed_states(np.fromiter((int(s) & (1 << 64) - 1 for s in seeds), np.uint64, n))
    rngs = (np.random.Generator(np.random.PCG64(Shim(st))) if 0 <= int(s) < 1 << 64
            else np.random.default_rng(int(s)) for s, st in zip(seeds, states))
    return np.fromiter((rng.standard_normal() for rng in rngs), np.float64, n)  # (1)[0]'s bits


def fig1_panel_samples(
    panel: str,
    z: np.ndarray,
    **schedule,
) -> np.ndarray:
    """Endpoint samples for one panel, all seeds as one batch.

    The panel is one of FIG1_PANEL_SPECS. `schedule` holds
    `SyntheticTask.schedule`'s keywords, T and sigma_max.
    `z` holds one standard-normal draw per seed (fig1_noise); trajectory i
    starts at x_T = sigma_max * z[i]. Bit-identical to running the generic
    per-trajectory engine seed by seed: the task is one-dimensional, so every
    update is elementwise and the batch applies the engine's operations in
    the engine's order. The loop updates x, c and two scratch rows in place,
    allocated once; no entry reads another row.

    EmbedOpt adds copysign(alpha, g) to c, zeroed where |g| < 1e-12. At D = 1
    rms_normalize's RMS is sqrt(fl(g^2)), which binary64 rounds to exactly
    |g| for 1e-12 <= |g| < ~1.3e154, so its g / rms is exactly +-1 and its
    skip test is |g| < 1e-12. Past that range g^2 overflows and the engine
    raises NonFiniteStateError while this step stays finite; standard-normal
    z never gets there.
    """
    if panel not in FIG1_PANEL_SPECS:
        raise ValueError(f"unknown panel {panel!r}")
    spec = FIG1_PANEL_SPECS[panel]
    method, w, alpha = spec["method"], spec["w"], spec["alpha"]
    sig = SyntheticTask.schedule(**schedule).sigma_values
    T = len(sig) - 1
    s0, y, tau2 = SYNTH_PRIOR_STD, SYNTH_Y, SYNTH_TAU2

    x = sig[-1] * z
    c = np.full(len(x), SYNTH_PRIOR_LOC)
    xh, g, small = np.empty_like(x), np.empty_like(x), np.empty(len(x), dtype=bool)
    for t in range(T, 0, -1):
        st, sp = float(sig[t]), float(sig[t - 1])
        k = s0**2 / (s0**2 + st**2)
        eta = (st - sp) / st
        np.multiply(np.subtract(x, c, out=xh), k, out=xh)  # xh = c + k (x - c)
        xh += c
        if method == "dps":
            # guidance g = st^2 (k grad), grad = -(w/tau2)(xh - y)
            np.multiply(np.subtract(xh, y, out=g), -(w / tau2), out=g)
            g *= k
            g *= st**2
            xh -= x
            xh += g
        elif method == "embedopt":
            # g = (1 - k)(-(w/tau2)(xh - y)), then the step alpha * rms_normalize(g)
            np.multiply(np.subtract(xh, y, out=g), -(w / tau2), out=g)
            g *= 1.0 - k
            np.less(np.abs(g, out=xh), SKIP_THRESHOLD, out=small)
            np.copysign(alpha, g, out=g)
            g[small] = 0.0
            c += g
            np.multiply(np.subtract(x, c, out=xh), k, out=xh)  # xh at the updated c
            xh += c
            xh -= x
        else:
            xh -= x
        xh *= eta  # x += eta (xh - x [+ guidance])
        x += xh
    return x


def run_synthetic_fig1(cfg: ExperimentConfig) -> dict:
    """Emit the four histogram CSVs; return the manifest's oracle comparisons.

    The seeds' x_T noise is drawn once and shared by every panel. The manifest
    records the wall time of that draw and of each panel's integration under
    `phases_s`.
    """
    out = Path(cfg.out_dir)
    schedule = _schedule_keys(cfg)

    t_draw = time.perf_counter()
    z = fig1_noise(cfg.seeds)
    phases = {"draw_x_T": time.perf_counter() - t_draw, "integrate": {}}
    panels = {}
    for panel, spec in FIG1_PANEL_SPECS.items():
        t_panel = time.perf_counter()
        samples = fig1_panel_samples(panel, z, **schedule)
        phases["integrate"][panel] = time.perf_counter() - t_panel
        if not np.isfinite(samples).all():
            raise NonFiniteStateError(f"panel {panel!r} has non-finite endpoints")
        summary = summarize_samples(samples, bins=cfg.bins)
        ref_mean, ref_std = _fig1_reference(spec)
        entry = {
            "mean": float(summary.mean[0]),
            "std": float(summary.std[0]),
            "reference_mean": ref_mean,
            "reference_std": ref_std,
            "n_samples": len(cfg.seeds),
        }
        if panel in FIG1_CSV_PANELS:
            name = f"fig1_{panel}.csv"
            edges = summary.bin_edges
            write_csv(out / name, ("bin_left", "bin_right", "count"),
                      (edges[:-1], edges[1:], summary.counts))
            entry["csv"] = name
        panels[panel] = entry

    return {"schedule": SyntheticTask.schedule(**schedule).to_manifest(), "panels": panels,
            "phases_s": phases}


# ---------------------------------------------------------------------------
# trajectory experiments (sweep, step scaling, single runs)


def _batch(desc: dict) -> dict:
    """Run one batch descriptor: its SteeringConfig on the synthetic task (at
    weight reward_w) or a toy task, one (alpha, seed) pair per row. Returns the
    rows in order and the batch's telemetry.

    Each row carries what any runner reads: final reward, task metric (None on
    the synthetic task), violated constraints (None off the distance task),
    NFE, TrajectoryRecord and embedding drift. Rows labelled "unguided" run
    method "none" without a reward; a single "none" run logs F. Module-level
    and dict-driven so a process pool can pickle it. Each batch rebuilds its
    task from the task seed, which keeps workers stateless and costs little
    next to the trajectory integration.
    """
    kind = desc["task_kind"]
    if kind == "synthetic":
        task = build_synthetic_task()
        reward = task.reward(desc["reward_w"])
    else:
        task = build_toy_task(kind, desc["task_seed"])
        reward = task.reward
    schedule = task.schedule(**desc["schedule"])
    method = desc["method"]
    t0 = time.perf_counter()
    res = run_steered(
        task.model, None if method == "unguided" else reward, task.c_init, schedule,
        desc["config"], [np.random.default_rng(seed) for seed in desc["seeds"]],
        alphas=desc["alphas"],
    )
    runtime = time.perf_counter() - t0
    metrics = violations = [None] * len(res.x0)  # the synthetic task has neither
    if kind != "synthetic":
        metrics = task.metric(res.x0).tolist()
    if kind == "distance":  # the metric is the satisfied count
        violations = [reward.K - int(n) for n in metrics]
    rows = [
        {"method": method, "alpha": alpha, "T": schedule.num_steps, "seed": seed,
         "final_reward": final, "task_metric": metric, "violations": v, "nfe": rec.nfe,
         "alpha_times_T": alpha * schedule.num_steps, "record": rec, "embedding_drift": drift}
        for alpha, seed, final, metric, v, rec, drift in zip(
            desc["alphas"], desc["seeds"], reward.value(res.x0).tolist(), metrics, violations,
            res.records, res.c_final.add(task.c_init, -1.0).norm().tolist(), strict=True,
        )
    ]
    batch = {"method": method, "T": schedule.num_steps, "rows": len(rows), "runtime_s": runtime}
    return {"rows": rows, "batch": batch}


def _chunks(desc: dict, n: int) -> List[dict]:
    """A batch descriptor cut into at most n contiguous, near-equal chunks."""
    size = -(-len(desc["seeds"]) // n)
    return [
        dict(desc, alphas=desc["alphas"][i : i + size], seeds=desc["seeds"][i : i + size])
        for i in range(0, len(desc["seeds"]), size)
    ]


def _run_batches(descs: List[dict], jobs: int):
    """Evaluate batches, on a process pool as contiguous chunks when jobs > 1.

    Returns (rows, per-batch telemetry), each telemetry entry naming the pool's
    `workers`. Rows come back in descriptor order, and each row is bit-identical
    whatever batch it runs in, so parallelism cannot change any artifact.
    """
    workers = _pool_size(jobs, sum(len(d["seeds"]) for d in descs))
    if workers == 1:
        done = [_batch(d) for d in descs]
    else:
        from concurrent.futures import ProcessPoolExecutor
        chunks = [chunk for d in descs for chunk in _chunks(d, workers)]
        with ProcessPoolExecutor(max_workers=workers) as pool:
            done = list(pool.map(_batch, chunks))
    return [r for out in done for r in out["rows"]], [dict(out["batch"], workers=workers) for out in done]


def _row_nfe(rows: List[dict], keys: Sequence[str]) -> List[dict]:
    return [dict({k: r[k] for k in keys}, nfe=r["nfe"]) for r in rows]


def _schedule_keys(cfg: ExperimentConfig) -> dict:
    """The schedule keywords the config sets; the task's `schedule` defaults the rest."""
    keys = {"T": cfg.schedule_T, "sigma_max": cfg.schedule_sigma_max}
    return {k: v for k, v in keys.items() if v is not None}


def run_lr_sweep(cfg: ExperimentConfig) -> dict:
    """Learning-rate sweep table plus the best-achieved companion summary.

    sweep.csv has exactly one row per method x alpha x seed. Unguided
    baselines (needed for the best-achieved comparison) are run per seed and
    reported in best_achieved.csv and the manifest, not as sweep rows.
    Per-batch runtimes are wall-clock and live in the manifest so the CSV
    bodies stay byte-identical across reruns.
    """
    out = Path(cfg.out_dir)
    schedule = _schedule_keys(cfg)
    alphas = tuple(sorted(cfg.alphas))
    seeds = tuple(sorted(cfg.seeds))

    base = {"task_kind": cfg.task_kind, "task_seed": cfg.task_seed, "schedule": schedule}
    grid = [(alpha, seed) for alpha in alphas for seed in seeds]
    descs = [
        dict(base, method=method, alphas=[a for a, _ in grid], seeds=[s for _, s in grid],
             config=SteeringConfig(method=method, dps_norm_mode=cfg.dps_norm_mode))
        for method in cfg.methods
    ]
    descs.append(dict(base, method="unguided", config=SteeringConfig(),
                      alphas=[0.0] * len(seeds), seeds=list(seeds)))
    rows, batches = _run_batches(descs, cfg.jobs)
    rows, baselines = rows[: -len(seeds)], rows[-len(seeds) :]

    header = ("method", "alpha", "seed", "final_reward", "task_metric", "violations")
    write_csv(out / "sweep.csv", header, [[r[k] for r in rows] for k in header])

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
        list(zip(*best_rows)),
    )

    return {
        "schedule": ToyTask.schedule(**schedule).to_manifest(),
        "artifacts": ["sweep.csv", "best_achieved.csv"],
        "batch_runtimes_s": batches,
        "row_nfe": _row_nfe(rows + baselines, ("method", "alpha", "seed")),
        "baselines": [
            {"seed": r["seed"], "task_metric": r["task_metric"], "final_reward": r["final_reward"]}
            for r in baselines
        ],
    }


def run_step_scaling(cfg: ExperimentConfig) -> dict:
    """Step-count scaling table with alpha set by the alpha*T constancy rule.

    The constant is fixed from alpha=0.1 at T=200, so alpha(T) = 20/T; each
    row echoes both the resolved alpha and the alpha*T product.
    """
    out = Path(cfg.out_dir)
    const = SCALE_ALPHA_REF * SCALE_T_REF
    seeds = tuple(sorted(cfg.seeds))
    T_values = tuple(sorted(cfg.T_values, reverse=True))

    base = {"task_kind": cfg.task_kind, "task_seed": cfg.task_seed}
    descs = [
        dict(base, method=method, schedule=dict(_schedule_keys(cfg), T=T),
             config=SteeringConfig(method=method, dps_norm_mode=cfg.dps_norm_mode),
             alphas=[const / T] * len(seeds), seeds=list(seeds))
        for method in cfg.methods
        for T in T_values
    ]
    rows, batches = _run_batches(descs, cfg.jobs)

    header = ("method", "T", "alpha", "alpha_times_T", "seed",
              "final_reward", "task_metric", "violations")
    write_csv(out / "scale.csv", header, [[r[k] for r in rows] for k in header])

    return {
        "alpha_times_T": const,
        "alpha_by_T": {str(T): const / T for T in T_values},
        "artifacts": ["scale.csv"],
        "batch_runtimes_s": batches,
        "row_nfe": _row_nfe(rows, ("method", "T", "seed")),
    }


# ---------------------------------------------------------------------------
# single runs


def run_single_run(cfg: ExperimentConfig) -> dict:
    """One steered trajectory per seed, all seeds as one batch in this process;
    emits per-step trajectory CSVs."""
    out = Path(cfg.out_dir)
    schedule = _schedule_keys(cfg)
    config = _steering_config(cfg)
    desc = {
        "task_kind": cfg.task_kind, "task_seed": cfg.task_seed, "reward_w": cfg.reward_w,
        "schedule": schedule, "method": config.method, "config": config,
        "alphas": [config.alpha] * len(cfg.seeds), "seeds": list(cfg.seeds),
    }
    rows, batches = _run_batches([desc], 1)
    runs = {}
    for r in rows:
        rec = r["record"]
        name = f"trajectory_seed{r['seed']}.csv"
        write_csv(
            out / name,
            ("step", "sigma", "F", "grad_norm", "embed_drift"),
            (rec.steps, rec.sigmas, rec.F, rec.grad_norms, rec.embed_drifts),
        )
        runs[str(r["seed"])] = dict(
            {k: r[k] for k in ("final_reward", "task_metric", "embedding_drift", "nfe")},
            csv=name, skip_counts=dict(rec.skip_counts),
        )

    task = SyntheticTask if cfg.task_kind == "synthetic" else ToyTask
    return {"schedule": task.schedule(**schedule).to_manifest(),
            "steering": config.to_manifest(), "runs": runs, "batch_runtimes_s": batches}


_DISPATCH = {
    "synthetic_fig1": run_synthetic_fig1,
    "lr_sweep": run_lr_sweep,
    "step_scaling": run_step_scaling,
    "single_run": run_single_run,
}


def run_from_config(cfg: ExperimentConfig) -> dict:
    """Run a validated config's experiment, which writes its CSVs and returns its
    own manifest entries, then write and return the manifest: base keys plus those."""
    t0 = time.perf_counter()
    entries = _DISPATCH[cfg.experiment](cfg)
    manifest = dict(_base_manifest(cfg.experiment, cfg.to_manifest(), t0), **entries)
    write_manifest(cfg.out_dir, manifest)
    return manifest
