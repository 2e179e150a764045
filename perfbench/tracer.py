"""Span tracer that wraps steerkit's public functions from outside the package.

Every traced function is replaced at each binding its callers use: class
attributes for model and reward methods, and every module global in the
steerkit package that is bound to the original function object (so
`from .steering import run_steered` in harness and verification, and the
module-global lookups of `embedopt_step`, `dps_step` and `euler_step` inside
`run_steered`, all reach the wrapper). A span records its name, start, end and
parent span; spans stay in memory and are written once, when the traced
command returns.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time

# metric prefix -> (module, attribute path); the prefix names the layer
TARGETS = {
    "models.gaussian.denoise": ("steerkit.models", "GaussianPriorModel.denoise"),
    "models.gaussian.vjp_x": ("steerkit.models", "GaussianPriorModel.vjp_x"),
    "models.gaussian.vjp_c": ("steerkit.models", "GaussianPriorModel.vjp_c"),
    "models.gaussian.jvp_c": ("steerkit.models", "GaussianPriorModel.jvp_c"),
    "models.mixture.denoise": ("steerkit.models", "MixturePriorModel.denoise"),
    "models.mixture.vjp_x": ("steerkit.models", "MixturePriorModel.vjp_x"),
    "models.mixture.vjp_c": ("steerkit.models", "MixturePriorModel.vjp_c"),
    "models.mixture.jvp_c": ("steerkit.models", "MixturePriorModel.jvp_c"),
    "rewards.map.value_and_grad": ("steerkit.rewards", "MapMSEReward.value_and_grad"),
    "rewards.map.value": ("steerkit.rewards", "MapMSEReward.value"),
    "rewards.distance.value_and_grad": ("steerkit.rewards", "DistanceConstraintReward.value_and_grad"),
    "rewards.distance.value": ("steerkit.rewards", "DistanceConstraintReward.value"),
    "rewards.gaussian.value_and_grad": ("steerkit.rewards", "GaussianMeasurementReward.value_and_grad"),
    "rewards.gaussian.value": ("steerkit.rewards", "GaussianMeasurementReward.value"),
    "samplers.euler_step": ("steerkit.samplers", "euler_step"),
    "samplers.af3_noise_inflate": ("steerkit.samplers", "af3_noise_inflate"),
    "steering.embedopt_step": ("steerkit.steering", "embedopt_step"),
    "steering.dps_step": ("steerkit.steering", "dps_step"),
    "steering.run_steered": ("steerkit.steering", "run_steered"),
    "tasks.build_toy_task": ("steerkit.tasks", "build_toy_task"),
    "tasks.build_synthetic_task": ("steerkit.tasks", "build_synthetic_task"),
    "verification.run_verification_suite": ("steerkit.verification", "run_verification_suite"),
    "verification.fd_gradient": ("steerkit.verification", "fd_gradient"),
    "verification.check_monotone_surrogate": ("steerkit.verification", "check_monotone_surrogate"),
    "verification.summarize_samples": ("steerkit.verification", "summarize_samples"),
    "harness.fig1_panel_samples": ("steerkit.harness", "fig1_panel_samples"),
    "harness.write_csv": ("steerkit.harness", "write_csv"),
    "harness.write_manifest": ("steerkit.harness", "write_manifest"),
    "harness.run_from_config": ("steerkit.harness", "run_from_config"),
    "cli.main": ("steerkit.cli", "main"),
}
NAMES = tuple(TARGETS)


class Tracer:
    """In-memory span store plus the counters measured at layer boundaries."""

    def __init__(self):
        self.name_ids = []
        self.starts = []
        self.ends = []
        self.parents = []
        self._open = []
        self.counters = {
            "distance_grad_calls": 0,
            "distance_zero_grads": 0,
            "run_steered_steps": 0,
            "skip_events": 0,
            "skip_chances": 0,
            "csv_bytes": 0,
        }

    def wrap(self, name_id, fn, after=None):
        name_ids, starts, ends, parents, stack = (
            self.name_ids, self.starts, self.ends, self.parents, self._open,
        )
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            idx = len(starts)
            name_ids.append(name_id)
            parents.append(stack[-1] if stack else -1)
            ends.append(0)
            stack.append(idx)
            starts.append(clock())
            try:
                out = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if after is not None:
                after(args, kwargs, out)
            return out

        return functools.wraps(fn)(traced)

    # counters read from arguments and results, outside the timed span

    def _after_distance_grad(self, args, kwargs, out):
        self.counters["distance_grad_calls"] += 1
        if not out[1].any():
            self.counters["distance_zero_grads"] += 1

    def _after_run_steered(self, args, kwargs, out):
        config = args[4] if len(args) > 4 else kwargs["config"]
        c_init = args[2] if len(args) > 2 else kwargs["c_init"]
        steps = len(out.record.steps)
        self.counters["run_steered_steps"] += steps
        self.counters["skip_events"] += sum(out.record.skip_counts.values())
        if config.method == "embedopt":
            self.counters["skip_chances"] += steps * len(c_init.components)
        elif config.method == "dps":
            self.counters["skip_chances"] += steps

    def _after_write_csv(self, args, kwargs, out):
        path = args[0] if args else kwargs["path"]
        self.counters["csv_bytes"] += os.path.getsize(path)

    def install(self):
        """Replace every binding of every target with its traced wrapper."""
        import importlib

        owners = {mod: importlib.import_module(mod) for mod, _ in TARGETS.values()}
        hooks = {
            "rewards.distance.value_and_grad": self._after_distance_grad,
            "steering.run_steered": self._after_run_steered,
            "harness.write_csv": self._after_write_csv,
        }
        modules = [m for n, m in sys.modules.items() if n == "steerkit" or n.startswith("steerkit.")]
        for name_id, name in enumerate(NAMES):
            mod_name, attr = TARGETS[name]
            owner = owners[mod_name]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                original = cls.__dict__[meth]
                setattr(cls, meth, self.wrap(name_id, original, hooks.get(name)))
                continue
            original = getattr(owner, attr)
            wrapper = self.wrap(name_id, original, hooks.get(name))
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)

    def dump(self, path):
        """Write spans as arrays plus the counters, next to each other."""
        import numpy as np

        np.savez(
            path + ".npz",
            name_id=np.asarray(self.name_ids, dtype=np.int16),
            start_ns=np.asarray(self.starts, dtype=np.int64),
            end_ns=np.asarray(self.ends, dtype=np.int64),
            parent=np.asarray(self.parents, dtype=np.int64),
        )
        with open(path + ".json", "w", encoding="utf-8") as fh:
            json.dump({"names": list(NAMES), "counters": self.counters}, fh)
