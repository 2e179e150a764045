"""The four benchmark workloads: what each unit runs, and what it must produce.

A unit is the work a researcher waits for in one go: one or more `steerkit`
commands, each in a fresh interpreter with `jobs=1`. Every command comes from
a finite pool of cases whose CSV digests are recorded in `reference.json`
under the command's key, so any workload seed can be checked byte for byte.
The workload seed only chooses the order in which a run visits the pool; seed
0 visits it in ascending order, starting from the shipped configs' task seed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

ALPHAS = [0.01, 0.0316, 0.1, 0.316, 1.0]
TOY_T = 200
SCALE_T_VALUES = [200, 100, 50, 20]
SYNTH_T = 1000
FIG1_PANELS = 7

# Map sweeps integrate 50 steps instead of the shipped 200 so that a run holds
# several units; the per-step work (one reward value_and_grad per guided
# step) is unchanged.
MAP_T = 50
# Map task seeds 0-15 grouped by the voxel count of their grid (3,136 to
# 4,860), smallest first. A unit sweeps one seed from the smallest and one
# from the largest group, or one from each middle group, so units cost about
# the same while a run still spans the whole range of working-set sizes.
MAP_STRATA = ((0, 1, 9, 11), (3, 4, 10, 12), (7, 8, 13, 14), (2, 5, 6, 15))
MAP_PAIRS = ((0, 3), (1, 2))  # indices into MAP_STRATA
DISTANCE_TASK_SEEDS = tuple(range(16))
ORACLE_PAIRS = tuple(range(8))  # single_synthetic seeds (2k, 2k + 1)
FIG1_SEEDS_PER_BLOCK = 10000
FIG1_BLOCKS = tuple(range(16))  # seeds [10000 k, 10000 (k + 1))

WORKLOADS = ("map_sweep", "distance_sweep", "oracle_suite", "fig1_batch")


@dataclass
class Command:
    """One `steerkit <subcommand> [config]` invocation.

    `key` names its artifacts in the reference; `config` is None for
    `verify`, which takes no config and writes no artifacts.
    """

    key: str
    subcommand: str
    config: dict = None


@dataclass
class Unit:
    workload: str
    case: str
    commands: list
    steps: int = 0  # sampler integration steps, the work behind steps_per_s
    setup_kind: str = "synthetic"  # task the set-up probe builds
    setup_task_seed: int = 0
    counts: dict = field(default_factory=dict)  # closed-form call counts

    def add(self, command: Command, steps: int, counts: dict) -> None:
        self.commands.append(command)
        self.steps += steps
        for name, n in counts.items():
            self.counts[name] = self.counts.get(name, 0) + n


def _cli_counts(csv_files: int) -> dict:
    return {
        "cli.main": 1,
        "harness.run_from_config": 1,
        "harness.write_manifest": 1,
        "harness.write_csv": csv_files,
    }


def lr_sweep(kind: str, task_seed: int, seeds: list, T: int):
    config = {
        "experiment": "lr_sweep",
        "out_dir": "out",
        "seeds": seeds,
        "task": {"kind": kind, "seed": task_seed},
        "alphas": ALPHAS,
        "methods": ["embedopt", "dps"],
        "dps_norm_mode": "l2_matched",
    }
    if T != TOY_T:
        config["schedule"] = {"T": T}
    guided = len(ALPHAS) * len(seeds) * T  # steps per method
    unguided = len(seeds) * T
    rows = 2 * len(ALPHAS) * len(seeds) + len(seeds)
    counts = _cli_counts(2)
    counts.update({
        "models.mixture.denoise": 2 * guided + guided + unguided,
        "models.mixture.vjp_c": guided,
        "models.mixture.vjp_x": guided,
        f"rewards.{kind}.value_and_grad": 2 * guided,
        f"rewards.{kind}.value": rows,
        "steering.embedopt_step": guided,
        "steering.dps_step": guided,
        "steering.run_steered": rows,
        "samplers.euler_step": guided + unguided,
        "tasks.build_toy_task": rows,
    })
    return Command(f"{kind}_sweep_task{task_seed}", "sweep", config), rows * T, counts


def step_scaling(task_seed: int, seeds: list):
    config = {
        "experiment": "step_scaling",
        "out_dir": "out",
        "seeds": seeds,
        "task": {"kind": "distance", "seed": task_seed},
        "methods": ["embedopt"],
        "T_values": SCALE_T_VALUES,
    }
    steps = len(seeds) * sum(SCALE_T_VALUES)
    rows = len(seeds) * len(SCALE_T_VALUES)
    counts = _cli_counts(1)
    counts.update({
        "models.mixture.denoise": 2 * steps,
        "models.mixture.vjp_c": steps,
        "rewards.distance.value_and_grad": steps,
        "rewards.distance.value": rows,
        "steering.embedopt_step": steps,
        "steering.run_steered": rows,
        "samplers.euler_step": steps,
        "tasks.build_toy_task": rows,
    })
    return Command(f"distance_scale_task{task_seed}", "scale", config), steps, counts


def single_run(kind: str, task_seed: int, seeds: list):
    synthetic = kind == "synthetic"
    config = {
        "experiment": "single_run",
        "out_dir": "out",
        "seeds": seeds,
        "task": {"kind": kind} if synthetic else {"kind": kind, "seed": task_seed},
        "steering": {"method": "embedopt", "alpha": 0.1},
    }
    steps = len(seeds) * (SYNTH_T if synthetic else TOY_T)
    model = "gaussian" if synthetic else "mixture"
    reward = "gaussian" if synthetic else kind
    counts = _cli_counts(len(seeds))
    counts.update({
        f"models.{model}.denoise": 2 * steps,
        f"models.{model}.vjp_c": steps,
        f"rewards.{reward}.value_and_grad": steps,
        f"rewards.{reward}.value": len(seeds),
        "steering.embedopt_step": steps,
        "steering.run_steered": len(seeds),
        "samplers.euler_step": steps,
        "tasks.build_synthetic_task" if synthetic else "tasks.build_toy_task": 1,
    })
    tag = f"seeds{'_'.join(map(str, seeds))}" if synthetic else f"task{task_seed}"
    return Command(f"{kind}_single_{tag}", "run", config), steps, counts


def fig1(block: int):
    lo = block * FIG1_SEEDS_PER_BLOCK
    config = {
        "experiment": "synthetic_fig1",
        "out_dir": "out",
        "seeds": list(range(lo, lo + FIG1_SEEDS_PER_BLOCK)),
        "bins": 60,
    }
    counts = _cli_counts(4)
    counts.update({
        "harness.fig1_panel_samples": FIG1_PANELS,
        "verification.summarize_samples": FIG1_PANELS,
    })
    steps = FIG1_SEEDS_PER_BLOCK * FIG1_PANELS * SYNTH_T
    return Command(f"fig1_block{block}", "fig1", config), steps, counts


def pool_commands(workload: str, case: int) -> list:
    """The commands of one pool entry, each as (command, steps, counts)."""
    if workload == "map_sweep":
        return [lr_sweep("map", case, [case], MAP_T)]
    if workload == "distance_sweep":
        return [
            lr_sweep("distance", case, [0, 1, 2], TOY_T),
            step_scaling(case, [0, 1, 2]),
            single_run("distance", case, [0]),
        ]
    if workload == "oracle_suite":
        return [single_run("synthetic", 0, [2 * case, 2 * case + 1])]
    if workload == "fig1_batch":
        return [fig1(case)]
    raise ValueError(f"unknown workload {workload!r}")


def pool(workload: str) -> tuple:
    return {
        "map_sweep": tuple(sorted(s for stratum in MAP_STRATA for s in stratum)),
        "distance_sweep": DISTANCE_TASK_SEEDS,
        "oracle_suite": ORACLE_PAIRS,
        "fig1_batch": FIG1_BLOCKS,
    }[workload]


def unit_cycle(workload: str, seed: int) -> list:
    """One full pass over the pool as lists of pool entries, one list per
    unit, in the order the seed picks. A run repeats the pass as needed."""
    rng = None if seed == 0 else random.Random(seed)

    def order(entries):
        entries = list(entries)
        if rng is not None:
            rng.shuffle(entries)
        return entries

    if workload == "map_sweep":
        orders = [order(stratum) for stratum in MAP_STRATA]
        return [[orders[a][r], orders[b][r]]
                for r in range(len(MAP_STRATA[0])) for a, b in MAP_PAIRS]
    return [[entry] for entry in order(pool(workload))]


def make_unit(workload: str, entries: list, verify_reference: dict) -> Unit:
    """Build one unit from pool entries. `verify_reference` holds the step
    and call counts of `steerkit verify`, which the program fixes and the
    reference records; `oracle_suite` units run it first."""
    unit = Unit(workload, "+".join(str(e) for e in entries), [])
    if workload == "oracle_suite":
        unit.add(Command("verify", "verify"), verify_reference["steps"], verify_reference["counts"])
    elif workload in ("map_sweep", "distance_sweep"):
        unit.setup_kind = "map" if workload == "map_sweep" else "distance"
        unit.setup_task_seed = entries[0]
    for entry in entries:
        for command, steps, counts in pool_commands(workload, entry):
            unit.add(command, steps, counts)
    return unit
