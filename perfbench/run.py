#!/usr/bin/env python3
"""steerkit benchmark: run one workload from outside and report its metrics.

    python3 perfbench/run.py --workload map_sweep --seed 0 --seconds 14 --trace 0

Run from the root of a checkout; the program is imported from `src/`. With
`--trace 0` the run reports the end-to-end metrics (set-up time, wall time,
steps per second, CPU time and peak memory, all medians over units). With
`--trace 1` it runs each unit once untraced and once with every public layer
function wrapped, and reports per-layer call counts, time per call and self
time, plus the tracing overhead. Every unit's CSVs, manifests and oracle
verdicts are checked against `reference.json`. The last line of standard
output is one JSON object: correct, attempted, failed and metrics.
See WORKLOADS.md for why each workload exists.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import re
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402
from tracer import NAMES  # noqa: E402

LAUNCH = str(HERE / "launch.py")
REFERENCE = HERE / "reference.json"
RUN_DEADLINE_S = 170.0  # a run must end within 180 s
SETUP_PROBES = 9  # at least this many timed set-up probes, after one warm-up
MIN_UNITS = 2  # an untraced run always has a median of at least two units
THREAD_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
}
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0)
_VERDICT_LINE = re.compile(r"^(PASS|FAIL)\s+(\S+)")


class CannotRun(RuntimeError):
    """No result is possible: the checkout holds no steerkit sources, the wrong
    ones are imported, or no unit completed."""


# ---------------------------------------------------------------------------
# child processes


class Runner:
    """Starts one child at a time from the checkout root and reaps it with its
    resource usage; a child still running at the run deadline is killed."""

    def __init__(self, root: Path, deadline: float):
        self.root = root
        self.src = root / "src"
        self.deadline = deadline
        self.env = dict(os.environ)
        self.env.update(THREAD_ENV)
        self.env["PYTHONPATH"] = str(self.src)

    def run(self, args, stdout_path: Path):
        """Run `python3 launch.py args`; returns (exit code, rusage, stdout)."""
        with open(stdout_path, "wb") as out, open(str(stdout_path) + ".err", "wb") as err:
            proc = subprocess.Popen(
                [sys.executable, LAUNCH, *args], stdout=out, stderr=err,
                env=self.env, cwd=self.root,
            )
            timer = threading.Timer(max(0.0, self.deadline - time.monotonic()), proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
        stderr = Path(str(stdout_path) + ".err").read_text(encoding="utf-8", errors="replace")
        if proc.returncode != 0 and stderr:
            print(stderr, file=sys.stderr, end="")
        return proc.returncode, usage, stdout_path.read_text(encoding="utf-8", errors="replace")

    def setup_time(self, unit, config_path: Path) -> float:
        """Seconds from spawning a fresh interpreter until it has imported
        steerkit, parsed the config and built the task."""
        t0 = time.monotonic()
        proc = subprocess.run(
            [sys.executable, LAUNCH, "setup", unit.setup_kind, str(unit.setup_task_seed),
             str(config_path)],
            capture_output=True, text=True, env=self.env, cwd=self.root,
            timeout=max(1.0, self.deadline - t0),
        )
        if proc.returncode != 0:
            print(proc.stderr, file=sys.stderr, end="")
            raise CannotRun("the set-up probe could not import and build the task")
        probe = json.loads(proc.stdout.strip().splitlines()[-1])
        if not Path(probe["module"]).resolve().is_relative_to(self.src.resolve()):
            raise CannotRun(f"steerkit was imported from {probe['module']}, not from src/")
        return probe["ready"] - t0


def run_unit(runner: Runner, unit, unit_dir: Path, trace: bool) -> dict:
    """Run every command of a unit; wall seconds are the time spent inside
    `steerkit.cli.main`, so interpreter start and import are left out."""
    res = {"wall_s": 0.0, "cpu_s": 0.0, "rss_mb": 0.0, "crashed": False,
           "steps": unit.steps, "outputs": {}, "traces": []}
    unit_dir.mkdir(parents=True)
    for cmd in unit.commands:
        argv = [cmd.subcommand]
        out_dir = unit_dir / cmd.key
        if cmd.config is not None:
            cfg_path = unit_dir / f"{cmd.key}.json"
            cfg_path.write_text(json.dumps(cmd.config), encoding="utf-8")
            argv += [str(cfg_path), "--out", str(out_dir)]
        timing_path = unit_dir / f"{cmd.key}.timing.json"
        prefix = str(unit_dir / f"{cmd.key}.trace") if trace else "-"
        rc, usage, stdout = runner.run(
            ["cli", str(timing_path), prefix, "--", *argv], unit_dir / f"{cmd.key}.out"
        )
        res["cpu_s"] += usage.ru_utime + usage.ru_stime
        res["rss_mb"] = max(res["rss_mb"], usage.ru_maxrss / 1024.0)
        try:
            timing = json.loads(timing_path.read_text(encoding="utf-8"))
        except (OSError, ValueError):
            res["crashed"] = True
            timing = {"wall_s": 0.0}
        if rc != 0:
            res["crashed"] = True
        res["wall_s"] += timing["wall_s"]
        res["outputs"][cmd.key] = {"dir": out_dir, "stdout": stdout}
        if trace and not res["crashed"]:
            res["traces"].append(prefix)
    return res


# ---------------------------------------------------------------------------
# correctness


def _reject_constant(name):
    raise ValueError(f"non-finite JSON constant {name}")


def _all_finite(obj) -> bool:
    if isinstance(obj, float):
        return math.isfinite(obj)
    if isinstance(obj, dict):
        return all(_all_finite(v) for v in obj.values())
    if isinstance(obj, list):
        return all(_all_finite(v) for v in obj)
    return True


def csv_problem(path: Path, digest) -> str:
    """Why a CSV fails its checks, or '' when it passes."""
    try:
        data = path.read_bytes()
    except OSError:
        return "missing"
    if digest is not None and hashlib.sha256(data).hexdigest() != digest:
        return "sha256 differs from the reference"
    for line in data.decode("utf-8", errors="replace").splitlines()[1:]:
        for cell in line.split(","):
            try:
                value = float(cell)
            except ValueError:
                continue
            if not math.isfinite(value):
                return f"non-finite cell {cell!r}"
    return ""


def manifest_problem(path: Path) -> str:
    try:
        manifest = json.loads(path.read_text(encoding="utf-8"), parse_constant=_reject_constant)
    except OSError:
        return "missing"
    except ValueError as e:
        return f"not strict JSON: {e}"
    return "" if _all_finite(manifest) else "non-finite number"


def parse_verdicts(stdout: str) -> dict:
    verdicts = {}
    for line in stdout.splitlines():
        m = _VERDICT_LINE.match(line)
        if m:
            verdicts[m.group(2)] = m.group(1) == "PASS"
    return verdicts


def check_unit(unit, res: dict, reference: dict):
    """Count operations (CSVs, manifests, oracle checks) and failures.

    A check that fails in the reference and passes now is reported, not
    counted as a failure.
    """
    attempted = failed = 0
    notes = []
    for cmd in unit.commands:
        out = res["outputs"][cmd.key]
        if cmd.config is None:
            verdicts = parse_verdicts(out["stdout"])
            for name, passed in reference["verify"]["verdicts"].items():
                attempted += 1
                now = verdicts.get(name)
                if passed and now is not True:
                    failed += 1
                    notes.append(f"FAILED oracle check {name} passes in the reference, now {now}")
                elif not passed and now:
                    notes.append(f"note: oracle check {name} fails in the reference and now passes")
            continue
        expected = reference["artifacts"][cmd.key]
        present = {p.name for p in out["dir"].glob("*.csv")} if out["dir"].is_dir() else set()
        for name in sorted(set(expected) | present):
            attempted += 1
            problem = csv_problem(out["dir"] / name, expected.get(name))
            if problem:
                failed += 1
                notes.append(f"FAILED {cmd.key}/{name}: {problem}")
        attempted += 1
        problem = manifest_problem(out["dir"] / "manifest.json")
        if problem:
            failed += 1
            notes.append(f"FAILED {cmd.key}/manifest.json: {problem}")
    return attempted, failed, notes


# ---------------------------------------------------------------------------
# traces


def read_trace(prefix: str) -> dict:
    """Per-name calls, inclusive and self nanoseconds, run_steered durations."""
    import numpy as np

    meta = json.loads(Path(prefix + ".json").read_text(encoding="utf-8"))
    with np.load(prefix + ".npz") as z:
        name_id, start, end, parent = z["name_id"], z["start_ns"], z["end_ns"], z["parent"]
    dur = (end - start).astype(np.float64)
    has_parent = parent >= 0
    covered = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=dur.size)
    self_ns = dur - covered
    n = len(meta["names"])
    calls = np.bincount(name_id, minlength=n)
    incl = np.bincount(name_id, weights=dur, minlength=n)
    self_sum = np.bincount(name_id, weights=self_ns, minlength=n)
    rs = meta["names"].index("steering.run_steered")
    return {
        "calls": {nm: int(calls[i]) for i, nm in enumerate(meta["names"])},
        "incl_ns": {nm: float(incl[i]) for i, nm in enumerate(meta["names"])},
        "self_ns": {nm: float(self_sum[i]) for i, nm in enumerate(meta["names"])},
        "run_steered_ms": (dur[name_id == rs] / 1e6).tolist(),
        "counters": meta["counters"],
    }


def merge_traces(traces) -> dict:
    """Sum the results of read_trace over several traced commands."""
    total = {"calls": {}, "incl_ns": {}, "self_ns": {}, "run_steered_ms": [], "counters": {}}
    for tr in traces:
        for key in ("calls", "incl_ns", "self_ns", "counters"):
            for name, value in tr[key].items():
                total[key][name] = total[key].get(name, 0) + value
        total["run_steered_ms"] += tr["run_steered_ms"]
    return total


def count_mismatches(unit, traced: dict) -> list:
    """Closed-form call counts the trace does not reproduce exactly."""
    return [
        f"{name}: expected {unit.counts.get(name, 0)}, traced {traced['calls'].get(name, 0)}"
        for name in NAMES
        if unit.counts.get(name, 0) != traced["calls"].get(name, 0)
    ]


def tail_percentile(values):
    """(percentile, value): the highest listed percentile with at least ten
    samples beyond it, or the median when there are too few samples."""
    import numpy as np

    if not values:
        return 50.0, 0.0
    pct = next((p for p in TAIL_PERCENTILES if len(values) * (100.0 - p) / 100.0 >= 10), 50.0)
    return pct, float(np.percentile(values, pct))


def _per_unit(total, n_units: int):
    """Counts per traced unit: exact integers while every unit does the same
    work, so two traced runs agree however many units each fitted in."""
    q = total / n_units
    return int(q) if q == int(q) else q


def layer_metrics(traced: list, untraced_wall: float, overhead_s: float, mismatches: int) -> dict:
    trace = merge_traces(r["trace"] for r in traced)
    traced_wall = sum(r["wall_s"] for r in traced)
    n = len(traced)
    m = {}
    for name in NAMES:
        calls = trace["calls"].get(name, 0)
        m[f"{name}.calls"] = (_per_unit(calls, n), "count")
        m[f"{name}.us_per_call"] = (trace["incl_ns"].get(name, 0.0) / calls / 1e3 if calls else 0.0, "us")
        m[f"{name}.self_share"] = (trace["self_ns"].get(name, 0.0) / 1e9 / traced_wall, "frac")
    c = trace["counters"]
    durations = trace["run_steered_ms"]
    pct, tail = tail_percentile(durations)
    m["steering.run_steered.ms_p50"] = (statistics.median(durations) if durations else 0.0, "ms")
    m["steering.run_steered.ms_tail"] = (tail, "ms")
    m["steering.run_steered.tail_pct"] = (pct, "%")
    m["steering.run_steered.trajectories"] = (len(durations), "count")
    m["steering.skip_events"] = (_per_unit(c["skip_events"], n), "count")
    m["steering.skip_frac"] = (c["skip_events"] / c["skip_chances"] if c["skip_chances"] else 0.0, "frac")
    m["rewards.distance.zero_grad_frac"] = (
        c["distance_zero_grads"] / c["distance_grad_calls"] if c["distance_grad_calls"] else 0.0, "frac")
    m["harness.write_csv.bytes"] = (_per_unit(c["csv_bytes"], n), "bytes")
    m["trace.overhead_s"] = (overhead_s, "s")
    m["trace.overhead_frac"] = (overhead_s / untraced_wall, "frac")
    m["trace.count_mismatches"] = (mismatches, "count")
    return m, c


# ---------------------------------------------------------------------------
# environment


def _cache_sizes() -> dict:
    sizes = {}
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(base.glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        if kind in ("Unified", "Data"):
            sizes[f"L{level}"] = size
    return sizes


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_describe(root: Path) -> str:
    try:
        proc = subprocess.run(
            ["git", "describe", "--always", "--dirty"], cwd=root,
            capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def environment(root: Path, args) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "caches": _cache_sizes(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', 'unknown')}",
        "thread_env": THREAD_ENV,
        "git_describe": _git_describe(root),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


# ---------------------------------------------------------------------------
# the run


def _med(values):
    return statistics.median(values)


class Tally:
    """Operations attempted and failed over a run, with the unit results."""

    def __init__(self, reference: dict):
        self.reference = reference
        self.attempted = self.failed = self.mismatches = 0
        self.plain, self.traced, self.overheads = [], [], []

    def run(self, runner: Runner, unit, unit_dir: Path, trace: bool) -> None:
        res = run_unit(runner, unit, unit_dir, trace)
        attempted, failed, notes = check_unit(unit, res, self.reference)
        if res["crashed"]:
            attempted += 1
            failed += 1
            notes.append(f"FAILED {unit.case}: a command crashed")
        self.attempted += attempted
        self.failed += failed
        for note in notes:
            print(note)
        print(f"unit {unit.case} trace={int(trace)} wall_s={res['wall_s']:.4f} "
              f"cpu_s={res['cpu_s']:.4f} peak_rss_mb={res['rss_mb']:.1f} "
              f"steps={unit.steps} ops={attempted - failed}/{attempted}", flush=True)
        if not trace:
            self.plain.append(res)
        elif not res["crashed"]:
            res["trace"] = merge_traces(read_trace(p) for p in res["traces"])
            bad = count_mismatches(unit, res["trace"])
            for line in bad:
                print(f"count mismatch {unit.case}: {line}")
            self.mismatches += len(bad)
            self.traced.append(res)
            self.overheads.append(res["wall_s"] - self.plain[-1]["wall_s"])


def measure(args, root: Path, work: Path) -> dict:
    if not (root / "src" / "steerkit" / "__init__.py").is_file():
        raise CannotRun(f"no steerkit sources under {root / 'src'}")
    t_start = time.monotonic()
    reference = json.loads(REFERENCE.read_text(encoding="utf-8"))
    runner = Runner(root, t_start + RUN_DEADLINE_S)
    cycle = workloads.unit_cycle(args.workload, args.seed)

    def unit_at(i):
        return workloads.make_unit(args.workload, cycle[i % len(cycle)], reference["verify"])

    print("env " + json.dumps(environment(root, args), sort_keys=True), flush=True)

    first = unit_at(0)
    probe_cfg = work / "setup.json"
    probe_cfg.write_text(
        json.dumps(next(c.config for c in first.commands if c.config is not None)),
        encoding="utf-8",
    )
    tally = Tally(reference)
    setups = []

    def probe():
        return runner.setup_time(first, probe_cfg)

    probe()  # warm-up: byte-code caches and the file cache
    t_units = time.monotonic()
    i = 0
    while True:
        elapsed = time.monotonic() - t_units
        done = len(tally.plain)
        per_unit = elapsed / done if done else 0.0
        # start a unit only if it should end within half a unit of --seconds,
        # so that on average a run measures for --seconds
        if done and elapsed + per_unit / 2 >= args.seconds and (args.trace or done >= MIN_UNITS):
            break
        if done and time.monotonic() + per_unit > runner.deadline:
            break
        unit = unit_at(i)
        if args.trace:
            tally.run(runner, unit, work / f"u{i}p", trace=False)
            tally.run(runner, unit, work / f"u{i}t", trace=True)
        else:
            # probes spread over the run, so a slow spell of the host moves
            # set-up time no more than it moves the units
            setups.append(probe())
            tally.run(runner, unit, work / f"u{i}p", trace=False)
        i += 1

    ok_units = [r for r in tally.plain if not r["crashed"]]
    if not ok_units:
        raise CannotRun("no unit completed")
    print(f"ops_failed_frac {tally.failed}/{tally.attempted} = "
          f"{tally.failed / tally.attempted:.4f} frac")
    summary = {"correct": tally.failed == 0, "attempted": tally.attempted, "failed": tally.failed}
    if args.trace:
        if not tally.traced:
            raise CannotRun("no traced unit completed")
        metrics, c = layer_metrics(
            tally.traced, _med([r["wall_s"] for r in ok_units]), _med(tally.overheads),
            tally.mismatches,
        )
        print(f"trace: {len(tally.traced)} traced units, {tally.mismatches} call-count "
              f"mismatches against the closed form; zero_grad_frac over "
              f"{c['distance_grad_calls']} distance reward calls, skip_frac over "
              f"{c['skip_chances']} skip chances")
    else:
        while len(setups) < SETUP_PROBES and time.monotonic() + 2 * max(setups) < runner.deadline:
            setups.append(probe())
        metrics = {
            "setup_s": (_med(setups), "s"),
            "wall_s": (_med([r["wall_s"] for r in ok_units]), "s"),
            "steps_per_s": (_med([r["steps"] / r["wall_s"] for r in ok_units]), "1/s"),
            "cpu_s": (_med([r["cpu_s"] for r in ok_units]), "s"),
            "peak_rss_mb": (_med([r["rss_mb"] for r in ok_units]), "MB"),
        }
        print(f"medians over {len(ok_units)} units; setup_s over {len(setups)} probes")
    for name, (value, unit_name) in metrics.items():
        print(f"{name} {value} {unit_name}")
    summary["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    return summary


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=14.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    # on SIGTERM, unwind normally so the running child is killed and reaped
    # and the work directory is removed
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    root = Path.cwd()
    work = root / ".perfbench_work" / f"{args.workload}-s{args.seed}-p{os.getpid()}"
    work.mkdir(parents=True)
    try:
        summary = measure(args, root, work)
    except CannotRun as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
