#!/usr/bin/env python3
"""Paired A/B benchmark of two source trees on one perfbench workload.

Runs `python3 perfbench/run.py --workload W --seed S --seconds SECONDS
--trace 0` from the PARENT tree and from the CHANGE tree, N pairs in ABBA
order: the parent runs first on even pair indices and the change first on odd
ones, and both runs of a pair share one seed (FIRST_SEED + pair index).

For each end-to-end metric that the parent's BENCHMARK.json lists, it prints
both sides' medians and quartiles, the pairs the change won, and the verdict
of the claim rule:

    the change is better in at least 9 of 10 pairs (90% of the pairs), and
    the median difference, in the better direction, is larger than the
    parent's interquartile range; and every pair completed, with no more
    failed operations in the change's runs than in the parent's.

Each metric also gets the median of the per-pair ratios change / parent and
a bootstrap 95% interval of that median (Kalibera and Jones, "Rigorous
Benchmarking in Reasonable Time", ISMM 2013): the pairs are resampled with
replacement BOOT_RESAMPLES times from a generator seeded with BOOT_SEED, and
the interval runs between the 2.5th and 97.5th percentiles of the resampled
medians. It is reported beside the claim rule and does not enter it.

Quartiles are `statistics.quantiles(n=4)` (the exclusive method). With
--out FILE it writes a JSON file holding the `claim` and `trace0` blocks in
the layout of BENCH_19.json; `claim` is the block of the --claim metric.
Standard library only; it changes nothing in either tree except the
perfbench work directory that run.py makes and removes.

    python3 scripts/ab_bench.py PARENT CHANGE --workload fig1_batch \\
        --pairs 10 --seconds 14 --first-seed 3001 --claim peak_rss_mb --out BENCH.json

An A/A run (one tree as both PARENT and CHANGE) should refuse every claim.
"""

import argparse
import json
import random
import statistics
import subprocess
import sys
from pathlib import Path

RULE = ("change better in at least 9 of 10 pairs and the median difference "
        "larger than the parent's interquartile range")
ORDER = "parent first on even pair indices (0, 2, ...), change first on odd"
BOOT_RESAMPLES = 10000
BOOT_SEED = 2013


def metric_directions(tree: Path) -> dict:
    """{metric: "lower" or "higher"} for the end-to-end metrics of a tree's BENCHMARK.json."""
    bench = json.loads((tree / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["better"] for m in bench["end_to_end"]}


def ratio_interval(parent: list, change: list) -> tuple:
    """(median of the per-pair ratios change / parent, [2.5th, 97.5th]
    percentiles of that median over BOOT_RESAMPLES pair resamples), or
    (None, None) when a parent value is 0. The same pairs give the same
    interval: the resampling generator is seeded with BOOT_SEED on every call."""
    if 0 in parent:
        return None, None
    ratios = [c / p for p, c in zip(parent, change)]
    rng = random.Random(BOOT_SEED)
    medians = [statistics.median(rng.choices(ratios, k=len(ratios)))
               for _ in range(BOOT_RESAMPLES)]
    cuts = statistics.quantiles(medians, n=40)  # cuts[0] is 2.5%, cuts[-1] 97.5%
    return statistics.median(ratios), [cuts[0], cuts[-1]]


def compare(parent: list, change: list, better: str) -> dict:
    """One metric's paired summary and the claim rule's verdict.

    `parent[i]` and `change[i]` are pair i's values; `better` is "lower" or
    "higher".
    """
    if len(parent) != len(change) or len(parent) < 2:
        raise ValueError("need at least two pairs, one value per side in each")
    sign = 1.0 if better == "lower" else -1.0
    won = sum(sign * (c - p) < 0 for p, c in zip(parent, change))
    q_parent = statistics.quantiles(parent, n=4)  # [Q1, median, Q3], exclusive method
    q_change = statistics.quantiles(change, n=4)
    med_p, med_c = statistics.median(parent), statistics.median(change)
    iqr = q_parent[2] - q_parent[0]
    gain = sign * (med_p - med_c)
    ratio, interval = ratio_interval(parent, change)
    return {
        "median_parent": round(med_p, 4),
        "median_change": round(med_c, 4),
        "quartiles_parent": [round(q, 4) for q in q_parent],
        "quartiles_change": [round(q, 4) for q in q_change],
        "change_pct": round(100.0 * (med_c - med_p) / med_p, 2) if med_p else None,
        "better_pairs": f"{won}/{len(parent)}",
        "parent_iqr": round(iqr, 4),
        "ratio_median": None if ratio is None else round(ratio, 5),
        "ratio_ci95": None if interval is None else [round(r, 5) for r in interval],
        "met": won >= 0.9 * len(parent) and gain > iqr,
    }


def run_once(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """One `run.py --trace 0` from `tree`: its summary line, or a failed run's
    stand-in with no metrics."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, capture_output=True, text=True,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        return {"attempted": 0, "failed": 0, "metrics": None}
    return json.loads(lines[-1])


def run_pairs(parent: Path, change: Path, workload: str, seeds, seconds: float) -> dict:
    """{"parent": [...], "change": [...]} run summaries, pair by pair in ABBA order."""
    runs = {"parent": [], "change": []}
    for i, seed in enumerate(seeds):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for side in order:
            tree = parent if side == "parent" else change
            runs[side].append(run_once(tree, workload, seed, seconds))
        print(f"pair {i} (seed {seed}) done", flush=True)
    return runs


def summarize(seeds, runs: dict, directions: dict) -> dict:
    """The trace0 block of one workload: every run's metrics and each metric's
    comparison. A claim also needs every pair complete and no more failed
    operations in the change's runs than in the parent's."""
    complete = [i for i in range(len(seeds))
                if runs["parent"][i]["metrics"] and runs["change"][i]["metrics"]]
    values = {side: {name: [runs[side][i]["metrics"][name]["value"] for i in complete]
                     for name in directions} for side in runs}
    failed = {side: sum(r["failed"] for r in runs[side]) for side in runs}
    claimable = len(complete) == len(seeds) and failed["change"] <= failed["parent"]
    summary = {name: compare(values["parent"][name], values["change"][name], better)
               for name, better in directions.items()}
    for s in summary.values():
        s["met"] = s["met"] and claimable
    return {
        "pairs": len(seeds),
        "seeds": list(seeds),
        "complete_pairs": len(complete),
        "attempted_ops": {side: sum(r["attempted"] for r in runs[side]) for side in runs},
        "failed_ops": failed,
        "runs": values,
        "summary": summary,
        "order": ORDER,
    }


def claim_block(workload: str, metric: str, better: str, block: dict) -> dict:
    s = block["summary"][metric]
    return {
        "workload": workload, "metric": metric, "better": better, "pairs": block["pairs"],
        "seeds": block["seeds"], "median_parent": s["median_parent"],
        "median_change": s["median_change"], "change_pct": s["change_pct"],
        "change_better_pairs": s["better_pairs"], "parent_iqr": s["parent_iqr"],
        "met": s["met"], "rule": RULE,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("parent", type=Path)
    ap.add_argument("change", type=Path)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", type=float, default=14.0)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--claim", default="peak_rss_mb", help="metric of the claim block")
    ap.add_argument("--out", type=Path, help="write the claim and trace0 blocks here")
    args = ap.parse_args(argv)
    directions = metric_directions(args.parent)
    if args.claim not in directions:
        ap.error(f"--claim must be one of {sorted(directions)}")
    if args.pairs < 2:
        ap.error("--pairs must be at least 2")
    seeds = [args.first_seed + i for i in range(args.pairs)]
    runs = run_pairs(args.parent.resolve(), args.change.resolve(), args.workload, seeds,
                     args.seconds)
    block = summarize(seeds, runs, directions)
    for name, s in block["summary"].items():
        print(f"{name}: parent {s['median_parent']} {s['quartiles_parent']}, change "
              f"{s['median_change']} {s['quartiles_change']}, {s['change_pct']}%, won "
              f"{s['better_pairs']}, parent IQR {s['parent_iqr']}, ratio "
              f"{s['ratio_median']} (95% CI {s['ratio_ci95']}): "
              f"{'claim met' if s['met'] else 'no claim'}")
    print(f"ops: attempted {block['attempted_ops']}, failed {block['failed_ops']}; "
          f"{block['complete_pairs']}/{block['pairs']} pairs complete")
    if args.out is not None:
        result = {
            "claim": claim_block(args.workload, args.claim, directions[args.claim], block),
            "trace0": {
                "command": f"python3 perfbench/run.py --workload W --seed S --seconds "
                           f"{args.seconds:g} --trace 0, run from each tree by scripts/ab_bench.py",
                "workloads": {args.workload: block},
            },
        }
        args.out.write_text(json.dumps(result, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
