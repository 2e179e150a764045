#!/usr/bin/env python3
"""Compare two artifact trees, such as two `reproduce_all.py --out` directories.

Prints each side's sorted CSV sha256 listing (the lines that
`find . -name '*.csv' | sort | xargs sha256sum` prints there) with the sha256 of
that listing, and names every CSV that differs or exists on one side only. Then
compares every manifest.json with the run-time keys (RUNTIME_KEYS) removed at
any depth, naming each key whose value differs. The `phases_s` and
`batch_runtimes_s` timings are printed side by side for information only.

Exits 0 when every CSV and every manifest agree, and 1 otherwise.

    python scripts/artifact_diff.py OLD_DIR NEW_DIR
"""

import argparse
import hashlib
import json
from pathlib import Path

# keys whose values say when, where or how fast a run went, not what it computed
RUNTIME_KEYS = frozenset({
    "created_utc", "wall_time_s", "git_describe", "out_dir", "runtime_s", "phases_s",
    "is_workers", "workers", "blas_threads", "phases_peak_rss_mb",
})
_ABSENT = "<absent>"


def csv_digests(root: Path) -> dict:
    """The sha256 of every CSV under root, by path relative to root."""
    return {
        p.relative_to(root).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in root.rglob("*.csv")
    }


def listing(digests: dict) -> str:
    """`sha256sum` lines of the CSVs, sorted by path."""
    return "".join(f"{d}  ./{path}\n" for path, d in sorted(digests.items()))


def load_manifests(root: Path) -> dict:
    """Every manifest.json under root, by path relative to root; one that is not
    JSON is kept as its text, so it can only equal the same text."""
    out = {}
    for p in root.rglob("manifest.json"):
        text = p.read_text(encoding="utf-8")
        try:
            out[p.relative_to(root).as_posix()] = json.loads(text)
        except json.JSONDecodeError:
            out[p.relative_to(root).as_posix()] = text
    return out


def strip_runtime(value):
    """value without RUNTIME_KEYS, at any depth."""
    if isinstance(value, dict):
        return {k: strip_runtime(v) for k, v in value.items() if k not in RUNTIME_KEYS}
    if isinstance(value, list):
        return [strip_runtime(v) for v in value]
    return value


def differences(old, new, where=""):
    """(key path, old, new) for each place where two JSON values differ; 1 and
    1.0, or 1 and true, differ as they do in the file."""
    if isinstance(old, dict) and isinstance(new, dict):
        for k in sorted(old.keys() | new.keys()):
            yield from differences(
                old.get(k, _ABSENT), new.get(k, _ABSENT), f"{where}.{k}" if where else k
            )
    elif isinstance(old, list) and isinstance(new, list) and len(old) == len(new):
        for i, (a, b) in enumerate(zip(old, new)):
            yield from differences(a, b, f"{where}[{i}]")
    elif type(old) is not type(new) or old != new:
        yield where or "(root)", old, new


def timings(manifest) -> dict:
    """The seconds in a manifest's phases_s and batch_runtimes_s, by flat name."""
    out = {}

    def walk(v, name):
        if isinstance(v, dict):
            for k, x in v.items():
                walk(x, f"{name}.{k}")
        elif isinstance(v, (int, float)) and not isinstance(v, bool):
            out[name] = v

    if isinstance(manifest, dict):
        walk(manifest.get("phases_s"), "phases_s")
        for i, b in enumerate(manifest.get("batch_runtimes_s") or ()):
            walk(b.get("runtime_s"), f"batch_runtimes_s[{i}] {b.get('method')} T={b.get('T')}")
    return out


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    ap.add_argument("old", type=Path, metavar="OLD_DIR")
    ap.add_argument("new", type=Path, metavar="NEW_DIR")
    args = ap.parse_args()
    for d in (args.old, args.new):
        if not d.is_dir():
            ap.error(f"{d} is not a directory")

    sides = {"OLD": args.old, "NEW": args.new}
    digests = {side: csv_digests(root) for side, root in sides.items()}
    for side, root in sides.items():
        text = listing(digests[side])
        print(f"{side} {root}: {len(digests[side])} CSVs")
        print(text, end="")
        print(f"listing sha256 {hashlib.sha256(text.encode()).hexdigest()}")

    problems = 0
    old_csv, new_csv = digests["OLD"], digests["NEW"]
    for path in sorted(old_csv.keys() | new_csv.keys()):
        if path not in new_csv or path not in old_csv:
            print(f"CSV only in {'OLD' if path in old_csv else 'NEW'}: {path}")
            problems += 1
        elif old_csv[path] != new_csv[path]:
            print(f"CSV differs: {path}")
            problems += 1

    old_man, new_man = load_manifests(args.old), load_manifests(args.new)
    for path in sorted(old_man.keys() | new_man.keys()):
        if path not in new_man or path not in old_man:
            print(f"manifest only in {'OLD' if path in old_man else 'NEW'}: {path}")
            problems += 1
            continue
        for key, a, b in differences(strip_runtime(old_man[path]), strip_runtime(new_man[path])):
            print(f"manifest differs: {path}: {key}: {json.dumps(a)} -> {json.dumps(b)}")
            problems += 1

    print("timings, for information only (OLD -> NEW seconds):")
    for path in sorted(old_man.keys() & new_man.keys()):
        old_t, new_t = timings(old_man[path]), timings(new_man[path])
        for name in sorted(old_t.keys() & new_t.keys()):
            a, b = old_t[name], new_t[name]
            print(f"  {path} {name}: {a:.4f} -> {b:.4f} ({b - a:+.4f})")

    n_csv, n_man = len(old_csv.keys() | new_csv.keys()), len(old_man.keys() | new_man.keys())
    if problems:
        print(f"DIFFERENT: {problems} difference(s) over {n_csv} CSVs and {n_man} manifests")
        return 1
    print(f"SAME: {n_csv} CSVs and {n_man} manifests agree without run-time keys")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
