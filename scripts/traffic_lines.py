#!/usr/bin/env python3
"""List every statement of src/steerkit that the paper's traffic never runs.

Line-traces, in this process (sys.settrace, and threading.settrace for the
verification suite's worker threads), the traffic that reproduces the paper:

* the six shipped configs at `reproduce_all.py --quick` seed counts (a
  prefix of 40 seeds for the histogram figure, 1 otherwise) with one job,
  each through `steerkit run`;
* `configs/sweep_distance.json` once more with two jobs, so the process-pool
  branch counts as reached (the rows a worker runs are traced at one job);
* `steerkit verify --out`, so the report and manifest writes count too.

Given config paths, it traces only those, each run as written except that its
artifacts go to a temporary directory. Statements come from the source's
syntax tree: a compound statement counts as run when its header line runs,
and docstrings and bare constants, which compile to nothing, are not counted.
Each statement that never ran is printed under its module and function, with
`[error]` on a raise and on any line of an except clause, followed by the
totals. Exits 1 when a traced command fails, and 0 otherwise.

    PYTHONPATH=src python scripts/traffic_lines.py [CONFIG ...]
"""

import argparse
import ast
import contextlib
import io
import sys
import tempfile
import threading
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "steerkit"
SHIPPED = (
    "fig1.json",
    "sweep_distance.json",
    "sweep_map.json",
    "scale_distance.json",
    "single_synthetic.json",
    "single_distance.json",
)


class Statement:
    """One counted statement: the lines whose line event means it ran."""

    def __init__(self, node, function: str, error: bool):
        self.line = node.lineno
        self.function = function
        self.error = error
        body = getattr(node, "body", None)
        if isinstance(body, list) and body:  # compound: its header only
            first = min([node.lineno, *(d.lineno for d in getattr(node, "decorator_list", ()))])
            self.lines = range(first, body[0].lineno)
        else:
            self.lines = range(node.lineno, node.end_lineno + 1)


def statements(path: Path) -> list:
    """Every counted statement of one source file."""

    def walk(body, function, error):
        for node in body:
            if isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant):
                continue  # a docstring or a bare constant compiles to no code
            out.append(Statement(node, function, error or isinstance(node, ast.Raise)))
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                inner = node.name if function == "<module>" else f"{function}.{node.name}"
                walk(node.body, inner, error)
                continue
            for name in ("body", "orelse", "finalbody"):
                walk(getattr(node, name, []), function, error)
            for handler in getattr(node, "handlers", []):
                walk(handler.body, function, True)
            for case in getattr(node, "cases", []):
                walk(case.body, function, error)

    out = []
    walk(ast.parse(path.read_text(encoding="utf-8")).body, "<module>", False)
    return out


class LineTracer:
    """Records (file, line) for every line event in the package's files."""

    def __init__(self, files):
        self.files = set(files)
        self.seen = set()

    def _global(self, frame, event, arg):
        return self._local if frame.f_code.co_filename in self.files else None

    def _local(self, frame, event, arg):
        if event == "line":
            self.seen.add((frame.f_code.co_filename, frame.f_lineno))
        return self._local

    @contextlib.contextmanager
    def tracing(self):
        threading.settrace(self._global)
        sys.settrace(self._global)
        try:
            yield
        finally:
            sys.settrace(None)
            threading.settrace(None)


def traffic(configs, tmp: Path):
    """The argument lists of the steerkit commands to trace, in order."""
    from steerkit.harness import load_config

    def run(path: Path, out: str, *extra):
        return ["run", str(path), "--out", str(tmp / out), *extra]

    if configs:
        return [run(path, f"{i}-{path.stem}") for i, path in enumerate(configs)]
    commands = []
    for name in SHIPPED:
        path = ROOT / "configs" / name
        cfg = load_config(path)
        keep = 40 if cfg.experiment == "synthetic_fig1" else 1
        seeds = ["--seeds", ",".join(map(str, cfg.seeds[:keep]))]
        jobs = ["--jobs", "1"] if cfg.experiment in ("lr_sweep", "step_scaling") else []
        commands.append(run(path, path.stem, *seeds, *jobs))
        if name == "sweep_distance.json":
            commands.append(run(path, f"{path.stem}_jobs2", *seeds, "--jobs", "2"))
    commands.append(["verify", "--out", str(tmp / "verify")])
    return commands


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    ap.add_argument("configs", nargs="*", type=Path, help="trace only these configs")
    args = ap.parse_args()

    files = sorted(PACKAGE.glob("*.py"))
    tracer = LineTracer(str(p) for p in files)
    failed = []
    with tempfile.TemporaryDirectory() as tmp, tracer.tracing():
        from steerkit.cli import main as steerkit

        for argv in traffic(args.configs, Path(tmp)):
            with contextlib.redirect_stdout(io.StringIO()):
                code = steerkit(argv)
            if code != 0:
                failed.append((argv, code))

    total = missed = errors = 0
    for path in files:
        by_function = defaultdict(list)
        for st in statements(path):
            total += 1
            if not any((str(path), line) in tracer.seen for line in st.lines):
                by_function[st.function].append(st)
        if not by_function:
            continue
        source = path.read_text(encoding="utf-8").splitlines()
        count = sum(map(len, by_function.values()))
        print(f"{path.relative_to(ROOT)}: {count} never ran")
        for function, sts in by_function.items():
            print(f"  {function}")
            for st in sts:
                tag = "  [error]" if st.error else ""
                print(f"    {st.line:5d}  {source[st.line - 1].strip()}{tag}")
        missed += count
        errors += sum(st.error for sts in by_function.values() for st in sts)
    print(f"{missed} of {total} statements never ran: {errors} raise or handle an error, "
          f"{missed - errors} do not")
    for argv, code in failed:
        print(f"FAILED (exit {code}): steerkit {' '.join(argv)}", file=sys.stderr)
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
