"""Line trace of production traffic: which statements of the package never run?

Runs the package's entry points under ``sys.settrace``, with only the frames
of ``src/mgdeform`` traced line by line:

- ``mgdeform run`` and ``mgdeform validate`` on 16x32 configs (four steps of
  dt = 5e-3) in the flat, conformal_radial (alpha = 0.5) and conformal_linear
  (k = 0.3, 0, 0.2) metrics;
- ``mgdeform bvp`` on manufactured 16x32 problems of index 1, 0 and -1;
- the benchmark's three workloads (``perfbench/workloads.py``) in smoke
  mode: set-up, the first operation and one cycle.

It then prints, per module, every statement that never ran, leaving out
``raise`` statements and docstrings.  ``--without-benchmark`` skips the
benchmark's workloads, so the difference of the two listings names what only
the benchmark keeps alive.

Run by hand from the repository root (pytest does not collect this file):

    python tests/traffic_trace.py [--without-benchmark]
"""

from __future__ import annotations

import argparse
import ast
import contextlib
import io
import os
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "mgdeform"

CONFIG = """
[metric]
{metric}
[surface]
cap = 0.5
ci_tol = 1e-5
[grid]
n_r = 16
n_theta = 32
[flow]
t_final = 0.02
dt = 0.005
"""
METRICS = {
    "flat": "kind = flat",
    "conformal_radial": "kind = conformal_radial\nalpha = 0.5",
    "conformal_linear": "kind = conformal_linear\nk1 = 0.3\nk2 = 0.0\nk3 = 0.2",
}


def statements(path):
    """(first line, lines of its own) of each statement of a module that can
    run: not a docstring, a ``raise`` or a ``global``/``nonlocal``
    declaration.  A compound statement owns its header lines (decorators
    included), not its body."""
    tree = ast.parse(path.read_text(), filename=str(path))
    skip = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0]
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant) \
                    and isinstance(first.value.value, str):
                skip.add(first)
    for node in ast.walk(tree):
        if not isinstance(node, ast.stmt) or node in skip \
                or isinstance(node, (ast.Raise, ast.Global, ast.Nonlocal)):
            continue
        start = min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", [])])
        body = getattr(node, "body", None)
        stop = max(node.lineno, body[0].lineno - 1) if body else node.end_lineno
        yield node.lineno, range(start, stop + 1)


def production_traffic(work):
    """``mgdeform run``, ``validate`` and ``bvp`` on the configs and problems
    of the module docstring, in the directory ``work``."""
    from helpers import manufactured_problem
    from mgdeform import cli
    from mgdeform.grid import DiskGrid
    from mgdeform.vekua import save_problem

    for name, metric in METRICS.items():
        cfg = work / f"{name}.cfg"
        cfg.write_text(CONFIG.format(metric=metric))
        cli.main(["--log-level", "quiet", "run", "--config", str(cfg),
                  "--out", str(work / f"out_{name}")])
        cli.main(["validate", "--config", str(cfg)])
    for n in (1, 0, -1):
        path = work / f"problem_{n}.txt"
        save_problem(path, manufactured_problem(DiskGrid(16, 32), n=n)[0])
        cli.main(["bvp", str(path)])


def benchmark_traffic(work):
    """Each benchmark workload in smoke mode: set-up, first operation and one
    cycle."""
    sys.path.insert(0, str(ROOT / "perfbench"))
    from workloads import WORKLOADS

    for name, workload in WORKLOADS.items():
        wl = workload(1, True, str(work / name), lambda key, value: None)
        wl.prepare(wl.setup())
        for op in [wl.first(), *wl.cycle()]:
            op.run()


def trace(with_benchmark):
    """Line numbers run per module file of the package."""
    prefix = str(PACKAGE) + os.sep
    hits = {}

    def local(frame, event, arg):
        if event == "line":
            hits.setdefault(frame.f_code.co_filename, set()).add(frame.f_lineno)
        return local

    def calls(frame, event, arg):
        return local if frame.f_code.co_filename.startswith(prefix) else None

    sys.path[:0] = [str(PACKAGE.parent), str(ROOT / "tests")]
    with tempfile.TemporaryDirectory(prefix="traffic_trace_") as tmp, \
            contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        sys.settrace(calls)
        try:
            import mgdeform
            production_traffic(Path(tmp))
            if with_benchmark:
                benchmark_traffic(Path(tmp))
        finally:
            sys.settrace(None)
    if not mgdeform.__file__.startswith(prefix):
        sys.exit(f"traced {mgdeform.__file__}, not the package under {PACKAGE}")
    return hits


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--without-benchmark", action="store_true",
                        help="trace the command line only, not the benchmark's workloads")
    args = parser.parse_args(argv)
    hits = trace(not args.without_benchmark)
    total = 0
    for path in sorted(PACKAGE.glob("*.py")):
        ran = hits.get(str(path), set())
        lines = path.read_text().splitlines()
        missed = [no for no, own in statements(path) if ran.isdisjoint(own)]
        total += len(missed)
        print(f"{path.name}: {len(missed)} statements never ran")
        for no in sorted(missed):
            print(f"  {path.name}:{no}: {lines[no - 1].strip()}")
    print(f"{total} statements never ran")
    return 0


if __name__ == "__main__":
    sys.exit(main())
