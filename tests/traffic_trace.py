"""Line trace of the package's traffic: every statement of ``src/mgdeform``
runs, unless it is an error path or an allowlisted one.

The traffic runs in this interpreter, with only the frames of
``src/mgdeform`` traced line by line (``sys.settrace``):

- the command line over every shipped kind (``cli_traffic``): 16x32 flows
  of four steps in the flat, conformal_radial and conformal_linear metrics,
  with ``validate`` on each; the plane in conformal_linear, with
  ``validate``; flat plane and paraboloid surfaces, the
  paraboloid with curv = 1 and -1 (built with its normal flipped); a
  ``first_tangent`` flow with a zero rate; windings -1 and -2, and 40,
  which the 32 rim samples cannot resolve (exit 2); a conformal_radial
  flow of mode 2 and epsilon 0.05 over 10 steps, whose cdot solves
  contract; and a flow held to tol_k = 1e-12 (exit 3).  One
  ``validate`` goes through the module's ``__main__`` line;
- the user errors the command line reports: every configuration error in
  one file, each spelling of a bool key, a missing file and each
  problem-file format error;
- ``mgdeform bvp`` on manufactured problems of index 1, 0 and -1,
  round-off-source problems of index -1 and -2, and a file holding only
  lambda and phi;
- the benchmark's three workloads (``perfbench/workloads.py``) in smoke
  mode: set-up, the first operation and one cycle.

A statement that never ran fails the trace, unless
- it is an error path: it lies in a body, ``else``, ``except`` handler or
  ``finally`` whose last statement is a ``raise``;
- it is a ``raise``, a docstring or a ``global``/``nonlocal`` declaration;
- or ``ALLOWED`` names it by module, function and statement text, with the
  reason it stays.  An allowlisted statement that runs, or that its
  function no longer holds, fails the trace as well.

A lambda that is never called fails the trace as well; lambdas that start
on one line count as one, and a conditional expression counts as run with
the statement that holds it.  A command that exits other than its case
expects fails the trace too.  To
keep new code in the package, add a case to ``cli_traffic`` that runs it;
code that no command can reach (an override point for plug-ins the package
does not ship) takes an ``ALLOWED`` entry instead.

Run from the repository root (``tests/test_traffic_trace.py`` runs it in a
fresh interpreter, since a trace started after the package is imported
misses every module-level statement):

    python tests/traffic_trace.py [--without-benchmark]

It lists what fails and exits 1 if anything does.  ``--without-benchmark``
skips the benchmark's workloads, so the statements it adds to the listing
are those only the benchmark keeps alive.
"""

from __future__ import annotations

import argparse
import ast
import contextlib
import io
import os
import runpy
import sys
import tempfile
import warnings
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "mgdeform"

# (module, function) -> (why no traffic runs it, the statements' texts)
_GENERAL_PATH = ("the general path for a metric plug-in that supplies only metric and "
                 "dmetric, the paper's Riemannian setting; the shipped metrics override "
                 "it, and tests/helpers.RadialWarpedMetric runs it")
ALLOWED = {
    ("metrics", "AmbientMetric.christoffel_contract"): (_GENERAL_PATH, (
        "y = np.asarray(y, dtype=float)",
        "a = self.metric(y)",
        "ok, det = check_positive_definite(a)",
        "_require_positive(ok, det)",
        "da = node_last(self.dmetric(y).reshape((-1, 3, 3, 3)))   # (a, b, s, n)",
        "ainv = node_last(np.linalg.inv(a).reshape((-1, 3, 3)))",
        "low = 0.5 * (np.transpose(da, (2, 1, 0, 3)) + np.transpose(da, (1, 2, 0, 3)) - da)",
        'gamma = np.einsum("gmn,abmn->gabn", ainv, low)',
        'out = np.einsum("gabn,an->gbn", gamma, np.reshape(u, (3, -1)))',
        "return out.reshape((3, 3) + y.shape[:-1])",
    )),
    ("metrics", "AmbientMetric.dmetric_contract"): (_GENERAL_PATH, (
        "y = np.asarray(y, dtype=float)",
        "da = node_last(self.dmetric(y).reshape((-1, 3, 3, 3)))   # (a, b, s, n)",
        'out = np.einsum("absn,sn->abn", da, np.reshape(u, (3, -1)))',
        "return out.reshape((3, 3) + y.shape[:-1])",
    )),
    ("metrics", "check_positive_definite"): (_GENERAL_PATH, (
        "m1 = a[..., 0, 0]",
        "m2 = a[..., 0, 0] * a[..., 1, 1] - a[..., 0, 1] * a[..., 1, 0]",
        "m3 = np.linalg.det(a)",
        "ok = (m1 > 0) & (m2 > 0) & (m3 > 1e-14)",
        "return ok, m3",
    )),
    ("surface", "raw_fundamental_forms"): (
        "the normal a^-1 (y1 x y2) of a metric that is not a scalar multiple of the "
        "identity, which no shipped metric is; tests/helpers.RadialWarpedMetric runs it",
        ("n = node_last(np.linalg.solve(a, n.T[..., None])[..., 0])",)),
    ("vekua", "_bad_row"): (
        "the fallback for a token that NumPy's text reader rejects and _FLOAT accepts; "
        "no such token is known",
        ("return None",)),
}

CONFIG = """
[metric]
{metric}
[surface]
{surface}
[grid]
n_r = 16
n_theta = 32
[boundary]
{boundary}
[flow]
t_final = {t_final}
dt = 0.005
{flow}
[output]
{output}
"""
METRICS = {
    "flat": "kind = flat",
    "conformal_radial": "kind = conformal_radial\nalpha = 0.5",
    "conformal_linear": "kind = conformal_linear\nk1 = 0.3\nk2 = 0.0\nk3 = 0.2",
}
CAP = "cap = 0.5\nci_tol = 1e-5"

# one of each error parse_config reports, by line
CONFIG_ERRORS = """stray = 1
[nosuch]
[metric]
kind = curved
a line without an equals sign
[grid]
n_r = sixteen
[flow]
dt = nan
t_final = -0.02
tol_bvp = 1e-10
[output]
snapshots = maybe
"""

# problem-file text -> text with one format error, each a FormatError (exit 2)
FORMAT_ERRORS = {
    "unknown_block": lambda t: t.replace("begin psi\n", "begin psy\n"),
    "repeated_block": lambda t: t + "begin phi\n1\nend\n",
    "unterminated_block": lambda t: t[: t.rindex("end\n")],
    "text_between_blocks": lambda t: t.replace("begin phi\n", "stray\nbegin phi\n"),
    "bad_header_line": lambda t: t.replace("n_r 16\n", "n_r 16 17\n"),
    "repeated_header_key": lambda t: t.replace("n_r 16\n", "n_r 16\nn_r 16\n"),
    "empty_file": lambda t: "# only a comment\n",
    "unknown_header_key": lambda t: t.replace("n_r 16\n", "n_r 16\nn_z 4\n"),
    "missing_header_key": lambda t: t.replace("n_theta 32\n", ""),
    "bad_header_value": lambda t: t.replace("n_r 16\n", "n_r sixteen\n"),
    "e_swap_2": lambda t: t.replace("e_swap 0\n", "e_swap 2\n"),
    "x0_node_1": lambda t: t.replace("x0_node 0\n", "x0_node 1\n"),
    "no_phi_block": lambda t: _drop_block(t, "phi"),
    "block_without_rows": lambda t: _set_rows(t, "psi", "# no rows\n"),
    "comment_after_value": lambda t: _edit_row(t, "phi", 0, lambda row: row + " # note"),
    "ragged_rows": lambda t: _edit_row(t, "A", 0, lambda row: row + " 0", drop_next=True),
    "bad_literal": lambda t: _edit_row(t, "phi", 2, lambda row: "1_0", comment_first=True),
    "missing_row": lambda t: _edit_row(t, "phi", 0, lambda row: None),
    "non_finite_sample": lambda t: _edit_row(t, "B", 3, lambda row: "nan 0"),
}


def _block_span(text, name):
    start = text.index(f"begin {name}\n") + len(f"begin {name}\n")
    return start, text.index("end\n", start)


def _set_rows(text, name, rows):
    start, stop = _block_span(text, name)
    return text[:start] + rows + text[stop:]


def _drop_block(text, name):
    start, stop = _block_span(text, name)
    return text[: start - len(f"begin {name}\n")] + text[stop + len("end\n"):]


def _edit_row(text, name, k, edit, drop_next=False, comment_first=False):
    """The block's row k replaced by ``edit(row)`` (dropped for None), the
    row after it dropped too with ``drop_next``, and a comment line put
    before the block's rows with ``comment_first``."""
    start, stop = _block_span(text, name)
    rows = text[start:stop].splitlines()
    new = edit(rows[k])
    rows[k: k + 1 + drop_next] = [] if new is None else [new]
    return _set_rows(text, name, ("# rows follow\n" if comment_first else "")
                     + "".join(row + "\n" for row in rows))


def config(metric="flat", surface=CAP, boundary="", t_final=0.02, flow="", output=""):
    return CONFIG.format(metric=METRICS[metric], surface=surface, boundary=boundary,
                         t_final=t_final, flow=flow, output=output)


def cli_traffic(work):
    """(name, argv, expected exit code) of every command, with the files it
    reads written to ``work``."""
    import numpy as np
    from helpers import manufactured_problem
    from mgdeform.grid import DiskGrid
    from mgdeform.vekua import BoundaryProblem, save_problem

    cases = []

    def command(name, argv, rc, text=None):
        if text is not None:
            (work / name).write_text(text)
        cases.append((name, [arg.replace("{}", str(work / name)) for arg in argv], rc))

    def flow(name, rc, validate=None, **cfg):
        command(name, ["--log-level", "quiet", "run", "--config", "{}",
                       "--out", str(work / f"out_{name}")], rc, config(**cfg))
        if validate is not None:
            command(name, ["validate", "--config", "{}"], validate)

    for metric in METRICS:
        flow(metric, 0, validate=0, metric=metric)
    flow("plane_conformal_linear", 0, validate=0, metric="conformal_linear",
         surface="kind = plane")
    flow("plane_flat", 2, validate=2, surface="kind = plane")
    for curv in (1, -1):
        flow(f"paraboloid_{curv}", 0, surface=f"kind = paraboloid\ncurv = {curv}")
    flow("first_tangent", 0, boundary="tangent_kind = first_tangent\ngamma_kind = zero")
    flow("winding_-1", 2, boundary="winding = -1")
    flow("winding_-2", 2, boundary="winding = -2")
    flow("winding_40", 2, boundary="winding = 40")
    flow("mode_2", 3, metric="conformal_radial", boundary="epsilon = 0.05\nmode = 2",
         t_final=0.05)
    flow("tol_k", 3, flow="tol_k = 1e-12")
    for spelling in ("true", "false", "yes", "no", "1", "0"):
        command(f"bool_{spelling}.cfg", ["validate", "--config", "{}"], 0,
                config(output=f"snapshots = {spelling}"))
    command("config_errors.cfg", ["validate", "--config", "{}"], 1, CONFIG_ERRORS)
    command("missing.cfg", ["validate", "--config", "{}"], 2)

    grid = DiskGrid(16, 32)
    for n in (1, 0, -1):
        path = work / f"problem_{n}.txt"
        save_problem(path, manufactured_problem(grid, n=n)[0])
        command(path.name, ["bvp", "{}"], 2 if n < 0 else 0)
    rng = np.random.default_rng(0)
    for n in (-1, -2):
        # a source at the round-off floor: its solvability residuals pass
        psi = 1e-16 * (rng.normal(size=grid.n_nodes) + 1j * rng.normal(size=grid.n_nodes))
        save_problem(work / f"roundoff_{n}.txt", BoundaryProblem(
            grid=grid, lam=np.exp(1j * n * grid.boundary_theta), phi=np.zeros(grid.n_theta),
            A=np.full(grid.n_nodes, 0.3 + 0j), B=np.full(grid.n_nodes, 0.2 + 0j), psi=psi))
        command(f"roundoff_{n}.txt", ["bvp", "{}"], 0)
    th = grid.boundary_theta
    save_problem(work / "lambda_phi.txt",
                 BoundaryProblem(grid=grid, lam=np.exp(1j * th), phi=np.cos(th)))
    text = (work / "lambda_phi.txt").read_text()
    command("lambda_phi.txt", ["bvp", "{}"], 0,
            text.replace("begin phi\n", "begin phi\n# the end of lambda\n"))
    text = (work / "problem_1.txt").read_text()
    for name, edit in FORMAT_ERRORS.items():
        command(f"format_{name}.txt", ["bvp", "{}"], 2, edit(text))
    command("missing.txt", ["bvp", "{}"], 2)
    return cases


def run_cli(cases):
    """Run each case through ``cli.main``, the first one also as the module's
    ``__main__``; the cases whose exit code differs from the expected one."""
    from mgdeform import cli

    wrong = []
    for name, argv, rc in cases:
        got = cli.main(argv)
        if got != rc:
            wrong.append(f"{name}: {' '.join(argv)} exited {got}, not {rc}")
    name, argv, rc = cases[0]
    saved = sys.argv
    sys.argv = ["mgdeform", *argv]
    try:
        with warnings.catch_warnings():
            # runpy warns that the package already imported the module
            warnings.simplefilter("ignore", RuntimeWarning)
            runpy.run_module("mgdeform.cli", run_name="__main__")
    except SystemExit as exc:
        if exc.code != rc:
            wrong.append(f"{name} as __main__ exited {exc.code}, not {rc}")
    finally:
        sys.argv = saved
    return wrong


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
    """(line numbers run, first lines of the lambdas called), each per module
    file of the package, and the wrong exits."""
    prefix = str(PACKAGE) + os.sep
    hits, entered = {}, {}

    def local(frame, event, arg):
        if event == "line":
            hits.setdefault(frame.f_code.co_filename, set()).add(frame.f_lineno)
        return local

    def calls(frame, event, arg):
        code = frame.f_code
        if not code.co_filename.startswith(prefix):
            return None
        if code.co_name == "<lambda>":
            entered.setdefault(code.co_filename, set()).add(code.co_firstlineno)
        return local

    sys.path[:0] = [str(PACKAGE.parent), str(ROOT / "tests")]
    with tempfile.TemporaryDirectory(prefix="traffic_trace_") as tmp, \
            contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        sys.settrace(calls)
        try:
            import mgdeform
            wrong = run_cli(cli_traffic(Path(tmp)))
            if with_benchmark:
                benchmark_traffic(Path(tmp))
        finally:
            sys.settrace(None)
    if not mgdeform.__file__.startswith(prefix):
        sys.exit(f"traced {mgdeform.__file__}, not the package under {PACKAGE}")
    return hits, entered, wrong


def _error_paths(tree):
    """Statements inside a body, ``else``, handler or ``finally`` whose last
    statement is a ``raise``.  A function's own body is no such block: the
    statements before its final ``raise`` return normally."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for field in ("body", "orelse", "finalbody"):
            block = getattr(node, field, None)
            if isinstance(block, list) and block and isinstance(block[-1], ast.Raise):
                out.update(n for stmt in block for n in ast.walk(stmt)
                           if isinstance(n, ast.stmt))
    return out


def statements(path):
    """(first line, lines of its own, function) of each statement of a
    module that can run and is no error path: not a docstring, a ``raise``
    or a ``global``/``nonlocal`` declaration.  A compound statement owns its
    header lines (decorators included), not its body; the function is the
    dotted name of the innermost enclosing definition ("" at module level)."""
    tree = ast.parse(path.read_text(), filename=str(path))
    skip = _error_paths(tree)
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0]
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant) \
                    and isinstance(first.value.value, str):
                skip.add(first)

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.stmt) and child not in skip \
                    and not isinstance(child, (ast.Raise, ast.Global, ast.Nonlocal)):
                decorators = getattr(child, "decorator_list", [])
                start = min([child.lineno] + [d.lineno for d in decorators])
                body = getattr(child, "body", None)
                stop = max(child.lineno, body[0].lineno - 1) if body else child.end_lineno
                yield child.lineno, range(start, stop + 1), scope
            inner = scope
            if isinstance(child, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
                inner = f"{scope}.{child.name}" if scope else child.name
            yield from visit(child, inner)

    yield from visit(tree, "")


def lambdas(path):
    """First line of each lambda of a module outside an error path."""
    tree = ast.parse(path.read_text(), filename=str(path))
    inside = {id(n) for stmt in _error_paths(tree) for n in ast.walk(stmt)}
    return sorted({n.lineno for n in ast.walk(tree)
                   if isinstance(n, ast.Lambda) and id(n) not in inside})


def check(hits, entered):
    """Lines that fail the contract: statements never run and not allowed,
    allowed statements that ran, allowed statements that are gone, and
    lambdas never called (a lambda runs apart from the line that makes it;
    lambdas that share a first line count as one)."""
    failures = []
    allowed = {(module, func, text) for (module, func), (_, texts) in ALLOWED.items()
               for text in texts}
    unused = set(allowed)
    for path in sorted(PACKAGE.glob("*.py")):
        ran = hits.get(str(path), set())
        lines = path.read_text().splitlines()
        for no, own, func in sorted(statements(path)):
            key = (path.stem, func, lines[no - 1].strip())
            unused.discard(key)
            if key in allowed:
                if not ran.isdisjoint(own):
                    failures.append(f"{path.name}:{no}: allowlisted but ran: {key[2]}")
            elif ran.isdisjoint(own):
                failures.append(f"{path.name}:{no}: never ran: {key[2]}")
        called = entered.get(str(path), set())
        failures += [f"{path.name}:{no}: lambda never called: {lines[no - 1].strip()}"
                     for no in lambdas(path) if no not in called]
    failures += [f"{module}.py: {func}: allowlisted but not found: {text}"
                 for module, func, text in sorted(unused)]
    return failures


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--without-benchmark", action="store_true",
                        help="trace the command line only, not the benchmark's workloads")
    args = parser.parse_args(argv)
    hits, entered, wrong = trace(not args.without_benchmark)
    failures = wrong + check(hits, entered)
    for line in failures:
        print(line)
    print(f"{len(failures)} failures; {len(ALLOWED)} allowlisted functions")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
