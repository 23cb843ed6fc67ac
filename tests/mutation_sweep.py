"""Mutation sweep of the numerical kernels: which sign flips does the suite miss?

For each line of the swept modules that holds ` + ` or ` - `, the first of
them is swapped for the other on a temporary copy of the repository, and the
tier-1 suite runs against that copy, stopping at its first failure.  A mutant
the suite passes is a survivor; each is printed as ``module.py:line: text``.
Survivors in docstrings or error text are expected; one in code is a gap in
the tests unless the swap is equivalent.

Run by hand from the repository root (pytest does not collect this file):

    python tests/mutation_sweep.py [--jobs 2] [--modules kpres cdot ...]

One mutant takes up to a full suite run, so the default sweep of six modules
(about 170 mutants) takes tens of minutes per job.
"""

from __future__ import annotations

import argparse
import os
import re
import shutil
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
MODULES = ("kpres", "gdef", "cdot", "transport", "surface", "metrics")
OPERATOR = re.compile(r" ([+-]) ")
SWAP = {"+": "-", "-": "+"}


def mutants(module):
    """(line number, mutated line) for each line holding ` + ` or ` - `."""
    lines = (ROOT / "src" / "mgdeform" / f"{module}.py").read_text().splitlines(True)
    for no, line in enumerate(lines, start=1):
        hit = OPERATOR.search(line)
        if hit:
            op = hit.group(1)
            yield no, line[:hit.start(1)] + SWAP[op] + line[hit.end(1):]


def _copy_repo(dest):
    # the whole tree: some tests read perfbench/ and the docs
    shutil.copytree(ROOT, dest, ignore=shutil.ignore_patterns(
        ".git", "__pycache__", "*.pyc", ".pytest_cache", ".hypothesis", ".bench_*",
        ".benchmarks", "out"))


def killed(copy, module, no, mutated, timeout):
    """Run the suite on ``copy`` with line ``no`` of ``module`` replaced by
    ``mutated`` (None runs it unchanged); True when a test fails or the run
    exceeds ``timeout`` seconds."""
    path = copy / "src" / "mgdeform" / f"{module}.py"
    original = path.read_text()
    if mutated is not None:
        lines = original.splitlines(True)
        lines[no - 1] = mutated
        path.write_text("".join(lines))
    env = dict(os.environ, PYTHONPATH=str(copy / "src"), PYTHONDONTWRITEBYTECODE="1")
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
             "--continue-on-collection-errors"],
            cwd=copy, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
            timeout=timeout)
        return proc.returncode != 0
    except subprocess.TimeoutExpired:
        return True
    finally:
        path.write_text(original)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--modules", nargs="+", default=list(MODULES))
    parser.add_argument("--jobs", type=int, default=1,
                        help="mutants run at once, each on its own copy")
    parser.add_argument("--timeout", type=float, default=600.0,
                        help="seconds before a mutant's run counts as killed")
    args = parser.parse_args(argv)
    work = [(m, no, text) for m in args.modules for no, text in mutants(m)]
    with tempfile.TemporaryDirectory(prefix="mutation_sweep_") as tmp:
        copies = []
        for k in range(max(1, args.jobs)):
            copy = Path(tmp) / f"copy{k}"
            _copy_repo(copy)
            copies.append(copy)

        if killed(copies[0], "kpres", 1, None, args.timeout):
            print("the suite fails on the unmutated copy; nothing swept")
            return 1

        def run(k):
            copy = copies[k % len(copies)]
            return [item for item in work[k::len(copies)]
                    if not killed(copy, *item, args.timeout)]

        with ThreadPoolExecutor(len(copies)) as pool:
            survivors = sorted(s for chunk in pool.map(run, range(len(copies))) for s in chunk)
    for module, no, text in survivors:
        print(f"{module}.py:{no}: {text.strip()}")
    print(f"{len(work)} mutants, {len(work) - len(survivors)} killed, "
          f"{len(survivors)} survived")
    return 0


if __name__ == "__main__":
    sys.exit(main())
