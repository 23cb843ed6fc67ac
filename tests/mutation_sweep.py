"""Mutation sweep of the numerical kernels: which operator swaps does the suite miss?

For each line of the swept modules, the first binary ` + ` or ` - `
operator is swapped for the other, and so, as a mutant of its own, is the
first binary ` * ` or ` / `, each on a temporary copy of the repository;
the tier-1 suite runs against that copy, stopping at its first failure.
Operators are read with ``tokenize``, so no mutant lands in a docstring, a
comment or error text: every one is a change to the code.  A
mutant the suite passes is a survivor; each is printed as
``module.py:line: text``, and is a gap in the tests unless the swap is
equivalent.

Run by hand from the repository root (pytest does not collect this file):

    python tests/mutation_sweep.py [--jobs 2] [--modules kpres cdot ...]
    python tests/mutation_sweep.py --list    # print the mutants, run none

One mutant takes up to a full suite run, so the default sweep of six modules
(about 230 mutants) takes over an hour per job.
"""

from __future__ import annotations

import argparse
import io
import os
import shutil
import subprocess
import sys
import tempfile
import tokenize
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
MODULES = ("kpres", "gdef", "cdot", "transport", "surface", "metrics")
SWAP = {"+": "-", "-": "+", "*": "/", "/": "*"}


def mutants(module):
    """(line number, mutated line) for the first binary ` + ` or ` - ` token
    of each line's code, swapped, and for its first ` * ` or ` / `."""
    text = (ROOT / "src" / "mgdeform" / f"{module}.py").read_text()
    lines = text.splitlines(True)
    seen = set()
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        no, col = tok.start
        if tok.type != tokenize.OP or tok.string not in SWAP:
            continue
        key = (no, tok.string in "+-")
        line = lines[no - 1]
        # binary as the code spells it, with a space on either side; a unary
        # sign or star, as in ``-x``, ``(-1, 0)`` or ``*args``, is left alone,
        # and ``**``, ``//`` and the augmented assignments are other tokens
        if key not in seen and line[col - 1:col] == " " and line[col + 1:col + 2] == " ":
            seen.add(key)
            yield no, line[:col] + SWAP[tok.string] + line[col + 1:]


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
    parser.add_argument("--list", action="store_true",
                        help="print the mutants and their count without running them")
    args = parser.parse_args(argv)
    work = [(m, no, text) for m in args.modules for no, text in mutants(m)]
    if args.list:
        for module, no, text in work:
            print(f"{module}.py:{no}: {text.strip()}")
        print(f"{len(work)} mutants")
        return 0
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
