"""Every top-level function and class of the package has a caller.

A name is used when some ``ast.Name`` or ``ast.Attribute`` outside its own
definition refers to it, in ``src/mgdeform`` or in the benchmark's
``perfbench/*.py``.  Code only the tests call belongs in ``tests/reference.py``.
"""

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = sorted((ROOT / "src" / "mgdeform").glob("*.py"))
CALLERS = PACKAGE + sorted((ROOT / "perfbench").glob("*.py"))


def _referenced(tree):
    """Names that the ``Name`` and ``Attribute`` nodes of ``tree`` refer to."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr


def test_every_top_level_definition_is_used():
    assert PACKAGE, f"no package sources under {ROOT / 'src' / 'mgdeform'}"
    trees = {path: ast.parse(path.read_text(), filename=str(path)) for path in CALLERS}
    uses = Counter(name for tree in trees.values() for name in _referenced(tree))
    unused = []
    for path in PACKAGE:
        for node in trees[path].body:
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            own = sum(1 for name in _referenced(node) if name == node.name)
            if uses[node.name] == own:
                unused.append(f"{path.name}: {node.name}")
    assert not unused, "defined but never used outside its definition: " + ", ".join(unused)
