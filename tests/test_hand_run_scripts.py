"""The hand-run scripts stay runnable: pytest collects neither
``tests/mutation_sweep.py`` nor ``tests/convergence_ladder.py``, so their
``--list`` runs here, which reads every swept module and plans every run."""

import subprocess
import sys
from pathlib import Path

import pytest

TESTS = Path(__file__).resolve().parent


@pytest.mark.parametrize("script", ["mutation_sweep.py", "convergence_ladder.py"])
def test_script_lists_its_runs(script):
    done = subprocess.run([sys.executable, str(TESTS / script), "--list"],
                          capture_output=True, text=True, cwd=TESTS.parent, timeout=60)
    assert done.returncode == 0, done.stdout + done.stderr
    assert done.stdout.strip(), done.stderr
