"""Every statement of the package runs under the command line's traffic and
the benchmark's smoke workloads, unless it is an error path or allowlisted
with its reason (``tests/traffic_trace.py``, whose docstring says how to add
traffic or an allowlist entry)."""

import subprocess
import sys
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent / "traffic_trace.py"


def test_traffic_runs_every_statement_of_the_package():
    # a fresh interpreter: pytest has imported the package, and a trace
    # started now would miss every module-level statement
    done = subprocess.run([sys.executable, str(SCRIPT)], capture_output=True, text=True,
                          cwd=SCRIPT.parents[1], timeout=300)
    assert done.returncode == 0, done.stdout + done.stderr
