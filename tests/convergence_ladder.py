"""Convergence ladder of the flow's monitors over a grid ladder and a dt ladder.

One configuration, the cap-0.5 sphere with winding 1, mode 2 and epsilon
0.05 run to t_final = 0.02, runs through ``cli.main`` on every grid of the
ladder (16x32, 32x64, 64x128) at every step of the dt ladder (5e-3, 2.5e-3,
1.25e-3), in flat and in conformal_radial 0.5.  The script writes each
config, reads each run's ``trace.jsonl`` maxima and final snapshot, and
prints per metric:

- each monitor's maximum over the steps (curvature defect by formula and by
  the rebuild oracle, G and boundary residuals, |z(x0)|) on every grid and
  dt;
- on each grid, the observed order in dt, p = log2((m1 - m2) / (m2 - m3))
  over the three steps, and the Richardson floor m3 - (m2 - m3) / (2^p - 1),
  the value a monitor tends to as dt -> 0 on that grid;
- at the finest dt, the observed order over the grids the same way;
- at the finest dt, the nested split of each grid against the next
  (``reference.nested_split``): max|z - R z_fine| against the finer
  solution restricted to the coarse nodes, and the rebuild oracle's own
  grid error apart from the solution's error as the oracle sees it.

Run by hand from the repository root (pytest does not collect this file):

    python tests/convergence_ladder.py
    python tests/convergence_ladder.py --list    # print the planned runs, run none

The ladder makes 18 runs, the 64x128 ones the longest (several seconds
each on a 2-core host).
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

from mgdeform import cli  # noqa: E402

from reference import nested_split  # noqa: E402

GRIDS = (16, 32, 64)                 # n_r; n_theta = 2 n_r
DTS = (5e-3, 2.5e-3, 1.25e-3)
T_FINAL = 0.02
MONITORS = ("dk_max_rel", "dk_oracle_rel", "g_residual", "boundary_residual", "fixed_point_z")
METRICS = {
    "flat": "kind = flat",
    "conformal_radial": "kind = conformal_radial\nalpha = 0.5",
}
CONFIG = """[metric]
{metric}

[surface]
cap = 0.5
ci_tol = 1e-5

[grid]
n_r = {n_r}
n_theta = {n_theta}

[boundary]
winding = 1
epsilon = 0.05
mode = 2

[flow]
t_final = {t_final}
dt = {dt}
"""


def config(metric, n_r, dt):
    return CONFIG.format(metric=METRICS[metric], n_r=n_r, n_theta=2 * n_r,
                         t_final=T_FINAL, dt=dt)


def run(metric, n_r, dt, work):
    """The run's monitor maxima, and its surface and final displacement z
    (rebuilt from the last snapshot's a1, a2 and c, as the flow forms it)."""
    text = config(metric, n_r, dt)
    out = work / f"{metric}_{n_r}_{dt:g}"
    cfg = out.with_suffix(".cfg")
    cfg.write_text(text)
    with contextlib.redirect_stdout(io.StringIO()):
        rc = cli.main(["--log-level", "quiet", "run", "--config", str(cfg), "--out", str(out)])
    if rc not in (0, 3):    # 3: the run completed outside a tolerance
        sys.exit(f"{metric} {n_r}x{2 * n_r} dt={dt:g} exited {rc}")
    recs = [json.loads(line) for line in (out / "trace.jsonl").read_text().splitlines()]
    maxima = {name: max(r[name] for r in recs) for name in MONITORS}
    surface = cli.build_problem_objects(cli.parse_config(text))[0]
    cols = np.loadtxt(sorted(out.glob("step_*.tsv"))[-1])
    a1, a2, c = cols[:, 3], cols[:, 4], cols[:, 5]
    z = a1[:, None] * surface.y1 + a2[:, None] * surface.y2 + c[:, None] * surface.n
    return maxima, surface, z


def order_and_floor(m1, m2, m3):
    """Observed order of three values at halving steps, and the Richardson
    floor they tend to; None where the differences do not shrink."""
    if (m1 - m2) * (m2 - m3) <= 0 or abs(m2 - m3) >= abs(m1 - m2):
        return None, None
    p = math.log2((m1 - m2) / (m2 - m3))
    return p, m3 - (m2 - m3) / (2.0**p - 1.0)


def _fmt(value, spec=".3e"):
    return "-" if value is None else format(value, spec)


def report(metric, runs):
    print(f"== {metric}: monitor maxima, grid x dt ==")
    for name in MONITORS:
        print(f"{name}")
        for n_r in GRIDS:
            vals = [runs[n_r, dt][0][name] for dt in DTS]
            p, floor = order_and_floor(*vals)
            cells = "  ".join(f"{v:.3e}" for v in vals)
            print(f"  {n_r}x{2 * n_r}: {cells}  dt order {_fmt(p, '.2f')}  floor {_fmt(floor)}")
        p, floor = order_and_floor(*(runs[n_r, DTS[-1]][0][name] for n_r in GRIDS))
        print(f"  grid order at dt {DTS[-1]:g}: {_fmt(p, '.2f')}  floor {_fmt(floor)}")
    print(f"== {metric}: nested split at dt {DTS[-1]:g} ==")
    for coarse, fine in zip(GRIDS, GRIDS[1:]):
        _, cs, zc = runs[coarse, DTS[-1]]
        _, fs, zf = runs[fine, DTS[-1]]
        split = nested_split(cs, fs, zc, zf)
        print(f"  {coarse}x{2 * coarse} vs {fine}x{2 * fine}: max|z| {np.max(np.abs(zc)):.3e}  "
              f"max|z - R z_fine| {split['z']:.3e}  oracle's own error {split['oracle']:.3e}  "
              f"solution error the oracle sees {split['solution']:.3e}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--list", action="store_true", help="print the planned runs, run none")
    args = parser.parse_args(argv)
    plan = [(m, n_r, dt) for m in METRICS for n_r in GRIDS for dt in DTS]
    if args.list:
        for m, n_r, dt in plan:
            print(f"{m} {n_r}x{2 * n_r} dt={dt:g} steps={round(T_FINAL / dt)}")
        print(f"{len(plan)} runs")
        return 0
    with tempfile.TemporaryDirectory(prefix="convergence_ladder_") as tmp:
        for metric in METRICS:
            report(metric, {(n_r, dt): run(metric, n_r, dt, Path(tmp))
                            for n_r in GRIDS for dt in DTS})
    return 0


if __name__ == "__main__":
    sys.exit(main())
