"""Batch command line: configuration ingestion, runs, and exports.

Subcommands:
  run       execute a deformation flow from a config file and export the
            trace, optional per-step snapshots, and a summary
  bvp       solve a standalone boundary-value problem file
  validate  build the configured surface and report the hypothesis checks

Config grammar (documented, versioned v1): line-oriented sections
``[name]`` with ``key = value`` entries; ``#`` starts a comment.  Unknown
sections or keys, and values that fail to parse, are reported with their
line numbers.  ``emit_config(parse_config(text))`` is the canonical form.

Snapshot column order: node index, r, theta, a1, a2, c, dK, g_res1, g_res2.
Numbers are printed with 17 significant digits so reruns diff byte-exact.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass, field

import numpy as np

from . import __version__
from .errors import ConfigError, MgError
from .flow import BoundarySpec, FlowConfig, init_flow, run_flow
from .grid import DiskGrid
from .metrics import make_metric
from .surface import IMMERSION_KINDS, build_surface, make_immersion, validate_hypotheses
from .vekua import load_problem, save_solution, solve_family

_FMT = "%.17g"

# bound on |z(x0)|: the flow fixes x0 exactly, so only round-off may remain
FIXED_POINT_TOL = 1e-10

# section -> key -> (type, default); bool values are "true"/"false"
SCHEMA = {
    "metric": {
        "kind": (("flat", "conformal_linear", "conformal_radial"), "flat"),
        "k1": (float, 1.0),
        "k2": (float, 0.0),
        "k3": (float, 0.0),
        "alpha": (float, 0.5),
    },
    "surface": {
        "kind": (tuple(sorted(IMMERSION_KINDS)), "sphere_cap"),
        "radius": (float, 1.0),
        "cap": (float, 0.5),
        "curv": (float, 1.0),
        "ci_tol": (float, 1e-6),
    },
    "grid": {
        "n_r": (int, 48),
        "n_theta": (int, 96),
    },
    "boundary": {
        "tangent_kind": (("winding", "first_tangent"), "winding"),
        "winding": (int, 1),
        "phase": (float, 0.0),
        "gamma_kind": (("harmonic", "zero"), "harmonic"),
        "epsilon": (float, 1e-3),
        "mode": (int, 1),
        "gamma_phase": (float, 0.0),
    },
    "flow": {
        "t_final": (float, 0.05),
        "dt": (float, 0.0025),
        "tol_bvp": (float, 1e-10),
        "tol_cdot": (float, 1e-10),
        "max_iter_bvp": (int, 60),
        "max_iter_cdot": (int, 50),
        "tol_k": (float, 1e-4),
        "tol_g": (float, 1e-6),
        "tol_b": (float, 1e-6),
    },
    "output": {
        "directory": (str, "out"),
        "trace": (bool, True),
        "snapshots": (bool, True),
    },
}


@dataclass
class RunConfig:
    sections: dict = field(default_factory=dict)

    def __getitem__(self, sec):
        return self.sections[sec]


def _parse_value(raw, spec, line_no, key, errors):
    typ = spec[0]
    if isinstance(typ, tuple):
        if raw not in typ:
            errors.append((line_no, 1,
                           f"key {key!r}: invalid value {raw!r}; valid: {list(typ)}"))
            return spec[1]
        return raw
    if typ is bool:
        if raw.lower() in ("true", "1", "yes"):
            return True
        if raw.lower() in ("false", "0", "no"):
            return False
        errors.append((line_no, 1, f"key {key!r}: expected true/false, got {raw!r}"))
        return spec[1]
    try:
        return typ(raw)
    except ValueError:
        errors.append((line_no, 1,
                       f"key {key!r}: cannot parse {raw!r} as {typ.__name__}"))
        return spec[1]


def parse_config(text) -> RunConfig:
    """Parse and validate; raises ConfigError carrying (line, col, message)."""
    sections = {sec: {k: v[1] for k, v in keys.items()} for sec, keys in SCHEMA.items()}
    errors = []
    current = None
    for line_no, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            name = line[1:-1].strip()
            if name not in SCHEMA:
                errors.append((line_no, 1,
                               f"unknown section {name!r}; valid: {sorted(SCHEMA)}"))
                current = None
            else:
                current = name
            continue
        if "=" not in line:
            errors.append((line_no, 1, f"expected 'key = value', got {line!r}"))
            continue
        key, _, raw = line.partition("=")
        key = key.strip()
        raw = raw.strip()
        if current is None:
            errors.append((line_no, 1, f"key {key!r} outside any section"))
            continue
        if key not in SCHEMA[current]:
            errors.append((line_no, 1,
                           f"unknown key {key!r} in [{current}]; "
                           f"valid: {sorted(SCHEMA[current])}"))
            continue
        sections[current][key] = _parse_value(raw, SCHEMA[current][key],
                                              line_no, key, errors)
    if errors:
        raise ConfigError(errors)
    for key in ("t_final", "dt", "tol_bvp", "tol_cdot", "tol_k", "tol_g", "tol_b"):
        if sections["flow"][key] <= 0:
            raise ConfigError([(0, 0, f"flow.{key} must be positive")])
    if sections["boundary"]["epsilon"] <= 0:
        raise ConfigError([(0, 0, "boundary.epsilon must be positive")])
    return RunConfig(sections=sections)


def emit_config(cfg: RunConfig) -> str:
    """Canonical text form; emit(parse(x)) == emit(parse(emit(parse(x))))."""
    lines = []
    for sec in SCHEMA:
        lines.append(f"[{sec}]")
        for key in SCHEMA[sec]:
            val = cfg.sections[sec][key]
            if isinstance(val, bool):
                txt = "true" if val else "false"
            elif isinstance(val, float):
                txt = _FMT % val
            else:
                txt = str(val)
            lines.append(f"{key} = {txt}")
        lines.append("")
    return "\n".join(lines)


def build_problem_objects(cfg: RunConfig):
    m = cfg["metric"]
    metric = make_metric(m["kind"], m)
    grid = DiskGrid(cfg["grid"]["n_r"], cfg["grid"]["n_theta"])
    s = cfg["surface"]
    immersion = make_immersion(s["kind"], s)
    surface = build_surface(immersion, metric, grid, ci_tol=s["ci_tol"])
    b = cfg["boundary"]
    boundary = BoundarySpec(
        tangent_kind=b["tangent_kind"], winding=b["winding"], phase=b["phase"],
        gamma_kind=b["gamma_kind"], epsilon=b["epsilon"], mode=b["mode"],
        gamma_phase=b["gamma_phase"],
    )
    f = cfg["flow"]
    flow_cfg = FlowConfig(
        t_final=f["t_final"], dt=f["dt"],
        tol_bvp=f["tol_bvp"], tol_cdot=f["tol_cdot"],
        max_iter_bvp=f["max_iter_bvp"], max_iter_cdot=f["max_iter_cdot"],
        tol_K=f["tol_k"], tol_G=f["tol_g"], tol_B=f["tol_b"],
    )
    return metric, surface, boundary, flow_cfg


def _json_default(o):
    if isinstance(o, (np.floating, np.integer)):
        return o.item()
    if isinstance(o, np.ndarray):
        return o.tolist()
    raise TypeError(f"not serializable: {type(o)}")


def _write_snapshot(path, grid, fields):
    cols = ["a1", "a2", "c", "dK", "g_res1", "g_res2"]
    with open(path, "w") as fh:
        fh.write("# node r theta " + " ".join(cols) + "\n")
        for node in range(grid.n_nodes):
            row = [str(node), _FMT % grid.r[node], _FMT % grid.theta[node]]
            row += [_FMT % fields[c][node] for c in cols]
            fh.write(" ".join(row) + "\n")


def within_tolerances(report, flow_cfg):
    """True when a flow report holds every monitored bound: the curvature
    defect by formula and by the rebuild oracle, both residuals, and the
    fixed point."""
    return bool(
        report["steps"]
        and report["max_dk_rel"] <= flow_cfg.tol_K
        and report["max_dk_oracle_rel"] <= flow_cfg.tol_K
        and report["max_g_residual"] <= flow_cfg.tol_G
        and report["max_boundary_residual"] <= flow_cfg.tol_B
        and report["max_fixed_point_z"] <= FIXED_POINT_TOL
    )


def run_from_config(cfg: RunConfig, out_dir=None, log=print):
    out_dir = out_dir or cfg["output"]["directory"]
    os.makedirs(out_dir, exist_ok=True)
    metric, surface, boundary, flow_cfg = build_problem_objects(cfg)
    hyp = validate_hypotheses(surface)
    flow_cfg.capture_fields = cfg["output"]["snapshots"]
    state = init_flow(metric, surface, boundary, flow_cfg)
    trace_path = os.path.join(out_dir, "trace.jsonl")
    trace_fh = open(trace_path, "w") if cfg["output"]["trace"] else None

    def on_step(rec):
        if trace_fh:
            trace_fh.write(json.dumps(rec.as_dict(), default=_json_default))
            trace_fh.write("\n")
        if rec.fields is not None:
            _write_snapshot(
                os.path.join(out_dir, f"step_{rec.step:04d}.tsv"),
                surface.grid, rec.fields,
            )
        log(f"step {rec.step}: t={rec.t_new:.6g} "
            f"dK/K={rec.dk_max_rel:.3e} G={rec.g_residual:.3e} "
            f"B={rec.boundary_residual:.3e}")

    try:
        report = run_flow(state, on_step)
    finally:
        if trace_fh:
            trace_fh.close()
    report["within_tolerances"] = within_tolerances(report, flow_cfg)
    summary = {
        "version": __version__,
        "config": cfg.sections,
        "hypothesis_report": hyp,
        "flow_report": report,
    }
    with open(os.path.join(out_dir, "summary.json"), "w") as fh:
        json.dump(summary, fh, indent=1, sort_keys=True, default=_json_default)
        fh.write("\n")
    return summary


def cmd_run(args):
    with open(args.config) as fh:
        cfg = parse_config(fh.read())
    log = print if args.log_level != "quiet" else (lambda *a, **k: None)
    summary = run_from_config(cfg, out_dir=args.out, log=log)
    ok = summary["flow_report"]["within_tolerances"]
    log(json.dumps(summary["flow_report"], default=_json_default, indent=1))
    return 0 if ok else 3


def cmd_bvp(args):
    problem = load_problem(args.problem)
    # the written basis_k are homogeneous solutions of the full problem
    fam, _ = solve_family(problem, tol=args.tol, mode="auto")
    out = args.out or (os.path.splitext(args.problem)[0] + ".solution.txt")
    save_solution(out, fam)
    print(f"index {fam.n}, family dimension {fam.dimension}, "
          f"iterations {fam.iterations} ({fam.mode}), "
          f"boundary residual {fam.boundary_residual:.3e}")
    return 0


def cmd_validate(args):
    with open(args.config) as fh:
        cfg = parse_config(fh.read())
    _, surface, _, _ = build_problem_objects(cfg)
    rep = validate_hypotheses(surface)
    print(json.dumps(rep, indent=1, sort_keys=True, default=_json_default))
    return 0 if rep["ok"] else 3


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="mgdeform",
        description="curvature-product-preserving deformations of disk surfaces",
    )
    parser.add_argument("--log-level", default="info", choices=["info", "quiet"])
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute a flow from a config file")
    p_run.add_argument("--config", required=True)
    p_run.add_argument("--out", default=None)
    p_run.set_defaults(func=cmd_run)

    p_bvp = sub.add_parser("bvp", help="solve a standalone problem file")
    p_bvp.add_argument("problem")
    p_bvp.add_argument("--out", default=None)
    p_bvp.add_argument("--tol", type=float, default=1e-10)
    p_bvp.set_defaults(func=cmd_bvp)

    p_val = sub.add_parser("validate", help="check the configured surface")
    p_val.add_argument("--config", required=True)
    p_val.set_defaults(func=cmd_validate)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print("configuration errors:", file=sys.stderr)
        for ln, col, msg in exc.errors:
            print(f"  line {ln}, col {col}: {msg}", file=sys.stderr)
        return 1
    except (MgError, OSError) as exc:
        print(json.dumps({"error": type(exc).__name__, "message": str(exc)}),
              file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
