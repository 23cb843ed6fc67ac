"""Batch command line: configuration ingestion, runs, and exports.

Subcommands:
  run       execute a deformation flow from a config file and export the
            trace, optional per-step snapshots, and a summary
  bvp       solve a standalone boundary-value problem file
  validate  build the configured surface and report the hypothesis checks

Config grammar (documented, versioned v1): line-oriented sections
``[name]`` with ``key = value`` entries; ``#`` starts a comment.  Unknown
sections or keys, values that fail to parse, non-finite floats and
non-positive values of the keys that must be positive are all reported, each
with its line number.  The [boundary] and [flow] sections are
the fields of ``BoundarySpec`` and ``FlowConfig``, with their defaults.

Snapshot column order: node index, r, theta, a1, a2, c, dK, g_res1, g_res2.
Numbers are printed with 17 significant digits so reruns diff byte-exact.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import typing
from dataclasses import fields

import numpy as np

from . import __version__
from .errors import ConfigError, MgError
from .flow import GAMMA_KINDS, TANGENT_KINDS, BoundarySpec, FlowConfig, init_flow, run_flow
from .grid import DiskGrid
from .metrics import METRIC_KINDS, make_metric
from .surface import (
    CI_TOL,
    IMMERSION_KINDS,
    build_surface,
    make_immersion,
    validate_hypotheses,
)
from .vekua import load_problem, save_solution, solve_family


# bound on |z(x0)|: the flow fixes x0 exactly, so only round-off may remain
FIXED_POINT_TOL = 1e-10


def _fields_section(cls, kinds):
    """Schema of a section that is dataclass ``cls``: each field's type, or
    its tuple of kinds from ``kinds``, and its default."""
    hints = typing.get_type_hints(cls)
    return {f.name: (kinds.get(f.name, hints[f.name]), f.default) for f in fields(cls)}


# section -> key -> (type, default); bool values are "true"/"false"
SCHEMA = {
    "metric": {
        "kind": (tuple(METRIC_KINDS), "flat"),
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
        "ci_tol": (float, CI_TOL),
    },
    "grid": {
        "n_r": (int, 48),
        "n_theta": (int, 96),
    },
    "boundary": _fields_section(BoundarySpec, {"tangent_kind": tuple(TANGENT_KINDS),
                                               "gamma_kind": tuple(GAMMA_KINDS)}),
    "flow": _fields_section(FlowConfig, {}),
    "output": {
        "trace": (bool, True),
        "snapshots": (bool, True),
    },
}

# keys whose values must be positive, as their defaults are
POSITIVE_KEYS = {"flow.t_final", "flow.dt", "flow.tol_k", "flow.tol_g", "flow.tol_b",
                 "boundary.epsilon", "surface.ci_tol"}


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
        value = typ(raw)
    except ValueError:
        errors.append((line_no, 1,
                       f"key {key!r}: cannot parse {raw!r} as {typ.__name__}"))
        return spec[1]
    if typ is float and not math.isfinite(value):
        errors.append((line_no, 1, f"key {key!r}: {raw!r} is not finite"))
        return spec[1]
    return value


def parse_config(text) -> dict:
    """Parse and validate into section -> key -> value, every key present;
    raises ConfigError carrying (line, col, message)."""
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
        value = _parse_value(raw, SCHEMA[current][key], line_no, key, errors)
        if f"{current}.{key}" in POSITIVE_KEYS and value <= 0:
            errors.append((line_no, 1, f"key {key!r}: {current}.{key} must be positive"))
        sections[current][key] = value
    if errors:
        raise ConfigError(errors)
    return sections


def build_problem_objects(cfg: dict):
    """(surface, boundary, flow config) of a parsed config; the surface
    carries the configured metric, as ``init_flow`` reads it."""
    m = cfg["metric"]
    metric = make_metric(m["kind"], m)
    grid = DiskGrid(cfg["grid"]["n_r"], cfg["grid"]["n_theta"])
    s = cfg["surface"]
    immersion = make_immersion(s["kind"], s)
    surface = build_surface(immersion, metric, grid, ci_tol=s["ci_tol"])
    return surface, BoundarySpec(**cfg["boundary"]), FlowConfig(**cfg["flow"])


def _json_default(o):
    if isinstance(o, (np.floating, np.integer)):
        return o.item()
    if isinstance(o, np.ndarray):
        return o.tolist()
    raise TypeError(f"not serializable: {type(o)}")


def _write_snapshot(path, grid, fields):
    cols = ["a1", "a2", "c", "dK", "g_res1", "g_res2"]
    table = np.column_stack([np.arange(grid.n_nodes), grid.r, grid.theta]
                            + [fields[c] for c in cols])
    np.savetxt(path, table, fmt=["%d"] + ["%.17g"] * 8,
               header="node r theta " + " ".join(cols), comments="# ")


def within_tolerances(report, flow_cfg):
    """True when a flow report holds every monitored bound: the curvature
    defect by formula and by the rebuild oracle, both residuals, and the
    fixed point where the flow fixes one (index n >= 1; for n <= 0 the
    2n - 1 point conditions are void, so |z(x0)| is only reported)."""
    return bool(
        report["steps"]
        and report["max_dk_rel"] <= flow_cfg.tol_k
        and report["max_dk_oracle_rel"] <= flow_cfg.tol_k
        and report["max_g_residual"] <= flow_cfg.tol_g
        and report["max_boundary_residual"] <= flow_cfg.tol_b
        and (report["index"] <= 0 or report["max_fixed_point_z"] <= FIXED_POINT_TOL)
    )


def run_from_config(cfg: dict, out_dir, log=print):
    surface, boundary, flow_cfg = build_problem_objects(cfg)
    hyp = validate_hypotheses(surface)
    state = init_flow(surface, boundary, flow_cfg)
    # created only once the problem is built, so a rejected run leaves none
    os.makedirs(out_dir, exist_ok=True)
    trace_path = os.path.join(out_dir, "trace.jsonl")
    trace_fh = open(trace_path, "w") if cfg["output"]["trace"] else None

    def on_step(rec):
        if trace_fh:
            trace_fh.write(json.dumps(rec.as_dict(), default=_json_default))
            trace_fh.write("\n")
        if cfg["output"]["snapshots"]:
            _write_snapshot(
                os.path.join(out_dir, f"step_{rec.step:04d}.tsv"),
                surface.grid, state.fields,
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
        "config": cfg,
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
    fam = solve_family(problem)
    out = args.out or (os.path.splitext(args.problem)[0] + ".solution.txt")
    save_solution(out, fam)
    print(f"index {fam.n}, family dimension {fam.dimension}, "
          f"iterations {fam.iterations}, "
          f"boundary residual {fam.boundary_residual:.3e}")
    return 0


def cmd_validate(args):
    with open(args.config) as fh:
        cfg = parse_config(fh.read())
    surface, _, _ = build_problem_objects(cfg)
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
    p_run.add_argument("--out", default="out")
    p_run.set_defaults(func=cmd_run)

    p_bvp = sub.add_parser("bvp", help="solve a standalone problem file")
    p_bvp.add_argument("problem")
    p_bvp.add_argument("--out", default=None)
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
