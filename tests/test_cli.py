import json
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mgdeform.cli import (
    SCHEMA,
    RunConfig,
    build_problem_objects,
    emit_config,
    main,
    parse_config,
    run_from_config,
    within_tolerances,
)
from mgdeform import flow
from mgdeform.errors import ConfigError, ConvergenceError


MINIMAL = """
[grid]
n_r = 12
n_theta = 24

[flow]
t_final = 0.01
dt = 0.005
"""


def test_minimal_config_defaults():
    cfg = parse_config(MINIMAL)
    assert cfg["metric"]["kind"] == "flat"
    assert cfg["surface"]["kind"] == "sphere_cap"
    assert cfg["grid"]["n_r"] == 12
    assert cfg["flow"]["dt"] == 0.005
    assert cfg["output"]["trace"] is True


def test_unknown_kind_and_key_errors():
    with pytest.raises(ConfigError) as exc:
        parse_config("[metric]\nkind = nope\n")
    assert "valid" in str(exc.value)
    with pytest.raises(ConfigError) as exc:
        parse_config("[metric]\nbogus = 1\n")
    assert "bogus" in str(exc.value)
    with pytest.raises(ConfigError) as exc:
        parse_config("[nosuch]\nx = 1\n")
    assert "nosuch" in str(exc.value)


@pytest.mark.parametrize("key, value", [
    ("x0", "center"), ("parameter_policy", "least_norm"), ("check_every", "1"),
    ("bvp_mode", "auto"),
])
def test_removed_flow_keys_are_unknown(key, value):
    # the flow is anchored at the center and runs the oracle every step
    with pytest.raises(ConfigError) as exc:
        parse_config(f"[flow]\n{key} = {value}\n")
    line, _, msg = exc.value.errors[0]
    assert line == 2 and f"unknown key {key!r}" in msg


def _readme_config_block():
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    return re.search(r"## Configuration\n.*?```\n(.*?)```", text, re.S).group(1)


def test_readme_config_block_matches_schema():
    block = _readme_config_block()
    # the block parses and shows the defaults
    assert parse_config(block).sections == parse_config("").sections
    listed, section = {}, None
    for line in block.splitlines():
        line = line.split("#", 1)[0].strip()
        if line.startswith("["):
            section = line[1:-1]
            listed[section] = []
        elif line:
            listed[section].append(line.partition("=")[0].strip())
    assert listed == {sec: list(keys) for sec, keys in SCHEMA.items()}


def test_bad_value_reports_line():
    with pytest.raises(ConfigError) as exc:
        parse_config("[grid]\nn_r = soup\n")
    assert exc.value.errors[0][0] == 2


# keys parse_config requires to be positive
_POSITIVE = {("flow", k) for k in ("t_final", "dt", "tol_bvp", "tol_cdot",
                                   "tol_k", "tol_g", "tol_b")} | {("boundary", "epsilon")}


def _value_strategy(sec, key):
    typ = SCHEMA[sec][key][0]
    if isinstance(typ, tuple):
        return st.sampled_from(typ)
    if typ is bool:
        return st.booleans()
    if typ is float:
        if (sec, key) in _POSITIVE:
            return st.floats(min_value=1e-300, max_value=1e300)
        return st.floats(allow_nan=False, allow_infinity=False)
    if typ is int:
        return st.integers(-10**6, 10**6)
    return st.text("abcdefghijklmnopqrstuvwxyz0123456789_-./", min_size=1, max_size=20)


_CONFIGS = st.fixed_dictionaries({
    sec: st.fixed_dictionaries({key: _value_strategy(sec, key) for key in keys})
    for sec, keys in SCHEMA.items()
})


@settings(derandomize=True, deadline=None)
@given(_CONFIGS)
def test_emit_parse_roundtrip_property(sections):
    cfg = RunConfig(sections=sections)
    text = emit_config(cfg)
    again = parse_config(text)
    assert again.sections == sections
    assert emit_config(again) == text


def test_roundtrip_canonical_form():
    cfg = parse_config(MINIMAL)
    text = emit_config(cfg)
    cfg2 = parse_config(text)
    assert cfg2.sections == cfg.sections
    assert emit_config(cfg2) == text


def test_build_objects():
    cfg = parse_config(MINIMAL)
    metric, surface, boundary, flow_cfg = build_problem_objects(cfg)
    assert surface.grid.n_r == 12
    assert flow_cfg.dt == 0.005


def test_n_theta_not_a_multiple_of_four_builds():
    cfg = parse_config(MINIMAL.replace("n_theta = 24", "n_theta = 34"))
    _, surface, _, _ = build_problem_objects(cfg)
    assert surface.grid.n_theta == 34


@pytest.mark.parametrize("n_theta", [17, 8])
def test_run_rejects_grid_shape_with_mg_error(tmp_path, capsys, n_theta):
    # the grid alone decides its shape: n_theta even and >= 16
    cpath = tmp_path / "cfg.txt"
    cpath.write_text(MINIMAL.replace("n_theta = 24", f"n_theta = {n_theta}"))
    rc = main(["--log-level", "quiet", "run", "--config", str(cpath),
               "--out", str(tmp_path / "out")])
    assert rc == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "MgError" and "n_theta" in err["message"]


@pytest.fixture(scope="module")
def tiny_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("run")
    cfg = parse_config(MINIMAL)
    summary = run_from_config(cfg, out_dir=str(out), log=lambda *a, **k: None)
    return out, summary


def test_run_writes_artifacts(tiny_run):
    out, summary = tiny_run
    assert (out / "summary.json").exists()
    assert (out / "trace.jsonl").exists()
    assert (out / "step_0000.tsv").exists()
    lines = (out / "trace.jsonl").read_text().strip().splitlines()
    assert len(lines) == summary["flow_report"]["steps"] == 2
    rec = json.loads(lines[0])
    assert "dk_max_rel" in rec
    head = (out / "step_0000.tsv").read_text().splitlines()[0]
    assert head.startswith("# node r theta a1 a2 c dK")
    assert summary["flow_report"]["within_tolerances"]
    # resolved config embedded for provenance
    assert summary["config"]["grid"]["n_r"] == 12


def test_run_deterministic(tiny_run, tmp_path):
    out, _ = tiny_run
    cfg = parse_config(MINIMAL)
    out2 = tmp_path / "again"
    run_from_config(cfg, out_dir=str(out2), log=lambda *a, **k: None)
    for name in ("trace.jsonl", "step_0000.tsv", "step_0001.tsv", "summary.json"):
        assert (out / name).read_bytes() == (out2 / name).read_bytes()


def test_within_tolerances_checks_oracle_and_fixed_point(tiny_run):
    _, summary = tiny_run
    flow_cfg = build_problem_objects(parse_config(MINIMAL))[3]
    report = dict(summary["flow_report"])
    assert within_tolerances(report, flow_cfg)
    # each check alone turns the verdict
    assert not within_tolerances(
        dict(report, max_dk_oracle_rel=2.0 * flow_cfg.tol_K), flow_cfg)
    assert not within_tolerances(dict(report, max_fixed_point_z=1e-9), flow_cfg)


def test_zero_data_negative_index_identity(tmp_path):
    text = MINIMAL + "\n[boundary]\nwinding = -1\ngamma_kind = zero\n"
    cfg = parse_config(text)
    summary = run_from_config(cfg, out_dir=str(tmp_path / "o"), log=lambda *a, **k: None)
    rep = summary["flow_report"]
    assert rep["index"] == -1
    assert rep["max_dk_rel"] < 1e-12
    assert rep["max_fixed_point_z"] == 0.0
    assert rep["max_rate_sup"] <= 1e-12


def test_failed_step_exits_2_and_keeps_completed_trace(tmp_path, monkeypatch):
    real_step = flow.step
    calls = []

    def fail_second_call(flow_state):
        calls.append(flow_state.step_index)
        if len(calls) == 2:
            raise ConvergenceError("injected failure")
        return real_step(flow_state)

    monkeypatch.setattr(flow, "step", fail_second_call)
    cpath = tmp_path / "cfg.txt"
    cpath.write_text(MINIMAL + "\n[boundary]\nwinding = -1\ngamma_kind = zero\n")
    rc = main(["--log-level", "quiet", "run", "--config", str(cpath),
               "--out", str(tmp_path / "out")])
    assert rc == 2
    lines = (tmp_path / "out" / "trace.jsonl").read_text().splitlines()
    assert [json.loads(line)["step"] for line in lines] == [0]


def test_cli_bvp_subcommand(tmp_path):
    from mgdeform.grid import DiskGrid
    from mgdeform.vekua import BoundaryProblem, save_problem

    grid = DiskGrid(12, 24)
    th = grid.boundary_theta
    prob = BoundaryProblem(grid=grid, lam=np.exp(1j * th), phi=np.cos(th))
    ppath = tmp_path / "prob.txt"
    save_problem(ppath, prob)
    rc = main(["bvp", str(ppath), "--out", str(tmp_path / "sol.txt")])
    assert rc == 0
    text = (tmp_path / "sol.txt").read_text()
    assert "dimension 3" in text


def _solution_blocks(path):
    """begin/end blocks of a solution file as complex arrays."""
    blocks, name, rows = {}, None, []
    for line in path.read_text().splitlines():
        if line.startswith("begin "):
            name, rows = line.split()[1], []
        elif line == "end":
            blocks[name] = np.array([complex(float(a), float(b))
                                     for a, b in (r.split() for r in rows)])
            name = None
        elif name is not None:
            rows.append(line)
    return blocks


def test_cli_bvp_writes_homogeneous_basis(tmp_path):
    # each written basis_k solves the full homogeneous problem: zero boundary
    # data, and K - L(K) is a core member (the integral form of
    # d_zbar K + A K + B conj(K) + E(K) = 0, with L(w) the corrected
    # T(-(A w + B conj(w) + E(w))))
    from helpers import manufactured_problem
    from mgdeform.grid import DiskGrid
    from mgdeform.vekua import rh_core_solve, save_problem, t_operator

    grid = DiskGrid(16, 32)
    prob, _ = manufactured_problem(grid, n=1)
    ppath = tmp_path / "prob.txt"
    save_problem(ppath, prob)
    assert main(["bvp", str(ppath), "--out", str(tmp_path / "sol.txt")]) == 0
    blocks = _solution_blocks(tmp_path / "sol.txt")
    basis = [blocks[f"basis_{k}"] for k in range(3)]
    assert "basis_3" not in blocks

    bidx, lam = grid.boundary_idx, prob.lam

    def response(w):
        u = t_operator(grid, -prob.volume_terms(w))
        return u + rh_core_solve(grid, lam, -np.real(np.conj(lam) * u[bidx])).w

    core = np.stack(rh_core_solve(grid, lam, np.zeros(grid.n_theta)).basis, axis=1)
    core_ri = np.concatenate([core.real, core.imag])
    for k in basis:
        scale = np.max(np.abs(k))
        v = k - response(k)
        c, *_ = np.linalg.lstsq(core_ri, np.concatenate([v.real, v.imag]), rcond=None)
        assert np.max(np.abs(v - core @ c)) <= 1e-8 * scale
        assert np.max(np.abs(np.real(np.conj(lam) * k[bidx]))) <= 1e-8 * scale


def test_cli_bvp_empty_file(tmp_path):
    p = tmp_path / "empty.txt"
    p.write_text("")
    rc = main(["bvp", str(p)])
    assert rc == 2


def test_cli_run_and_validate(tmp_path):
    cpath = tmp_path / "cfg.txt"
    cpath.write_text(MINIMAL)
    rc = main(["--log-level", "quiet", "validate", "--config", str(cpath)])
    assert rc == 0
    rc = main(["--log-level", "quiet", "run", "--config", str(cpath),
               "--out", str(tmp_path / "out")])
    assert rc == 0
    rc = main(["run", "--config", str(tmp_path / "missing.txt")])
    assert rc == 2


@pytest.mark.parametrize("lines, name", [
    ("max_iter_bvp = 0", "max_iter_bvp"),
    ("max_iter_cdot = 0", "max_iter_cdot"),
    ("t_final = 0.01\ndt = 0.004", "t_final"),
])
def test_cli_run_rejects_invalid_flow_settings(tmp_path, capsys, lines, name):
    cpath = tmp_path / "cfg.txt"
    cpath.write_text(MINIMAL + lines + "\n")
    rc = main(["--log-level", "quiet", "run", "--config", str(cpath),
               "--out", str(tmp_path / "out")])
    assert rc == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "MgError" and name in err["message"]


def test_cli_bad_config_exit_code(tmp_path):
    cpath = tmp_path / "bad.txt"
    cpath.write_text("[grid]\nn_r = soup\n")
    rc = main(["run", "--config", str(cpath)])
    assert rc == 1
