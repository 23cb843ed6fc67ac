import json
import re
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from mgdeform.cli import (
    SCHEMA,
    _write_snapshot,
    build_problem_objects,
    main,
    parse_config,
    run_from_config,
    within_tolerances,
)
from mgdeform import flow
from mgdeform.errors import ConfigError, ConvergenceError
from mgdeform.flow import BoundarySpec, FlowConfig, failed_bounds
from mgdeform.grid import DiskGrid
from mgdeform.metrics import METRIC_KINDS, make_metric
from mgdeform.surface import IMMERSION_KINDS, SphereCapImmersion, make_immersion


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
    assert cfg["output"] == {"snapshots": True}


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
    ("bvp_mode", "auto"), ("tol_bvp", "1e-10"), ("tol_cdot", "1e-10"),
    ("max_iter_bvp", "60"), ("max_iter_cdot", "50"),
])
def test_removed_flow_keys_are_unknown(key, value):
    # the flow is anchored at the center, runs the oracle every step and
    # solves at the solvers' own tolerances and caps
    with pytest.raises(ConfigError) as exc:
        parse_config(f"[flow]\n{key} = {value}\n")
    line, _, msg = exc.value.errors[0]
    assert line == 2 and f"unknown key {key!r}" in msg


def test_removed_output_directory_key_is_unknown():
    # run --out names the output directory
    with pytest.raises(ConfigError) as exc:
        parse_config("[output]\ndirectory = out\n")
    line, _, msg = exc.value.errors[0]
    assert line == 2 and "unknown key 'directory'" in msg


def test_removed_output_trace_key_is_a_config_error(tmp_path, capsys):
    # every run writes trace.jsonl, where a failed flow's completed steps
    # survive
    cpath = tmp_path / "cfg.txt"
    cpath.write_text("[output]\ntrace = false\n")
    rc = main(["run", "--config", str(cpath), "--out", str(tmp_path / "out")])
    assert rc == 1
    assert "line 2, col 1: unknown key 'trace' in [output]" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def _readme_config_block():
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    return re.search(r"## Configuration\n.*?```\n(.*?)```", text, re.S).group(1)


def test_readme_config_block_matches_schema():
    block = _readme_config_block()
    # the block parses and shows the defaults
    assert parse_config(block) == parse_config("")
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


def test_sections_are_their_objects():
    # [boundary] and [flow] hold BoundarySpec's and FlowConfig's fields, with
    # their defaults
    cfg = parse_config("")
    assert BoundarySpec(**cfg["boundary"]) == BoundarySpec()
    assert FlowConfig(**cfg["flow"]) == FlowConfig()


def test_every_kind_builds_from_schema_defaults():
    cfg = parse_config("")
    points = np.array([0.0, 0.3, -0.5]), np.array([0.0, -0.4, 0.2])
    for kind in METRIC_KINDS:
        metric = make_metric(kind, cfg["metric"])
        assert np.all(np.isfinite(metric.metric(np.zeros((1, 3)))))
    for kind in IMMERSION_KINDS:
        immersion = make_immersion(kind, cfg["surface"])
        assert np.all(np.isfinite(immersion.chart(*points)))
    cap = make_immersion("sphere_cap", cfg["surface"])
    assert isinstance(cap, SphereCapImmersion) and cap.cap == 0.5


@pytest.mark.parametrize("section, line", [
    ("flow", "dt = nan"), ("flow", "t_final = inf"),
    ("boundary", "epsilon = nan"), ("flow", "tol_k = nan"),
])
def test_non_finite_value_is_a_config_error(tmp_path, capsys, section, line):
    # rejected with its line when the config is parsed, before anything runs
    text = MINIMAL + f"\n[{section}]\n{line}\n"
    cpath = tmp_path / "cfg.txt"
    cpath.write_text(text)
    rc = main(["--log-level", "quiet", "run", "--config", str(cpath),
               "--out", str(tmp_path / "out")])
    assert rc == 1
    line_no = text.splitlines().index(line) + 1
    err = capsys.readouterr().err
    assert f"line {line_no}, col 1: key {line.split()[0]!r}" in err and "not finite" in err
    assert not (tmp_path / "out").exists()


def test_non_positive_values_are_reported_with_their_lines():
    # each with its own line, gathered with the parse errors
    text = (MINIMAL.replace("n_r = 12", "n_r = soup").replace("dt = 0.005", "dt = -0.005")
            + "\n[boundary]\nepsilon = 0\n")
    with pytest.raises(ConfigError) as exc:
        parse_config(text)
    lines = text.splitlines()
    assert [(ln, msg) for ln, _, msg in exc.value.errors] == [
        (lines.index("n_r = soup") + 1, "key 'n_r': cannot parse 'soup' as int"),
        (lines.index("dt = -0.005") + 1, "key 'dt': flow.dt must be positive"),
        (lines.index("epsilon = 0") + 1, "key 'epsilon': boundary.epsilon must be positive"),
    ]


@pytest.mark.parametrize("command", ["validate", "run"])
@pytest.mark.parametrize("value", ["-1e-6", "0"])
def test_non_positive_ci_tol_is_a_config_error(tmp_path, capsys, command, value):
    # a bound no residual can meet is the config's fault, reported with its
    # line (exit 1), not a coordinate error blamed on the surface (exit 2)
    text = MINIMAL + f"\n[surface]\nci_tol = {value}\n"
    cpath = tmp_path / "cfg.txt"
    cpath.write_text(text)
    args = ["--config", str(cpath)]
    if command == "run":
        args += ["--out", str(tmp_path / "out")]
    rc = main(["--log-level", "quiet", command, *args])
    assert rc == 1
    line_no = text.splitlines().index(f"ci_tol = {value}") + 1
    err = capsys.readouterr().err
    assert f"line {line_no}, col 1: key 'ci_tol': surface.ci_tol must be positive" in err
    assert "Traceback" not in err
    assert not (tmp_path / "out").exists()


def test_build_objects():
    cfg = parse_config(MINIMAL)
    surface, boundary, flow_cfg = build_problem_objects(cfg)
    assert surface.grid.n_r == 12
    # the surface carries the configured metric, the flow's one source of it
    assert surface.metric.is_flat()
    assert flow_cfg.dt == 0.005


def test_n_theta_not_a_multiple_of_four_builds():
    cfg = parse_config(MINIMAL.replace("n_theta = 24", "n_theta = 34"))
    surface, _, _ = build_problem_objects(cfg)
    assert surface.grid.n_theta == 34


@pytest.mark.parametrize("n_theta", [17, 8])
def test_run_rejects_grid_shape_with_mg_error(tmp_path, capsys, n_theta):
    # the grid alone decides its shape: n_theta even and >= 16; a rejected
    # run leaves no output directory behind
    cpath = tmp_path / "cfg.txt"
    cpath.write_text(MINIMAL.replace("n_theta = 24", f"n_theta = {n_theta}"))
    rc = main(["--log-level", "quiet", "run", "--config", str(cpath),
               "--out", str(tmp_path / "out")])
    assert rc == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "MgError" and "n_theta" in err["message"]
    assert not (tmp_path / "out").exists()


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
    # right-hand-side assemblies of each step's coupled solve
    assert [json.loads(line)["bvp_passes"] >= 1 for line in lines] == [True, True]
    head = (out / "step_0000.tsv").read_text().splitlines()[0]
    assert head.startswith("# node r theta a1 a2 c dK")
    assert summary["flow_report"]["within_tolerances"]
    # resolved config embedded for provenance
    assert summary["config"]["grid"]["n_r"] == 12


def test_snapshot_row_columns_and_digits(tmp_path):
    # one node per row: index, r, theta, then the six fields in the
    # documented order, each float with 17 significant digits
    grid = DiskGrid(8, 16)
    cols = ["a1", "a2", "c", "dK", "g_res1", "g_res2"]
    rng = np.random.default_rng(7)
    fields = {c: rng.standard_normal(grid.n_nodes) * 10.0 ** rng.integers(-20, 3, grid.n_nodes)
              for c in cols}
    fields["c"][5] = -0.0
    fields["dK"][5] = 0.0
    path = tmp_path / "step.tsv"
    _write_snapshot(path, grid, fields)
    lines = path.read_text().splitlines()
    assert lines[0] == "# node r theta a1 a2 c dK g_res1 g_res2"
    assert len(lines) == 1 + grid.n_nodes
    node = 5
    values = [grid.r[node], grid.theta[node]] + [fields[c][node] for c in cols]
    assert lines[1 + node] == " ".join([str(node)] + ["%.17g" % v for v in values])
    assert lines[1 + node].split()[5:7] == ["-0", "0"]
    assert [float(t) for t in lines[1 + node].split()[1:]] == values


RERUN = """
[metric]
{metric}

[surface]
{surface}

[grid]
n_r = 16
n_theta = 32

[flow]
t_final = 0.02
dt = 0.005
"""
CONFORMAL_LINEAR = "kind = conformal_linear\nk1 = 0.3\nk2 = 0.0\nk3 = 0.2"


@pytest.mark.parametrize("metric, surface", [
    ("kind = flat", ""),
    ("kind = conformal_radial\nalpha = 0.5", "cap = 0.5\nci_tol = 1e-5"),
    (CONFORMAL_LINEAR, "cap = 0.5\nci_tol = 1e-5"),
    # admissible (umbilic, H > 0) only in conformal_linear with k3 != 0
    (CONFORMAL_LINEAR, "kind = plane\ncap = 0.5\nci_tol = 1e-5"),
], ids=["flat", "conformal_radial", "conformal_linear", "plane"])
def test_run_deterministic(tmp_path, metric, surface):
    # a 16x32 flow of four steps run twice through the command line: every
    # export is the same, byte for byte (criterion 12 in each metric)
    cpath = tmp_path / "cfg.txt"
    cpath.write_text(RERUN.format(metric=metric, surface=surface))
    outs = [tmp_path / "o1", tmp_path / "o2"]
    for out in outs:
        assert main(["--log-level", "quiet", "run", "--config", str(cpath),
                     "--out", str(out)]) == 0
    names = sorted(p.name for p in outs[0].iterdir())
    assert names == sorted(p.name for p in outs[1].iterdir())
    assert names == [f"step_{k:04d}.tsv" for k in range(4)] + ["summary.json", "trace.jsonl"]
    for name in names:
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes(), name


def test_run_without_snapshots_writes_trace_and_summary_only(tmp_path, monkeypatch):
    # --out defaults to ./out
    (tmp_path / "cfg.txt").write_text(MINIMAL + "\n[output]\nsnapshots = false\n")
    monkeypatch.chdir(tmp_path)
    assert main(["--log-level", "quiet", "run", "--config", "cfg.txt"]) == 0
    assert sorted(p.name for p in (tmp_path / "out").iterdir()) == [
        "summary.json", "trace.jsonl"]


def _array_count(value):
    if isinstance(value, np.ndarray):
        return 1
    if isinstance(value, dict):
        value = list(value.values())
    if isinstance(value, (list, tuple)):
        return sum(_array_count(v) for v in value)
    return 0


def test_snapshot_run_keeps_no_arrays_in_its_records(tmp_path, monkeypatch):
    # snapshots are written from the flow state's fields of the last step,
    # so the records of a long run hold scalars only
    real_step = flow.step
    records = []

    def keep_record(flow_state):
        records.append(real_step(flow_state))
        return records[-1]

    monkeypatch.setattr(flow, "step", keep_record)
    cfg = parse_config(MINIMAL.replace("t_final = 0.01", "t_final = 0.2"))
    assert cfg["output"]["snapshots"]
    run_from_config(cfg, out_dir=str(tmp_path), log=lambda *a, **k: None)
    assert len(records) == 40
    assert sorted(p.name for p in tmp_path.glob("step_*.tsv")) == [
        f"step_{k:04d}.tsv" for k in range(40)]
    assert [_array_count(vars(rec)) for rec in records] == [0] * 40


def test_within_tolerances_checks_oracle_and_fixed_point(tiny_run):
    # the verdict is that no bound failed; failed_bounds names each failed
    # bound with the first step that fails it
    out, summary = tiny_run
    flow_cfg = build_problem_objects(parse_config(MINIMAL))[2]
    report = summary["flow_report"]
    assert report["failed"] == {} and within_tolerances(report)
    assert not within_tolerances(dict(report, failed={"dk_oracle_rel": 1}))
    recs = [SimpleNamespace(**json.loads(line))
            for line in (out / "trace.jsonl").read_text().splitlines()]
    assert [r.step for r in recs] == [0, 1] and failed_bounds(recs, flow_cfg) == {}

    def failed_from(step, **changed):
        return failed_bounds([SimpleNamespace(**dict(vars(r), **changed)) if r.step >= step
                              else r for r in recs], flow_cfg)

    # each check alone fails, from the first step past it; NaN fails too
    assert failed_from(1, dk_oracle_rel=2.0 * flow_cfg.tol_k) == {"dk_oracle_rel": 1}
    assert failed_from(0, fixed_point_z=1e-9) == {"fixed_point_z": 0}
    assert failed_from(1, g_residual=float("nan")) == {"g_residual": 1}
    # for index n <= 0 the flow fixes no point, so |z(x0)| leaves the verdict
    assert recs[0].n == 1
    for index in (-1, 0):
        assert failed_from(0, n=index, fixed_point_z=4.2e-5) == {}
    assert failed_from(0, fixed_point_z=4.2e-5) == {"fixed_point_z": 0}


def test_exit_3_names_the_failed_bounds_and_their_first_steps(tmp_path, capsys):
    # a 16x32 flow held to tol_k = 1e-12 misses both curvature bounds from
    # step 0 and meets the rest: the summary and the closing line name them
    cpath = tmp_path / "tight.cfg"
    cpath.write_text("[grid]\nn_r = 16\nn_theta = 32\n\n"
                     "[flow]\nt_final = 0.02\ndt = 0.005\ntol_k = 1e-12\n")
    rc = main(["run", "--config", str(cpath), "--out", str(tmp_path / "out")])
    assert rc == 3
    report = json.loads((tmp_path / "out" / "summary.json").read_text())["flow_report"]
    assert report["failed"] == {"dk_max_rel": 0, "dk_oracle_rel": 0}
    assert not report["within_tolerances"]
    assert capsys.readouterr().err.splitlines()[-1] == (
        "outside tolerances: dk_max_rel from step 0, dk_oracle_rel from step 0")


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
        calls.append(flow_state.deform.history.n_steps)
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
    from mgdeform.vekua import BoundaryProblem, bvp_solve, save_problem, t_operator

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
        core_phi = -np.real(np.conj(lam) * u[bidx])
        return u + bvp_solve(BoundaryProblem(grid, lam, core_phi)).w

    core = np.stack(bvp_solve(BoundaryProblem(grid, lam, np.zeros(grid.n_theta))).basis,
                    axis=1)
    core_ri = np.concatenate([core.real, core.imag])
    for k in basis:
        scale = np.max(np.abs(k))
        v = k - response(k)
        c, *_ = np.linalg.lstsq(core_ri, np.concatenate([v.real, v.imag]), rcond=None)
        assert np.max(np.abs(v - core @ c)) <= 1e-8 * scale
        assert np.max(np.abs(np.real(np.conj(lam) * k[bidx]))) <= 1e-8 * scale


def _problem_text(tmp_path):
    from helpers import manufactured_problem
    from mgdeform.vekua import save_problem

    ppath = tmp_path / "prob.txt"
    save_problem(ppath, manufactured_problem(DiskGrid(16, 32))[0])
    return ppath, ppath.read_text()


def _assert_format_error(capsys, ppath, *words):
    assert main(["bvp", str(ppath)]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "FormatError"
    assert all(word in err["message"] for word in words)
    assert not ppath.with_suffix(".solution.txt").exists()


@pytest.mark.parametrize("block", ["lambda", "phi", "A", "B", "e0_point", "e0_weight", "psi"])
@pytest.mark.parametrize("value", ["nan", "inf"])
def test_cli_bvp_rejects_non_finite_samples(tmp_path, capsys, block, value):
    ppath, text = _problem_text(tmp_path)
    head, _, rest = text.partition(f"begin {block}\n")
    row, _, tail = rest.partition("\n")
    ppath.write_text(head + f"begin {block}\n" + row.replace(row.split()[0], value, 1)
                     + "\n" + tail)
    _assert_format_error(capsys, ppath, repr(block), "non-finite")


def test_cli_bvp_rejects_e_swap_other_than_0_or_1(tmp_path, capsys):
    ppath, text = _problem_text(tmp_path)
    assert "\ne_swap 0\n" in text
    ppath.write_text(text.replace("\ne_swap 0\n", "\ne_swap 7\n"))
    _assert_format_error(capsys, ppath, "e_swap", "7")


def test_cli_bvp_empty_file(tmp_path):
    p = tmp_path / "empty.txt"
    p.write_text("")
    rc = main(["bvp", str(p)])
    assert rc == 2


def test_validate_judges_by_the_configured_ci_tol(tmp_path, capsys):
    # at 16x32 this curved cap has CI residual 1.0e-6: above the default
    # bound, inside the configured one the surface was built under
    cpath = tmp_path / "cfg.txt"
    cpath.write_text("[metric]\nkind = conformal_radial\nalpha = 0.5\n\n"
                     "[surface]\ncap = 0.8\nci_tol = 1e-5\n\n"
                     "[grid]\nn_r = 16\nn_theta = 32\n")
    rc = main(["validate", "--config", str(cpath)])
    rep = json.loads(capsys.readouterr().out)
    assert 1e-6 < rep["ci_residual"] <= 1e-5
    assert rep["conjugate_isothermal_ok"] and rep["ok"]
    assert rc == 0


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
    assert not (tmp_path / "out").exists()


def test_cli_bad_config_exit_code(tmp_path):
    cpath = tmp_path / "bad.txt"
    cpath.write_text("[grid]\nn_r = soup\n")
    rc = main(["run", "--config", str(cpath)])
    assert rc == 1
