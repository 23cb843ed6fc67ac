"""Acceptance gate: every shipped criterion at its stated tolerance.

Each test prints one PASS/FAIL line (visible with `pytest -s` or on
failure); the asserted bounds are exactly the shipped ones.
"""

import time

import numpy as np
import pytest

from mgdeform.cdot import PathIntegrator, solve_cdot
from mgdeform.cli import parse_config, run_from_config
from mgdeform.flow import BoundarySpec, FlowConfig, init_flow, run_flow
from mgdeform.gdef import assemble_coefficients
from mgdeform.grid import DiskGrid
from mgdeform.kpres import assemble_variation
from mgdeform.metrics import FlatMetric, conformal_linear_metric, conformal_radial_metric
from mgdeform.surface import SphereCapImmersion, build_surface, gauss_curvature_of
from mgdeform.vekua import index_of, solve_family, t_operator

from helpers import (
    dz_bar,
    make_coeff_fn,
    manufactured_problem,
    prescribed_deformation,
    smooth_scalar,
)
from reference import (
    christoffel_symbols,
    gdef_residual,
    history_from_path,
    homogeneous_rank,
    op_inf_norm,
    path_norms,
    s_cascade,
    t_one_oracle,
    transport_series_terms,
    transport_tensor_ode,
)


def report(num, ok, detail):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {detail}")
    assert ok, f"criterion {num}: {detail}"


def smooth_complex_field(grid, seed=0):
    rng = np.random.default_rng(seed)
    c = rng.normal(size=5) + 1j * rng.normal(size=5)
    x, y = grid.x1, grid.x2
    return (
        c[0]
        + c[1] * np.sin(x + 2 * y)
        + c[2] * np.exp(0.5 * x) * np.cos(y)
        + c[3] * x * y
        + c[4] * np.cos(2 * x) * np.sin(y)
    )


def test_criterion_01_pompeiu_identity():
    t0 = time.time()

    def sup_err(grid):
        errs = []
        for f in (grid.z**2, np.exp(grid.z), smooth_complex_field(grid)):
            tf = t_operator(grid, f)
            errs.append(float(np.max(np.abs(dz_bar(grid, tf) - f))))
        return max(errs)

    coarse = sup_err(DiskGrid(64, 128))
    fine = sup_err(DiskGrid(128, 256))
    elapsed = time.time() - t0
    ok = coarse <= 5e-3 and fine <= coarse / 4.0 * 1.1 and elapsed <= 60.0
    report(1, ok,
           f"sup|dzbar T(f) - f| = {coarse:.3e} (<= 5e-3), refined {fine:.3e} "
           f"(order >= 2), {elapsed:.1f}s (<= 60s)")


def test_criterion_02_t_one_constant():
    grid = DiskGrid(64, 128)
    ours = t_operator(grid, np.ones(grid.n_nodes, dtype=complex))
    oracle = t_one_oracle(grid, n_phi=4096)
    err = float(np.max(np.abs(ours - oracle)))
    report(2, err <= 1e-3,
           f"T(1) vs high-resolution quadrature oracle: {err:.3e} (<= 1e-3); "
           f"oracle matches +conj(z) to {float(np.max(np.abs(oracle - np.conj(grid.z)))):.1e}")


def test_criterion_03_index_exact():
    grid = DiskGrid(16, 64)
    th = grid.boundary_theta
    cases = [
        (np.ones_like(th) + 0j, 0),
        (np.exp(1j * th), 1),
        (np.exp(-2j * th), -2),
        (np.exp(3j * th), 3),
    ]
    got = [index_of(lam) for lam, _ in cases]
    ok = got == [n for _, n in cases]
    report(3, ok, f"winding numbers {got} == [0, 1, -2, 3]")


def test_criterion_04_dimension_counts():
    grid = DiskGrid(32, 64)
    th = grid.boundary_theta
    details = []
    ok = True
    for n in (0, 1, 2):
        nullity, gap = homogeneous_rank(grid, np.exp(1j * n * th))
        details.append(f"n={n}: dim {nullity} gap {gap:.1e}")
        ok = ok and nullity == 2 * n + 1 and gap >= 1e3
    for n in (-1, -2):
        nullity, _ = homogeneous_rank(grid, np.exp(1j * n * th))
        details.append(f"n={n}: dim {nullity}")
        ok = ok and nullity == 0
    report(4, ok, "; ".join(details))


def test_criterion_05_manufactured_recovery():
    grid = DiskGrid(64, 128)
    prob, w_star = manufactured_problem(grid, n=1, amp=0.3)
    fam = solve_family(prob, tol=1e-12)
    cols = np.stack([np.concatenate([b.real, b.imag]) for b in fam.basis], axis=1)
    rhs = np.concatenate([(w_star - fam.w).real, (w_star - fam.w).imag])
    coef, *_ = np.linalg.lstsq(cols, rhs, rcond=None)
    w_fit = fam.w + sum(c * b for c, b in zip(coef, fam.basis))
    err = float(np.max(np.abs(w_fit - w_star)) / np.max(np.abs(w_star)))
    ok = err <= 1e-3 and fam.ratio < 0.9
    report(5, ok,
           f"relative recovery {err:.3e} (<= 1e-3), successive ratio "
           f"{fam.ratio:.3f} (< 0.9)")


def test_criterion_06_flat_degeneration():
    grid = DiskGrid(16, 32)
    metric = FlatMetric()
    surf = build_surface(SphereCapImmersion(1.0, 0.5), metric, grid, ci_tol=1e-5)
    pts = surf.y
    gamma_sup = float(np.max(np.abs(christoffel_symbols(metric, pts))))
    deform = prescribed_deformation(
        surf, smooth_scalar(grid, 1, 0.05), smooth_scalar(grid, 2, 0.05),
        smooth_scalar(grid, 3, 0.05), 0.2, 6,
    )
    terms = transport_series_terms(metric, surf.y, deform.history, 4)
    series_sup = max(float(np.max(np.abs(a))) for a in terms)
    prev = assemble_coefficients(metric, surf, prescribed_deformation(
        surf, deform.a1dot, deform.a2dot, deform.cdot, 0.15, 5))
    coeffs = assemble_coefficients(metric, surf, deform, prev=prev, dt=0.05)
    ref = s_cascade(metric, surf, deform)
    fields = [ref[n] for n in ("s1", "s2", "s3", "s5")]
    fields += [coeffs.n_j, coeffs.q_i, coeffs.ndot, coeffs.qdot]
    coeff_sup = max(float(np.max(np.abs(f))) for f in fields)
    r = gdef_residual(surf, coeffs, deform)
    dc = grid.grad_last(deform.c)
    a_vec = np.stack([deform.a1, deform.a2])
    reduction = np.einsum("ln,lin->in", a_vec, surf.b) + dc
    reduced_exactly = np.array_equal(r, reduction)
    ok = gamma_sup == 0.0 and series_sup == 0.0 and coeff_sup == 0.0 and reduced_exactly
    report(6, ok,
           f"Gamma sup {gamma_sup}, series sup {series_sup}, coefficient sup "
           f"{coeff_sup}, residual reduces to a^l b_li + c_,i exactly: {reduced_exactly}")


def test_criterion_07_transport_properties():
    metric = conformal_radial_metric(0.7)
    y0 = np.array([[0.2, 0.1, -0.3]])
    v = np.array([0.25, 0.3, -0.1])
    hist = history_from_path(lambda t: t * v, lambda t: v, 1.0, 1000)
    a_seed = np.array([[1.0, 0.2, -0.3]])
    b_seed = np.array([[-0.5, 0.8, 0.1]])
    prod0 = float(np.einsum("nab,na,nb->n", metric.metric(y0), a_seed, b_seed)[0])
    a_t = transport_tensor_ode(metric, y0, hist, a_seed, "forward")
    b_t = transport_tensor_ode(metric, y0, hist, b_seed, "forward")
    pts = y0 + hist.z[-1]
    prod1 = float(np.einsum("nab,na,nb->n", metric.metric(pts), a_t, b_t)[0])
    drift = abs(prod1 - prod0)
    ok_drift = drift <= 1e-10

    m2 = conformal_linear_metric((0.9, -0.5, 0.2))
    seed = np.array([[0.3, -1.0, 0.6]])
    ok_series = True
    details = []
    for t in (0.1, 0.2, 0.3):
        h = history_from_path(lambda tt: tt * v, lambda tt: v, t, 400)
        sup_g, sup_zd = path_norms(m2, y0, h)
        x = t * sup_g * sup_zd
        if x > 0.3:
            continue
        terms = transport_series_terms(m2, y0, h, 4)
        for k, a in enumerate(terms, start=1):
            ok_series = ok_series and op_inf_norm(a) <= x**k + 1e-12
        total = np.broadcast_to(np.eye(3), (1, 3, 3)).copy()
        for a in terms:
            total = total + a
        approx = np.einsum("ngb,nb->ng", total, seed)
        exact = transport_tensor_ode(m2, y0, h, seed, "backward", substeps=4)
        err = float(np.max(np.abs(approx - exact)))
        ok_series = ok_series and err <= 10.0 * x**5
        details.append(f"x={x:.2f} err {err:.1e} <= {10 * x**5:.1e}")
    ok = ok_drift and ok_series
    report(7, ok, f"metric drift {drift:.2e} (<= 1e-10/unit tau); " + "; ".join(details))


def test_criterion_08_picard_contraction():
    grid = DiskGrid(16, 32)
    metric = conformal_radial_metric(0.6)
    surf = build_surface(SphereCapImmersion(1.0, 0.8), metric, grid, ci_tol=1e-5)
    integ = PathIntegrator(grid)
    a1d = smooth_scalar(grid, 21, 5e-2)
    a2d = smooth_scalar(grid, 22, 5e-2)
    cd = smooth_scalar(grid, 23, 5e-2)
    tol = 1e-12
    rates = []
    last = None
    for t in (0.0125, 0.025, 0.05):
        n_steps = 8
        deform = prescribed_deformation(surf, a1d, a2d, cd, t, n_steps)
        dt = t / n_steps
        prev = assemble_coefficients(
            metric, surf,
            prescribed_deformation(surf, a1d, a2d, cd, t - dt, n_steps - 1))
        fn = make_coeff_fn(metric, surf, deform, a1d, a2d, prev=prev, dt=dt)
        sol = solve_cdot(surf, fn, deform.a1, deform.a2, a1d, a2d, integ, tol=tol)
        rates.append(sol.rate)
        last = (deform, fn, sol)
    deform, fn, sol = last
    bump = 0.05 * np.cos(grid.x1)
    sol_b = solve_cdot(surf, fn, deform.a1, deform.a2, a1d, a2d, integ,
                       tol=tol, c0=sol.gamma + bump)
    uniq = float(np.max(np.abs(sol.cdot - sol_b.cdot)))
    uniq_bound = 2 * tol * max(1.0, float(np.max(np.abs(sol.cdot))))
    ok = (all(r < 1 for r in rates)
          and rates[0] <= rates[1] <= rates[2]
          and uniq <= uniq_bound)
    report(8, ok,
           f"K3 rates {['%.3e' % r for r in rates]} (< 1, monotone in t); "
           f"two initial iterates differ {uniq:.2e} (<= 2 tol)")


def test_criterion_09_delta_k_oracle():
    grid = DiskGrid(48, 96)
    metric = FlatMetric()
    surf = build_surface(SphereCapImmersion(1.0, 0.8), metric, grid)
    worst = 0.0
    ok = True
    for seed in (11, 12, 13):
        c = smooth_scalar(grid, seed, 1.5e-4)
        dc = grid.grad_last(c)
        a = -np.einsum("nil,in->ln", np.linalg.inv(surf.b.transpose(2, 0, 1)), dc)
        deform = prescribed_deformation(surf, a[0], a[1], c, 1.0, 4)
        z = deform.history.z[-1]
        znorm = float(np.max(np.abs(z)))
        assert znorm <= 1e-3
        _, bvar, _ = assemble_variation(metric, surf, deform)
        oracle = (gauss_curvature_of(grid, metric, surf.y + z)
                  - gauss_curvature_of(grid, metric, surf.y))
        diff = float(np.max(np.abs(bvar.dK - oracle)))
        tol = max(1e-8, 1e-2 * znorm**2)
        worst = max(worst, diff)
        ok = ok and diff <= tol
    report(9, ok, f"formula vs rebuild oracle, worst {worst:.2e} "
                  f"(<= max(1e-8, 1e-2 |z|^2))")


def test_criterion_10_zero_data_identity_flow():
    grid = DiskGrid(16, 32)
    metric = FlatMetric()
    surf = build_surface(SphereCapImmersion(1.0, 0.5), metric, grid, ci_tol=1e-5)
    boundary = BoundarySpec(winding=-1, gamma_kind="zero")
    cfg = FlowConfig(t_final=0.05, dt=0.005)
    state = init_flow(surf, boundary, cfg)
    rep = run_flow(state)
    rate_max = max(r.rate_sup for r in state.records)
    ok = (rep["index"] == -1 and rep["steps"] == 10 and rate_max <= 1e-12)
    report(10, ok,
           f"index {rep['index']}, 10 steps, max rate {rate_max:.2e} (<= 1e-12)")


ACCEPTANCE_CONFIG = """
[metric]
kind = flat

[surface]
kind = sphere_cap
radius = 1.0
cap = 0.5

[grid]
n_r = 48
n_theta = 96

[boundary]
tangent_kind = winding
winding = 1
gamma_kind = harmonic
epsilon = 1e-3
mode = 1

[flow]
t_final = 0.05
dt = 0.005
tol_k = 1e-4
tol_g = 1e-6
tol_b = 1e-6

[output]
snapshots = true
"""


@pytest.fixture(scope="module")
def end_to_end_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("accept")
    cfg = parse_config(ACCEPTANCE_CONFIG)
    t0 = time.time()
    summary = run_from_config(cfg, out_dir=str(out), log=lambda *a, **k: None)
    elapsed = time.time() - t0
    return out, summary, elapsed


def test_criterion_11_end_to_end_flow(end_to_end_run):
    _, summary, elapsed = end_to_end_run
    rep = summary["flow_report"]
    ok = (
        rep["index"] == 1
        and rep["steps"] == 10
        and rep["max_dk_oracle_rel"] <= 1e-4
        and rep["max_g_residual"] <= 1e-6
        and rep["max_boundary_residual"] <= 1e-6
        and rep["max_fixed_point_z"] <= 1e-10
        and rep["family_dimension_after"] == 1
        and elapsed <= 600.0
    )
    report(11, ok,
           f"n=1, 10 steps: |dK|/K (oracle) {rep['max_dk_oracle_rel']:.2e} (<= 1e-4), "
           f"G {rep['max_g_residual']:.2e} (<= 1e-6), "
           f"B {rep['max_boundary_residual']:.2e} (<= 1e-6), "
           f"|z(x0)| {rep['max_fixed_point_z']:.2e} (<= 1e-10), "
           f"dim {rep['family_dimension_after']} (= 2n-1), {elapsed:.0f}s (<= 600s)")
    # times count whole steps, so ten steps of 0.005 end exactly at 0.05
    assert rep["t_final"] == 0.05


def test_criterion_12_determinism(end_to_end_run, tmp_path):
    out1, _, _ = end_to_end_run
    cfg = parse_config(ACCEPTANCE_CONFIG)
    out2 = tmp_path / "again"
    run_from_config(cfg, out_dir=str(out2), log=lambda *a, **k: None)
    names = ["trace.jsonl", "summary.json"] + [f"step_{k:04d}.tsv" for k in range(10)]
    same = all((out1 / n).read_bytes() == (out2 / n).read_bytes() for n in names)
    report(12, same, f"two runs byte-identical across {len(names)} export files: {same}")
