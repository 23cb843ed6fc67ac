import dataclasses

import numpy as np
import pytest

from mgdeform.gdef import assemble_coefficients, gdef_normal_residual, new_deformation
from mgdeform.grid import DiskGrid
from mgdeform.metrics import FlatMetric, conformal_radial_metric
from mgdeform.surface import SphereCapImmersion, build_surface
from mgdeform.transport import transport_propagator

from helpers import CURVED_METRICS, prescribed_deformation, smooth_scalar
from reference import gdef_residual, norm_chain_report, s_cascade, transport_tensor_ode


@pytest.fixture(scope="module")
def flat_sphere():
    grid = DiskGrid(16, 32)
    metric = FlatMetric()
    return metric, build_surface(SphereCapImmersion(1.0, 0.8), metric, grid, ci_tol=1e-5)


@pytest.fixture(scope="module")
def curved_sphere():
    grid = DiskGrid(16, 32)
    metric = conformal_radial_metric(0.6)
    return metric, build_surface(SphereCapImmersion(1.0, 0.8), metric, grid, ci_tol=1e-5)


def small_rates(grid, amp=1e-2):
    return (
        smooth_scalar(grid, 11, amp),
        smooth_scalar(grid, 12, amp),
        smooth_scalar(grid, 13, amp),
    )


def sup(x):
    return float(np.max(np.abs(x)))


def test_flat_metric_all_coefficients_vanish(flat_sphere):
    metric, surface = flat_sphere
    a1dot, a2dot, cdot = small_rates(surface.grid, amp=0.3)
    deform = prescribed_deformation(surface, a1dot, a2dot, cdot, 0.25, 8)
    coeffs = assemble_coefficients(metric, surface, deform)
    for name in ("n_j", "q_i"):
        assert sup(getattr(coeffs, name)) == 0.0, name
    ref = s_cascade(metric, surface, deform)
    for name in ("s1", "s2", "s3", "s5", "t0", "tj"):
        assert sup(ref[name]) == 0.0, name


def test_zero_time_all_coefficients_vanish(curved_sphere):
    metric, surface = curved_sphere
    deform = new_deformation(surface)
    coeffs = assemble_coefficients(metric, surface, deform)
    for name in ("n_j", "q_i", "ndot", "qdot"):
        assert sup(getattr(coeffs, name)) == 0.0, name
    ref = s_cascade(metric, surface, deform)
    for name in ("s1", "s2", "s3", "s5", "t0", "tj"):
        assert sup(ref[name]) == 0.0, name


@pytest.mark.parametrize("kind", sorted(CURVED_METRICS))
def test_s5_matches_term_by_term_cascade(kind):
    # N_j and Q_i from one contraction with a0 n equal a0(T_j, n) and
    # a0(S_(5), n) of the paper's cascade through S_(4) and the
    # surface-Christoffel drag term
    grid = DiskGrid(24, 48)
    metric = CURVED_METRICS[kind]()
    surface = build_surface(SphereCapImmersion(1.0, 0.5), metric, grid, ci_tol=1e-5)
    deform = prescribed_deformation(surface, *small_rates(grid, amp=5e-2), 0.1, 8)
    coeffs = assemble_coefficients(metric, surface, deform)
    ref = s_cascade(metric, surface, deform)
    assert np.max(np.abs(ref["s4"] - ref["s5"])) > 0
    for name in ("n_j", "q_i"):
        want = ref[name]
        got = getattr(coeffs, name)
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want)), name


def test_flat_g_condition_residuals_vanish(flat_sphere):
    metric, surface = flat_sphere
    grid = surface.grid
    c = smooth_scalar(grid, 5, 1e-3)
    dc = grid.grad_last(c)
    a1, a2 = -np.einsum("nil,in->ln", np.linalg.inv(surface.b.transpose(2, 0, 1)), dc)
    deform = prescribed_deformation(
        surface, a1 / 0.2, a2 / 0.2, c / 0.2, 0.2, 6
    )
    coeffs = assemble_coefficients(metric, surface, deform)
    r = gdef_residual(surface, coeffs, deform)
    assert np.max(np.abs(r)) < 1e-11
    rn = gdef_normal_residual(metric, surface, deform)
    assert np.max(np.abs(rn)) < 1e-7


def test_residual_formulations_agree(curved_sphere):
    metric, surface = curved_sphere
    a1dot, a2dot, cdot = small_rates(surface.grid, amp=2e-2)
    deform = prescribed_deformation(surface, a1dot, a2dot, cdot, 0.05, 10)
    coeffs = assemble_coefficients(metric, surface, deform)
    r_alg = gdef_residual(surface, coeffs, deform)
    # gdef_normal_residual's check with RK4 at four substeps per interval:
    # carry y_,i + z_,i back along each path and project on n
    seed = np.moveaxis(surface.tang + deform.dz, -1, 0)     # (N, 3, 2)
    back = transport_tensor_ode(metric, surface.y, deform.history, seed,
                                "backward", substeps=4)
    r_ode = np.einsum("abn,nai,nb->in", surface.ambient_a, back, surface.n)
    # the two formulations measure the same defect up to 1 + |N| factors
    scale = np.max(np.abs(r_ode))
    assert np.max(np.abs(r_alg - r_ode)) < 5e-3 * max(scale, 1e-12) + 1e-12


def test_lemma_chain_constants_stable_under_refinement():
    metric = conformal_radial_metric(0.6)
    ratios = {}
    for n_r in (12, 24):
        grid = DiskGrid(n_r, 2 * n_r)
        surface = build_surface(SphereCapImmersion(1.0, 0.8), metric, grid, ci_tol=1e-4)
        a1dot, a2dot, cdot = small_rates(grid, amp=5e-2)
        deform = prescribed_deformation(surface, a1dot, a2dot, cdot, 0.1, 8)
        rep = norm_chain_report(s_cascade(metric, surface, deform))
        assert rep["s2"] <= rep["s2_surrogate_bound"] + 1e-14
        ratios[n_r] = (rep["ratio_n_over_s1"], rep["ratio_q_over_s5"])
    for k in range(2):
        lo, hi = sorted((ratios[12][k], ratios[24][k]))
        assert hi > 0
        assert hi / max(lo, 1e-30) < 1.5


def test_coefficients_linear_in_time(curved_sphere):
    # all fields shrink ~ linearly with t at leading order
    metric, surface = curved_sphere
    a1dot, a2dot, cdot = small_rates(surface.grid, amp=5e-2)
    sups = []
    for t in (0.08, 0.04, 0.02):
        deform = prescribed_deformation(surface, a1dot, a2dot, cdot, t, 8)
        coeffs = assemble_coefficients(metric, surface, deform)
        sups.append(sup(coeffs.n_j))
    assert sups[0] > 0
    assert abs(sups[0] / sups[1] - 2.0) < 0.25
    assert abs(sups[1] / sups[2] - 2.0) < 0.25


def test_rates_by_backward_difference(curved_sphere):
    metric, surface = curved_sphere
    a1dot, a2dot, cdot = small_rates(surface.grid, amp=5e-2)
    t, n_steps = 0.1, 10
    deform = prescribed_deformation(surface, a1dot, a2dot, cdot, t, n_steps)
    dt = t / n_steps
    prev_state = prescribed_deformation(surface, a1dot, a2dot, cdot, t - dt, n_steps - 1)
    prev = assemble_coefficients(metric, surface, prev_state)
    coeffs = assemble_coefficients(metric, surface, deform, prev=prev, dt=dt)
    # FD rate should match the secant of N over the last interval by construction
    recon = prev.n_j + dt * coeffs.ndot
    assert np.max(np.abs(recon - coeffs.n_j)) < 1e-14
    assert sup(coeffs.ndot) > 0


def test_advance_matches_hand_built_successor(curved_sphere):
    metric, surf = curved_sphere
    grid = surf.grid
    deform = prescribed_deformation(surf, *small_rates(grid), 0.02, 4)
    r1, r2, r3 = (smooth_scalar(grid, seed, 2e-2) for seed in (21, 22, 23))
    dt = 0.005
    a1, a2, c = deform.a1 + dt * r1, deform.a2 + dt * r2, deform.c + dt * r3
    z_new = a1[:, None] * surf.y1 + a2[:, None] * surf.y2 + c[:, None] * surf.n
    zdot = r1[:, None] * surf.y1 + r2[:, None] * surf.y2 + r3[:, None] * surf.n
    hist = deform.history.replace_final_rate(zdot).advance(metric, surf.y, dt, z_new)

    rated = deform.history_with_rates(r1, r2, r3)
    nxt = deform.advance(dt, r1, r2, r3, rated)
    for name, want in (("a1", a1), ("a2", a2), ("c", c),
                       ("a1dot", r1), ("a2dot", r2), ("cdot", r3)):
        assert np.array_equal(getattr(nxt, name), want), name
    # times count whole steps: the fifth step ends at 5 dt exactly
    assert nxt.surface is surf and nxt.t == 5 * dt
    for name in ("tau", "z", "zdot"):
        assert np.array_equal(getattr(nxt.history, name), getattr(hist, name)), name
    # the successor's prefix is the given history's propagator itself, under
    # the surface's metric and points, and equal to the hand-built one
    prefix = nxt.history._prefix.entry
    assert prefix.matches(surf.metric, surf.y)
    assert prefix is transport_propagator(metric, surf.y, rated)
    assert np.array_equal(prefix.backward, hist._prefix.entry.backward)
    assert nxt.history.z[0] is deform.z
    # derivatives are taken once and kept; the fields cannot be reassigned
    assert np.array_equal(nxt.dz, grid.grad_last(nxt.z.T))
    assert nxt.da is nxt.da and nxt.dc is nxt.dc
    with pytest.raises(dataclasses.FrozenInstanceError):
        nxt.c = c
