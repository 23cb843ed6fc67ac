"""Known defects, each written as a test of the correct behaviour.

Every test is a strict expected failure that names the error it raises
today: the change that mends a defect sees its test pass, which strict
marking turns into a failure until the marker goes, and a failure of
another class still fails.
"""

import numpy as np
import pytest

from mgdeform import flow
from mgdeform.cli import SCHEMA, within_tolerances
from mgdeform.errors import (
    ConvergenceError,
    CoordinateError,
    UnderResolvedError,
    UnsolvableDataError,
)
from mgdeform.flow import BoundarySpec, FlowConfig, init_flow, run_flow
from mgdeform.grid import DiskGrid
from mgdeform.metrics import FlatMetric, conformal_radial_metric
from mgdeform.surface import SphereCapImmersion, build_surface, make_immersion
from mgdeform.vekua import bvp_solve

from helpers import manufactured_problem


@pytest.mark.xfail(strict=True, raises=UnsolvableDataError,
                   reason="the n < 0 solvability check ignores the residuals of the "
                          "volume-term response: residual 8.4e-2")
def test_manufactured_negative_index_problem_solves():
    grid = DiskGrid(16, 32)
    problem, w_star = manufactured_problem(grid, n=-1)
    fam = bvp_solve(problem)
    assert fam.n == -1
    assert np.max(np.abs(fam.w - w_star)) <= 1e-3 * np.max(np.abs(w_star))


@pytest.mark.xfail(strict=True, raises=ConvergenceError,
                   reason="the right-hand-side coupling stops contracting at n <= 0")
@pytest.mark.parametrize("metric_kind, winding", [
    ("flat", -1), ("conformal_radial", 0), ("conformal_radial", -1),
])
def test_non_positive_index_flow_meets_criterion_11_or_is_unsolvable(metric_kind, winding):
    # four steps at 16x32 within the monitored bounds, or a clean report that
    # the data admit no solution
    metric = FlatMetric() if metric_kind == "flat" else conformal_radial_metric(0.5)
    surf = build_surface(SphereCapImmersion(1.0, 0.5), metric, DiskGrid(16, 32),
                         ci_tol=1e-5)
    boundary = BoundarySpec(winding=winding, gamma_kind="harmonic", epsilon=1e-3, mode=1)
    cfg = FlowConfig(t_final=0.02, dt=0.005)
    try:
        report = run_flow(init_flow(surf, boundary, cfg))
    except UnsolvableDataError:
        return
    assert report["index"] == winding and report["steps"] == 4
    assert within_tolerances(report, cfg)


@pytest.mark.xfail(strict=True, raises=pytest.fail.Exception,
                   reason="|winding| < n_theta/2 avoids aliasing but not under-resolution: "
                          "winding 13 at 16x32 runs and misses the bounds (exit 3)")
def test_under_resolved_winding_is_rejected():
    surf = build_surface(SphereCapImmersion(1.0, 0.5), FlatMetric(), DiskGrid(16, 32),
                         ci_tol=1e-5)
    boundary = BoundarySpec(winding=13, gamma_kind="harmonic", epsilon=1e-3, mode=1)
    with pytest.raises(UnderResolvedError):
        run_flow(init_flow(surf, boundary, FlowConfig(t_final=0.02, dt=0.005)))


@pytest.mark.xfail(strict=True, raises=CoordinateError,
                   reason="the paraboloid chart is not conjugate isothermal in a "
                          "conformal_radial metric: residual 1.8e-1")
def test_paraboloid_builds_in_conformal_radial_metric():
    params = {key: spec[1] for key, spec in SCHEMA["surface"].items()}
    surf = build_surface(make_immersion("paraboloid", params), conformal_radial_metric(0.5),
                         DiskGrid(32, 64), ci_tol=params["ci_tol"])
    assert np.all(np.isfinite(surf.K))


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="from step 1 on the flat M4 rate is the one-step-lagged "
                          "backward difference (M4 - prev_m4) / dt: up to 8.8e-9 off on "
                          "4.25e-4 (2.1e-5 relative), at 16x32 as at 48x96")
def test_flat_flow_takes_the_exact_m4_rate(monkeypatch):
    # in a flat metric M4 = -a(z_,i, D n~) - (d_i a^k) b_jk plus terms
    # constant in t, so from step 1 on the M4 rate handed to assemble_rates
    # is -a(zdot_,i, D n~) - (d_i adot^k) b_jk at that call's rates (step 0's
    # virtual forward difference meets it within 1.4e-13)
    surf = build_surface(SphereCapImmersion(1.0, 0.5), FlatMetric(), DiskGrid(16, 32),
                         ci_tol=1e-5)
    boundary = BoundarySpec(winding=1, gamma_kind="harmonic", epsilon=1e-3, mode=1)
    state = init_flow(surf, boundary, FlowConfig(t_final=0.05, dt=0.005))
    real = flow.assemble_rates
    off = []

    def checking(metric, surface, deform, gvar, bvar, *rates, prev_m4=None, dt=None,
                 m4dot_override=None, dadot=None, zdot_der=None):
        if m4dot_override is None:
            exact = (-np.einsum("abn,ain,bjn->ijn", surface.ambient_a, zdot_der,
                                surface.n_deriv)
                     - np.einsum("kin,jkn->ijn", dadot, surface.b))
            lagged = (bvar.m4 - prev_m4) / dt
            off.append(np.max(np.abs(lagged - exact)) / np.max(np.abs(exact)))
        return real(metric, surface, deform, gvar, bvar, *rates, prev_m4=prev_m4, dt=dt,
                    m4dot_override=m4dot_override, dadot=dadot, zdot_der=zdot_der)

    monkeypatch.setattr(flow, "assemble_rates", checking)
    run_flow(state)
    assert len(off) >= 9
    assert max(off) <= 1e-10, off
