from collections import Counter

import numpy as np
import pytest

from mgdeform import flow, kpres, metrics, surface, transport, vekua
from mgdeform.errors import ConvergenceError, MgError
from mgdeform.flow import (
    BoundarySpec,
    FlowConfig,
    init_flow,
    run_flow,
    step,
)
from mgdeform.grid import DiskGrid
from mgdeform.metrics import FlatMetric, conformal_radial_metric
from mgdeform.surface import SphereCapImmersion, build_surface
from mgdeform.vekua import point_pin


@pytest.fixture(scope="module")
def flat_cap():
    grid = DiskGrid(16, 32)
    metric = FlatMetric()
    surf = build_surface(SphereCapImmersion(1.0, 0.5), metric, grid, ci_tol=1e-5)
    return metric, surf


def test_zero_data_negative_index_is_identity_flow(flat_cap):
    metric, surf = flat_cap
    boundary = BoundarySpec(winding=-1, gamma_kind="zero")
    cfg = FlowConfig(t_final=0.02, dt=0.005)
    state = init_flow(metric, surf, boundary, cfg)
    rep = run_flow(state)
    assert rep["index"] == -1
    assert rep["max_rate_sup"] <= 1e-12
    assert rep["max_dk_rel"] <= 1e-12
    assert np.max(np.abs(state.deform.z)) == 0.0


def test_failed_step_raises_its_own_error(flat_cap, monkeypatch):
    # no retry: the error of a failing step propagates unchanged, dt stays,
    # and the completed steps stay recorded
    metric, surf = flat_cap
    boundary = BoundarySpec(winding=-1, gamma_kind="zero")
    cfg = FlowConfig(t_final=0.02, dt=0.005)
    state = init_flow(metric, surf, boundary, cfg)
    real_step = flow.step
    calls = []

    def fail_second_call(flow_state):
        calls.append(flow_state.step_index)
        if len(calls) == 2:
            raise ConvergenceError("injected failure")
        return real_step(flow_state)

    monkeypatch.setattr(flow, "step", fail_second_call)
    with pytest.raises(ConvergenceError) as exc:
        run_flow(state)
    assert type(exc.value) is ConvergenceError
    assert cfg.dt == 0.005
    assert len(state.records) == 1


def test_single_step_invariants(flat_cap):
    metric, surf = flat_cap
    boundary = BoundarySpec(winding=1, gamma_kind="harmonic", epsilon=1e-3, mode=1)
    cfg = FlowConfig(t_final=0.005, dt=0.005)
    state = init_flow(metric, surf, boundary, cfg)
    rec = step(state)
    assert rec.n == 1
    assert rec.family_dimension_before == 3
    assert rec.family_dimension_after == 1
    assert rec.dk_oracle_rel < 1e-6
    assert rec.g_residual < 1e-8
    assert rec.boundary_residual < 1e-10
    assert rec.fixed_point_z < 1e-12
    # boundary data actually drives the surface
    assert rec.rate_sup > 1e-4


def test_step_refinement_first_order(flat_cap):
    # halving dt roughly halves the state difference against a fine reference
    metric, surf = flat_cap
    boundary = BoundarySpec(winding=1, gamma_kind="harmonic", epsilon=1e-3, mode=1)

    def advance(dt):
        state = init_flow(metric, surf, boundary,
                          FlowConfig(t_final=0.02, dt=dt))
        run_flow(state)
        return state.deform.z

    z_ref = advance(0.00125)
    e1 = np.max(np.abs(advance(0.01) - z_ref))
    e2 = np.max(np.abs(advance(0.005) - z_ref))
    assert e2 < 0.7 * e1  # first-order integrator


@pytest.mark.parametrize("kwargs, name", [
    ({"max_iter_bvp": 0}, "max_iter_bvp"),
    ({"max_iter_cdot": 0}, "max_iter_cdot"),
    ({"t_final": 0.01, "dt": 0.004}, "t_final"),
    ({"t_final": 0.001, "dt": 0.004}, "t_final"),
])
def test_flow_config_rejects_invalid_settings(kwargs, name):
    with pytest.raises(MgError, match=name):
        FlowConfig(**kwargs).validate()


@pytest.mark.parametrize("t_final, dt, n_steps", [
    (0.05, 0.0025, 20), (0.05, 0.005, 10), (0.02, 0.00125, 16),
    (0.015, 0.005, 3), (0.01, 0.005, 2),
])
def test_flow_config_whole_steps(t_final, dt, n_steps):
    cfg = FlowConfig(t_final=t_final, dt=dt)
    cfg.validate()
    assert cfg.n_steps == n_steps


def test_point_pin_counts():
    rng = np.random.default_rng(0)
    n_nodes = 40
    basis = [rng.normal(size=n_nodes) + 1j * rng.normal(size=n_nodes)
             for _ in range(3)]
    w = rng.normal(size=n_nodes) + 1j * rng.normal(size=n_nodes)
    pin = point_pin(basis)
    assert pin.pinv.shape == (3, 2)
    assert pin.rank == 2
    params = pin.pinv @ -np.array([w[0].real, w[0].imag])
    combo = w[0] + sum(c * b[0] for c, b in zip(params, basis))
    assert abs(combo) < 1e-12
    # n = 0 family: one parameter, two constraints; one is imposed
    assert point_pin(basis[:1]).rank == 1


def test_continuity_bound(flat_cap):
    metric, surf = flat_cap
    boundary = BoundarySpec(winding=1, gamma_kind="harmonic", epsilon=1e-3, mode=1)
    cfg = FlowConfig(t_final=0.01, dt=0.005)
    state = init_flow(metric, surf, boundary, cfg)
    rec = step(state)
    assert rec.step_displacement <= cfg.dt * rec.rate_sup + 1e-18


def test_one_pinned_solve_per_step(flat_cap, monkeypatch):
    # every step, step 0 included, makes exactly one solve with an assembler;
    # the fixed-right-side solves of the linear-response basis run once, in
    # step 0
    metric, surf = flat_cap
    boundary = BoundarySpec(winding=1, gamma_kind="harmonic", epsilon=1e-3, mode=1)
    state = init_flow(metric, surf, boundary, FlowConfig(t_final=0.015, dt=0.005))
    real_solve = vekua.bvp_solve
    calls = []

    def counting_solve(problem, psi_assembler=None, *args, **kwargs):
        calls.append((state.step_index, psi_assembler is not None))
        return real_solve(problem, psi_assembler, *args, **kwargs)

    monkeypatch.setattr(vekua, "bvp_solve", counting_solve)
    monkeypatch.setattr(flow, "bvp_solve", counting_solve)
    run_flow(state)
    assert [k for k, coupled in calls if coupled] == [0, 1, 2]
    assert {k for k, coupled in calls if not coupled} == {0}


def test_curved_metric_flow_meets_acceptance_bounds(monkeypatch):
    # criterion 11's monitors and bounds, in the curved conformal_radial metric
    metric = conformal_radial_metric(0.5)
    surf = build_surface(SphereCapImmersion(1.0, 0.5), metric, DiskGrid(16, 32),
                         ci_tol=1e-5)
    boundary = BoundarySpec(winding=1, gamma_kind="harmonic", epsilon=1e-3, mode=1)
    cfg = FlowConfig(t_final=0.05, dt=0.005)
    state = init_flow(metric, surf, boundary, cfg)
    calls = []
    real = metrics.christoffel_at

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    for module in (metrics, transport, kpres, surface):
        monkeypatch.setattr(module, "christoffel_at", counting)
    per_step = []

    def on_step(rec):
        per_step.append(len(calls))
        calls.clear()

    rep = run_flow(state, on_step)
    # the transport prefix is cached on the history, so a step's Christoffel
    # work does not grow with the history length
    assert len(set(per_step[2:])) == 1
    # a diverging inner Picard iteration hands over to GMRES once its
    # difference has grown tenfold from its minimum, not after max_iter
    assert state.records[0].bvp_iterations <= 150
    assert rep["index"] == 1
    assert rep["steps"] == 10
    assert rep["max_dk_oracle_rel"] <= 1e-4
    assert rep["max_g_residual"] <= 1e-6
    assert rep["max_boundary_residual"] <= 1e-6
    assert rep["max_fixed_point_z"] <= 1e-10
    assert rep["family_dimension_after"] == 1
    # the boundary data actually drives the surface
    assert rep["max_rate_sup"] > 1e-4


@pytest.mark.parametrize("metric, n_r, n_theta", [
    (FlatMetric(), 16, 34),
    (conformal_radial_metric(0.5), 24, 50),
])
def test_flow_on_grid_with_n_theta_not_a_multiple_of_four(metric, n_r, n_theta):
    # the complex solve runs on the grid as it is, so any even n_theta does
    surf = build_surface(SphereCapImmersion(1.0, 0.5), metric, DiskGrid(n_r, n_theta),
                         ci_tol=1e-5)
    boundary = BoundarySpec(winding=1, gamma_kind="harmonic", epsilon=1e-3, mode=1)
    state = init_flow(metric, surf, boundary, FlowConfig(t_final=0.02, dt=0.005))
    rep = run_flow(state)
    assert rep["index"] == 1
    assert rep["steps"] == 4
    assert rep["max_dk_oracle_rel"] <= 1e-4
    assert rep["max_g_residual"] <= 1e-6
    assert rep["max_boundary_residual"] <= 1e-6
    assert rep["max_fixed_point_z"] <= 1e-10
    assert rep["family_dimension_before"] == 3
    assert rep["family_dimension_after"] == 1
    assert rep["max_rate_sup"] > 1e-4


def test_state_fields_differentiated_once_per_step(flat_cap, monkeypatch):
    # a state takes z_,i, d_i a^j and c_,i once; every assembly of the step
    # (cdot sweeps, variations, rates, monitors) reads the cached fields, and
    # the rates of each assembler iterate are differentiated once, by the
    # cdot solve, whose d_i adot^j the rate assembly reads
    metric, surf = flat_cap
    boundary = BoundarySpec(winding=1, gamma_kind="harmonic", epsilon=1e-3, mode=1)
    state = init_flow(metric, surf, boundary, FlowConfig(t_final=0.005, dt=0.005))
    args = []
    real_grad = DiskGrid.grad
    iterates = []
    real_solve = flow.solve_cdot

    def recording_solve(surface, coeff_fn, a1, a2, a1dot, a2dot, *rest, **kwargs):
        iterates.append((a1dot, a2dot))
        return real_solve(surface, coeff_fn, a1, a2, a1dot, a2dot, *rest, **kwargs)

    def recording_grad(self, f):
        args.append(f)   # held, so no two recorded arrays share an address
        return real_grad(self, f)

    def key(a):
        a = np.asarray(a)
        return a.__array_interface__["data"][0], a.shape, a.strides

    monkeypatch.setattr(DiskGrid, "grad", recording_grad)
    monkeypatch.setattr(flow, "solve_cdot", recording_solve)
    before = state.deform
    step(state)
    seen = Counter(key(a) for a in args)
    for deform in (before, state.deform):
        for name in ("a1", "a2", "c", "z"):
            assert seen[key(getattr(deform, name))] <= 1, name
    assert iterates
    for a1dot, a2dot in iterates:
        assert seen[key(a1dot)] == 1
        assert seen[key(a2dot)] == 1


def test_history_times_count_whole_steps(flat_cap):
    # the history's sample times are k dt exactly, like the step clock
    metric, surf = flat_cap
    boundary = BoundarySpec(winding=1, gamma_kind="harmonic", epsilon=1e-3, mode=1)
    state = init_flow(metric, surf, boundary, FlowConfig(t_final=0.05, dt=0.005))
    run_flow(state)
    history = state.deform.history
    assert np.array_equal(history.tau, np.arange(11) * 0.005)
    assert history.t_final == state.deform.t == 0.05
