import gc
import tracemalloc
from collections import Counter

import numpy as np
import pytest

from mgdeform import flow, gdef, kpres, metrics, surface, transport, vekua
from mgdeform.cli import within_tolerances
from mgdeform.errors import ConvergenceError, MgError, UnderResolvedError
from mgdeform.flow import (
    BoundarySpec,
    FlowConfig,
    init_flow,
    run_flow,
    step,
)
from mgdeform.grid import DiskGrid
from mgdeform.metrics import (
    AmbientMetric,
    FlatMetric,
    conformal_linear_metric,
    conformal_radial_metric,
)
from mgdeform.surface import SphereCapImmersion, build_surface, make_immersion
from mgdeform.vekua import point_pin

from helpers import AmbientMoved, ChartRotated, chart_shift, rotation


def assert_warm_inner_solves(records):
    """Every warm-started step makes at most 5 inner iterations per pass,
    and every step reports an inner contraction in [0, 1), positive
    wherever it iterated; a start that already meets the tolerance makes no
    iteration and reports 0."""
    for rec in records[1:]:
        assert rec.bvp_iterations <= 5 * rec.bvp_passes
    for rec in records:
        assert 0.0 <= rec.bvp_ratio < 1.0
        assert rec.bvp_ratio > 0.0 or rec.bvp_iterations == 0


@pytest.fixture(scope="module")
def flat_cap():
    grid = DiskGrid(16, 32)
    metric = FlatMetric()
    surf = build_surface(SphereCapImmersion(1.0, 0.5), metric, grid, ci_tol=1e-5)
    return metric, surf


def test_zero_data_negative_index_is_identity_flow(flat_cap):
    _, surf = flat_cap
    boundary = BoundarySpec(winding=-1, gamma_kind="zero")
    cfg = FlowConfig(t_final=0.02, dt=0.005)
    state = init_flow(surf, boundary, cfg)
    rep = run_flow(state)
    assert rep["index"] == -1
    assert rep["max_rate_sup"] <= 1e-12
    assert rep["max_dk_rel"] <= 1e-12
    assert np.max(np.abs(state.deform.z)) == 0.0


def test_failed_step_raises_its_own_error(flat_cap, monkeypatch):
    # no retry: the error of a failing step propagates unchanged, dt stays,
    # and the completed steps stay recorded
    _, surf = flat_cap
    boundary = BoundarySpec(winding=-1, gamma_kind="zero")
    cfg = FlowConfig(t_final=0.02, dt=0.005)
    state = init_flow(surf, boundary, cfg)
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
    _, surf = flat_cap
    boundary = BoundarySpec(winding=1, gamma_kind="harmonic", epsilon=1e-3, mode=1)
    cfg = FlowConfig(t_final=0.005, dt=0.005)
    state = init_flow(surf, boundary, cfg)
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
    _, surf = flat_cap
    boundary = BoundarySpec(winding=1, gamma_kind="harmonic", epsilon=1e-3, mode=1)

    def advance(dt):
        state = init_flow(surf, boundary, FlowConfig(t_final=0.02, dt=dt))
        run_flow(state)
        return state.deform.z

    z_ref = advance(0.00125)
    e1 = np.max(np.abs(advance(0.01) - z_ref))
    e2 = np.max(np.abs(advance(0.005) - z_ref))
    assert e2 < 0.7 * e1  # first-order integrator


@pytest.mark.parametrize("kwargs, name", [
    ({"dt": 0.0}, "positive"), ({"t_final": -0.05}, "positive"),
    ({"t_final": 0.01, "dt": 0.004}, "t_final"),
    ({"t_final": 0.001, "dt": 0.004}, "t_final"),
    # an error of the package, not a ValueError or OverflowError from round()
    ({"dt": float("nan")}, "finite"), ({"t_final": float("inf")}, "finite"),
    ({"dt": float("inf")}, "finite"), ({"t_final": 1e300, "dt": 1e-300}, "finite"),
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
    _, surf = flat_cap
    boundary = BoundarySpec(winding=1, gamma_kind="harmonic", epsilon=1e-3, mode=1)
    cfg = FlowConfig(t_final=0.01, dt=0.005)
    state = init_flow(surf, boundary, cfg)
    rec = step(state)
    assert rec.step_displacement <= cfg.dt * rec.rate_sup + 1e-18


def test_one_pinned_solve_per_step(flat_cap, monkeypatch):
    # the fixed-right-side solves of the linear-response basis run once, in
    # init_flow; every step, step 0 included, then makes exactly one solve,
    # with an assembler
    _, surf = flat_cap
    boundary = BoundarySpec(winding=1, gamma_kind="harmonic", epsilon=1e-3, mode=1)
    real_solve = vekua.bvp_solve
    calls = []

    def counting_solve(problem, psi_assembler=None, *args, **kwargs):
        calls.append(psi_assembler is not None)
        return real_solve(problem, psi_assembler, *args, **kwargs)

    monkeypatch.setattr(vekua, "bvp_solve", counting_solve)
    monkeypatch.setattr(flow, "bvp_solve", counting_solve)
    state = init_flow(surf, boundary, FlowConfig(t_final=0.015, dt=0.005))
    assert state.statics is not None
    assert calls and not any(calls)
    per_step = []

    def on_step(rec):
        per_step.append(list(calls))
        calls.clear()

    calls.clear()
    run_flow(state, on_step)
    assert per_step == [[True]] * 3


def test_warm_started_steps_make_at_most_two_assembler_calls(flat_cap, monkeypatch):
    # criterion 11's flow at 16x32: each step's coupled solve starts from the
    # extrapolation of the last two solutions and returns the last iterate it
    # assembled, so every step after the first makes at most two right-hand
    # side assemblies (a cold start plus a closing assembly made four)
    _, surf = flat_cap
    boundary = BoundarySpec(winding=1, gamma_kind="harmonic", epsilon=1e-3, mode=1)
    cfg = FlowConfig(t_final=0.05, dt=0.005)
    state = init_flow(surf, boundary, cfg)
    real_solve = flow.bvp_solve
    calls = []

    def counting_solve(problem, assembler, *args, **kwargs):
        def counted(w):
            calls.append(1)
            return assembler(w)
        return real_solve(problem, counted, *args, **kwargs)

    monkeypatch.setattr(flow, "bvp_solve", counting_solve)
    per_step = []

    def on_step(rec):
        per_step.append(len(calls))
        calls.clear()

    rep = run_flow(state, on_step)
    assert [r.bvp_passes for r in state.records] == per_step
    assert per_step[0] <= 7
    assert max(per_step[1:]) <= 2
    # each pass's inner GMRES starts from the previous solution
    assert_warm_inner_solves(state.records)
    for rec in state.records:
        assert rec.bvp_fixed_point_residual <= 1e-10
    assert rep["max_dk_oracle_rel"] <= 1e-4
    assert rep["max_fixed_point_z"] <= 1e-10


def test_boundary_data_built_once_per_flow(flat_cap, monkeypatch):
    # the shipped boundary rates are steady, so lambda and phi are flow
    # statics
    _, surf = flat_cap
    boundary = BoundarySpec(winding=1, gamma_kind="harmonic", epsilon=1e-3, mode=1)
    real = flow._boundary_data
    calls = []

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(flow, "_boundary_data", counting)
    state = init_flow(surf, boundary, FlowConfig(t_final=0.015, dt=0.005))
    run_flow(state)
    assert len(state.records) == 3
    assert len(calls) == 1


def test_curved_metric_flow_meets_acceptance_bounds(monkeypatch):
    # criterion 11's monitors and bounds, in the curved conformal_radial metric
    metric = conformal_radial_metric(0.5)
    surf = build_surface(SphereCapImmersion(1.0, 0.5), metric, DiskGrid(16, 32),
                         ci_tol=1e-5)
    boundary = BoundarySpec(winding=1, gamma_kind="harmonic", epsilon=1e-3, mode=1)
    cfg = FlowConfig(t_final=0.05, dt=0.005)
    state = init_flow(surf, boundary, cfg)
    calls = []
    real = metrics.ConformalMetric.christoffel_contract

    def counting(self, *args):
        calls.append(1)
        return real(self, *args)

    monkeypatch.setattr(metrics.ConformalMetric, "christoffel_contract", counting)
    per_step = []

    def on_step(rec):
        per_step.append(len(calls))
        calls.clear()

    rep = run_flow(state, on_step)
    # every consumer of Gamma (the RK4 stage points, the coefficients,
    # Delta(G), Delta(B), the rates and the rebuild oracle) asks for a
    # contraction.  The transport prefix is cached on the history, so a
    # step's contractions do not grow with the history length: past a fixed
    # part they are a fixed count per assembler call
    passes = [r.bvp_passes for r in state.records]
    per_pass = 6
    assert len({c - per_pass * p for c, p in zip(per_step[2:], passes[2:])}) == 1
    # the cold step 0 needs many passes; each inner GMRES starts from the
    # previous pass's solution
    assert state.records[0].bvp_iterations <= 150
    assert_warm_inner_solves(state.records)
    assert rep["index"] == 1
    assert rep["steps"] == 10
    assert rep["max_dk_oracle_rel"] <= 1e-4
    assert rep["max_g_residual"] <= 1e-6
    assert rep["max_boundary_residual"] <= 1e-6
    assert rep["max_fixed_point_z"] <= 1e-10
    assert rep["family_dimension_after"] == 1
    # the boundary data actually drives the surface
    assert rep["max_rate_sup"] > 1e-4


def test_flow_never_forms_the_metric_derivative(monkeypatch):
    # the flow meets d a only contracted, at the surface points and the
    # displaced points alike: over init_flow and four steps it never forms
    # the (N, 3, 3, 3) tensor.  Delta(G) contracts it with z at y, and the
    # rates with zdot at y and at y + z
    metric = conformal_radial_metric(0.5)
    surf = build_surface(SphereCapImmersion(1.0, 0.5), metric, DiskGrid(16, 32),
                         ci_tol=1e-5)
    real, real_contract = metric.dmetric, metric.dmetric_contract
    formed, contracted = [], []

    def counting(y):
        formed.append(1)
        return real(y)

    def counting_contract(y, u):
        contracted.append(1)
        return real_contract(y, u)

    monkeypatch.setattr(metric, "dmetric", counting)
    monkeypatch.setattr(metric, "dmetric_contract", counting_contract)
    state = init_flow(surf, BoundarySpec(), FlowConfig(t_final=0.02, dt=0.005))
    assert formed == contracted == []
    per_step = []

    def on_step(rec):
        per_step.append((len(formed), len(contracted)))
        for calls in (formed, contracted):
            calls.clear()

    run_flow(state, on_step)
    assert [f for f, _ in per_step] == [0, 0, 0, 0]
    # two contractions per pass for the rates, and one for Delta(G) of each
    # state whose variation is formed: the step's new state, and at step 0
    # also the initial state and each pass's virtual forward state
    passes = [r.bvp_passes for r in state.records]
    assert [c for _, c in per_step] == [3 * passes[0] + 2] + [2 * p + 1 for p in passes[1:]]


class GeneralPathMetric(AmbientMetric):
    """A plug-in with only ``metric`` and ``dmetric``, delegating to
    ``inner``: its Christoffel symbols take the general path."""

    def __init__(self, inner):
        self.inner = inner

    def metric(self, y):
        return self.inner.metric(y)

    def dmetric(self, y):
        return self.inner.dmetric(y)


def test_closed_form_step_matches_general_path():
    # one cold curved step with closed-form Christoffels and the same step
    # through the general path: the same iterations, and the same results up
    # to round-off
    recs = []
    for metric in (conformal_radial_metric(0.5),
                   GeneralPathMetric(conformal_radial_metric(0.5))):
        surf = build_surface(SphereCapImmersion(1.0, 0.5), metric, DiskGrid(16, 32),
                             ci_tol=1e-5)
        boundary = BoundarySpec(winding=1, gamma_kind="harmonic", epsilon=1e-3, mode=1)
        state = init_flow(surf, boundary, FlowConfig(t_final=0.005, dt=0.005))
        recs.append(step(state))
    closed, general = recs
    for name in ("bvp_passes", "bvp_iterations", "cdot_iterations",
                 "family_dimension_before", "family_dimension_after"):
        assert getattr(closed, name) == getattr(general, name), name
    for name in ("rate_sup", "step_displacement"):
        a, b = getattr(closed, name), getattr(general, name)
        assert abs(a - b) <= 1e-6 * abs(b), name
    # residual monitors sit at round-off: they agree to 1e-6 of their bounds
    for name, bound in (("dk_oracle_rel", 1e-4), ("g_residual", 1e-6),
                        ("boundary_residual", 1e-6), ("fixed_point_z", 1e-10)):
        assert abs(getattr(closed, name) - getattr(general, name)) <= 1e-6 * bound, name
    assert np.allclose(closed.params, general.params, rtol=0.0, atol=1e-6 * general.rate_sup)


def test_assembler_builds_one_trial_history_per_cdot_sweep(monkeypatch):
    # the variation and zdot reuse the trial history of the cdot solve's last
    # sweep, which is at the returned cdot: no history is built after it
    metric = conformal_radial_metric(0.5)
    surf = build_surface(SphereCapImmersion(1.0, 0.5), metric, DiskGrid(16, 32),
                         ci_tol=1e-5)
    state = init_flow(surf, BoundarySpec(), FlowConfig(t_final=0.015, dt=0.005))
    hists, sols, per_call = [], [], []
    real_hist = gdef.DeformationState.history_with_rates
    real_solve = flow.solve_cdot
    real_make = flow._make_assembler

    def counting_hist(self, *args):
        hists.append(1)
        return real_hist(self, *args)

    def recording_solve(*args, **kwargs):
        sols.append(real_solve(*args, **kwargs))
        return sols[-1]

    def make(flow_state):
        assembler, cache = real_make(flow_state)

        def counted(w):
            hists.clear()
            sols.clear()
            out = assembler(w)
            per_call.append((len(hists), [sol.iterations for sol in sols]))
            return out

        return counted, cache

    monkeypatch.setattr(gdef.DeformationState, "history_with_rates", counting_hist)
    monkeypatch.setattr(flow, "solve_cdot", recording_solve)
    monkeypatch.setattr(flow, "_make_assembler", make)
    run_flow(state)
    assert all(its == [n] for n, its in per_call)
    assert max(n for n, _ in per_call) >= 2


@pytest.mark.parametrize("metric, n_r, n_theta", [
    (FlatMetric(), 16, 34),
    (conformal_radial_metric(0.5), 24, 50),
])
def test_flow_on_grid_with_n_theta_not_a_multiple_of_four(metric, n_r, n_theta):
    # the complex solve runs on the grid as it is, so any even n_theta does
    surf = build_surface(SphereCapImmersion(1.0, 0.5), metric, DiskGrid(n_r, n_theta),
                         ci_tol=1e-5)
    boundary = BoundarySpec(winding=1, gamma_kind="harmonic", epsilon=1e-3, mode=1)
    state = init_flow(surf, boundary, FlowConfig(t_final=0.02, dt=0.005))
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


def _scaled_flow(metric_kind, winding, s):
    """Four steps on the radius-s cap with the rate amplitude s^2 0.05 and,
    in conformal_linear, the exponent gradient k/s: the image of the s = 1
    flow under the homothety y -> s y.  In conformal_radial the exponent
    alpha (|y|^2 - 1)/2 maps to alpha' = alpha/s^2, which pulls back to the
    original plus (alpha - alpha')/2, so the rate amplitude also takes the
    factor e^{alpha - alpha'}.  Returns z and the step records."""
    epsilon = 0.05 * s * s
    if metric_kind == "flat":
        metric = FlatMetric()
    elif metric_kind == "conformal_linear":
        metric = conformal_linear_metric((0.3 / s, 0.0, 0.2 / s))
    else:
        metric = conformal_radial_metric(0.5 / s**2)
        epsilon *= np.exp(0.5 - 0.5 / s**2)
    surf = build_surface(SphereCapImmersion(s, 0.5), metric, DiskGrid(16, 32), ci_tol=1e-5)
    boundary = BoundarySpec(winding=winding, gamma_kind="harmonic", epsilon=epsilon,
                            mode=2)
    state = init_flow(surf, boundary, FlowConfig(t_final=0.02, dt=0.005))
    run_flow(state)
    return state.deform.z, state.records


def assert_same_solver_counts(recs, base, near):
    """Equal outer passes and cdot/GMRES counts per step; with ``near`` a
    GMRES or cdot count may differ by one where its stop crosses at the
    solver's tolerance."""
    assert [r.bvp_passes for r in recs] == [r.bvp_passes for r in base]
    for name in ("bvp_iterations", "cdot_iterations"):
        got = [getattr(r, name) for r in recs]
        want = [getattr(r, name) for r in base]
        if near:
            assert all(abs(g - w) <= 1 for g, w in zip(got, want)), (name, got, want)
        else:
            assert got == want, name


@pytest.mark.parametrize("metric_kind, winding, s", [
    (kind, winding, s) for kind in ("flat", "conformal_linear", "conformal_radial")
    for winding in (1, 2) for s in (2.0, 0.5)
] + [("flat", 0, 2.0), ("flat", 0, 0.5)])
def test_flow_is_equivariant_under_scaling(metric_kind, winding, s):
    # the homothety y -> s y maps the flow to one with z' = s z, taking the
    # same solver iterations: every term of the rates must carry its power
    # of the scale.  The conformal_radial floor is the solver's tolerance,
    # whose GMRES stop tol max(1, |rhs|) is not scale-homogeneous
    radial = metric_kind == "conformal_radial"
    z, recs = _scaled_flow(metric_kind, winding, 1.0)
    z_s, recs_s = _scaled_flow(metric_kind, winding, s)
    bound = 1e-8 if radial else 1e-9
    assert np.max(np.abs(z_s - s * z)) <= bound * np.max(np.abs(s * z))
    assert_same_solver_counts(recs_s, recs, near=radial)


def test_plane_flows_in_conformal_linear_metric():
    # the plane is umbilic with H = k3 e^{-k.y} > 0 in e^{2 k.y} delta, so it
    # is admissible there and flows within the criterion-11 bounds
    metric = conformal_linear_metric((0.3, 0.0, 0.2))
    surf = build_surface(make_immersion("plane"), metric, DiskGrid(16, 32))
    assert np.max(np.abs(surf.K - surf.H ** 2)) <= 1e-12 * np.max(surf.K)
    boundary = BoundarySpec(winding=1, gamma_kind="harmonic", epsilon=1e-3, mode=1)
    cfg = FlowConfig(t_final=0.02, dt=0.005)
    state = init_flow(surf, boundary, cfg)
    rep = run_flow(state)
    assert within_tolerances(rep, cfg)
    assert rep["index"] == 1
    assert rep["steps"] == 4
    assert rep["max_dk_oracle_rel"] <= 1e-7
    assert rep["max_g_residual"] <= 1e-9
    assert rep["family_dimension_after"] == 1
    assert rep["max_rate_sup"] > 1e-4


def test_state_fields_differentiated_once_per_step(flat_cap, monkeypatch):
    # a state takes z_,i, d_i a^j and c_,i once; every assembly of the step
    # (cdot sweeps, variations, rates, monitors) reads the cached fields, and
    # the rates of each assembler iterate are differentiated once, and those
    # of the zero start of the flow's first solve not at all.  Every grid
    # derivative goes through DiskGrid.grad_last, which receives the
    # node-last view np.moveaxis(f, 0, -1) of an (N, ...) field f
    _, surf = flat_cap
    boundary = BoundarySpec(winding=1, gamma_kind="harmonic", epsilon=1e-3, mode=1)
    state = init_flow(surf, boundary, FlowConfig(t_final=0.005, dt=0.005))
    args = []
    real_grad = DiskGrid.grad_last
    iterates = []
    real_solve = flow.solve_cdot

    def recording_solve(surface, coeff_fn, a1, a2, a1dot, a2dot, *rest, **kwargs):
        iterates.append((a1dot, a2dot))
        return real_solve(surface, coeff_fn, a1, a2, a1dot, a2dot, *rest, **kwargs)

    def recording_grad(self, f):
        args.append(f)   # held, so no two recorded arrays share an address
        return real_grad(self, f)

    def key(a):
        return a.__array_interface__["data"][0], a.shape, a.strides

    def field_key(a):
        return key(np.moveaxis(np.asarray(a), 0, -1))

    monkeypatch.setattr(DiskGrid, "grad_last", recording_grad)
    monkeypatch.setattr(flow, "solve_cdot", recording_solve)
    before = state.deform
    step(state)
    seen = Counter(key(np.asarray(a)) for a in args)
    for deform in (before, state.deform):
        for name in ("a1", "a2", "c", "z"):
            assert seen[field_key(getattr(deform, name))] <= 1, name
    assert iterates
    assert not (iterates[0][0].any() or iterates[0][1].any())
    for a1dot, a2dot in iterates:
        once = int(bool(a1dot.any() or a2dot.any()))
        assert seen[field_key(a1dot)] == once
        assert seen[field_key(a2dot)] == once


def test_history_times_count_whole_steps(flat_cap):
    # the step clock and the history's sample times are k dt exactly: they
    # count whole steps, where a sum of steps would drift from step 6 on
    _, surf = flat_cap
    boundary = BoundarySpec(winding=1, gamma_kind="harmonic", epsilon=1e-3, mode=1)
    state = init_flow(surf, boundary, FlowConfig(t_final=0.05, dt=0.005))
    times = []
    run_flow(state, lambda rec: times.append((rec.t_new, list(state.deform.history.tau))))
    assert len(times) == 10
    for k, (t_new, tau) in enumerate(times, start=1):
        assert t_new == k * 0.005
        assert tau == [(k - 1) * 0.005, k * 0.005]
    assert state.deform.history.t_final == state.deform.t == 0.05


def test_flow_history_holds_its_final_interval_only():
    # after every step a flow's history holds two samples; over 20 curved
    # steps its propagator is, bit for bit, that of a history built from
    # every sample the flow made, and it serves no other metric or points
    metric = conformal_radial_metric(0.5)
    surf = build_surface(SphereCapImmersion(1.0, 0.5), metric, DiskGrid(16, 32),
                         ci_tol=1e-5)
    boundary = BoundarySpec(winding=1, gamma_kind="harmonic", epsilon=1e-3, mode=1)
    state = init_flow(surf, boundary, FlowConfig(t_final=0.1, dt=0.005))
    zs, zdots = [], []

    def on_step(rec):
        hist = state.deform.history
        assert len(hist.tau) == len(hist.z) == len(hist.zdot) == 2
        assert hist.n_steps == rec.step + 1
        zs.append(hist.z[0])
        zdots.append(hist.zdot[0])

    run_flow(state, on_step)
    hist = state.deform.history
    whole = transport.TransportHistory(np.arange(21) * 0.005, zs + [hist.z[1]],
                                       zdots + [hist.zdot[1]])
    got = transport.transport_propagator(metric, surf.y, hist)
    want = transport.transport_propagator(metric, surf.y, whole)
    assert got.k == want.k == 20
    assert np.array_equal(got.backward, want.backward)
    assert np.array_equal(got.g_end, want.g_end)
    for other_metric, other_y in ((conformal_radial_metric(0.5), surf.y),
                                  (metric, surf.y.copy())):
        with pytest.raises(MgError, match="advanced with"):
            transport.transport_propagator(other_metric, other_y, hist)


def test_flow_memory_does_not_grow_with_its_steps(flat_cap):
    # a flow's state is O(1) in its steps: from step 10 to step 60 of a flat
    # 16x32 flow its traced memory grows by less than 0.25 MB, the records
    # of the 50 steps included (one z and one zdot row per step, kept, would
    # add 1.2 MB)
    _, surf = flat_cap
    boundary = BoundarySpec(winding=1, gamma_kind="harmonic", epsilon=1e-3, mode=1)
    state = init_flow(surf, boundary, FlowConfig(t_final=0.3, dt=0.005))
    traced = {}
    tracemalloc.start()
    try:
        for k in range(1, 61):
            step(state)
            if k in (10, 60):
                gc.collect()
                traced[k] = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert traced[60] - traced[10] < 0.25e6, traced


@pytest.mark.parametrize("winding", [15, 16, 17, 40])
def test_winding_beyond_the_rim_resolution_is_rejected(flat_cap, monkeypatch, winding):
    # n_theta = 32 rim samples cannot tell winding k from k - 32: 40 would run
    # as index 8 and 17 as index -15, so |winding| >= 16 fails before any solve
    _, surf = flat_cap
    boundary = BoundarySpec(winding=winding)
    cfg = FlowConfig(t_final=0.005, dt=0.005)
    if winding < surf.grid.n_theta // 2:
        assert run_flow(init_flow(surf, boundary, cfg))["index"] == winding
        return

    def no_solve(*args, **kwargs):
        raise AssertionError("solved an unresolved winding")

    monkeypatch.setattr(flow, "linear_response_basis", no_solve)
    with pytest.raises(UnderResolvedError, match=f"winding {winding}"):
        init_flow(surf, boundary, cfg)


@pytest.mark.parametrize("metric", [FlatMetric(), conformal_radial_metric(0.5)],
                         ids=["flat", "conformal_radial"])
def test_step_applies_l_once_per_krylov_vector(metric, monkeypatch):
    # a step's T calls are one per pass for its right-hand side, one per
    # application of L, and one for the closing fixed-point check; every
    # application of L builds a Krylov vector, as the warm starts' residuals
    # come from the images the solve carries.  The successor's z_,i and
    # d_i a^j come from the rates' derivatives, not from differentiating it
    surf = build_surface(SphereCapImmersion(1.0, 0.5), metric, DiskGrid(16, 32),
                         ci_tol=1e-5)
    grid = surf.grid
    boundary = BoundarySpec(winding=1, gamma_kind="harmonic", epsilon=1e-3, mode=1)
    state = init_flow(surf, boundary, FlowConfig(t_final=0.02, dt=0.005))
    t_calls, krylov, grad_args = [], [], []
    real_t, real_gmres, real_grad = vekua.t_operator, vekua._gmres, DiskGrid.grad_last

    def counting_t(*args):
        t_calls.append(1)
        return real_t(*args)

    def counting_gmres(*args, **kwargs):
        out = real_gmres(*args, **kwargs)
        krylov.append(out[1])
        return out

    def recording_grad(self, f):
        grad_args.append(f)   # held, so no two recorded arrays share an address
        return real_grad(self, f)

    monkeypatch.setattr(vekua, "t_operator", counting_t)
    monkeypatch.setattr(vekua, "_gmres", counting_gmres)
    monkeypatch.setattr(DiskGrid, "grad_last", recording_grad)
    for _ in range(4):
        t_calls.clear()
        krylov.clear()
        grad_args.clear()
        rec = step(state)
        assert rec.bvp_iterations == sum(krylov)
        assert len(t_calls) == rec.bvp_passes + rec.bvp_iterations + 1
        new = state.deform
        touched = {np.asarray(a).__array_interface__["data"][0] for a in grad_args}
        for f in (new.a1, new.a2, new.z):
            assert f.__array_interface__["data"][0] not in touched
        grad_args.clear()
        for got, want in ((new.dz, real_grad(grid, new.z.T)),
                          (new.da, gdef.tangential_grad(grid, new.a1, new.a2))):
            assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


@pytest.mark.parametrize("metric, max_inner", [(FlatMetric(), 1), (conformal_radial_metric(0.5), 2)],
                         ids=["flat", "conformal_radial"])
def test_steady_steps_make_one_pass_from_the_unpinned_start(metric, max_inner):
    # criterion 11 at 16x32: each solve starts from the extrapolation of the
    # last two unpinned inner solutions.  A pinned start's residual would
    # carry the pin's own components -sum c_i b_i, which GMRES re-finds;
    # from this one every steady step makes one outer pass and at most one
    # (flat) or two (curved) applications of L
    surf = build_surface(SphereCapImmersion(1.0, 0.5), metric, DiskGrid(16, 32),
                         ci_tol=1e-5)
    boundary = BoundarySpec(winding=1, gamma_kind="harmonic", epsilon=1e-3, mode=1)
    state = init_flow(surf, boundary, FlowConfig(t_final=0.06, dt=0.005))
    run_flow(state)
    steady = state.records[4:]
    assert len(steady) == 8
    assert [r.bvp_passes for r in steady] == [1] * 8
    assert max(r.bvp_iterations for r in steady) <= max_inner


def test_curved_one_pass_step_makes_three_rk4_steps(monkeypatch):
    # criterion 11 in conformal_radial at 32x64: the carried normal reads
    # the one backward map, so a steady step's pass integrates the final
    # interval of its two trial histories once each.  The accepted trial's
    # propagator is the new state's prefix, so the monitors integrate only
    # the new final interval: 3 RK4 steps and 11 Christoffel contractions
    # in steps 4-9, 13 and 80 at most in step 0
    metric = conformal_radial_metric(0.5)
    surf = build_surface(SphereCapImmersion(1.0, 0.5), metric, DiskGrid(32, 64),
                         ci_tol=1e-5)
    boundary = BoundarySpec(winding=1, gamma_kind="harmonic", epsilon=1e-3, mode=1)
    state = init_flow(surf, boundary, FlowConfig(t_final=0.05, dt=0.005))
    rk4, contractions = [], []
    real_rk4 = transport._rk4_step
    real_contract = metrics.ConformalMetric.christoffel_contract

    def counting_rk4(*args):
        rk4.append(1)
        return real_rk4(*args)

    def counting_contract(self, *args):
        contractions.append(1)
        return real_contract(self, *args)

    monkeypatch.setattr(transport, "_rk4_step", counting_rk4)
    monkeypatch.setattr(metrics.ConformalMetric, "christoffel_contract", counting_contract)
    per_step = []
    for _ in range(10):
        rk4.clear()
        contractions.clear()
        rec = step(state)
        per_step.append((rec.bvp_passes, len(rk4), len(contractions)))
    assert per_step[0][1] <= 13 and per_step[0][2] <= 80, per_step
    assert all(n == 1 + 2 * p for p, n, _ in per_step[1:]), per_step
    assert per_step[4:] == [(1, 3, 11)] * 6, per_step


@pytest.mark.parametrize("winding", [1, 2])
def test_init_flow_applies_t_only_in_its_solves(flat_cap, monkeypatch, winding):
    # the pin holds the linear-response basis and nothing else: init_flow's
    # T calls are those of its 2n + 1 fixed-right-side solves, one per
    # family member, one for the right side, one per application of L and
    # one for the closing check each
    _, surf = flat_cap
    boundary = BoundarySpec(winding=winding, gamma_kind="harmonic", epsilon=1e-3, mode=1)
    t_calls, solves = [], []
    real_t, real_solve = vekua.t_operator, vekua.bvp_solve

    def counting_t(*args):
        t_calls.append(1)
        return real_t(*args)

    def recording_solve(*args, **kwargs):
        out = real_solve(*args, **kwargs)
        solves.append(out)
        return out

    monkeypatch.setattr(vekua, "t_operator", counting_t)
    monkeypatch.setattr(vekua, "bvp_solve", recording_solve)
    init_flow(surf, boundary, FlowConfig(t_final=0.005, dt=0.005))
    assert len(solves) == 2 * winding + 1
    assert len(t_calls) == sum(f.passes + f.iterations + 1 for f in solves)


def test_step_zero_differentiates_no_zero_field(flat_cap, monkeypatch):
    # the undeformed state's derivatives are exact zeros, given, and the
    # zero start of the first solve has zero rate derivatives
    _, surf = flat_cap
    boundary = BoundarySpec(winding=1, gamma_kind="harmonic", epsilon=1e-3, mode=1)
    state = init_flow(surf, boundary, FlowConfig(t_final=0.005, dt=0.005))
    for name in ("dz", "da", "dc"):
        field = getattr(state.deform, name)
        assert not np.any(field) and not np.any(np.signbit(field)), name
    real_grad = DiskGrid.grad_last

    def nonzero_grad(self, f):
        assert np.any(f), "differentiated an all-zero field"
        return real_grad(self, f)

    monkeypatch.setattr(DiskGrid, "grad_last", nonzero_grad)
    step(state)


def _rotated_chart_flow(metric, immersion, winding, s):
    """Four steps on ``immersion`` in the chart rotated by s angle slots, with
    the boundary phases mapped to the same tangent field and rate."""
    grid = DiskGrid(16, 32)
    alpha = 2 * np.pi * s / grid.n_theta
    surf = build_surface(ChartRotated(immersion, alpha), metric, grid, ci_tol=1e-5)
    boundary = BoundarySpec(winding=winding, phase=-(winding + 1) * alpha,
                            gamma_kind="harmonic", epsilon=0.05, mode=2,
                            gamma_phase=2 * alpha)
    state = init_flow(surf, boundary, FlowConfig(t_final=0.02, dt=0.005))
    run_flow(state)
    return state


@pytest.mark.parametrize("metric_kind, winding, surface_kind", [
    pytest.param(kind, winding, "sphere_cap", id=f"{kind}-{winding}")
    for kind, winding in (("flat", 0), ("flat", 1), ("flat", 2),
                          ("conformal_linear", 1), ("conformal_linear", 2),
                          ("conformal_radial", 1), ("conformal_radial", 2))
] + [pytest.param("flat", winding, "paraboloid", id=f"flat-paraboloid-{winding}")
     for winding in (1, 2)])
def test_flow_is_equivariant_under_chart_rotation(metric_kind, winding, surface_kind):
    # y'(x) = y(R x) is the same surface in a rotated chart; with the rim
    # data mapped along, the flow returns the same z and c, read at the
    # shifted nodes, in the same solver iterations (conformal_radial: a
    # GMRES or cdot count within one).  The paraboloid's chart is a graph
    # with a closed-form jacobian, so it meets the same bound as the cap
    metric = {"flat": FlatMetric(),
              "conformal_linear": conformal_linear_metric((0.3, 0.0, 0.2)),
              "conformal_radial": conformal_radial_metric(0.5)}[metric_kind]
    immersion = {"sphere_cap": SphereCapImmersion(1.0, 0.5),
                 "paraboloid": make_immersion("paraboloid", {"curv": 1.0})}[surface_kind]
    base = _rotated_chart_flow(metric, immersion, winding, 0)
    rot = _rotated_chart_flow(metric, immersion, winding, 5)
    perm = chart_shift(base.surface.grid, 5)
    for name in ("z", "c"):
        want = getattr(base.deform, name)[perm]
        got = getattr(rot.deform, name)
        assert np.max(np.abs(got - want)) <= 1e-9 * np.max(np.abs(want)), name
    for name in ("step", "n", "family_dimension_before", "family_dimension_after"):
        assert ([getattr(r, name) for r in rot.records]
                == [getattr(r, name) for r in base.records]), name
    assert_same_solver_counts(rot.records, base.records,
                              near=metric_kind == "conformal_radial")


# conformal_linear's exponent gradient, and a point its rotation axis runs
# through
_K = np.array([0.3, 0.0, 0.2])
_AXIS_POINT = np.array([0.2, -0.4, 0.1])
_ISOMETRY_METRICS = {
    "flat": FlatMetric(),
    "conformal_radial": conformal_radial_metric(0.5),
    "conformal_linear": conformal_linear_metric(_K),
}


def _moved_flow(metric_kind, rot=np.eye(3), shift=(0.0, 0.0, 0.0)):
    """Four steps of the winding-1 cap moved by y -> R y + d."""
    metric = _ISOMETRY_METRICS[metric_kind]
    surf = build_surface(AmbientMoved(SphereCapImmersion(1.0, 0.5), rot, shift), metric,
                         DiskGrid(16, 32), ci_tol=1e-5)
    boundary = BoundarySpec(winding=1, gamma_kind="harmonic", epsilon=0.05, mode=2)
    state = init_flow(surf, boundary, FlowConfig(t_final=0.02, dt=0.005))
    run_flow(state)
    return state


@pytest.fixture(scope="module")
def unmoved_flows():
    return {kind: _moved_flow(kind) for kind in _ISOMETRY_METRICS}


def _relative_move(state, base, rot):
    want = base.deform.z @ rot.T
    return float(np.max(np.abs(state.deform.z - want)) / np.max(np.abs(want)))


_ROT_K = rotation(_K, 0.8)


@pytest.mark.parametrize("metric_kind, rot, shift, bound", [
    ("flat", rotation((1.0, 2.0, 3.0), 0.7), (0.3, -0.2, 0.5), 1e-13),
    ("conformal_radial", rotation((1.0, -1.0, 2.0), 0.9), (0.0, 0.0, 0.0), 1e-10),
    ("conformal_linear", _ROT_K, _AXIS_POINT - _ROT_K @ _AXIS_POINT, 1e-11),
    ("conformal_linear", np.eye(3), (0.2, 0.5, -0.3), 1e-11),
], ids=["flat-rigid_motion", "conformal_radial-rotation_about_origin",
        "conformal_linear-rotation_about_axis_along_k", "conformal_linear-shift_normal_to_k"])
def test_flow_is_equivariant_under_ambient_isometries(unmoved_flows, metric_kind, rot,
                                                      shift, bound):
    # an isometry of the ambient metric moves the surface and its flow
    # together: the moved cap's flow is z' = R z, with the same c, in the
    # same solver iterations (a GMRES or cdot count within one where its
    # stop crosses at round-off).  Readings: 2.5e-14 flat, 1.4e-11 radial,
    # 2.0e-12 and 6.0e-13 linear
    base = unmoved_flows[metric_kind]
    moved = _moved_flow(metric_kind, rot, shift)
    assert _relative_move(moved, base, rot) <= bound
    assert np.max(np.abs(moved.deform.c - base.deform.c)) <= bound * np.max(np.abs(base.deform.c))
    assert_same_solver_counts(moved.records, base.records, near=metric_kind != "flat")


def test_a_non_isometry_moves_the_flow(unmoved_flows):
    # the control of the isometry cells: a 1e-3 shift is no isometry of
    # conformal_radial, and it moves z far above their bounds (read 6.9e-4)
    moved = _moved_flow("conformal_radial", shift=(1e-3, 0.0, 0.0))
    assert _relative_move(moved, unmoved_flows["conformal_radial"], np.eye(3)) >= 1e-4
