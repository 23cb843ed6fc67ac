from dataclasses import replace

import numpy as np
import pytest

from mgdeform.cdot import (
    PathIntegrator,
    gamma_t,
    kernel_fields,
    solve_cdot,
)
from mgdeform.errors import (
    ConvergenceError,
    MgError,
    NearSingularDenominatorError,
    NoContractionError,
)
from mgdeform.gdef import GDefCoefficients, assemble_coefficients, tangential_grad
from mgdeform.grid import DiskGrid
from mgdeform.metrics import FlatMetric, conformal_radial_metric
from mgdeform.surface import SphereCapImmersion, build_surface

from helpers import make_coeff_fn, prescribed_deformation, smooth_scalar
from reference import lipschitz_ratio, loop_closedness


@pytest.fixture(scope="module")
def setup_flat():
    grid = DiskGrid(16, 32)
    metric = FlatMetric()
    surf = build_surface(SphereCapImmersion(1.0, 0.8), metric, grid, ci_tol=1e-5)
    return metric, surf, PathIntegrator(grid)


@pytest.fixture(scope="module")
def setup_curved():
    grid = DiskGrid(16, 32)
    metric = conformal_radial_metric(0.6)
    surf = build_surface(SphereCapImmersion(1.0, 0.8), metric, grid, ci_tol=1e-5)
    return metric, surf, PathIntegrator(grid)


def test_gamma_zero_rates(setup_flat):
    _, surf, integ = setup_flat
    zero = np.zeros(surf.grid.n_nodes)
    g = gamma_t(surf, zero, zero, integ)
    assert np.max(np.abs(g)) == 0.0


def test_gamma_closed_form_sphere(setup_flat):
    # a1dot = 1, a2dot = 0: gamma = -int_0^x V dx1 along rays, V known in
    # closed form for the stereographic sphere cap
    _, surf, integ = setup_flat
    grid = surf.grid
    one = np.ones(grid.n_nodes)
    zero = np.zeros(grid.n_nodes)
    g = gamma_t(surf, one, zero, integ)
    rho = 0.8
    r = grid.r
    anti = 4 * rho**2 * (
        r / (2 * (1 + rho**2 * r**2)) + np.arctan(rho * r) / (2 * rho)
    )
    expect = -np.cos(grid.theta) * anti
    expect[0] = 0.0
    assert np.max(np.abs(g - expect)) < 1e-5


def test_gamma_refinement_oracle():
    # errors against a 10x-refined quadrature shrink at ~4th order
    metric = FlatMetric()
    errs = {}
    for n_r in (12, 24, 240):
        grid = DiskGrid(n_r, 24)
        surf = build_surface(SphereCapImmersion(1.0, 0.8), metric, grid, ci_tol=1e-3)
        a1d = np.sin(grid.x1 + 0.3) * np.cos(grid.x2)
        a2d = np.cos(grid.x1) * grid.x2
        g = gamma_t(surf, a1d, a2d, PathIntegrator(grid))
        errs[n_r] = g[grid.boundary_idx]
    e12 = np.max(np.abs(errs[12] - errs[240]))
    e24 = np.max(np.abs(errs[24] - errs[240]))
    assert e24 < e12 / 10.0


def test_flat_kernel_vanishes_and_cdot_is_gamma(setup_flat):
    metric, surf, integ = setup_flat
    grid = surf.grid
    a1dot = smooth_scalar(grid, 1, 1e-2)
    a2dot = smooth_scalar(grid, 2, 1e-2)
    deform = prescribed_deformation(surf, a1dot, a2dot, smooth_scalar(grid, 3, 1e-2), 0.1, 5)
    fn = make_coeff_fn(metric, surf, deform, a1dot, a2dot)
    coeffs = fn(deform.cdot)
    b1, b2 = kernel_fields(surf, coeffs, np.stack([deform.a1, deform.a2]),
                           np.stack([a1dot, a2dot]), deform.da,
                           tangential_grad(grid, a1dot, a2dot))
    assert np.max(np.abs(b1)) == 0.0 and np.max(np.abs(b2)) == 0.0
    sol = solve_cdot(surf, fn, deform.a1, deform.a2, a1dot, a2dot, integ)
    assert np.max(np.abs(sol.cdot - sol.gamma)) == 0.0
    assert sol.iterations <= 2
    assert np.max(np.abs(sol.p_field)) == 0.0


def test_zero_rates_zero_cdot(setup_curved):
    metric, surf, integ = setup_curved
    grid = surf.grid
    zero = np.zeros(grid.n_nodes)
    deform = prescribed_deformation(surf, zero, zero, zero, 0.05, 5)
    fn = make_coeff_fn(metric, surf, deform, zero, zero)
    sol = solve_cdot(surf, fn, deform.a1, deform.a2, zero, zero, integ)
    assert np.max(np.abs(sol.cdot)) == 0.0


def contraction_run(metric, surf, integ, t, c0=None, tol=1e-12, max_iter=50, wrap=None):
    grid = surf.grid
    a1dot = smooth_scalar(grid, 21, 5e-2)
    a2dot = smooth_scalar(grid, 22, 5e-2)
    cdot0 = smooth_scalar(grid, 23, 5e-2)
    n_steps = 8
    deform = prescribed_deformation(surf, a1dot, a2dot, cdot0, t, n_steps)
    dt = t / n_steps
    prev_state = prescribed_deformation(surf, a1dot, a2dot, cdot0, t - dt, n_steps - 1)
    prev = assemble_coefficients(metric, surf, prev_state)
    fn = make_coeff_fn(metric, surf, deform, a1dot, a2dot, prev=prev, dt=dt)
    if wrap is not None:
        fn = wrap(fn)
    return solve_cdot(surf, fn, deform.a1, deform.a2, a1dot, a2dot, integ,
                      tol=tol, c0=c0, max_iter=max_iter), (a1dot, a2dot)


def test_contraction_rates_below_one_and_monotone(setup_curved):
    metric, surf, integ = setup_curved
    rates = []
    for t in (0.0125, 0.025, 0.05):
        sol, _ = contraction_run(metric, surf, integ, t)
        assert sol.rate < 1.0
        assert sol.residual < 1e-10
        rates.append(sol.rate)
    assert rates[0] <= rates[1] <= rates[2]


def test_rate_ignores_sweeps_at_round_off(setup_curved):
    # the t = 0.025 solve ends on a sweep whose difference, 5.5e-17, is pure
    # round-off; noise of 1e-15 on N_j moves that difference 4-fold, but the
    # observed rate is the ratio of the first two sweeps either way
    metric, surf, integ = setup_curved
    rng = np.random.default_rng(5)

    def noisy(fn):
        def wrapped(cdot):
            coeffs = fn(cdot)
            return replace(coeffs, n_j=coeffs.n_j + 1e-15 * rng.standard_normal(coeffs.n_j.shape))
        return wrapped

    clean, _ = contraction_run(metric, surf, integ, 0.025)
    perturbed, _ = contraction_run(metric, surf, integ, 0.025, wrap=noisy)
    assert clean.iterations == perturbed.iterations == 4
    assert clean.rate > 0
    assert abs(perturbed.rate - clean.rate) <= 1e-6 * clean.rate


def test_uniqueness_two_initial_iterates(setup_curved):
    metric, surf, integ = setup_curved
    tol = 1e-12
    sol_a, _ = contraction_run(metric, surf, integ, 0.05, tol=tol)
    bump = 0.1 * np.cos(surf.grid.x1)
    sol_b, _ = contraction_run(metric, surf, integ, 0.05, c0=sol_a.gamma + bump, tol=tol)
    assert np.max(np.abs(sol_a.cdot - sol_b.cdot)) <= 2 * tol * max(
        1.0, np.max(np.abs(sol_a.cdot))
    )


def test_cdot_zero_at_base_point(setup_curved):
    metric, surf, integ = setup_curved
    sol, _ = contraction_run(metric, surf, integ, 0.05)
    assert abs(sol.cdot[integ.x0_node]) == 0.0


def test_lipschitz_ratio_flat_and_identical(setup_flat):
    metric, surf, integ = setup_flat
    grid = surf.grid
    a1dot = smooth_scalar(grid, 31, 1e-2)
    a2dot = smooth_scalar(grid, 32, 1e-2)
    deform = prescribed_deformation(surf, a1dot, a2dot, smooth_scalar(grid, 33, 1e-2), 0.1, 5)
    fn = make_coeff_fn(metric, surf, deform, a1dot, a2dot)
    sol1 = solve_cdot(surf, fn, deform.a1, deform.a2, a1dot, a2dot, integ)
    sol2 = solve_cdot(surf, fn, deform.a1, deform.a2, a1dot, a2dot, integ)
    assert lipschitz_ratio(sol1, sol2, (a1dot, a2dot), (a1dot, a2dot)) == 0.0
    assert np.max(np.abs(sol1.p_field)) == 0.0  # flat: P identically zero


def test_lipschitz_ratio_shrinks_with_t(setup_curved):
    metric, surf, integ = setup_curved
    ratios = []
    for t in (0.05, 0.0125):
        sol_a, ra = contraction_run(metric, surf, integ, t)
        grid = surf.grid
        a1b = ra[0] + 0.02 * np.cos(grid.x2)
        a2b = ra[1] - 0.02 * np.sin(grid.x1)
        deform = prescribed_deformation(surf, a1b, a2b, smooth_scalar(grid, 23, 5e-2), t, 8)
        fnb = make_coeff_fn(metric, surf, deform, a1b, a2b)
        sol_b = solve_cdot(surf, fnb, deform.a1, deform.a2, a1b, a2b, integ, tol=1e-12)
        ratios.append(lipschitz_ratio(sol_a, sol_b, ra, (a1b, a2b)))
    assert ratios[1] < ratios[0]


def test_path_independence_for_consistent_state(setup_flat):
    # for rates satisfying the flat constraint the integrand is an exact
    # gradient and the loop diagnostic sits at discretization level
    metric, surf, integ = setup_flat
    grid = surf.grid
    cdot = smooth_scalar(grid, 41, 1e-3)
    dcd = grid.grad_last(cdot)
    a1dot, a2dot = -np.einsum("nil,in->ln", np.linalg.inv(surf.b.transpose(2, 0, 1)), dcd)
    deform = prescribed_deformation(surf, a1dot, a2dot, cdot, 0.05, 5)
    fn = make_coeff_fn(metric, surf, deform, a1dot, a2dot)
    curl = loop_closedness(surf, fn(cdot), deform.a1, deform.a2, a1dot, a2dot)
    assert curl < 1e-6


def test_near_singular_denominator_raises(setup_curved):
    metric, surf, integ = setup_curved
    deform = prescribed_deformation(surf, *([np.zeros(surf.grid.n_nodes)] * 3), 0.01, 2)
    coeffs = assemble_coefficients(metric, surf, deform)
    coeffs.n_j[0] = -0.9  # force the denominator down
    with pytest.raises(NearSingularDenominatorError):
        kernel_fields(surf, coeffs, coeffs.n_j[1:], coeffs.n_j[1:],
                      deform.da, deform.da)


def test_path_integrator_base_point_is_center():
    grid = DiskGrid(8, 16)
    assert PathIntegrator(grid, 0).x0_node == 0
    with pytest.raises(MgError):
        PathIntegrator(grid, 5)


@pytest.mark.parametrize("tol", [0.0, -1e-10, float("nan")])
def test_non_positive_tolerance_rejected(setup_flat, tol):
    metric, surf, integ = setup_flat
    zero = np.zeros(surf.grid.n_nodes)
    deform = prescribed_deformation(surf, zero, zero, zero, 0.01, 2)
    fn = make_coeff_fn(metric, surf, deform, zero, zero)
    with pytest.raises(MgError, match="tol"):
        solve_cdot(surf, fn, deform.a1, deform.a2, zero, zero, integ, tol=tol)


def test_expanding_iteration_raises_no_contraction(setup_flat):
    # a coefficient rate that doubles and flips sign on every sweep makes the
    # successive differences grow by 2 each sweep
    metric, surf, integ = setup_flat
    zero = np.zeros(surf.grid.n_nodes)
    base = assemble_coefficients(metric, surf,
                                 prescribed_deformation(surf, zero, zero, zero, 0.01, 2))
    base = replace(base, qdot=np.ones_like(base.qdot))
    sweeps = []

    def coeff_fn(cdot_iter):
        sweeps.append(cdot_iter)
        return replace(base, qdot=base.qdot * (-2.0) ** (len(sweeps) - 1))

    with pytest.raises(NoContractionError, match=r"ratio 2\.000") as err:
        solve_cdot(surf, coeff_fn, zero, zero, zero, zero, integ, max_iter=8)
    assert len(sweeps) == 8
    listed = str(err.value).split("sweep differences ")[1].rstrip(")").split(", ")
    assert len(listed) == 8
    # past the first sweep, which starts from gamma = 0, each difference doubles
    ratios = [float(b) / float(a) for a, b in zip(listed[1:], listed[2:])]
    assert np.allclose(ratios, 2.0, rtol=1e-3)


def test_max_iter_below_one_rejected_before_any_sweep(setup_flat):
    metric, surf, integ = setup_flat
    zero = np.zeros(surf.grid.n_nodes)
    deform = prescribed_deformation(surf, zero, zero, zero, 0.01, 2)
    sweeps = []
    fn = make_coeff_fn(metric, surf, deform, zero, zero)

    def coeff_fn(cdot_iter):
        sweeps.append(1)
        return fn(cdot_iter)

    with pytest.raises(MgError, match="max_iter >= 1, got 0"):
        solve_cdot(surf, coeff_fn, zero, zero, zero, zero, integ, max_iter=0)
    assert sweeps == []


def test_contracting_solve_cut_off_is_not_called_expanding(setup_curved):
    # this solve contracts (ratio ~1e-4) but needs more than one sweep: cut
    # off after one, no ratio has been measured, so it did not settle
    metric, surf, integ = setup_curved
    assert contraction_run(metric, surf, integ, 0.05)[0].iterations >= 2
    with pytest.raises(ConvergenceError, match=r"in 1 sweeps \(sweep differences \S+\)$"):
        contraction_run(metric, surf, integ, 0.05, max_iter=1)


def test_cut_off_at_round_off_is_not_called_expanding(setup_curved):
    # a tolerance below round-off: the sweep differences fall from 2.0e-3 to
    # 1.4e-17 and hold there, a ratio of 1 between two round-off differences,
    # which is no measured expansion, so the cut-off did not settle
    metric, surf, integ = setup_curved
    with pytest.raises(ConvergenceError, match="did not settle in 8 sweeps") as err:
        contraction_run(metric, surf, integ, 0.05, tol=1e-30, max_iter=8)
    listed = [float(d) for d in
              str(err.value).split("sweep differences ")[1].rstrip(")").split(", ")]
    assert len(listed) == 8
    assert listed[0] > 1e-3
    assert listed[-1] == listed[-2] < 1e-16


@pytest.mark.parametrize("fixture", ["setup_flat", "setup_curved"])
def test_solution_is_the_iterate_its_last_sweep_certified(request, fixture):
    # one coeff_fn call per sweep, the last at the returned cdot: the
    # returned coefficients and residual are that sweep's, bit for bit
    metric, surf, integ = request.getfixturevalue(fixture)
    grid = surf.grid
    a1dot = smooth_scalar(grid, 21, 5e-2)
    a2dot = smooth_scalar(grid, 22, 5e-2)
    deform = prescribed_deformation(surf, a1dot, a2dot, smooth_scalar(grid, 23, 5e-2), 0.05, 8)
    fn = make_coeff_fn(metric, surf, deform, a1dot, a2dot)
    calls = []

    def coeff_fn(cdot_iter):
        calls.append(cdot_iter.copy())
        return fn(cdot_iter)

    sol = solve_cdot(surf, coeff_fn, deform.a1, deform.a2, a1dot, a2dot, integ)
    assert len(calls) == sol.iterations
    assert np.array_equal(calls[-1], sol.cdot)
    fresh = fn(sol.cdot)
    for name in fresh.__dataclass_fields__:
        assert np.array_equal(getattr(sol.coeffs, name), getattr(fresh, name)), name
    b1, b2 = kernel_fields(surf, sol.coeffs, np.stack([deform.a1, deform.a2]),
                           np.stack([a1dot, a2dot]), deform.da, sol.dadot)
    image = integ.line_integral(b1, b2) + sol.gamma
    assert sol.residual == float(np.max(np.abs(image - sol.cdot)))
    assert sol.residual <= 1e-10 * max(1.0, float(np.max(np.abs(sol.cdot))))


def test_kernel_is_the_time_derivative_of_the_g_condition(setup_curved):
    # c_,i = -(V a_i + N_k d_i a^k + Q_i) / (1 + N_0) along a G-deformation,
    # and the kernel plus V adot is its time derivative: checked against a
    # 4th-order centred difference in t along fields polynomial in t
    _, surf, _ = setup_curved
    grid = surf.grid
    seeds = iter(range(100, 200))

    def cubic(*shape):
        """Coefficients of t^0..t^3, each (*shape, N), of size 0.1-0.3."""
        return np.stack([np.reshape([smooth_scalar(grid, next(seeds), 0.05)
                                     for _ in range(int(np.prod(shape)))],
                                    (*shape, grid.n_nodes)) for _ in range(4)])

    fields = {"a": cubic(2), "da": cubic(2, 2), "n": cubic(3), "q": cubic(2)}

    def at(name, t):
        return sum(c * t**k for k, c in enumerate(fields[name]))

    def rate(name, t):
        return sum(k * c * t ** (k - 1) for k, c in enumerate(fields[name]) if k)

    def condition(t):
        n = at("n", t)
        stat = (surf.V * at("a", t) + np.einsum("kn,kin->in", n[1:], at("da", t))
                + at("q", t))
        return -stat / (1.0 + n[0])

    t, h = 0.3, 1e-3
    coeffs = GDefCoefficients(n_j=at("n", t), q_i=at("q", t),
                              ndot=rate("n", t), qdot=rate("q", t))
    kernel = np.stack(kernel_fields(surf, coeffs, at("a", t), rate("a", t),
                                    at("da", t), rate("da", t)))
    got = kernel - surf.V * rate("a", t)
    want = (-condition(t + 2 * h) + 8 * condition(t + h) - 8 * condition(t - h)
            + condition(t - 2 * h)) / (12 * h)
    assert np.max(np.abs(want)) > 0.1
    assert np.max(np.abs(got - want)) <= 1e-9 * np.max(np.abs(want))
