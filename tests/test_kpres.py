from collections import Counter

import numpy as np
import pytest

from mgdeform._contract import node_last
from mgdeform.cdot import PathIntegrator, solve_cdot
from mgdeform.errors import DegenerateCurvatureError, MgError
from mgdeform.gdef import assemble_coefficients, gdef_normal_residual, new_deformation
from mgdeform.grid import DiskGrid
from mgdeform.kpres import (
    BVariation,
    VariationRates,
    assemble_rates,
    assemble_variation,
    delta_b,
    delta_g,
    equation_coefficients,
    psi1_bracket,
    rhs_psi,
)
from mgdeform.metrics import FlatMetric, conformal_radial_metric
from mgdeform.surface import SphereCapImmersion, build_surface, gauss_curvature_of
from mgdeform.transport import transport_normal, transport_propagator

from helpers import CURVED_METRICS, prescribed_deformation, smooth_scalar
from reference import (
    christoffel_symbols,
    delta_b_cascade,
    delta_g_direct,
    transport_series_terms,
    w1_trace,
)


@pytest.fixture(scope="module")
def flat48():
    grid = DiskGrid(48, 96)
    metric = FlatMetric()
    return metric, build_surface(SphereCapImmersion(1.0, 0.8), metric, grid)


@pytest.fixture(scope="module")
def curved24():
    grid = DiskGrid(24, 48)
    metric = conformal_radial_metric(0.5)
    return metric, build_surface(SphereCapImmersion(1.0, 0.8), metric, grid, ci_tol=1e-5)


def g_pair(surface, seed, amp):
    """Exact normal-preserving pair: a^l = -(b^{-1})^{li} c_,i."""
    grid = surface.grid
    c = smooth_scalar(grid, seed, amp)
    dc = grid.grad_last(c)
    a1, a2 = -np.einsum("nil,in->ln", np.linalg.inv(surface.b.transpose(2, 0, 1)), dc)
    return a1, a2, c


def test_zero_deformation_all_zero(curved24):
    metric, surf = curved24
    deform = new_deformation(surf)
    gvar, bvar, _ = assemble_variation(metric, surf, deform)
    assert np.max(np.abs(gvar.dg_ij)) == 0.0
    assert np.max(np.abs(gvar.dg)) == 0.0
    assert np.max(np.abs(w1_trace(surf, gvar, deform.z, deform.dz))) == 0.0
    assert np.max(np.abs(bvar.m4)) < 1e-12
    assert np.max(np.abs(bvar.dK)) < 1e-12


def test_delta_g_matches_direct(curved24):
    metric, surf = curved24
    a1, a2, c = g_pair(surf, 3, 1e-2)
    deform = prescribed_deformation(surf, a1, a2, c, 1.0, 4)
    gvar = delta_g(metric, surf, deform)
    direct = delta_g_direct(metric, surf, deform.z, deform.dz)
    assert np.max(np.abs(gvar.dg_ij - direct)) < 1e-13


@pytest.mark.parametrize("kind", sorted(CURVED_METRICS))
def test_delta_b_matches_term_by_term_cascade(kind):
    # the closed-form sums of the Christoffel and M1/M2 terms equal the
    # paper's cascade, whose Christoffel terms are nonzero here
    grid = DiskGrid(24, 48)
    metric = CURVED_METRICS[kind]()
    surf = build_surface(SphereCapImmersion(1.0, 0.5), metric, grid, ci_tol=1e-5)
    rates = (smooth_scalar(grid, seed, 5e-2) for seed in (51, 52, 53))
    deform = prescribed_deformation(surf, *rates, 0.1, 8)
    gvar, bvar, fwd = assemble_variation(metric, surf, deform)
    assert np.max(np.abs(christoffel_symbols(metric, surf.y))) > 0.1
    ref = delta_b_cascade(metric, surf, deform, fwd, gvar)
    for name, want in ref.items():
        got = getattr(bvar, name)
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want)), name


@pytest.mark.parametrize("kind", sorted(CURVED_METRICS))
def test_transport_tails_are_one_gradient(kind):
    # Delta(B) takes the series tails d(A_(1)) n0 + A_(1) d n0 + d A_(2) as
    # the one gradient d n_t - d n0.  On the grid the two differ by the
    # product rule's discretization error, which falls at the grid's order
    # (about 6) from 24x48 to 48x96
    def split_minus_one(n_r):
        grid = DiskGrid(n_r, 2 * n_r)
        metric = CURVED_METRICS[kind]()
        surf = build_surface(SphereCapImmersion(1.0, 0.5), metric, grid, ci_tol=1e-5)
        rates = (smooth_scalar(grid, seed, 5e-2) for seed in (51, 52, 53))
        deform = prescribed_deformation(surf, *rates, 0.1, 8)
        n0 = surf.n.T
        n_t = transport_normal(metric, surf.y, deform.history, surf.n, deform.ambient_a).n_t
        a1m = node_last(transport_series_terms(metric, surf.y, deform.history, 1,
                                               "forward")[0])
        a2 = n_t - n0 - np.einsum("bsn,sn->bn", a1m, n0)
        split = (np.einsum("bsjn,sn->bjn", grid.grad_last(a1m), n0)
                 + np.einsum("bsn,sjn->bjn", a1m, surf.n_deriv) + grid.grad_last(a2))
        one = grid.grad_last(n_t) - surf.n_deriv
        assert np.max(np.abs(one)) > 1e-3
        return float(np.max(np.abs(split - one)))

    coarse, fine = split_minus_one(24), split_minus_one(48)
    assert np.log2(coarse / fine) >= 5.5, (coarse, fine)


def test_delta_g_flat_normal_bump_vs_rebuild(flat48):
    metric, surf = flat48
    grid = surf.grid
    c = smooth_scalar(grid, 7, 1e-4)
    zero = np.zeros(grid.n_nodes)
    deform = prescribed_deformation(surf, zero, zero, c, 1.0, 4)
    gvar = delta_g(metric, surf, deform)
    tang_t = surf.tang + deform.dz
    g_new = np.einsum("ab,ain,bjn->ijn", np.eye(3), tang_t, tang_t)
    assert np.max(np.abs(gvar.dg_ij - (g_new - surf.g))) < 1e-10


def test_determinant_identity(curved24):
    metric, surf = curved24
    a1, a2, c = g_pair(surf, 5, 1e-2)
    deform = prescribed_deformation(surf, a1, a2, c, 1.0, 4)
    gvar, bvar, _ = assemble_variation(metric, surf, deform)
    det_new = np.linalg.det((surf.g + gvar.dg_ij).transpose(2, 0, 1))
    assert np.max(np.abs((det_new - surf.g_det) - gvar.dg)) < 1e-12
    det_b_new = np.linalg.det((surf.b + bvar.db_ij).transpose(2, 0, 1))
    db = bvar.db_ij
    b = surf.b
    cofactor = (
        b[1, 1] * db[0, 0] + b[0, 0] * db[1, 1]
        - b[1, 0] * db[0, 1] - b[0, 1] * db[1, 0]
    )
    exact = cofactor + db[0, 0] * db[1, 1] - db[0, 1] * db[1, 0]
    assert np.max(np.abs((det_b_new - surf.b_det) - exact)) < 1e-12
    # the V-form of det b(t) - det b that dK holds deviates only at the
    # conjugate-isothermal residual level
    db_v = (bvar.dK + surf.b_det / surf.g_det) * (surf.g_det + gvar.dg) - surf.b_det
    assert np.max(np.abs(db_v - exact)) < 10 * surf.ci_residual * np.max(np.abs(db))


def test_rigid_translation_preserves_curvature(flat48):
    metric, surf = flat48
    v = np.array([3e-4, -2e-4, 4e-4])
    # exact tangential/normal split of the constant displacement
    proj = np.einsum("sin,s->in", surf.tang, v)
    a1, a2 = np.einsum("nij,jn->in", np.linalg.inv(surf.g.transpose(2, 0, 1)), proj)
    c = surf.n @ v
    deform = prescribed_deformation(surf, a1, a2, c, 1.0, 4)
    z = deform.history.z[-1]
    assert np.max(np.abs(z - v)) < 1e-15
    gvar, bvar, _ = assemble_variation(metric, surf, deform)
    assert np.max(np.abs(bvar.dK)) < 1e-9
    # rebuild oracle agrees: translated immersion has identical curvature
    k_osc = gauss_curvature_of(surf.grid, metric, surf.y + z)
    k_base = gauss_curvature_of(surf.grid, metric, surf.y)
    assert np.max(np.abs(k_osc - k_base)) < 1e-10


def test_delta_k_vs_rebuild_oracle_small_g_pairs(flat48):
    # the acceptance-shaped check: exact G-pairs of sup norm <= 1e-3
    metric, surf = flat48
    rng_seeds = (11, 12, 13)
    for seed in rng_seeds:
        a1, a2, c = g_pair(surf, seed, 1.5e-4)
        deform = prescribed_deformation(surf, a1, a2, c, 1.0, 4)
        z = deform.history.z[-1]
        znorm = np.max(np.abs(z))
        assert znorm <= 1e-3
        gvar, bvar, _ = assemble_variation(metric, surf, deform)
        k_def = gauss_curvature_of(surf.grid, metric, surf.y + z)
        k_base = gauss_curvature_of(surf.grid, metric, surf.y)
        oracle = k_def - k_base
        tol = max(1e-8, 1e-2 * znorm**2)
        assert np.max(np.abs(bvar.dK - oracle)) < tol


def test_equation_coefficients_sphere_closed_form(flat48):
    metric, surf = flat48
    grid = surf.grid
    rho = 0.8
    coeffs = equation_coefficients(surf)
    denom = 1 + rho**2 * (grid.x1**2 + grid.x2**2)
    p1_exact = -4 * rho**2 * grid.x2 / denom
    p2_exact = 4 * rho**2 * grid.x1 / denom
    assert np.max(np.abs(coeffs.p1 - p1_exact)) < 1e-6
    assert np.max(np.abs(coeffs.p2 - p2_exact)) < 1e-6
    # g = V^2 for this surface: q_k = d_k ln V = -p2, p1 patterns
    assert np.max(np.abs(0.5 * coeffs.qb1 + p2_exact)) < 1e-6
    assert np.max(np.abs(0.5 * coeffs.qb2 - p1_exact)) < 1e-6
    assert np.max(np.abs(coeffs.qb0 - 4.0)) < 1e-6


def test_constant_v_gives_zero_p():
    class Stub:
        pass

    grid = DiskGrid(8, 16)
    stub = Stub()
    stub.grid = grid
    stub.V = np.ones(grid.n_nodes)
    stub.g_det = np.full(grid.n_nodes, 2.0)
    stub.H = np.ones(grid.n_nodes)
    coeffs = equation_coefficients(stub)
    assert np.max(np.abs(coeffs.p1)) < 1e-14
    assert np.max(np.abs(coeffs.p2)) < 1e-14
    assert np.max(np.abs(0.5 * coeffs.qb1)) < 1e-14


def test_coefficients_frozen_rederivation_identical(flat48):
    _, surf = flat48
    c1 = equation_coefficients(surf)
    c2 = equation_coefficients(surf)
    for name in ("p1", "p2", "qb1", "qb2", "qb0"):
        assert np.array_equal(getattr(c1, name), getattr(c2, name))


def test_w1dot_explicit_matches_finite_difference(curved24):
    metric, surf = curved24
    a1d = smooth_scalar(surf.grid, 31, 5e-2)
    a2d = smooth_scalar(surf.grid, 32, 5e-2)
    cd = smooth_scalar(surf.grid, 33, 5e-2)
    t = 0.1
    vals = {}
    for tt in (t, t + 1e-5):
        deform = prescribed_deformation(surf, a1d, a2d, cd, tt, 8)
        gv = delta_g(metric, surf, deform)
        vals[tt] = (w1_trace(surf, gv, deform.z, deform.dz), gv.dg_ij)
    deform = prescribed_deformation(surf, a1d, a2d, cd, t, 8)
    gvar, bvar, _ = assemble_variation(metric, surf, deform)
    zdot = deform.rate_displacement()
    # w1dot and dgdot_ij do not read the M4 rate
    rates = assemble_rates(metric, surf, deform, gvar, bvar, zdot, a1d, a2d,
                           m4dot_override=np.zeros((2, 2, surf.grid.n_nodes)))
    fd_w1 = (vals[t + 1e-5][0] - vals[t][0]) / 1e-5
    fd_dg = (vals[t + 1e-5][1] - vals[t][1]) / 1e-5
    assert np.max(np.abs(rates.w1dot - fd_w1)) < 1e-4 * max(1.0, np.max(np.abs(fd_w1)))
    assert np.max(np.abs(rates.dgdot_ij - fd_dg)) < 1e-4 * max(1.0, np.max(np.abs(fd_dg)))


def test_p0_takes_the_time_derivative_of_delta_b(curved24):
    # with Delta(b_ij) = (d_i a^k) b_jk + M4_ij, p0's Delta(B) part
    # -tr(M4-dot)/V - (d/dt det Delta(b))/V^2 is the time derivative of
    # -tr(M4)/V - det Delta(b)/V^2: checked by a 4th-order centred difference
    # along d_i a^k and M4 polynomial in t.  The rest of p0 reads neither, so
    # it cancels against the same state with both rates zero
    metric, surf = curved24
    grid = surf.grid
    rates = (smooth_scalar(grid, seed, 1e-2) for seed in (71, 72, 73))
    deform = prescribed_deformation(surf, *rates, 0.05, 4)
    gvar = delta_g(metric, surf, deform)
    zdot = deform.rate_displacement()
    seeds = iter(range(300, 400))

    def cubic():
        """Coefficients of t^0..t^3 of a (2, 2, N) field of size 0.1-0.3."""
        return [np.reshape([smooth_scalar(grid, next(seeds), 0.05) for _ in range(4)],
                           (2, 2, grid.n_nodes)) for _ in range(4)]

    da, m4 = cubic(), cubic()

    def at(c, t):
        return sum(x * t**k for k, x in enumerate(c))

    def rate(c, t):
        return sum(k * x * t ** (k - 1) for k, x in enumerate(c) if k)

    def db(t):
        return np.einsum("kin,jkn->ijn", at(da, t), surf.b) + at(m4, t)

    def part(t):
        d, m = db(t), at(m4, t)
        return -(m[0, 0] + m[1, 1]) / surf.V - (d[0, 0] * d[1, 1] - d[0, 1] * d[1, 0]) / surf.V**2

    def p0(t, dadot, m4dot):
        bvar = BVariation(m4=at(m4, t), db_ij=db(t), dK=np.zeros(grid.n_nodes))
        return assemble_rates(metric, surf, deform, gvar, bvar, zdot, None, None,
                              m4dot_override=m4dot, dadot=dadot).p0

    t, h = 0.3, 1e-3
    zero = np.zeros((2, 2, grid.n_nodes))
    got = p0(t, rate(da, t), rate(m4, t)) - p0(t, zero, zero)
    want = (-part(t + 2 * h) + 8 * part(t + h) - 8 * part(t - h) + part(t - 2 * h)) / (12 * h)
    assert np.max(np.abs(want)) > 0.1
    assert np.max(np.abs(got - want)) <= 1e-9 * np.max(np.abs(want))


@pytest.mark.parametrize("source", ["none", "prev_m4 only", "dt only"])
def test_assemble_rates_needs_an_m4_rate_source(curved24, source):
    # neither an override nor prev_m4 with dt: no silent zero M4 rate
    metric, surf = curved24
    a1d, a2d, cd = (smooth_scalar(surf.grid, seed, 2e-2) for seed in (1, 2, 3))
    deform = prescribed_deformation(surf, a1d, a2d, cd, 0.01, 2)
    gvar, bvar, _ = assemble_variation(metric, surf, deform)
    given = {"none": {}, "prev_m4 only": {"prev_m4": bvar.m4}, "dt only": {"dt": 0.005}}
    with pytest.raises(MgError, match="m4dot_override, or prev_m4 with dt"):
        assemble_rates(metric, surf, deform, gvar, bvar, deform.rate_displacement(),
                       a1d, a2d, **given[source])


def test_p0_lipschitz_shrinks_with_t(curved24):
    metric, surf = curved24
    grid = surf.grid
    cd = smooth_scalar(grid, 43, 5e-2)
    pairs = [
        (smooth_scalar(grid, 41, 5e-2), smooth_scalar(grid, 42, 5e-2)),
        (smooth_scalar(grid, 44, 5e-2), smooth_scalar(grid, 45, 5e-2)),
    ]
    ratios = []
    for t in (0.1, 0.025):
        p0s = []
        for a1d, a2d in pairs:
            deform = prescribed_deformation(surf, a1d, a2d, cd, t, 8)
            gvar, bvar, _ = assemble_variation(metric, surf, deform)
            zdot = deform.rate_displacement()
            n_steps = 8
            dt = t / n_steps
            prev_state = prescribed_deformation(surf, a1d, a2d, cd, t - dt, n_steps - 1)
            gv_p, bv_p, _ = assemble_variation(metric, surf, prev_state)
            rates = assemble_rates(metric, surf, deform, gvar, bvar, zdot,
                                   a1d, a2d, prev_m4=bv_p.m4, dt=dt)
            p0s.append(rates.p0)
        num = np.max(np.abs(p0s[0] - p0s[1]))
        den = np.max(np.abs(pairs[0][0] - pairs[1][0])) + np.max(
            np.abs(pairs[0][1] - pairs[1][1])
        )
        ratios.append(num / den)
    assert ratios[1] < ratios[0]


def test_psi1_bracket_zero_state(curved24):
    metric, surf = curved24
    deform = new_deformation(surf)
    coeffs = assemble_coefficients(metric, surf, deform)
    psi1 = psi1_bracket(surf, coeffs, deform)
    assert np.max(np.abs(psi1)) == 0.0


def test_rhs_psi_rate_is_the_backward_difference(curved24):
    # the curl equation's source rate is (psi1 - prev_psi1) / dt: zero for
    # an unchanged source and r for one moved by dt r
    metric, surf = curved24
    rates = (smooth_scalar(surf.grid, seed, 1e-2) for seed in (61, 62, 63))
    deform = prescribed_deformation(surf, *rates, 0.05, 4)
    coeffs = assemble_coefficients(metric, surf, deform)
    zero = np.zeros(surf.grid.n_nodes)
    var_rates = VariationRates(w1dot=zero, dgdot_ij=np.zeros((2, 2, zero.size)), p0=zero)
    psi1 = psi1_bracket(surf, coeffs, deform)
    assert np.max(np.abs(psi1)) > 1e-6
    dt, r = 0.005, smooth_scalar(surf.grid, 64, 1.0)
    still, *_ = rhs_psi(surf, coeffs, deform, var_rates, zero, zero, psi1, dt)
    assert np.max(np.abs(still)) == 0.0
    moved, *_ = rhs_psi(surf, coeffs, deform, var_rates, zero, zero, psi1 - dt * r, dt)
    assert np.max(np.abs(moved - r)) <= 1e-10 * np.max(np.abs(r))


def test_rhs_psi_zero_state_flat(flat48):
    from mgdeform.gdef import new_deformation
    from mgdeform.kpres import assemble_rates, assemble_variation, rhs_psi

    metric, surf = flat48
    deform = new_deformation(surf)
    coeffs = assemble_coefficients(metric, surf, deform)
    gvar, bvar, _ = assemble_variation(metric, surf, deform)
    zdot = deform.rate_displacement()
    rates = assemble_rates(metric, surf, deform, gvar, bvar, zdot,
                           deform.a1dot, deform.a2dot,
                           m4dot_override=np.zeros((2, 2, surf.grid.n_nodes)))
    eq = equation_coefficients(surf)
    psi1dot, psi3, p0, psi1 = rhs_psi(surf, coeffs, deform, rates, eq.qb0,
                                      np.zeros(surf.grid.n_nodes))
    assert np.max(np.abs(psi1dot)) == 0.0
    assert np.max(np.abs(psi3)) == 0.0
    assert np.max(np.abs(p0)) == 0.0
    assert np.max(np.abs(psi1)) == 0.0


def test_collapsed_surface_raises_degenerate_curvature():
    # a unit normal displacement carries the unit sphere cap onto its center,
    # where the deformed second form degenerates
    grid = DiskGrid(16, 32)
    metric = FlatMetric()
    surf = build_surface(SphereCapImmersion(1.0, 0.5), metric, grid, ci_tol=1e-5)
    zero = np.zeros(grid.n_nodes)
    deform = prescribed_deformation(surf, zero, zero, np.ones(grid.n_nodes), 1.0, 4)
    with pytest.raises(DegenerateCurvatureError, match="determinant vanished"):
        assemble_variation(metric, surf, deform)


@pytest.mark.parametrize("other", [FlatMetric, lambda: conformal_radial_metric(0.5)],
                         ids=["flat", "equal_instance"])
def test_kernels_reject_a_metric_not_the_surfaces(curved24, other):
    # the kernels evaluate surface.metric in a state's caches and key the
    # transport cache by the metric's identity, so a metric other than the
    # surface's own object, even an equal one, is an error, not a mix of two
    metric, surf = curved24
    other = other()
    a1d, a2d, cd = (smooth_scalar(surf.grid, seed, 2e-2) for seed in (1, 2, 3))
    deform = prescribed_deformation(surf, a1d, a2d, cd, 0.01, 2)
    gvar, bvar, fwd = assemble_variation(metric, surf, deform)
    kernels = {
        "assemble_coefficients": lambda m: assemble_coefficients(m, surf, deform),
        "gdef_normal_residual": lambda m: gdef_normal_residual(m, surf, deform),
        "delta_g": lambda m: delta_g(m, surf, deform),
        "delta_b": lambda m: delta_b(m, surf, deform, fwd, gvar),
        "assemble_variation": lambda m: assemble_variation(m, surf, deform),
        "assemble_rates": lambda m: assemble_rates(m, surf, deform, gvar, bvar,
                                                   deform.rate_displacement(), a1d, a2d,
                                                   prev_m4=bvar.m4, dt=0.005),
    }
    for name, kernel in kernels.items():
        kernel(metric)
        with pytest.raises(MgError, match="not the surface's own"):
            kernel(other)


def test_curved_assembly_forms_contractions_only(monkeypatch):
    # one step's assembly on a 32x64 conformal_radial 0.5 cap at a 10-step
    # history, as a flow's steady step makes it: cdot sweeps, both
    # variations on the final trial history, the rates, the right-hand side
    # and the G monitor.  Gamma and d a enter only contracted, a(y + z) is
    # evaluated once for the state, and the carried normal needs no batched
    # solve
    metric = conformal_radial_metric(0.5)
    surf = build_surface(SphereCapImmersion(1.0, 0.5), metric, DiskGrid(32, 64),
                         ci_tol=1e-5)
    grid, dt = surf.grid, 0.005
    a1d, a2d, cd = (smooth_scalar(grid, seed, 2e-2) for seed in (4, 5, 6))
    before = prescribed_deformation(surf, a1d, a2d, cd, 9 * dt, 9)
    deform = prescribed_deformation(surf, a1d, a2d, cd, 10 * dt, 10)
    prev = assemble_coefficients(metric, surf, before)
    prev_m4 = assemble_variation(metric, surf, before)[1].m4
    # the state's own propagator, which the flow's monitors formed when
    # they made the state; its prefix serves every trial history
    transport_propagator(metric, surf.y, deform.history)
    counts = Counter()

    def counted(name, real, at_surface_too=True):
        def wrapper(*args, **kwargs):
            if at_surface_too or args[-1] is not surf.y:
                counts[name] += 1
            return real(*args, **kwargs)
        return wrapper

    for name in ("christoffel_contract", "dmetric_contract"):
        monkeypatch.setattr(metric, name, counted(name, getattr(metric, name)))
    for name in ("metric", "dmetric"):
        monkeypatch.setattr(metric, name, counted(name, getattr(metric, name), False))
    monkeypatch.setattr(np.linalg, "solve", counted("solve", np.linalg.solve))

    hists = []

    def coeff_fn(cdot_iter):
        hists.append(deform.history_with_rates(a1d, a2d, cdot_iter))
        return assemble_coefficients(metric, surf, deform, history=hists[-1],
                                     prev=prev, dt=dt)

    sol = solve_cdot(surf, coeff_fn, deform.a1, deform.a2, a1d, a2d, PathIntegrator(grid),
                     da=deform.da)
    # the last sweep's trial history is at the returned cdot
    hist = hists[-1]
    gvar, bvar, fwd = assemble_variation(metric, surf, deform, history=hist)
    rates = assemble_rates(metric, surf, deform, gvar, bvar, hist.zdot[-1], a1d, a2d,
                           prev_m4=prev_m4, dt=dt)
    rhs_psi(surf, sol.coeffs, deform, rates, equation_coefficients(surf).qb0,
            sol.p_field, prev_psi1=np.zeros(grid.n_nodes), dt=dt)
    gdef_normal_residual(metric, surf, deform)
    # each cdot sweep's trial history integrates its final interval (two
    # stage points); the state contracts Gamma0 with z once, for the
    # coefficients and Delta(G); Delta(B) contracts Gamma_t with n_t, and
    # the rates Gamma0 with zdot.  Delta(G) contracts d a0 with z, and the
    # rates d a_t and d a0 with zdot
    assert sol.iterations >= 2
    assert counts == {"metric": 1, "dmetric_contract": 3,
                      "christoffel_contract": 2 * sol.iterations + 3}
    # the rebuild oracle is independent: it evaluates a(y + z) itself, and
    # contracts Gamma with its own normal
    counts.clear()
    gauss_curvature_of(grid, metric, surf.y + deform.z)
    assert counts == {"metric": 1, "christoffel_contract": 1}
