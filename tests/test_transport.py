import re

import numpy as np
import pytest

from mgdeform import metrics, transport
from mgdeform._contract import node_last
from mgdeform.errors import EmptyHistoryError, MgError
from mgdeform.grid import DiskGrid
from mgdeform.metrics import FlatMetric, conformal_linear_metric, conformal_radial_metric
from mgdeform.surface import SphereCapImmersion, build_surface
from mgdeform.transport import (
    TransportHistory,
    static_history,
    transport_normal,
    transport_propagator,
)

from helpers import prescribed_deformation, smooth_scalar
from reference import (
    history_from_path,
    op_inf_norm,
    path_norms,
    transport_series_terms,
    transport_tensor_ode,
)


def straight_history(t, n_steps, v=(0.3, -0.2, 0.1)):
    v = np.asarray(v, dtype=float)
    return history_from_path(lambda tau: tau * v, lambda tau: v, t, n_steps)


def final_metric(metric, y0, history):
    """a(y0 + z) node-last at the history's final sample."""
    return node_last(metric.metric(np.asarray(y0, dtype=float) + history.z[-1]))


def test_history_validation():
    with pytest.raises(MgError):
        TransportHistory([0.0, 1.0], np.ones((2, 1, 3)), np.ones((2, 1, 3)))
    with pytest.raises(MgError):
        TransportHistory([0.0, 0.5, 0.5], np.zeros((3, 1, 3)), np.zeros((3, 1, 3)))
    with pytest.raises(EmptyHistoryError):
        TransportHistory(np.zeros(0), np.zeros((0, 1, 3)), np.zeros((0, 1, 3)))
    with pytest.raises(MgError, match="tau = 0"):
        TransportHistory([0.1, 0.5], np.zeros((2, 1, 3)), np.zeros((2, 1, 3)))
    # uneven steps make a valid history, which advance cannot extend by whole
    # steps (its end 0.7 is not 2 dt = 0.6, though 3 dt = 0.9 comes after it)
    h = TransportHistory([0.0, 0.5, 0.7], np.zeros((3, 1, 3)), np.zeros((3, 1, 3)))
    assert h.t_final == 0.7
    with pytest.raises(MgError, match="whole steps"):
        h.advance(FlatMetric(), np.zeros((1, 3)), 0.3, np.zeros((1, 3)))


def test_new_histories_share_committed_rows():
    # a trial rate or a new step copies no committed sample: every row the
    # child keeps is the parent's own object, and an advanced history keeps
    # only its final interval's two samples
    h = straight_history(0.03, 3)
    rate = np.full((1, 3), 0.25)
    child = h.replace_final_rate(rate)
    assert all(a is b for a, b in zip(child.z, h.z)) and len(child.z) == len(h.z)
    assert all(a is b for a, b in zip(child.zdot[:-1], h.zdot[:-1]))
    assert np.array_equal(child.zdot[-1], rate) and h.zdot[-1] is not child.zdot[-1]
    z_new = h.z[-1] + 0.01 * rate
    longer = child.advance(conformal_radial_metric(0.7), np.zeros((1, 3)), 0.01, z_new)
    assert longer.n_steps == h.n_steps + 1 and longer.t_final == 4 * 0.01
    assert len(longer.tau) == len(longer.z) == len(longer.zdot) == 2
    assert longer.z[0] is h.z[-1] and longer.z[1] is z_new
    assert longer.zdot[0] is longer.zdot[1] is child.zdot[-1]


def test_flat_transport_is_identity():
    m = FlatMetric()
    h = straight_history(0.5, 10)
    y0 = np.array([[0.1, 0.2, 0.3]])
    seed = np.array([[1.0, -2.0, 0.5]])
    out = transport_tensor_ode(m, y0, h, seed)
    assert np.max(np.abs(out - seed)) == 0.0


def test_identity_is_one_read_only_array_per_node_count():
    # every flat propagator and RK4 seed reads the same identity, which no
    # consumer may write to
    eye = transport._identity(7)
    assert transport._identity(7) is eye
    assert not eye.flags.writeable and eye.flags.c_contiguous
    assert np.array_equal(eye, np.broadcast_to(np.eye(3)[:, :, None], (3, 3, 7)))
    assert transport._identity(8).shape == (3, 3, 8)
    h = straight_history(0.5, 10)
    y0 = np.zeros((h.n_points, 3))
    assert transport_propagator(FlatMetric(), y0, h).backward is transport._identity(h.n_points)


def test_ode_transport_refinement_order():
    m = conformal_linear_metric((0.8, -0.4, 0.3))
    y0 = np.array([[0.05, -0.1, 0.2]])
    seed = np.array([[1.0, 0.7, -0.4]])

    def solve(n_steps):
        h = straight_history(0.6, n_steps)
        return transport_tensor_ode(m, y0, h, seed)

    ref = solve(640)
    e1 = np.max(np.abs(solve(10) - ref))
    e2 = np.max(np.abs(solve(20) - ref))
    assert e2 < e1 / 12.0  # 4th order


def test_metric_compatibility_drift():
    # inner products of two transported seeds stay constant
    m = conformal_radial_metric(0.7)
    y0 = np.array([[0.2, 0.1, -0.3]])
    t = 1.0
    n_steps = 1000  # RK4 at dtau = 1e-3
    h = straight_history(t, n_steps, v=(0.25, 0.3, -0.1))
    a_seed = np.array([[1.0, 0.2, -0.3]])
    b_seed = np.array([[-0.5, 0.8, 0.1]])
    prod0 = np.einsum("nab,na,nb->n", m.metric(y0), a_seed, b_seed)
    a_t = transport_tensor_ode(m, y0, h, a_seed, "forward")
    b_t = transport_tensor_ode(m, y0, h, b_seed, "forward")
    pts = y0 + h.z[-1]
    prod1 = np.einsum("nab,na,nb->n", m.metric(pts), a_t, b_t)
    assert abs(float(prod1[0] - prod0[0])) < 1e-10 * t


def test_series_flat_zero():
    m = FlatMetric()
    h = straight_history(0.5, 20)
    terms = transport_series_terms(m, np.zeros((1, 3)), h, 4)
    for a in terms:
        assert np.max(np.abs(a)) == 0.0


def test_series_bound_lemma_shape():
    m = conformal_linear_metric((0.6, 0.2, -0.1))
    y0 = np.array([[0.0, 0.1, 0.05]])
    t = 0.4
    h = straight_history(t, 400)
    terms = transport_series_terms(m, y0, h, 4)
    sup_g, sup_zd = path_norms(m, y0, h)
    x = t * sup_g * sup_zd
    for k, a in enumerate(terms, start=1):
        assert op_inf_norm(a) <= x**k + 1e-12


def test_series_matches_ode_within_truncation():
    m = conformal_linear_metric((0.9, -0.5, 0.2))
    y0 = np.array([[0.1, 0.0, -0.1]])
    seed = np.array([[0.3, -1.0, 0.6]])
    for t in (0.05, 0.1, 0.2):
        h = straight_history(t, 400)
        terms = transport_series_terms(m, y0, h, 4)
        total = np.broadcast_to(np.eye(3), (1, 3, 3)).copy()
        for a in terms:
            total = total + a
        approx = np.einsum("ngb,nb->ng", total, seed)
        exact = transport_tensor_ode(m, y0, h, seed, "backward", substeps=4)
        sup_g, sup_zd = path_norms(m, y0, h)
        x = t * sup_g * sup_zd
        assert x <= 0.3
        err = np.max(np.abs(approx - exact))
        assert err <= 10.0 * x**5


def test_forward_backward_are_mutually_inverse():
    m = conformal_radial_metric(0.9)
    y0 = np.array([[0.3, -0.2, 0.1]])
    h = straight_history(0.3, 50)
    eye = np.broadcast_to(np.eye(3), (1, 3, 3))
    mb = transport_tensor_ode(m, y0, h, eye, "backward", substeps=2)
    mf = transport_tensor_ode(m, y0, h, eye, "forward", substeps=2)
    prod = np.einsum("nab,nbc->nac", mb, mf)
    assert np.max(np.abs(prod - np.eye(3))) < 1e-9


def test_transport_normal_trivial_cases():
    m = FlatMetric()
    n0 = np.array([[0.0, 0.0, 1.0]])
    y0 = np.zeros((1, 3))
    h = straight_history(0.4, 10)
    res = transport_normal(m, y0, h, n0, final_metric(m, y0, h))
    assert np.max(np.abs(res.n_t - n0.T)) == 0.0
    assert abs(float(res.norm[0]) - 1.0) < 1e-14
    # t = 0: tails vanish, unit norm
    h0 = static_history(1)
    m0, y00 = conformal_radial_metric(0.5), y0 + [[0, 0, 1.0]]
    res0 = transport_normal(m0, y00, h0, n0, final_metric(m0, y00, h0))
    assert np.max(np.abs(res0.n_t - n0.T)) == 0.0
    assert res0.identity
    assert abs(float(res0.norm[0]) - 1.0) < 1e-14


def test_transport_normal_norm_preserved_curved():
    m = conformal_radial_metric(0.8)
    y0 = np.array([[0.0, 0.0, 1.0]])  # on the unit sphere, metric = identity there
    n0 = np.array([[0.0, 0.0, 1.0]])
    h = straight_history(0.2, 200, v=(0.1, -0.3, 0.2))
    res = transport_normal(m, y0, h, n0, final_metric(m, y0, h))
    assert abs(float(res.norm[0]) - 1.0) < 1e-10
    # n_t = B^-1 n0: the backward map carries it back to n0
    back = transport_propagator(m, y0, h).backward
    assert np.max(np.abs(np.einsum("gbn,bn->gn", back, res.n_t) - n0.T)) < 1e-14


def test_carried_normal_inverts_the_backward_map(curved_cap, monkeypatch):
    # n_t = B^-1 n_0 from B's adjugate at every node of a curved cap, with
    # no batched solve: B n_t = n_0 to 1e-14
    metric, surf = curved_cap
    rates = [smooth_scalar(surf.grid, seed, 0.2) for seed in range(3)]
    deform = prescribed_deformation(surf, *rates, 0.05, 10)

    def no_solve(*args, **kwargs):
        raise AssertionError("batched solve called")

    monkeypatch.setattr(np.linalg, "solve", no_solve)
    res = transport_normal(metric, surf.y, deform.history, surf.n, deform.ambient_a)
    back = transport_propagator(metric, surf.y, deform.history).backward
    assert np.max(np.abs(back - np.eye(3)[:, :, None])) > 1e-3
    assert np.max(np.abs(np.einsum("gbn,bn->gn", back, res.n_t) - surf.n.T)) <= 1e-14


def test_singular_backward_map_raises():
    # det B must be finite and positive: a zero, a negative and a NaN
    # determinant each name their node
    n0 = np.tile([[0.0], [0.0], [1.0]], (1, 4))
    for bad, det in ((np.diag([1.0, 1.0, 0.0]), "0.000e+00"),
                     (np.diag([1.0, -1.0, 1.0]), "-1.000e+00"),
                     (np.diag([1.0, np.nan, 1.0]), "nan")):
        back = np.repeat(np.eye(3)[:, :, None], 4, axis=2)
        back[:, :, 2] = bad
        with pytest.raises(MgError, match=re.escape(f"singular at node 2, det={det}")), \
                np.errstate(invalid="ignore"):
            transport._carried_normal(back, n0)


def test_hermite_end_sample_is_the_sample():
    # at s = 1 the interval's end sample itself, which the cubic reproduces
    # bit for bit
    y0, h = _quadratic_paths([0.0, 0.03, 0.05, 0.11])
    for m in range(h.n_steps):
        z, zd = h.hermite(m, 1.0)
        assert z is h.z[m + 1] and zd is h.zdot[m + 1]
        dt = h.tau[m + 1] - h.tau[m]
        # the cubic at s = 1: h01 = 1 and g11 = 1, every other weight 0
        assert np.array_equal(0.0 * h.z[m] + 0.0 * dt * h.zdot[m] + 1.0 * h.z[m + 1]
                              + 0.0 * dt * h.zdot[m + 1], z)
        assert np.array_equal((0.0 * h.z[m] + 0.0 * h.z[m + 1]) / dt + 0.0 * h.zdot[m]
                              + 1.0 * h.zdot[m + 1], zd)


@pytest.fixture
def christoffel_calls(monkeypatch):
    """Names each Christoffel evaluation of a conformal metric, which is
    always a contraction: "christoffel_contract" for Gamma(u(tau)) zdot at a
    stage point."""
    calls = []
    real = metrics.ConformalMetric.christoffel_contract

    def counting(self, *args):
        calls.append("christoffel_contract")
        return real(self, *args)

    monkeypatch.setattr(metrics.ConformalMetric, "christoffel_contract", counting)
    return calls


def _per_stage_rk4(metric, y0, history, seed, direction):
    """Textbook RK4 evaluating Gamma zdot afresh at each of the 4 stages,
    with the propagator's node-last stage product; node-first seed and
    result, as ``transport_tensor_ode``'s."""
    a = node_last(np.array(seed, dtype=float))
    n = history.n_steps
    backward = direction == "backward"
    sign = 1.0 if backward else -1.0

    def rhs(m, s, val):
        z, zd = history.hermite(m, s)
        g = metric.christoffel_contract(y0 + z, node_last(zd))
        return sign * np.einsum("gbn,bkn->gkn", g, val)

    for m in (range(n - 1, -1, -1) if backward else range(n)):
        s0, s1 = (1.0, 0.0) if backward else (0.0, 1.0)
        h = history.tau[m + 1] - history.tau[m]
        k1 = rhs(m, s0, a)
        k2 = rhs(m, 0.5, a + 0.5 * h * k1)
        k3 = rhs(m, 0.5, a + 0.5 * h * k2)
        k4 = rhs(m, s1, a + h * k3)
        a = a + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
    return _by_node(a)


def _quadratic_paths(tau):
    """Two base points riding the path tau v + tau^2 at the samples ``tau``."""
    y0 = np.array([[0.2, 0.1, -0.3], [0.0, 0.4, 0.5]])
    tau = np.asarray(tau, dtype=float)[:, None, None]
    v = np.array([0.25, 0.3, -0.1])
    h = TransportHistory(tau[:, 0, 0], np.repeat(tau * v + tau**2, 2, axis=1),
                         np.repeat(v + 2 * tau, 2, axis=1))
    return y0, h


def test_ode_evaluates_each_stage_point_once(christoffel_calls):
    m = conformal_radial_metric(0.7)
    # over 7 steps to t = 0.5
    y0, h = _quadratic_paths(np.linspace(0.0, 0.5, 8))
    mat_seed = np.broadcast_to(np.eye(3), (2, 3, 3)).copy()
    vec_seed = np.array([[1.0, 0.2, -0.3], [-0.5, 0.8, 0.1]])
    for direction in ("backward", "forward"):
        christoffel_calls.clear()
        out = transport_tensor_ode(m, y0, h, mat_seed, direction)
        # one contraction per stage point (4 M before sharing), no full tensor
        assert christoffel_calls == ["christoffel_contract"] * (2 * h.n_steps + 1)
        assert np.array_equal(out, _per_stage_rk4(m, y0, h, mat_seed, direction))
        out = transport_tensor_ode(m, y0, h, vec_seed, direction)
        ref = _per_stage_rk4(m, y0, h, vec_seed[..., None], direction)[..., 0]
        assert np.array_equal(out, ref)


def test_propagator_takes_one_rk4_step_per_interval():
    m = conformal_radial_metric(0.7)
    eye = np.broadcast_to(np.eye(3), (2, 3, 3))
    # one interval: the propagator's maps are the textbook step itself
    y0, h = _quadratic_paths([0.0, 0.3])
    prop = transport_propagator(m, y0, h)
    assert np.array_equal(_by_node(prop.backward), _per_stage_rk4(m, y0, h, eye, "backward"))
    # several intervals: the map is composed in another order than the
    # textbook carries its seed, so they agree to round-off
    y0, h = _quadratic_paths(np.linspace(0.0, 0.5, 8))
    prop = transport_propagator(m, y0, h)
    assert _rel(_by_node(prop.backward), _per_stage_rk4(m, y0, h, eye, "backward")) <= 1e-13


def test_each_extension_makes_one_rk4_step(monkeypatch):
    # one map per interval: a fresh propagator makes one RK4 step per
    # interval, a trial rate one for the final interval, and an advance
    # none for the interval it commits when that history's propagator is
    # memoised, which becomes its prefix
    calls = []
    real = transport._rk4_step

    def counting(*args):
        calls.append(1)
        return real(*args)

    monkeypatch.setattr(transport, "_rk4_step", counting)
    m = conformal_radial_metric(0.7)
    y0, h = _quadratic_paths(np.linspace(0.0, 0.5, 8))
    transport_propagator(m, y0, h)
    assert len(calls) == h.n_steps
    calls.clear()
    transport_propagator(m, y0, h.replace_final_rate(1.1 * h.zdot[-1]))
    assert len(calls) == 1
    calls.clear()
    longer = h.advance(m, y0, h.tau[1], h.z[-1] + h.tau[1] * h.zdot[-1])
    assert not calls
    transport_propagator(m, y0, longer)
    assert len(calls) == 1
    calls.clear()
    # a rate whose propagator is not yet integrated: the advance makes its
    # final interval's step
    trial = h.replace_final_rate(1.2 * h.zdot[-1])
    longer = trial.advance(m, y0, h.tau[1], h.z[-1] + h.tau[1] * trial.zdot[-1])
    assert len(calls) == 1


def test_carried_normal_converges_at_fourth_order():
    # n_t = B^-1 n0 inverts the RK4 backward map, so it is the forward
    # transport to RK4's order: its distance to a finely substepped forward
    # solve falls by at least 12x per halving of the interval
    m = conformal_radial_metric(0.7)
    n0 = np.array([[0.6, 0.0, 0.8], [0.0, -1.0, 0.0]])
    errs = []
    for n_steps in (4, 8, 16):
        y0, h = _quadratic_paths(np.linspace(0.0, 0.5, n_steps + 1))
        got = transport_normal(m, y0, h, n0, final_metric(m, y0, h)).n_t.T
        want = transport_tensor_ode(m, y0, h, n0, "forward", substeps=64)
        errs.append(float(np.max(np.abs(got - want))))
    assert errs[0] >= 12 * errs[1] and errs[1] >= 12 * errs[2], errs


def test_nonuniform_history_matches_references():
    m = conformal_radial_metric(0.7)
    y0, h = _quadratic_paths([0.0, 0.03, 0.05, 0.11, 0.12, 0.2])
    _check_against_full(m, y0, h, np.array([[1.0, 0.2, -0.3], [-0.5, 0.8, 0.1]]))
    for dt in (0.01, 0.05):   # 5 dt = 0.05 or 0.25, before or after tau_M = 0.2
        with pytest.raises(MgError, match="whole steps"):
            h.advance(m, y0, dt, h.z[-1])


def test_whole_path_references_refuse_an_advanced_history():
    # an advanced history holds its final interval only, so the references
    # that read tau, z and zdot as the whole path must refuse it rather than
    # integrate that interval alone
    m = conformal_radial_metric(0.7)
    y0 = np.array([[0.2, 0.1, -0.3]])
    rate = np.array([[0.25, 0.3, -0.1]])
    hist = static_history(1).replace_final_rate(rate)
    for k in range(1, 6):
        hist = hist.advance(m, y0, 0.01, 0.01 * k * rate)
    with pytest.raises(MgError, match="holds 1 of its 5 intervals"):
        transport_series_terms(m, y0, hist, 1)
    with pytest.raises(MgError, match="holds 1 of its 5 intervals"):
        path_norms(m, y0, hist)
    whole = TransportHistory([0.01 * k for k in range(6)], [0.01 * k * rate for k in range(6)],
                             [rate] * 6)
    assert np.all(np.isfinite(transport_series_terms(m, y0, whole, 1)[0]))
    assert all(np.isfinite(path_norms(m, y0, whole)))


@pytest.fixture(scope="module")
def curved_cap():
    metric = conformal_radial_metric(0.5)
    surf = build_surface(SphereCapImmersion(1.0, 0.5), metric, DiskGrid(16, 32),
                         ci_tol=1e-5)
    return metric, surf


def _rel(a, b):
    return float(np.max(np.abs(a - b)) / np.max(np.abs(b)))


def _by_node(x):
    """The (N, ...) view of a node-last array, the references' layout."""
    return np.moveaxis(x, -1, 0)


def _check_against_full(metric, y0, hist, seed):
    prop = transport_propagator(metric, y0, hist)
    back = _by_node(prop.backward)
    eye = np.broadcast_to(np.eye(3), back.shape)
    assert _rel(back, transport_tensor_ode(metric, y0, hist, eye, "backward")) <= 1e-13
    vec = np.einsum("nab,nb->na", back, seed)
    assert _rel(vec, transport_tensor_ode(metric, y0, hist, seed, "backward")) <= 1e-13


def test_cached_propagator_matches_full_recomputation(curved_cap, christoffel_calls):
    metric, surf = curved_cap
    grid, y0 = surf.grid, surf.y
    rates = [smooth_scalar(grid, seed, 2e-2) for seed in range(3)]
    deform = prescribed_deformation(surf, *rates, 0.03, 6)

    def rate(seed):
        fields = [smooth_scalar(grid, seed + k, 2e-2) for k in range(3)]
        return deform.rate_displacement(*fields)

    hist = deform.history
    # the same samples, array-built: an advanced history holds only its
    # final interval, so the references integrate this one
    taus, zs, zdots = list(hist.tau), list(hist.z), list(hist.zdot)
    christoffel_calls.clear()
    _check_against_full(metric, y0, hist, surf.y1)
    chain = [("replace", 20), ("replace", 30), ("advance", 40), ("replace", 50),
             ("advance", 60), ("advance", 70), ("replace", 80)]
    for kind, seed in chain:
        christoffel_calls.clear()
        zdots[-1] = rate(seed)
        hist = hist.replace_final_rate(zdots[-1])
        if kind == "advance":
            old = hist
            z_new = hist.z[-1] + 0.005 * zdots[-1]
            hist = hist.advance(metric, y0, 0.005, z_new)
            assert hist.tau[-1] == (old.n_steps + 1) * 0.005   # whole steps from tau_0 = 0
            assert hist.tau[0] == old.tau[-1] and hist.z[0] is old.z[-1]
            assert hist.zdot[0] is hist.zdot[1] is zdots[-1]
            taus.append(hist.tau[-1])
            zs.append(z_new)
            zdots.append(zdots[-1])
        prop = transport_propagator(metric, y0, hist)
        # the cached prefix leaves the final interval (2 contractions), plus
        # the committed one after an advance, integrated by the advance
        assert christoffel_calls == ["christoffel_contract"] * (2 if kind == "replace" else 4)
        assert transport_propagator(metric, y0, hist) is prop
        mirror = TransportHistory(taus, zs, zdots)
        assert mirror.n_steps == hist.n_steps
        assert np.array_equal(prop.backward, transport_propagator(metric, y0, mirror).backward)
        _check_against_full(metric, y0, mirror, surf.y2 + hist.z[-1])

    # another metric or base-point object never reads the cached prefix: a
    # fresh array-built history integrates under it, an advanced one raises
    for other_metric, other_y0 in ((conformal_radial_metric(0.5), y0),
                                   (metric, y0.copy()),
                                   (conformal_radial_metric(0.7), y0)):
        zdots[-1] = rate(90)
        child = TransportHistory(taus, zs, zdots)
        christoffel_calls.clear()
        transport_propagator(other_metric, other_y0, child)
        assert christoffel_calls == ["christoffel_contract"] * (2 * child.n_steps + 1)
        _check_against_full(other_metric, other_y0, child, surf.y1)
        with pytest.raises(MgError, match="advanced with"):
            transport_propagator(other_metric, other_y0, hist.replace_final_rate(zdots[-1]))


def test_array_built_history_is_bound_to_its_first_key(curved_cap, christoffel_calls):
    # an array-built history and its children belong to the metric and
    # base-point objects of their first integration, as an advanced history
    # does: another key raises before any integration, and the first key
    # still reads the cached prefix
    metric, surf = curved_cap
    y0, zdot = surf.y, 0.5 * surf.y1
    taus = [0.0, 0.01, 0.02, 0.03]
    hist = TransportHistory(taus, [t * zdot for t in taus], [zdot] * len(taus))
    prop = transport_propagator(metric, y0, hist)
    child = hist.replace_final_rate(0.5 * surf.y2)
    christoffel_calls.clear()
    for other_metric, other_y0 in ((conformal_radial_metric(0.5), y0),
                                   (metric, y0.copy()),
                                   (conformal_radial_metric(0.7), y0)):
        for h in (hist, child):
            with pytest.raises(MgError, match="first integrated or advanced with"):
                transport_propagator(other_metric, other_y0, h)
    assert christoffel_calls == []
    assert transport_propagator(metric, y0, hist) is prop
    transport_propagator(metric, y0, child)
    assert christoffel_calls == ["christoffel_contract"] * 2
    _check_against_full(metric, y0, child, surf.y1)


def test_advanced_history_is_bound_to_its_metric_and_points():
    # an advanced history no longer holds the samples of its prefix, so it
    # gives no propagator under another metric or other base points, flat
    # ones included, where its prefix is the identity
    y0 = np.array([[0.2, 0.1, -0.3]])
    rate = np.array([[0.25, 0.3, -0.1]])
    for metric in (FlatMetric(), conformal_radial_metric(0.7)):
        hist = static_history(1).replace_final_rate(rate).advance(metric, y0, 0.01, 0.01 * rate)
        hist = hist.advance(metric, y0, 0.01, 0.02 * rate)
        prop = transport_propagator(metric, y0, hist)
        assert prop.identity == metric.is_flat() and prop.k == 2
        for other_metric, other_y0 in ((type(metric)() if metric.is_flat()
                                        else conformal_radial_metric(0.7), y0),
                                       (metric, y0.copy())):
            with pytest.raises(MgError, match="advanced with"):
                transport_propagator(other_metric, other_y0, hist)
            with pytest.raises(MgError, match="advanced with"):
                hist.advance(other_metric, other_y0, 0.01, 0.03 * rate)
        # nor does it integrate an interval it no longer holds
        with pytest.raises(MgError, match="holds the intervals from 1"):
            hist.hermite(0, 0.5)


def test_trial_histories_share_checked_rows():
    # a child history holds its parent's rows themselves and checks only the
    # rows it adds
    n = 7
    zdot = np.ones((n, 3))
    y0, metric = np.zeros((n, 3)), FlatMetric()
    hist = TransportHistory([0.0, 0.005], [np.zeros((n, 3)), 0.005 * zdot], [zdot, zdot])
    trial = hist.replace_final_rate(2 * zdot)
    assert trial.z is hist.z and trial.zdot[0] is hist.zdot[0]
    assert trial.tau is hist.tau
    longer = hist.advance(metric, y0, 0.005, 0.01 * zdot)
    assert longer.z[0] is hist.z[-1]
    assert longer.zdot[0] is longer.zdot[1] is hist.zdot[-1]
    assert np.array_equal(longer.tau, [0.005, 0.01])
    for bad in (np.ones((n, 2)), np.ones((n + 1, 3))):
        with pytest.raises(MgError, match="shape"):
            hist.replace_final_rate(bad)
        with pytest.raises(MgError, match="shape"):
            hist.advance(metric, y0, 0.005, bad)
    with pytest.raises(MgError, match="increase"):
        static_history(n).advance(metric, y0, 0.0, zdot)
