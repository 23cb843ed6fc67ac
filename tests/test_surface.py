import dataclasses
from dataclasses import FrozenInstanceError

import numpy as np
import pytest

from mgdeform.errors import CoordinateError, DegenerateMetricError, GeometryError
from mgdeform.grid import DiskGrid
from mgdeform.metrics import (
    AmbientMetric,
    FlatMetric,
    conformal_linear_metric,
    conformal_radial_metric,
)
from mgdeform.surface import (
    SphereCapImmersion,
    _ci_residual,
    build_surface,
    gauss_curvature_of,
    make_immersion,
    raw_fundamental_forms,
    validate_hypotheses,
)


@pytest.fixture(scope="module")
def sphere_state():
    grid = DiskGrid(24, 48)
    return build_surface(SphereCapImmersion(1.0, 0.8), FlatMetric(), grid)


def test_sphere_jacobian_matches_fd():
    imm = SphereCapImmersion(1.0, 0.8)
    rng = np.random.default_rng(0)
    x1 = rng.uniform(-0.6, 0.6, 10)
    x2 = rng.uniform(-0.6, 0.6, 10)
    jac = imm.jacobian(x1, x2)
    step = 1e-6
    jac_fd = np.stack(
        [(imm.chart(x1 + step, x2) - imm.chart(x1 - step, x2)) / (2 * step),
         (imm.chart(x1, x2 + step) - imm.chart(x1, x2 - step)) / (2 * step)],
        axis=-1,
    )
    assert np.max(np.abs(jac - jac_fd)) < 1e-8


@pytest.mark.parametrize("kind, params", [("plane", {}), ("paraboloid", {"curv": 1.0}),
                                           ("paraboloid", {"curv": -0.7})])
def test_graph_jacobians_are_closed_form(kind, params):
    # y = (x1, x2, f): rows (1, 0), (0, 1) and the gradient of f
    imm = make_immersion(kind, params)
    curv = params.get("curv", 0.0)
    rng = np.random.default_rng(1)
    x1 = rng.uniform(-0.6, 0.6, 10)
    x2 = rng.uniform(-0.6, 0.6, 10)
    jac = imm.jacobian(x1, x2)
    expect = np.zeros((10, 3, 2))
    expect[:, 0, 0] = expect[:, 1, 1] = 1.0
    expect[:, 2, 0], expect[:, 2, 1] = curv * x1, curv * x2
    assert np.array_equal(jac, expect)
    step = 1e-6
    jac_fd = np.stack(
        [(imm.chart(x1 + step, x2) - imm.chart(x1 - step, x2)) / (2 * step),
         (imm.chart(x1, x2 + step) - imm.chart(x1, x2 - step)) / (2 * step)],
        axis=-1,
    )
    assert np.max(np.abs(jac - jac_fd)) < 1e-8


def test_sphere_closed_form_oracle(sphere_state):
    # closed form: conformal factor 4 rho^2 / (1 + rho^2 |x|^2)^2, b = g, K = H = 1
    s = sphere_state
    grid = s.grid
    rho = 0.8
    lam = 4 * rho**2 / (1 + rho**2 * (grid.x1**2 + grid.x2**2)) ** 2
    assert np.max(np.abs(s.g[0, 0] - lam)) < 1e-6
    assert np.max(np.abs(s.g[1, 1] - lam)) < 1e-6
    assert np.max(np.abs(s.g[0, 1])) < 1e-6
    assert np.max(np.abs(s.b - s.g)) < 1e-6
    assert np.max(np.abs(s.V - s.g[0, 0])) < 1e-6
    assert np.max(np.abs(s.K - 1.0)) < 1e-6
    assert np.max(np.abs(s.H - 1.0)) < 1e-6


def test_identity_k_g_equals_b(sphere_state):
    s = sphere_state
    assert np.max(np.abs(s.K * s.g_det - s.b_det)) < 1e-14
    assert np.all(s.H**2 >= s.K - 1e-9)


def test_normal_orthonormal(sphere_state):
    s = sphere_state
    a_nt = np.einsum("abn,na,bin->in", s.ambient_a, s.n, s.tang)
    a_nn = np.einsum("abn,na,nb->n", s.ambient_a, s.n, s.n)
    assert np.max(np.abs(a_nt)) < 1e-10
    assert np.max(np.abs(a_nn - 1.0)) < 1e-12


class AnisotropicMetric(AmbientMetric):
    """Constant diag(1, 2, 3): not a scalar multiple of delta."""

    def metric(self, y):
        return np.broadcast_to(np.diag([1.0, 2.0, 3.0]), y.shape[:-1] + (3, 3)).copy()

    def dmetric(self, y):
        return np.zeros(y.shape[:-1] + (3, 3, 3))


@pytest.mark.parametrize("metric", [conformal_radial_metric(0.5), AnisotropicMetric()],
                         ids=["conformal_radial", "anisotropic"])
def test_normal_orthonormal_in_other_metrics(sphere_state, metric):
    # the normal is a-unit and a-orthogonal to both tangents, whether a is a
    # scalar multiple of delta (a quotient) or not (a batched solve)
    s = sphere_state
    forms = raw_fundamental_forms(s.grid, metric, s.y, s.y1, s.y2)
    a, n = forms["ambient_a"], forms["n"]
    a_nt = np.einsum("abn,na,bin->in", a, n, forms["tang"])
    a_nn = np.einsum("abn,na,nb->n", a, n, n)
    assert np.max(np.abs(a_nt)) < 1e-10
    assert np.max(np.abs(a_nn - 1.0)) < 1e-12


def test_plane_rejected():
    # the plane y3 = 0 stays minimal where the metric's exponent has no
    # y3-gradient on it: flat, conformal_radial (phi even in y3) and
    # conformal_linear with k3 = 0; it builds only where k3 != 0
    grid = DiskGrid(8, 16)
    for metric in (FlatMetric(), conformal_radial_metric(0.5),
                   conformal_linear_metric((0.3, 0.0, 0.0))):
        with pytest.raises(GeometryError, match="mean curvature not strictly positive"):
            build_surface(make_immersion("plane"), metric, grid)


def test_non_conjugate_isothermal_rejected():
    # an elliptic paraboloid with unequal axes is not conjugate isothermal
    class Skew(SphereCapImmersion):
        def chart(self, x1, x2):
            y = super().chart(x1, x2)
            y[..., 0] *= 1.2
            return y

        def jacobian(self, x1, x2):
            j = super().jacobian(x1, x2)
            j[..., 0, :] *= 1.2
            return j

    grid = DiskGrid(8, 16)
    with pytest.raises((CoordinateError, GeometryError)):
        build_surface(Skew(1.0, 0.8), FlatMetric(), grid)


def test_metric_degenerate_on_the_surface_rejected():
    # det a = e^{60 y1} falls below 1e-14 where y1 < -0.537 on the cap; the
    # build rejects the metric where it contracts Gamma with the normal,
    # naming the first offending node and its det
    message = r"at 47 point\(s\); first offending index \(304,\), det=2\.805e-15$"
    with pytest.raises(DegenerateMetricError, match=message):
        build_surface(SphereCapImmersion(1.0, 0.5), conformal_linear_metric((10.0, 0.0, 0.0)),
                      DiskGrid(16, 32))


def test_sphere_in_radial_conformal_metric():
    # metric equals identity on the sphere but has nonzero gradient:
    # b = (1 + alpha) g stays conjugate isothermal, K = (1 + alpha)^2
    alpha = 0.4
    grid = DiskGrid(24, 48)
    state = build_surface(
        SphereCapImmersion(1.0, 0.7), conformal_radial_metric(alpha), grid, ci_tol=1e-5
    )
    assert np.max(np.abs(state.b - (1 + alpha) * state.g)) < 1e-6
    assert np.max(np.abs(state.K - (1 + alpha) ** 2)) < 2e-6


def test_validate_hypotheses_pass_and_flag(sphere_state):
    rep = validate_hypotheses(sphere_state)
    assert rep["ok"]
    assert rep["normal_tangency_residual"] < 1e-10
    assert rep["ci_residual"] == sphere_state.ci_residual
    # inject a b12 perturbation, with the residual build_surface stores for
    # it -> coordinate violation flagged
    b = sphere_state.b.copy()
    b[0, 1] = b[1, 0] = 1e-3
    bad = dataclasses.replace(sphere_state, b=b, ci_residual=_ci_residual(b, sphere_state.V))
    rep_bad = validate_hypotheses(bad)
    assert rep_bad["ci_residual"] > bad.ci_tol
    assert not rep_bad["conjugate_isothermal_ok"]


def test_normal_unit_residual_reads_a_n_n_minus_one(sphere_state):
    # a normal 1.001 times too long has a(n, n) - 1 = 1.001^2 - 1 = 2.001e-3
    # in the flat metric
    long = dataclasses.replace(sphere_state, n=1.001 * sphere_state.n)
    rep = validate_hypotheses(long)
    assert abs(rep["normal_unit_residual"] - 2.001e-3) < 1e-12
    assert validate_hypotheses(sphere_state)["normal_unit_residual"] < 1e-12


def test_rebuild_matches_built_curvature(sphere_state):
    s = sphere_state
    k = gauss_curvature_of(s.grid, s.metric, s.y)
    assert np.max(np.abs(k - 1.0)) < 5e-5


def test_surface_state_is_immutable(sphere_state):
    s = sphere_state
    with pytest.raises(FrozenInstanceError):
        s.y = s.y.copy()
    with pytest.raises(ValueError):
        s.y[0, 0] = 0.0
    with pytest.raises(ValueError):
        s.b[0, 0, 0] = 0.0


@pytest.mark.parametrize("case", ["flat_cap", "curved_cap", "flipped_paraboloid"])
def test_build_and_oracle_share_one_kernel(case):
    # the surface's forms are the rebuild oracle's forms at its own tangents,
    # bit for bit, up to the orientation the build chooses for b (the
    # downward paraboloid is the one built with its normal flipped)
    metric = conformal_radial_metric(0.5) if case == "curved_cap" else FlatMetric()
    imm = (make_immersion("paraboloid", {"curv": -1.0}) if case == "flipped_paraboloid"
           else SphereCapImmersion(1.0, 0.5))
    s = build_surface(imm, metric, DiskGrid(16, 32), ci_tol=1e-5)
    forms = raw_fundamental_forms(s.grid, s.metric, s.y, s.y1, s.y2)
    for key in ("K", "g"):
        assert np.array_equal(forms[key], getattr(s, key))
    # the oracle reads only K, so g^-1 and H are the build's own
    assert "g_inv" not in forms and "H" not in forms
    g = forms["g"]
    adjugate = np.array([[g[1, 1], -g[0, 1]], [-g[1, 0], g[0, 0]]])
    assert np.array_equal(adjugate / forms["g_det"], s.g_inv)
    # independent of the formula: g^-1 inverts g at every node
    residual = np.einsum("ijn,jkn->ikn", s.g, s.g_inv) - np.eye(2)[:, :, None]
    assert np.max(np.abs(residual)) <= 1e-14
    sign = -1.0 if case == "flipped_paraboloid" else 1.0
    assert np.array_equal(forms["b"], sign * s.b)
    assert np.array_equal(forms["gamma_n"], sign * s.gamma_n)


@pytest.mark.parametrize("curv", [1.0, -1.0])
def test_weingarten_normal_derivative_matches_direct(curv):
    # the stored D*n = -(b g^-1) y_,l equals n_,j + Gamma(y)(y_,j, n) to the
    # discretization error, also where the build flips the normal (curv -1):
    # Gamma(y)(y_,j, n) must flip with it.  A paraboloid in a conformal
    # metric is not conjugate isothermal, hence the wide ci_tol.
    s = build_surface(make_immersion("paraboloid", {"curv": curv}),
                      conformal_radial_metric(0.5), DiskGrid(16, 32), ci_tol=1.0)
    assert np.max(np.abs(s.gamma_n)) > 0.5
    assert np.max(np.abs(s.n_deriv + s.gamma_n - s.dstar_n)) < 1e-5
