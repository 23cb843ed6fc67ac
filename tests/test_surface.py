from dataclasses import FrozenInstanceError

import numpy as np
import pytest

from mgdeform.errors import CoordinateError, GeometryError
from mgdeform.grid import DiskGrid
from mgdeform.metrics import FlatMetric, conformal_radial_metric
from mgdeform.surface import (
    SphereCapImmersion,
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


def test_sphere_closed_form_oracle(sphere_state):
    # closed form: conformal factor 4 rho^2 / (1 + rho^2 |x|^2)^2, b = g, K = H = 1
    s = sphere_state
    grid = s.grid
    rho = 0.8
    lam = 4 * rho**2 / (1 + rho**2 * (grid.x1**2 + grid.x2**2)) ** 2
    assert np.max(np.abs(s.g[:, 0, 0] - lam)) < 1e-6
    assert np.max(np.abs(s.g[:, 1, 1] - lam)) < 1e-6
    assert np.max(np.abs(s.g[:, 0, 1])) < 1e-6
    assert np.max(np.abs(s.b - s.g)) < 1e-6
    assert np.max(np.abs(s.V - s.g[:, 0, 0])) < 1e-6
    assert np.max(np.abs(s.K - 1.0)) < 1e-6
    assert np.max(np.abs(s.H - 1.0)) < 1e-6


def test_identity_k_g_equals_b(sphere_state):
    s = sphere_state
    assert np.max(np.abs(s.K * s.g_det - s.b_det)) < 1e-14
    assert np.all(s.H**2 >= s.K - 1e-9)


def test_normal_orthonormal(sphere_state):
    s = sphere_state
    a_nt = np.einsum("nab,na,nbi->ni", s.ambient_a, s.n, s.tang)
    a_nn = np.einsum("nab,na,nb->n", s.ambient_a, s.n, s.n)
    assert np.max(np.abs(a_nt)) < 1e-10
    assert np.max(np.abs(a_nn - 1.0)) < 1e-12


def test_plane_rejected():
    grid = DiskGrid(8, 16)
    with pytest.raises(GeometryError):
        build_surface(make_immersion("plane"), FlatMetric(), grid)


def test_non_conjugate_isothermal_rejected():
    # an elliptic paraboloid with unequal axes is not conjugate isothermal
    class Skew(SphereCapImmersion):
        def chart(self, x1, x2):
            y = super().chart(x1, x2)
            y[..., 0] *= 1.2
            return y

        def jacobian(self, x1, x2, step=1e-6):
            j = super().jacobian(x1, x2)
            j[..., 0, :] *= 1.2
            return j

    grid = DiskGrid(8, 16)
    with pytest.raises((CoordinateError, GeometryError)):
        build_surface(Skew(1.0, 0.8), FlatMetric(), grid)


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
    # inject a b12 perturbation -> coordinate violation flagged
    rep_bad = validate_hypotheses(
        sphere_state, b12_override=1e-3 * np.ones(sphere_state.grid.n_nodes)
    )
    assert not rep_bad["conjugate_isothermal_ok"]


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
    for key in ("K", "g", "g_inv"):
        assert np.array_equal(forms[key], getattr(s, key))
    sign = -1.0 if case == "flipped_paraboloid" else 1.0
    assert np.array_equal(forms["b"], sign * s.b)
