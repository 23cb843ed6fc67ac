import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mgdeform.errors import MgError
from mgdeform.grid import DiskGrid


def smooth_field(grid, fn):
    return fn(grid.x1, grid.x2)


def test_grid_shapes_and_validation():
    g = DiskGrid(8, 16)
    assert g.n_nodes == 1 + 8 * 16
    assert np.isclose(g.r[g.boundary_idx], 1.0).all()
    with pytest.raises(MgError):
        DiskGrid(4, 16)
    with pytest.raises(MgError):
        DiskGrid(8, 15)


def test_area_weights_sum_to_disk_area():
    g = DiskGrid(16, 32)
    assert abs(g.area_weights.sum() - np.pi) < 1e-14


def test_area_quadrature_polynomial():
    g = DiskGrid(48, 96)
    # integral of x1^2 over unit disk = pi/4
    val = g.integrate(g.x1**2)
    assert abs(val - np.pi / 4) < 2e-4


def test_cartesian_derivatives_polynomial_exact():
    g = DiskGrid(16, 32)
    f = g.x1**3 + 2.0 * g.x1 * g.x2**2 - g.x2
    fx = 3.0 * g.x1**2 + 2.0 * g.x2**2
    fy = 4.0 * g.x1 * g.x2 - 1.0
    assert np.max(np.abs(g.ddx1(f) - fx)) < 1e-10
    assert np.max(np.abs(g.ddx2(f) - fy)) < 1e-10


def test_cartesian_derivatives_convergence():
    def run(n_r):
        g = DiskGrid(n_r, 64)
        f = np.exp(g.x1) * np.sin(2.0 * g.x2)
        fx = np.exp(g.x1) * np.sin(2.0 * g.x2)
        return np.max(np.abs(g.ddx1(f) - fx))

    e1, e2 = run(16), run(32)
    assert e2 < e1 / 10.0  # at least 4th order in r


def test_derivative_vector_field_shapes():
    g = DiskGrid(8, 16)
    f = np.stack([g.x1, g.x2, g.x1 * g.x2], axis=1)
    d = g.ddx1(f)
    assert d.shape == (g.n_nodes, 3)
    assert np.max(np.abs(d[:, 0] - 1.0)) < 1e-10
    assert np.max(np.abs(d[:, 2] - g.x2)) < 1e-10


@pytest.mark.parametrize("tail", [(), (3,), (3, 3)])
@pytest.mark.parametrize("complex_field", [False, True])
def test_grad_bit_identical_to_single_derivatives(tail, complex_field):
    g = DiskGrid(12, 24)
    rng = np.random.default_rng(7)
    base = np.exp(g.x1) * np.sin(2.0 * g.x2) + g.x1 * g.x2**2
    f = base.reshape((-1,) + (1,) * len(tail)) * rng.normal(size=tail)
    if complex_field:
        f = f + 1j * np.cos(g.x1 - g.x2).reshape((-1,) + (1,) * len(tail))
    f1, f2 = g.grad(f)
    assert f1.shape == f2.shape == f.shape
    assert np.array_equal(f1, g.ddx1(f))
    assert np.array_equal(f2, g.ddx2(f))
    assert np.array_equal(g.dz_bar(f), 0.5 * (f1 + 1j * f2))
    assert np.array_equal(g.dz(f), 0.5 * (f1 - 1j * f2))


def test_batched_ray_integrals_match_ring_loop():
    g = DiskGrid(12, 24)
    f = np.stack([np.exp(g.x1) * g.x2, np.cos(g.x1 + g.x2)], axis=1)
    rays = np.empty((g.n_r + 1, g.n_theta, 2))
    rays[0] = f[0]
    rays[1:] = f[1:].reshape(g.n_r, g.n_theta, 2)
    cum = np.zeros((g.n_theta, 2))
    expect = np.empty_like(f)
    expect[0] = 0.0
    for i in range(g.n_r):  # one cubic panel per ring, as a plain loop
        s0 = g._cum_idx[i, 0]
        cum = cum + np.einsum("s,sjm->jm", g._cum_w[i], rays[s0 : s0 + 4])
        expect[1 + i * g.n_theta : 1 + (i + 1) * g.n_theta] = cum
    assert np.max(np.abs(g.cumint_radial(f) - expect)) <= 1e-15 * np.max(np.abs(expect))


def test_complex_derivative_holomorphic():
    g = DiskGrid(24, 48)
    f = g.z**3
    resid = g.dz_bar(f)
    assert np.max(np.abs(resid)) < 1e-9
    assert np.max(np.abs(g.dz(f) - 3.0 * g.z**2)) < 1e-9


def test_cumint_radial_polynomial():
    # cubic panels integrate r^p, p <= 3, exactly up to round-off
    for n_r, n_theta in ((16, 32), (128, 256)):
        g = DiskGrid(n_r, n_theta)
        for p in range(4):
            val = g.cumint_radial(g.r**p)
            assert np.max(np.abs(val - g.r ** (p + 1) / (p + 1))) < 1e-13


def test_line_integral_center_exact_linear():
    # p = 1, q = 0 -> integral = x1
    g = DiskGrid(12, 24)
    one = np.ones(g.n_nodes)
    zero = np.zeros(g.n_nodes)
    val = g.line_integral_center(one, zero)
    assert np.max(np.abs(val - g.x1)) < 1e-12


def test_line_integral_gradient_field():
    # p dx + q dy with (p, q) = grad(phi) integrates to phi - phi(0)
    g = DiskGrid(32, 64)
    phi = np.sin(g.x1) * np.cos(g.x2)
    p = np.cos(g.x1) * np.cos(g.x2)
    q = -np.sin(g.x1) * np.sin(g.x2)
    val = g.line_integral_center(p, q)
    assert np.max(np.abs(val - (phi - phi[0]))) < 1e-7


def test_line_integral_refinement_order():
    def err(n_r):
        g = DiskGrid(n_r, 32)
        phi = np.exp(g.x1 * g.x2)
        p = g.x2 * phi
        q = g.x1 * phi
        val = g.line_integral_center(p, q)
        return np.max(np.abs(val - (phi - 1.0)))

    e1, e2 = err(12), err(24)
    assert e2 < e1 / 10.0  # ~4th order


def test_line_integral_from_is_anchored_at_center():
    g = DiskGrid(12, 24)
    p, q = g.x1 * g.x2, g.x1 - g.x2
    assert np.array_equal(g.line_integral_from(0, p, q), g.line_integral_center(p, q))
    with pytest.raises(MgError):
        g.line_integral_from(5, p, q)


def _polynomial_coefficients(degree):
    n_terms = (degree + 1) * (degree + 2) // 2
    return st.lists(st.floats(-1.0, 1.0), min_size=n_terms, max_size=n_terms)


@settings(derandomize=True, deadline=None)
@given(st.integers(0, 6).flatmap(_polynomial_coefficients))
def test_grad_of_polynomials_matches_analytic(coeffs):
    # sum of c x1^a x2^b over a + b <= degree; the 7-point radial stencil is
    # exact to round-off through degree 6
    g = DiskGrid(16, 32)
    x, y = g.x1, g.x2
    powers = [(a, k - a) for k in range(7) for a in range(k + 1)]
    f = np.zeros(g.n_nodes)
    fx = np.zeros(g.n_nodes)
    fy = np.zeros(g.n_nodes)
    for c, (a, b) in zip(coeffs, powers):
        f += c * x**a * y**b
        if a:
            fx += c * a * x ** (a - 1) * y**b
        if b:
            fy += c * b * x**a * y ** (b - 1)
    f1, f2 = g.grad(f)
    bound = 1e-11 * max(np.abs(coeffs), default=0.0)
    assert np.max(np.abs(f1 - fx)) <= bound
    assert np.max(np.abs(f2 - fy)) <= bound
