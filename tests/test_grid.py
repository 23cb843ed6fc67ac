import copy
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mgdeform.errors import MgError
from mgdeform.grid import _CENTER_RICHARDSON, _D1_ROWS, DiskGrid
from mgdeform.vekua import bvp_solve, holomorphic_field, load_problem, save_problem, t_operator

from helpers import dz_bar, manufactured_problem
from reference import area_weights, cumint_radial, grid_coordinates, line_integral_gather


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


@pytest.mark.parametrize("sizes", [(16.0, 32), (16, 32.0), ("16", 32), (16, None), (True, 32)])
def test_non_integral_sizes_rejected(sizes):
    # a float n_theta would otherwise build and fail only at the first
    # derivative, in fftfreq
    with pytest.raises(MgError, match="must be an integer"):
        DiskGrid(*sizes)


def test_numpy_integer_sizes_accepted():
    g = DiskGrid(np.int64(16), np.int32(32))
    assert type(g.n_r) is int and type(g.n_theta) is int
    assert g.x1.tobytes() == DiskGrid(16, 32).x1.tobytes()


@pytest.mark.parametrize("n_r, n_theta",
                         [(8, 16), (12, 24), (24, 48), (48, 96), (100, 200), (128, 256)])
def test_coordinates_match_node_by_node_construction(n_r, n_theta):
    # the grid takes the trig of the n_theta ring angles once and scales it
    # by each ring's radius: the bits of the trig taken at every node
    g = DiskGrid(n_r, n_theta)
    names = ("r", "theta", "x1", "x2", "z", "boundary_idx")
    for name, want in zip(names, grid_coordinates(n_r, n_theta)):
        got = getattr(g, name)
        assert got.dtype == want.dtype and got.shape == want.shape, name
        assert got.tobytes() == want.tobytes(), name


def test_grid_builds_derivative_tables_on_first_derivative(tmp_path):
    # T, the ray integrals, holomorphic fields and the problem-file path
    # never differentiate, so their grids never build the derivative tables
    g = DiskGrid(16, 32)
    f = np.exp(g.x1) * np.cos(g.x2) + 1j * g.x1 * g.x2
    t_operator(g, f)
    g.line_integral_center(f.real, f)
    g.line_integral_from(0, f, f.imag)
    holomorphic_field(g, [1.0, 0.5j, -0.25])
    assert "deriv" not in g._caches
    path = tmp_path / "problem.txt"
    save_problem(path, manufactured_problem(g)[0])
    problem = load_problem(path)
    bvp_solve(problem, tol=1e-10, mode="auto")
    assert "deriv" not in problem.grid._caches
    g.grad_last(f)
    assert "deriv" in g._caches


@pytest.mark.parametrize("complex_field", [False, True])
def test_grad_last_on_copies_before_and_after_first_derivative(complex_field):
    # deep copies of a grid, taken before its first derivative (no tables)
    # and after it (a copy of the tables), differentiate to the same bits
    g = DiskGrid(24, 48)
    f = np.stack([np.exp(g.x1) * g.x2, np.sin(3.0 * g.x1 - g.x2)])
    if complex_field:
        f = f + 1j * np.cos(g.x1 + 2.0 * g.x2)
    before = copy.deepcopy(g)
    first = g.grad_last(f)
    after = copy.deepcopy(g)
    assert "deriv" not in before._caches and "deriv" in after._caches
    for grid in (before, after, g):
        assert grid.grad_last(f).tobytes() == first.tobytes()


def test_area_weights_sum_to_disk_area():
    g = DiskGrid(16, 32)
    assert abs(area_weights(g).sum() - np.pi) < 1e-14


def test_area_quadrature_polynomial():
    g = DiskGrid(48, 96)
    # integral of x1^2 over unit disk = pi/4
    val = area_weights(g) @ g.x1**2
    assert abs(val - np.pi / 4) < 2e-4


def test_cartesian_derivatives_polynomial_exact():
    g = DiskGrid(16, 32)
    f = g.x1**3 + 2.0 * g.x1 * g.x2**2 - g.x2
    fx = 3.0 * g.x1**2 + 2.0 * g.x2**2
    fy = 4.0 * g.x1 * g.x2 - 1.0
    f1, f2 = g.grad_last(f)
    assert np.max(np.abs(f1 - fx)) < 1e-10
    assert np.max(np.abs(f2 - fy)) < 1e-10


def test_stencil_constants_are_exact():
    # row s, over 60, evaluates d/dx at slot 3 + s of seven unit-spaced
    # levels: exact on x^p, p = 0..6, at the integer offsets from that slot
    for s, row in enumerate(_D1_ROWS):
        offsets = np.arange(7) - 3 - s
        for p in range(7):
            value = sum(Fraction(int(w), 60) * Fraction(int(o)) ** p
                        for w, o in zip(row, offsets))
            assert value == (p == 1)
    # center weights, over 30: sum_i c_i i^p = delta_{p1} on rings 1, 2, 3
    for p in (1, 3, 5):
        value = sum(Fraction(int(c), 30) * i**p
                    for i, c in zip((1, 2, 3), _CENTER_RICHARDSON))
        assert value == (p == 1)


@pytest.mark.parametrize("n_r", [8, 24, 48])
def test_rim_rings_take_shifted_stencil_rows(n_r):
    # rings n_r, n_r - 1 and n_r - 2 take rows 3, 2 and 1, every other ring
    # row 0.  Along the ray theta = 0, d/dx1 is the radial derivative.  Every
    # row is exact on rho^p, p <= 6, at its own slot 3 + s; on rho^7 row s
    # errs by h^6 sum_k w_k o_k^7, which is 36, -48, 120 and -720 for
    # s = 0..3, so the error on x1^7 names the row each ring took
    g = DiskGrid(n_r, 2 * n_r)
    sigma = []
    for s, row in enumerate(_D1_ROWS):
        offsets = np.arange(7) - 3 - s
        sigma.append(float(sum(Fraction(int(w), 60) * Fraction(int(o)) ** 7
                               for w, o in zip(row, offsets))))
    assert sigma == [36.0, -48.0, 120.0, -720.0]
    exact = g.grad_last(g.x1**6)[0]
    probe = g.grad_last(g.x1**7)[0]
    for i in range(1, n_r + 1):
        s = {n_r: 3, n_r - 1: 2, n_r - 2: 1}.get(i, 0)
        node = g.node_index(i, 0)
        assert abs(exact[node] - 6.0 * g.r[node] ** 5) < 1e-11
        err = (probe[node] - 7.0 * g.r[node] ** 6) * n_r**6
        assert abs(err - sigma[s]) < 0.05, (i, err, sigma[s])


def test_cartesian_derivatives_convergence():
    def run(n_r):
        g = DiskGrid(n_r, 64)
        f = np.exp(g.x1) * np.sin(2.0 * g.x2)
        fx = np.exp(g.x1) * np.sin(2.0 * g.x2)
        return np.max(np.abs(g.grad_last(f)[0] - fx))

    e1, e2 = run(16), run(32)
    assert e2 < e1 / 10.0  # at least 4th order in r


def test_derivative_vector_field_shapes():
    g = DiskGrid(8, 16)
    f = np.stack([g.x1, g.x2, g.x1 * g.x2])
    d = g.grad_last(f)
    assert d.shape == (3, 2, g.n_nodes)
    assert np.max(np.abs(d[0, 0] - 1.0)) < 1e-10
    assert np.max(np.abs(d[2, 0] - g.x2)) < 1e-10
    assert np.max(np.abs(d[2, 1] - g.x1)) < 1e-10


@pytest.mark.parametrize("tail", [(), (3,), (3, 3)])
@pytest.mark.parametrize("complex_field", [False, True])
def test_grad_last_bit_identical_on_strided_views(tail, complex_field):
    # the kernels hand grad_last transposed views such as z.T; any strided
    # layout of a field gives the bits of its contiguous copy
    g = DiskGrid(12, 24)
    rng = np.random.default_rng(7)
    base = np.exp(g.x1) * np.sin(2.0 * g.x2) + g.x1 * g.x2**2
    f = base.reshape((-1,) + (1,) * len(tail)) * rng.normal(size=tail)
    if complex_field:
        f = f + 1j * np.cos(g.x1 - g.x2).reshape((-1,) + (1,) * len(tail))
    view = np.moveaxis(f, 0, -1)
    d = g.grad_last(view)
    assert d.shape == tail + (2, g.n_nodes) and d.dtype == f.dtype
    assert np.array_equal(d, g.grad_last(np.ascontiguousarray(view)))


def _gather_fft_grad(g, f):
    """Reference gradient (N, ...) -> (..., 2, N): the 7-point radial stencils
    gathered from a table of extended-ray node indices and contracted by one
    einsum, the angular derivative by a complex FFT of every field, and the
    Richardson center gradient."""
    n_r, nt, half = g.n_r, g.n_theta, g.n_theta // 2
    ext_idx = np.empty((2 * n_r + 1, nt), dtype=int)
    ext_idx[n_r] = 0
    for i in range(1, n_r + 1):
        ext_idx[n_r + i] = g.node_index(i, np.arange(nt))
        ext_idx[n_r - i] = g.node_index(i, np.arange(nt) + half)
    rings = np.arange(1, n_r + 1)
    shift = np.maximum(0, rings - n_r + 3)
    dr_idx = ext_idx[(n_r + rings - 3 - shift)[:, None] + np.arange(7)]
    dr_w = _D1_ROWS[shift] * n_r / 60.0
    flat = f.reshape(g.n_nodes, -1)
    fr = np.zeros(flat.shape, dtype=np.result_type(flat, 1.0))
    fr[1:] = np.einsum("is,isjm->ijm", dr_w, flat[dr_idx]).reshape(-1, flat.shape[1])
    k = np.fft.fftfreq(nt, d=1.0 / nt)
    k[half] = 0.0
    spec = np.fft.fft(flat[1:].reshape(n_r, nt, -1), axis=1) * (1j * k)[None, :, None]
    deriv = np.fft.ifft(spec, axis=1)
    ft = np.zeros(flat.shape, dtype=fr.dtype)
    ft[1:] = (deriv if np.iscomplexobj(flat) else deriv.real).reshape(-1, flat.shape[1])
    rinv = np.zeros(g.n_nodes)
    rinv[1:] = 1.0 / g.r[1:]
    cos, sin = np.cos(g.theta)[:, None], np.sin(g.theta)[:, None]
    f1 = cos * fr - sin * rinv[:, None] * ft
    f2 = sin * fr + cos * rinv[:, None] * ft
    ring = 2.0 / nt * np.stack([np.cos(g.boundary_theta), np.sin(g.boundary_theta)])
    center_w = ring[:, None, :] * (_CENTER_RICHARDSON * n_r / 30.0)[None, :, None]
    f1[0], f2[0] = center_w.reshape(2, 3 * nt) @ flat[1 : 1 + 3 * nt]
    return np.moveaxis(np.stack([f1, f2], axis=-1).reshape(f.shape + (2,)), 0, -1)


@pytest.mark.parametrize("n_r, n_theta", [(16, 32), (48, 96)])
@pytest.mark.parametrize("tail", [(), (3,), (3, 3), (3, 2)])
@pytest.mark.parametrize("complex_field", [False, True])
def test_grad_last_matches_gather_and_complex_fft(n_r, n_theta, tail, complex_field):
    # random fields carry every Fourier mode and every radial frequency
    g = DiskGrid(n_r, n_theta)
    rng = np.random.default_rng(n_r + len(tail))
    f = rng.normal(size=(g.n_nodes,) + tail)
    if complex_field:
        f = f + 1j * rng.normal(size=f.shape)
    got = g.grad_last(np.moveaxis(f, 0, -1))
    want = _gather_fft_grad(g, f)
    assert got.shape == tail + (2, g.n_nodes)
    assert got.dtype == want.dtype == f.dtype
    assert np.max(np.abs(got - want)) <= 1e-15 * np.max(np.abs(want))


def test_nyquist_mode_differentiates_to_zero():
    # (-1)^j on every ring is constant along each extended ray away from the
    # center, so rings 4..n_r see no radial change and only the Nyquist mode
    g = DiskGrid(16, 32)
    f = np.where(np.arange(g.n_nodes) % 2 == 1, 1.0, -1.0)
    f[0] = 0.0
    for field in (f, 1j * f):
        d = g.grad_last(field)
        assert np.isrealobj(d) == np.isrealobj(field)
        assert np.max(np.abs(d[:, g.node_index(4, 0):])) < 1e-12


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
    assert np.max(np.abs(cumint_radial(g, f) - expect)) <= 1e-15 * np.max(np.abs(expect))


def test_complex_derivative_holomorphic():
    g = DiskGrid(24, 48)
    f = g.z**3
    resid = dz_bar(g, f)
    assert np.max(np.abs(resid)) < 1e-9
    f1, f2 = g.grad_last(f)
    assert np.max(np.abs(0.5 * (f1 - 1j * f2) - 3.0 * g.z**2)) < 1e-9


def test_cumint_radial_polynomial():
    # cubic panels integrate r^p, p <= 3, exactly up to round-off
    for n_r, n_theta in ((16, 32), (128, 256)):
        g = DiskGrid(n_r, n_theta)
        for p in range(4):
            val = cumint_radial(g, g.r**p)
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


@pytest.mark.parametrize("n_r, n_theta", [(8, 16), (12, 24), (32, 64), (48, 96), (128, 256)])
def test_line_integral_center_matches_gather_bit_for_bit(n_r, n_theta):
    # the slice stencil adds the same products in the same order as the
    # gathered contraction, which starts each panel's sum from +0
    g = DiskGrid(n_r, n_theta)
    rng = np.random.default_rng(n_r)
    for shape in [(g.n_nodes,), (g.n_nodes, 1), (g.n_nodes, 3)]:
        for dtype in (float, complex):
            p, q = (rng.normal(size=shape) + (1j * rng.normal(size=shape) if dtype is complex
                                               else 0.0) for _ in range(2))
            # zeros signed - - + - on levels 0..3: on a first-quadrant ray
            # every product of the first panel (weights + + - +) is -0
            level = np.concatenate([[0], np.repeat(np.arange(1, n_r + 1), n_theta)])
            zeros = np.zeros(shape, dtype)
            zeros.real = np.where(np.isin(level, (0, 1, 3)), -0.0, 0.0).reshape(
                (-1,) + (1,) * (len(shape) - 1))
            for _ in range(2):  # again on the grid's kept buffers
                for a, b in ((p, q), (zeros, zeros)):
                    val = g.line_integral_center(a, b)
                    ref = line_integral_gather(g, a, b)
                    assert val.shape == ref.shape and val.dtype == ref.dtype
                    assert val.tobytes() == ref.tobytes()


def test_copied_grid_integrates_rays_like_its_original():
    # a copy of a grid that has integrated rays rebuilds its own work buffers
    g = DiskGrid(12, 24)
    p, q = g.x1 * g.x2, np.cos(g.x1) + 1j * g.x2
    first = g.line_integral_center(p, q)
    twin = copy.deepcopy(g)
    assert twin.line_integral_center(p, q).tobytes() == first.tobytes()
    assert g.line_integral_center(2 * p, q).tobytes() == twin.line_integral_center(2 * p, q).tobytes()


def test_ray_integrals_keep_no_buffers_on_the_grid():
    # every work buffer is made per call: integrals of new shapes and dtypes
    # leave the grid's attributes as they were
    g = DiskGrid(12, 24)

    def attributes():
        # each attribute, and the keys of those that are dicts
        return {k: (v, list(v) if isinstance(v, dict) else None) for k, v in vars(g).items()}

    before = attributes()
    for shape in [(g.n_nodes,), (g.n_nodes, 1), (g.n_nodes, 3)]:
        for dtype in (float, complex):
            p = np.full(shape, 0.5, dtype)
            g.line_integral_center(p, p.real)
            g.line_integral_from(0, p.real, p)
    after = attributes()
    assert after.keys() == before.keys()
    for k, (v, keys) in before.items():
        assert after[k][0] is v and after[k][1] == keys, k


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
    f1, f2 = g.grad_last(f)
    bound = 1e-11 * max(np.abs(coeffs), default=0.0)
    assert np.max(np.abs(f1 - fx)) <= bound
    assert np.max(np.abs(f2 - fy)) <= bound
