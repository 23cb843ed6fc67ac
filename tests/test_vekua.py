import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mgdeform.errors import (
    ContractionFailureError,
    ConvergenceError,
    MgError,
    UnderResolvedError,
    UnsolvableDataError,
)
from mgdeform.grid import DiskGrid
from mgdeform.vekua import (
    BoundaryProblem,
    adjoint_null_functionals,
    bvp_solve,
    holomorphic_field,
    homogeneous_rank,
    index_of,
    load_problem,
    point_pin,
    rh_core_solve,
    save_problem,
    save_solution,
    schwarz_field,
    solve_family,
    t_one_oracle,
    t_operator,
    t_operator_direct,
)


@pytest.fixture(scope="module")
def grid():
    return DiskGrid(24, 48)


def smooth_complex(grid, seed=0):
    rng = np.random.default_rng(seed)
    c = rng.normal(size=6) + 1j * rng.normal(size=6)
    x, y = grid.x1, grid.x2
    return (
        c[0]
        + c[1] * x
        + c[2] * y
        + c[3] * np.sin(x + 2 * y)
        + c[4] * np.exp(0.5 * x) * np.cos(y)
        + c[5] * x * y
    )


# -- T operator -------------------------------------------------------------

def test_t_zero(grid):
    out = t_operator(grid, np.zeros(grid.n_nodes, complex))
    assert np.max(np.abs(out)) == 0.0


def test_t_one_identity_vs_oracle(grid):
    # the hard-coded constant of the method, confirmed by an independent
    # high-resolution quadrature of the area integral
    idx = np.arange(0, grid.n_nodes, 7)
    oracle = t_one_oracle(grid, idx, n_phi=8192)
    assert np.max(np.abs(oracle - np.conj(grid.z[idx]))) < 1e-12
    ours = t_operator(grid, np.ones(grid.n_nodes, complex))
    assert np.max(np.abs(ours[idx] - oracle)) < 1e-12


def test_t_closed_forms(grid):
    z = grid.z
    cases = [
        (z.copy(), z * np.conj(z) - 1.0),
        (np.conj(z), np.conj(z) ** 2 / 2.0),
        (z**2, z**2 * np.conj(z) - z),
    ]
    for f, closed in cases:
        assert np.max(np.abs(t_operator(grid, f) - closed)) < 1e-13


def test_t_consistent_with_direct(grid):
    f = smooth_complex(grid)
    a = t_operator(grid, f)
    b = t_operator_direct(grid, f)
    assert np.max(np.abs(a - b)) < 2e-2    # mode-wise vs all-pairs cells (rim-limited)


def test_dzbar_t_reproduces_field(grid):
    for f in (np.exp(grid.z), smooth_complex(grid, 3)):
        tf = t_operator(grid, f)
        resid = grid.dz_bar(tf) - f
        assert np.max(np.abs(resid)) < 5e-5


def test_t_linearity(grid):
    f = smooth_complex(grid, 1)
    g = smooth_complex(grid, 2)
    lhs = t_operator(grid, 2.0 * f - 1j * g)
    rhs = 2.0 * t_operator(grid, f) - 1j * t_operator(grid, g)
    assert np.max(np.abs(lhs - rhs)) < 1e-12


# -- index ------------------------------------------------------------------

def test_index_cases(grid):
    th = grid.boundary_theta
    assert index_of(np.ones_like(th) * np.exp(1j * 0.3)) == 0
    assert index_of(np.exp(1j * th)) == 1
    assert index_of(np.exp(-2j * th)) == -2
    assert index_of(np.exp(3j * th)) == 3


def test_index_rotation_invariance(grid):
    th = grid.boundary_theta
    lam = np.exp(1j * (2 * th + 0.7)) * np.exp(0.3j * np.sin(th))
    rolled = np.roll(lam, 11)
    assert index_of(lam) == index_of(rolled) == 2


def test_index_errors(grid):
    th = grid.boundary_theta
    with pytest.raises(MgError):
        index_of(2.0 * np.exp(1j * th))
    n_half = grid.n_theta // 2
    with pytest.raises(UnderResolvedError):
        index_of(np.exp(1j * n_half * th))


# -- Schwarz operator and core solve -----------------------------------------

def test_schwarz_real_part_matches(grid):
    th = grid.boundary_theta
    f = 0.3 + np.cos(2 * th) - 0.5 * np.sin(3 * th)
    s = schwarz_field(grid, f)
    assert np.max(np.abs(s[grid.boundary_idx].real - f)) < 1e-12
    assert abs(s[0].imag) < 1e-12  # normalization Im S(0) = 0
    assert np.max(np.abs(grid.dz_bar(s)[1:-grid.n_theta])) < 1e-8


def test_holomorphic_field_matches_power_sum(grid):
    rng = np.random.default_rng(3)
    for n_coef in (1, 7, grid.n_theta):
        c = (rng.normal(size=n_coef) + 1j * rng.normal(size=n_coef)) / (1.0 + np.arange(n_coef))
        direct = sum(ck * grid.z**k for k, ck in enumerate(c))
        got = holomorphic_field(grid, c)
        assert np.max(np.abs(got - direct)) <= 1e-13 * max(1.0, np.max(np.abs(direct)))


def test_core_n0_cosine(grid):
    # lambda = 1, phi = cos(theta): w = z + i c0, family dimension 1
    th = grid.boundary_theta
    fam = rh_core_solve(grid, np.ones(grid.n_theta, complex), np.cos(th))
    assert fam.n == 0
    assert fam.dimension == 1
    assert np.max(np.abs(fam.particular - grid.z)) < 1e-12
    assert np.max(np.abs(fam.basis[0] - 1j)) < 1e-12
    assert fam.boundary_residual < 1e-12


def test_core_n1_dimension_and_bc(grid):
    th = grid.boundary_theta
    lam = np.exp(1j * th)
    phi = 0.2 + np.sin(2 * th)
    fam = rh_core_solve(grid, lam, phi, params=[0.3, -0.2, 0.5])
    assert fam.n == 1
    assert fam.dimension == 3
    assert fam.boundary_residual < 1e-12
    # basis members satisfy the homogeneous condition
    for b in fam.basis:
        bc = np.real(np.conj(lam) * b[grid.boundary_idx])
        assert np.max(np.abs(bc)) < 1e-12
        assert np.max(np.abs(grid.dz_bar(b)[1 : -grid.n_theta])) < 1e-7


def test_core_negative_index(grid):
    th = grid.boundary_theta
    lam = np.exp(-1j * th)
    # solvable data: phi with vanishing mean after weighting (zero here)
    fam = rh_core_solve(grid, lam, np.zeros(grid.n_theta))
    assert fam.n == -1
    assert fam.dimension == 0
    assert np.max(np.abs(fam.w)) < 1e-13
    assert len(fam.solvability) == 1  # -2n - 1 conditions


def test_core_dressed_symbol(grid):
    # non-canonical symbol: e^{i theta} times a zero-index unimodular factor
    th = grid.boundary_theta
    lam = np.exp(1j * th) * np.exp(0.4j * np.cos(th))
    phi = np.cos(2 * th) - 0.3
    fam = rh_core_solve(grid, lam, phi)
    assert fam.n == 1
    assert fam.boundary_residual < 1e-10
    assert np.max(np.abs(grid.dz_bar(fam.w)[1 : -grid.n_theta])) < 1e-6


def _zzbar_coefficients(degree):
    # complex integer coefficients of z^a conj(z)^b over a + b <= degree
    n_terms = (degree + 1) * (degree + 2) // 2
    return st.lists(st.tuples(st.integers(-9, 9), st.integers(-9, 9)),
                    min_size=n_terms, max_size=n_terms)


@settings(derandomize=True, deadline=None)
@given(st.integers(0, 3).flatmap(_zzbar_coefficients))
def test_pompeiu_identity_on_polynomials(coeffs):
    # d_zbar T(f) = f; T is exact on polynomials of degree <= 3 in z and
    # conj(z) (cubic radial interpolation) and d_zbar is exact through 6
    g = DiskGrid(12, 24)
    powers = [(a, k - a) for k in range(4) for a in range(k + 1)]
    c = np.array([re + 1j * im for re, im in coeffs])
    f = np.zeros(g.n_nodes, dtype=complex)
    for ck, (a, b) in zip(c, powers):
        f += ck * g.z**a * np.conj(g.z) ** b
    err = np.max(np.abs(g.dz_bar(t_operator(g, f)) - f))
    assert err <= 1e-12 * max(np.abs(c), default=0.0)


def test_homogeneous_rank_counts(grid):
    th = grid.boundary_theta
    for n in (0, 1, 2):
        nullity, gap = homogeneous_rank(grid, np.exp(1j * n * th))
        assert nullity == 2 * n + 1
        assert gap > 1e3
    for n in (-1, -2):
        nullity, gap = homogeneous_rank(grid, np.exp(1j * n * th))
        assert nullity == 0


def test_adjoint_null_functionals(grid):
    th = grid.boundary_theta
    rows = adjoint_null_functionals(grid, np.exp(-2j * th))
    assert rows.shape == (3, grid.n_theta)  # -2n - 1 = 3 conditions
    # functionals annihilate solvable data (boundary values of admissible w)
    w = grid.z**3  # Re(conj(lam) w) with lam = e^{-2i th} -> mode content ok
    phi = np.real(np.conj(np.exp(-2j * th)) * w[grid.boundary_idx])
    resid = rows @ phi
    sym_scale = np.abs(rows @ np.cos(3 * th))
    assert np.max(np.abs(resid)) < 1e-10 * max(1.0, np.max(sym_scale))


# -- full problem -------------------------------------------------------------

from helpers import manufactured_problem  # noqa: E402


@pytest.mark.parametrize("swap", [False, True])
def test_manufactured_recovery(grid, swap):
    prob, w_star = manufactured_problem(grid, n=1, swap=swap)
    fam, _ = solve_family(prob, tol=1e-12, mode="auto")
    # match the free family against the manufactured member
    cols = np.stack([np.concatenate([b.real, b.imag]) for b in fam.basis], axis=1)
    rhs = np.concatenate([(w_star - fam.w).real, (w_star - fam.w).imag])
    coef, *_ = np.linalg.lstsq(cols, rhs, rcond=None)
    w_fit = fam.w + sum(c * b for c, b in zip(coef, fam.basis))
    err = np.max(np.abs(w_fit - w_star)) / np.max(np.abs(w_star))
    assert err < 1e-4
    assert fam.boundary_residual < 1e-10


def test_zero_coefficients_reduce_to_core(grid):
    th = grid.boundary_theta
    lam = np.exp(1j * th)
    phi = np.cos(th)
    prob = BoundaryProblem(grid=grid, lam=lam, phi=phi)
    fam = bvp_solve(prob, tol=1e-13, mode="picard")
    core = rh_core_solve(grid, lam, phi)
    assert np.max(np.abs(fam.w - core.w)) < 1e-11
    assert fam.iterations <= 3


def test_negative_index_zero_data_zero_solution(grid):
    th = grid.boundary_theta
    prob = BoundaryProblem(grid=grid, lam=np.exp(-1j * th), phi=np.zeros(grid.n_theta))
    fam = bvp_solve(prob, tol=1e-12)
    assert np.max(np.abs(fam.w)) < 1e-12
    assert np.max(np.abs(fam.solvability)) < 1e-12


def test_negative_index_unsolvable_data_raises(grid):
    th = grid.boundary_theta
    prob = BoundaryProblem(grid=grid, lam=np.exp(-2j * th), phi=np.ones(grid.n_theta))
    with pytest.raises(UnsolvableDataError):
        bvp_solve(prob, tol=1e-10)


def test_contraction_failure_reported(grid):
    # huge coefficients push the iteration out of the contraction regime
    prob, _ = manufactured_problem(grid, n=0, amp=12.0)
    with pytest.raises(ContractionFailureError):
        bvp_solve(prob, mode="picard", max_iter=25)
    fam = bvp_solve(prob, mode="auto", max_iter=25)
    assert fam.mode == "gmres"
    assert fam.fixed_point_residual < 1e-7


def test_pinned_solve_matches_least_norm_family_member(grid):
    # fixed right side, n = 1: one pinned solve reproduces the particular
    # solution plus the least-norm parameters that put w = 0 at the center
    prob, _ = manufactured_problem(grid, n=1)
    fam, sym = solve_family(prob, tol=1e-12, mode="picard")
    pin = point_pin(fam.basis)
    params = pin.pinv @ -np.array([fam.w[0].real, fam.w[0].imag])
    w_ref = fam.w + sum(c * k for c, k in zip(params, fam.basis))
    pinned = bvp_solve(prob, tol=1e-12, pin=pin, mode="picard", sym=sym)
    assert abs(fam.w[0]) > 1e-2
    assert abs(pinned.w[0]) <= 1e-12
    assert np.max(np.abs(pinned.w - w_ref)) <= 1e-10 * np.max(np.abs(w_ref))
    assert np.max(np.abs(pinned.params - params)) <= 1e-10
    assert pinned.fixed_point_residual < 1e-10


@pytest.mark.parametrize("mode", ["gmres", "auto"])
def test_gmres_iteration_cap_raises(mode):
    # four GMRES iterations leave a fixed-point residual of order 10 here;
    # the solve must fail rather than return the unconverged field
    prob, _ = manufactured_problem(DiskGrid(16, 32), n=0, amp=12.0)
    with pytest.raises(ConvergenceError):
        bvp_solve(prob, mode=mode, max_iter=1)


def test_zero_iteration_cap_is_rejected():
    from mgdeform.vekua import _gmres

    with pytest.raises(MgError, match="max_iter"):
        _gmres(lambda v: v, np.ones(4), 1e-10, 0)
    prob, _ = manufactured_problem(DiskGrid(16, 32), n=1)
    with pytest.raises(MgError, match="max_iter"):
        bvp_solve(prob, mode="gmres", max_iter=0)


def test_problem_file_roundtrip(tmp_path, grid):
    prob, _ = manufactured_problem(grid, n=1)
    path = tmp_path / "problem.txt"
    save_problem(path, prob)
    loaded = load_problem(path)
    assert loaded.grid.n_r == grid.n_r
    assert np.array_equal(loaded.lam, prob.lam)
    assert np.array_equal(loaded.phi, prob.phi)
    assert np.array_equal(loaded.A, prob.A)
    assert np.array_equal(loaded.psi, prob.psi)
    assert loaded.e_swap == prob.e_swap


def test_problem_file_errors(tmp_path):
    from mgdeform.errors import FormatError

    p = tmp_path / "empty.txt"
    p.write_text("")
    with pytest.raises(FormatError):
        load_problem(p)
    p2 = tmp_path / "bad.txt"
    p2.write_text("n_r 8\nn_theta 16\nbegin lambda\n1 0\nend\n")
    with pytest.raises(FormatError):
        load_problem(p2)


def _small_problem():
    grid = DiskGrid(8, 16)
    return BoundaryProblem(grid=grid, lam=np.exp(1j * grid.boundary_theta),
                           phi=np.cos(grid.boundary_theta))


@pytest.mark.parametrize("change", [
    ("x0_node 0", "x0_node 5"),          # off-center base point
    ("n_theta 16", "n_theta sixteen"),   # non-numeric header value
    ("e_swap 0", "e_swap no"),
    ("\n1 0\n", "\n1 zero\n"),          # non-numeric block token
    ("\n1 0\n", "\n1\n"),               # short row
])
def test_problem_file_format_errors(tmp_path, change):
    from mgdeform.errors import FormatError

    prob = _small_problem()
    path = tmp_path / "problem.txt"
    save_problem(path, prob)
    text = path.read_text()
    assert change[0] in text
    path.write_text(text.replace(change[0], change[1], 1))
    with pytest.raises(FormatError):
        load_problem(path)


def test_problem_and_solution_files_are_17_digit_rows(tmp_path):
    # one "re im" row per complex sample and one value per real sample,
    # each printed with 17 significant digits
    prob = _small_problem()
    prob.phi[3] = -0.0
    path = tmp_path / "problem.txt"
    save_problem(path, prob)
    expect = ["# mgdeform vekua problem v1", "n_r 8", "n_theta 16", "x0_node 0", "e_swap 0"]
    expect += ["begin lambda"] + [f"{v.real:.17g} {v.imag:.17g}" for v in prob.lam]
    expect += ["end", "begin phi"] + [f"{float(v):.17g}" for v in prob.phi] + ["end"]
    assert path.read_text() == "\n".join(expect) + "\n"

    fam = rh_core_solve(prob.grid, prob.lam, prob.phi)
    spath = tmp_path / "solution.txt"
    save_solution(spath, fam)
    lines = spath.read_text().splitlines()
    start = lines.index("begin basis_1")
    n_nodes = prob.grid.n_nodes
    assert lines[start + 1 : start + 1 + n_nodes] == [
        f"{v.real:.17g} {v.imag:.17g}" for v in fam.basis[1]]
    assert lines[start + 1 + n_nodes] == "end"


# -- boundary data -------------------------------------------------------------

def _sphere_surface():
    from mgdeform.grid import DiskGrid
    from mgdeform.metrics import FlatMetric
    from mgdeform.surface import SphereCapImmersion, build_surface

    grid = DiskGrid(16, 32)
    return build_surface(SphereCapImmersion(1.0, 0.5), FlatMetric(), grid, ci_tol=1e-5)


def test_boundary_data_first_tangent():
    from mgdeform.vekua import boundary_data

    surf = _sphere_surface()
    nt = surf.grid.n_theta
    l_field = np.zeros((nt, 2))
    l_field[:, 0] = 1.0
    lam, phi, lam_tilde = boundary_data(surf, l_field, np.zeros(nt))
    # conformal first form: lambda_tilde parallel to (g11, 0)
    assert np.max(np.abs(lam_tilde[:, 1])) < 1e-8
    assert np.max(np.abs(lam - 1.0)) < 1e-8
    assert index_of(lam) == 0
    assert np.max(np.abs(phi)) == 0.0  # zero rate data -> zero phi
    assert np.max(np.abs(np.abs(lam) - 1.0)) < 1e-14


def test_boundary_data_rotating_field_winds():
    from mgdeform.vekua import boundary_data

    surf = _sphere_surface()
    th = surf.grid.boundary_theta
    for k in (1, -1, 2):
        l_field = np.stack([np.cos(k * th), np.sin(k * th)], axis=-1)
        lam, _, _ = boundary_data(surf, l_field, np.zeros_like(th))
        assert index_of(lam) == k


def test_boundary_data_consistency_identity():
    # Re{conj(lam) w} = phi encodes lam_tilde . adot = gamma_dot exactly
    from mgdeform.vekua import boundary_data

    surf = _sphere_surface()
    th = surf.grid.boundary_theta
    rng = np.random.default_rng(3)
    l_field = np.stack([np.cos(th + 0.2), np.sin(th + 0.2)], axis=-1)
    gd = rng.normal(size=len(th))
    lam, phi, lam_tilde = boundary_data(surf, l_field, gd)
    adot = rng.normal(size=(len(th), 2))
    w = adot[:, 0] + 1j * adot[:, 1]
    lhs = np.real(np.conj(lam) * w) - phi
    rhs = (np.einsum("nk,nk->n", lam_tilde, adot) - gd) / np.abs(
        lam_tilde[:, 0] + 1j * lam_tilde[:, 1]
    )
    assert np.max(np.abs(lhs - rhs)) < 1e-12


def test_boundary_data_degenerate_raises():
    from mgdeform.errors import BoundaryDegeneracyError
    from mgdeform.vekua import boundary_data

    surf = _sphere_surface()
    l_field = np.zeros((surf.grid.n_theta, 2))
    with pytest.raises(BoundaryDegeneracyError):
        boundary_data(surf, l_field, np.zeros(surf.grid.n_theta))


def test_assemble_ab_cases():
    from mgdeform.vekua import assemble_AB

    n = 10
    zeros = np.zeros(n)
    a, b, e0, v = assemble_AB(zeros, zeros, zeros, zeros)
    assert np.max(np.abs(a)) == 0.0 and np.max(np.abs(b)) == 0.0
    assert e0 is None and v is None
    # real p1 only: A = B = p1 / 4
    p1 = np.linspace(0.5, 1.5, n)
    a, b, _, _ = assemble_AB(p1, zeros, zeros, zeros)
    assert np.max(np.abs(a - p1 / 4)) < 1e-15
    assert np.max(np.abs(b - p1 / 4)) < 1e-15
    # generic values: spot-check the closed combination at three entries
    rng = np.random.default_rng(0)
    p1, p2, q1, q2 = rng.normal(size=(4, n))
    a, b, e0, v = assemble_AB(p1, p2, q1, q2, q0=np.full(n, 4.0), v=np.full(n, 2.0))
    for i in (0, 3, 7):
        assert abs(a[i] - 0.25 * (p1[i] + q2[i] + 1j * q1[i] - 1j * p2[i])) < 1e-15
        assert abs(b[i] - 0.25 * (p1[i] - q2[i] + 1j * q1[i] + 1j * p2[i])) < 1e-15
    assert np.max(np.abs(e0 - 2.0j)) < 1e-15
