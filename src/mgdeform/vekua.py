"""Riemann-Hilbert boundary-value solver for generalized analytic functions.

Solves d_zbar w + A w + B conj(w) + E(w) = Psi on the unit disk with
Re{conj(lambda) w} = phi on the boundary, where E is a path-integral volume
term anchored at the disk center.  The areal operator T is the right inverse
of d_zbar; the boundary symbol is reduced to the monomial z^n by factoring a
zero-index unimodular function through a Schwarz-operator extension, after
which the (2n+1)-real-parameter solution family of the core problem is
explicit in polynomial form.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .errors import (
    ContractionFailureError,
    ConvergenceError,
    FormatError,
    MgError,
    UnderResolvedError,
    UnsolvableDataError,
)
from .grid import DiskGrid

# --------------------------------------------------------------------------
# T operator
# --------------------------------------------------------------------------

def t_operator_direct(grid: DiskGrid, f, chunk=512):
    """Reference all-pairs evaluation of T(f); used to cross-check
    ``t_operator`` on small grids."""
    f = np.asarray(f, dtype=complex)
    w = grid.area_weights
    zeta = grid.z
    out = np.empty(grid.n_nodes, dtype=complex)
    for lo in range(0, grid.n_nodes, chunk):
        hi = min(lo + chunk, grid.n_nodes)
        dz = zeta[None, :] - zeta[lo:hi, None]
        num = f[None, :] - f[lo:hi, None]
        ker = np.where(dz == 0, 0.0, num / np.where(dz == 0, 1.0, dz))
        out[lo:hi] = ker @ w
    return -out / np.pi + f * np.conj(zeta)


def _t_mode_tables(grid: DiskGrid):
    """Per-interval Gauss points, interpolation weights and power kernels for
    the mode-wise radial Volterra integrals of T."""
    key = "t_mode"
    if key in grid._caches:
        return grid._caches[key]
    n_r, nt = grid.n_r, grid.n_theta
    rs = grid.r_levels  # (n_r + 1,) radii including 0
    gauss_x, gauss_w = np.polynomial.legendre.leggauss(4)
    mid = 0.5 * (rs[:-1] + rs[1:])
    half = 0.5 * (rs[1:] - rs[:-1])
    rho = mid[:, None] + half[:, None] * gauss_x[None, :]      # (n_r, 4)
    wq = half[:, None] * np.tile(gauss_w, (n_r, 1))            # (n_r, 4)
    # cubic interpolation of radial profiles onto the Gauss points
    starts = np.zeros(n_r, dtype=int)
    interp = np.zeros((n_r, 4, 4))
    for i in range(n_r):
        s0 = int(np.clip(i - 1, 0, n_r - 3))
        starts[i] = s0
        xs = rs[s0 : s0 + 4]
        for q in range(4):
            for s in range(4):
                others = np.delete(xs, s)
                interp[i, q, s] = np.prod((rho[i, q] - others) / (xs[s] - others))
    # FFT index -> signed mode
    k = np.arange(nt)
    modes = np.where(k < nt // 2, k, k - nt)
    pos = modes >= 1
    neg = ~pos
    mp = modes[pos]        # m >= 1, backward recurrence
    mn = modes[neg]        # m <= 0, forward recurrence
    with np.errstate(divide="ignore", invalid="ignore"):
        ker_b = np.where(
            (rs[:-1, None, None] == 0.0) & (mp[None, None, :] == 1),
            1.0,
            (rs[:-1, None, None] / rho[:, :, None]) ** (mp[None, None, :] - 1),
        )
        rat_b = np.where(
            (rs[:-1, None] == 0.0) & (mp[None, :] == 1),
            1.0,
            (rs[:-1, None] / rs[1:, None]) ** (mp[None, :] - 1),
        )
    ker_f = (rho[:, :, None] / rs[1:, None, None]) ** (1 - mn[None, None, :])
    rat_f = (rs[:-1, None] / rs[1:, None]) ** (1 - mn[None, :])
    tables = {
        "wq": wq, "starts": starts, "interp": interp, "pos": pos, "neg": neg,
        "mp": mp, "mn": mn, "ker_b": ker_b, "rat_b": rat_b,
        "ker_f": ker_f, "rat_f": rat_f, "modes": modes,
    }
    grid._caches[key] = tables
    return tables


def t_operator(grid: DiskGrid, f):
    """T(f)(z) = -(1/pi) integral of f(zeta)/(zeta - z) over the disk.

    Evaluated mode by mode: on the disk T maps the angular mode m to m - 1
    with an explicit one-dimensional radial integral (from the rim inward
    for m >= 1, from the center outward for m <= 0), integrated at O(h^4)
    with Gauss panels and stable power-ratio kernels.
    """
    f = np.asarray(f, dtype=complex)
    tab = _t_mode_tables(grid)
    n_r, nt = grid.n_r, grid.n_theta
    rings = f[1:].reshape(n_r, nt)
    ghat = np.fft.fft(rings, axis=1) / nt        # (n_r, k) mode amplitudes
    prof = np.zeros((n_r + 1, nt), dtype=complex)
    prof[1:] = ghat
    prof[0, 0] = f[0]                            # center carries mode 0 only
    # interpolate every mode profile onto the Gauss points of each interval
    idx = tab["starts"][:, None] + np.arange(4)[None, :]
    gp = np.einsum("iqs,isk->iqk", tab["interp"], prof[idx])   # (n_r, 4, k)
    wq = tab["wq"]

    out_prof = np.zeros((n_r + 1, nt), dtype=complex)
    # m >= 1: w(r_i) = rat * w(r_{i+1}) - 2 int_{r_i}^{r_{i+1}} g (r_i/rho)^{m-1} drho
    seg_b = -2.0 * np.einsum("iq,iqm->im", wq, gp[:, :, tab["pos"]] * tab["ker_b"])
    w_pos = np.zeros((n_r + 1, seg_b.shape[1]), dtype=complex)
    for i in range(n_r - 1, -1, -1):
        w_pos[i] = tab["rat_b"][i] * w_pos[i + 1] + seg_b[i]
    # m <= 0: w(r_{i+1}) = rat * w(r_i) + 2 int (rho/r_{i+1})^{1-m} g drho
    seg_f = 2.0 * np.einsum("iq,iqm->im", wq, gp[:, :, tab["neg"]] * tab["ker_f"])
    w_neg = np.zeros((n_r + 1, seg_f.shape[1]), dtype=complex)
    for i in range(n_r):
        w_neg[i + 1] = tab["rat_f"][i] * w_neg[i] + seg_f[i]

    # scatter to output modes m - 1 (drop the unrepresentable lowest mode)
    modes = tab["modes"]
    low = -(nt // 2)
    for j, m in enumerate(modes[tab["pos"]]):
        out_prof[:, (m - 1) % nt] += w_pos[:, j]
    for j, m in enumerate(modes[tab["neg"]]):
        if m - 1 < low:
            continue
        out_prof[:, (m - 1) % nt] += w_neg[:, j]

    out = np.empty(grid.n_nodes, dtype=complex)
    out[0] = out_prof[0, 0]
    out[1:] = np.fft.ifft(out_prof[1:] * nt, axis=1).reshape(-1)
    return out


def t_one_oracle(grid: DiskGrid, targets_idx=None, n_phi=4096):
    """High-resolution quadrature oracle for the area integral with f = 1.

    Radial integration is exact, leaving a smooth periodic angle integral
    evaluated by the trapezoid rule:  T(1)(z) = -(1/pi) int e^{-i phi} R dphi
    with R(phi; z) the chord length from z to the rim.
    """
    if targets_idx is None:
        targets_idx = np.arange(grid.n_nodes)
    phi = np.arange(n_phi) * (2 * np.pi / n_phi)
    e = np.exp(1j * phi)
    out = np.empty(len(targets_idx), dtype=complex)
    zs = grid.z[targets_idx]
    chunk = max(1, int(2e6 // n_phi))
    for lo in range(0, len(zs), chunk):
        hi = min(lo + chunk, len(zs))
        z = zs[lo:hi, None]
        beta = np.real(np.conj(z) * e[None, :])
        disc = np.maximum(beta**2 + 1.0 - np.abs(z) ** 2, 0.0)
        radius = -beta + np.sqrt(disc)
        out[lo:hi] = -(np.conj(e)[None, :] * radius).mean(axis=1) * 2 * np.pi / np.pi
    return out


# --------------------------------------------------------------------------
# boundary symbol
# --------------------------------------------------------------------------

def index_of(lam):
    """Winding number of a unimodular boundary symbol."""
    lam = np.asarray(lam, dtype=complex)
    if np.max(np.abs(np.abs(lam) - 1.0)) > 1e-8:
        raise MgError("boundary symbol must be unimodular")
    jumps = np.angle(np.roll(lam, -1) / lam)
    if np.max(np.abs(jumps)) >= np.pi * (1 - 1e-9):
        raise UnderResolvedError(
            "adjacent boundary samples jump by >= pi; refine the boundary ring"
        )
    total = jumps.sum() / (2 * np.pi)
    n = int(np.rint(total))
    if abs(total - n) > 0.1:
        raise UnderResolvedError(f"winding {total} is not close to an integer")
    return n


def holomorphic_field(grid: DiskGrid, coeffs):
    """Evaluate sum_k coeffs[k] z^k on the grid (len(coeffs) <= n_theta)."""
    coeffs = np.asarray(coeffs, dtype=complex)
    nt = grid.n_theta
    if len(coeffs) > nt:
        raise MgError("too many holomorphic coefficients for this grid")
    # ring i carries the Fourier coefficients coeffs[k] r_i^k; one batched
    # inverse transform evaluates every ring
    spec = np.zeros((grid.n_r, nt), dtype=complex)
    pows = np.arange(len(coeffs))
    spec[:, : len(coeffs)] = coeffs[None, :] * grid.r_levels[1:, None] ** pows[None, :]
    out = np.empty(grid.n_nodes, dtype=complex)
    out[0] = coeffs[0]
    out[1:] = np.fft.ifft(spec * nt, axis=1).reshape(-1)
    return out


def schwarz_coefficients(boundary_vals, n_theta):
    """Taylor coefficients of the holomorphic extension with given real part
    on the rim and imaginary part vanishing at the origin."""
    c = np.fft.fft(np.asarray(boundary_vals, dtype=float)) / n_theta
    half = n_theta // 2
    coeffs = np.zeros(half + 1, dtype=complex)
    coeffs[0] = c[0].real
    coeffs[1:half] = 2.0 * c[1:half]
    coeffs[half] = c[half].real
    return coeffs


def schwarz_field(grid: DiskGrid, boundary_vals):
    return holomorphic_field(grid, schwarz_coefficients(boundary_vals, grid.n_theta))


@dataclass
class CanonicalSymbol:
    """Reduction lambda = e^{i n theta} e^{i mu} with mu absorbed."""

    grid: DiskGrid
    lam: np.ndarray
    n: int
    exp_is: np.ndarray       # e^{iS} on the grid, S = Schwarz extension of mu
    phi_weight: np.ndarray   # e^{Im S} on the boundary ring
    basis: list              # homogeneous family fields (2n+1 for n >= 0)

    @property
    def family_size(self):
        return len(self.basis)


def canonicalize(grid: DiskGrid, lam) -> CanonicalSymbol:
    lam = np.asarray(lam, dtype=complex)
    if lam.shape != (grid.n_theta,):
        raise MgError("lambda must be sampled on the boundary ring")
    n = index_of(lam)
    lam = lam / np.abs(lam)
    jumps = np.angle(np.roll(lam, -1) / lam)
    arg = np.angle(lam[0]) + np.concatenate([[0.0], np.cumsum(jumps[:-1])])
    mu = arg - n * grid.boundary_theta
    coeffs = schwarz_coefficients(mu, grid.n_theta)
    s_complex = holomorphic_field(grid, coeffs)
    exp_is = np.exp(1j * s_complex)
    phi_weight = np.exp(s_complex[grid.boundary_idx].imag)
    basis = []
    if n >= 0:
        def poly(coefs):
            return holomorphic_field(grid, coefs) * exp_is

        c = np.zeros(2 * n + 1, dtype=complex)
        c[n] = 1j
        basis.append(poly(c))
        for k in range(1, n + 1):
            c = np.zeros(2 * n + 1, dtype=complex)
            c[n + k] = 1.0
            c[n - k] = -1.0
            basis.append(poly(c))
            c = np.zeros(2 * n + 1, dtype=complex)
            c[n + k] = 1j
            c[n - k] = 1j
            basis.append(poly(c))
    return CanonicalSymbol(grid=grid, lam=lam, n=n, exp_is=exp_is,
                           phi_weight=phi_weight, basis=basis)


def _core_particular(sym: CanonicalSymbol, phi_boundary):
    """Particular solution of d_zbar w = 0, Re{conj(lam) w} = phi.

    Returns (field, solvability_residuals); residuals are empty for n >= 0.
    """
    grid = sym.grid
    phi1 = np.asarray(phi_boundary, dtype=float) * sym.phi_weight
    coeffs = schwarz_coefficients(phi1, grid.n_theta)
    if sym.n >= 0:
        shifted = np.zeros(len(coeffs) + sym.n, dtype=complex)
        shifted[sym.n :] = coeffs
        w = holomorphic_field(grid, shifted[: grid.n_theta]) * sym.exp_is
        return w, np.array([])
    m = -sym.n
    res = [coeffs[0].real]
    for k in range(1, min(m, len(coeffs))):
        res.extend([coeffs[k].real, coeffs[k].imag])
    while len(res) < 2 * m - 1:
        res.append(0.0)
    proj = coeffs.copy()
    proj[: min(m, len(proj))] = 0.0
    shifted = proj[m:] if len(proj) > m else np.zeros(1, dtype=complex)
    w = holomorphic_field(grid, shifted) * sym.exp_is
    return w, np.array(res)


@dataclass
class SolutionFamily:
    """Solved boundary-value problem: particular member plus free family.

    ``basis`` holds the core members b_i (d_zbar b = 0, zero boundary data)
    as returned by ``bvp_solve``; they solve the full homogeneous problem
    only when A, B and E vanish.  ``solve_family`` replaces them with the
    linear-response members K_i = (I - L)^{-1} b_i, which always do.
    """

    w: np.ndarray
    particular: np.ndarray
    basis: list
    params: np.ndarray
    n: int
    iterations: int = 0
    ratio: float = 0.0
    mode: str = "picard"
    boundary_residual: float = 0.0
    fixed_point_residual: float = 0.0
    solvability: np.ndarray = field(default_factory=lambda: np.array([]))

    @property
    def dimension(self):
        return len(self.basis)


def rh_core_solve(grid: DiskGrid, lam, phi, params=None) -> SolutionFamily:
    """Solve d_zbar w = 0 with Re{conj(lam) w} = phi on the rim."""
    sym = canonicalize(grid, lam)
    w_p, resid = _core_particular(sym, phi)
    if params is None:
        params = np.zeros(sym.family_size)
    params = np.asarray(params, dtype=float)
    if len(params) != sym.family_size:
        raise MgError(f"expected {sym.family_size} parameters, got {len(params)}")
    w = w_p.copy()
    for c, b in zip(params, sym.basis):
        w = w + c * b
    bres = float(np.max(np.abs(
        np.real(np.conj(sym.lam) * w[grid.boundary_idx]) - np.asarray(phi)
    )))
    return SolutionFamily(
        w=w, particular=w_p, basis=list(sym.basis), params=params, n=sym.n,
        boundary_residual=bres, solvability=resid,
    )


# --------------------------------------------------------------------------
# full problem
# --------------------------------------------------------------------------

@dataclass
class BoundaryProblem:
    """Data of the full generalized-analytic boundary-value problem."""

    grid: DiskGrid
    lam: np.ndarray                 # (n_theta,) unimodular
    phi: np.ndarray                 # (n_theta,) real
    A: np.ndarray | None = None     # (N,) complex coefficient field
    B: np.ndarray | None = None
    e0_point: np.ndarray | None = None   # i q0 / 2 at the field point
    e0_weight: np.ndarray | None = None  # V at the integration point
    e_swap: bool = False            # pair (Im w, Re w) with (dx1, dx2), as for the
                                    # flow's w = a2dot + i a1dot
    psi: np.ndarray | None = None   # fixed right-hand side (file problems)

    def e_operator(self, w):
        if self.e0_point is None:
            return np.zeros(self.grid.n_nodes, dtype=complex)
        h1 = np.real(w)
        h2 = np.imag(w)
        if self.e_swap:
            h1, h2 = h2, h1
        weight = self.e0_weight if self.e0_weight is not None else np.ones(self.grid.n_nodes)
        path = self.grid.line_integral_from(0, weight * h1, weight * h2)
        return self.e0_point * path

    def volume_terms(self, w):
        out = self.e_operator(w)
        if self.A is not None:
            out = out + self.A * w
        if self.B is not None:
            out = out + self.B * np.conj(w)
        return out


def assemble_AB(p1, p2, qb1, qb2, q0=None, v=None):
    """Coefficient fields of the complex form of the elliptic pair.

    A = (p1 + qb2 + i qb1 - i p2)/4,  B = (p1 - qb2 + i qb1 + i p2)/4;
    the volume kernel splits as (i q0 / 2) at the field point times the
    weight v at the integration point.
    """
    a = 0.25 * (p1 + qb2 + 1j * qb1 - 1j * p2)
    b = 0.25 * (p1 - qb2 + 1j * qb1 + 1j * p2)
    e0_point = None if q0 is None else 0.5j * np.asarray(q0, dtype=float)
    return a, b, e0_point, v


def _gmres(apply_op, rhs, tol, max_iter):
    """Matrix-free GMRES on real vectors, no restarts, deterministic.

    Raises ConvergenceError when ``max_iter`` iterations leave the residual
    above ``tol`` relative to the right-hand side.
    """
    if max_iter < 1:
        raise MgError(f"GMRES needs max_iter >= 1, got {max_iter}")
    n = rhs.size
    beta = np.linalg.norm(rhs)
    if beta == 0:
        return np.zeros(n), 0
    q = np.empty((max_iter + 1, n))
    h = np.zeros((max_iter + 1, max_iter))
    q[0] = rhs / beta
    for k in range(max_iter):
        v = apply_op(q[k])
        for j in range(k + 1):
            h[j, k] = q[j] @ v
            v = v - h[j, k] * q[j]
        h[k + 1, k] = np.linalg.norm(v)
        e1 = np.zeros(k + 2)
        e1[0] = beta
        ysol, res, *_ = np.linalg.lstsq(h[: k + 2, : k + 1], e1, rcond=None)
        rnorm = np.linalg.norm(h[: k + 2, : k + 1] @ ysol - e1)
        if rnorm <= tol * beta or h[k + 1, k] < 1e-300:
            return q[: k + 1].T @ ysol, k + 1
        q[k + 1] = v / h[k + 1, k]
    raise ConvergenceError(
        f"GMRES relative residual {rnorm / beta:.3e} above {tol:.1e} "
        f"after {max_iter} iterations"
    )


@dataclass
class PointPin:
    """Least-norm hold of w = 0 at the center node through the
    linear-response basis."""

    basis: list          # K_i = (I - L)^{-1} b_i, one per family member
    pinv: np.ndarray     # (nb, 2) pseudo-inverse of [Re K_i(0); Im K_i(0)]
    rank: int            # constraints the pin imposes, at most 2


def point_pin(basis) -> PointPin:
    """Least-norm pin of w = 0 at the center node through the linear-response
    ``basis``."""
    at_center = np.array([k[0] for k in basis], dtype=complex)
    mat = np.stack([at_center.real, at_center.imag])          # (2, nb)
    tol = 1e-12 * max(1.0, np.abs(mat).max(initial=0.0))
    return PointPin(basis, np.linalg.pinv(mat), int(np.linalg.matrix_rank(mat, tol=tol)))


def bvp_solve(problem: BoundaryProblem, psi_assembler=None, tol=1e-10,
              max_iter=60, pin: PointPin | None = None, mode="picard",
              solvability_tol=1e-6, sym: CanonicalSymbol | None = None) -> SolutionFamily:
    """Solve the full problem by alternating areal correction and core solve.

    ``psi_assembler`` maps the current iterate w to the right-hand side field;
    when None the fixed ``problem.psi`` (or zero) is used.  ``mode`` is
    "picard", "gmres", or "auto" (picard with gmres fallback on divergence).
    With a ``pin`` every outer iterate is moved along the linear-response
    basis to w = 0 at the center node with least-norm family parameters;
    without one the family parameters are zero.  The returned ``basis`` are
    the core members b_i, not homogeneous solutions of the full problem;
    ``solve_family`` adds the linear-response basis.
    """
    grid = problem.grid
    if sym is None:
        sym = canonicalize(grid, problem.lam)
    n = sym.n
    params = np.zeros(sym.family_size)

    if psi_assembler is None:
        psi_fixed = problem.psi if problem.psi is not None else np.zeros(grid.n_nodes, complex)
        psi_assembler = lambda w: psi_fixed
        psi_is_fixed = True
    else:
        psi_is_fixed = False

    bidx = grid.boundary_idx
    lam = sym.lam

    def corrected_t(field_on_disk, phi_target):
        u = t_operator(grid, field_on_disk)
        corr, resid = _core_particular(
            sym, phi_target - np.real(np.conj(lam) * u[bidx])
        )
        return u + corr, resid

    def linear_response(w):
        vol = problem.volume_terms(w)
        u, _ = corrected_t(-vol, np.zeros(grid.n_theta))
        return u

    def pack(w):
        return np.concatenate([w.real, w.imag])

    def unpack(v):
        half = v.size // 2
        return v[:half] + 1j * v[half:]

    w = np.zeros(grid.n_nodes, dtype=complex)
    iterations = 0
    ratio = 0.0
    used_mode = "picard"

    def inner_picard(rhs):
        """Successive substitution for v = rhs + L(v), frozen right side."""
        nonlocal iterations, ratio
        v = rhs.copy()
        diffs = []
        for k in range(max_iter):
            v_new = rhs + linear_response(v)
            d = float(np.max(np.abs(v_new - v)))
            diffs.append(d)
            v = v_new
            iterations += 1
            if d <= 0.5 * tol * max(1.0, float(np.max(np.abs(v)))):
                break
            if (len(diffs) >= 4 and diffs[-1] > diffs[-2] > diffs[-3]
                    and diffs[-1] > 10 * min(diffs)):
                if mode == "picard":
                    raise ContractionFailureError(
                        "successive approximations diverged (spectral radius >= 1)"
                    )
                return None
        else:
            if mode == "picard":
                raise ConvergenceError(
                    f"no convergence in {max_iter} successive approximations"
                )
            return None
        if len(diffs) >= 2 and diffs[-2] > 0:
            ratio = diffs[-1] / diffs[-2]
        return v

    def inner_gmres(rhs):
        nonlocal iterations, used_mode
        used_mode = "gmres"

        def apply_m(vec):
            ww = unpack(vec)
            return pack(ww - linear_response(ww))

        sol, its = _gmres(apply_m, pack(rhs), 0.1 * tol, max_iter * 4)
        iterations += its
        return unpack(sol)

    # outer substitution of the iterate into the right-hand side; each pass
    # solves the frozen-right-side problem with zero parameters, then adds
    # the parameters that put the iterate on w = 0 at the center
    max_outer = 1 if psi_is_fixed else 16
    prev_d = np.inf
    for outer in range(max_outer):
        rhs_field, solv_hist = corrected_t(psi_assembler(w), problem.phi)
        w_new = None
        if mode in ("picard", "auto") and used_mode == "picard":
            w_new = inner_picard(rhs_field)
        if w_new is None:
            w_new = inner_gmres(rhs_field)
        if pin is not None:
            params = pin.pinv @ -np.array([w_new[0].real, w_new[0].imag])
            for c, k in zip(params, pin.basis):
                w_new = w_new + c * k
        d = float(np.max(np.abs(w_new - w)))
        w = w_new
        if psi_is_fixed or d <= tol * max(1.0, float(np.max(np.abs(w)))):
            break
        if d >= 0.9 * prev_d:
            raise ConvergenceError(
                "right-hand-side coupling stopped contracting "
                f"(step {d:.3e} after {outer + 1} passes)"
            )
        prev_d = d
    else:
        raise ConvergenceError(
            f"outer right-hand-side iteration did not settle in {max_outer} passes"
        )

    psi_final = psi_assembler(w)
    if n < 0 and len(solv_hist):
        data_scale = max(
            float(np.max(np.abs(problem.phi))),
            float(np.max(np.abs(psi_final))),
            1e-30,
        )
        if np.max(np.abs(solv_hist)) > solvability_tol * data_scale:
            raise UnsolvableDataError(
                f"negative index {n}: solvability residuals "
                f"{np.max(np.abs(solv_hist)):.3e} exceed tolerance"
            )

    fp_field, _ = corrected_t(psi_final, problem.phi)
    for c, b in zip(params, sym.basis):
        fp_field = fp_field + c * b
    fp_field = fp_field + linear_response(w)
    fixed_point_residual = float(np.max(np.abs(fp_field - w)))
    boundary_residual = float(np.max(np.abs(
        np.real(np.conj(lam) * w[bidx]) - problem.phi
    )))
    return SolutionFamily(
        w=w, particular=w, basis=list(sym.basis), params=params, n=n,
        iterations=iterations, ratio=ratio, mode=used_mode,
        boundary_residual=boundary_residual,
        fixed_point_residual=fixed_point_residual,
        solvability=np.asarray(solv_hist),
    )


def solve_family(problem: BoundaryProblem, tol=1e-10, max_iter=60, mode="auto",
                 sym=None):
    """Particular solution plus the linear-response basis of the family.

    Member i is K_i = (I - L)^{-1} b_i for the core member b_i and the
    volume-term response L: b_i plus one fixed-right-side solve with
    psi = -(A b_i + B conj(b_i) + E(b_i)) and zero boundary data.
    """
    if sym is None:
        sym = canonicalize(problem.grid, problem.lam)
    base = bvp_solve(problem, tol=tol, max_iter=max_iter, mode=mode, sym=sym)
    zero_phi = np.zeros(problem.grid.n_theta)
    base.basis = [
        b + bvp_solve(replace(problem, phi=zero_phi, psi=-problem.volume_terms(b)),
                      tol=tol, max_iter=max_iter, mode=mode, sym=sym).w
        for b in sym.basis
    ]
    return base, sym


def homogeneous_rank(grid: DiskGrid, lam, degree=None, threshold=1e-6):
    """Numerical nullity of the boundary condition over holomorphic
    polynomials, with the singular-value gap across the rank cut."""
    lam = np.asarray(lam, dtype=complex)
    n = index_of(lam)
    if degree is None:
        degree = 2 * max(n, 0) + 4
    zb = np.exp(1j * grid.boundary_theta)
    cols = []
    for k in range(degree + 1):
        for unit in (1.0, 1j):
            cols.append(np.real(np.conj(lam) * unit * zb**k))
    m = np.stack(cols, axis=1)
    sv = np.linalg.svd(m, compute_uv=False)
    small = sv < threshold * sv[0]
    nullity = int(np.sum(small)) + max(0, m.shape[1] - m.shape[0])
    kept = sv[~small]
    dropped = sv[small]
    gap = float(kept[-1] / dropped[0]) if len(dropped) and len(kept) else np.inf
    return nullity, gap


def boundary_data(surface, l_field, gamma_dot):
    """Boundary symbol and right-hand side from a tangent field on the rim.

    ``l_field`` holds the tangential components l^i at the boundary nodes;
    lambda_tilde_k = a(y_,k, l^i y_,i) = g_ki l^i.  The symbol is rescaled to
    unit modulus with phi rescaled consistently, so Re{conj(lambda) w} = phi
    encodes a(z_dot, v) = gamma_dot exactly.
    """
    from .errors import BoundaryDegeneracyError

    bidx = surface.grid.boundary_idx
    g = surface.g[bidx]
    l_field = np.asarray(l_field, dtype=float)
    lam_tilde = np.einsum("nki,ni->nk", g, l_field)
    den = lam_tilde[:, 0] ** 2 + lam_tilde[:, 1] ** 2
    if np.min(den) < 1e-14:
        raise BoundaryDegeneracyError(
            "tangent field degenerates against the surface on the rim"
        )
    lam_k = lam_tilde / den[:, None]
    phi = np.asarray(gamma_dot, dtype=float) / den
    lam = lam_k[:, 0] + 1j * lam_k[:, 1]
    scale = np.abs(lam)
    return lam / scale, phi / scale, lam_tilde


def adjoint_null_functionals(grid: DiskGrid, lam, sym=None):
    """Rows of the boundary-data -> solvability-residual map for n < 0.

    Realizes the orthogonality conditions as discrete functionals on the
    boundary samples (the adjoint null basis of the solution operator).
    """
    if sym is None:
        sym = canonicalize(grid, lam)
    if sym.n >= 0:
        return np.zeros((0, grid.n_theta))
    m = -sym.n
    rows = np.empty((2 * m - 1, grid.n_theta))
    for j in range(grid.n_theta):
        e = np.zeros(grid.n_theta)
        e[j] = 1.0
        _, resid = _core_particular(sym, e)
        rows[:, j] = resid
    return rows


# --------------------------------------------------------------------------
# problem files
# --------------------------------------------------------------------------

def _fmt(x):
    return f"{x:.17g}"


def _write_text(path, header, blocks):
    """Header lines, then one ``begin name`` ... ``end`` block per
    (name, values, is_complex): one "re im" row per complex value, one value
    per row otherwise."""
    parts = list(header)
    for name, values, is_complex in blocks:
        if is_complex:
            values = np.asarray(values, dtype=complex)
            rows = map("{:.17g} {:.17g}".format, values.real.tolist(), values.imag.tolist())
        else:
            rows = map("{:.17g}".format, np.asarray(values, dtype=float).tolist())
        parts += [f"begin {name}", "\n".join(rows), "end"]
    with open(path, "w") as fh:
        fh.write("\n".join(parts) + "\n")


def _read_text(path):
    """Header key -> value and block name -> row lines; blank lines and
    ``#`` comments are skipped."""
    with open(path) as fh:
        raw = [ln.strip() for ln in fh]
    raw = [ln for ln in raw if ln and not ln.startswith("#")]
    if not raw:
        raise FormatError(f"{path}: empty problem file")
    header = {}
    i = 0
    while i < len(raw) and not raw[i].startswith("begin "):
        parts = raw[i].split()
        if len(parts) != 2:
            raise FormatError(f"{path}: bad header line {raw[i]!r}")
        header[parts[0]] = parts[1]
        i += 1
    blocks = {}
    while i < len(raw):
        if not raw[i].startswith("begin "):
            raise FormatError(f"{path}: expected 'begin', got {raw[i]!r}")
        name = raw[i].split(None, 1)[1]
        try:
            end = raw.index("end", i + 1)
        except ValueError:
            raise FormatError(f"{path}: unterminated block {name!r}") from None
        blocks[name] = raw[i + 1 : end]
        i = end + 1
    return header, blocks


def save_problem(path, problem: BoundaryProblem):
    grid = problem.grid
    header = ["# mgdeform vekua problem v1",
              f"n_r {grid.n_r}",
              f"n_theta {grid.n_theta}",
              "x0_node 0",
              f"e_swap {int(problem.e_swap)}"]
    # the E weight is written only together with its point factor
    e0_weight = problem.e0_weight if problem.e0_point is not None else None
    blocks = [("lambda", problem.lam, True), ("phi", problem.phi, False),
              ("A", problem.A, True), ("B", problem.B, True),
              ("e0_point", problem.e0_point, True), ("e0_weight", e0_weight, False),
              ("psi", problem.psi, True)]
    _write_text(path, header, [b for b in blocks if b[1] is not None])


def load_problem(path) -> BoundaryProblem:
    header, blocks = _read_text(path)
    try:
        n_r = int(header["n_r"])
        n_theta = int(header["n_theta"])
        x0_node = int(header.get("x0_node", 0))
        e_swap = bool(int(header.get("e_swap", 0)))
    except KeyError as exc:
        raise FormatError(f"{path}: missing header key {exc}") from exc
    except ValueError as exc:
        raise FormatError(f"{path}: bad header value: {exc}") from None
    if x0_node != 0:
        raise FormatError(f"{path}: x0_node must be 0 (the disk center), got {x0_node}")
    if "lambda" not in blocks or "phi" not in blocks:
        raise FormatError(f"{path}: lambda and phi blocks are required")
    grid = DiskGrid(n_r, n_theta)

    def block(name, count, is_complex=True):
        """The values of an optional block, checked against its row shape."""
        if name not in blocks:
            return None
        rows = blocks[name]
        shape = f"{count} 're im' rows" if is_complex else f"{count} value rows"
        if len(rows) != count:
            raise FormatError(f"{path}: block {name!r} must have {shape}")
        try:
            vals = np.array(" ".join(rows).split(), float)
        except ValueError as exc:
            raise FormatError(f"{path}: block {name!r}: {exc}") from None
        if vals.size != (2 if is_complex else 1) * count:
            raise FormatError(f"{path}: block {name!r} must have {shape}")
        return vals[0::2] + 1j * vals[1::2] if is_complex else vals

    return BoundaryProblem(
        grid=grid,
        lam=block("lambda", n_theta),
        phi=block("phi", n_theta, is_complex=False),
        A=block("A", grid.n_nodes),
        B=block("B", grid.n_nodes),
        e0_point=block("e0_point", grid.n_nodes),
        e0_weight=block("e0_weight", grid.n_nodes, is_complex=False),
        psi=block("psi", grid.n_nodes),
        e_swap=e_swap,
    )


def save_solution(path, family: SolutionFamily):
    header = ["# mgdeform vekua solution v1",
              f"n {family.n}",
              f"dimension {family.dimension}",
              f"iterations {family.iterations}",
              f"mode {family.mode}",
              f"ratio {_fmt(family.ratio)}",
              f"boundary_residual {_fmt(family.boundary_residual)}",
              f"fixed_point_residual {_fmt(family.fixed_point_residual)}"]
    if len(family.solvability):
        header.append("solvability " + " ".join(_fmt(v) for v in family.solvability))
    blocks = [("w", family.w, True)]
    blocks += [(f"basis_{k}", b, True) for k, b in enumerate(family.basis)]
    _write_text(path, header, blocks)
