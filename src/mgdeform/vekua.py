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

import io
import re
from dataclasses import dataclass, replace

import numpy as np

from .errors import (
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

def _t_mode_tables(grid: DiskGrid):
    """Per-grid weights of the mode-wise radial Volterra integrals of T.

    Each interval's integral takes the cubic Lagrange interpolant of a mode
    profile through the four ray levels of the grid's panel stencil
    (``_cum_idx``) against the interval's power kernel, by 4-point Gauss
    quadrature.  Interpolation weights, Gauss weights and kernel depend on
    the grid alone, so they fold into one real weight per stencil level s,
    interval i and mode: w_b[s, i, m] = -2 sum_q wq interp ker_b for the
    modes m >= 1 and w_f = 2 sum_q wq interp ker_f for m <= 0.  Every weight
    and step ratio is stored twice in a row, for the real and imaginary
    parts of a complex amplitude, as ``t_operator`` reads them; the step
    ratios of both blocks share one table, the m >= 1 block's rows reversed.
    """
    key = "t_mode"
    if key in grid._caches:
        return grid._caches[key]
    n_r, half = grid.n_r, grid.n_theta // 2
    rs = grid.r_levels  # (n_r + 1,) radii including 0
    gauss_x, gauss_w = np.polynomial.legendre.leggauss(4)
    mid = 0.5 * (rs[:-1] + rs[1:])
    half_len = 0.5 * (rs[1:] - rs[:-1])
    rho = mid[:, None] + half_len[:, None] * gauss_x[None, :]      # (n_r, 4)
    wq = half_len[:, None] * gauss_w[None, :]                      # (n_r, 4)
    # interp[i, q, s] = prod over o != s of (rho_iq - x_o) / (x_s - x_o)
    xs = rs[grid._cum_idx]                                         # (n_r, 4)
    others = np.array([[1, 2, 3], [0, 2, 3], [0, 1, 3], [0, 1, 2]])
    xo = xs[:, None, others]                                       # (n_r, 1, s, o)
    fac = (rho[:, :, None, None] - xo) / (xs[:, None, :, None] - xo)
    interp = fac[..., 0] * fac[..., 1] * fac[..., 2]               # (n_r, q, s)
    # T maps mode m to m - 1; the Nyquist mode -half has no representable
    # image and is left out.  At r_0 = 0 the power 0^0 = 1 keeps mode 1.
    mp = np.arange(1, half)           # m >= 1, backward recurrence
    mn = np.arange(1 - half, 1)       # m <= 0, forward recurrence
    ker_b = (rs[:-1, None, None] / rho[:, :, None]) ** (mp - 1)   # (n_r, q, m)
    ker_f = (rho[:, :, None] / rs[1:, None, None]) ** (1 - mn)
    step = rs[:-1, None] / rs[1:, None]
    # sum over q as a product (i, s, q) @ (i, q, m), reordered to (s, i, m)
    wi = np.transpose(wq[:, :, None] * interp, (0, 2, 1))

    def pairs(a):
        """``a`` with each value repeated for a real and an imaginary part."""
        return np.ascontiguousarray(np.repeat(a, 2, axis=-1))

    tables = {
        "w_b": pairs(np.transpose(-2.0 * (wi @ ker_b), (1, 0, 2))),
        "w_f": pairs(np.transpose(2.0 * (wi @ ker_f), (1, 0, 2))),
        # row j: the m >= 1 ratios of interval n_r - 1 - j, then the m <= 0
        # ratios of interval j, as t_operator's one recurrence reads them
        "rat": np.hstack([pairs(step[::-1] ** (mp - 1)), np.zeros((n_r, 2)),
                          pairs(step ** (1 - mn))]),
    }
    grid._caches[key] = tables
    return tables


def t_operator(grid: DiskGrid, f):
    """T(f)(z) = -(1/pi) integral of f(zeta)/(zeta - z) over the disk.

    Evaluated mode by mode: on the disk T maps the angular mode m to m - 1
    with an explicit one-dimensional radial integral (from the rim inward
    for m >= 1, from the center outward for m <= 0), integrated at O(h^4)
    with Gauss panels and stable power-ratio kernels folded into per-grid
    weights.  The amplitudes are read and written through float views, so
    every product with a real weight is one real multiply per part.
    """
    f = np.asarray(f, dtype=complex)
    tab = _t_mode_tables(grid)
    n_r, nt = grid.n_r, grid.n_theta
    half = nt // 2
    # mode amplitudes on ray levels 0 (the center, mode 0 only) .. n_r; a
    # last column repeats mode 0 so that the modes -(half - 1) .. 0 form one
    # block, columns half + 1 .. nt
    prof = np.empty((n_r + 1, nt + 1), dtype=complex)
    prof[1:, :nt] = np.fft.fft(f[1:].reshape(n_r, nt), axis=1, norm="forward")
    prof[0] = 0.0
    prof[0, 0] = f[0]
    prof[:, nt] = prof[:, 0]
    # the image of mode m is column m - 1: the m >= 1 block fills columns
    # 0 .. half - 2, the m <= 0 block columns half .. nt - 1
    out_prof = np.empty((n_r + 1, nt), dtype=complex)
    pf, w = prof.view(float), out_prof.view(float)
    nb = 2 * half - 2                    # floats per row of the m >= 1 block
    # both recurrences run in one loop over rows j = 0 .. n_r of out_prof:
    # the m >= 1 block, which runs from the rim inward, in reversed ring
    # order (w_b(r_{n_r - j}) in row j), beside the m <= 0 block (w_f(r_j));
    # row j + 1 first holds the panel sum that its step adds, and column
    # half - 1 stays 0 under a zero ratio.  The m >= 1 rows are then put
    # back in ring order.
    w[0] = 0.0
    w[1:, nb : nb + 2] = 0.0
    grid.panel_sums(tab["w_b"], pf[:, 2 : nb + 2], w[n_r:0:-1, :nb])
    grid.panel_sums(tab["w_f"], pf[:, nb + 4 :], w[1:, nb + 2 :])
    # m >= 1: w(r_i) = rat * w(r_{i+1}) - 2 int_{r_i}^{r_{i+1}} g (r_i/rho)^{m-1} drho
    # m <= 0: w(r_{i+1}) = rat * w(r_i) + 2 int (rho/r_{i+1})^{1-m} g drho
    rat, scaled = tab["rat"], np.empty(2 * nt)
    for j in range(n_r):
        w[j + 1] += np.multiply(rat[j], w[j], out=scaled)
    w[:, :nb] = w[::-1, :nb]

    out = np.empty(grid.n_nodes, dtype=complex)
    out[0] = out_prof[0, 0]
    out[1:] = np.fft.ifft(out_prof[1:], axis=1, norm="forward").reshape(-1)
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
    # index_of keeps |n| <= n_theta/2 and coeffs holds n_theta/2 + 1 entries,
    # so every residual coefficient and coeffs[m:] exist
    m = -sym.n
    res = [coeffs[0].real]
    for k in range(1, m):
        res.extend([coeffs[k].real, coeffs[k].imag])
    w = holomorphic_field(grid, coeffs[m:]) * sym.exp_is
    return w, np.array(res)


@dataclass
class SolutionFamily:
    """Solved boundary-value problem: the solution w plus the free family.

    ``basis`` holds the members ``params`` multiply: the core members b_i
    (d_zbar b = 0, zero boundary data) of an unpinned ``bvp_solve``, which
    solve the full homogeneous problem only when A, B and E vanish, or the
    linear-response members K_i = (I - L)^{-1} b_i, which always do.  A
    solve with an assembler sets ``start`` to its last pass's unpinned inner
    solution v and its image (I - L) v, from which a later solve with the
    same operator may start.
    """

    w: np.ndarray
    basis: list
    params: np.ndarray
    n: int
    iterations: int
    passes: int              # right-hand-side evaluations (assembler calls)
    ratio: float
    boundary_residual: float
    fixed_point_residual: float
    solvability: np.ndarray
    start: tuple | None      # (v, (I - L) v) of the last pass
    mode: str = "gmres"      # the one inner solver; read by perfbench's tracer

    @property
    def dimension(self):
        return len(self.basis)


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


def _gmres(apply_op, rhs, atol, max_iter, x0=None, r0=None, residual=False):
    """Matrix-free GMRES on real vectors, no restarts, deterministic.

    Starts from ``x0`` with its residual ``r0`` = rhs - A x0, which the
    caller forms from the image A x0 it holds, so the start costs no
    ``apply_op`` call; without ``x0`` it starts from zero.  Returns
    (x, k, factor, r): the first iterate whose residual 2-norm is at most
    ``atol``, the k Krylov iterations it took, the observed contraction
    (|r_k| / |r_0|)^(1/k), 0 when k = 0, and, when ``residual`` is set, the
    residual vector r_k = rhs - A x (None otherwise).  r_k is formed from the
    Arnoldi relation A Q_k = Q_{k+1} H_k as Q_{k+1} (beta e_1 - H_k y), with
    no ``apply_op`` call.  Raises ConvergenceError when ``max_iter``
    iterations leave the residual above ``atol``.
    """
    if max_iter < 1:
        raise MgError(f"GMRES needs max_iter >= 1, got {max_iter}")
    if x0 is None:
        x0, r0 = np.zeros(rhs.size), rhs
    beta = np.linalg.norm(r0)
    if beta <= atol:
        return x0, 0, 0.0, (r0 if residual else None)
    q = np.empty((max_iter + 1, rhs.size))
    h = np.zeros((max_iter + 1, max_iter))
    tmp = np.empty(rhs.size)
    q[0] = r0 / beta
    for k in range(max_iter):
        # modified Gram-Schmidt on the next basis row, in place
        v = q[k + 1]
        v[:] = apply_op(q[k])
        for j in range(k + 1):
            h[j, k] = q[j] @ v
            v -= np.multiply(q[j], h[j, k], out=tmp)
        h[k + 1, k] = np.linalg.norm(v)
        e1 = np.zeros(k + 2)
        e1[0] = beta
        ysol, *_ = np.linalg.lstsq(h[: k + 2, : k + 1], e1, rcond=None)
        hy_e1 = h[: k + 2, : k + 1] @ ysol - e1
        rnorm = np.linalg.norm(hy_e1)
        if rnorm <= atol or h[k + 1, k] < 1e-300:
            r = None
            if residual:
                # v is q_{k+1} before its division by h[k+1, k], so the last
                # term h[k+1, k] y_k q_{k+1} is y_k v, also at a breakdown
                r = -(q[: k + 1].T @ hy_e1[: k + 1]) - ysol[k] * v
            return (x0 + q[: k + 1].T @ ysol, k + 1, (rnorm / beta) ** (1.0 / (k + 1)), r)
        v /= h[k + 1, k]
    raise ConvergenceError(
        f"GMRES residual {rnorm:.3e} above {atol:.1e} after {max_iter} iterations"
    )


@dataclass
class PointPin:
    """Least-norm hold of w = 0 at the center node through the
    linear-response basis."""

    basis: list          # K_i = (I - L)^{-1} b_i, one per family member
    pinv: np.ndarray     # (nb, 2) pseudo-inverse of [Re K_i(0); Im K_i(0)]
    rank: int            # constraints the pin imposes, at most 2

    def apply(self, v):
        """(w, params): ``v`` moved along the basis to w = 0 at the center
        node, and the least-norm family parameters that move it.  The pin
        is linear in ``v``."""
        params = self.pinv @ -np.array([v[0].real, v[0].imag])
        w = v
        for c, k in zip(params, self.basis):
            w = w + c * k
        return w, params


def point_pin(basis) -> PointPin:
    """Least-norm pin of w = 0 at the center node through the linear-response
    ``basis``."""
    at_center = np.array([k[0] for k in basis], dtype=complex)
    mat = np.stack([at_center.real, at_center.imag])          # (2, nb)
    tol = 1e-12 * max(1.0, np.abs(mat).max(initial=0.0))
    return PointPin(basis, np.linalg.pinv(mat), int(np.linalg.matrix_rank(mat, tol=tol)))


def _corrected_t(sym: CanonicalSymbol, field_on_disk, phi_target):
    """T of a field plus the core solution that gives it the boundary data
    ``phi_target``, and that core solve's solvability residuals."""
    grid = sym.grid
    u = t_operator(grid, field_on_disk)
    corr, resid = _core_particular(
        sym, phi_target - np.real(np.conj(sym.lam) * u[grid.boundary_idx])
    )
    return u + corr, resid


def linear_response(problem: BoundaryProblem, sym: CanonicalSymbol, w):
    """L w: the volume-term response of the full problem, one T call."""
    u, _ = _corrected_t(sym, -problem.volume_terms(w), np.zeros(problem.grid.n_theta))
    return u


# largest n < 0 solvability residual accepted, relative to the data scale
SOLVABILITY_TOL = 1e-6


def _solvability_floor(problem: BoundaryProblem):
    """64 eps max(1, max|A|, max|B|, max|e0_point| max|e0_weight|), the
    round-off of forming the volume terms: a solvability residual under it
    is noise, which no bound relative to a round-off-sized source's own
    scale would admit."""
    def peak(field):
        return 0.0 if field is None else float(np.max(np.abs(field)))
    weight = 1.0 if problem.e0_weight is None else peak(problem.e0_weight)
    scale = max(1.0, peak(problem.A), peak(problem.B), peak(problem.e0_point) * weight)
    return 64 * np.finfo(float).eps * scale


def bvp_solve(problem: BoundaryProblem, psi_assembler=None, tol=1e-10,
              max_iter=60, pin: PointPin | None = None, mode="auto",
              sym: CanonicalSymbol | None = None, start=None) -> SolutionFamily:
    """Solve the full problem by alternating areal correction and core solve.

    ``psi_assembler`` maps the current iterate w to the right-hand side field;
    when None the fixed ``problem.psi`` (or zero) is used and one pass from
    zero returns its image F(0).  With an assembler the outer passes
    w_{k+1} = F(w_k) stop once |F(w_k) - w_k| <= tol; the returned iterate
    is that w_k, the last one whose right-hand side was assembled, so the
    assembler's most recent call is at the returned w.  Each pass solves its
    frozen-right-side problem (I - L) v = rhs by GMRES (at most 4
    ``max_iter`` iterations) from the previous pass's v, and w_{k+1} is that
    v pinned.  ``start`` = (v0, (I - L) v0) is an unpinned start with its
    image: the first iterate is v0 pinned and the first pass's GMRES starts
    from v0 (without ``start``, w_0 = 0).  A start's residual
    rhs - (I - L) v comes from the image the solve carries, the previous
    pass's GMRES handing on rhs - r_k, so no start costs an application of
    L.  ``iterations`` counts the applications of L in the passes and
    ``ratio`` is the largest per-pass contraction (|r_k| / |r_0|)^(1/k).
    ``mode`` must be "auto", the one strategy.  With a ``pin`` every v is
    moved along the linear-response basis to w = 0 at the center node with
    least-norm family parameters (``PointPin.apply``); without one the
    family parameters are zero.  With an assembler the returned ``start`` is
    the last pass's (v, (I - L) v), which a later solve may start from.  The
    returned ``basis`` is the pin's, so that w = v + sum params_i K_i, or
    without a pin the core members b_i (``solve_family`` adds the K_i).
    For n < 0 the data must meet the solvability conditions: a residual
    above both ``SOLVABILITY_TOL`` max(max|phi|, max|psi|) and the round-off
    floor 64 eps max(1, max|A|, max|B|, max|e0_point| max|e0_weight|)
    raises ``UnsolvableDataError``.
    """
    if mode != "auto":
        raise MgError(f"the solve strategy is 'auto', got {mode!r}")
    if not tol > 0:
        raise MgError(f"tol must be positive, got {tol}")
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

    def pack(w):
        return np.concatenate([w.real, w.imag])

    def unpack(v):
        half = v.size // 2
        return v[:half] + 1j * v[half:]

    def apply_m(vec):
        ww = unpack(vec)
        return pack(ww - linear_response(problem, sym, ww))

    # each pass's inner problem (I - L) v = rhs starts from the previous
    # pass's v, packed as x, the first one from the start's v0.  With an
    # assembler the solve carries x_img = (I - L) v (packed), from which a
    # pass forms its start's residual; a fixed right side makes one pass
    # from zero and carries neither.
    carry = not psi_is_fixed
    x = x_img = None
    w = np.zeros(grid.n_nodes, dtype=complex)
    if start is not None:
        v0, v0_img = (np.asarray(f, dtype=complex) for f in start)
        x, x_img = pack(v0), pack(v0_img)
        w = v0
        if pin is not None:
            w, params = pin.apply(v0)
    ratio = 0.0

    # outer substitution of the iterate into the right-hand side; each pass
    # solves the frozen-right-side problem with zero parameters, then adds
    # the parameters that put the iterate on w = 0 at the center
    max_outer = 1 if psi_is_fixed else 16
    pass_diffs, pass_iters = [], []
    for outer in range(max_outer):
        psi = psi_assembler(w)
        rhs_field, solv_hist = _corrected_t(sym, psi, problem.phi)
        rhs = pack(rhs_field)
        # a residual 2-norm below tol/2 bounds its sup norm too
        atol = 0.5 * tol * max(1.0, float(np.max(np.abs(rhs_field))))
        try:
            x, its, factor, r = _gmres(
                apply_m, rhs, atol, 4 * max_iter, x0=x,
                r0=None if x is None else rhs - x_img, residual=carry)
        except ConvergenceError as exc:
            earlier = (f"; earlier {_fmt_passes(pass_diffs, pass_iters)}"
                       if pass_diffs else "")
            raise ConvergenceError(f"outer pass {outer + 1}: {exc}{earlier}") from None
        pass_iters.append(its)
        ratio = max(ratio, factor)
        if carry:
            x_img = rhs - r
        w_new = unpack(x)
        if pin is not None:
            w_new, params = pin.apply(w_new)
        d = float(np.max(np.abs(w_new - w)))
        pass_diffs.append(d)
        if psi_is_fixed:
            w = w_new
            break
        if d <= tol * max(1.0, float(np.max(np.abs(w_new)))):
            break
        if len(pass_diffs) >= 2 and d >= 0.9 * pass_diffs[-2]:
            raise ConvergenceError(
                "right-hand-side coupling stopped contracting "
                f"(step {d:.3e} after {outer + 1} passes; "
                f"{_fmt_passes(pass_diffs, pass_iters)})"
            )
        w = w_new
    else:
        raise ConvergenceError(
            f"outer right-hand-side iteration did not settle in {max_outer} passes "
            f"({_fmt_passes(pass_diffs, pass_iters)})"
        )

    # psi and rhs_field belong to the returned w: with an assembler w is the
    # last assembled iterate, and a fixed psi does not depend on w
    if n < 0 and len(solv_hist):
        data_scale = max(float(np.max(np.abs(problem.phi))), float(np.max(np.abs(psi))))
        if np.max(np.abs(solv_hist)) > max(SOLVABILITY_TOL * data_scale,
                                           _solvability_floor(problem)):
            raise UnsolvableDataError(
                f"negative index {n}: solvability residuals "
                f"{np.max(np.abs(solv_hist)):.3e} exceed tolerance"
            )

    # the independent check applies L itself rather than reading the image
    fp_field = rhs_field
    for c, b in zip(params, sym.basis):
        fp_field = fp_field + c * b
    fp_field = fp_field + linear_response(problem, sym, w)
    fixed_point_residual = float(np.max(np.abs(fp_field - w)))
    boundary_residual = float(np.max(np.abs(
        np.real(np.conj(lam) * w[bidx]) - problem.phi
    )))
    return SolutionFamily(
        w=w, basis=list(sym.basis if pin is None else pin.basis), params=params, n=n,
        iterations=sum(pass_iters), passes=len(pass_diffs), ratio=ratio,
        boundary_residual=boundary_residual,
        fixed_point_residual=fixed_point_residual,
        solvability=np.asarray(solv_hist),
        start=(unpack(x), unpack(x_img)) if carry else None,
    )


def _fmt_passes(diffs, inner):
    """Each outer pass's difference with its inner iteration count."""
    listed = ", ".join(f"{d:.3e} ({k} inner)" for d, k in zip(diffs, inner))
    return f"pass differences {listed}"


def linear_response_basis(problem: BoundaryProblem, sym: CanonicalSymbol,
                          tol=1e-10, max_iter=60):
    """The linear-response members K_i = (I - L)^{-1} b_i of the family.

    For the core member b_i and the volume-term response L, K_i is b_i plus
    one fixed-right-side solve with psi = -(A b_i + B conj(b_i) + E(b_i))
    and zero boundary data; ``problem``'s own phi and psi are not read.
    """
    zero_phi = np.zeros(problem.grid.n_theta)
    return [
        b + bvp_solve(replace(problem, phi=zero_phi, psi=-problem.volume_terms(b)),
                      tol=tol, max_iter=max_iter, sym=sym).w
        for b in sym.basis
    ]


def solve_family(problem: BoundaryProblem, tol=1e-10, max_iter=60) -> SolutionFamily:
    """Particular solution plus the linear-response basis of the family
    (``linear_response_basis``)."""
    sym = canonicalize(problem.grid, problem.lam)
    family = bvp_solve(problem, tol=tol, max_iter=max_iter, sym=sym)
    family.basis = linear_response_basis(problem, sym, tol=tol, max_iter=max_iter)
    return family


# --------------------------------------------------------------------------
# problem files
# --------------------------------------------------------------------------

def _fmt(x):
    return f"{x:.17g}"


def _write_text(path, header, blocks):
    """Header lines, then one ``begin name`` ... ``end`` block per
    (name, values, is_complex): one "re im" row per complex value, one value
    per row otherwise, each value printed with 17 significant digits."""
    with open(path, "w") as fh:
        fh.write("\n".join(header) + "\n")
        for name, values, is_complex in blocks:
            values = np.ascontiguousarray(values, dtype=complex if is_complex else float)
            row = "%.17g %.17g\n" if is_complex else "%.17g\n"
            fh.write(f"begin {name}\n")
            fh.write(row * values.size % tuple(values.view(float).tolist()))
            fh.write("end\n")


def _block_end(text, pos):
    """(start, end) of the first line at or after ``pos`` that reads ``end``."""
    i = pos
    while (i := text.find("end", i)) >= 0:
        start = text.rfind("\n", 0, i) + 1
        stop = text.find("\n", i) + 1 or len(text)
        if text[start:stop].strip() == "end":
            return start, stop
        i += 3
    return None


def _read_text(path):
    """Text, header key -> value and block name -> (start, stop) of the
    block's rows in that text, of a problem file.

    The grammar: ``key value`` header lines, then blocks that each open
    with a ``begin <name>`` line and close at the next ``end`` line, with one
    row per sample between them (``re im`` for a complex sample, each value
    written with 17 significant digits).  Lines are read without their
    surrounding whitespace; blank lines and ``#`` comment lines may stand
    anywhere and count for nothing; a ``#`` after a value is an error.
    ``load_problem`` parses each block with NumPy's text reader, so values
    are plain float literals (no underscores).  A repeated header key or
    block name is a format error; ``load_problem`` rejects names it does not
    know.
    """
    with open(path) as fh:
        text = fh.read()
    header, blocks = {}, {}
    pos = 0
    while pos < len(text):
        stop = text.find("\n", pos) + 1 or len(text)
        line = text[pos:stop].strip()
        pos = stop
        if not line or line.startswith("#"):
            continue
        if line.startswith("begin "):
            name = line.split(None, 1)[1]
            if name in blocks:
                raise FormatError(f"{path}: repeated block {name!r}")
            end = _block_end(text, pos)
            if end is None:
                raise FormatError(f"{path}: unterminated block {name!r}")
            blocks[name] = pos, end[0]
            pos = end[1]
        elif blocks:
            raise FormatError(f"{path}: expected 'begin', got {line!r}")
        else:
            parts = line.split()
            if len(parts) != 2:
                raise FormatError(f"{path}: bad header line {line!r}")
            if parts[0] in header:
                raise FormatError(f"{path}: repeated header key {parts[0]!r}")
            header[parts[0]] = parts[1]
    if not (header or blocks):
        raise FormatError(f"{path}: empty problem file")
    return text, header, blocks


# a line that holds a value (a block without one is refused before loadtxt,
# which would only warn), and one with a '#' after a value
_DATA_LINE = re.compile(r"^[^\S\n]*[^\s#]", re.M)
_VALUE_COMMENT = re.compile(r"^[^\S\n]*[^\s#][^\n#]*#", re.M)


# a value as NumPy's text reader parses it: decimal, inf or nan, no underscores
_FLOAT = re.compile(r"[+-]?(?:(?:[0-9]+\.?[0-9]*|\.[0-9]+)(?:[eE][+-]?[0-9]+)?"
                    r"|inf(?:inity)?|nan)", re.I)


def _bad_row(text, start, stop, width):
    """(file line, what it holds) of the first row of the block at
    text[start:stop] that does not hold ``width`` float literals, or None."""
    first = text.count("\n", 0, start) + 1
    for i, line in enumerate(text[start:stop].split("\n")):
        values = line.split()
        if not values or values[0].startswith("#"):
            continue
        if len(values) != width:
            return first + i, f"{len(values)} value{'s' * (len(values) != 1)}, not {width}"
        bad = [v for v in values if not _FLOAT.fullmatch(v)]
        if bad:
            return first + i, f"{bad[0]!r}, not a float literal"
    return None


_PROBLEM_HEADER = ("n_r", "n_theta", "x0_node", "e_swap")
_PROBLEM_BLOCKS = ("lambda", "phi", "A", "B", "e0_point", "e0_weight", "psi")


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
    text, header, blocks = _read_text(path)
    for key in header:
        if key not in _PROBLEM_HEADER:
            raise FormatError(f"{path}: unknown header key {key!r}")
    for name in blocks:
        if name not in _PROBLEM_BLOCKS:
            raise FormatError(f"{path}: unknown block {name!r}")
    try:
        n_r = int(header["n_r"])
        n_theta = int(header["n_theta"])
        x0_node = int(header.get("x0_node", 0))
        e_swap = int(header.get("e_swap", 0))
    except KeyError as exc:
        raise FormatError(f"{path}: missing header key {exc}") from exc
    except ValueError as exc:
        raise FormatError(f"{path}: bad header value: {exc}") from None
    if e_swap not in (0, 1):
        raise FormatError(f"{path}: e_swap must be 0 or 1, got {e_swap}")
    if x0_node != 0:
        raise FormatError(f"{path}: x0_node must be 0 (the disk center), got {x0_node}")
    if "lambda" not in blocks or "phi" not in blocks:
        raise FormatError(f"{path}: lambda and phi blocks are required")
    grid = DiskGrid(n_r, n_theta)

    def block(name, count, is_complex=True):
        """The values of an optional block, checked against its row shape."""
        if name not in blocks:
            return None
        start, stop = blocks[name]
        width = 2 if is_complex else 1
        shape = f"{count} 're im' rows" if is_complex else f"{count} value rows"
        if not _DATA_LINE.search(text, start, stop):
            raise FormatError(f"{path}: block {name!r} must have {shape}")
        if text.find("#", start, stop) >= 0 and _VALUE_COMMENT.search(text, start, stop):
            raise FormatError(f"{path}: block {name!r}: a '#' comment must fill its line")
        try:
            # skips blank and '#' lines; bytes take a quarter of a StringIO's memory
            vals = np.loadtxt(io.BytesIO(text[start:stop].encode()), ndmin=2, encoding="utf-8")
        except ValueError as exc:
            # loadtxt counts value rows from 0 and advises options the format
            # lacks, so the first bad row is reported by its file line
            bad = _bad_row(text, start, stop, width)
            if bad is None:
                raise FormatError(f"{path}: block {name!r}: {exc}") from None
            raise FormatError(f"{path}: block {name!r}: line {bad[0]} holds {bad[1]}") from None
        if vals.shape != (count, width):
            raise FormatError(f"{path}: block {name!r} must have {shape}")
        if not np.all(np.isfinite(vals)):
            raise FormatError(f"{path}: block {name!r} has non-finite samples")
        return (vals.view(complex) if is_complex else vals).ravel()

    return BoundaryProblem(
        grid=grid,
        lam=block("lambda", n_theta),
        phi=block("phi", n_theta, is_complex=False),
        A=block("A", grid.n_nodes),
        B=block("B", grid.n_nodes),
        e0_point=block("e0_point", grid.n_nodes),
        e0_weight=block("e0_weight", grid.n_nodes, is_complex=False),
        psi=block("psi", grid.n_nodes),
        e_swap=bool(e_swap),
    )


def save_solution(path, family: SolutionFamily):
    header = ["# mgdeform vekua solution v1",
              f"n {family.n}",
              f"dimension {family.dimension}",
              f"iterations {family.iterations}",
              f"ratio {_fmt(family.ratio)}",
              f"boundary_residual {_fmt(family.boundary_residual)}",
              f"fixed_point_residual {_fmt(family.fixed_point_residual)}"]
    if len(family.solvability):
        header.append("solvability " + " ".join(_fmt(v) for v in family.solvability))
    blocks = [("w", family.w, True)]
    blocks += [(f"basis_{k}", b, True) for k, b in enumerate(family.basis)]
    _write_text(path, header, blocks)
