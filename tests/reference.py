"""Reference computations and diagnostics that only the tests call.

Each function here is an independent route to a quantity the package
computes another way, or a diagnostic of a bound the package relies on:

- the all-pairs T operator, the mode-wise T operator with its radial
  quadrature unfolded, and the chord-length quadrature of T(1);
- textbook modified Gram-Schmidt GMRES;
- the homogeneous nullity and the n < 0 solvability functionals of the
  boundary condition;
- transport over a whole history by RK4 (optionally several substeps per
  interval) and by its nested-integral series, with the path norms of the
  series bound;
- the Christoffel symbols of a metric plug-in by the textbook formula, the
  metric-compatibility residual of its contractions, the displaced
  first form by recomputation and its trace W1, the second-form variation
  and the coefficient families S_(1) to S_(5), T_j, N_j and Q_i by the
  paper's term-by-term cascades, the algebraic G-condition residual and
  the norm chain of the coefficient cascade, and the cdot diagnostics;
- the grid's node coordinates by repeat, tile and r cos theta over every
  node, the cumulative radial integral and the line integral along the
  grid's rays in gather form, and the disk's area quadrature;
- the restriction of a field to the nodes of the grid with half the rings
  and angles, and the split of the rebuild oracle's reading on nested grids
  into its own grid error and the solution's.
"""

from __future__ import annotations

import numpy as np

from mgdeform._contract import node_last
from mgdeform.cdot import CdotSolution, kernel_fields
from mgdeform.errors import MgError
from mgdeform.gdef import DeformationState, GDefCoefficients, tangential_grad
from mgdeform.grid import DiskGrid
from mgdeform.kpres import _form_product
from mgdeform.metrics import AmbientMetric
from mgdeform.surface import SurfaceState, gauss_curvature_of
from mgdeform.transport import TransportHistory, _gamma_zdot, transport_propagator
from mgdeform.vekua import _core_particular, canonicalize, index_of

# --------------------------------------------------------------------------
# vekua
# --------------------------------------------------------------------------


def t_operator_direct(grid: DiskGrid, f):
    """Reference all-pairs evaluation of T(f); used to cross-check
    ``t_operator`` on small grids."""
    chunk = 512   # rows of the all-pairs kernel per block
    f = np.asarray(f, dtype=complex)
    w = area_weights(grid)
    zeta = grid.z
    out = np.empty(grid.n_nodes, dtype=complex)
    for lo in range(0, grid.n_nodes, chunk):
        hi = min(lo + chunk, grid.n_nodes)
        dz = zeta[None, :] - zeta[lo:hi, None]
        num = f[None, :] - f[lo:hi, None]
        ker = np.where(dz == 0, 0.0, num / np.where(dz == 0, 1.0, dz))
        out[lo:hi] = ker @ w
    return -out / np.pi + f * np.conj(zeta)


def _t_panel_tables(grid: DiskGrid):
    """Per-interval Gauss points, interpolation weights and power kernels of
    ``t_operator_panels``, unfolded."""
    n_r, nt = grid.n_r, grid.n_theta
    rs = grid.r_levels  # (n_r + 1,) radii including 0
    gauss_x, gauss_w = np.polynomial.legendre.leggauss(4)
    mid = 0.5 * (rs[:-1] + rs[1:])
    half = 0.5 * (rs[1:] - rs[:-1])
    rho = mid[:, None] + half[:, None] * gauss_x[None, :]      # (n_r, 4)
    wq = half[:, None] * np.tile(gauss_w, (n_r, 1))            # (n_r, 4)
    # cubic Lagrange interpolation of radial profiles onto the Gauss points,
    # through the four ray levels of the grid's panel stencil:
    # interp[i, q, s] = prod over o != s of (rho_iq - x_o) / (x_s - x_o)
    xs = rs[grid._cum_idx]                                     # (n_r, 4)
    others = np.array([[1, 2, 3], [0, 2, 3], [0, 1, 3], [0, 1, 2]])
    xo = xs[:, None, others]                                   # (n_r, 1, s, o)
    fac = (rho[:, :, None, None] - xo) / (xs[:, None, :, None] - xo)
    interp = fac[..., 0] * fac[..., 1] * fac[..., 2]           # (n_r, q, s)
    # FFT index -> signed mode; T maps mode m to m - 1, so the lowest mode
    # has no representable image and is left out
    k = np.arange(nt)
    modes = np.where(k < nt // 2, k, k - nt)
    pos = modes >= 1
    neg = (modes <= 0) & (modes > -(nt // 2))
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
    return {
        "wq": wq, "interp": interp, "pos": pos, "neg": neg,
        "ker_b": ker_b, "rat_b": rat_b, "ker_f": ker_f, "rat_f": rat_f,
        # output column of each mode's image m - 1
        "dest_pos": (mp - 1) % nt, "dest_neg": (mn - 1) % nt,
    }


def t_operator_panels(grid: DiskGrid, f):
    """Reference mode-wise T(f) with its quadrature unfolded: every call
    interpolates the mode profiles onto the Gauss points, multiplies by the
    power kernels and sums the Gauss weights.  ``t_operator`` folds these
    three per-grid factors into its weights."""
    f = np.asarray(f, dtype=complex)
    tab = _t_panel_tables(grid)
    n_r, nt = grid.n_r, grid.n_theta
    rings = f[1:].reshape(n_r, nt)
    ghat = np.fft.fft(rings, axis=1) / nt        # (n_r, k) mode amplitudes
    prof = np.zeros((n_r + 1, nt), dtype=complex)
    prof[1:] = ghat
    prof[0, 0] = f[0]                            # center carries mode 0 only
    # interpolate every mode profile onto the Gauss points of each interval
    gp = np.einsum("iqs,isk->iqk", tab["interp"], prof[grid._cum_idx])   # (n_r, 4, k)
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

    # scatter to output modes m - 1
    out_prof[:, tab["dest_pos"]] += w_pos
    out_prof[:, tab["dest_neg"]] += w_neg

    out = np.empty(grid.n_nodes, dtype=complex)
    out[0] = out_prof[0, 0]
    out[1:] = np.fft.ifft(out_prof[1:] * nt, axis=1).reshape(-1)
    return out


def gmres_mgs(apply_op, rhs, atol, max_iter, x0=None):
    """Textbook GMRES with modified Gram-Schmidt, every update a new array
    (``v = v - h q``): the reference for ``vekua._gmres``'s in-place loop,
    with its contract and return value (x, k, factor)."""
    if x0 is None:
        x0, r0 = np.zeros(rhs.size), rhs
    else:
        r0 = rhs - apply_op(x0)
    beta = np.linalg.norm(r0)
    if beta <= atol:
        return x0, 0, 0.0
    q = np.empty((max_iter + 1, rhs.size))
    h = np.zeros((max_iter + 1, max_iter))
    q[0] = r0 / beta
    for k in range(max_iter):
        v = apply_op(q[k])
        for j in range(k + 1):
            h[j, k] = q[j] @ v
            v = v - h[j, k] * q[j]
        h[k + 1, k] = np.linalg.norm(v)
        e1 = np.zeros(k + 2)
        e1[0] = beta
        ysol, *_ = np.linalg.lstsq(h[: k + 2, : k + 1], e1, rcond=None)
        rnorm = np.linalg.norm(h[: k + 2, : k + 1] @ ysol - e1)
        if rnorm <= atol or h[k + 1, k] < 1e-300:
            return x0 + q[: k + 1].T @ ysol, k + 1, (rnorm / beta) ** (1.0 / (k + 1))
        q[k + 1] = v / h[k + 1, k]
    raise MgError(f"GMRES did not reach {atol:.1e} in {max_iter} iterations")


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


def homogeneous_rank(grid: DiskGrid, lam):
    """Numerical nullity of the boundary condition over holomorphic
    polynomials of degree 2 max(n, 0) + 4, with the singular-value gap
    across the rank cut at 1e-6 of the largest singular value."""
    lam = np.asarray(lam, dtype=complex)
    n = index_of(lam)
    degree = 2 * max(n, 0) + 4
    threshold = 1e-6
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
# transport
# --------------------------------------------------------------------------


def history_from_path(path_fn, rate_fn, t, n_steps):
    """Sampled one-point history of an analytic path z(tau)."""
    tau = np.linspace(0.0, t, n_steps + 1)
    z = np.stack([np.broadcast_to(path_fn(tm), (1, 3)).copy() for tm in tau])
    zd = np.stack([np.broadcast_to(rate_fn(tm), (1, 3)).copy() for tm in tau])
    return TransportHistory(tau, z, zd)


def _stage_fractions(substeps):
    """Fractions s = j / (2 substeps) of an interval holding its RK4 stages."""
    return np.arange(2 * substeps + 1) / (2 * substeps)


def _interval_gammas(metric, y0, history, m, fractions, g_start=None, g_end=None):
    """Node-last G = Gamma zdot along interval m at ``fractions``, end values
    reused.

    Hermite interpolation is exact at s = 0 and 1, so an end value taken over
    from the neighbouring interval or a sample is bit-identical.
    """
    out = []
    last = len(fractions) - 1
    for j, s in enumerate(fractions):
        if j == 0 and g_start is not None:
            out.append(g_start)
        elif j == last and g_end is not None:
            out.append(g_end)
        else:
            out.append(_gamma_zdot(metric, y0, *history.hermite(m, s)))
    return out


def _rk4(g0, g_half, g1, a, h, sign):
    """One textbook RK4 step of dA = sign G A from ``a``, stage by stage,
    with G at the step's start, middle and end."""
    def rhs(g, val):
        return sign * np.einsum("gbn,bkn->gkn", g, val)

    k1 = rhs(g0, a)
    k2 = rhs(g_half, a + 0.5 * h * k1)
    k3 = rhs(g_half, a + 0.5 * h * k2)
    k4 = rhs(g1, a + h * k3)
    return a + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)


def _interval_step(gs, a, h, direction):
    """Carry ``a`` (3, k, n) across one interval, all node-last; ``gs``
    holds G at the stage fractions, ``h`` is the substep length."""
    last = len(gs) - 1
    for q in range(last // 2):
        if direction == "forward":
            a = _rk4(gs[2 * q], gs[2 * q + 1], gs[2 * q + 2], a, h, -1.0)
        else:
            j = last - 2 * q
            a = _rk4(gs[j], gs[j - 1], gs[j - 2], a, h, 1.0)
    return a


def _check_direction(direction):
    if direction not in ("backward", "forward"):
        raise MgError(f"unknown direction {direction!r}")


def _check_whole_path(history):
    """Reject a history that no longer holds every sample of its path: one
    made by ``advance`` keeps its final interval only."""
    held = history.tau.size - 1
    if history.n_steps != held:
        raise MgError(f"the history holds {held} of its {history.n_steps} intervals; "
                      "this reference reads the whole path")


def transport_tensor_ode(metric: AmbientMetric, y0, history: TransportHistory, seed,
                         direction="backward", substeps=1):
    """Integrate the transport system with classical RK4 over every interval.

    ``seed`` is (n_pts, 3) or (n_pts, 3, k), and so is the result: node
    first, unlike the propagator's node-last maps.  Backward means the seed
    sits at tau = t and the value at tau = 0 is returned, forward the
    reverse.  The all-interval reference for ``transport_propagator``: each
    distinct stage point is evaluated once, 2 M substeps + 1 Christoffel
    evaluations in all.
    """
    _check_direction(direction)
    y0 = np.asarray(y0, dtype=float)
    a = np.array(seed, dtype=float)
    vec_mode = a.ndim == 2
    if history.n_steps == 0 or metric.is_flat():
        return a
    a = node_last(a[..., None] if vec_mode else a)

    fractions = _stage_fractions(substeps)
    backward = direction == "backward"
    intervals = range(history.n_steps - 1, -1, -1) if backward else range(history.n_steps)
    shared = None   # G at the sample this interval shares with the previous one
    for m in intervals:
        h = (history.tau[m + 1] - history.tau[m]) / substeps
        if backward:
            gs = _interval_gammas(metric, y0, history, m, fractions, g_end=shared)
            shared = gs[0]
        else:
            gs = _interval_gammas(metric, y0, history, m, fractions, g_start=shared)
            shared = gs[-1]
        a = _interval_step(gs, a, h, direction)
    a = np.moveaxis(a, -1, 0)
    return a[..., 0] if vec_mode else a


def _cumtrapz_from_end(vals, dt):
    """C[m] = integral from tau_m to tau_M (trapezoid), vals shape (M+1, ...),
    ``dt`` the interval lengths broadcast against vals[1:]."""
    inc = 0.5 * dt * (vals[1:] + vals[:-1])
    c = np.zeros_like(vals)
    c[:-1] = np.cumsum(inc[::-1], axis=0)[::-1]
    return c


def _cumtrapz_from_start(vals, dt):
    """C[m] = integral from tau_0 to tau_m."""
    inc = 0.5 * dt * (vals[1:] + vals[:-1])
    c = np.zeros_like(vals)
    c[1:] = np.cumsum(inc, axis=0)
    return c


def transport_series_terms(metric: AmbientMetric, y0, history: TransportHistory,
                           k_max, direction="backward"):
    """Iterated transport integrals A_(k), k = 1..k_max, as matrices.

    Backward terms are A_(k)(t, 0); forward terms A_(k)(0, t).  Each term is
    node first, term[n, g, b], and contracts the seed on b; the propagator
    holds the same matrices node-last.  Each trapezoid panel spans its own
    interval, so tau need not be uniform.
    """
    if k_max < 1:
        raise MgError("k_max must be >= 1")
    _check_whole_path(history)
    y0 = np.asarray(y0, dtype=float)
    n = history.n_points
    if history.n_steps == 0:
        return [np.zeros((n, 3, 3)) for _ in range(k_max)]
    dt = np.diff(history.tau)[:, None, None, None]
    g_samples = np.stack(
        [np.moveaxis(_gamma_zdot(metric, y0, history.z[m], history.zdot[m]), -1, 0)
         for m in range(history.tau.size)]
    )  # (M+1, n, 3, 3)
    terms = []
    if direction == "backward":
        cur = _cumtrapz_from_end(g_samples, dt)
        terms.append(cur[0])
        for _ in range(1, k_max):
            integrand = np.einsum("mngb,mnbc->mngc", g_samples, cur)
            cur = _cumtrapz_from_end(integrand, dt)
            terms.append(cur[0])
    elif direction == "forward":
        cur = -_cumtrapz_from_start(g_samples, dt)
        terms.append(cur[-1])
        for _ in range(1, k_max):
            integrand = np.einsum("mngb,mnbc->mngc", g_samples, cur)
            cur = -_cumtrapz_from_start(integrand, dt)
            terms.append(cur[-1])
    else:
        raise MgError(f"unknown direction {direction!r}")
    return terms


def path_norms(metric, y0, history):
    """Discrete sup norms (Gamma, zdot) along the path, for bound monitors."""
    _check_whole_path(history)
    y0 = np.asarray(y0, dtype=float)
    sup_g = 0.0
    sup_zd = 0.0
    for m in range(history.tau.size):
        pts = y0 + history.z[m]
        gamma = christoffel_symbols(metric, pts)   # (g, a, b, n)
        # operator norm compatible with |Gamma zdot v|_inf <= |Gamma| |zdot| |v|_inf
        sup_g = max(sup_g, float(np.max(np.sum(np.abs(gamma), axis=(1, 2)))))
        sup_zd = max(sup_zd, float(np.max(np.abs(history.zdot[m]))))
    return sup_g, sup_zd


def op_inf_norm(mat):
    """Max row sum of a node-first (..., g, b) matrix batch."""
    return float(np.max(np.sum(np.abs(mat), axis=-1)))


# --------------------------------------------------------------------------
# metrics, kpres, gdef, cdot
# --------------------------------------------------------------------------


def christoffel_symbols(metric: AmbientMetric, points):
    """Gamma^g_{ab} = 0.5 a^{gm} (d_a a_{mb} + d_b a_{ma} - d_m a_{ab}) of
    ``metric`` at (..., 3) points, from its ``metric`` and ``dmetric`` by the
    textbook formula, as node-last (g, a, b, ...)."""
    y = np.asarray(points, dtype=float)
    da = metric.dmetric(y)  # (..., m, b, s) = d_s a_{mb}
    low = 0.5 * (np.einsum("...mba->...abm", da) + np.einsum("...mab->...abm", da) - da)
    gamma = np.einsum("...gm,...abm->...gab", np.linalg.inv(metric.metric(y)), low)
    return np.moveaxis(gamma, (-3, -2, -1), (0, 1, 2))


def christoffel_from_contractions(metric: AmbientMetric, points):
    """The symbols Gamma^g_{ab} at (..., 3) points as node-last (g, a, b, ...),
    assembled from the plug-in's ``christoffel_contract`` with each basis
    vector e_a."""
    y = np.asarray(points, dtype=float)
    basis = np.eye(3).reshape((3, 3) + (1,) * (y.ndim - 1))
    return np.stack([metric.christoffel_contract(y, np.broadcast_to(e, (3,) + y.shape[:-1]))
                     for e in basis], axis=1)


def metric_compatibility_residual(metric: AmbientMetric, points):
    """Sup of | d a_{ab}/dy^s - (Gamma_{as,b} + Gamma_{bs,a}) | with the
    symbols of the plug-in's contractions lowered here, Gamma_{as,b} =
    a_{bg} Gamma^g_{as}."""
    y = np.asarray(points, dtype=float)
    da = metric.dmetric(y)  # (..., a, b, s)
    gamma = np.moveaxis(christoffel_from_contractions(metric, y), (0, 1, 2), (-3, -2, -1))
    low = np.einsum("...bg,...gas->...asb", metric.metric(y), gamma)
    recon = np.einsum("...asb->...abs", low) + np.einsum("...bsa->...abs", low)
    return float(np.max(np.abs(da - recon)))


def delta_g_direct(metric, surface, z, zder):
    """Reference: recompute the displaced first form and subtract; (N, 3) z
    and node-last (3, 2, N) partials z_,i in, node-last (2, 2, N) out."""
    tang_t = surface.tang + zder
    a_t = node_last(metric.metric(surface.y + z))
    return np.einsum("abn,ain,bjn->ijn", a_t, tang_t, tang_t) - surface.g


def w1_trace(surface, gvar, z, zder):
    """W1 = g^ij Delta(g_ij) - 2 g^ij a0(y_,i, D*z_,j): the trace of the
    first-form variation beyond its term linear in D*z, whose time rate
    ``assemble_rates`` forms as ``w1dot``; (N, 3) z and node-last (3, 2, N)
    partials z_,i in."""
    gamma0 = christoffel_symbols(surface.metric, surface.y)
    gz = np.einsum("agsn,sn->agn", gamma0, node_last(z))
    dstar_z = zder + np.einsum("agn,gjn->ajn", gz, surface.tang)
    lead = _form_product(surface.ambient_a, surface.tang, dstar_z)
    return np.einsum("ijn,ijn->n", surface.g_inv, gvar.dg_ij - 2.0 * lead)


def delta_b_cascade(metric, surface, deform, fwd, gvar):
    """Reference: the second-form variation term by term, M1 to M4 with
    every Christoffel-difference term on its own, the series split
    n_t - n_0 = A_(1) n_0 + A_(2) taken from ``transport_series_terms``.

    Returns a dict of m4, db_ij and dK, node-last.
    """
    grid = surface.grid
    tang, n0 = surface.tang, surface.n.T
    a0, b0 = surface.ambient_a, surface.b
    gamma0 = christoffel_symbols(metric, surface.y)
    zder = deform.dz
    tang_t = tang + zder
    pts = surface.y + deform.z
    a_t = node_last(metric.metric(pts))
    gamma_t = christoffel_symbols(metric, pts)
    dgamma = gamma_t - gamma0
    n_t = fwd.n_t
    a1_vec = n_t - n0
    # the series split n_t - n_0 = A_(1) n_0 + A_(2), A_(1) by trapezoids
    a1m = node_last(transport_series_terms(metric, surface.y, deform.history, 1,
                                           "forward")[0])
    a1n0 = np.einsum("bsn,sn->bn", a1m, n0)
    a2_vec = a1_vec - a1n0

    norm = fwd.norm
    inv_norm = 1.0 / norm
    n_til = n_t * inv_norm
    dinv = grid.grad_last(inv_norm)
    ntil_der = grid.grad_last(n_til)
    dstar_ntil = ntil_der + np.einsum("gabn,ajn,bn->gjn", gamma_t, tang_t, n_til)

    da = deform.da
    da_y = np.einsum("kin,skn->sin", da, tang)
    m1 = -_form_product(a_t, zder - da_y, dstar_ntil)

    b_up = np.einsum("jkn,kln->jln", b0, surface.g_inv)
    dstar_n0 = -np.einsum("jln,sln->sjn", b_up, tang)
    m2 = (
        -_form_product(a_t, da_y, dstar_ntil)
        + _form_product(a0, da_y, dstar_n0)
        + m1
    )

    def gamma_term(gamma, u, v):
        return np.einsum("bmtn,mjn,tn->bjn", gamma, u, v)

    # the transport tails d(A_(1)) n_0 + A_(1) d n_0 + d A_(2) sum to the
    # one gradient d(n_t - n_0)
    tails = (
        grid.grad_last(n_t) - surface.n_deriv
        + gamma_term(gamma0, tang, a1n0)
        + gamma_term(gamma0, tang, a2_vec)
        + gamma_term(dgamma, tang, n0)
        + gamma_term(dgamma, tang, a1_vec)
        + gamma_term(gamma0, zder, a1_vec)
        + gamma_term(dgamma, zder, n_t)
    )
    core = gamma_term(gamma0, zder, n0)
    dstar_nt = dstar_n0 + core + tails

    m3 = (
        np.swapaxes(b0, 0, 1) * ((1.0 - norm) * inv_norm)
        - _form_product(a0, tang, core) * inv_norm
        - _form_product(a0, tang, tails) * inv_norm
        - _form_product(a_t - a0, tang, dstar_nt) * inv_norm
    )
    at_y_nt = np.einsum("abn,ain,bn->in", a_t, tang, n_t)
    m4 = m2 + m3 - at_y_nt[:, None, :] * dinv[None, :, :]

    db_ij = np.einsum("kin,jkn->ijn", da, b0) + m4
    w2b = db_ij[0, 0] * db_ij[1, 1] - db_ij[0, 1] * db_ij[1, 0]
    b_t = surface.b_det + surface.V * (db_ij[0, 0] + db_ij[1, 1]) + w2b
    g_t = surface.g_det + gvar.dg
    dK = b_t / g_t - surface.b_det / surface.g_det
    return {"m4": m4, "db_ij": db_ij, "dK": dK}


def surface_christoffels(grid, g, g_inv):
    """Gamma^k_{ij} of the first form, node-last (k, i, j, N), from node-last
    g and g_inv."""
    dg = grid.grad_last(g)                      # (i, j, k, N) = d_k g_ij
    # Gamma_{ij,l} = 0.5 (d_i g_{jl} + d_j g_{il} - d_l g_{ij})
    low = 0.5 * (np.transpose(dg, (2, 0, 1, 3)) + np.transpose(dg, (0, 2, 1, 3)) - dg)
    return np.einsum("kln,ijln->kijn", g_inv, low)


def s_cascade(metric, surface, deform, history=None):
    """Reference: the coefficient families term by term, S_(3) from the A_(1)
    split, S_(4) with the surface-Christoffel drag term that S_(5) adds
    back, T_0 = S_(1) n and T_j = S_(1) y_,j, and N_j, Q_i from a0(T, n)
    and a0(S_(5), n).

    Returns a dict of s1, s2, s3, s4, s5, t0, tj, n_j and q_i, node-last.
    """
    hist = history if history is not None else deform.history
    prop = transport_propagator(metric, surface.y, hist)
    tang, n, a0 = surface.tang, surface.n.T, surface.ambient_a
    s1 = prop.backward - np.eye(3)[:, :, None]
    a1_term = node_last(transport_series_terms(metric, surface.y, hist, 1, "backward")[0])
    s2 = s1 - a1_term

    gz = np.einsum("absn,bn->asn", christoffel_symbols(metric, surface.y),
                   node_last(deform.z))
    m1_core = a1_term - gz
    s3 = np.einsum("asn,sin->ain", m1_core + s2, tang)

    bracket = deform.dz - np.einsum("jin,sjn->sin", deform.da, tang)
    a_vec = np.stack([deform.a1, deform.a2])
    gamma_surface = surface_christoffels(surface.grid, surface.g, surface.g_inv)
    surf_term = np.einsum("jpin,pn,sjn->sin", gamma_surface, a_vec, tang)
    c_n = n[:, None, :] * deform.dc[None, :, :]
    s4 = s3 + np.einsum("asn,sin->ain", s1, bracket - c_n - surf_term)
    s5 = s4 + np.einsum("asn,sin->ain", s1, surf_term)

    t0 = np.einsum("asn,sn->an", s1, n)
    tj = np.einsum("asn,sin->ain", s1, tang)
    n_j = np.concatenate([np.einsum("abn,an,bn->n", a0, t0, n)[None],
                          np.einsum("abn,ain,bn->in", a0, tj, n)])
    q_i = np.einsum("abn,ain,bn->in", a0, s5, n)
    return {"s1": s1, "s2": s2, "s3": s3, "s4": s4, "s5": s5,
            "t0": t0, "tj": tj, "n_j": n_j, "q_i": q_i}


def gdef_residual(surface: SurfaceState, coeffs: GDefCoefficients,
                  deform: DeformationState):
    """r_i = a^l b_li + (1 + N_0) c_,i + (d_i a^j) N_j + Q_i as (i, N)."""
    da = deform.da
    a_vec = np.stack([deform.a1, deform.a2])
    ab = np.einsum("ln,lin->in", a_vec, surface.b)
    nk = coeffs.n_j[1:]
    return (
        ab
        + (1.0 + coeffs.n_j[0]) * deform.dc
        + da[0] * nk[0] + da[1] * nk[1]
        + coeffs.q_i
    )


def norm_chain_report(ref):
    """Discrete-norm chain of the coefficient cascade (diagnostic), from the
    dict ``s_cascade`` returns."""
    s1 = op_inf_norm(np.moveaxis(ref["s1"], -1, 0))
    s2 = op_inf_norm(np.moveaxis(ref["s2"], -1, 0))
    report = {
        "s1": s1,
        "s2": s2,
        "s2_surrogate_bound": s1 * s1 / (1.0 - s1) if s1 < 1 else np.inf,
        "n_sup": float(np.max(np.abs(ref["n_j"]))),
        "q_sup": float(np.max(np.abs(ref["q_i"]))),
        "s5_sup": float(np.max(np.abs(ref["s5"]))),
        "t_sup": float(np.max(np.abs(ref["tj"]))),
    }
    report["ratio_n_over_s1"] = report["n_sup"] / s1 if s1 > 0 else 0.0
    report["ratio_q_over_s5"] = (
        report["q_sup"] / report["s5_sup"] if report["s5_sup"] > 0 else 0.0
    )
    return report


def lipschitz_ratio(sol_a: CdotSolution, sol_b: CdotSolution,
                    rates_a, rates_b):
    """Diagnostic ||P_a - P_b|| / (||da1|| + ||da2||); 0/0 reports 0."""
    num = float(np.max(np.abs(sol_a.p_field - sol_b.p_field)))
    den = float(np.max(np.abs(rates_a[0] - rates_b[0]))) + float(
        np.max(np.abs(rates_a[1] - rates_b[1]))
    )
    if den == 0.0:
        return 0.0
    return num / den


def loop_closedness(surface: SurfaceState, coeffs, a1, a2, a1dot, a2dot):
    """Curl of the converged integrand over the grid (path-independence
    diagnostic: the one-form must be closed up to discretization error)."""
    grid = surface.grid
    b1, b2 = kernel_fields(
        surface, coeffs, np.stack([a1, a2]), np.stack([a1dot, a2dot]),
        tangential_grad(grid, a1, a2), tangential_grad(grid, a1dot, a2dot),
    )
    v = surface.V
    p = b1 - v * a1dot
    q = b2 - v * a2dot
    return float(np.max(np.abs(grid.grad_last(q)[0] - grid.grad_last(p)[1])))


# --------------------------------------------------------------------------
# grid
# --------------------------------------------------------------------------


def grid_coordinates(n_r, n_theta):
    """``DiskGrid``'s node coordinates built node by node: the ring radii
    repeated over the angles, the angles tiled over the rings and the trig
    taken at every node.  Returns r, theta, x1, x2, z and boundary_idx."""
    thetas = np.arange(n_theta) * (2.0 * np.pi / n_theta)
    r = np.concatenate([[0.0], np.repeat(np.arange(1, n_r + 1) * (1.0 / n_r), n_theta)])
    theta = np.concatenate([[0.0], np.tile(thetas, n_r)])
    x1 = r * np.cos(theta)
    x2 = r * np.sin(theta)
    boundary_idx = 1 + (n_r - 1) * n_theta + np.arange(n_theta)
    return r, theta, x1, x2, x1 + 1j * x2, boundary_idx


def _ray_values(grid: DiskGrid, f):
    """Values of an (N, ...) field along each ray, (n_r + 1, n_theta, M), and
    the field's trailing shape; level 0 is the center on every ray."""
    f = np.asarray(f)
    flat = f.reshape(grid.n_nodes, -1)
    rays = np.empty((grid.n_r + 1, grid.n_theta, flat.shape[1]), dtype=flat.dtype)
    rays[0] = flat[0]
    rays[1:] = flat[1:].reshape(grid.n_r, grid.n_theta, -1)
    return rays, f.shape[1:]


def _cumulate_rays(grid: DiskGrid, rays, tail):
    """Cumulative panel integrals of ray samples as a node field: each
    panel's four levels are gathered out and contracted with its weights."""
    incr = np.einsum("is,isjm->ijm", grid._cum_w, rays[grid._cum_idx])
    cum = np.cumsum(incr, axis=0)
    center = np.zeros((1, rays.shape[2]), dtype=cum.dtype)
    flat = np.concatenate([center, cum.reshape(grid.n_r * grid.n_theta, -1)])
    return flat.reshape((grid.n_nodes,) + tail)


def cumint_radial(grid: DiskGrid, f):
    """Cumulative integral of f along each ray from the center outward."""
    return _cumulate_rays(grid, *_ray_values(grid, f))


def line_integral_gather(grid: DiskGrid, p, q):
    """``DiskGrid.line_integral_center`` in gather form: the integrand
    p cos + q sin on the rays, then ``cumint_radial``'s panel contraction."""
    p_rays, tail = _ray_values(grid, p)
    q_rays, _ = _ray_values(grid, q)
    integrand = (p_rays * grid._rim_cos[None, :, None]
                 + q_rays * grid._rim_sin[None, :, None])
    return _cumulate_rays(grid, integrand, tail)


def area_weights(grid: DiskGrid):
    """Area quadrature weights over the closed disk, one per node: a disk of
    radius h/2 at the center, a band of width h around each inner ring and
    the rim half-band split between the last two rings."""
    h, nt, n_r = grid.h, grid.n_theta, grid.n_r
    ring = grid.r_levels[1:] * h * grid.dtheta       # band of width h per ring
    # split the rim half-band between the last two rings so that the radial
    # first moment matches (the rim node sits off its band centroid)
    rim_band = h / 2.0 - h * h / 8.0
    m1 = -h * h / 8.0 + h**3 / 24.0                  # first moment about r = 1
    w_in = -m1 / h
    ring[n_r - 1] = (rim_band - w_in) * grid.dtheta
    ring[n_r - 2] += w_in * grid.dtheta
    w = np.empty(grid.n_nodes)
    w[0] = np.pi * (h / 2.0) ** 2
    w[1:] = np.repeat(ring, nt)
    return w


def restrict(fine: DiskGrid, coarse: DiskGrid, f):
    """An (N_fine, ...) field at the nodes of ``coarse``, whose n_r rings and
    n_theta angles the ``fine`` grid doubles: coarse node (i, j) is fine
    node (2i, 2j), and the centers coincide."""
    if (fine.n_r, fine.n_theta) != (2 * coarse.n_r, 2 * coarse.n_theta):
        raise MgError(f"{fine.n_r}x{fine.n_theta} does not double "
                      f"{coarse.n_r}x{coarse.n_theta}")
    rings = np.repeat(np.arange(1, coarse.n_r + 1), coarse.n_theta)
    slots = np.tile(np.arange(coarse.n_theta), coarse.n_r)
    return np.asarray(f)[np.concatenate([[0], fine.node_index(2 * rings, 2 * slots)])]


def nested_split(coarse: SurfaceState, fine: SurfaceState, z_coarse, z_fine):
    """The coarse solution's and the coarse rebuild oracle's grid errors,
    read against the fine grid's solution restricted to the coarse nodes, R
    z_fine.  With K_c and K_f the oracles of the two grids, y the coarse
    points and max|K| the coarse surface's:

    - ``z``: max|z_coarse - R z_fine|;
    - ``oracle``, the oracle's own error: max|[K_c(y + R z_fine) - K_c(y)]
      - R [K_f(y_f + z_fine) - K_f(y_f)]| / max|K|;
    - ``solution``, the solution's error as the oracle sees it:
      max|K_c(y + z_coarse) - K_c(y + R z_fine)| / max|K|.
    """
    metric, cg, fg = coarse.metric, coarse.grid, fine.grid
    z_ref = restrict(fg, cg, z_fine)
    k_base = gauss_curvature_of(cg, metric, coarse.y)
    k_ref = gauss_curvature_of(cg, metric, coarse.y + z_ref)
    dk_fine = (gauss_curvature_of(fg, metric, fine.y + z_fine)
               - gauss_curvature_of(fg, metric, fine.y))
    k_scale = float(np.max(np.abs(coarse.K)))
    return {
        "z": float(np.max(np.abs(z_coarse - z_ref))),
        "oracle": float(np.max(np.abs(k_ref - k_base - restrict(fg, cg, dk_fine)))) / k_scale,
        "solution": float(np.max(np.abs(gauss_curvature_of(cg, metric, coarse.y + z_coarse)
                                        - k_ref))) / k_scale,
    }
