"""Parallel transport along deformation paths.

Each surface node owns the path u(tau) = y + z(tau), tau in [0, t], stored as
uniform samples of z and zdot.  Transport of a tensor seed solves
dA/dtau + Gamma(u(tau)) zdot(tau) A = 0 either backward (seed given at
tau = t, value wanted at tau = 0) or forward.  The same propagator has a
nested-integral series representation whose terms are produced by repeated
cumulative quadrature with the chain contraction of successive indices.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._contract import contract
from .errors import EmptyHistoryError, MgError
from .metrics import AmbientMetric, christoffel_at


class TransportHistory:
    """Uniform samples (tau_m, z_m, zdot_m) of the deformation paths.

    ``z`` and ``zdot`` have shape (M+1, n_pts, 3).  The initial sample must
    be the undeformed state z = 0.
    """

    def __init__(self, tau, z, zdot):
        self.tau = np.asarray(tau, dtype=float)
        self.z = np.asarray(z, dtype=float)
        self.zdot = np.asarray(zdot, dtype=float)
        if self.tau.ndim != 1 or self.tau.size == 0:
            raise EmptyHistoryError("history needs at least the tau = 0 sample")
        if self.z.shape[0] != self.tau.size or self.zdot.shape != self.z.shape:
            raise MgError("history sample arrays disagree in shape")
        if np.max(np.abs(self.z[0])) > 1e-13:
            raise MgError("history must start from z(0) = 0")
        if self.tau.size > 1:
            steps = np.diff(self.tau)
            if np.any(steps <= 0):
                raise MgError("tau samples must increase strictly")
            if np.max(np.abs(steps - steps[0])) > 1e-12 * max(1.0, steps[0]):
                raise MgError("tau samples must be uniformly spaced")

    @property
    def n_steps(self):
        return self.tau.size - 1

    @property
    def t_final(self):
        return float(self.tau[-1])

    @property
    def n_points(self):
        return self.z.shape[1]

    def replace_final_rate(self, zdot_final):
        """History with the rate of the last sample swapped out."""
        zd = self.zdot.copy()
        zd[-1] = zdot_final
        return TransportHistory(self.tau, self.z, zd)

    def hermite(self, m, s):
        """Cubic Hermite state and rate inside interval m at fraction s."""
        dt = self.tau[m + 1] - self.tau[m]
        z0, z1 = self.z[m], self.z[m + 1]
        d0, d1 = self.zdot[m], self.zdot[m + 1]
        h00 = 2 * s**3 - 3 * s**2 + 1
        h10 = s**3 - 2 * s**2 + s
        h01 = -2 * s**3 + 3 * s**2
        h11 = s**3 - s**2
        z = h00 * z0 + h10 * dt * d0 + h01 * z1 + h11 * dt * d1
        g00 = 6 * s**2 - 6 * s
        g10 = 3 * s**2 - 4 * s + 1
        g01 = -6 * s**2 + 6 * s
        g11 = 3 * s**2 - 2 * s
        zd = (g00 * z0 + g01 * z1) / dt + g10 * d0 + g11 * d1
        return z, zd


def static_history(t, n_steps, n_points):
    """All-zero history up to time t (undeformed state)."""
    tau = np.linspace(0.0, t, n_steps + 1)
    zeros = np.zeros((n_steps + 1, n_points, 3))
    return TransportHistory(tau, zeros, zeros.copy())


def history_from_path(path_fn, rate_fn, t, n_steps, n_points=1):
    """Sampled history of an analytic path z(tau)."""
    tau = np.linspace(0.0, t, n_steps + 1)
    z = np.stack([np.broadcast_to(path_fn(tm), (n_points, 3)).copy() for tm in tau])
    zd = np.stack([np.broadcast_to(rate_fn(tm), (n_points, 3)).copy() for tm in tau])
    return TransportHistory(tau, z, zd)


def _gamma_zdot(metric, y0, z, zdot):
    """Matrix G[n, g, b] = Gamma^g_{ab}(y0 + z) zdot^a."""
    if metric.is_flat():
        return np.zeros(z.shape[:-1] + (3, 3))
    pts = np.asarray(y0, dtype=float) + z
    ch = christoffel_at(metric, pts)
    return contract("ngab,na->ngb", ch.gamma_upper, zdot)


def transport_tensor_ode(metric: AmbientMetric, y0, history: TransportHistory, seed,
                         direction="backward", substeps=1):
    """Integrate the transport system with classical RK4.

    ``seed`` is (n_pts, 3) or (n_pts, 3, k); backward means the seed sits at
    tau = t and the value at tau = 0 is returned, forward the reverse.
    """
    if history.tau.size == 0:
        raise EmptyHistoryError("empty history")
    y0 = np.asarray(y0, dtype=float)
    a = np.array(seed, dtype=float)
    vec_mode = a.ndim == 2
    if vec_mode:
        a = a[..., None]
    if history.n_steps == 0 or metric.is_flat():
        return a[..., 0] if vec_mode else a

    if direction == "backward":
        intervals = range(history.n_steps - 1, -1, -1)
        s_of = lambda q: 1.0 - q
        sign = 1.0
    elif direction == "forward":
        intervals = range(history.n_steps)
        s_of = lambda q: q
        sign = -1.0
    else:
        raise MgError(f"unknown direction {direction!r}")

    for m in intervals:
        dt_full = (history.tau[m + 1] - history.tau[m]) / substeps
        for q in range(substeps):
            # fractions within interval m at the RK4 stage points
            s0 = s_of(q / substeps)
            s_half = s_of((q + 0.5) / substeps)
            s1 = s_of((q + 1.0) / substeps)
            h = dt_full

            def rhs(s, val):
                z, zd = history.hermite(m, s)
                g = _gamma_zdot(metric, y0, z, zd)
                return sign * contract("ngb,nbk->ngk", g, val)

            k1 = rhs(s0, a)
            k2 = rhs(s_half, a + 0.5 * h * k1)
            k3 = rhs(s_half, a + 0.5 * h * k2)
            k4 = rhs(s1, a + h * k3)
            a = a + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
    return a[..., 0] if vec_mode else a


def transport_matrix(metric, y0, history, direction="backward", substeps=1):
    """Propagator matrix M with M @ seed = transported seed."""
    n = history.n_points
    eye = np.broadcast_to(np.eye(3), (n, 3, 3)).copy()
    return transport_tensor_ode(metric, y0, history, eye, direction, substeps)


def _cumtrapz_from_end(vals, dt):
    """C[m] = integral from tau_m to tau_M (trapezoid), vals shape (M+1, ...)."""
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

    Backward terms are A_(k)(t, 0); forward terms A_(k)(0, t).  Index layout
    matches the propagator: term[n, g, b] contracts the seed on b.
    """
    if k_max < 1:
        raise MgError("k_max must be >= 1")
    y0 = np.asarray(y0, dtype=float)
    n = history.n_points
    if history.n_steps == 0:
        return [np.zeros((n, 3, 3)) for _ in range(k_max)]
    dt = history.tau[1] - history.tau[0]
    g_samples = np.stack(
        [_gamma_zdot(metric, y0, history.z[m], history.zdot[m])
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


@dataclass
class NormalTransport:
    """Forward transport of the unit normal with its series tails."""

    n_t: np.ndarray          # transported normal at tau = t
    a1_vec: np.ndarray       # full tail n_t - n_0
    a2_vec: np.ndarray       # tail beyond the first-order term
    a1_mat: np.ndarray       # first-order matrix A_(1)(0, t)
    norm: np.ndarray         # |n(t)| in the metric at the displaced point
    forward_matrix: np.ndarray


def transport_normal(metric: AmbientMetric, y0, history: TransportHistory, n0,
                     substeps=1) -> NormalTransport:
    y0 = np.asarray(y0, dtype=float)
    n0 = np.asarray(n0, dtype=float)
    mfwd = transport_matrix(metric, y0, history, "forward", substeps)
    n_t = np.einsum("ngb,nb->ng", mfwd, n0)
    a1_mat = transport_series_terms(metric, y0, history, 1, "forward")[0]
    a1_vec = n_t - n0
    a2_vec = a1_vec - np.einsum("ngb,nb->ng", a1_mat, n0)
    pts = y0 + history.z[-1]
    a_t = metric.metric(pts)
    norm = np.sqrt(np.einsum("nab,na,nb->n", a_t, n_t, n_t))
    return NormalTransport(n_t=n_t, a1_vec=a1_vec, a2_vec=a2_vec,
                           a1_mat=a1_mat, norm=norm, forward_matrix=mfwd)


def path_norms(metric, y0, history):
    """Discrete sup norms (Gamma, zdot) along the path, for bound monitors."""
    y0 = np.asarray(y0, dtype=float)
    sup_g = 0.0
    sup_zd = 0.0
    for m in range(history.tau.size):
        pts = y0 + history.z[m]
        ch = christoffel_at(metric, pts)
        # operator norm compatible with |Gamma zdot v|_inf <= |Gamma| |zdot| |v|_inf
        sup_g = max(sup_g, float(np.max(np.sum(np.abs(ch.gamma_upper), axis=(-2, -1)))))
        sup_zd = max(sup_zd, float(np.max(np.abs(history.zdot[m]))))
    return sup_g, sup_zd


def op_inf_norm(mat):
    """Max row sum, batched over leading axes."""
    return float(np.max(np.sum(np.abs(mat), axis=-1)))
