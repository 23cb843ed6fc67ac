"""Parallel transport along deformation paths.

Each surface node owns the path u(tau) = y + z(tau), tau in [0, t], stored as
uniform samples of z and zdot.  Transport of a tensor seed solves
dA/dtau + Gamma(u(tau)) zdot(tau) A = 0 either backward (seed given at
tau = t, value wanted at tau = 0) or forward.  The same propagator has a
nested-integral series representation whose terms are produced by repeated
cumulative quadrature with the chain contraction of successive indices.

The flow's consumers read the propagator through ``transport_propagator``,
which keeps the integrated prefix of a history (intervals 0..M-2) in a cache
the history shares with its ``replace_final_rate`` children and hands to
``advance``; each call integrates only the final interval.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._contract import node_first, node_last
from .errors import EmptyHistoryError, MgError
from .metrics import AmbientMetric, christoffel_at


class TransportHistory:
    """Uniform samples (tau_m, z_m, zdot_m) of the deformation paths.

    ``z`` and ``zdot`` have shape (M+1, n_pts, 3).  The initial sample must
    be the undeformed state z = 0.  The history caches its integrated
    propagator, so samples are not changed in place: ``replace_final_rate``
    and ``advance`` make the new histories.
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
        # propagator over intervals 0..M-2, shared with the histories that
        # agree on them (see transport_propagator); the whole-history result
        # is kept per instance
        self._prefix = _PrefixSlot()
        self._full = None

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
        """History with the rate of the last sample swapped out.

        Only the final interval changes, so the child shares this history's
        propagator prefix cache.
        """
        zd = self.zdot.copy()
        zd[-1] = zdot_final
        child = TransportHistory(self.tau, self.z, zd)
        child._prefix = self._prefix
        return child

    def advance(self, dt, z_new, zdot):
        """History one step longer: the last sample's rate becomes ``zdot``
        (the rate that left it) and (tau_M + dt, z_new, zdot) is appended.

        Intervals 0..M-2 are unchanged, so the extended history starts from
        this history's cached prefix and integrates interval M-1 once.  The
        new time counts whole steps from tau_0, so it does not drift by
        repeated addition.
        """
        zdot = np.asarray(zdot, dtype=float)
        child = TransportHistory(
            np.append(self.tau, self.tau[0] + (self.n_steps + 1) * dt),
            np.concatenate([self.z, np.asarray(z_new, dtype=float)[None]], axis=0),
            np.concatenate([self.zdot[:-1], zdot[None], zdot[None]], axis=0),
        )
        child._prefix.entry = self._prefix.entry
        return child

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


def history_from_path(path_fn, rate_fn, t, n_steps):
    """Sampled one-point history of an analytic path z(tau)."""
    tau = np.linspace(0.0, t, n_steps + 1)
    z = np.stack([np.broadcast_to(path_fn(tm), (1, 3)).copy() for tm in tau])
    zd = np.stack([np.broadcast_to(rate_fn(tm), (1, 3)).copy() for tm in tau])
    return TransportHistory(tau, z, zd)


def _gamma_zdot(metric, y0, z, zdot):
    """Matrix G[g, b, n] = Gamma^g_{ab}(y0 + z) zdot^a, node-last."""
    if metric.is_flat():
        return np.zeros((3, 3) + z.shape[:-1])
    pts = np.asarray(y0, dtype=float) + z
    gamma = node_last(christoffel_at(metric, pts).gamma_upper)
    return np.einsum("gabn,an->gbn", gamma, node_last(zdot))


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


def _rk4_step(g0, g_half, g1, a, h, sign):
    """One classical RK4 step of dA = sign G A with G at start, middle, end."""
    k1 = sign * np.einsum("gbn,bkn->gkn", g0, a)
    k2 = sign * np.einsum("gbn,bkn->gkn", g_half, a + 0.5 * h * k1)
    k3 = sign * np.einsum("gbn,bkn->gkn", g_half, a + 0.5 * h * k2)
    k4 = sign * np.einsum("gbn,bkn->gkn", g1, a + h * k3)
    return a + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)


def _interval_step(gs, a, h, direction):
    """Carry ``a`` (3, k, n) across one interval, all node-last; ``gs``
    holds G at the stage fractions, ``h`` is the substep length."""
    last = len(gs) - 1
    for q in range(last // 2):
        if direction == "forward":
            a = _rk4_step(gs[2 * q], gs[2 * q + 1], gs[2 * q + 2], a, h, -1.0)
        else:
            j = last - 2 * q
            a = _rk4_step(gs[j], gs[j - 1], gs[j - 2], a, h, 1.0)
    return a


def _check_direction(direction):
    if direction not in ("backward", "forward"):
        raise MgError(f"unknown direction {direction!r}")


def transport_tensor_ode(metric: AmbientMetric, y0, history: TransportHistory, seed,
                         direction="backward", substeps=1):
    """Integrate the transport system with classical RK4 over every interval.

    ``seed`` is (n_pts, 3) or (n_pts, 3, k); backward means the seed sits at
    tau = t and the value at tau = 0 is returned, forward the reverse.  The
    all-interval reference for ``transport_propagator``: each distinct stage
    point is evaluated once, 2 M substeps + 1 Christoffel evaluations in all.
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
    a = node_first(a)
    return a[..., 0] if vec_mode else a


@dataclass(frozen=True, eq=False)
class Propagator:
    """Transport over the first ``k`` intervals of a history.

    ``backward`` = R_0 ... R_{k-1} carries a seed from tau_k to 0 and
    ``forward`` = R'_{k-1} ... R'_0 carries it back, where R_m, R'_m are the
    per-node RK4 maps of interval m.  ``integral`` is the trapezoid integral
    of G = Gamma(u) zdot over [tau_0, tau_k]: the first series term
    A_(1)(tau_k, 0), whose forward counterpart is its negative.  ``g_end`` is
    G at sample k, the start of the next interval (None where nothing is
    integrated).  The key fields say which metric and base points the maps
    belong to.  Each interval is one RK4 step.
    """

    metric: AmbientMetric
    y0: np.ndarray
    k: int
    backward: np.ndarray
    forward: np.ndarray
    integral: np.ndarray
    g_end: np.ndarray | None

    def matches(self, metric, y0):
        return self.metric is metric and self.y0 is y0

    def extended(self, history: TransportHistory) -> Propagator:
        """The propagator over one more interval of ``history``."""
        m = self.k
        gs = _interval_gammas(self.metric, self.y0, history, m, _stage_fractions(1),
                              g_start=node_last(self.g_end))
        dt = history.tau[m + 1] - history.tau[m]
        eye = node_last(np.broadcast_to(np.eye(3), self.backward.shape))
        r_back = _interval_step(gs, eye, dt, "backward")
        r_fwd = _interval_step(gs, eye, dt, "forward")
        backward = np.einsum("gbn,bkn->gkn", node_last(self.backward), r_back)
        forward = np.einsum("gbn,bkn->gkn", r_fwd, node_last(self.forward))
        integral = node_last(self.integral) + 0.5 * dt * (gs[0] + gs[-1])
        return _frozen_propagator(
            self.metric, self.y0, m + 1,
            backward=node_first(backward), forward=node_first(forward),
            integral=node_first(integral), g_end=node_first(gs[-1]),
        )


def _frozen_propagator(metric, y0, k, **fields):
    # cached maps are handed to every consumer; none may write to them
    for arr in fields.values():
        arr.flags.writeable = False
    return Propagator(metric, y0, k, **fields)


class _PrefixSlot:
    """One-entry cache of the propagator over intervals 0..M-2."""

    __slots__ = ("entry",)

    def __init__(self):
        self.entry = None


def transport_propagator(metric: AmbientMetric, y0,
                         history: TransportHistory) -> Propagator:
    """Propagator and first series term over the whole history.

    Intervals 0..M-2 come from the history's prefix cache, extended as the
    history grows; only the final interval, the one a new final rate changes,
    is integrated when the cache holds the prefix.  The cache is keyed by the
    identity of ``metric`` and ``y0``: another key starts it afresh, so
    neither object may be changed in place while in use.
    """
    y0 = np.asarray(y0, dtype=float)   # the same object when y0 is a float array
    n = history.n_points
    eye = np.broadcast_to(np.eye(3), (n, 3, 3))
    if metric.is_flat() or history.n_steps == 0:
        # nothing to integrate; with no interval, sample 0 is the final
        # sample, whose rate the children change, so nothing is cached
        zeros = np.broadcast_to(0.0, (n, 3, 3))
        return Propagator(metric, y0, history.n_steps, eye, eye, zeros, None)
    full = history._full
    if full is not None and full.matches(metric, y0):
        return full
    entry = history._prefix.entry
    if entry is None or not entry.matches(metric, y0):
        g0 = _gamma_zdot(metric, y0, history.z[0], history.zdot[0])
        entry = _frozen_propagator(metric, y0, 0, backward=eye, forward=eye,
                                   integral=node_first(np.zeros((3, 3, n))),
                                   g_end=node_first(g0))
    while entry.k < history.n_steps - 1:
        entry = entry.extended(history)
    history._prefix.entry = entry
    history._full = entry.extended(history)
    return history._full


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
        [node_first(_gamma_zdot(metric, y0, history.z[m], history.zdot[m]))
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


def transport_normal(metric: AmbientMetric, y0, history: TransportHistory,
                     n0) -> NormalTransport:
    y0 = np.asarray(y0, dtype=float)
    n0 = np.asarray(n0, dtype=float)
    prop = transport_propagator(metric, y0, history)
    n0_l = node_last(n0)
    n_t = np.einsum("gbn,bn->gn", node_last(prop.forward), n0_l)
    a1_mat = -node_last(prop.integral)
    a1_vec = n_t - n0_l
    a2_vec = a1_vec - np.einsum("gbn,bn->gn", a1_mat, n0_l)
    a_t = node_last(metric.metric(y0 + history.z[-1]))
    norm = np.sqrt(np.einsum("abn,an,bn->n", a_t, n_t, n_t))
    return NormalTransport(n_t=node_first(n_t), a1_vec=node_first(a1_vec),
                           a2_vec=node_first(a2_vec), a1_mat=node_first(a1_mat),
                           norm=norm)


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
