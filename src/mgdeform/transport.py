"""Parallel transport along deformation paths.

Each surface node owns the path u(tau) = y + z(tau), tau in [0, t], stored as
samples of z and zdot at strictly increasing tau.  Transport of a tensor seed
solves dA/dtau + Gamma(u(tau)) zdot(tau) A = 0.  The flow keeps one map per
history, the backward map B that carries a seed from tau = t to tau = 0, one
RK4 step per interval.  Transport is invertible, so forward transport is
B^-1: the carried normal is n_t = B^-1 n_0, from B's adjugate per node.
Gamma enters only contracted with the path's rate, so the stage points ask
the metric for ``christoffel_contract`` and never form the symbols.

The flow's consumers read the propagator through ``transport_propagator``,
which keeps the integrated prefix of a history (intervals 0..M-2) in a cache
the history shares with its ``replace_final_rate`` children; each call
integrates only the final interval.  The cache belongs to the metric and
base-point objects it was first filled with.  ``advance`` fills the longer
history's cache with the whole propagator of the history it extends and
keeps only the new final interval's samples, so a flow's history holds O(1)
state at any length.

In a flat metric, and over a history with no interval (t = 0 in any
metric), the propagator is exactly the identity and does not depend on the
final rate.  ``transport_propagator`` then integrates nothing and returns a
propagator marked ``identity``, which ``NormalTransport`` carries on: the
consumers skip the transport tails and coefficient fields that vanish there,
and a state's carried normal can serve every trial rate.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from ._contract import node_last
from .errors import EmptyHistoryError, MgError
from .metrics import AmbientMetric


class TransportHistory:
    """Samples (tau_m, z_m, zdot_m) of the deformation paths from tau_0 = 0,
    tau strictly increasing.

    Built from arrays, a history holds all M+1 samples: ``tau`` and the
    tuples ``z`` and ``zdot`` of (n_pts, 3) rows, from which it integrates
    its propagator on first use.  A history made by ``advance`` holds only
    its final interval's two samples (``tau``, ``z`` and ``zdot`` are those
    two) and the propagator over its earlier intervals, so its state does
    not grow with its length.  Either way the propagator serves only the
    metric and base points it was first integrated with.  The initial
    sample must be the undeformed state z = 0.  The history caches its
    integrated propagator, so samples are not changed in place:
    ``replace_final_rate`` and ``advance`` make the new histories, which
    share rows with this one and check only their new rows.
    """

    def __init__(self, tau, z, zdot):
        self.tau = np.asarray(tau, dtype=float)
        self.z = tuple(np.asarray(row, dtype=float) for row in z)
        self.zdot = tuple(np.asarray(row, dtype=float) for row in zdot)
        if self.tau.ndim != 1 or self.tau.size == 0:
            raise EmptyHistoryError("history needs at least the tau = 0 sample")
        shapes = {row.shape for row in self.z + self.zdot}
        if len(self.z) != self.tau.size or len(self.zdot) != self.tau.size or len(shapes) != 1:
            raise MgError("history sample arrays disagree in shape")
        if self.tau[0] != 0.0 or np.max(np.abs(self.z[0])) > 1e-13:
            raise MgError("history must start from z(0) = 0 at tau = 0")
        if np.any(np.diff(self.tau) <= 0):
            raise MgError("tau samples must increase strictly")
        # index of the first sample held; the propagator over intervals
        # 0..M-2, shared with the histories that agree on them (see
        # transport_propagator); the whole-history result is kept per instance
        self._first = 0
        self._prefix = _PrefixSlot()
        self._full = None

    def _new_row(self, row):
        """``row`` as a float array, checked against this history's sample
        shape."""
        row = np.asarray(row, dtype=float)
        if row.shape != self.z[0].shape:
            raise MgError("history sample arrays disagree in shape")
        return row

    def _child(self, tau, z, zdot, first, prefix):
        """A history of checked rows, this one's shared and new ones from
        ``_new_row``, starting at sample ``first``: O(1) Python work at any
        length."""
        child = object.__new__(TransportHistory)
        child.tau, child.z, child.zdot = tau, z, zdot
        child._first = first
        child._prefix = prefix
        child._full = None
        return child

    def _local(self, m):
        """Position in ``tau``, ``z`` and ``zdot`` of interval m's start."""
        if m < self._first:
            raise MgError(f"interval {m} lies in this history's bound propagator; "
                          f"it holds the intervals from {self._first} on")
        return m - self._first

    @property
    def n_steps(self):
        return self._first + self.tau.size - 1

    @property
    def t_final(self):
        return float(self.tau[-1])

    @property
    def n_points(self):
        return self.z[0].shape[0]

    def replace_final_rate(self, zdot_final):
        """History with the rate of the last sample swapped out.

        Only the final interval changes, so the child shares this history's
        propagator prefix.
        """
        return self._child(self.tau, self.z, self.zdot[:-1] + (self._new_row(zdot_final),),
                           self._first, self._prefix)

    def advance(self, metric, y0, dt, z_new):
        """History one step of ``dt`` longer at the final sample's rate,
        ending at (tau_M + dt, z_new, zdot_M).

        The new history holds its final interval's two samples, and this
        history's whole propagator under ``metric`` and ``y0`` as its prefix
        (integrated here unless already memoised; the identity in a flat
        metric).  The new time counts whole steps, (M + 1) dt, so it
        does not drift by repeated addition; tau_M must therefore be M dt.
        """
        n = self.n_steps
        if abs(self.t_final - n * dt) > 1e-12 * max(1.0, abs(self.t_final)):
            raise MgError(f"advance counts whole steps of {dt}, and this history "
                          f"ends at {self.t_final!r} after {n} steps")
        tau_new = (n + 1) * dt
        if not tau_new > self.t_final:
            raise MgError("tau samples must increase strictly")
        z_new = self._new_row(z_new)
        y0 = np.asarray(y0, dtype=float)
        if n == 0 and not metric.is_flat():
            # no interval yet: the new one starts from sample 0's G
            prefix = _start_entry(metric, y0, self)
        else:
            prefix = transport_propagator(metric, y0, self)
        return self._child(np.array([self.tau[-1], tau_new]), (self.z[-1], z_new),
                           (self.zdot[-1], self.zdot[-1]), n, _PrefixSlot(prefix))

    def hermite(self, m, s):
        """Cubic Hermite state and rate inside interval m at fraction s; at
        s = 1 they are the end sample itself, which the formula reproduces
        bit for bit."""
        j = self._local(m)
        if s == 1.0:
            return self.z[j + 1], self.zdot[j + 1]
        dt = self.tau[j + 1] - self.tau[j]
        z0, z1 = self.z[j], self.z[j + 1]
        d0, d1 = self.zdot[j], self.zdot[j + 1]
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


def static_history(n_points):
    """The undeformed state's history: its one sample z = zdot = 0 at tau = 0."""
    zeros = np.zeros((n_points, 3))
    return TransportHistory([0.0], [zeros], [zeros])


@lru_cache(maxsize=8)
def _identity(n):
    """The (3, 3, n) node-last identity, C-contiguous and read-only: one
    array per node count, shared by every caller."""
    eye = np.ascontiguousarray(np.broadcast_to(np.eye(3)[:, :, None], (3, 3, n)))
    eye.flags.writeable = False
    return eye


def _gamma_zdot(metric, y0, z, zdot):
    """Matrix G[g, b, n] = Gamma^g_{ab}(y0 + z) zdot^a, node-last."""
    return metric.christoffel_contract(np.asarray(y0, dtype=float) + z, node_last(zdot))


def _rk4_step(g0, g_half, g1, a, h, sign):
    """One classical RK4 step of dA = sign G A with G at start, middle, end.
    ``a = None`` seeds it with the identity, whose first stage is sign G.

    The result is a + (h/6) (k1 + 2 k2 + 2 k3 + k4), summed in that order
    in place: with a few thousand nodes each (3, 3, N) temporary costs
    fresh pages, so the stages share three buffers."""
    if a is None:
        a = _identity(g0.shape[-1])
        acc = sign * g0
    else:
        acc = np.einsum("gbn,bkn->gkn", g0, a)
        acc *= sign
    arg = np.multiply(0.5 * h, acc)              # the stage argument a + step k
    arg += a
    k = np.einsum("gbn,bkn->gkn", g_half, arg)
    for g, step in ((g_half, 0.5 * h), (g1, h)):
        # k is stage 2, then 3: it gives the next stage's argument, and
        # enters the sum with weight 2
        k *= sign
        np.multiply(step, k, out=arg)
        arg += a
        k *= 2
        acc += k
        np.einsum("gbn,bkn->gkn", g, arg, out=k)
    k *= sign
    acc += k
    acc *= h / 6.0
    acc += a
    return acc


@dataclass(frozen=True, eq=False)
class Propagator:
    """Transport over the first ``k`` intervals of a history, node-last
    (3, 3, N).

    ``backward`` = R_0 ... R_{k-1} carries a seed from tau_k to 0, where R_m
    is the per-node RK4 map of interval m; its inverse carries a seed from 0
    to tau_k.  ``g_end`` is G = Gamma(u) zdot at sample k, the start of the
    next interval (None where nothing is integrated).  The key fields say
    which metric and base points the map belongs to.  ``identity`` marks the
    exact identity (flat metric or no interval).
    """

    metric: AmbientMetric
    y0: np.ndarray
    k: int
    backward: np.ndarray
    g_end: np.ndarray | None
    identity: bool = False

    def matches(self, metric, y0):
        return self.metric is metric and self.y0 is y0

    def extended(self, history: TransportHistory) -> Propagator:
        """The propagator over one more interval of ``history``: one RK4 step,
        with G at the interval's start (``g_end``, which Hermite
        interpolation reproduces bit for bit), middle and end.
        """
        m = self.k
        j = history._local(m)
        dt = history.tau[j + 1] - history.tau[j]
        g_half = _gamma_zdot(self.metric, self.y0, *history.hermite(m, 0.5))
        g1 = _gamma_zdot(self.metric, self.y0, *history.hermite(m, 1.0))
        r_back = _rk4_step(g1, g_half, self.g_end, None, dt, 1.0)
        return _frozen_propagator(
            self.metric, self.y0, m + 1,
            backward=np.einsum("gbn,bkn->gkn", self.backward, r_back), g_end=g1,
        )


def _frozen_propagator(metric, y0, k, **fields):
    # cached maps are handed to every consumer; none may write to them
    for arr in fields.values():
        arr.flags.writeable = False
    return Propagator(metric, y0, k, **fields)


class _PrefixSlot:
    """One-entry cache of the propagator over intervals 0..M-2, shared by a
    history and its ``replace_final_rate`` children."""

    __slots__ = ("entry",)

    def __init__(self, entry=None):
        self.entry = entry


def _start_entry(metric, y0, history):
    """The propagator over no interval, with G at sample 0."""
    g0 = _gamma_zdot(metric, y0, history.z[0], history.zdot[0])
    return _frozen_propagator(metric, y0, 0, backward=_identity(history.n_points), g_end=g0)


def transport_propagator(metric: AmbientMetric, y0,
                         history: TransportHistory) -> Propagator:
    """Propagator and first series term over the whole history.

    Intervals 0..M-2 come from the prefix cache the history shares with its
    ``replace_final_rate`` children, so only the final interval, the one a
    new final rate changes, is integrated once the cache holds the prefix.
    The cache belongs to the identity of the ``metric`` and ``y0`` it was
    first filled with, by integration or by ``advance``; another key raises
    ``MgError``, and neither object may be changed in place while in use.
    """
    y0 = np.asarray(y0, dtype=float)   # the same object when y0 is a float array
    entry = history._prefix.entry
    if entry is not None and not entry.matches(metric, y0):
        raise MgError("a history keeps its propagator only for the metric and base-point "
                      "objects it was first integrated or advanced with")
    if metric.is_flat() or history.n_steps == 0:
        # nothing to integrate; with no interval, sample 0 is the final
        # sample, whose rate the children change, so nothing is cached
        return Propagator(metric, y0, history.n_steps, _identity(history.n_points), None,
                          identity=True)
    if history._full is None:
        if entry is None:
            entry = _start_entry(metric, y0, history)
        while entry.k < history.n_steps - 1:
            entry = entry.extended(history)
        history._prefix.entry = entry
        history._full = entry.extended(history)
    return history._full


@dataclass
class NormalTransport:
    """Forward transport of the unit normal, node-last.

    Under an ``identity`` propagator n_t = n_0.
    """

    n_t: np.ndarray          # (3, N) transported normal at tau = t
    norm: np.ndarray         # (N,) |n(t)| in the metric at the displaced point
    identity: bool = False   # the propagator is the identity


def _carried_normal(backward, n0):
    """n_t = B^-1 n_0 per node by the adjugate: the rows of B^-1 are the
    cross products of B's columns, b_1 x b_2, b_2 x b_0 and b_0 x b_1, over
    det B = b_0 . (b_1 x b_2).  Transport starts from the identity and keeps
    det B positive; where it is not finite and positive, MgError names the
    node."""
    b0, b1, b2 = backward[:, 0], backward[:, 1], backward[:, 2]
    rows = [np.cross(u, v, axis=0) for u, v in ((b1, b2), (b2, b0), (b0, b1))]
    det = np.sum(b0 * rows[0], axis=0)
    bad = ~(np.isfinite(det) & (det > 0))
    if np.any(bad):
        node = int(np.argmax(bad))
        raise MgError(f"backward transport map singular at node {node}, "
                      f"det={det[node]:.3e}")
    return np.stack([np.sum(row * n0, axis=0) for row in rows]) / det


def transport_normal(metric: AmbientMetric, y0, history: TransportHistory,
                     n0, ambient_a=None) -> NormalTransport:
    """The unit normal ``n0`` carried to the history's final time, n_t =
    B^-1 n_0 for the backward map B, and its length in the metric there.
    ``ambient_a`` is that metric, a(y0 + z) node-last, when the caller holds
    it (a ``DeformationState`` caches it); it is evaluated otherwise."""
    y0 = np.asarray(y0, dtype=float)
    n0 = node_last(np.asarray(n0, dtype=float))
    prop = transport_propagator(metric, y0, history)
    n_t = n0 if prop.identity else _carried_normal(prop.backward, n0)
    if ambient_a is None:
        ambient_a = node_last(metric.metric(y0 + history.z[-1]))
    norm = np.sqrt(np.einsum("abn,an,bn->n", ambient_a, n_t, n_t))
    return NormalTransport(n_t=n_t, norm=norm, identity=prop.identity)
