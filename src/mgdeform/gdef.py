"""Coefficients and residuals of the normal-preservation equation system.

The displacement z = a^j y_,j + c n is admissible when the transported
tangent frame stays orthogonal to the undeformed normal.  Expanding the
transport propagator around the identity, S_(1) = M(t, 0) - I, gives the
equations a^l b_li + (1 + N_0) c_,i + (d_i a^j) N_j + Q_i = 0 with
N_j = a0(S_(1) e_j, n) over the frame e = (n, y_,1, y_,2) and
Q_i = a0(S_(5)i, n), S_(5)i = (S_(1) - Gamma0(., z)) y_,i +
S_(1)(z_,i - (d_i a^j) y_,j - n c_,i).  Only N_j and Q_i are formed, from
the lowered normal a0 n contracted with S_(1) and with S_(1) - Gamma0(., z);
the paper's intermediate families S_(2) to S_(5) and T_j are built term by
term in the tests' reference.  The parts that depend on the state alone,
Gamma0(., z) and the non-frame bracket, are cached on the
``DeformationState`` and the lowered normal on the surface, so a cdot
sweep forms only the contractions with its trial propagator.  All
coefficient fields vanish identically at t = 0 and in a flat ambient
metric, where the system degenerates to
c_,i = -a^l b_li: there the propagator is the identity, S_(1) = 0, and
``assemble_coefficients`` forms no contraction; its record says so
(``GDefCoefficients.vanish``), so the cdot kernel and Psi_1 skip them too.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from ._contract import node_last
from .metrics import AmbientMetric
from .surface import SurfaceState, require_surface_metric
from .transport import TransportHistory, static_history, transport_propagator


def tangential_grad(grid, a1, a2):
    """d_i a^j of the tangential pair (a1, a2), node-last as (j, i, N)."""
    return np.stack([grid.grad_last(a1), grid.grad_last(a2)])


@dataclass(frozen=True)
class DeformationState:
    """Tangential/normal deformation fields, their rates, and path history.

    Fields are never reassigned (the dataclass is frozen), so what every
    assembly reads of the state alone is taken once, on first use, and
    node-last: the derivatives ``dz`` (z_,i), ``da`` (d_i a^j) and ``dc``
    (c_,i); the ambient metric a(y + z) at the state's points
    (``ambient_a``), the one evaluation the variations, the rates and the
    carried normal's length share; and the state parts of the coefficient
    assembly, ``gamma0_z`` and ``frame_bracket``.  The fields a1, a2, c and
    their rates are (N,) scalars; z and its rate are (N, 3) point vectors,
    as the history holds them.
    ``advance`` builds the successor state.
    """

    surface: SurfaceState
    a1: np.ndarray
    a2: np.ndarray
    c: np.ndarray
    a1dot: np.ndarray
    a2dot: np.ndarray
    cdot: np.ndarray
    history: TransportHistory
    t: float = 0.0

    def displacement(self, a1=None, a2=None, c=None):
        s = self.surface
        a1 = self.a1 if a1 is None else a1
        a2 = self.a2 if a2 is None else a2
        c = self.c if c is None else c
        return a1[:, None] * s.y1 + a2[:, None] * s.y2 + c[:, None] * s.n

    def rate_displacement(self, a1dot=None, a2dot=None, cdot=None):
        s = self.surface
        a1dot = self.a1dot if a1dot is None else a1dot
        a2dot = self.a2dot if a2dot is None else a2dot
        cdot = self.cdot if cdot is None else cdot
        return a1dot[:, None] * s.y1 + a2dot[:, None] * s.y2 + cdot[:, None] * s.n

    @property
    def z(self):
        return self.history.z[-1]

    @cached_property
    def dz(self):
        """z_,i as (3, 2, N)."""
        return self.surface.grid.grad_last(self.z.T)

    @cached_property
    def da(self):
        """d_i a^j as (j, i, N)."""
        return tangential_grad(self.surface.grid, self.a1, self.a2)

    @cached_property
    def dc(self):
        """c_,i as (2, N)."""
        return self.surface.grid.grad_last(self.c)

    @cached_property
    def ambient_a(self):
        """a(y + z) of the surface's metric as (3, 3, N)."""
        return node_last(self.surface.metric.metric(self.surface.y + self.z))

    @cached_property
    def gamma0_z(self):
        """Gamma0(., z) = Gamma^a_{bs}(y) z^b as (a, s, N)."""
        return self.surface.metric.christoffel_contract(self.surface.y, node_last(self.z))

    @cached_property
    def frame_bracket(self):
        """The non-frame part of Eq. 2.27, z_,i - (d_i a^j) y_,j - n c_,i,
        as (3, 2, N)."""
        s = self.surface
        return (self.dz - np.einsum("jin,sjn->sin", self.da, s.tang)
                - s.n.T[:, None, :] * self.dc[None, :, :])

    def history_with_rates(self, a1dot, a2dot, cdot):
        """History whose final sample carries the given iterate rates."""
        return self.history.replace_final_rate(
            self.rate_displacement(a1dot, a2dot, cdot)
        )

    def advance(self, dt, a1dot, a2dot, cdot, history, dzdot=None, dadot=None):
        """Explicit-Euler successor: the fields move by dt times the given
        rates, which the successor carries, and the history advances to
        (t + dt, z_new) at the rate that left this state.  ``history`` is
        this state's history at those rates (``history_with_rates``); the
        successor's history keeps its propagator as its prefix, so the flow
        hands in its accepted trial history, whose propagator is already
        integrated.  The successor's time is its
        history's final time, which counts whole steps.  Given the rates'
        derivatives ``dzdot`` (zdot_,i, (3, 2, N)) and ``dadot`` (d_i adot^j,
        (j, i, N)), the successor's ``dz`` and ``da`` are this state's plus
        dt times them: the grid derivative is linear, so they equal the
        successor's own up to round-off."""
        a1 = self.a1 + dt * a1dot
        a2 = self.a2 + dt * a2dot
        c = self.c + dt * cdot
        s = self.surface
        history = history.advance(s.metric, s.y, dt, self.displacement(a1, a2, c))
        new = DeformationState(surface=s, a1=a1, a2=a2, c=c,
                               a1dot=a1dot, a2dot=a2dot, cdot=cdot,
                               history=history, t=history.t_final)
        if dzdot is not None:
            new._seed(dz=self.dz + dt * dzdot)
        if dadot is not None:
            new._seed(da=self.da + dt * dadot)
        return new

    def _seed(self, **cached):
        """Store fields known without computing them as the cached ``dz``,
        ``da``, ``dc`` or ``ambient_a``, which ``cached_property`` keeps in
        the instance dict."""
        self.__dict__.update(cached)


def new_deformation(surface: SurfaceState) -> DeformationState:
    """The undeformed state: every field, rate and derivative is an exact
    zero, so none is differentiated, and its points are the surface's, so
    a(y + z) is the surface's a(y)."""
    n = surface.grid.n_nodes
    zeros = np.zeros(n)
    state = DeformationState(
        surface=surface, a1=zeros.copy(), a2=zeros.copy(), c=zeros.copy(),
        a1dot=zeros.copy(), a2dot=zeros.copy(), cdot=zeros.copy(),
        history=static_history(n), t=0.0,
    )
    state._seed(dz=np.zeros((3, 2, n)), da=np.zeros((2, 2, n)), dc=np.zeros((2, n)),
                ambient_a=surface.ambient_a)
    return state


@dataclass
class GDefCoefficients:
    """N/Q coefficient fields at one time, plus finite-difference rates;
    all node-last."""

    n_j: np.ndarray     # (3, N) components N_0, N_1, N_2
    q_i: np.ndarray     # (2, N)
    ndot: np.ndarray    # (3, N)
    qdot: np.ndarray    # (2, N)

    @property
    def vanish(self):
        """All four fields are exact zeros, as under an identity propagator
        whose previous record vanished too: then so do the cdot kernel and
        Psi_1."""
        return not any(np.any(f) for f in (self.n_j, self.q_i, self.ndot, self.qdot))


def assemble_coefficients(metric: AmbientMetric, surface: SurfaceState,
                          deform: DeformationState,
                          history: TransportHistory | None = None,
                          prev: GDefCoefficients | None = None,
                          dt: float | None = None) -> GDefCoefficients:
    """Build N_j and Q_i at the history's final time.

    S_(1) is the transport propagator minus the identity (exact
    resummation), taken from the history's cached propagator, so only the
    final interval is integrated here.  A given ``history`` must end at the
    state's displacement; it only swaps the final rate.  Rates are backward
    finite differences against ``prev`` when given.  Under an identity
    propagator S_(1) = 0, and N_j = Q_i = 0 are not contracted.  ``metric``
    must be ``surface.metric``.
    """
    require_surface_metric(metric, surface)
    hist = history if history is not None else deform.history
    prop = transport_propagator(metric, surface.y, hist)
    n_j = np.zeros((3, surface.grid.n_nodes))
    q_i = np.zeros((2, surface.grid.n_nodes))
    if not prop.identity:
        tang, n, an = surface.tang, surface.n.T, surface.lowered_n
        s1 = prop.backward - np.eye(3)[:, :, None]
        r1 = np.einsum("an,asn->sn", an, s1)
        n_j[0] = np.einsum("sn,sn->n", r1, n)
        n_j[1:] = np.einsum("sn,sin->in", r1, tang)

        # S_(1) and Gamma0(., z) agree to first order in t, so they are
        # subtracted entry by entry before the contraction with a0 n;
        # contracting each first and subtracting the two covectors loses
        # several digits of Q to cancellation.
        s1 -= deform.gamma0_z
        r3 = np.einsum("an,asn->sn", an, s1)
        q_i = (np.einsum("sn,sin->in", r3, tang)
               + np.einsum("sn,sin->in", r1, deform.frame_bracket))

    if prev is not None and dt:
        ndot = (n_j - prev.n_j) / dt
        qdot = (q_i - prev.q_i) / dt
    else:
        ndot = np.zeros_like(n_j)
        qdot = np.zeros_like(q_i)
    return GDefCoefficients(n_j=n_j, q_i=q_i, ndot=ndot, qdot=qdot)


def gdef_normal_residual(metric: AmbientMetric, surface: SurfaceState,
                         deform: DeformationState):
    """Independent check: transport y_,i + z_,i back and project on n.

    Bypasses the S/N/Q algebra entirely; vanishing means the normal is
    carried by parallel transport (the defining property of the flow).
    Returns the residual of each tangent as (2, N).  ``metric`` must be
    ``surface.metric``.
    """
    require_surface_metric(metric, surface)
    mback = transport_propagator(metric, surface.y, deform.history).backward
    back = np.einsum("abn,bin->ain", mback, surface.tang + deform.dz)
    return np.einsum("abn,ain,bn->in", surface.ambient_a, back, surface.n.T)
