"""Coefficients and residuals of the normal-preservation equation system.

The displacement z = a^j y_,j + c n is admissible when the transported
tangent frame stays orthogonal to the undeformed normal.  Expanding the
transport propagator around the identity produces coefficient families
S_(1)..S_(5), T_j, N_j, Q_i; the equations then read
a^l b_li + (1 + N_0) c_,i + (d_i a^j) N_j + Q_i = 0.
All coefficient fields vanish identically at t = 0 and in a flat ambient
metric, where the system degenerates to c_,i = -a^l b_li.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from ._contract import node_first, node_last
from .metrics import AmbientMetric
from .surface import SurfaceState
from .transport import (
    TransportHistory,
    op_inf_norm,
    static_history,
    transport_propagator,
)


def node_last_grad(grid, f):
    """(d_1 f, d_2 f) of an (N, ...) field, node-last as (..., 2, N)."""
    return node_last(np.stack(grid.grad(f), axis=-1))


def tangential_grad(grid, a1, a2):
    """d_i a^j of the tangential pair (a1, a2) as (N, j, i), stored
    node-last."""
    return node_first(np.stack([node_last_grad(grid, a1), node_last_grad(grid, a2)]))


@dataclass(frozen=True)
class DeformationState:
    """Tangential/normal deformation fields, their rates, and path history.

    Fields are never reassigned (the dataclass is frozen), so the
    derivatives every assembly reads are taken once, on first use: ``dz``
    (z_,i), ``da`` (d_i a^j) and ``dc`` (c_,i), stored node-last.
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
        """z_,i as (N, 3, 2)."""
        return node_first(node_last_grad(self.surface.grid, self.z))

    @cached_property
    def da(self):
        """d_i a^j as (N, j, i)."""
        return tangential_grad(self.surface.grid, self.a1, self.a2)

    @cached_property
    def dc(self):
        """c_,i as (N, 2)."""
        return node_first(node_last_grad(self.surface.grid, self.c))

    def history_with_rates(self, a1dot, a2dot, cdot):
        """History whose final sample carries the given iterate rates."""
        return self.history.replace_final_rate(
            self.rate_displacement(a1dot, a2dot, cdot)
        )

    def advance(self, dt, a1dot, a2dot, cdot):
        """Explicit-Euler successor: the fields move by dt times the given
        rates, which the successor carries, and the history gains the sample
        (t + dt, z_new, zdot) with the rate that left this state.  The
        successor's time is its history's final time, which counts whole
        steps."""
        a1 = self.a1 + dt * a1dot
        a2 = self.a2 + dt * a2dot
        c = self.c + dt * cdot
        history = self.history.advance(dt, self.displacement(a1, a2, c),
                                       self.rate_displacement(a1dot, a2dot, cdot))
        return DeformationState(surface=self.surface, a1=a1, a2=a2, c=c,
                                a1dot=a1dot, a2dot=a2dot, cdot=cdot,
                                history=history, t=history.t_final)


def new_deformation(surface: SurfaceState) -> DeformationState:
    n = surface.grid.n_nodes
    zeros = np.zeros(n)
    return DeformationState(
        surface=surface, a1=zeros.copy(), a2=zeros.copy(), c=zeros.copy(),
        a1dot=zeros.copy(), a2dot=zeros.copy(), cdot=zeros.copy(),
        history=static_history(0.0, 0, n), t=0.0,
    )


@dataclass
class GDefCoefficients:
    """S/T/N/Q coefficient fields at one time, plus finite-difference rates."""

    s1: np.ndarray      # (N, 3, 3) sum of all transport terms
    s2: np.ndarray      # (N, 3, 3) tail beyond the first term
    s3: np.ndarray      # (N, 3, 2)
    s4: np.ndarray
    s5: np.ndarray
    t0: np.ndarray      # (N, 3)
    tj: np.ndarray      # (N, 3, 2)
    n_j: np.ndarray     # (N, 3) components N_0, N_1, N_2
    q_i: np.ndarray     # (N, 2)
    ndot: np.ndarray    # (N, 3)
    qdot: np.ndarray    # (N, 2)

    def sup(self, name):
        return float(np.max(np.abs(getattr(self, name))))


def assemble_coefficients(metric: AmbientMetric, surface: SurfaceState,
                          deform: DeformationState,
                          history: TransportHistory | None = None,
                          prev: GDefCoefficients | None = None,
                          dt: float | None = None) -> GDefCoefficients:
    """Build all coefficient fields at the history's final time.

    The leading matrix is taken from the transport propagator itself (exact
    resummation); the first series term comes from direct quadrature so the
    tail splits off without truncation error.  Both come from the history's
    cached propagator, so only the final interval is integrated here.  A
    given ``history`` must end at the state's displacement; it only swaps
    the final rate.  Rates are backward finite differences against ``prev``
    when given.
    """
    hist = history if history is not None else deform.history
    prop = transport_propagator(metric, surface.y, hist)
    tang, n = node_last(surface.tang), node_last(surface.n)    # (3, 2, N), (3, N)
    a0 = node_last(surface.ambient_a)                          # (3, 3, N)
    s1 = node_last(prop.backward) - np.eye(3)[:, :, None]
    a1_term = node_last(prop.integral)
    s2 = s1 - a1_term

    # Gamma(0)(., z): gz[a, s] = Gamma^a_{b s} z^b
    gz = np.einsum("absn,bn->asn", node_last(surface.ambient_gamma),
                   node_last(deform.z))
    m1_core = a1_term - gz
    s3 = np.einsum("asn,sin->ain", m1_core + s2, tang)

    da = node_last(deform.da)                   # (j, i, N) = d_i a^j
    # bracket_i = z_,i - (d_i a^j) y_,j  (the non-frame part of Eq. 2.27)
    bracket = node_last(deform.dz) - np.einsum("jin,sjn->sin", da, tang)
    # surface-Christoffel drag term Gamma^j_{pi} a^p y_,j
    a_vec = np.stack([deform.a1, deform.a2])
    surf_term = np.einsum("jpin,pn,sjn->sin", node_last(surface.gamma_surface),
                          a_vec, tang)
    c_n = n[:, None, :] * node_last(deform.dc)[None, :, :]
    s4 = s3 + np.einsum("asn,sin->ain", s1, bracket - c_n - surf_term)
    s5 = s4 + np.einsum("asn,sin->ain", s1, surf_term)

    t0 = np.einsum("asn,sn->an", s1, n)
    tj = np.einsum("asn,sin->ain", s1, tang)
    n_j = np.empty((3, surface.grid.n_nodes))
    n_j[0] = np.einsum("abn,an,bn->n", a0, t0, n)
    n_j[1:] = np.einsum("abn,ain,bn->in", a0, tj, n)
    q_i = np.einsum("abn,ain,bn->in", a0, s5, n)

    if prev is not None and dt:
        ndot = (n_j - node_last(prev.n_j)) / dt
        qdot = (q_i - node_last(prev.q_i)) / dt
    else:
        ndot = np.zeros_like(n_j)
        qdot = np.zeros_like(q_i)
    out = dict(s1=s1, s2=s2, s3=s3, s4=s4, s5=s5, t0=t0, tj=tj,
               n_j=n_j, q_i=q_i, ndot=ndot, qdot=qdot)
    return GDefCoefficients(**{k: node_first(v) for k, v in out.items()})


def gdef_residual(surface: SurfaceState, coeffs: GDefCoefficients,
                  deform: DeformationState):
    """r_i = a^l b_li + (1 + N_0) c_,i + (d_i a^j) N_j + Q_i."""
    da = deform.da
    a_vec = np.stack([deform.a1, deform.a2], axis=-1)
    ab = np.einsum("nl,nli->ni", a_vec, surface.b)
    nk = coeffs.n_j[:, 1:]
    r = (
        ab
        + (1.0 + coeffs.n_j[:, :1]) * deform.dc
        + da[:, 0] * nk[:, :1] + da[:, 1] * nk[:, 1:2]
        + coeffs.q_i
    )
    return r


def gdef_normal_residual(metric: AmbientMetric, surface: SurfaceState,
                         deform: DeformationState, substeps: int = 1):
    """Independent check: transport y_,i + z_,i back and project on n.

    Bypasses the S/N/Q algebra entirely; vanishing means the normal is
    carried by parallel transport (the defining property of the flow).
    """
    mback = transport_propagator(metric, surface.y, deform.history, substeps).backward
    seed = node_last(surface.tang) + node_last(deform.dz)   # y_,i + z_,i as (3, 2, N)
    back = np.einsum("abn,bin->ain", node_last(mback), seed)
    a0, n = node_last(surface.ambient_a), node_last(surface.n)
    return node_first(np.einsum("abn,ain,bn->in", a0, back, n))


def norm_chain_report(coeffs: GDefCoefficients):
    """Discrete-norm chain of the coefficient cascade (diagnostic)."""
    s1 = op_inf_norm(coeffs.s1)
    s2 = op_inf_norm(coeffs.s2)
    report = {
        "s1": s1,
        "s2": s2,
        "s2_surrogate_bound": s1 * s1 / (1.0 - s1) if s1 < 1 else np.inf,
        "n_sup": float(np.max(np.abs(coeffs.n_j))),
        "q_sup": float(np.max(np.abs(coeffs.q_i))),
        "s5_sup": float(np.max(np.abs(coeffs.s5))),
        "t_sup": float(np.max(np.abs(coeffs.tj))),
    }
    report["ratio_n_over_s1"] = report["n_sup"] / s1 if s1 > 0 else 0.0
    report["ratio_q_over_s5"] = (
        report["q_sup"] / report["s5_sup"] if report["s5_sup"] > 0 else 0.0
    )
    return report

