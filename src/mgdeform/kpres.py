"""Variations of the fundamental forms under deformation, exactly in z.

Delta(g_ij) follows from expanding the displaced metric around the base
point; Delta(b_ij) = (d_i a^k) b_jk + M4_ij with the M-cascade collecting
every transport, Christoffel-difference and normalization correction of the
displaced second form built on the carried normal.  The curvature defect is
Delta(K) = (Delta(g) - (g/b) Delta(b)) / b(t).

Time rates: W1-dot and Delta(g_ij)-dot have explicit forms and are built
directly; rates of the M-cascade come from backward differences over the
step history.  The right-hand sides of the elliptic pair collect into
psi1-dot (curl equation) and psi3 = qb0 P - P0 (divergence equation).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._contract import contract
from .errors import DegenerateCurvatureError, GeometryError
from .gdef import DeformationState, GDefCoefficients, tangential_grad
from .metrics import AmbientMetric, christoffel_at
from .surface import SurfaceState
from .transport import NormalTransport, transport_normal


def _sym(m):
    return m + np.swapaxes(m, 1, 2)


def _dfields(grid, f):
    return np.stack(grid.grad(f), axis=-1)


@dataclass
class GVariation:
    dg_ij: np.ndarray   # (N, 2, 2)
    dg: np.ndarray      # (N,)
    w1: np.ndarray
    w2: np.ndarray
    psi2: np.ndarray


@dataclass
class BVariation:
    m1: np.ndarray      # (N, 2, 2)
    m2: np.ndarray
    m3: np.ndarray
    m4: np.ndarray
    db_ij: np.ndarray
    w2b: np.ndarray
    db: np.ndarray
    b_t: np.ndarray
    dK: np.ndarray           # true defect K(t) - K with K = det b / det g
    dk_reciprocal: np.ndarray  # (dg - (g/b) db) / b(t) = variation of g/b
    norm_n: np.ndarray


@dataclass
class VariationRates:
    w1dot: np.ndarray
    dgdot_ij: np.ndarray
    w2dot: np.ndarray
    m4dot: np.ndarray
    dbdot_ij: np.ndarray
    w2bdot: np.ndarray
    dbdot: np.ndarray
    p0: np.ndarray


@dataclass
class EquationCoefficients:
    """t-independent coefficient fields of the elliptic pair."""

    p1: np.ndarray
    p2: np.ndarray
    q1: np.ndarray
    q2: np.ndarray
    qb1: np.ndarray
    qb2: np.ndarray
    qb0: np.ndarray


def delta_g(metric: AmbientMetric, surface: SurfaceState, z, z1, z2, c) -> GVariation:
    """First-form variation, no linearization in z."""
    tang = surface.tangents()
    zder = np.stack([z1, z2], axis=-1)
    pts = surface.y + z
    a_t = metric.metric(pts)
    a0 = surface.ambient_a
    da0z = np.einsum("nabs,ns->nab", metric.dmetric(surface.y), z)
    gamma0 = surface.ambient_gamma
    gz = np.einsum("nags,ns->nag", gamma0, z)
    dstar_z = zder + contract("nag,ngj->naj", gz, tang)

    lead = contract("nab,nai,nbj->nij", a0, tang, dstar_z)
    mid = contract("nab,nai,nbj->nij", a_t - a0 - da0z, tang, tang)
    cross = contract("nab,nai,nbj->nij", a_t - a0, tang, zder)
    quad = contract("nab,nai,nbj->nij", a_t, zder, zder)
    dg_ij = _sym(lead) + mid + _sym(cross) + quad

    g_inv = surface.g_inv
    w1 = (
        np.einsum("nij,nij->n", g_inv, mid)
        + 2.0 * np.einsum("nij,nij->n", g_inv, cross)
        + np.einsum("nij,nij->n", g_inv, quad)
    )
    w2 = dg_ij[:, 0, 0] * dg_ij[:, 1, 1] - dg_ij[:, 0, 1] ** 2
    dg = surface.g_det * np.einsum("nij,nij->n", g_inv, dg_ij) + w2
    psi2 = 2.0 * surface.H * c - w1 / 2.0 - w2 / (2.0 * surface.g_det)
    return GVariation(dg_ij=dg_ij, dg=dg, w1=w1, w2=w2, psi2=psi2)


def delta_g_direct(metric, surface, z, z1, z2):
    """Reference: recompute the displaced first form and subtract."""
    tang_t = surface.tangents() + np.stack([z1, z2], axis=-1)
    a_t = metric.metric(surface.y + z)
    return np.einsum("nab,nai,nbj->nij", a_t, tang_t, tang_t) - surface.g


def delta_b(metric: AmbientMetric, surface: SurfaceState, deform: DeformationState,
            fwd: NormalTransport, gvar: GVariation) -> BVariation:
    """Second-form variation via the carried-normal cascade."""
    grid = surface.grid
    z = deform.z
    zder = deform.dz
    tang = surface.tangents()
    tang_t = tang + zder
    n0 = surface.n
    pts = surface.y + z
    a_t = metric.metric(pts)
    a0 = surface.ambient_a
    gamma0 = surface.ambient_gamma
    gamma_t = christoffel_at(metric, pts).gamma_upper
    dgamma = gamma_t - gamma0

    norm = fwd.norm
    inv_norm = 1.0 / norm
    n_til = fwd.n_t * inv_norm[:, None]
    dinv = _dfields(grid, inv_norm)              # (N, 2)
    ntil_der = _dfields(grid, n_til)             # (N, 3, 2)
    dstar_ntil = ntil_der + contract("ngab,naj,nb->ngj", gamma_t, tang_t, n_til)

    da = deform.da                               # (N, k, i)
    bracket = zder - contract("nki,nsk->nsi", da, tang)
    m1 = -contract("nab,nai,nbj->nij", a_t, bracket, dstar_ntil)

    da_y = contract("nki,nsk->nsi", da, tang)
    bΓ = contract("njk,nkl->njl", surface.b, surface.g_inv)
    dstar_n0 = -contract("njl,nsl->nsj", bΓ, tang)
    m2 = (
        -contract("nab,nai,nbj->nij", a_t, da_y, dstar_ntil)
        + contract("nab,nai,nbj->nij", a0, da_y, dstar_n0)
        + m1
    )

    a1m = fwd.a1_mat
    a1m_der = _dfields(grid, a1m)                                   # (N,3,3,2)
    a2v_der = _dfields(grid, fwd.a2_vec)                            # (N,3,2)
    a1n0 = np.einsum("nbs,ns->nb", a1m, n0)
    tails = (
        contract("nbs,nsj->nbj", a1m, surface.n_deriv)
        + a2v_der
        + contract("nbmt,nmj,nt->nbj", gamma0, tang, a1n0)
        + contract("nbmt,nmj,nt->nbj", gamma0, tang, fwd.a2_vec)
        + contract("nbmt,nmj,nt->nbj", dgamma, tang, n0)
        + contract("nbmt,nmj,nt->nbj", dgamma, tang, fwd.a1_vec)
        + contract("nbmt,nmj,nt->nbj", gamma0, zder, fwd.a1_vec)
        + contract("nbmt,nmj,nt->nbj", dgamma, zder, fwd.n_t)
    )
    core = (
        contract("nbsj,ns->nbj", a1m_der, n0)
        + contract("nbmt,nmj,nt->nbj", gamma0, zder, n0)
    )
    dstar_nt = dstar_n0 + core + tails

    inv3 = inv_norm[:, None, None]
    m3 = (
        np.swapaxes(surface.b, 1, 2) * ((1.0 - norm) * inv_norm)[:, None, None]
        - contract("nab,nai,nbj->nij", a0, tang, core) * inv3
        - contract("nab,nai,nbj->nij", a0, tang, tails) * inv3
        - contract("nab,nai,nbj->nij", a_t - a0, tang, dstar_nt) * inv3
    )
    at_y_nt = contract("nab,nai,nb->ni", a_t, tang, fwd.n_t)
    m4 = m2 + m3 - at_y_nt[:, :, None] * dinv[:, None, :]

    db_ij = contract("nki,njk->nij", da, surface.b) + m4
    w2b = db_ij[:, 0, 0] * db_ij[:, 1, 1] - db_ij[:, 0, 1] * db_ij[:, 1, 0]
    db = surface.V * (db_ij[:, 0, 0] + db_ij[:, 1, 1]) + w2b
    b_t = surface.b_det + db
    if np.any(b_t <= 0):
        node = int(np.argmax(b_t <= 0))
        raise DegenerateCurvatureError(
            f"deformed second-form determinant vanished at node {node}"
        )
    # both defects vanish together; the reciprocal form is the one whose
    # vanishing the divergence equation encodes directly
    dk_reciprocal = (gvar.dg - (surface.g_det / surface.b_det) * db) / b_t
    g_t = surface.g_det + gvar.dg
    dK = b_t / g_t - surface.b_det / surface.g_det
    return BVariation(m1=m1, m2=m2, m3=m3, m4=m4, db_ij=db_ij, w2b=w2b,
                      db=db, b_t=b_t, dK=dK, dk_reciprocal=dk_reciprocal,
                      norm_n=norm)


def assemble_variation(metric, surface, deform: DeformationState, history=None):
    """Full variation state at the history's final time; a given ``history``
    must end at the state's displacement and only swaps the final rate."""
    hist = history if history is not None else deform.history
    zder = deform.dz
    gvar = delta_g(metric, surface, deform.z, zder[..., 0], zder[..., 1], deform.c)
    fwd = transport_normal(metric, surface.y, hist, surface.n)
    bvar = delta_b(metric, surface, deform, fwd, gvar)
    return gvar, bvar, fwd


def equation_coefficients(surface: SurfaceState) -> EquationCoefficients:
    """p_k, q_k, and their divergence-equation versions; all t-independent."""
    grid = surface.grid
    if np.any(surface.V <= 0) or np.any(surface.g_det <= 0):
        raise GeometryError("coefficients need V > 0 and det g > 0")
    ln_v = np.log(surface.V)
    ln_sg = 0.5 * np.log(surface.g_det)
    v1, v2 = grid.grad(ln_v)
    q1, q2 = grid.grad(ln_sg)
    p1, p2 = v2, -v1
    return EquationCoefficients(
        p1=p1, p2=p2, q1=q1, q2=q2, qb1=2.0 * q1, qb2=2.0 * q2,
        qb0=4.0 * surface.H,
    )


def assemble_rates(metric: AmbientMetric, surface: SurfaceState,
                   deform: DeformationState, gvar: GVariation, bvar: BVariation,
                   zdot, a1dot, a2dot, prev_m4=None, dt=None,
                   m4dot_override=None) -> VariationRates:
    """Time rates of the variation fields at the current iterate."""
    grid = surface.grid
    zder = deform.dz
    zdot_der = _dfields(grid, zdot)
    tang = surface.tangents()
    pts = surface.y + deform.z
    a_t = metric.metric(pts)
    a0 = surface.ambient_a
    g_inv = surface.g_inv
    da_t_zdot = np.einsum("nabs,ns->nab", metric.dmetric(pts), zdot)
    da0_zdot = np.einsum("nabs,ns->nab", metric.dmetric(surface.y), zdot)

    def gtrace(mat):
        return np.einsum("nij,nij->n", g_inv, mat)

    t1 = contract("nab,nai,nbj->nij", da_t_zdot - da0_zdot, tang, tang)
    t2 = contract("nab,nai,nbj->nij", da_t_zdot, tang, zder)
    t3 = contract("nab,nai,nbj->nij", a_t - a0, tang, zdot_der)
    t4 = contract("nab,nai,nbj->nij", da_t_zdot, zder, zder)
    t5 = contract("nab,nai,nbj->nij", a_t, zdot_der, zder)
    t6 = contract("nab,nai,nbj->nij", a_t, zder, zdot_der)
    w1dot = gtrace(t1) + 2 * gtrace(t2) + 2 * gtrace(t3) + gtrace(t4) + gtrace(t5) + gtrace(t6)

    gamma0 = surface.ambient_gamma
    gzd = np.einsum("nags,ns->nag", gamma0, zdot)
    dstar_zdot = zdot_der + contract("nag,ngj->naj", gzd, tang)
    s_lead = contract("nab,nai,nbj->nij", a0, tang, dstar_zdot)
    dgdot_ij = (
        _sym(s_lead)
        + t1
        + _sym(t2)
        + _sym(t3)
        + t4 + t5 + t6
    )
    dg_ij = gvar.dg_ij
    w2dot = (
        dgdot_ij[:, 0, 0] * dg_ij[:, 1, 1]
        + dg_ij[:, 0, 0] * dgdot_ij[:, 1, 1]
        - 2.0 * dg_ij[:, 0, 1] * dgdot_ij[:, 0, 1]
    )

    if m4dot_override is not None:
        m4dot = m4dot_override
    elif prev_m4 is not None and dt:
        m4dot = (bvar.m4 - prev_m4) / dt
    else:
        m4dot = np.zeros_like(bvar.m4)
    dadot = tangential_grad(grid, a1dot, a2dot)
    dbdot_ij = contract("nki,njk->nij", dadot, surface.b) + m4dot
    db_ij = bvar.db_ij
    w2bdot = (
        dbdot_ij[:, 0, 0] * db_ij[:, 1, 1]
        + db_ij[:, 0, 0] * dbdot_ij[:, 1, 1]
        - dbdot_ij[:, 0, 1] * db_ij[:, 1, 0]
        - db_ij[:, 0, 1] * dbdot_ij[:, 1, 0]
    )
    dbdot = surface.V * (dbdot_ij[:, 0, 0] + dbdot_ij[:, 1, 1]) + w2bdot
    p0 = (
        w1dot
        + w2dot / surface.g_det
        - (m4dot[:, 0, 0] + m4dot[:, 1, 1]) / surface.V
        - w2bdot / surface.V**2
    )
    return VariationRates(w1dot=w1dot, dgdot_ij=dgdot_ij, w2dot=w2dot,
                          m4dot=m4dot, dbdot_ij=dbdot_ij, w2bdot=w2bdot,
                          dbdot=dbdot, p0=p0)


def psi1_bracket(surface: SurfaceState, coeffs: GDefCoefficients,
                 deform: DeformationState):
    """The curl-equation source Psi_1 = -(...)/V at the current state."""
    dc, da = deform.dc, deform.da
    dn = _dfields(surface.grid, coeffs.n_j)      # (N, j, i) = d_i N_j
    dq = _dfields(surface.grid, coeffs.q_i)      # (N, k, i) = d_i Q_k
    bracket = (
        dc[:, 0] * dn[:, 0, 1] - dc[:, 1] * dn[:, 0, 0]
        + da[:, 0, 0] * dn[:, 1, 1] - da[:, 0, 1] * dn[:, 1, 0]
        + da[:, 1, 0] * dn[:, 2, 1] - da[:, 1, 1] * dn[:, 2, 0]
        + dq[:, 0, 1] - dq[:, 1, 0]
    )
    return -bracket / surface.V


def rhs_psi(surface: SurfaceState, coeffs: GDefCoefficients,
            deform: DeformationState, rates: VariationRates, qb0, p_field,
            prev_psi1=None, dt=None):
    """Right-hand sides of the elliptic pair at the current iterate.

    Returns (psi1_dot, psi3, p0, psi1): the curl-equation source rate (by
    backward difference of the assembled source), the divergence-equation
    source qb0 P - P0, the explicit remainder P0, and the current source
    value to store for the next step's difference.
    """
    psi1 = psi1_bracket(surface, coeffs, deform)
    if prev_psi1 is not None and dt:
        psi1_dot = (psi1 - prev_psi1) / dt
    else:
        psi1_dot = np.zeros_like(psi1)
    psi3 = qb0 * p_field - rates.p0
    return psi1_dot, psi3, rates.p0, psi1
