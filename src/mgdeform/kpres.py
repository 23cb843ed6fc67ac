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

from ._contract import node_first, node_last
from .errors import DegenerateCurvatureError, GeometryError
from .gdef import DeformationState, GDefCoefficients, node_last_grad, tangential_grad
from .metrics import AmbientMetric, christoffel_at
from .surface import SurfaceState
from .transport import NormalTransport, transport_normal


def _sym(m):
    """m_ij + m_ji of a node-last (2, 2, N) field."""
    return m + np.swapaxes(m, 0, 1)


def _gtrace(g_inv, m):
    """g^ij m_ij, node-last."""
    return np.einsum("ijn,ijn->n", g_inv, m)


def _form_product(a, u, v):
    """a(u_i, v_j) per node: node-last (3, 3, N), (3, 2, N) -> (2, 2, N)."""
    return np.einsum("abn,ain,bjn->ijn", a, u, v)


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
    tang, a0 = node_last(surface.tang), node_last(surface.ambient_a)
    zder = node_last(np.stack([z1, z2], axis=-1))   # (3, 2, N)
    pts = surface.y + z
    a_t = node_last(metric.metric(pts))
    z_l = node_last(z)
    da0z = np.einsum("absn,sn->abn", node_last(metric.dmetric(surface.y)), z_l)
    gz = np.einsum("agsn,sn->agn", node_last(surface.ambient_gamma), z_l)
    dstar_z = zder + np.einsum("agn,gjn->ajn", gz, tang)

    lead = _form_product(a0, tang, dstar_z)
    mid = _form_product(a_t - a0 - da0z, tang, tang)
    cross = _form_product(a_t - a0, tang, zder)
    quad = _form_product(a_t, zder, zder)
    dg_ij = _sym(lead) + mid + _sym(cross) + quad

    g_inv = node_last(surface.g_inv)
    w1 = _gtrace(g_inv, mid) + 2.0 * _gtrace(g_inv, cross) + _gtrace(g_inv, quad)
    w2 = dg_ij[0, 0] * dg_ij[1, 1] - dg_ij[0, 1] ** 2
    dg = surface.g_det * _gtrace(g_inv, dg_ij) + w2
    psi2 = 2.0 * surface.H * c - w1 / 2.0 - w2 / (2.0 * surface.g_det)
    return GVariation(dg_ij=node_first(dg_ij), dg=dg, w1=w1, w2=w2, psi2=psi2)


def delta_g_direct(metric, surface, z, z1, z2):
    """Reference: recompute the displaced first form and subtract."""
    tang_t = surface.tang + np.stack([z1, z2], axis=-1)
    a_t = metric.metric(surface.y + z)
    return np.einsum("nab,nai,nbj->nij", a_t, tang_t, tang_t) - surface.g


def delta_b(metric: AmbientMetric, surface: SurfaceState, deform: DeformationState,
            fwd: NormalTransport, gvar: GVariation) -> BVariation:
    """Second-form variation via the carried-normal cascade."""
    grid = surface.grid
    tang, n0 = node_last(surface.tang), node_last(surface.n)
    a0, gamma0 = node_last(surface.ambient_a), node_last(surface.ambient_gamma)
    b0 = node_last(surface.b)
    zder = node_last(deform.dz)                  # (3, 2, N)
    tang_t = tang + zder
    pts = surface.y + deform.z
    a_t = node_last(metric.metric(pts))
    gamma_t = node_last(christoffel_at(metric, pts).gamma_upper)
    dgamma = gamma_t - gamma0
    n_t = node_last(fwd.n_t)
    a1_vec = node_last(fwd.a1_vec)
    a2_vec = node_last(fwd.a2_vec)
    a1m = node_last(fwd.a1_mat)                  # (3, 3, N)

    norm = fwd.norm
    inv_norm = 1.0 / norm
    n_til = n_t * inv_norm
    dinv = node_last_grad(grid, inv_norm)        # (2, N)
    ntil_der = node_last_grad(grid, node_first(n_til))   # (3, 2, N)
    dstar_ntil = ntil_der + np.einsum("gabn,ajn,bn->gjn", gamma_t, tang_t, n_til)

    da = node_last(deform.da)                    # (k, i, N)
    da_y = np.einsum("kin,skn->sin", da, tang)
    bracket = zder - da_y
    m1 = -_form_product(a_t, bracket, dstar_ntil)

    bΓ = np.einsum("jkn,kln->jln", b0, node_last(surface.g_inv))
    dstar_n0 = -np.einsum("jln,sln->sjn", bΓ, tang)
    m2 = (
        -_form_product(a_t, da_y, dstar_ntil)
        + _form_product(a0, da_y, dstar_n0)
        + m1
    )

    a1m_der = node_last_grad(grid, fwd.a1_mat)   # (3, 3, 2, N)
    a2v_der = node_last_grad(grid, fwd.a2_vec)   # (3, 2, N)
    a1n0 = np.einsum("bsn,sn->bn", a1m, n0)

    def gamma_term(gamma, u, v):
        return np.einsum("bmtn,mjn,tn->bjn", gamma, u, v)

    tails = (
        np.einsum("bsn,sjn->bjn", a1m, node_last(surface.n_deriv))
        + a2v_der
        + gamma_term(gamma0, tang, a1n0)
        + gamma_term(gamma0, tang, a2_vec)
        + gamma_term(dgamma, tang, n0)
        + gamma_term(dgamma, tang, a1_vec)
        + gamma_term(gamma0, zder, a1_vec)
        + gamma_term(dgamma, zder, n_t)
    )
    core = (
        np.einsum("bsjn,sn->bjn", a1m_der, n0)
        + gamma_term(gamma0, zder, n0)
    )
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
    db = surface.V * (db_ij[0, 0] + db_ij[1, 1]) + w2b
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
    return BVariation(m1=node_first(m1), m2=node_first(m2), m3=node_first(m3),
                      m4=node_first(m4), db_ij=node_first(db_ij), w2b=w2b,
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
                   m4dot_override=None, dadot=None) -> VariationRates:
    """Time rates of the variation fields at the current iterate.

    ``dadot`` is d_i adot^j as (N, j, i), e.g. a cdot solve's; it is taken
    here when not given.
    """
    grid = surface.grid
    tang, a0 = node_last(surface.tang), node_last(surface.ambient_a)
    g_inv = node_last(surface.g_inv)
    zder = node_last(deform.dz)
    zdot_der = node_last_grad(grid, zdot)        # (3, 2, N)
    zdot_l = node_last(zdot)
    pts = surface.y + deform.z
    a_t = node_last(metric.metric(pts))
    da_t_zdot = np.einsum("absn,sn->abn", node_last(metric.dmetric(pts)), zdot_l)
    da0_zdot = np.einsum("absn,sn->abn", node_last(metric.dmetric(surface.y)), zdot_l)

    t1 = _form_product(da_t_zdot - da0_zdot, tang, tang)
    t2 = _form_product(da_t_zdot, tang, zder)
    t3 = _form_product(a_t - a0, tang, zdot_der)
    t4 = _form_product(da_t_zdot, zder, zder)
    t5 = _form_product(a_t, zdot_der, zder)
    t6 = _form_product(a_t, zder, zdot_der)
    w1dot = (_gtrace(g_inv, t1) + 2 * _gtrace(g_inv, t2) + 2 * _gtrace(g_inv, t3)
             + _gtrace(g_inv, t4) + _gtrace(g_inv, t5) + _gtrace(g_inv, t6))

    gzd = np.einsum("agsn,sn->agn", node_last(surface.ambient_gamma), zdot_l)
    dstar_zdot = zdot_der + np.einsum("agn,gjn->ajn", gzd, tang)
    s_lead = _form_product(a0, tang, dstar_zdot)
    dgdot_ij = (
        _sym(s_lead)
        + t1
        + _sym(t2)
        + _sym(t3)
        + t4 + t5 + t6
    )
    dg_ij = node_last(gvar.dg_ij)
    w2dot = (
        dgdot_ij[0, 0] * dg_ij[1, 1]
        + dg_ij[0, 0] * dgdot_ij[1, 1]
        - 2.0 * dg_ij[0, 1] * dgdot_ij[0, 1]
    )

    if m4dot_override is not None:
        m4dot = node_last(m4dot_override)
    elif prev_m4 is not None and dt:
        m4dot = (node_last(bvar.m4) - node_last(prev_m4)) / dt
    else:
        m4dot = np.zeros((2, 2, grid.n_nodes))
    if dadot is None:
        dadot = tangential_grad(grid, a1dot, a2dot)
    dbdot_ij = np.einsum("kin,jkn->ijn", node_last(dadot), node_last(surface.b)) + m4dot
    db_ij = node_last(bvar.db_ij)
    w2bdot = (
        dbdot_ij[0, 0] * db_ij[1, 1]
        + db_ij[0, 0] * dbdot_ij[1, 1]
        - dbdot_ij[0, 1] * db_ij[1, 0]
        - db_ij[0, 1] * dbdot_ij[1, 0]
    )
    dbdot = surface.V * (dbdot_ij[0, 0] + dbdot_ij[1, 1]) + w2bdot
    p0 = (
        w1dot
        + w2dot / surface.g_det
        - (m4dot[0, 0] + m4dot[1, 1]) / surface.V
        - w2bdot / surface.V**2
    )
    return VariationRates(w1dot=w1dot, dgdot_ij=node_first(dgdot_ij), w2dot=w2dot,
                          m4dot=node_first(m4dot), dbdot_ij=node_first(dbdot_ij),
                          w2bdot=w2bdot, dbdot=dbdot, p0=p0)


def psi1_bracket(surface: SurfaceState, coeffs: GDefCoefficients,
                 deform: DeformationState):
    """The curl-equation source Psi_1 = -(...)/V at the current state."""
    dc, da = node_last(deform.dc), node_last(deform.da)
    dn = node_last_grad(surface.grid, coeffs.n_j)    # (j, i, N) = d_i N_j
    dq = node_last_grad(surface.grid, coeffs.q_i)    # (k, i, N) = d_i Q_k
    bracket = (
        dc[0] * dn[0, 1] - dc[1] * dn[0, 0]
        + da[0, 0] * dn[1, 1] - da[0, 1] * dn[1, 0]
        + da[1, 0] * dn[2, 1] - da[1, 1] * dn[2, 0]
        + dq[0, 1] - dq[1, 0]
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
