"""Variations of the fundamental forms under deformation, exactly in z.

Delta(g_ij) follows from expanding the displaced metric around the base
point; Delta(b_ij) = (d_i a^k) b_jk + M4_ij with the M-cascade collecting
every transport, Christoffel-difference and normalization correction of the
displaced second form built on the carried normal, summed in closed form.
The transport series splits n_t - n_0 into A_(1) n_0 + A_(2), so the
cascade's transport tails sum to one gradient, formed as d n_t - d n_0.  Its
Christoffel terms collect into Gamma_t(y_,j + z_,j, n_t) - Gamma_0(y_,j,
n_0), and M1 with M2's transport term into -a_t(z_,i, D*n~), the rest of M2
being -(d_i a^k) b_jk since a_0(y_,k, y_,l) = g_kl.  The monitored curvature
defect is Delta(K) = b(t)/g(t) - b/g for the determinants b, g; the
variation of g/b, (Delta(g) - (g/b) Delta(b)) / b(t), equals
-Delta(K) / (K K(t)) and vanishes with it.

Time rates: W1-dot and Delta(g_ij)-dot have explicit forms and are built
directly; rates of the M-cascade come from backward differences over the
step history.  The right-hand sides of the elliptic pair collect into
psi1-dot (curl equation) and psi3 = qb0 P - P0 (divergence equation).

Terms that vanish identically are not formed.  In a flat metric every term
carrying a metric derivative, a Christoffel symbol or a_t - a0 is zero; under
an identity propagator (flat, or t = 0) so is Delta(B)'s transport tail,
and with vanishing N/Q coefficients so is Psi_1.  Each kernel lists its
terms in one sum and adds the vanishing ones under one predicate, in the
order of the full sum, so a curved result keeps its bits.  |n_t| differs
from 1 by round-off even in a flat metric, so Delta(B)'s normalization
terms stay.

The kernels read a(y + z) and Gamma0(., z) from the state's caches
(``DeformationState.ambient_a`` and ``.gamma0_z``) and meet Gamma and d a,
at the surface points and the displaced points alike, only contracted,
through the metric's ``christoffel_contract`` and ``dmetric_contract``.
Each kernel's ``metric`` must be ``surface.metric``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce

import numpy as np

from ._contract import node_last
from .errors import DegenerateCurvatureError, GeometryError, MgError
from .gdef import DeformationState, GDefCoefficients, tangential_grad
from .metrics import AmbientMetric
from .surface import SurfaceState, require_surface_metric
from .transport import NormalTransport, transport_normal


def _sym(m):
    """m_ij + m_ji of a node-last (2, 2, N) field."""
    return m + np.swapaxes(m, 0, 1)


def _gtrace(g_inv, m):
    """g^ij m_ij, node-last."""
    return np.einsum("ijn,ijn->n", g_inv, m)


def _total(terms):
    """terms[0] + terms[1] + ..., summed left to right."""
    return reduce(np.add, terms)


def _form_product(a, u, v):
    """a(u_i, v_j) per node: node-last (3, 3, N), (3, 2, N) -> (2, 2, N)."""
    return np.einsum("abn,ain,bjn->ijn", a, u, v)


@dataclass
class GVariation:
    dg_ij: np.ndarray   # (2, 2, N)
    dg: np.ndarray      # (N,) det g(t) - det g


@dataclass
class BVariation:
    m4: np.ndarray      # (2, 2, N)
    db_ij: np.ndarray   # (2, 2, N)
    dK: np.ndarray      # true defect K(t) - K with K = det b / det g


@dataclass
class VariationRates:
    w1dot: np.ndarray     # (N,)
    dgdot_ij: np.ndarray  # (2, 2, N)
    p0: np.ndarray        # (N,)


@dataclass
class EquationCoefficients:
    """t-independent coefficient fields of the elliptic pair; qb_k =
    d_k ln det g is twice q_k = d_k ln sqrt(det g)."""

    p1: np.ndarray
    p2: np.ndarray
    qb1: np.ndarray
    qb2: np.ndarray
    qb0: np.ndarray


def delta_g(metric: AmbientMetric, surface: SurfaceState,
            deform: DeformationState) -> GVariation:
    """First-form variation at the state's displacement, no linearization
    in z.  The terms in da, Gamma and a_t - a0 are formed only in a curved
    metric; Gamma0 is symmetric in its lower indices, so D*z's connection
    term Gamma0(y_,j, z) is the state's ``gamma0_z`` applied to y_,j."""
    require_surface_metric(metric, surface)
    tang, a0 = surface.tang, surface.ambient_a
    zder, a_t = deform.dz, deform.ambient_a
    dstar_z = zder
    curved_terms = []
    if not metric.is_flat():
        da0z = metric.dmetric_contract(surface.y, node_last(deform.z))
        dstar_z = zder + np.einsum("agn,gjn->ajn", deform.gamma0_z, tang)
        da_t = a_t - a0
        mid = _form_product(da_t - da0z, tang, tang)
        cross = _form_product(da_t, tang, zder)
        curved_terms = [mid, _sym(cross)]

    lead = _form_product(a0, tang, dstar_z)
    quad = _form_product(a_t, zder, zder)
    dg_ij = _total([_sym(lead), *curved_terms, quad])

    w2 = dg_ij[0, 0] * dg_ij[1, 1] - dg_ij[0, 1] ** 2
    dg = surface.g_det * _gtrace(surface.g_inv, dg_ij) + w2
    return GVariation(dg_ij=dg_ij, dg=dg)


def delta_b(metric: AmbientMetric, surface: SurfaceState, deform: DeformationState,
            fwd: NormalTransport, gvar: GVariation) -> BVariation:
    """Second-form variation via the carried-normal cascade in closed form.

    The Christoffel and a_t - a0 terms are formed only in a curved metric,
    and the transport tail only where the propagator is not the identity
    (``fwd.identity``); D*n_t - D*n_0 is zero in a flat metric.
    """
    require_surface_metric(metric, surface)
    grid = surface.grid
    tang, a0, b0 = surface.tang, surface.ambient_a, surface.b
    zder = deform.dz                             # (3, 2, N)
    a_t = deform.ambient_a
    curved = not metric.is_flat()
    n_t = fwd.n_t

    norm = fwd.norm
    inv_norm = 1.0 / norm
    n_til = n_t * inv_norm
    dinv = grid.grad_last(inv_norm)              # (2, N)
    dstar_ntil = grid.grad_last(n_til)           # (3, 2, N), D*n~ when flat
    if curved:
        # Gamma_t(y_,j + z_,j, n_t), Gamma_t(n_t, .) contracted first; over
        # |n_t| it is D*n~'s connection term
        g_nt = metric.christoffel_contract(surface.y + deform.z, n_t)
        gamma_nt = np.einsum("gbn,bjn->gjn", g_nt, tang + zder)
        dstar_ntil = dstar_ntil + gamma_nt * inv_norm

    lin = np.einsum("kin,jkn->ijn", deform.da, b0)   # (d_i a^k) b_jk
    m2 = -_form_product(a_t, zder, dstar_ntil) - lin

    m3 = np.swapaxes(b0, 0, 1) * ((1.0 - norm) * inv_norm)
    if curved:
        # D*n_t - D*n_0: the transport tail d(n_t - n_0) and the
        # Christoffel terms
        tails = [] if fwd.identity else [grid.grad_last(n_t) - surface.n_deriv]
        dstar_dn = _total([*tails, gamma_nt]) - surface.gamma_n
        dstar_nt = surface.dstar_n + dstar_dn
        m3 = (m3 - _form_product(a0, tang, dstar_dn) * inv_norm
              - _form_product(a_t - a0, tang, dstar_nt) * inv_norm)
    at_y_nt = np.einsum("abn,ain,bn->in", a_t, tang, n_t)
    m4 = m2 + m3 - at_y_nt[:, None, :] * dinv[None, :, :]

    db_ij = lin + m4
    w2b = db_ij[0, 0] * db_ij[1, 1] - db_ij[0, 1] * db_ij[1, 0]
    db = surface.V * (db_ij[0, 0] + db_ij[1, 1]) + w2b
    b_t = surface.b_det + db
    if np.any(b_t <= 0):
        node = int(np.argmax(b_t <= 0))
        raise DegenerateCurvatureError(
            f"deformed second-form determinant vanished at node {node}"
        )
    g_t = surface.g_det + gvar.dg
    dK = b_t / g_t - surface.b_det / surface.g_det
    return BVariation(m4=m4, db_ij=db_ij, dK=dK)


def assemble_variation(metric, surface, deform: DeformationState, history=None):
    """Full variation state at the history's final time; a given ``history``
    must end at the state's displacement and only swaps the final rate."""
    require_surface_metric(metric, surface)
    hist = history if history is not None else deform.history
    gvar = delta_g(metric, surface, deform)
    fwd = transport_normal(metric, surface.y, hist, surface.n, ambient_a=deform.ambient_a)
    bvar = delta_b(metric, surface, deform, fwd, gvar)
    return gvar, bvar, fwd


def equation_coefficients(surface: SurfaceState) -> EquationCoefficients:
    """p_k, qb_k and qb0 = 4H; all t-independent."""
    grid = surface.grid
    if np.any(surface.V <= 0) or np.any(surface.g_det <= 0):
        raise GeometryError("coefficients need V > 0 and det g > 0")
    v1, v2 = grid.grad_last(np.log(surface.V))
    qb1, qb2 = grid.grad_last(np.log(surface.g_det))
    return EquationCoefficients(p1=v2, p2=-v1, qb1=qb1, qb2=qb2, qb0=4.0 * surface.H)


def assemble_rates(metric: AmbientMetric, surface: SurfaceState,
                   deform: DeformationState, gvar: GVariation, bvar: BVariation,
                   zdot, a1dot, a2dot, prev_m4=None, dt=None,
                   m4dot_override=None, dadot=None, zdot_der=None) -> VariationRates:
    """Time rates of the variation fields at the current iterate.

    ``zdot`` is the (N, 3) displacement rate and ``zdot_der`` its partials
    zdot_,i as (3, 2, N); ``dadot`` is d_i adot^j as (j, i, N), e.g. a cdot
    solve's.  Each derivative is taken here when not given.
    The M4 rate is ``m4dot_override``, or else the backward difference
    (M4 - ``prev_m4``) / ``dt``; without either it is an error, as a zero M4
    rate is wrong at every step of a flow.  ``prev_m4`` and
    ``m4dot_override`` are node-last (2, 2, N).  The terms in da, Gamma and
    a_t - a0 (t1 to t4) are formed only in a curved metric.
    """
    require_surface_metric(metric, surface)
    if m4dot_override is None and (prev_m4 is None or not dt):
        raise MgError("the M4 rate needs m4dot_override, or prev_m4 with dt")
    grid = surface.grid
    tang, a0, g_inv = surface.tang, surface.ambient_a, surface.g_inv
    zder = deform.dz
    zdot_l = node_last(zdot)
    if zdot_der is None:
        zdot_der = grid.grad_last(zdot_l)        # (3, 2, N)
    a_t = deform.ambient_a
    dstar_zdot = zdot_der
    w1dot_curved, dgdot_curved = [], []
    if not metric.is_flat():
        da_t_zdot = metric.dmetric_contract(surface.y + deform.z, zdot_l)
        da0_zdot = metric.dmetric_contract(surface.y, zdot_l)
        t1 = _form_product(da_t_zdot - da0_zdot, tang, tang)
        t2 = _form_product(da_t_zdot, tang, zder)
        t3 = _form_product(a_t - a0, tang, zdot_der)
        t4 = _form_product(da_t_zdot, zder, zder)
        w1dot_curved = [_gtrace(g_inv, t1), 2 * _gtrace(g_inv, t2),
                        2 * _gtrace(g_inv, t3), _gtrace(g_inv, t4)]
        dgdot_curved = [t1, _sym(t2), _sym(t3), t4]
        gzd = metric.christoffel_contract(surface.y, zdot_l)
        dstar_zdot = zdot_der + np.einsum("agn,gjn->ajn", gzd, tang)

    t5 = _form_product(a_t, zdot_der, zder)
    t6 = _form_product(a_t, zder, zdot_der)
    w1dot = _total([*w1dot_curved, _gtrace(g_inv, t5), _gtrace(g_inv, t6)])
    s_lead = _form_product(a0, tang, dstar_zdot)
    dgdot_ij = _total([_sym(s_lead), *dgdot_curved, t5, t6])
    dg_ij = gvar.dg_ij
    w2dot = (
        dgdot_ij[0, 0] * dg_ij[1, 1]
        + dg_ij[0, 0] * dgdot_ij[1, 1]
        - 2.0 * dg_ij[0, 1] * dgdot_ij[0, 1]
    )

    m4dot = m4dot_override if m4dot_override is not None else (bvar.m4 - prev_m4) / dt
    if dadot is None:
        dadot = tangential_grad(grid, a1dot, a2dot)
    dbdot_ij = np.einsum("kin,jkn->ijn", dadot, surface.b) + m4dot
    db_ij = bvar.db_ij
    w2bdot = (
        dbdot_ij[0, 0] * db_ij[1, 1]
        + db_ij[0, 0] * dbdot_ij[1, 1]
        - dbdot_ij[0, 1] * db_ij[1, 0]
        - db_ij[0, 1] * dbdot_ij[1, 0]
    )
    p0 = (
        w1dot
        + w2dot / surface.g_det
        - (m4dot[0, 0] + m4dot[1, 1]) / surface.V
        - w2bdot / surface.V**2
    )
    return VariationRates(w1dot=w1dot, dgdot_ij=dgdot_ij, p0=p0)


def psi1_bracket(surface: SurfaceState, coeffs: GDefCoefficients,
                 deform: DeformationState):
    """The curl-equation source Psi_1 = -(...)/V at the current state; 0,
    with nothing differentiated, where the coefficients vanish."""
    if coeffs.vanish:
        return np.zeros(surface.grid.n_nodes)
    dc, da = deform.dc, deform.da
    dn = surface.grid.grad_last(coeffs.n_j)    # (j, i, N) = d_i N_j
    dq = surface.grid.grad_last(coeffs.q_i)    # (k, i, N) = d_i Q_k
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
