"""Time-stepping driver for the curvature-preserving deformation.

Each step solves the boundary-value problem for the tangential rates once,
with the free parameters pinned to the point-fixing condition w = 0 at the
disk center inside the solve, reconstructs the normal rate from line
integrals anchored at the center, and advances the state by explicit Euler
while monitoring every defining property at every step: curvature defect
(formula and rebuild oracle), normal-transport residual, boundary condition,
fixed point, and the family dimension.

The complex unknown is w = a2dot + i a1dot = i conj(a1dot + i a2dot), for
which the elliptic pair takes the d_zbar form on the disk as it is.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field

import numpy as np

from ._contract import node_last
from .cdot import PathIntegrator, solve_cdot
from .errors import BoundaryDegeneracyError, MgError, UnderResolvedError
from .gdef import (
    DeformationState,
    assemble_coefficients,
    gdef_normal_residual,
    new_deformation,
    tangential_grad,
)
from .kpres import (
    assemble_rates,
    assemble_variation,
    delta_b,
    equation_coefficients,
    rhs_psi,
)
from .surface import SurfaceState, gauss_curvature_of
from .transport import transport_normal
from .vekua import (
    BoundaryProblem,
    PointPin,
    bvp_solve,
    canonicalize,
    linear_response_basis,
    point_pin,
)


# -- boundary plug-ins --------------------------------------------------------

def _winding_field(b, theta):
    # the rim samples of windings k and k +- n_theta coincide, so a winding
    # the rim cannot resolve would run as its alias
    if 2 * abs(b.winding) >= len(theta):
        raise UnderResolvedError(
            f"winding {b.winding} needs |winding| < n_theta/2 = {len(theta) / 2:g}; "
            "refine the boundary ring"
        )
    ang = -b.winding * theta + b.phase
    return np.stack([np.cos(ang), np.sin(ang)], axis=-1)


# the tangent field l^i and the boundary rate along the rim, by kind
TANGENT_KINDS = {
    "winding": _winding_field,
    "first_tangent": lambda b, theta: np.tile([1.0, 0.0], (len(theta), 1)),
}
GAMMA_KINDS = {
    "harmonic": lambda b, theta: b.epsilon * np.cos(b.mode * theta + b.gamma_phase),
    "zero": lambda b, theta: np.zeros_like(theta),
}


def _plugin(kinds, what, kind):
    if kind not in kinds:
        raise MgError(f"unknown {what} kind {kind!r}")
    return kinds[kind]


@dataclass
class BoundarySpec:
    """Tangent field and boundary rate data along the rim; the fields are
    the keys of the config's [boundary] section."""

    tangent_kind: str = "winding"
    winding: int = 1
    phase: float = 0.0
    gamma_kind: str = "harmonic"
    epsilon: float = 1e-3
    mode: int = 1
    gamma_phase: float = 0.0

    def l_field(self, theta):
        return _plugin(TANGENT_KINDS, "tangent", self.tangent_kind)(self, theta)

    def gamma_dot(self, theta):
        return _plugin(GAMMA_KINDS, "gamma", self.gamma_kind)(self, theta)


@dataclass
class FlowConfig:
    """Step and monitor settings; the fields are the keys of the config's
    [flow] section.  The solves run at their own tolerances and caps."""

    t_final: float = 0.05
    dt: float = 0.0025
    tol_k: float = 1e-4
    tol_g: float = 1e-6
    tol_b: float = 1e-6

    @property
    def n_steps(self):
        """Steps of size dt to t_final; ``advance`` counts whole steps."""
        return round(self.t_final / self.dt)

    def validate(self):
        if not (0 < self.dt < np.inf and 0 < self.t_final < np.inf):
            raise MgError(f"dt and t_final must be positive and finite, "
                          f"got dt = {self.dt!r}, t_final = {self.t_final!r}")
        ratio = self.t_final / self.dt
        if not np.isfinite(ratio):
            raise MgError(f"t_final/dt must be finite, got {ratio!r}")
        if self.n_steps < 1 or abs(ratio - self.n_steps) > 1e-9 * self.n_steps:
            raise MgError(f"t_final must be a whole number of steps dt, "
                          f"got t_final/dt = {ratio:.17g}")


# -- per-step bookkeeping ------------------------------------------------------

@dataclass
class PrevRecords:
    coeffs: object = None      # GDefCoefficients at the previous step
    m4: np.ndarray | None = None
    psi1: np.ndarray | None = None
    inner: tuple | None = None         # (v_n, (I - L) v_n): the previous solve's start
    inner_before: tuple | None = None  # and the one before it, (v_{n-1}, (I - L) v_{n-1})

    def start(self):
        """Start of the next step's solve: the linear extrapolation
        2 v_n - v_{n-1} of the last two solves' unpinned inner solutions,
        with their images under I - L, which is fixed over the flow, taken
        with the same weights; v_n after one step, None at step 0.  It keeps
        the fixed boundary data exactly, and the center pin is linear, so
        the solve's first iterate is 2 w_n - w_{n-1}."""
        if self.inner is None or self.inner_before is None:
            return self.inner
        return tuple(2.0 * a - b for a, b in zip(self.inner, self.inner_before))


@dataclass
class FlowStatics:
    eq: object
    problem: BoundaryProblem   # A, B, E, symbol and phi in w
    sym: object
    integ: PathIntegrator
    pin: PointPin | None       # linear-response basis pin (None for n < 0)
    k_base: np.ndarray         # rebuild-oracle curvature of the undeformed surface
    k_scale: float             # max |K| of the undeformed surface
    rim_metric: np.ndarray     # ambient metric at the rim nodes, node last
    rim_dir: np.ndarray        # l^i y_,i at the rim nodes, node last
    gamma_dot: np.ndarray      # boundary rate at the rim nodes


@dataclass
class StepRecord:
    step: int
    t_new: float
    n: int
    dk_max_rel: float
    dk_oracle_rel: float
    g_residual: float
    boundary_residual: float
    fixed_point_z: float
    bvp_iterations: int
    bvp_ratio: float
    bvp_passes: int
    bvp_fixed_point_residual: float
    cdot_iterations: int
    cdot_rate: float
    cdot_residual: float
    family_dimension_before: int
    family_dimension_after: int
    params: list
    rate_sup: float
    step_displacement: float

    def as_dict(self):
        return asdict(self)


@dataclass
class FlowState:
    surface: SurfaceState      # its ``metric`` is the flow's ambient metric
    deform: DeformationState
    config: FlowConfig
    statics: FlowStatics
    step_index: int = 0
    prev: PrevRecords = field(default_factory=PrevRecords)
    records: list = field(default_factory=list)
    # per-node fields of the last completed step, replaced at every step
    fields: dict | None = field(default=None, init=False)
    # assemble_variation of ``deform`` along its own history: the monitors
    # of the step that made the state form it, and step 0 on first use
    variation: tuple | None = field(default=None, init=False)


def init_flow(surface, boundary, config) -> FlowState:
    """A flow from the undeformed ``surface`` in the metric it was built
    with, ``surface.metric``."""
    config.validate()
    return FlowState(surface=surface, deform=new_deformation(surface),
                     config=config, statics=_build_statics(surface, boundary))


def _assemble_ab(eq):
    """A, B and E's point factor of the elliptic pair in w.

    In u = a1dot + i a2dot the pair reads i d_z u + A_u u + B_u conj(u) + E
    = psi, A_u = (p1 + qb2 + i qb1 - i p2)/4, B_u = (p1 - qb2 + i qb1 + i p2)/4;
    in w = i conj(u) it is d_zbar w + A w + B conj(w) + E = -conj(psi) with
    A = i conj(A_u), B = -i conj(B_u) and the same E: (i qb0 / 2) at the field
    point times V at the integration point, ``e_swap`` pairing (Im w, Re w) =
    (a1dot, a2dot) with (dx1, dx2).
    """
    a_u = 0.25 * (eq.p1 + eq.qb2 + 1j * eq.qb1 - 1j * eq.p2)
    b_u = 0.25 * (eq.p1 - eq.qb2 + 1j * eq.qb1 + 1j * eq.p2)
    return 1j * np.conj(a_u), -1j * np.conj(b_u), 0.5j * eq.qb0


def _boundary_data(surface, l_field, gamma_dot):
    """Symbol lambda and data phi of the rim condition Re{conj(lambda) w} = phi.

    With l^i the tangent field at the rim nodes and lambda~_k = g_ki l^i,
    a(z_dot, l) = gamma_dot reads Re{conj(lambda_u) u} = phi for lambda_u =
    (lambda~_1 + i lambda~_2) / |lambda~|^2 and phi = gamma_dot / |lambda~|^2,
    both divided by |lambda_u|; in w = i conj(u), lambda = i conj(lambda_u).
    """
    g = surface.g[..., surface.grid.boundary_idx]
    lam_tilde = np.einsum("kin,ni->nk", g, l_field)
    den = lam_tilde[:, 0] ** 2 + lam_tilde[:, 1] ** 2
    if np.min(den) < 1e-14:
        raise BoundaryDegeneracyError("tangent field degenerates against the surface on the rim")
    lam_k = lam_tilde / den[:, None]
    phi = gamma_dot / den
    lam_u = lam_k[:, 0] + 1j * lam_k[:, 1]
    scale = np.abs(lam_u)
    return 1j * np.conj(lam_u / scale), phi / scale


def _build_statics(surface, boundary) -> FlowStatics:
    """The solve setup and rim data, all fixed over a flow."""
    grid = surface.grid
    eq = equation_coefficients(surface)
    a, b, e0_point = _assemble_ab(eq)
    theta, bidx = grid.boundary_theta, grid.boundary_idx
    l_field = boundary.l_field(theta)
    gamma_dot = boundary.gamma_dot(theta)
    lam, phi = _boundary_data(surface, l_field, gamma_dot)
    sym = canonicalize(grid, lam)
    problem = BoundaryProblem(grid=grid, lam=lam, phi=phi, A=a, B=b,
                              e0_point=e0_point, e0_weight=surface.V, e_swap=True)
    # A, B, E and the symbol are fixed over the flow, so the linear response
    # of each family member is solved once, here
    pin = point_pin(linear_response_basis(problem, sym)) if sym.n >= 0 else None
    return FlowStatics(
        eq=eq, problem=problem, sym=sym,
        integ=PathIntegrator(grid), pin=pin,
        k_base=gauss_curvature_of(grid, surface.metric, surface.y),
        k_scale=float(np.max(np.abs(surface.K))),
        rim_metric=surface.ambient_a[..., bidx],
        rim_dir=np.einsum("in,sin->sn", node_last(l_field), surface.tang[..., bidx]),
        gamma_dot=gamma_dot,
    )


def _make_assembler(state: FlowState):
    """psi-dot assembler closure over the current state; caches the pieces
    of its most recent evaluation for the advance step.  The cdot solve's
    last ``coeff_fn`` call is at the cdot it returns, so that call's trial
    history, with its propagator memoised, serves the carried normal, and
    its final rate sample is zdot.  The state's own variation serves every
    call: its Delta(G) depends on the state alone, and its Delta(B) and
    carried normal do too where the propagator is the identity (flat, or
    step 0).  Elsewhere they are formed on the trial history."""
    surface = state.surface
    metric = surface.metric
    st = state.statics
    deform = state.deform
    prev = state.prev
    cfg = state.config
    cache = {}
    if state.variation is None:
        state.variation = assemble_variation(metric, surface, deform)
    gvar, state_bvar, state_fwd = state.variation
    n = surface.grid.n_nodes

    def assembler(w):
        a1dot = np.ascontiguousarray(w.imag)
        a2dot = np.ascontiguousarray(w.real)
        # the rates and their derivatives are taken once per call; a flow's
        # first solve starts at w = 0, where both vanish identically
        dadot = (tangential_grad(surface.grid, a1dot, a2dot) if w.any()
                 else np.zeros((2, 2, n)))
        hist = None

        def coeff_fn(cdot_iter):
            nonlocal hist
            hist = deform.history_with_rates(a1dot, a2dot, cdot_iter)
            return assemble_coefficients(metric, surface, deform, history=hist,
                                         prev=prev.coeffs, dt=cfg.dt)

        sol = solve_cdot(
            surface, coeff_fn, deform.a1, deform.a2,
            a1dot, a2dot, st.integ, da=deform.da, dadot=dadot,
        )
        bvar = state_bvar
        if not state_fwd.identity:
            # the carried normal depends on the trial rate
            bvar = delta_b(metric, surface, deform,
                           transport_normal(metric, surface.y, hist, surface.n,
                                            ambient_a=deform.ambient_a), gvar)
        zdot = hist.zdot[-1]
        zdot_der = (surface.grid.grad_last(node_last(zdot)) if zdot.any()
                    else np.zeros((3, 2, n)))
        m4dot_override = None
        if prev.m4 is None:
            # first step: no stored history yet, so the M4 rate comes from a
            # virtual forward state advanced with the current iterate rates;
            # the rate map is linear at the zero state, so the virtual step is
            # clamped to keep the displaced geometry admissible for any iterate
            rate_scale = max(1.0, float(np.max(np.abs(zdot))))
            delta = min(cfg.dt, 1e-3 / rate_scale)
            deform_v = deform.advance(delta, a1dot, a2dot, sol.cdot, hist,
                                      dzdot=zdot_der, dadot=dadot)
            _, bvar_v, _ = assemble_variation(metric, surface, deform_v)
            m4dot_override = (bvar_v.m4 - bvar.m4) / delta
        rates = assemble_rates(
            metric, surface, deform, gvar, bvar, zdot, a1dot, a2dot,
            prev_m4=prev.m4, dt=cfg.dt, m4dot_override=m4dot_override,
            dadot=dadot, zdot_der=zdot_der,
        )
        psi1dot, psi3, _, psi1 = rhs_psi(
            surface, sol.coeffs, deform, rates, st.eq.qb0, sol.p_field,
            prev_psi1=prev.psi1, dt=cfg.dt,
        )
        cache["last"] = {"sol": sol, "hist": hist, "bvar": bvar, "psi1": psi1,
                         "zdot_der": zdot_der}
        # -conj(psi) for psi = (psi1dot + i psi3) / 2
        return 0.5 * (-psi1dot + 1j * psi3)

    return assembler, cache


def step(state: FlowState):
    """One explicit-Euler step; returns the appended trace record."""
    cfg, st = state.config, state.statics
    surface, grid = state.surface, state.surface.grid
    metric = surface.metric
    assembler, cache = _make_assembler(state)
    prev = state.prev
    final = bvp_solve(st.problem, assembler, pin=st.pin, sym=st.sym, start=prev.start())
    dim_before = st.sym.family_size
    dim_after = dim_before - (st.pin.rank if st.pin else 0)

    # bvp_solve returns its last assembled iterate, so the cached cdot/kpres
    # pieces already belong to final.w
    last = cache["last"]
    sol = last["sol"]
    a1dot = np.ascontiguousarray(final.w.imag)
    a2dot = np.ascontiguousarray(final.w.real)

    dt = cfg.dt
    # times count whole steps, so they do not drift by repeated addition;
    # the final pass differentiated the rates, so the successor's z_,i and
    # d_i a^j follow from them, and its trial history at the accepted rate
    # has integrated the successor's transport prefix
    deform_new = state.deform.advance(dt, a1dot, a2dot, sol.cdot, last["hist"],
                                      dzdot=last["zdot_der"], dadot=sol.dadot)
    t_new = deform_new.t
    z_new = deform_new.z
    zdot = deform_new.rate_displacement()

    # monitors at the advanced state, whose variation the next step reuses
    variation_n = assemble_variation(metric, surface, deform_new)
    bvar_n = variation_n[1]
    dk_rel = float(np.max(np.abs(bvar_n.dK))) / st.k_scale
    k_def = gauss_curvature_of(grid, metric, surface.y + z_new)
    dk_oracle = float(np.max(np.abs(k_def - st.k_base))) / st.k_scale
    g_res_fields = gdef_normal_residual(metric, surface, deform_new)
    g_res = float(np.max(np.abs(g_res_fields)))
    lhs = np.einsum("abn,an,bn->n", st.rim_metric,
                    node_last(z_new[grid.boundary_idx]), st.rim_dir)
    # the shipped rate plug-ins are steady, so the primitive is t * rate
    b_res = float(np.max(np.abs(lhs - t_new * st.gamma_dot)))
    z_x0 = float(np.linalg.norm(z_new[0]))

    rec = StepRecord(
        step=state.step_index, t_new=t_new, n=st.sym.n,
        dk_max_rel=dk_rel, dk_oracle_rel=dk_oracle, g_residual=g_res,
        boundary_residual=b_res, fixed_point_z=z_x0,
        bvp_iterations=final.iterations, bvp_ratio=final.ratio,
        bvp_passes=final.passes,
        bvp_fixed_point_residual=final.fixed_point_residual,
        cdot_iterations=sol.iterations, cdot_rate=sol.rate,
        cdot_residual=sol.residual,
        family_dimension_before=dim_before,
        family_dimension_after=dim_after,
        params=[float(p) for p in final.params],
        rate_sup=float(np.max(np.abs(zdot))),
        step_displacement=float(dt * np.max(np.abs(zdot))),
    )
    state.fields = {
        "a1": deform_new.a1, "a2": deform_new.a2, "c": deform_new.c, "dK": bvar_n.dK,
        "g_res1": g_res_fields[0], "g_res2": g_res_fields[1],
    }
    state.prev = PrevRecords(coeffs=sol.coeffs, m4=last["bvar"].m4, psi1=last["psi1"],
                             inner=final.start, inner_before=prev.inner)
    state.deform = deform_new
    state.variation = variation_n
    state.step_index += 1
    state.records.append(rec)
    return rec


def run_flow(state: FlowState, on_step=None):
    """Step to t_final and report the monitored maxima over all steps.

    ``on_step(rec)`` runs after each completed step.  A failing step raises
    its own error; the records of the completed steps stay in
    ``state.records``.
    """
    while state.step_index < state.config.n_steps:
        rec = step(state)
        if on_step is not None:
            on_step(rec)
    recs = state.records
    return {
        "steps": len(recs),
        "t_final": state.deform.t,
        "index": state.statics.sym.n,
        "max_dk_rel": max((r.dk_max_rel for r in recs), default=0.0),
        "max_dk_oracle_rel": max((r.dk_oracle_rel for r in recs), default=0.0),
        "max_g_residual": max((r.g_residual for r in recs), default=0.0),
        "max_boundary_residual": max((r.boundary_residual for r in recs), default=0.0),
        "max_fixed_point_z": max((r.fixed_point_z for r in recs), default=0.0),
        "family_dimension_before": recs[-1].family_dimension_before if recs else None,
        "family_dimension_after": recs[-1].family_dimension_after if recs else None,
        "max_rate_sup": max((r.rate_sup for r in recs), default=0.0),
    }
