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

from dataclasses import dataclass, field, replace

import numpy as np

from ._contract import node_last
from .cdot import PathIntegrator, solve_cdot
from .errors import MgError
from .gdef import (
    DeformationState,
    assemble_coefficients,
    gdef_normal_residual,
    new_deformation,
)
from .kpres import (
    assemble_rates,
    assemble_variation,
    equation_coefficients,
    rhs_psi,
)
from .surface import SurfaceState, gauss_curvature_of
from .vekua import (
    BoundaryProblem,
    PointPin,
    assemble_AB,
    boundary_data,
    bvp_solve,
    canonicalize,
    point_pin,
    solve_family,
)


# -- boundary plug-ins --------------------------------------------------------

@dataclass
class BoundarySpec:
    """Tangent field and boundary rate data along the rim."""

    tangent_kind: str = "winding"
    winding: int = 1
    phase: float = 0.0
    gamma_kind: str = "harmonic"
    epsilon: float = 1e-3
    mode: int = 1
    gamma_phase: float = 0.0

    def l_field(self, theta):
        if self.tangent_kind == "winding":
            ang = -self.winding * theta + self.phase
            return np.stack([np.cos(ang), np.sin(ang)], axis=-1)
        if self.tangent_kind == "first_tangent":
            out = np.zeros((len(theta), 2))
            out[:, 0] = 1.0
            return out
        raise MgError(f"unknown tangent kind {self.tangent_kind!r}")

    def gamma_dot(self, theta, t):
        if self.gamma_kind == "zero":
            return np.zeros_like(theta)
        if self.gamma_kind == "harmonic":
            return self.epsilon * np.cos(self.mode * theta + self.gamma_phase)
        raise MgError(f"unknown gamma kind {self.gamma_kind!r}")

    def gamma(self, theta, t):
        # the shipped rate plug-ins are steady, so the primitive is t * rate
        return t * self.gamma_dot(theta, 0.0)


@dataclass
class FlowConfig:
    t_final: float = 0.05
    dt: float = 0.0025
    tol_bvp: float = 1e-10
    tol_cdot: float = 1e-10
    max_iter_bvp: int = 60
    max_iter_cdot: int = 50
    tol_K: float = 1e-4
    tol_G: float = 1e-6
    tol_B: float = 1e-6
    capture_fields: bool = False           # stash per-node fields in records

    @property
    def n_steps(self):
        """Steps of size dt to t_final; the stored history stays uniform."""
        return round(self.t_final / self.dt)

    def validate(self):
        if self.dt <= 0 or self.t_final <= 0:
            raise MgError("dt and t_final must be positive")
        ratio = self.t_final / self.dt
        if self.n_steps < 1 or abs(ratio - self.n_steps) > 1e-9 * self.n_steps:
            raise MgError(f"t_final must be a whole number of steps dt, "
                          f"got t_final/dt = {ratio:.17g}")
        for name in ("max_iter_bvp", "max_iter_cdot"):
            if getattr(self, name) < 1:
                raise MgError(f"{name} must be at least 1, got {getattr(self, name)}")


# -- per-step bookkeeping ------------------------------------------------------

@dataclass
class PrevRecords:
    coeffs: object = None      # GDefCoefficients at the previous step
    m4: np.ndarray | None = None
    psi1: np.ndarray | None = None
    dt: float | None = None


@dataclass
class FlowStatics:
    eq: object
    problem: BoundaryProblem   # A, B, E and symbol in w; phi set per step
    sym: object
    n: int
    integ: PathIntegrator
    pin: PointPin | None       # linear-response basis pin (None for n < 0)
    k_base: np.ndarray         # rebuild-oracle curvature of the undeformed surface


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
    bvp_mode: str
    bvp_fixed_point_residual: float
    cdot_iterations: int
    cdot_rate: float
    cdot_residual: float
    family_dimension_before: int
    family_dimension_after: int
    params: list
    rate_sup: float
    step_displacement: float
    fields: dict | None = None

    def as_dict(self):
        return {k: getattr(self, k) for k in self.__dataclass_fields__
                if k != "fields"}


@dataclass
class FlowState:
    metric: object
    surface: SurfaceState
    deform: DeformationState
    boundary: BoundarySpec
    config: FlowConfig
    step_index: int = 0
    prev: PrevRecords = field(default_factory=PrevRecords)
    statics: FlowStatics | None = None
    records: list = field(default_factory=list)


def init_flow(metric, surface, boundary, config) -> FlowState:
    config.validate()
    return FlowState(metric=metric, surface=surface, deform=new_deformation(surface),
                     boundary=boundary, config=config)


def _build_statics(state: FlowState) -> FlowStatics:
    surface, grid, cfg = state.surface, state.surface.grid, state.config
    eq = equation_coefficients(surface)
    # assemble_AB and boundary_data speak of u = a1dot + i a2dot, whose pair
    # reads i d_z u + A u + B conj(u) + E = psi; in w = i conj(u) it becomes
    # d_zbar w + i conj(A) w - i conj(B) conj(w) + E = -conj(psi) with the
    # symbol i conj(lam).  E is imaginary, so it is unchanged, and e_swap
    # pairs (Im w, Re w) = (a1dot, a2dot) with (dx1, dx2).
    a_u, b_u, e0_point, e0_weight = assemble_AB(
        eq.p1, eq.p2, eq.qb1, eq.qb2, q0=eq.qb0, v=surface.V,
    )
    theta = grid.boundary_theta
    l_field = state.boundary.l_field(theta)
    gdot0 = state.boundary.gamma_dot(theta, 0.0)
    lam_u, _, _ = boundary_data(surface, l_field, gdot0)
    lam = 1j * np.conj(lam_u)
    sym = canonicalize(grid, lam)
    problem = BoundaryProblem(
        grid=grid, lam=lam, phi=np.zeros(grid.n_theta),
        A=1j * np.conj(a_u), B=-1j * np.conj(b_u),
        e0_point=e0_point, e0_weight=e0_weight, e_swap=True,
    )
    pin = None
    if sym.n >= 0:
        # A, B, E and the symbol are fixed over the flow, so the linear
        # response of each family member is solved once, here
        family, _ = solve_family(problem, tol=cfg.tol_bvp, max_iter=cfg.max_iter_bvp,
                                 mode="auto", sym=sym)
        pin = point_pin(family.basis)
    return FlowStatics(
        eq=eq, problem=problem, sym=sym, n=sym.n,
        integ=PathIntegrator(grid), pin=pin,
        k_base=gauss_curvature_of(grid, state.metric, surface.y),
    )


def _phi_for(state: FlowState, t):
    surface = state.surface
    theta = surface.grid.boundary_theta
    l_field = state.boundary.l_field(theta)
    gdot = state.boundary.gamma_dot(theta, t)
    _, phi, _ = boundary_data(surface, l_field, gdot)
    return phi


def _make_assembler(state: FlowState):
    """psi-dot assembler closure over the current state; caches the pieces
    of its most recent evaluation for the advance step."""
    metric, surface = state.metric, state.surface
    st = state.statics
    deform = state.deform
    prev = state.prev
    cfg = state.config
    cache = {}

    def coeff_fn_for(a1dot, a2dot):
        def coeff_fn(cdot_iter):
            hist = deform.history_with_rates(a1dot, a2dot, cdot_iter)
            return assemble_coefficients(
                metric, surface, deform, history=hist,
                prev=prev.coeffs, dt=prev.dt,
            )
        return coeff_fn

    def assembler(w):
        a1dot = np.ascontiguousarray(w.imag)
        a2dot = np.ascontiguousarray(w.real)
        sol = solve_cdot(
            surface, coeff_fn_for(a1dot, a2dot), deform.a1, deform.a2,
            a1dot, a2dot, st.integ, tol=cfg.tol_cdot, max_iter=cfg.max_iter_cdot,
            da=deform.da,
        )
        hist = deform.history_with_rates(a1dot, a2dot, sol.cdot)
        gvar, bvar, fwd = assemble_variation(metric, surface, deform, history=hist)
        zdot = deform.rate_displacement(a1dot, a2dot, sol.cdot)
        m4dot_override = None
        if prev.m4 is None:
            # first step: no stored history yet, so the M4 rate comes from a
            # virtual forward state advanced with the current iterate rates;
            # the rate map is linear at the zero state, so the virtual step is
            # clamped to keep the displaced geometry admissible for any iterate
            rate_scale = max(1.0, float(np.max(np.abs(zdot))))
            delta = min(cfg.dt, 1e-3 / rate_scale)
            deform_v = deform.advance(delta, a1dot, a2dot, sol.cdot)
            _, bvar_v, _ = assemble_variation(metric, surface, deform_v)
            m4dot_override = (bvar_v.m4 - bvar.m4) / delta
        rates = assemble_rates(
            metric, surface, deform, gvar, bvar, zdot, a1dot, a2dot,
            prev_m4=prev.m4, dt=prev.dt, m4dot_override=m4dot_override,
            dadot=sol.dadot,
        )
        psi1dot, psi3, _, psi1 = rhs_psi(
            surface, sol.coeffs, deform, rates, st.eq.qb0, sol.p_field,
            prev_psi1=prev.psi1, dt=prev.dt,
        )
        cache["last"] = {
            "sol": sol, "gvar": gvar, "bvar": bvar, "rates": rates,
            "psi1": psi1, "a1dot": a1dot, "a2dot": a2dot,
        }
        # -conj(psi) for psi = (psi1dot + i psi3) / 2
        return 0.5 * (-psi1dot + 1j * psi3)

    return assembler, cache


def step(state: FlowState):
    """One explicit-Euler step; returns the appended trace record."""
    cfg = state.config
    if state.statics is None:
        state.statics = _build_statics(state)
    st = state.statics
    surface, metric, grid = state.surface, state.metric, state.surface.grid
    assembler, cache = _make_assembler(state)
    problem = replace(st.problem, phi=_phi_for(state, state.deform.t))
    final = bvp_solve(problem, assembler, tol=cfg.tol_bvp, max_iter=cfg.max_iter_bvp,
                      pin=st.pin, mode="auto", sym=st.sym)
    dim_before = st.sym.family_size
    dim_after = dim_before - (st.pin.rank if st.pin else 0)

    # bvp_solve's last assembler call is at the returned iterate, so the
    # cached cdot/kpres pieces already belong to final.w
    last = cache["last"]
    sol = last["sol"]
    a1dot, a2dot, cdot = last["a1dot"], last["a2dot"], sol.cdot

    dt = cfg.dt
    # times count whole steps, so they do not drift by repeated addition
    deform_new = state.deform.advance(dt, a1dot, a2dot, cdot)
    t_new = deform_new.t
    z_new = deform_new.z
    zdot = deform_new.rate_displacement()

    # monitors at the advanced state
    gvar_n, bvar_n, _ = assemble_variation(metric, surface, deform_new)
    k_scale = float(np.max(np.abs(surface.K)))
    dk_rel = float(np.max(np.abs(bvar_n.dK))) / k_scale
    k_def = gauss_curvature_of(grid, metric, surface.y + z_new)
    dk_oracle = float(np.max(np.abs(k_def - st.k_base))) / k_scale
    g_res_fields = gdef_normal_residual(metric, surface, deform_new)
    g_res = float(np.max(np.abs(g_res_fields)))
    theta, bidx = grid.boundary_theta, grid.boundary_idx
    v_field = np.einsum("in,sin->sn", node_last(state.boundary.l_field(theta)),
                        node_last(surface.tang)[..., bidx])
    lhs = np.einsum("abn,an,bn->n", node_last(surface.ambient_a)[..., bidx],
                    node_last(z_new[bidx]), v_field)
    gamma_target = state.boundary.gamma(theta, t_new)
    b_res = float(np.max(np.abs(lhs - gamma_target)))
    z_x0 = float(np.linalg.norm(z_new[0]))

    rec = StepRecord(
        step=state.step_index, t_new=t_new, n=st.n,
        dk_max_rel=dk_rel, dk_oracle_rel=dk_oracle, g_residual=g_res,
        boundary_residual=b_res, fixed_point_z=z_x0,
        bvp_iterations=final.iterations, bvp_ratio=final.ratio,
        bvp_mode=final.mode,
        bvp_fixed_point_residual=final.fixed_point_residual,
        cdot_iterations=sol.iterations, cdot_rate=sol.rate,
        cdot_residual=sol.residual,
        family_dimension_before=dim_before,
        family_dimension_after=dim_after,
        params=[float(p) for p in final.params],
        rate_sup=float(np.max(np.abs(zdot))),
        step_displacement=float(dt * np.max(np.abs(zdot))),
    )
    if cfg.capture_fields:
        rec.fields = {
            "a1": deform_new.a1, "a2": deform_new.a2, "c": deform_new.c, "dK": bvar_n.dK,
            "g_res1": g_res_fields[:, 0], "g_res2": g_res_fields[:, 1],
        }

    state.prev = PrevRecords(coeffs=sol.coeffs, m4=last["bvar"].m4,
                             psi1=last["psi1"], dt=dt)
    state.deform = deform_new
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
        "index": state.statics.n if state.statics else None,
        "max_dk_rel": max((r.dk_max_rel for r in recs), default=0.0),
        "max_dk_oracle_rel": max((r.dk_oracle_rel for r in recs), default=0.0),
        "max_g_residual": max((r.g_residual for r in recs), default=0.0),
        "max_boundary_residual": max((r.boundary_residual for r in recs), default=0.0),
        "max_fixed_point_z": max((r.fixed_point_z for r in recs), default=0.0),
        "family_dimension_before": recs[-1].family_dimension_before if recs else None,
        "family_dimension_after": recs[-1].family_dimension_after if recs else None,
        "max_rate_sup": max((r.rate_sup for r in recs), default=0.0),
    }
