"""The benchmark's three workloads: seeded inputs, operations and checks.

Each workload builds its program objects in ``setup`` (the runner times it
in fresh processes), generates its inputs from the seed in ``prepare``
(untimed), and yields operations.  An operation runs the program only through public functions
and returns a ``Result`` whose checks decide whether its output is correct.
The first operation of a run is timed on its own (cold); after it the
workload repeats a fixed cycle of operations.
"""

from __future__ import annotations

import copy
import json
import os
from dataclasses import dataclass, field

import numpy as np

from mgdeform import cdot, cli, flow, gdef, kpres, surface, vekua
from mgdeform.errors import MgError
from mgdeform.grid import DiskGrid
from mgdeform.metrics import conformal_radial_metric
from mgdeform.transport import TransportHistory


@dataclass
class Result:
    """Outcome of one operation over ``units`` inputs (files, steps)."""

    missed: int = 0           # units whose output missed a check
    detail: str = ""
    quality: dict = field(default_factory=dict)
    fingerprint: str = ""     # equal for two runs of one operation
    units: int = 1
    errors: list = field(default_factory=list)   # exception class per failed unit


def _fingerprint(*values):
    return json.dumps([float(v) if np.ndim(v) == 0 else float(np.sum(np.abs(v)))
                       for v in values])


@dataclass
class Op:
    kind: str
    run: object            # callable -> Result
    fork: object = None    # callable -> callable running the same work on a copy
    units: int = 1         # units of work (steps, files) the operation attempts


def _smooth_field(rng, grid):
    """Random smooth real field: polynomial plus trigonometric terms."""
    c = rng.normal(size=5)
    x, y = grid.x1, grid.x2
    return (c[0] + c[1] * x + c[2] * y
            + c[3] * np.sin(1.5 * x) * np.cos(y) + c[4] * x * y)


# ---------------------------------------------------------------------------
# acceptance_flow
# ---------------------------------------------------------------------------

ACCEPTANCE_CONFIG = """
[metric]
kind = flat
[surface]
kind = sphere_cap
radius = 1.0
cap = 0.5
[grid]
n_r = {n_r}
n_theta = {n_theta}
[boundary]
tangent_kind = winding
winding = 1
gamma_kind = harmonic
epsilon = 1e-3
mode = 1
[flow]
t_final = 0.05
dt = 0.005
tol_k = 1e-4
tol_g = 1e-6
tol_b = 1e-6
"""


class AcceptanceFlow:
    """Why: this is the configuration users run (acceptance criterion 11).
    Its steps stress vekua's coupled outer loop, cdot, kpres, gdef and the
    grid derivatives; the flat metric makes transport and metrics return
    early, so their layers predict no change here.  Criterion 11 is a single
    fixed configuration, so the seed does not alter its inputs."""

    name = "acceptance_flow"
    units_label = "steps"
    steady_kind = "step"
    nominal_cycle_s = 7.5   # one steady step, 2-core x86 machine, this commit
    # step times vary by +-15% from one step to the next on that machine, so
    # the steady median always takes at least three steps
    min_cycles = 3

    def __init__(self, seed, smoke, workdir, count):
        self.n_r, self.n_theta = (16, 32) if smoke else (48, 96)
        self.state = None

    def setup(self):
        cfg = cli.parse_config(ACCEPTANCE_CONFIG.format(n_r=self.n_r, n_theta=self.n_theta))
        return cli.build_problem_objects(cfg)

    def prepare(self, objects):
        self.state = flow.init_flow(*objects)

    def _step_op(self, state_ref):
        def run():
            rec = flow.step(state_ref())
            checks = [
                ("index", rec.n == 1),
                ("oracle dK/K <= 1e-4", rec.dk_oracle_rel <= 1e-4),
                ("G <= 1e-6", rec.g_residual <= 1e-6),
                ("B <= 1e-6", rec.boundary_residual <= 1e-6),
                ("|z(x0)| <= 1e-10", rec.fixed_point_z <= 1e-10),
                ("projected dimension 1", rec.family_dimension_after == 1),
            ]
            missed = [name for name, ok in checks if not ok]
            return Result(
                missed=int(bool(missed)),
                detail=f"step {rec.step}: missed {missed}" if missed else "",
                quality={"kpres.dk_oracle_rel_max": rec.dk_oracle_rel,
                         "gdef.g_residual_max": rec.g_residual},
                fingerprint=json.dumps(rec.as_dict(), sort_keys=True),
            )
        return run

    def first(self):
        return Op("step0", self._step_op(lambda: self.state))

    def cycle(self):
        def fork():
            twin = copy.deepcopy(self.state)
            return self._step_op(lambda: twin)
        return [Op("step", self._step_op(lambda: self.state), fork)]


# ---------------------------------------------------------------------------
# curved_history
# ---------------------------------------------------------------------------

class CurvedHistory:
    """Why: a curved ambient metric is the paper's setting, and there RK4
    transport and Christoffel evaluation dominate, growing linearly with the
    history length.  Each operation runs one step's assembly outside the
    flow (cdot solve with its coefficient assemblies, variations, rates,
    right-hand side, and the transport and curvature monitors) on a short and
    a long prescribed history.  vekua does no work here.  A curved *flow* is
    not a workload yet: at this commit it fails at step 0 with
    ConvergenceError."""

    name = "curved_history"
    units_label = "assemblies"
    steady_kind = "long"
    nominal_cycle_s = 9.0   # one long plus one short operation
    min_cycles = 1
    dt = 0.005
    rate_sup = 2e-3         # sup |zdot|, the size of the flow's physical rates

    def __init__(self, seed, smoke, workdir, count):
        self.seed = seed
        if smoke:
            self.n_r, self.n_theta, self.short, self.long = 16, 32, 2, 4
        else:
            self.n_r, self.n_theta, self.short, self.long = 32, 64, 10, 40
        self.cases = {}

    def setup(self):
        grid = DiskGrid(self.n_r, self.n_theta)
        metric = conformal_radial_metric(0.5)
        surf = surface.build_surface(surface.SphereCapImmersion(1.0, 0.5), metric, grid)
        return grid, metric, surf

    def _prescribed(self, n_steps):
        """State after n_steps of the constant seeded rates."""
        s = self.surf
        t = n_steps * self.dt
        taus = np.linspace(0.0, t, n_steps + 1)
        zdot = self.a1d[:, None] * s.y1 + self.a2d[:, None] * s.y2 + self.cd[:, None] * s.n
        hist = TransportHistory(taus, taus[:, None, None] * zdot[None],
                                np.repeat(zdot[None], n_steps + 1, axis=0))
        return gdef.DeformationState(
            surface=s, a1=t * self.a1d, a2=t * self.a2d, c=t * self.cd,
            a1dot=self.a1d.copy(), a2dot=self.a2d.copy(), cdot=self.cd.copy(),
            history=hist, t=t,
        )

    def prepare(self, objects):
        self.grid, self.metric, self.surf = objects
        rng = np.random.default_rng(self.seed)
        fields = [_smooth_field(rng, self.grid) for _ in range(3)]
        s = self.surf
        zdot = fields[0][:, None] * s.y1 + fields[1][:, None] * s.y2 + fields[2][:, None] * s.n
        scale = self.rate_sup / float(np.max(np.abs(zdot)))
        self.a1d, self.a2d, self.cd = (scale * f for f in fields)
        self.integ = cdot.PathIntegrator(self.grid, 0)
        self.eq = kpres.equation_coefficients(s)
        for n_steps in (self.short, self.long):
            # the previous step's records, as the flow would carry them
            before = self._prescribed(n_steps - 1)
            prev = gdef.assemble_coefficients(self.metric, s, before)
            _, bvar, _ = kpres.assemble_variation(self.metric, s, before)
            self.cases[n_steps] = (self._prescribed(n_steps), prev, bvar.m4,
                                   kpres.psi1_bracket(s, prev, before))

    def _op(self, n_steps):
        deform, prev, prev_m4, prev_psi1 = self.cases[n_steps]
        metric, s, grid, dt = self.metric, self.surf, self.grid, self.dt
        a1d, a2d = self.a1d, self.a2d

        def coeff_fn(c_iter):
            return gdef.assemble_coefficients(
                metric, s, deform, history=deform.history_with_rates(a1d, a2d, c_iter),
                prev=prev, dt=dt)

        def run():
            tol = 1e-10
            sol = cdot.solve_cdot(s, coeff_fn, deform.a1, deform.a2, a1d, a2d,
                                  self.integ, tol=tol, max_iter=50)
            hist = deform.history_with_rates(a1d, a2d, sol.cdot)
            gvar, bvar, fwd = kpres.assemble_variation(metric, s, deform, history=hist)
            zdot = deform.rate_displacement(a1d, a2d, sol.cdot)
            rates = kpres.assemble_rates(metric, s, deform, gvar, bvar, zdot, a1d, a2d,
                                         prev_m4=prev_m4, dt=dt)
            psi1dot, psi3, _, _ = kpres.rhs_psi(s, sol.coeffs, deform, rates, self.eq.qb0,
                                                sol.p_field, prev_psi1=prev_psi1, dt=dt)
            g_res = gdef.gdef_normal_residual(metric, s, deform)
            k_def = surface.gauss_curvature_of(grid, metric, s.y + deform.z)
            k_base = surface.gauss_curvature_of(grid, metric, s.y)

            drift = float(np.max(np.abs(fwd.norm - 1.0)))
            k_scale = float(np.max(np.abs(s.K)))
            checks = [
                ("cdot residual <= tol",
                 sol.residual <= tol * max(1.0, float(np.max(np.abs(sol.cdot))))),
                ("contraction rate < 1", sol.rate < 1.0),
                ("normal norm drift <= 1e-10", drift <= 1e-10),
                ("finite outputs", all(np.all(np.isfinite(a))
                                       for a in (psi1dot, psi3, g_res, k_def, bvar.dK))),
            ]
            missed = [name for name, ok in checks if not ok]
            return Result(
                missed=int(bool(missed)),
                detail=f"history {n_steps}: missed {missed}" if missed else "",
                quality={
                    "transport.norm_drift_max": drift,
                    "gdef.g_residual_max": float(np.max(np.abs(g_res))),
                    "kpres.dk_oracle_rel_max":
                        float(np.max(np.abs(bvar.dK - (k_def - k_base)))) / k_scale,
                },
                fingerprint=_fingerprint(sol.cdot, psi1dot, psi3, g_res, k_def),
            )
        return run

    def first(self):
        return Op("long", self._op(self.long))

    def cycle(self):
        return [Op("short", self._op(self.short)), Op("long", self._op(self.long))]


# ---------------------------------------------------------------------------
# bvp_files
# ---------------------------------------------------------------------------

class BvpFiles:
    """Why: the `mgdeform bvp` path (load_problem, bvp_solve in auto mode,
    save_solution) uses vekua differently from the flow: a fixed right-hand
    side, the GMRES fallback, and text reads and writes of ~5 MB each way.
    One operation is a round over six problem files; an error ends its file,
    not the round.
    Manufactured problems cover index n = 1, 0, -1 at a weak strength
    (Picard converges) and a strong one (Picard diverges, GMRES takes over).
    transport, cdot and kpres do no work here.  At this commit every n = -1
    problem raises UnsolvableDataError although its data come from a true
    solution (the solvability check ignores the volume terms), so the
    expected failed share is 1/3."""

    name = "bvp_files"
    units_label = "files"
    steady_kind = "round"
    nominal_cycle_s = 7.5   # one round over the six problem files
    min_cycles = 1
    cases = [(1, 0.3), (0, 0.3), (-1, 0.3), (1, 3.0), (0, 3.0), (-1, 3.0)]
    units_per_round = len(cases)

    def __init__(self, seed, smoke, workdir, count):
        self.seed = seed
        self.n_r, self.n_theta = (16, 32) if smoke else (128, 256)
        self.workdir = workdir
        self.count = count
        self.problems = []

    def setup(self):
        return DiskGrid(self.n_r, self.n_theta)

    def _manufactured(self, rng, grid, n, strength):
        """Problem whose data come from the known smooth solution w_star."""
        z = grid.z
        zb = np.conj(z)

        def cplx():
            re, im = rng.normal(size=2)
            return complex(re, im)

        a_field = 0.6 * cplx() + 0.3 * cplx() * z + 0.2 * cplx() * z * zb
        b_field = 0.5 * cplx() + 0.3 * cplx() * zb
        a_field *= strength / np.max(np.abs(a_field))
        b_field *= strength / np.max(np.abs(b_field))
        q0 = 0.8 + 0.2 * rng.uniform(-1.0, 1.0) * grid.x1
        weight = 1.0 + 0.3 * rng.uniform(0.0, 1.0) * grid.x2**2
        d = [cplx() for _ in range(4)]
        w_star = (rng.normal() + d[0] * z + 0.4 * d[1] * np.exp(0.5 * z)
                  + 0.5 * d[2] * z**2 * zb + 0.3 * d[3] * zb**2)
        dzbar = 0.5 * d[2] * z**2 + 0.6 * d[3] * zb
        # the solver's n = 0 member has a real holomorphic part at the origin
        w_star = w_star - 1j * w_star[0].imag
        lam = np.exp(1j * n * grid.boundary_theta)
        prob = vekua.BoundaryProblem(
            grid=grid, lam=lam, phi=np.real(np.conj(lam) * w_star[grid.boundary_idx]),
            A=a_field, B=b_field, e0_point=0.5j * q0, e0_weight=weight,
        )
        prob.psi = (dzbar + a_field * w_star + b_field * np.conj(w_star)
                    + prob.e_operator(w_star))
        return prob, w_star

    def prepare(self, grid):
        rng = np.random.default_rng(self.seed)
        os.makedirs(self.workdir, exist_ok=True)
        for k, (n, strength) in enumerate(self.cases):
            prob, w_star = self._manufactured(rng, grid, n, strength)
            path = os.path.join(self.workdir, f"problem_{k}.txt")
            vekua.save_problem(path, prob)
            self.problems.append((path, n, w_star))

    def _solve_file(self, k):
        """One `mgdeform bvp` run; returns (missed checks, quality, fingerprint)."""
        path, n, w_star = self.problems[k]
        out = os.path.join(self.workdir, f"solution_{k}.txt")
        problem = vekua.load_problem(path)
        fam = vekua.bvp_solve(problem, tol=1e-10, mode="auto")
        vekua.save_solution(out, fam)
        self.count("vekua.io_bytes", os.path.getsize(path) + os.path.getsize(out))
        with open(out) as fh:
            fh.readline()
            header = dict(fh.readline().split() for _ in range(3))
        scale = max(1.0, float(np.max(np.abs(fam.w))))
        checks = [
            ("index", fam.n == n),
            ("boundary residual <= 1e-8", fam.boundary_residual <= 1e-8),
            ("fixed-point residual <= 1e-8", fam.fixed_point_residual <= 1e-8 * scale),
            ("solution file header", header.get("n") == str(n)
             and header.get("iterations") == str(fam.iterations)),
        ]
        quality = {}
        if n <= 0:
            err = float(np.max(np.abs(fam.w - w_star)) / np.max(np.abs(w_star)))
            quality["vekua.recovery_err_max"] = err
            checks.append(("recovery <= 1e-3", err <= 1e-3))
        missed = [name for name, ok in checks if not ok]
        return missed, quality, _fingerprint(fam.w, fam.iterations)

    def _round(self):
        result = Result(units=self.units_per_round)
        prints = []
        for k in range(len(self.problems)):
            try:
                missed, quality, fingerprint = self._solve_file(k)
            except MgError as exc:
                result.errors.append(type(exc).__name__)
                prints.append(type(exc).__name__)
                continue
            prints.append(fingerprint)
            for key, value in quality.items():
                result.quality[key] = max(value, result.quality.get(key, 0.0))
            if missed:
                result.missed += 1
                result.detail += f" problem_{k}: missed {missed}"
        result.fingerprint = json.dumps(prints)
        return result

    def first(self):
        return Op("round", self._round, units=self.units_per_round)

    def cycle(self):
        return [self.first()]


WORKLOADS = {w.name: w for w in (AcceptanceFlow, CurvedHistory, BvpFiles)}
