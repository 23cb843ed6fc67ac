"""Surface immersions over the disk and their fundamental forms.

The surface is accepted, not constructed: the parameterization must already
be conjugate isothermal (second fundamental form V * identity), which is
validated at build time.  Curvatures follow from b_ij = -a(y_,i, D*_j n)
where D* couples surface partials with ambient Christoffel contraction.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._contract import node_first, node_last
from .errors import CoordinateError, GeometryError
from .grid import DiskGrid
from .metrics import AmbientMetric, christoffel_at, norm_monitor


class Immersion:
    """Chart plug-in; jacobian defaults to central differences."""

    def chart(self, x1, x2):
        raise NotImplementedError

    def jacobian(self, x1, x2, step=1e-6):
        cols = []
        for k in range(2):
            d1 = step if k == 0 else 0.0
            d2 = step if k == 1 else 0.0
            cols.append(
                (self.chart(x1 + d1, x2 + d2) - self.chart(x1 - d1, x2 - d2)) / (2 * step)
            )
        return np.stack(cols, axis=-1)  # (..., 3, 2)


class SphereCapImmersion(Immersion):
    """Cap of a radius-R sphere under a scaled stereographic chart.

    The unit disk maps to the cap |u| <= cap of the stereographic plane;
    cap = 1 gives the full lower hemisphere.
    """

    def __init__(self, radius=1.0, cap=0.8):
        if not 0 < cap <= 1.0:
            raise GeometryError(f"cap parameter must be in (0, 1], got {cap}")
        self.radius = radius
        self.cap = cap

    def chart(self, x1, x2):
        w1 = self.cap * np.asarray(x1, dtype=float)
        w2 = self.cap * np.asarray(x2, dtype=float)
        d = 1.0 + w1 * w1 + w2 * w2
        y = np.stack([2 * w1 / d, 2 * w2 / d, (d - 2.0) / d], axis=-1)
        return self.radius * y

    def jacobian(self, x1, x2, step=None):
        w1 = self.cap * np.asarray(x1, dtype=float)
        w2 = self.cap * np.asarray(x2, dtype=float)
        d = 1.0 + w1 * w1 + w2 * w2
        j = np.empty(np.shape(w1) + (3, 2))
        j[..., 0, 0] = 2 * (d - 2 * w1 * w1) / d**2
        j[..., 0, 1] = -4 * w1 * w2 / d**2
        j[..., 1, 0] = -4 * w1 * w2 / d**2
        j[..., 1, 1] = 2 * (d - 2 * w2 * w2) / d**2
        j[..., 2, 0] = 4 * w1 / d**2
        j[..., 2, 1] = 4 * w2 / d**2
        return self.radius * self.cap * j


class GraphImmersion(Immersion):
    """Graph surface y = (x1, x2, f(x1, x2))."""

    def __init__(self, height_fn):
        self.height_fn = height_fn

    def chart(self, x1, x2):
        x1 = np.asarray(x1, dtype=float)
        x2 = np.asarray(x2, dtype=float)
        return np.stack([x1, x2, self.height_fn(x1, x2)], axis=-1)


IMMERSION_KINDS = {
    "sphere_cap": lambda p: SphereCapImmersion(p.get("radius", 1.0), p.get("cap", 0.8)),
    "plane": lambda p: GraphImmersion(lambda a, b: np.zeros_like(a)),
    "paraboloid": lambda p: GraphImmersion(
        lambda a, b: 0.5 * p.get("curv", 1.0) * (a * a + b * b)
    ),
}


def make_immersion(kind, params=None):
    params = params or {}
    if kind not in IMMERSION_KINDS:
        raise KeyError(f"unknown surface kind {kind!r}; valid: {sorted(IMMERSION_KINDS)}")
    return IMMERSION_KINDS[kind](params)


@dataclass(frozen=True)
class SurfaceState:
    """Immutable geometric data of the undeformed surface on the grid.

    Each tensor is stored once, node-last, behind its (N, ...) view, so a
    kernel's ``node_last(surface.<field>)`` is free.  ``build_surface`` marks
    every array read-only: the transport prefix cache is keyed by the
    identity of ``y`` and relies on it never changing in place.
    """

    grid: DiskGrid
    metric: AmbientMetric
    y: np.ndarray            # (N, 3)
    tang: np.ndarray         # (N, 3, 2) tangents y_,i
    n: np.ndarray            # (N, 3) unit normal in the ambient metric
    n_deriv: np.ndarray      # (N, 3, 2) partial derivatives of n
    g: np.ndarray            # (N, 2, 2)
    g_inv: np.ndarray
    g_det: np.ndarray
    b: np.ndarray            # (N, 2, 2)
    b_det: np.ndarray
    V: np.ndarray            # (N,) conjugate isothermal diagonal of b
    K: np.ndarray
    H: np.ndarray
    gamma_surface: np.ndarray  # (N, 2, 2, 2) Gamma^k_{ij} of g
    ambient_gamma: np.ndarray  # (N, 3, 3, 3) Gamma^g_{ab}(y)
    ambient_a: np.ndarray      # (N, 3, 3)
    ci_residual: float = 0.0

    @property
    def y1(self):
        """(N, 3) tangent d y / d x1, a view of ``tang``."""
        return self.tang[..., 0]

    @property
    def y2(self):
        """(N, 3) tangent d y / d x2, a view of ``tang``."""
        return self.tang[..., 1]


def raw_fundamental_forms(grid, metric, y, y1=None, y2=None):
    """Both fundamental forms of immersion samples: the one kernel behind
    ``build_surface`` and the rebuild oracle.

    Without the tangents y1, y2 (give both or neither) they are taken by grid
    differentiation of ``y``; the normal derivative always is.  No
    orientation is chosen and nothing is validated beyond a degenerate
    tangent plane or first form.  Returns a dict keyed by ``SurfaceState``
    field names (``ambient_a``, ``n``, ``tang``, ``g``, ``g_inv``,
    ``ambient_gamma``, ``n_deriv``, ``b``, ``g_det``, ``b_det``, ``H``,
    ``K``); each tensor is the (N, ...) view of a node-last array.
    """
    if y1 is None:
        y1, y2 = grid.grad(y)
    a = metric.metric(y)
    # unit normal in the metric a: a^-1 (y1 x y2), normalized
    n = np.linalg.solve(a, np.cross(y1, y2)[..., None])[..., 0]
    a_l, n_l = node_last(a), node_last(n)
    nn = np.einsum("abn,an,bn->n", a_l, n_l, n_l)
    if np.any(nn <= 0):
        raise GeometryError("degenerate tangent plane: zero normal")
    n = n / np.sqrt(nn)[:, None]
    n_l = node_last(n)
    tang = node_last(np.stack([y1, y2], axis=-1))      # (3, 2, N)
    g = np.einsum("abn,ain,bjn->ijn", a_l, tang, tang)
    g_det = g[0, 0] * g[1, 1] - g[0, 1] * g[1, 0]
    if np.any(g_det <= 0):
        node = int(np.argmax(g_det <= 0))
        raise GeometryError(f"first fundamental form degenerate at node {node}")
    g_inv = node_last(np.linalg.inv(node_first(g)))
    ch = christoffel_at(metric, y)
    n_deriv = node_last(np.stack(grid.grad(n), axis=-1))   # (3, 2, N)
    # D*_j n = dn/dx_j + Gamma(y)(y_,j, n)
    dstar_n = n_deriv + np.einsum(
        "gabn,ajn,bn->gjn", node_last(ch.gamma_upper), tang, n_l)
    b = -np.einsum("abn,ain,bjn->ijn", a_l, tang, dstar_n)
    b_det = b[0, 0] * b[1, 1] - b[0, 1] * b[1, 0]
    h = 0.5 * np.einsum("ijn,ijn->n", g_inv, b)
    return {
        "ambient_a": node_first(a_l), "n": node_first(n_l), "tang": node_first(tang),
        "g": node_first(g), "g_inv": node_first(g_inv), "ambient_gamma": ch.gamma_upper,
        "n_deriv": node_first(n_deriv), "b": node_first(b), "g_det": g_det,
        "b_det": b_det, "H": h, "K": b_det / g_det,
    }


def gauss_curvature_of(grid, metric, y, y1=None, y2=None):
    """K = det b / det g of immersion samples; orientation-invariant, used
    as the independent rebuild oracle."""
    return raw_fundamental_forms(grid, metric, y, y1, y2)["K"]


def _surface_christoffels(grid, g, g_inv):
    """Gamma^k_{ij} of the first form, node-last (k, i, j, N), from node-last
    g and g_inv."""
    dg = node_last(np.stack(grid.grad(node_first(g)), axis=-1))  # (i, j, k, N) = d_k g_ij
    # Gamma_{ij,l} = 0.5 (d_i g_{jl} + d_j g_{il} - d_l g_{ij})
    low = 0.5 * (np.transpose(dg, (2, 0, 1, 3)) + np.transpose(dg, (0, 2, 1, 3)) - dg)
    return np.einsum("kln,ijln->kijn", g_inv, low)


def _ci_residual(b, v):
    """Conjugate-isothermal residual max(|b11 - b22|, |b12|) of an (N, 2, 2)
    second form, relative to max |V|."""
    scale = float(np.max(np.abs(v)))
    return float(
        np.max(np.maximum(np.abs(b[:, 0, 0] - b[:, 1, 1]), np.abs(b[:, 0, 1])))
    ) / max(scale, 1e-300)


def build_surface(immersion: Immersion, metric: AmbientMetric, grid: DiskGrid,
                  ci_tol=1e-6) -> SurfaceState:
    """Construct and validate the surface state on the grid.

    The forms come from ``raw_fundamental_forms``; the surface adds the
    orientation with positive mean curvature, the admissibility checks and
    the surface Christoffels.
    """
    y = immersion.chart(grid.x1, grid.x2)
    jac = immersion.jacobian(grid.x1, grid.x2)
    forms = raw_fundamental_forms(grid, metric, y, jac[..., 0], jac[..., 1])
    if np.mean(forms["H"]) < 0:
        for key in ("n", "n_deriv", "b"):
            forms[key] = node_first(-node_last(forms[key]))
        forms["H"] = -forms["H"]
    h, b = forms["H"], node_last(forms["b"])
    v = 0.5 * (b[0, 0] + b[1, 1])

    if np.any(h <= 0):
        node = int(np.argmax(h <= 0))
        raise GeometryError(f"mean curvature not strictly positive at node {node}")
    bad = (b[0, 0] <= 0) | (forms["b_det"] <= 0)
    if np.any(bad):
        node = int(np.argmax(bad))
        raise GeometryError(
            f"second fundamental form not positive definite at node {node} "
            "(principal curvatures must be strictly positive)"
        )
    ci_res = _ci_residual(forms["b"], v)
    if ci_res > ci_tol:
        raise CoordinateError(
            f"parameterization is not conjugate isothermal: residual {ci_res:.3e} "
            f"exceeds {ci_tol:.1e} relative to V"
        )

    gamma_surface = _surface_christoffels(
        grid, node_last(forms["g"]), node_last(forms["g_inv"]))
    state = SurfaceState(grid=grid, metric=metric, y=y, V=v,
                         gamma_surface=node_first(gamma_surface),
                         ci_residual=ci_res, **forms)
    for value in vars(state).values():
        if isinstance(value, np.ndarray):
            value.flags.writeable = False
    return state


def validate_hypotheses(state: SurfaceState, b12_override=None):
    """Diagnostic report of the admissibility hypotheses; never raises."""
    g = state.g
    b = state.b.copy()
    if b12_override is not None:
        b[:, 0, 1] = b12_override
        b[:, 1, 0] = b12_override
    eig_g = np.linalg.eigvalsh(0.5 * (g + np.swapaxes(g, 1, 2)))
    eig_b = np.linalg.eigvalsh(0.5 * (b + np.swapaxes(b, 1, 2)))
    ci_res = _ci_residual(b, state.V)
    grid = state.grid
    fields = {"y": state.y, "n": state.n, "V": state.V, "K": state.K, "H": state.H}
    c0 = {k: float(np.max(np.abs(v))) for k, v in fields.items()}
    c1 = {
        k: float(max(np.max(np.abs(d)) for d in grid.grad(v)))
        for k, v in fields.items()
    }
    a_n = np.einsum("nab,na,nb->n", state.ambient_a, state.n, state.n)
    a_nt = np.einsum("nab,na,nbi->ni", state.ambient_a, state.n, state.tang)
    report = {
        "min_eig_g": float(eig_g.min()),
        "min_eig_b": float(eig_b.min()),
        "min_H": float(state.H.min()),
        "ci_residual": ci_res,
        "normal_unit_residual": float(np.max(np.abs(a_n - 1.0))),
        "normal_tangency_residual": float(np.max(np.abs(a_nt))),
        "c0_norms": c0,
        "c1_norms": c1,
        "metric_bounds": norm_monitor(state.metric, state.y),
    }
    report["positivity_ok"] = (
        report["min_eig_g"] > 0 and report["min_eig_b"] > 0 and report["min_H"] > 0
    )
    report["conjugate_isothermal_ok"] = ci_res <= 1e-6
    report["ok"] = report["positivity_ok"] and report["conjugate_isothermal_ok"]
    return report
