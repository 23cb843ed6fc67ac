"""Surface immersions over the disk and their fundamental forms.

The surface is accepted, not constructed: the parameterization must already
be conjugate isothermal (second fundamental form V * identity), which is
validated at build time.  Curvatures follow from b_ij = -a(y_,i, D*_j n)
where D* couples surface partials with ambient Christoffel contraction.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from ._contract import node_last
from .errors import CoordinateError, GeometryError, MgError
from .grid import DiskGrid
from .metrics import AmbientMetric, norm_monitor

# default bound on the conjugate-isothermal residual, relative to max |V|
CI_TOL = 1e-6


class Immersion:
    """Chart plug-in: ``chart(x1, x2)`` gives the points (..., 3) and
    ``jacobian(x1, x2)`` their partials (..., 3, 2), both in closed form."""

    def chart(self, x1, x2):
        raise NotImplementedError

    def jacobian(self, x1, x2):
        raise NotImplementedError


class SphereCapImmersion(Immersion):
    """Cap of a radius-R sphere under a scaled stereographic chart.

    The unit disk maps to the cap |u| <= cap of the stereographic plane;
    cap = 1 gives the full lower hemisphere.
    """

    def __init__(self, radius, cap):
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

    def jacobian(self, x1, x2):
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
    """Graph surface y = (x1, x2, f(x1, x2)), with ``gradient_fn`` giving
    (f_1, f_2)."""

    def __init__(self, height_fn, gradient_fn):
        self.height_fn = height_fn
        self.gradient_fn = gradient_fn

    def chart(self, x1, x2):
        x1 = np.asarray(x1, dtype=float)
        x2 = np.asarray(x2, dtype=float)
        return np.stack([x1, x2, self.height_fn(x1, x2)], axis=-1)

    def jacobian(self, x1, x2):
        x1 = np.asarray(x1, dtype=float)
        x2 = np.asarray(x2, dtype=float)
        j = np.zeros(np.shape(x1) + (3, 2))
        j[..., 0, 0] = 1.0
        j[..., 1, 1] = 1.0
        j[..., 2, 0], j[..., 2, 1] = self.gradient_fn(x1, x2)
        return j


IMMERSION_KINDS = {
    "sphere_cap": lambda p: SphereCapImmersion(p["radius"], p["cap"]),
    "plane": lambda p: GraphImmersion(lambda a, b: np.zeros_like(a),
                                      lambda a, b: (0.0, 0.0)),
    "paraboloid": lambda p: GraphImmersion(lambda a, b: 0.5 * p["curv"] * (a * a + b * b),
                                           lambda a, b: (p["curv"] * a, p["curv"] * b)),
}


def make_immersion(kind, params=None):
    params = params or {}
    if kind not in IMMERSION_KINDS:
        raise KeyError(f"unknown surface kind {kind!r}; valid: {sorted(IMMERSION_KINDS)}")
    return IMMERSION_KINDS[kind](params)


@dataclass(frozen=True)
class SurfaceState:
    """Immutable geometric data of the undeformed surface on the grid.

    Every tensor is stored node-last, (..., N), C-contiguous, as the kernels
    contract it.  The R^3 point arrays keep the (N, 3) form of the plug-in
    interfaces: ``y`` as the chart returns it, and ``n`` as the transpose
    view of its node-last array, so ``n.T`` is free; the tangents ``y1`` and
    ``y2`` are (N, 3) views of ``tang``.  ``build_surface`` marks every array
    read-only: the transport prefix cache is keyed by the identity of ``y``
    and relies on it never changing in place.  The lowered normal, which
    only curved coefficient assemblies read, is taken on first use.
    """

    grid: DiskGrid
    metric: AmbientMetric
    y: np.ndarray            # (N, 3)
    tang: np.ndarray         # (3, 2, N) tangents y_,i
    n: np.ndarray            # (N, 3) unit normal in the ambient metric
    n_deriv: np.ndarray      # (3, 2, N) partial derivatives of n
    gamma_n: np.ndarray      # (3, 2, N) Gamma(y)(y_,j, n)
    dstar_n: np.ndarray      # (3, 2, N) D*_j n = -b_jk g^kl y_,l
    g: np.ndarray            # (2, 2, N)
    g_inv: np.ndarray
    g_det: np.ndarray
    b: np.ndarray            # (2, 2, N)
    b_det: np.ndarray
    V: np.ndarray            # (N,) conjugate isothermal diagonal of b
    K: np.ndarray
    H: np.ndarray
    ambient_a: np.ndarray    # (3, 3, N)
    ci_residual: float = 0.0
    ci_tol: float = CI_TOL   # the bound build_surface admitted ci_residual under

    @cached_property
    def lowered_n(self):
        """(3, N) a0 n, the normal lowered with the metric at ``y``,
        read-only."""
        an = np.einsum("abn,bn->an", self.ambient_a, self.n.T)
        an.flags.writeable = False
        return an

    @property
    def y1(self):
        """(N, 3) tangent d y / d x1, a view of ``tang``."""
        return self.tang[:, 0].T

    @property
    def y2(self):
        """(N, 3) tangent d y / d x2, a view of ``tang``."""
        return self.tang[:, 1].T


def raw_fundamental_forms(grid, metric, y, y1=None, y2=None):
    """Both fundamental forms of immersion samples: the one kernel behind
    ``build_surface`` and the rebuild oracle.

    Without the tangents y1, y2 (give both or neither) they are taken by grid
    differentiation of ``y``; the normal derivative always is.  No
    orientation is chosen and nothing is validated beyond a degenerate
    tangent plane or first form.  Returns a dict keyed by ``SurfaceState``
    field names (``ambient_a``, ``n``, ``tang``, ``g``, ``n_deriv``,
    ``gamma_n``, ``b``, ``g_det``, ``b_det``, ``K``): each tensor node-last,
    and ``n`` as the (N, 3) view of its node-last array.  K = det b / det g
    needs no g^-1, and Gamma(y)(y_,j, n) needs only Gamma contracted with n,
    whose ``christoffel_contract`` also rejects a metric that is not
    positive definite at ``y``; ``build_surface``, the one reader of g^-1
    and H, takes them itself.
    """
    if y1 is None:
        tang = grid.grad_last(y.T)                      # (3, 2, N)
    else:
        tang = node_last(np.stack([y1, y2], axis=-1))
    a = metric.metric(y)
    a_l = node_last(a)
    # unit normal in the metric a: a^-1 (y1 x y2), normalized.  Where a is a
    # scalar multiple s delta at every node, a^-1 v is the quotient v / s;
    # with NumPy's OpenBLAS it has the batched solve's bits
    n = np.ascontiguousarray(np.cross(tang[:, 0], tang[:, 1], axis=0))
    if np.array_equal(a_l, a_l[0, 0] * np.eye(3)[:, :, None]):
        n = n / a_l[0, 0]
    else:
        n = node_last(np.linalg.solve(a, n.T[..., None])[..., 0])
    nn = np.einsum("abn,an,bn->n", a_l, n, n)
    if np.any(nn <= 0):
        raise GeometryError("degenerate tangent plane: zero normal")
    n = n / np.sqrt(nn)
    g = np.einsum("abn,ain,bjn->ijn", a_l, tang, tang)
    g_det = g[0, 0] * g[1, 1] - g[0, 1] * g[1, 0]
    if np.any(g_det <= 0):
        node = int(np.argmax(g_det <= 0))
        raise GeometryError(f"first fundamental form degenerate at node {node}")
    n_deriv = grid.grad_last(n)                         # (3, 2, N)
    # D*_j n = dn/dx_j + Gamma(y)(y_,j, n), Gamma(n, .) contracted first
    gamma_n = np.einsum("gbn,bjn->gjn", metric.christoffel_contract(y, n), tang)
    b = -np.einsum("abn,ain,bjn->ijn", a_l, tang, n_deriv + gamma_n)
    b_det = b[0, 0] * b[1, 1] - b[0, 1] * b[1, 0]
    return {
        "ambient_a": a_l, "n": n.T, "tang": tang, "g": g, "n_deriv": n_deriv,
        "gamma_n": gamma_n, "b": b, "g_det": g_det, "b_det": b_det, "K": b_det / g_det,
    }


def gauss_curvature_of(grid, metric, y):
    """K = det b / det g of immersion samples, tangents by grid
    differentiation; orientation-invariant, used as the independent rebuild
    oracle."""
    return raw_fundamental_forms(grid, metric, y)["K"]


def _ci_residual(b, v):
    """Conjugate-isothermal residual max(|b11 - b22|, |b12|) of a node-last
    (2, 2, N) second form, relative to max |V|."""
    scale = float(np.max(np.abs(v)))
    return float(
        np.max(np.maximum(np.abs(b[0, 0] - b[1, 1]), np.abs(b[0, 1])))
    ) / max(scale, 1e-300)


def build_surface(immersion: Immersion, metric: AmbientMetric, grid: DiskGrid,
                  ci_tol=CI_TOL) -> SurfaceState:
    """Construct and validate the surface state on the grid.

    The forms come from ``raw_fundamental_forms``; the surface adds g^-1,
    the mean curvature H and the orientation that makes it positive (which
    also negates n, its derivative, Gamma(y)(y_,j, n) and b), D*n =
    -(b g^-1) y_,l for ΔB, and the admissibility checks.
    """
    y = immersion.chart(grid.x1, grid.x2)
    jac = immersion.jacobian(grid.x1, grid.x2)
    forms = raw_fundamental_forms(grid, metric, y, jac[..., 0], jac[..., 1])
    # g^-1 is g's adjugate over the determinant the forms already hold
    g, g_det = forms["g"], forms["g_det"]
    g_inv = np.stack([np.stack([g[1, 1], -g[0, 1]]), np.stack([-g[1, 0], g[0, 0]])]) / g_det
    forms["g_inv"] = g_inv
    forms["H"] = 0.5 * np.einsum("ijn,ijn->n", g_inv, forms["b"])
    if np.mean(forms["H"]) < 0:
        forms["n"] = (-forms["n"].T).T    # the view of the negated node-last normal
        for key in ("n_deriv", "gamma_n", "b", "H"):
            forms[key] = -forms[key]
    h, b = forms["H"], forms["b"]
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
    ci_res = _ci_residual(b, v)
    if ci_res > ci_tol:
        raise CoordinateError(
            f"parameterization is not conjugate isothermal: residual {ci_res:.3e} "
            f"exceeds {ci_tol:.1e} relative to V"
        )

    # D*n by the Weingarten equation: ΔB builds D*n_t as D*n + (D*n_t - D*n)
    b_up = np.einsum("jkn,kln->jln", b, g_inv)
    forms["dstar_n"] = -np.einsum("jln,sln->sjn", b_up, forms["tang"])
    state = SurfaceState(grid=grid, metric=metric, y=y, V=v,
                         ci_residual=ci_res, ci_tol=ci_tol, **forms)
    for value in vars(state).values():
        if isinstance(value, np.ndarray):
            value.flags.writeable = False
    return state


def require_surface_metric(metric: AmbientMetric, surface: SurfaceState):
    """Raise MgError unless ``metric`` is the object ``surface`` was built
    with.  The kernels evaluate ``surface.metric`` in the per-state caches
    and key the transport cache by the metric's identity, so any other
    metric, even an equal one, would be mixed in without a word."""
    if metric is not surface.metric:
        raise MgError(f"metric {type(metric).__name__} is not the surface's own "
                      f"{type(surface.metric).__name__} object; pass surface.metric")


def validate_hypotheses(state: SurfaceState):
    """Diagnostic report of the admissibility hypotheses, judged by the
    bounds the surface was built under; never raises."""
    g, b, n = state.g, state.b, state.n.T
    eig_g = np.linalg.eigvalsh((0.5 * (g + np.swapaxes(g, 0, 1))).transpose(2, 0, 1))
    eig_b = np.linalg.eigvalsh((0.5 * (b + np.swapaxes(b, 0, 1))).transpose(2, 0, 1))
    fields = {"y": state.y.T, "n": n, "V": state.V, "K": state.K, "H": state.H}
    c0 = {k: float(np.max(np.abs(v))) for k, v in fields.items()}
    c1 = {k: float(np.max(np.abs(state.grid.grad_last(v)))) for k, v in fields.items()}
    a_n = np.einsum("abn,an,bn->n", state.ambient_a, n, n)
    a_nt = np.einsum("abn,an,bin->in", state.ambient_a, n, state.tang)
    report = {
        "min_eig_g": float(eig_g.min()),
        "min_eig_b": float(eig_b.min()),
        "min_H": float(state.H.min()),
        "ci_residual": state.ci_residual,
        "normal_unit_residual": float(np.max(np.abs(a_n - 1.0))),
        "normal_tangency_residual": float(np.max(np.abs(a_nt))),
        "c0_norms": c0,
        "c1_norms": c1,
        "metric_bounds": norm_monitor(state.metric, state.y),
    }
    report["positivity_ok"] = (
        report["min_eig_g"] > 0 and report["min_eig_b"] > 0 and report["min_H"] > 0
    )
    report["conjugate_isothermal_ok"] = state.ci_residual <= state.ci_tol
    report["ok"] = report["positivity_ok"] and report["conjugate_isothermal_ok"]
    return report
