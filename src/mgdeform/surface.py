"""Surface immersions over the disk and their fundamental forms.

The surface is accepted, not constructed: the parameterization must already
be conjugate isothermal (second fundamental form V * identity), which is
validated at build time.  Curvatures follow from b_ij = -a(y_,i, D*_j n)
where D* couples surface partials with ambient Christoffel contraction.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import NamedTuple

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


class NodeLastStatics(NamedTuple):
    """The static tensors the per-node kernels read, node-last."""

    tang: np.ndarray           # (3, 2, N) tangents y_,i
    a: np.ndarray              # (3, 3, N) ambient metric at y
    gamma: np.ndarray          # (3, 3, 3, N) ambient Gamma^g_{ab}(y)
    n: np.ndarray              # (3, N)
    n_deriv: np.ndarray        # (3, 2, N)
    b: np.ndarray              # (2, 2, N)
    g_inv: np.ndarray          # (2, 2, N)
    gamma_surface: np.ndarray  # (2, 2, 2, N)


@dataclass
class SurfaceState:
    """Immutable geometric data of the undeformed surface on the grid.

    ``build_surface`` stores its computed tensors node-last behind (N, ...)
    views, so ``nl_statics`` copies only the tangents, the ambient metric and
    the normal.
    """

    grid: DiskGrid
    metric: AmbientMetric
    y: np.ndarray            # (N, 3)
    y1: np.ndarray           # (N, 3) tangent d y / d x1
    y2: np.ndarray           # (N, 3)
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
    extras: dict = field(default_factory=dict)

    def tangents(self):
        return np.stack([self.y1, self.y2], axis=-1)  # (N, 3, 2)

    @cached_property
    def nl_statics(self) -> NodeLastStatics:
        return NodeLastStatics(
            tang=node_last(self.tangents()), a=node_last(self.ambient_a),
            gamma=node_last(self.ambient_gamma), n=node_last(self.n),
            n_deriv=node_last(self.n_deriv), b=node_last(self.b),
            g_inv=node_last(self.g_inv), gamma_surface=node_last(self.gamma_surface),
        )


def _normal_field(a, y1, y2):
    """Unit normal (N, 3) in the metric ``a`` (N, 3, 3) of the tangents."""
    cross = np.cross(y1, y2)
    n = np.linalg.solve(a, cross[..., None])[..., 0]
    n_l = node_last(n)
    nn = np.einsum("abn,an,bn->n", node_last(a), n_l, n_l)
    if np.any(nn <= 0):
        raise GeometryError("degenerate tangent plane: zero normal")
    return n / np.sqrt(nn)[:, None]


def raw_fundamental_forms(grid, metric, y, y1=None, y2=None):
    """First/second forms of arbitrary immersion samples, no validation.

    Tangents default to grid differentiation of the position field; the
    normal derivative is always grid-differentiated.  Returns a dict.
    """
    if y1 is None or y2 is None:
        d1, d2 = grid.grad(y)
        y1 = d1 if y1 is None else y1
        y2 = d2 if y2 is None else y2
    a = metric.metric(y)
    n = _normal_field(a, y1, y2)
    tang = np.stack([y1, y2], axis=-1)
    a_l, tang_l = node_last(a), node_last(tang)
    g = np.einsum("abn,ain,bjn->ijn", a_l, tang_l, tang_l)
    ch = christoffel_at(metric, y)
    n_deriv = np.stack(grid.grad(n), axis=-1)  # (N, 3, 2)
    # D*_j n = dn/dx_j + Gamma(y)(y_,j, n)
    dstar_n = node_last(n_deriv) + np.einsum(
        "gabn,ajn,bn->gjn", node_last(ch.gamma_upper), tang_l, node_last(n))
    b = -np.einsum("abn,ain,bjn->ijn", a_l, tang_l, dstar_n)
    g_det = g[0, 0] * g[1, 1] - g[0, 1] * g[1, 0]
    b_det = b[0, 0] * b[1, 1] - b[0, 1] * b[1, 0]
    g_inv = node_last(np.linalg.inv(node_first(g)))
    h = 0.5 * np.einsum("ijn,ijn->n", g_inv, 0.5 * (b + np.swapaxes(b, 0, 1)))
    return {
        "a": a, "n": n, "n_deriv": n_deriv, "tang": tang, "g": node_first(g),
        "b": node_first(b), "g_det": g_det, "b_det": b_det, "H": h,
        "K": b_det / g_det, "gamma_ambient": ch.gamma_upper,
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


def build_surface(immersion: Immersion, metric: AmbientMetric, grid: DiskGrid,
                  ci_tol=1e-6, validate=True) -> SurfaceState:
    """Construct and validate the surface state on the grid."""
    y = immersion.chart(grid.x1, grid.x2)
    jac = immersion.jacobian(grid.x1, grid.x2)
    y1 = jac[..., 0]
    y2 = jac[..., 1]

    a = metric.metric(y)
    n = _normal_field(a, y1, y2)
    tang = node_last(np.stack([y1, y2], axis=-1))
    a_l = node_last(a)
    g = np.einsum("abn,ain,bjn->ijn", a_l, tang, tang)
    g_det = g[0, 0] * g[1, 1] - g[0, 1] * g[1, 0]
    if validate and np.any(g_det <= 0):
        node = int(np.argmax(g_det <= 0))
        raise GeometryError(f"first fundamental form degenerate at node {node}")
    g_inv = node_last(np.linalg.inv(node_first(g)))

    ch = christoffel_at(metric, y)
    n_deriv = node_last(np.stack(grid.grad(n), axis=-1))
    dstar_n = n_deriv + np.einsum(
        "gabn,ajn,bn->gjn", node_last(ch.gamma_upper), tang, node_last(n))
    b = -np.einsum("abn,ain,bjn->ijn", a_l, tang, dstar_n)
    h = 0.5 * np.einsum("ijn,ijn->n", g_inv, b)
    if np.mean(h) < 0:
        n = -n
        n_deriv = -n_deriv
        b = -b
        h = -h
    b_det = b[0, 0] * b[1, 1] - b[0, 1] * b[1, 0]
    v = 0.5 * (b[0, 0] + b[1, 1])

    if validate:
        if np.any(h <= 0):
            node = int(np.argmax(h <= 0))
            raise GeometryError(f"mean curvature not strictly positive at node {node}")
        bad = (b[0, 0] <= 0) | (b_det <= 0)
        if np.any(bad):
            node = int(np.argmax(bad))
            raise GeometryError(
                f"second fundamental form not positive definite at node {node} "
                "(principal curvatures must be strictly positive)"
            )
    scale = float(np.max(np.abs(v)))
    ci_res = float(
        np.max(np.maximum(np.abs(b[0, 0] - b[1, 1]), np.abs(b[0, 1])))
    ) / max(scale, 1e-300)
    if validate and ci_res > ci_tol:
        raise CoordinateError(
            f"parameterization is not conjugate isothermal: residual {ci_res:.3e} "
            f"exceeds {ci_tol:.1e} relative to V"
        )

    gamma_surface = _surface_christoffels(grid, g, g_inv)
    return SurfaceState(
        grid=grid, metric=metric, y=y, y1=y1, y2=y2, n=n,
        n_deriv=node_first(n_deriv), g=node_first(g), g_inv=node_first(g_inv),
        g_det=g_det, b=node_first(b), b_det=b_det, V=v, K=b_det / g_det, H=h,
        gamma_surface=node_first(gamma_surface), ambient_gamma=ch.gamma_upper,
        ambient_a=a, ci_residual=ci_res,
    )


def validate_hypotheses(state: SurfaceState, b12_override=None):
    """Diagnostic report of the admissibility hypotheses; never raises."""
    g = state.g
    b = state.b.copy()
    if b12_override is not None:
        b[:, 0, 1] = b12_override
        b[:, 1, 0] = b12_override
    eig_g = np.linalg.eigvalsh(0.5 * (g + np.swapaxes(g, 1, 2)))
    eig_b = np.linalg.eigvalsh(0.5 * (b + np.swapaxes(b, 1, 2)))
    scale = float(np.max(np.abs(state.V)))
    ci_res = float(
        np.max(np.maximum(np.abs(b[:, 0, 0] - b[:, 1, 1]), np.abs(b[:, 0, 1])))
    ) / max(scale, 1e-300)
    grid = state.grid
    fields = {"y": state.y, "n": state.n, "V": state.V, "K": state.K, "H": state.H}
    c0 = {k: float(np.max(np.abs(v))) for k, v in fields.items()}
    c1 = {
        k: float(max(np.max(np.abs(d)) for d in grid.grad(v)))
        for k, v in fields.items()
    }
    a_n = np.einsum("nab,na,nb->n", state.ambient_a, state.n, state.n)
    a_nt = np.einsum("nab,na,nbi->ni", state.ambient_a, state.n, state.tangents())
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
