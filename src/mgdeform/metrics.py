"""Ambient Riemannian metrics and their Christoffel symbols.

A metric plug-in evaluates the symmetric tensor a[alpha, beta] at batches of
ambient points, together with its first coordinate derivatives, both in
closed form; there is no finite-difference fallback.

The paper's transport, variations and coefficients meet the connection only
contracted with a vector, so a plug-in offers Gamma and d a only as
contractions and the symbols are never stored.  Its override points
(subclass ``AmbientMetric``):

- ``metric(y)`` and ``dmetric(y)``, which a plug-in must supply; the base
  class raises ``NotImplementedError`` for either.
- ``christoffel_contract(y, u)`` returns G[g, b] = Gamma^g_{ab}(y) u^a for
  one vector u per point, and raises ``DegenerateMetricError`` where the
  metric is not positive definite.  The default is the general path: it
  checks the leading minors, inverts the batched 3x3 metrics and builds the
  symbols from ``dmetric``.  A plug-in whose symbols have a closed form
  overrides it: ``ConformalMetric`` (a = e^{2 phi} delta, det a = e^{6 phi})
  with (grad phi . u) delta^g_b + u^g d_b phi - d^g phi u_b, and
  ``FlatMetric`` with zeros.
- ``dmetric_contract(y, u)`` returns d_s a_{ab}(y) u^s.  The default
  contracts ``dmetric``.  ``ConformalMetric`` overrides it with
  2 e^{2 phi} (grad phi . u) delta_ab.  ``FlatMetric`` overrides only
  ``christoffel_contract``: every caller of this one checks ``is_flat()``
  first.

Index conventions on arrays: metric (..., a, b); first derivative
(..., a, b, s) meaning d a_{ab} / d y^s, both with the batch axes of ``y``
first, as plug-ins evaluate them.  The vector u of a contraction and its
results are node-last: u is (3, ...), G is (g, b, ...) and the contracted
derivative (a, b, ...), with the batch axes of ``y`` last, the layout the
per-node kernels contract in.
"""

from __future__ import annotations

import numpy as np

from ._contract import node_last
from .errors import DegenerateMetricError


class AmbientMetric:
    """Base metric plug-in: ``metric`` and ``dmetric`` are required."""

    def metric(self, y):
        raise NotImplementedError

    def dmetric(self, y):
        raise NotImplementedError

    def christoffel_contract(self, y, u):
        """G[g, b, ...] = Gamma^g_{ab}(y) u^a for node-last u (3, ...), after
        the positivity check of every point.  General path: the symbols
        Gamma^g_{ab} = 0.5 a^{gm} (d_a a_{mb} + d_b a_{ma} - d_m a_{ab})
        from ``dmetric``, contracted with u."""
        y = np.asarray(y, dtype=float)
        a = self.metric(y)
        ok, det = check_positive_definite(a)
        _require_positive(ok, det)
        # computed node-last over the flattened batch points n
        da = node_last(self.dmetric(y).reshape((-1, 3, 3, 3)))   # (a, b, s, n)
        ainv = node_last(np.linalg.inv(a).reshape((-1, 3, 3)))
        # lowered: Gamma_{ab,m} = 0.5 (d_a a_{mb} + d_b a_{ma} - d_m a_{ab})
        low = 0.5 * (np.transpose(da, (2, 1, 0, 3)) + np.transpose(da, (1, 2, 0, 3)) - da)
        gamma = np.einsum("gmn,abmn->gabn", ainv, low)
        out = np.einsum("gabn,an->gbn", gamma, np.reshape(u, (3, -1)))
        return out.reshape((3, 3) + y.shape[:-1])

    def dmetric_contract(self, y, u):
        """d_s a_{ab}(y) u^s as (a, b, ...) for node-last u (3, ...); by
        default the contraction of ``dmetric``."""
        y = np.asarray(y, dtype=float)
        da = node_last(self.dmetric(y).reshape((-1, 3, 3, 3)))   # (a, b, s, n)
        out = np.einsum("absn,sn->abn", da, np.reshape(u, (3, -1)))
        return out.reshape((3, 3) + y.shape[:-1])

    def is_flat(self):
        return False


class FlatMetric(AmbientMetric):
    """Euclidean metric; every derived transport quantity vanishes."""

    def metric(self, y):
        y = np.asarray(y, dtype=float)
        out = np.zeros(y.shape[:-1] + (3, 3))
        out[..., 0, 0] = out[..., 1, 1] = out[..., 2, 2] = 1.0
        return out

    def dmetric(self, y):
        y = np.asarray(y, dtype=float)
        return np.zeros(y.shape[:-1] + (3, 3, 3))

    def christoffel_contract(self, y, u):
        return np.zeros((3, 3) + np.shape(y)[:-1])

    def is_flat(self):
        return True


class ConformalMetric(AmbientMetric):
    """Metric e^{2 phi(y)} delta with a closed-form scalar exponent.

    ``phi_fn`` maps (..., 3) points to scalars; ``grad_fn`` returns the
    gradient (..., 3).
    """

    def __init__(self, phi_fn, grad_fn):
        self.phi_fn = phi_fn
        self.grad_fn = grad_fn

    def metric(self, y):
        y = np.asarray(y, dtype=float)
        phi = self.phi_fn(y)
        eye = np.eye(3)
        return np.exp(2.0 * phi)[..., None, None] * eye

    def dmetric(self, y):
        y = np.asarray(y, dtype=float)
        phi = self.phi_fn(y)
        grad = self.grad_fn(y)
        eye = np.eye(3)
        fac = 2.0 * np.exp(2.0 * phi)
        return fac[..., None, None, None] * eye[..., :, :, None] * grad[..., None, None, :]

    def christoffel_contract(self, y, u):
        """Closed form: G[g, b] = (grad phi . u) delta^g_b + u^g d_b phi -
        d^g phi u_b, after checking det a = e^{6 phi} at every point; entry
        by entry, as broadcast outer products of (3, N) fields run several
        times slower."""
        y = np.asarray(y, dtype=float)
        det = np.exp(6.0 * self.phi_fn(y))
        _require_positive(np.isfinite(det) & (det > 1e-14), det)
        grad = node_last(self.grad_fn(y).reshape((-1, 3)))
        u = np.reshape(u, (3, -1))
        out = np.empty((3, 3, u.shape[-1]))
        out[0, 0] = out[1, 1] = out[2, 2] = grad[0] * u[0] + grad[1] * u[1] + grad[2] * u[2]
        # the rest is antisymmetric in g and b
        for g, b in ((0, 1), (0, 2), (1, 2)):
            np.subtract(u[g] * grad[b], grad[g] * u[b], out=out[g, b])
            np.negative(out[g, b], out=out[b, g])
        return out.reshape((3, 3) + y.shape[:-1])

    def dmetric_contract(self, y, u):
        """Closed form: d_s a_{ab} u^s = 2 e^{2 phi} (grad phi . u) delta_ab."""
        y = np.asarray(y, dtype=float)
        fac = 2.0 * np.exp(2.0 * self.phi_fn(y)).reshape(-1)
        # the factor goes on grad phi first, as in ``dmetric``
        w = fac * node_last(self.grad_fn(y).reshape((-1, 3)))
        u = np.reshape(u, (3, -1))
        out = np.zeros((3, 3, u.shape[-1]))
        out[0, 0] = out[1, 1] = out[2, 2] = w[0] * u[0] + w[1] * u[1] + w[2] * u[2]
        return out.reshape((3, 3) + y.shape[:-1])


def conformal_linear_metric(k):
    """Metric e^{2 k.y} delta."""
    k = np.asarray(k, dtype=float)

    def phi(y):
        return y @ k

    def grad(y):
        return np.broadcast_to(k, y.shape).copy()

    return ConformalMetric(phi, grad)


def conformal_radial_metric(alpha):
    """Metric e^{2 phi} delta with phi = alpha (|y|^2 - 1) / 2.

    Equals the identity on the unit sphere |y| = 1 while keeping a nonzero
    gradient there, so sphere caps stay conjugate isothermal under it.
    """

    def phi(y):
        # |y|^2 summed as np.sum does, without its reduction machinery
        yy = y * y
        return 0.5 * alpha * (yy[..., 0] + yy[..., 1] + yy[..., 2] - 1.0)

    def grad(y):
        return alpha * y

    return ConformalMetric(phi, grad)


METRIC_KINDS = {
    "flat": lambda p: FlatMetric(),
    "conformal_linear": lambda p: conformal_linear_metric((p["k1"], p["k2"], p["k3"])),
    "conformal_radial": lambda p: conformal_radial_metric(p["alpha"]),
}


def make_metric(kind, params=None):
    params = params or {}
    if kind not in METRIC_KINDS:
        raise KeyError(f"unknown metric kind {kind!r}; valid: {sorted(METRIC_KINDS)}")
    return METRIC_KINDS[kind](params)


def check_positive_definite(a):
    """Leading principal minors of a symmetric (...,3,3) batch; the
    determinant must exceed 1e-14."""
    m1 = a[..., 0, 0]
    m2 = a[..., 0, 0] * a[..., 1, 1] - a[..., 0, 1] * a[..., 1, 0]
    m3 = np.linalg.det(a)
    ok = (m1 > 0) & (m2 > 0) & (m3 > 1e-14)
    return ok, m3


def _require_positive(ok, det):
    """Raise DegenerateMetricError naming the first point where ``ok`` fails."""
    if not np.all(ok):
        bad = np.argwhere(~ok)
        first = tuple(bad[0].tolist())
        raise DegenerateMetricError(
            f"metric not positive definite at {bad.shape[0]} point(s); "
            f"first offending index {first}, det={det[first]:.3e}"
        )


def norm_monitor(metric: AmbientMetric, points):
    """Discrete sup norms of the metric and its first derivatives at
    ``points``, measured and not judged."""
    y = np.asarray(points, dtype=float)
    return {
        "sup_metric": float(np.max(np.abs(metric.metric(y)))),
        "sup_dmetric": float(np.max(np.abs(metric.dmetric(y)))),
    }
