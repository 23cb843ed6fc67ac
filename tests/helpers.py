"""Shared builders for deformation-state fixtures."""

import numpy as np

from mgdeform.gdef import DeformationState, assemble_coefficients
from mgdeform.metrics import AmbientMetric, conformal_linear_metric, conformal_radial_metric
from mgdeform.surface import Immersion
from mgdeform.transport import TransportHistory


class ChartRotated(Immersion):
    """The immersion in the chart rotated by ``alpha``: y'(x) = y(R x), with
    partials y'_,i = y_,k R_ki.  The surface and its metric are unchanged;
    on a grid with alpha = 2 pi s / n_theta node (i, j) of the new chart is
    node (i, j + s) of the old one (``chart_shift``)."""

    def __init__(self, base, alpha):
        self.base = base
        c, s = np.cos(alpha), np.sin(alpha)
        self.rot = np.array([[c, -s], [s, c]])

    def _rotated(self, x1, x2):
        (r11, r12), (r21, r22) = self.rot
        return r11 * x1 + r12 * x2, r21 * x1 + r22 * x2

    def chart(self, x1, x2):
        return self.base.chart(*self._rotated(x1, x2))

    def jacobian(self, x1, x2):
        return self.base.jacobian(*self._rotated(x1, x2)) @ self.rot


class AmbientMoved(Immersion):
    """The immersion moved by the ambient map y -> R y + d: chart R y + d,
    jacobian R J.  Where the map is an isometry of the metric, the flow of
    the moved surface is the moved flow, z' = R z."""

    def __init__(self, base, rot, shift=(0.0, 0.0, 0.0)):
        self.base = base
        self.rot = np.asarray(rot, dtype=float)
        self.shift = np.asarray(shift, dtype=float)

    def chart(self, x1, x2):
        return self.base.chart(x1, x2) @ self.rot.T + self.shift

    def jacobian(self, x1, x2):
        return self.rot @ self.base.jacobian(x1, x2)


def rotation(axis, angle):
    """The rotation by ``angle`` about the unit vector along ``axis``
    (Rodrigues' formula)."""
    k = np.asarray(axis, dtype=float) / np.linalg.norm(axis)
    cross = np.array([[0.0, -k[2], k[1]], [k[2], 0.0, -k[0]], [-k[1], k[0], 0.0]])
    return np.eye(3) + np.sin(angle) * cross + (1.0 - np.cos(angle)) * cross @ cross


def chart_shift(grid, s):
    """Node permutation p with f[p] the field f read in the chart rotated by
    s angle slots: p maps node (i, j) to (i, j + s) and keeps the center."""
    rings = np.repeat(np.arange(1, grid.n_r + 1), grid.n_theta)
    slots = np.tile(np.arange(grid.n_theta), grid.n_r)
    return np.concatenate([[0], grid.node_index(rings, slots + s)])


class RadialWarpedMetric(AmbientMetric):
    """a = delta + beta y y^T, (1 + beta r^2) dr^2 + r^2 dOmega^2 in polar
    form: not conformal, and it supplies only ``metric`` and ``dmetric``, so
    its Christoffel symbols take the general path.  Spheres about the origin
    are umbilic in it, so sphere caps stay conjugate isothermal."""

    def __init__(self, beta):
        self.beta = beta

    def metric(self, y):
        y = np.asarray(y, dtype=float)
        return np.eye(3) + self.beta * y[..., :, None] * y[..., None, :]

    def dmetric(self, y):
        # d a_ab / d y^s = beta (delta_as y_b + y_a delta_bs)
        y = np.asarray(y, dtype=float)
        eye = np.eye(3)
        return self.beta * (eye[:, None, :] * y[..., None, :, None]
                            + y[..., :, None, None] * eye[None, :, :])


class UndeclaredFlatMetric(AmbientMetric):
    """The Euclidean metric through the plug-in interface alone: identity
    ``metric``, zero ``dmetric`` and ``is_flat()`` False, so every kernel
    takes its curved path and forms the terms a flat metric skips."""

    def metric(self, y):
        y = np.asarray(y, dtype=float)
        return np.broadcast_to(np.eye(3), y.shape[:-1] + (3, 3)).copy()

    def dmetric(self, y):
        y = np.asarray(y, dtype=float)
        return np.zeros(y.shape[:-1] + (3, 3, 3))


# curved metrics whose Christoffel terms the closed-form cascades must carry:
# both conformal kinds and a non-conformal one on the general path
CURVED_METRICS = {
    "conformal_radial": lambda: conformal_radial_metric(0.5),
    "conformal_linear": lambda: conformal_linear_metric((0.3, 0.0, 0.2)),
    "radial_warped": lambda: RadialWarpedMetric(0.5),
}


def prescribed_deformation(surface, a1dot, a2dot, cdot, t, n_steps):
    """State reached by integrating constant rates up to time t."""
    n = surface.grid.n_nodes
    taus = np.linspace(0.0, t, n_steps + 1)
    zdot = (
        a1dot[:, None] * surface.y1
        + a2dot[:, None] * surface.y2
        + cdot[:, None] * surface.n
    )
    z = np.stack([tau * zdot for tau in taus])
    zd = np.stack([zdot.copy() for _ in taus])
    hist = TransportHistory(taus, z, zd)
    return DeformationState(
        surface=surface,
        a1=t * a1dot, a2=t * a2dot, c=t * cdot,
        a1dot=a1dot.copy(), a2dot=a2dot.copy(), cdot=cdot.copy(),
        history=hist, t=t,
    )


def dz_bar(grid, f):
    """Wirtinger derivative 0.5 (d/dx1 + i d/dx2) of an (N,) field."""
    f1, f2 = grid.grad_last(f)
    return 0.5 * (f1 + 1j * f2)


def state_at(surface, a1dot, a2dot, cdot, tau, t, n_steps):
    """Same prescribed flow truncated at an earlier time tau <= t."""
    m = int(round(tau / (t / n_steps)))
    return prescribed_deformation(surface, a1dot, a2dot, cdot, tau, max(m, 1))


def make_coeff_fn(metric, surface, deform, a1dot, a2dot, prev=None, dt=None):
    """Coefficient assembler that feeds the cdot iterate into the history."""

    def fn(cdot_iter):
        hist = deform.history_with_rates(a1dot, a2dot, cdot_iter)
        return assemble_coefficients(
            metric, surface, deform, history=hist, prev=prev, dt=dt
        )

    return fn


def smooth_scalar(grid, seed=0, amp=1.0):
    rng = np.random.default_rng(seed)
    c = rng.normal(size=5)
    x, y = grid.x1, grid.x2
    return amp * (
        c[0]
        + c[1] * x
        + c[2] * y
        + c[3] * np.sin(1.5 * x) * np.cos(y)
        + c[4] * x * y
    )


def manufactured_problem(grid, n=1, with_e=True, amp=0.3, swap=False):
    """Full boundary-value problem with a known smooth solution."""
    from mgdeform.vekua import BoundaryProblem

    th = grid.boundary_theta
    lam = np.exp(1j * n * th)
    z = grid.z
    a_field = amp * (0.5 + 0.3 * z**2)
    b_field = amp * (0.2 - 0.4j * np.conj(z))
    w_star = z**2 * np.conj(z) + 0.4 * np.exp(z)  # d_zbar = z^2, closed form
    if with_e:
        q0 = 0.8 + 0.2 * grid.x1
        vv = 1.0 + 0.3 * grid.x2**2
        e0_point = 0.5j * q0
    else:
        e0_point = None
        vv = None
    prob = BoundaryProblem(
        grid=grid, lam=lam, phi=np.zeros(grid.n_theta), A=a_field, B=b_field,
        e0_point=e0_point, e0_weight=vv, e_swap=swap,
    )
    psi = z**2 + a_field * w_star + b_field * np.conj(w_star) + prob.e_operator(w_star)
    prob.psi = psi
    prob.phi = np.real(np.conj(lam) * w_star[grid.boundary_idx])
    return prob, w_star
