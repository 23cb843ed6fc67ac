"""Polar tensor grid on the closed unit disk.

Nodes are the disk center plus ``n_r`` rings of ``n_theta`` equally spaced
angles, with the outermost ring lying on the boundary circle.  Fields live on
the flat node axis (center first, then ring-major) and may carry trailing
tensor axes.  Differentiation is spectral in the angle and a 7-point,
sixth-order finite difference along rays; every ray is extended through the
center onto its antipodal ray so that no one-sided stencil is needed away
from the rim.
"""

from __future__ import annotations

import numpy as np

from .errors import MgError

# integrals over one unit-spaced panel of the cubic Lagrange basis on four
# consecutive levels: first, middle and last panel of the stencil
_PANEL_FIRST = np.array([9.0, 19.0, -5.0, 1.0]) / 24.0
_PANEL_INTERIOR = np.array([-1.0, 13.0, 13.0, -1.0]) / 24.0
_PANEL_RIM = np.array([1.0, -5.0, 19.0, 9.0]) / 24.0

# 60 times the 7-point, sixth-order first-derivative weights on unit-spaced
# levels, evaluated at stencil slot 3 + s for row s: row 0 is centered, rows
# 1-3 serve the last three rings, whose stencils stop at the rim
_D1_ROWS = np.array([
    [-1, 9, -45, 0, 45, -9, 1],
    [1, -8, 30, -80, 35, 24, -2],
    [-2, 15, -50, 100, -150, 77, 10],
    [10, -72, 225, -400, 450, -360, 147],
])
# 30 times the Richardson weights c_i on rings i = 1, 2, 3 of unit spacing:
# sum_i c_i i^p is 1 for p = 1 and 0 for p = 3, 5
_CENTER_RICHARDSON = np.array([45, -9, 1])


class DiskGrid:
    """Disk discretization shared by every field-valued module."""

    def __init__(self, n_r: int, n_theta: int):
        if n_r < 8:
            raise MgError(f"n_r must be >= 8, got {n_r}")
        if n_theta < 16:
            raise MgError(f"n_theta must be >= 16, got {n_theta}")
        if n_theta % 2 != 0:
            raise MgError(f"n_theta must be even, got {n_theta}")
        self.n_r = n_r
        self.n_theta = n_theta
        self.n_nodes = 1 + n_r * n_theta
        self.h = 1.0 / n_r
        self.dtheta = 2.0 * np.pi / n_theta

        self.r_levels = np.arange(n_r + 1) * self.h  # 0 = center
        thetas = np.arange(n_theta) * self.dtheta
        rr = np.repeat(self.r_levels[1:], n_theta)
        tt = np.tile(thetas, n_r)
        self.r = np.concatenate([[0.0], rr])
        self.theta = np.concatenate([[0.0], tt])
        self.x1 = self.r * np.cos(self.theta)
        self.x2 = self.r * np.sin(self.theta)
        self.x1[0] = 0.0
        self.x2[0] = 0.0
        self.z = self.x1 + 1j * self.x2
        self.boundary_idx = self.node_index(n_r, np.arange(n_theta))
        self.boundary_theta = thetas
        self._build_area_weights()
        self._build_radial_stencils()
        self._build_derivative_tables()
        self._build_cumint_weights()
        self._caches = {}

    # -- indexing -----------------------------------------------------------

    def node_index(self, i, j):
        """Flat index of ring i (1..n_r), angle slot j (mod n_theta)."""
        j = np.asarray(j) % self.n_theta
        return 1 + (np.asarray(i) - 1) * self.n_theta + j

    def _split(self, f):
        f = np.asarray(f)
        shape_tail = f.shape[1:]
        flat = f.reshape(self.n_nodes, -1)
        center = flat[0]
        rings = flat[1:].reshape(self.n_r, self.n_theta, -1)
        return center, rings, shape_tail

    def _join(self, center, rings, shape_tail):
        flat = np.concatenate(
            [center.reshape(1, -1), rings.reshape(self.n_r * self.n_theta, -1)]
        )
        return flat.reshape((self.n_nodes,) + shape_tail)

    # -- quadrature ---------------------------------------------------------

    def _build_area_weights(self):
        h, nt = self.h, self.n_theta
        w = np.empty(self.n_nodes)
        w[0] = np.pi * (h / 2.0) ** 2
        for i in range(1, self.n_r + 1):
            if i < self.n_r:
                band = self.r_levels[i] * h
            else:
                band = h / 2.0 - h * h / 8.0
            w[self.node_index(i, np.arange(nt))] = band * self.dtheta
        # split the rim half-band between the last two rings so that the
        # radial first moment matches (the rim node sits off its band centroid)
        i1 = (h / 2.0 - h * h / 8.0)
        m1 = -h * h / 8.0 + h**3 / 24.0  # first moment about r = 1
        w_in = -m1 / h
        w_rim = i1 - w_in
        w[self.node_index(self.n_r, np.arange(nt))] = w_rim * self.dtheta
        w[self.node_index(self.n_r - 1, np.arange(nt))] += w_in * self.dtheta
        self.area_weights = w

    def integrate(self, f):
        """Area integral over the closed disk."""
        return np.tensordot(self.area_weights, np.asarray(f), axes=(0, 0))

    # -- radial stencils -----------------------------------------------------

    def _ext_index_table(self):
        """Node indices of each ray extended through the center, r=-1..1."""
        n_r, nt = self.n_r, self.n_theta
        half = nt // 2
        idx = np.empty((2 * n_r + 1, nt), dtype=int)
        idx[n_r] = 0  # center row
        for i in range(1, n_r + 1):
            idx[n_r + i] = self.node_index(i, np.arange(nt))
            idx[n_r - i] = self.node_index(i, (np.arange(nt) + half) % nt)
        return idx

    def _build_radial_stencils(self):
        n_r = self.n_r
        rings = np.arange(1, n_r + 1)
        shift = np.maximum(0, rings - n_r + 3)
        lo = n_r + rings - 3 - shift  # first extended-ray level of the stencil
        self._dr_idx = self._ext_index_table()[lo[:, None] + np.arange(7)]
        self._dr_w = _D1_ROWS[shift] * n_r / 60.0  # n_r = 1/h exactly

    def _build_derivative_tables(self):
        """Per-grid factors of the Cartesian gradient, shared by every call."""
        nt = self.n_theta
        k = np.fft.fftfreq(nt, d=1.0 / nt)
        k[nt // 2] = 0.0  # odd derivative of the Nyquist mode
        self._ik = 1j * k
        cos = np.cos(self.theta)
        sin = np.sin(self.theta)
        rinv = np.zeros_like(self.r)
        rinv[1:] = 1.0 / self.r[1:]
        self._cos = cos
        self._sin = sin
        self._sin_rinv = sin * rinv
        self._cos_rinv = cos * rinv
        # center gradient: the m=1 Fourier coefficient of a smooth field on
        # ring r expands in odd powers of r; Richardson weights over the
        # first three rings isolate the linear term.  With
        # alpha_pm = sum_i w_i sum_j f_ij e^{-+i theta_j} / n_theta the
        # gradient is (alpha_+ + alpha_-, i (alpha_+ - alpha_-)), which folds
        # into real weights 2 w_i (cos, sin)(theta_j) / n_theta.
        w = _CENTER_RICHARDSON * self.n_r / 30.0
        ring = 2.0 / nt * np.stack([np.cos(self.boundary_theta),
                                    np.sin(self.boundary_theta)])
        self._center_w = (ring[:, None, :] * w[None, :, None]).reshape(2, 3 * nt)

    def d_r(self, f):
        """Radial derivative on rings; the center slot is set to zero."""
        f = np.asarray(f)
        flat = f.reshape(self.n_nodes, -1)
        vals = flat[self._dr_idx]  # (n_r, 7, n_theta, M)
        rings = np.einsum("is,isjm->ijm", self._dr_w, vals)
        out = np.zeros(flat.shape, dtype=rings.dtype)
        out[1:] = rings.reshape(-1, flat.shape[1])
        return out.reshape(f.shape)

    def d_theta(self, f):
        """Angular derivative (spectral); zero at the center."""
        f = np.asarray(f)
        flat = f.reshape(self.n_nodes, -1)
        rings = flat[1:].reshape(self.n_r, self.n_theta, -1)
        spec = np.fft.fft(rings, axis=1)
        spec *= self._ik[None, :, None]
        deriv = np.fft.ifft(spec, axis=1)
        if not np.iscomplexobj(rings):
            deriv = deriv.real
        out = np.zeros(flat.shape, dtype=deriv.dtype)
        out[1:] = deriv.reshape(-1, flat.shape[1])
        return out.reshape(f.shape)

    def grad(self, f):
        """Cartesian gradient (d/dx1, d/dx2) of a field with trailing axes.

        One radial pass, one angular pass and one center-gradient product
        serve both components; ``ddx1``, ``ddx2``, ``dz_bar`` and ``dz`` all
        go through here.
        """
        f = np.asarray(f)
        fr = self.d_r(f)
        ft = self.d_theta(f)
        shape = (self.n_nodes,) + (1,) * (f.ndim - 1)
        f1 = self._cos.reshape(shape) * fr - self._sin_rinv.reshape(shape) * ft
        f2 = self._sin.reshape(shape) * fr + self._cos_rinv.reshape(shape) * ft
        inner = f.reshape(self.n_nodes, -1)[1 : 1 + 3 * self.n_theta]
        center = self._center_w @ inner  # (2, M)
        f1[0] = center[0].reshape(f.shape[1:])
        f2[0] = center[1].reshape(f.shape[1:])
        return f1, f2

    def ddx1(self, f):
        """Cartesian derivative along x1."""
        return self.grad(f)[0]

    def ddx2(self, f):
        """Cartesian derivative along x2."""
        return self.grad(f)[1]

    def dz_bar(self, f):
        """Wirtinger derivative 0.5*(d/dx1 + i d/dx2)."""
        f1, f2 = self.grad(f)
        return 0.5 * (f1 + 1j * f2)

    def dz(self, f):
        f1, f2 = self.grad(f)
        return 0.5 * (f1 - 1j * f2)

    # -- cumulative radial integration ---------------------------------------

    def _build_cumint_weights(self):
        # panel [r_{i-1}, r_i] integrates the cubic through four uniform ray
        # levels: the first panel and the rim panel sit at the ends of their
        # stencils, every other panel in the middle
        n_r = self.n_r
        starts = np.clip(np.arange(n_r) - 1, 0, n_r - 3)
        w = np.empty((n_r, 4))
        w[0] = _PANEL_FIRST
        w[1:-1] = _PANEL_INTERIOR
        w[-1] = _PANEL_RIM
        # ray levels read by each panel's cubic: (n_r, 4)
        self._cum_idx = starts[:, None] + np.arange(4)[None, :]
        self._cum_w = self.h * w

    def _ray_values(self, f):
        """Field values along each ray: shape (n_r + 1, n_theta, M)."""
        center, rings, tail = self._split(f)
        rays = np.empty((self.n_r + 1, self.n_theta, rings.shape[2]), dtype=rings.dtype)
        rays[0] = center[None, :]
        rays[1:] = rings
        return rays, tail

    def _cumulate_rays(self, rays, tail):
        """Cumulative panel integrals of ray samples, as a node field."""
        incr = np.einsum("is,isjm->ijm", self._cum_w, rays[self._cum_idx])
        cum = np.cumsum(incr, axis=0)
        center = np.zeros(rays.shape[2], dtype=cum.dtype)
        return self._join(center, cum, tail)

    def cumint_radial(self, f):
        """Cumulative integral of f along each ray from the center outward."""
        return self._cumulate_rays(*self._ray_values(f))

    def line_integral_center(self, p, q):
        """Integral of p dx1 + q dx2 along straight rays from the center."""
        cos = np.cos(self.boundary_theta)
        sin = np.sin(self.boundary_theta)
        p_rays, tail = self._ray_values(p)
        q_rays, _ = self._ray_values(q)
        integrand = p_rays * cos[None, :, None] + q_rays * sin[None, :, None]
        return self._cumulate_rays(integrand, tail)

    def line_integral_from(self, x0_node, p, q):
        """Integral of p dx1 + q dx2 along straight segments x0 -> node.

        The flow anchors its path integrals at the disk center, so node 0 is
        the only base point; it rides the grid rays exactly.
        """
        if x0_node != 0:
            raise MgError(f"line integrals start at the center node 0, got {x0_node}")
        return self.line_integral_center(p, q)
