"""Polar tensor grid on the closed unit disk.

Nodes are the disk center plus ``n_r`` rings of ``n_theta`` equally spaced
angles, with the outermost ring lying on the boundary circle.  Nodes are
numbered center first, then ring-major.  ``grad_last``, the one derivative,
takes node-last fields (..., N) with any leading tensor axes; the line
integrals take (N, ...) fields.  Differentiation is spectral in the angle
and a 7-point, sixth-order finite difference along rays; every ray is
extended through the center onto its antipodal ray so that no one-sided
stencil is needed away from the rim.
"""

from __future__ import annotations

import numbers

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
        for name, size in (("n_r", n_r), ("n_theta", n_theta)):
            if not isinstance(size, numbers.Integral) or isinstance(size, bool):
                raise MgError(f"{name} must be an integer, got {size!r}")
        n_r, n_theta = int(n_r), int(n_theta)
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
        self.boundary_theta = np.arange(n_theta) * self.dtheta
        self._rim_cos = np.cos(self.boundary_theta)
        self._rim_sin = np.sin(self.boundary_theta)
        # every node field is the center, then the rings as (n_r, n_theta)
        # views; the trig of the ring angles serves all rings
        rings, radii = (n_r, n_theta), self.r_levels[1:, None]
        self.r, self.theta, self.x1, self.x2 = (np.empty(self.n_nodes) for _ in range(4))
        self.z = np.empty(self.n_nodes, dtype=complex)
        for field in (self.r, self.theta, self.x1, self.x2, self.z):
            field[0] = 0.0
        self.r[1:].reshape(rings)[:] = radii
        self.theta[1:].reshape(rings)[:] = self.boundary_theta
        np.multiply(radii, self._rim_cos, out=self.x1[1:].reshape(rings))
        np.multiply(radii, self._rim_sin, out=self.x2[1:].reshape(rings))
        self.z.real = self.x1
        self.z.imag = self.x2
        self.boundary_idx = self.node_index(n_r, np.arange(n_theta))
        self._build_cumint_weights()
        # per-grid tables built on first use: the derivative factors here,
        # the T operator's mode weights in ``vekua``
        self._caches = {}

    # -- indexing -----------------------------------------------------------

    def node_index(self, i, j):
        """Flat index of ring i (1..n_r), angle slot j (mod n_theta)."""
        j = np.asarray(j) % self.n_theta
        return 1 + (np.asarray(i) - 1) * self.n_theta + j

    # -- differentiation ------------------------------------------------------

    def _derivative_tables(self):
        """Per-grid factors of the Cartesian gradient, built on the first
        derivative and shared by every later one."""
        tables = self._caches.get("deriv")
        if tables is not None:
            return tables
        n_r, nt = self.n_r, self.n_theta
        k = np.fft.fftfreq(nt, d=1.0 / nt)
        k[nt // 2] = 0.0  # odd derivative of the Nyquist mode
        # contiguous (n_r, nt) factors: broadcast views of the rim trig
        # slow the products in grad_last
        cos = np.tile(self._rim_cos, (n_r, 1))
        sin = np.tile(self._rim_sin, (n_r, 1))
        rinv = (1.0 / self.r_levels[1:])[:, None]
        # center gradient: the m=1 Fourier coefficient of a smooth field on
        # ring r expands in odd powers of r; Richardson weights over the
        # first three rings isolate the linear term.  With
        # alpha_pm = sum_i w_i sum_j f_ij e^{-+i theta_j} / n_theta the
        # gradient is (alpha_+ + alpha_-, i (alpha_+ - alpha_-)), which folds
        # into real weights 2 w_i (cos, sin)(theta_j) / n_theta.
        w = _CENTER_RICHARDSON * n_r / 30.0
        ring = 2.0 / nt * np.stack([self._rim_cos, self._rim_sin])
        tables = {
            "dr_w": _D1_ROWS * n_r / 60.0,  # n_r = 1/h exactly
            "ik": 1j * k,
            "cos": cos,
            "sin": sin,
            "sin_rinv": sin * rinv,
            "cos_rinv": cos * rinv,
            "center_w": (ring[:, None, :] * w[None, :, None]).reshape(2, 3 * nt),
        }
        self._caches["deriv"] = tables
        return tables

    def grad_last(self, f):
        """Cartesian gradient of a node-last field (..., N) as (..., 2, N).

        Each ray is extended through the center onto its antipodal ray in
        one buffer of 2 n_r + 1 levels; the centered stencil row is a sum of
        shifted slices and the three rim rows read the last seven levels.
        The angular derivative is a real FFT for real fields.  Every grid
        derivative goes through here; ``f`` may be any strided view.
        """
        f = np.asarray(f)
        n_r, nt, half = self.n_r, self.n_theta, self.n_theta // 2
        tab = self._derivative_tables()
        dr_w, ik = tab["dr_w"], tab["ik"]
        tail = f.shape[:-1]
        # levels: rings n_r..1 turned by half a turn, the center, rings 1..n_r
        ext = np.empty(tail + (2 * n_r + 1, nt), dtype=np.result_type(f.dtype, np.float64))
        rings = f[..., 1:].reshape(tail + (n_r, nt))
        ext[..., n_r + 1:, :] = rings
        ext[..., n_r, :] = f[..., :1]
        ext[..., n_r - 1::-1, :half] = rings[..., half:]
        ext[..., n_r - 1::-1, half:] = rings[..., :half]
        ext = ext.reshape((-1, 2 * n_r + 1, nt))
        rings = ext[:, n_r + 1:]

        out = np.empty((ext.shape[0], 2, self.n_nodes), dtype=ext.dtype)
        g1 = out[:, 0, 1:].reshape(rings.shape)
        g2 = out[:, 1, 1:].reshape(rings.shape)

        # radial: ring i reads levels n_r + i - 3 .. n_r + i + 3 (centered,
        # summed slot by slot with g2 as scratch) up to ring n_r - 3; the
        # last three rings read the last seven levels
        k = n_r - 3
        dr = np.empty_like(rings)
        mid, tmp = dr[:, :k], g2[:, :k]
        np.multiply(dr_w[0, 0], ext[:, n_r - 2 : n_r - 2 + k], out=mid)
        for s in (1, 2, 4, 5, 6):
            mid += np.multiply(dr_w[0, s], ext[:, n_r - 2 + s : n_r - 2 + s + k], out=tmp)
        dr[:, k:] = np.einsum("rs,msj->mrj", dr_w[1:], ext[:, -7:])

        if np.iscomplexobj(rings):
            spec = np.fft.fft(rings, axis=-1)
            spec *= ik
            dt = np.fft.ifft(spec, axis=-1)
        else:
            spec = np.fft.rfft(rings, axis=-1)
            spec *= ik[: half + 1]
            dt = np.fft.irfft(spec, n=nt, axis=-1)

        np.multiply(tab["cos"], dr, out=g1)
        np.multiply(tab["sin"], dr, out=g2)
        g1 -= np.multiply(tab["sin_rinv"], dt, out=dr)
        g2 += np.multiply(tab["cos_rinv"], dt, out=dr)
        out[:, :, 0] = ext[:, n_r + 1 : n_r + 4].reshape(-1, 3 * nt) @ tab["center_w"].T
        return out.reshape(tail + (2, self.n_nodes))

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
        # the first, an interior and the rim panel's weights, (4, 3)
        self._panel_w = self._cum_w[[0, 1, -1]].T

    def panel_sums(self, weights, levels, out):
        """out[i] = sum_s weights[s, i] levels[_cum_idx[i, s]] for every panel.

        Row i integrates the panel [r_i, r_{i+1}].  Rows 1 .. n_r - 2 read
        ray levels i - 1 .. i + 2, four slices of ``levels``; row 0 reads
        row 1's levels and the rim row n_r - 1 reads row n_r - 2's.  The
        four products are added in stencil order.  ``levels`` holds ray
        levels 0 .. n_r along its first axis.  ``weights`` is (4, n_r, ...),
        one column per panel, or (4, 3, ...), whose middle column serves
        every interior panel; either broadcasts against a row.  The T
        operator and the ray integrals both walk the stencil here.
        """
        n_mid = self.n_r - 2
        tmp = np.empty_like(out[1:-1])
        np.multiply(weights[0, 1:-1], levels[:n_mid], out=out[1:-1])
        np.multiply(weights[0, 0], levels[0], out=out[0])
        np.multiply(weights[0, -1], levels[n_mid - 1], out=out[-1])
        for s in (1, 2, 3):
            lev = levels[s : s + n_mid]
            out[1:-1] += np.multiply(weights[s, 1:-1], lev, out=tmp)
            out[0] += np.multiply(weights[s, 0], lev[0], out=tmp[0])
            out[-1] += np.multiply(weights[s, -1], lev[-1], out=tmp[0])

    def line_integral_center(self, p, q):
        """Integral of p dx1 + q dx2 along straight rays from the center.

        The integrand p cos + q sin is laid out on ray levels 0 (the center,
        on every ray) .. n_r, and ``panel_sums`` integrates ring i's panel
        into row i of a buffer below a zero row.  The cumulative sum runs
        outward from that zero row, whose last entry is the center node of
        the result.  ``p`` and ``q`` are (N,) or (N, m) fields of one shape;
        every buffer is made per call.
        """
        p = np.asarray(p)
        q = np.asarray(q)
        n_r, nt = self.n_r, self.n_theta
        p2 = p.reshape(self.n_nodes, 1, -1)
        q2 = q.reshape(self.n_nodes, 1, -1)
        rays = (n_r, nt, p2.shape[-1])
        cos, sin = self._rim_cos[:, None], self._rim_sin[:, None]
        lev = np.empty((n_r + 1,) + rays[1:], np.result_type(p2, q2, np.float64))
        incr = np.empty_like(lev)
        # the q sin term passes through incr, which the panels then overwrite
        np.multiply(p2[1:].reshape(rays), cos, out=lev[1:])
        np.multiply(p2[0], cos, out=lev[0])
        np.multiply(q2[1:].reshape(rays), sin, out=incr[1:])
        np.multiply(q2[0], sin, out=incr[0])
        lev += incr
        self.panel_sums(self._panel_w, lev, incr[1:])
        incr[0] = 0.0
        np.add.accumulate(incr, axis=0, out=incr)
        return incr.reshape(-1, rays[-1])[nt - 1 :].reshape(p.shape)

    def line_integral_from(self, x0_node, p, q):
        """Integral of p dx1 + q dx2 along straight segments x0 -> node.

        The flow anchors its path integrals at the disk center, so node 0 is
        the only base point; it rides the grid rays exactly.
        """
        if x0_node != 0:
            raise MgError(f"line integrals start at the center node 0, got {x0_node}")
        return self.line_integral_center(p, q)
