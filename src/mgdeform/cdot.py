"""Reconstruction of the normal rate from the tangential rates.

Integrating the rate form of the tangential system along admissible curves
from the fixed base point turns it into a fixed-point problem
cdot = L(cdot) + gamma with gamma the plain -V adot line integral and L a
path integral whose kernel carries the N/Q coefficient rates.  The kernel
feeds back on cdot only through the final history sample, which keeps the
iteration contractive for small times.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    ConvergenceError,
    MgError,
    NearSingularDenominatorError,
    NoContractionError,
)
from .gdef import GDefCoefficients, tangential_grad
from .grid import DiskGrid
from .surface import SurfaceState


@dataclass
class PathIntegrator:
    """Straight segments from the base node, which is the disk center: the
    paths ride the grid rays exactly."""

    grid: DiskGrid
    x0_node: int = 0

    def __post_init__(self):
        if self.x0_node != 0:
            raise MgError(f"the base point is the center node 0, got {self.x0_node}")

    def line_integral(self, p, q):
        return self.grid.line_integral_from(self.x0_node, p, q)


def gamma_t(surface: SurfaceState, a1dot, a2dot, integrator: PathIntegrator):
    """gamma(x) = integral of -V (a1dot dx1 + a2dot dx2) from the base point."""
    v = surface.V
    return integrator.line_integral(-v * a1dot, -v * a2dot)


def kernel_fields(surface: SurfaceState, coeffs: GDefCoefficients,
                  a_vec, adot, da, dadot):
    """The two bracketed kernel components (one per differential), from the
    stacked fields and rates (2, N) and their d_i a^j as (j, i, N)."""
    n0 = coeffs.n_j[0]
    den = 1.0 + n0
    if np.min(np.abs(den)) <= 0.5:
        raise NearSingularDenominatorError(
            "1 + N0 dropped below 0.5; outside the contraction regime"
        )
    v = surface.V
    nk = coeffs.n_j[1:]             # (k, N)
    numer = (
        -v * adot * n0
        + np.einsum("kn,kin->in", nk, dadot)
        + np.einsum("kn,kin->in", coeffs.ndot[1:], da)
        + coeffs.qdot
    )
    stat = v * a_vec + np.einsum("kn,kin->in", nk, da) + coeffs.q_i
    out = -numer / den + coeffs.ndot[0] * stat / den**2
    return out[0], out[1]


@dataclass
class CdotSolution:
    cdot: np.ndarray
    gamma: np.ndarray
    iterations: int
    rate: float            # largest sweep ratio K3 above round-off; 0 if none
    residual: float        # sup |L(cdot) + gamma - cdot|, from the certifying sweep
    coeffs: GDefCoefficients   # coeff_fn(cdot), from that sweep
    dadot: np.ndarray      # d_i adot^j of the solve's rates, (j, i, N)

    @property
    def p_field(self):
        """The Lipschitz remainder P = cdot - gamma."""
        return self.cdot - self.gamma


def _round_off_floor(cdot):
    """64 eps max(1, max|c|): a sweep difference within a few ulps of the
    iterate is the round-off of the line integral and the coefficients, not
    contraction, so a ratio whose later difference is that small measures
    noise and is not counted."""
    return 64 * np.finfo(float).eps * max(1.0, float(np.max(np.abs(cdot))))


def solve_cdot(surface: SurfaceState, coeff_fn, a1, a2, a1dot, a2dot,
               integrator: PathIntegrator, tol=1e-10, max_iter=50,
               c0=None, da=None, dadot=None) -> CdotSolution:
    """Successive approximations for cdot = L(cdot) + gamma.

    ``coeff_fn(cdot_iterate)`` must return coefficient fields whose rates
    reflect the iterate through the final history sample.  Sweep k
    assembles coeff_fn(c_k), from c_0 = ``c0`` or gamma, and the first c_k
    with d_k = |L(c_k) + gamma - c_k| <= tol max(1, |c_k|) is returned with
    those coefficients and ``residual`` d_k: the last ``coeff_fn`` call is at
    the returned iterate.  ``da`` is a state's cached d_i a^j and ``dadot``
    d_i adot^j of the rates, each taken here when not given, so the rates
    are differentiated at most once per solve.  Where the
    coefficients vanish (``GDefCoefficients.vanish``) the kernel is 0 and
    the sweep's image is gamma itself.
    """
    if not tol > 0:
        raise MgError(f"tol must be positive, got {tol}")
    if max_iter < 1:
        raise MgError(f"cdot iteration needs max_iter >= 1, got {max_iter}")
    grid = surface.grid
    a_vec = np.stack([a1, a2])
    adot = np.stack([a1dot, a2dot])
    if da is None:
        da = tangential_grad(grid, a1, a2)
    if dadot is None:
        dadot = tangential_grad(grid, a1dot, a2dot)

    gamma = gamma_t(surface, a1dot, a2dot, integrator)
    cdot = gamma.copy() if c0 is None else np.asarray(c0, dtype=float).copy()
    diffs = []
    for _ in range(max_iter):
        coeffs = coeff_fn(cdot)
        if coeffs.vanish:
            # the kernel is linear in the coefficients and their rates
            cdot_new = gamma
        else:
            b1, b2 = kernel_fields(surface, coeffs, a_vec, adot, da, dadot)
            cdot_new = integrator.line_integral(b1, b2) + gamma
        d = float(np.max(np.abs(cdot_new - cdot)))
        diffs.append(d)
        if d <= tol * max(1.0, float(np.max(np.abs(cdot)))):
            break
        cdot = cdot_new
    else:
        # diffs[-2] > 0, or that sweep would have stopped the loop
        rate = 0.0
        if len(diffs) > 1 and diffs[-1] > _round_off_floor(cdot):
            rate = diffs[-1] / diffs[-2]
        sweeps = "sweep differences " + ", ".join(f"{d:.3e}" for d in diffs)
        if rate >= 1.0:
            raise NoContractionError(
                f"cdot iteration expands (ratio {rate:.3f}); reduce the time step ({sweeps})"
            )
        raise ConvergenceError(f"cdot iteration did not settle in {max_iter} sweeps ({sweeps})")
    floor = _round_off_floor(cdot)
    rate = 0.0
    for i in range(1, len(diffs)):
        if diffs[i] > floor:
            rate = max(rate, diffs[i] / diffs[i - 1])
    return CdotSolution(cdot=cdot, gamma=gamma, iterations=len(diffs),
                        rate=rate, residual=d, coeffs=coeffs, dadot=dadot)
