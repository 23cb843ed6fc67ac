"""Fields that vanish identically are skipped, and skipping changes nothing.

In a flat metric, and at t = 0 in any metric, the transport propagator is
the identity: the N/Q coefficients, Delta(B)'s transport tails and every
Christoffel or metric-derivative term are exact zeros, and the kernels do
not form them.  ``UndeclaredFlatMetric`` is the Euclidean metric without
saying so, so it runs every kernel's full path on the same zeros; both
paths must agree exactly.
"""

import sys

import numpy as np
import pytest

from mgdeform import flow, kpres
from mgdeform.cdot import PathIntegrator, solve_cdot
from mgdeform.flow import BoundarySpec, FlowConfig, init_flow, step
from mgdeform.gdef import assemble_coefficients
from mgdeform.grid import DiskGrid
from mgdeform.kpres import assemble_rates, delta_b, delta_g
from mgdeform.metrics import FlatMetric
from mgdeform.surface import SphereCapImmersion, build_surface
from mgdeform.transport import transport_normal

from helpers import (
    UndeclaredFlatMetric,
    make_coeff_fn,
    prescribed_deformation,
    smooth_scalar,
)

GRID = DiskGrid(16, 32)
CRITERION_11 = BoundarySpec(winding=1, gamma_kind="harmonic", epsilon=1e-3, mode=1)


def _surface(metric):
    return build_surface(SphereCapImmersion(1.0, 0.5), metric, GRID, ci_tol=1e-5)


@pytest.fixture(scope="module")
def both_metrics():
    """(metric, surface) for the declared and the undeclared flat metric."""
    return [(metric, _surface(metric)) for metric in (FlatMetric(), UndeclaredFlatMetric())]


def _assert_records_equal(a, b):
    # NormalTransport.identity says which path ran, so it differs
    for name in set(a.__dataclass_fields__) - {"identity"}:
        x, y = getattr(a, name), getattr(b, name)
        if hasattr(x, "__dataclass_fields__"):
            _assert_records_equal(x, y)
        else:
            assert np.array_equal(x, y), name


def test_skipping_kernels_equal_the_full_kernels(both_metrics):
    # one prescribed 4-step state through every kernel that skips vanishing
    # terms, in both metrics: the outputs are equal entry by entry
    outputs = []
    for metric, surf in both_metrics:
        a1d, a2d, cd = (smooth_scalar(GRID, seed, 2e-2) for seed in (1, 2, 3))
        deform = prescribed_deformation(surf, a1d, a2d, cd, 0.02, 4)
        before = prescribed_deformation(surf, a1d, a2d, cd, 0.015, 3)
        prev = assemble_coefficients(metric, surf, before)
        coeffs = assemble_coefficients(metric, surf, deform, prev=prev, dt=0.005)
        sol = solve_cdot(surf, make_coeff_fn(metric, surf, deform, a1d, a2d, prev=prev,
                                             dt=0.005),
                         deform.a1, deform.a2, a1d, a2d, PathIntegrator(GRID))
        gvar = delta_g(metric, surf, deform)
        fwd = transport_normal(metric, surf.y, deform.history, surf.n)
        bvar = delta_b(metric, surf, deform, fwd, gvar)
        prev_m4 = delta_b(metric, surf, before,
                          transport_normal(metric, surf.y, before.history, surf.n),
                          delta_g(metric, surf, before)).m4
        rates = assemble_rates(metric, surf, deform, gvar, bvar, deform.rate_displacement(),
                               a1d, a2d, prev_m4=prev_m4, dt=0.005, dadot=sol.dadot)
        outputs.append((coeffs, sol, gvar, fwd, bvar, rates))
    flat, full = outputs
    for a, b in zip(flat, full):
        _assert_records_equal(a, b)
    assert flat[1].iterations == full[1].iterations == 1


def test_skipping_flow_equals_the_full_flow(both_metrics):
    # criterion 11's flow at 16x32 for 4 steps: the same trace records and
    # the same exported fields at every step
    runs = []
    for _, surf in both_metrics:
        state = init_flow(surf, CRITERION_11, FlowConfig(t_final=0.02, dt=0.005))
        fields = []
        while state.step_index < state.config.n_steps:
            step(state)
            fields.append(state.fields)
        runs.append((state.records, fields))
    (flat_recs, flat_fields), (full_recs, full_fields) = runs
    assert [r.as_dict() for r in flat_recs] == [r.as_dict() for r in full_recs]
    for a, b in zip(flat_fields, full_fields):
        assert a.keys() == b.keys()
        for name in a:
            assert np.array_equal(a[name], b[name]), name


def test_flat_steady_step_forms_no_vanishing_field(both_metrics, monkeypatch):
    # after step 0 of criterion 11's flat flow, a step forms Delta(B) once,
    # in its monitors, and no contraction or derivative it runs is handed a
    # field that is zero everywhere
    _, surf = both_metrics[0]
    state = init_flow(surf, CRITERION_11, FlowConfig(t_final=0.02, dt=0.005))
    step(state)

    delta_b_calls = []
    real_delta_b = kpres.delta_b

    def counting_delta_b(*args, **kwargs):
        delta_b_calls.append(1)
        return real_delta_b(*args, **kwargs)

    zero_operands = []
    real_einsum = np.einsum

    def checked_einsum(subscripts, *operands, **kwargs):
        module = sys._getframe(1).f_globals["__name__"].rsplit(".", 1)[-1]
        if module in ("kpres", "gdef", "cdot", "transport"):
            for op in operands:
                if isinstance(op, np.ndarray) and not np.any(op):
                    zero_operands.append((module, subscripts))
        return real_einsum(subscripts, *operands, **kwargs)

    zero_fields = []
    real_grad = DiskGrid.grad_last

    def checked_grad(self, f):
        if not np.any(f):
            zero_fields.append(np.shape(f))
        return real_grad(self, f)

    monkeypatch.setattr(kpres, "delta_b", counting_delta_b)
    monkeypatch.setattr(flow, "delta_b", counting_delta_b, raising=False)
    monkeypatch.setattr(np, "einsum", checked_einsum)
    monkeypatch.setattr(DiskGrid, "grad_last", checked_grad)
    for _ in range(3):
        step(state)
        assert len(delta_b_calls) == 1
        delta_b_calls.clear()
    assert zero_operands == []
    assert zero_fields == []
