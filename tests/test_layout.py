import dataclasses
import sys

import numpy as np
import pytest

from mgdeform._contract import node_last
from mgdeform.cdot import PathIntegrator, solve_cdot
from mgdeform.flow import BoundarySpec, FlowConfig, init_flow, step
from mgdeform.gdef import assemble_coefficients, gdef_normal_residual, tangential_grad
from mgdeform.grid import DiskGrid
from mgdeform.kpres import assemble_rates, assemble_variation
from mgdeform.metrics import FlatMetric, conformal_radial_metric
from mgdeform.surface import SphereCapImmersion, build_surface, make_immersion
from mgdeform.transport import transport_propagator

from helpers import RadialWarpedMetric, make_coeff_fn, prescribed_deformation, smooth_scalar

KERNELS = ("kpres", "gdef", "transport", "metrics", "surface", "cdot")

GRID = DiskGrid(16, 32)


def _surfaces():
    # a curved cap, and a flat paraboloid built with its normal flipped
    return [
        build_surface(SphereCapImmersion(1.0, 0.5), conformal_radial_metric(0.5),
                      GRID, ci_tol=1e-5),
        build_surface(make_immersion("paraboloid", {"curv": -1.0}), FlatMetric(), GRID),
    ]


def _assert_node_last(name, f):
    assert isinstance(f, np.ndarray), name
    assert f.shape[-1] == GRID.n_nodes and f.flags.c_contiguous, (name, f.shape, f.strides)


def test_node_first_view_converts_back_for_free():
    # the (N, 3) normal is such a view: node_last of it is the array itself
    x = np.arange(2 * 3 * 5.0).reshape(5, 2, 3)
    last = node_last(x)
    assert last.shape == (2, 3, 5) and last.flags.c_contiguous
    assert np.array_equal(last[:, :, 4], x[4])
    view = np.moveaxis(last, -1, 0)
    assert view.shape == x.shape and np.shares_memory(view, last)
    assert np.array_equal(view, x)
    again = node_last(view)
    assert again.flags.c_contiguous and np.shares_memory(again, last)


def test_surface_tensors_stored_node_last():
    # every surface tensor is made node-last and stored as it is; the R^3
    # points y and normal n keep (N, 3), n as the view of its node-last array
    for surf in _surfaces():
        for field in dataclasses.fields(surf):
            f = getattr(surf, field.name)
            if isinstance(f, np.ndarray) and field.name not in ("y", "n"):
                _assert_node_last(field.name, f)
        assert surf.y.shape == surf.n.shape == (GRID.n_nodes, 3)
        assert surf.n.T.flags.c_contiguous
        assert np.shares_memory(node_last(surf.n), surf.n)
        for i, y_i in enumerate((surf.y1, surf.y2)):
            assert y_i.shape == (GRID.n_nodes, 3)
            assert np.shares_memory(y_i, surf.tang)
            assert np.array_equal(y_i.T, surf.tang[:, i])


@pytest.mark.parametrize("curved", [True, False], ids=["curved", "flat"])
def test_records_stored_node_last(curved):
    # the per-node records the kernels hand on are node-last and contiguous:
    # coefficients, variations, rates, normal transport, propagator, cdot
    # rates, the normal residual and a state's derivatives
    surf = _surfaces()[0 if curved else 1]
    metric = surf.metric
    a1d, a2d, cd = (smooth_scalar(GRID, seed, 2e-2) for seed in (1, 2, 3))
    deform = prescribed_deformation(surf, a1d, a2d, cd, 0.02, 4)
    prev = assemble_coefficients(metric, surf,
                                 prescribed_deformation(surf, a1d, a2d, cd, 0.015, 3))
    fn = make_coeff_fn(metric, surf, deform, a1d, a2d, prev=prev, dt=0.005)
    sol = solve_cdot(surf, fn, deform.a1, deform.a2, a1d, a2d, PathIntegrator(GRID))
    gvar, bvar, fwd = assemble_variation(metric, surf, deform)
    rates = assemble_rates(metric, surf, deform, gvar, bvar, deform.rate_displacement(),
                           a1d, a2d, prev_m4=bvar.m4, dt=0.005)
    prop = transport_propagator(metric, surf.y, deform.history)
    for record in (sol.coeffs, gvar, bvar, rates, fwd, prop):
        for field in dataclasses.fields(record):
            f = getattr(record, field.name)
            if isinstance(f, np.ndarray) and field.name != "y0":
                _assert_node_last(f"{type(record).__name__}.{field.name}", f)
    for name, f in (("dz", deform.dz), ("da", deform.da), ("dc", deform.dc),
                    ("dadot", sol.dadot), ("tangential_grad", tangential_grad(GRID, a1d, a2d)),
                    ("gdef_normal_residual", gdef_normal_residual(metric, surf, deform))):
        _assert_node_last(name, f)
    assert deform.dz.shape == (3, 2, GRID.n_nodes)
    assert deform.da.shape == sol.dadot.shape == (2, 2, GRID.n_nodes)
    assert deform.dc.shape == (2, GRID.n_nodes)


def test_flow_step_contracts_node_last(monkeypatch):
    # every per-node contraction of two curved flow steps (surface build,
    # step-0 statics, cdot sweeps, variations, rates, monitors and the rebuild
    # oracle) is one plain einsum with the node axis last and contiguous; the
    # cdot kernel first contracts at step 1, where the coefficients no longer
    # vanish.  The metric takes the general path, whose symbols and
    # contractions are einsums; the conformal closed forms form none
    metric = RadialWarpedMetric(0.5)
    grid = DiskGrid(16, 32)
    real = np.einsum
    seen, bad = set(), []

    def guarded(subscripts, *operands, **kwargs):
        module = sys._getframe(1).f_globals["__name__"].rsplit(".", 1)[-1]
        if module in KERNELS:
            seen.add(module)
            nodal = [op for op in operands
                     if isinstance(op, np.ndarray) and grid.n_nodes in op.shape]
            if "optimize" in kwargs or not all(
                    op.shape.index(grid.n_nodes) == op.ndim - 1 and op.flags.c_contiguous
                    for op in nodal):
                bad.append((module, subscripts, [op.shape for op in nodal], sorted(kwargs)))
        return real(subscripts, *operands, **kwargs)

    monkeypatch.setattr(np, "einsum", guarded)
    surf = build_surface(SphereCapImmersion(1.0, 0.5), metric, grid, ci_tol=1e-5)
    boundary = BoundarySpec(winding=1, gamma_kind="harmonic", epsilon=1e-3, mode=1)
    state = init_flow(surf, boundary, FlowConfig(t_final=0.01, dt=0.005))
    step(state)
    step(state)
    assert seen == set(KERNELS)
    assert bad == []
