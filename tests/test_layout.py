import sys

import numpy as np

from mgdeform._contract import node_first, node_last
from mgdeform.flow import BoundarySpec, FlowConfig, init_flow, step
from mgdeform.grid import DiskGrid
from mgdeform.metrics import FlatMetric, conformal_radial_metric
from mgdeform.surface import SphereCapImmersion, build_surface, make_immersion

KERNELS = ("kpres", "gdef", "transport", "metrics", "surface")


def test_node_first_view_converts_back_for_free():
    x = np.arange(2 * 3 * 5.0).reshape(5, 2, 3)
    last = node_last(x)
    assert last.shape == (2, 3, 5) and last.flags.c_contiguous
    assert np.array_equal(last[:, :, 4], x[4])
    view = node_first(last)
    assert view.shape == x.shape and np.shares_memory(view, last)
    assert np.array_equal(view, x)
    again = node_last(view)
    assert again.flags.c_contiguous and np.shares_memory(again, last)


def test_surface_tensors_stored_node_last():
    # every surface tensor is the (N, ...) view of a node-last array, so the
    # kernels' node_last of it is free; the paraboloid is built with its
    # normal flipped
    grid = DiskGrid(16, 32)
    surfaces = [
        build_surface(SphereCapImmersion(1.0, 0.5), conformal_radial_metric(0.5),
                      grid, ci_tol=1e-5),
        build_surface(make_immersion("paraboloid", {"curv": -1.0}), FlatMetric(), grid),
    ]
    for surf in surfaces:
        for name in ("tang", "n", "ambient_a", "ambient_gamma", "g", "g_inv", "b",
                     "n_deriv", "gamma_surface"):
            f = getattr(surf, name)
            assert f.shape[0] == grid.n_nodes, name
            assert np.shares_memory(node_last(f), f), name


def test_flow_step_contracts_node_last(monkeypatch):
    # every per-node contraction of a curved flow step (surface build,
    # step-0 statics, cdot sweeps, variations, rates, monitors and the rebuild
    # oracle) is one plain einsum with the node axis last and contiguous
    metric = conformal_radial_metric(0.5)
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
    state = init_flow(metric, surf, boundary, FlowConfig(t_final=0.005, dt=0.005))
    step(state)
    assert seen == set(KERNELS)
    assert bad == []
