"""Nested-grid verification: doubling n_r and n_theta nests the grids
exactly, so a 32x64 solution restricted to the 16x32 nodes is a reference
for the 16x32 solution z itself, and the 16x32 rebuild oracle's reading
splits into its own grid error and the solution's
(``reference.nested_split``)."""

import numpy as np
import pytest

from mgdeform.errors import MgError
from mgdeform.flow import BoundarySpec, FlowConfig, init_flow, run_flow
from mgdeform.grid import DiskGrid
from mgdeform.metrics import make_metric
from mgdeform.surface import SphereCapImmersion, build_surface

from reference import nested_split, restrict


def test_restrict_reads_the_coincident_nodes():
    coarse, fine = DiskGrid(8, 16), DiskGrid(16, 32)
    for name in ("r", "theta", "x1", "x2"):
        assert np.array_equal(restrict(fine, coarse, getattr(fine, name)),
                              getattr(coarse, name)), name
    tensor = np.stack([fine.x1, fine.x2], axis=-1)[:, :, None] * np.ones(3)
    assert restrict(fine, coarse, tensor).shape == (coarse.n_nodes, 2, 3)
    with pytest.raises(MgError, match="does not double"):
        restrict(DiskGrid(16, 48), coarse, np.zeros(DiskGrid(16, 48).n_nodes))


# measured max|z16 - R z32|, the oracle's own error and the solution's error
# as the oracle sees it (both over max|K|), each bounded at twice its value
MEASURED = {
    "flat": (2.13e-9, 6.75e-7, 1.39e-6),
    "conformal_radial": (2.78e-9, 4.70e-7, 1.46e-6),
}


@pytest.mark.parametrize("kind", MEASURED)
def test_nested_grids_split_the_oracle_error(kind):
    # cap 0.5, winding 1, mode 2, epsilon 0.05 and four steps of 5e-3
    metric = make_metric(kind, {"alpha": 0.5})
    runs = []
    for n_r in (16, 32):
        surf = build_surface(SphereCapImmersion(1.0, 0.5), metric, DiskGrid(n_r, 2 * n_r),
                             ci_tol=1e-5)
        state = init_flow(surf, BoundarySpec(winding=1, epsilon=0.05, mode=2),
                          FlowConfig(t_final=0.02, dt=5e-3))
        run_flow(state)
        runs.append((surf, state.deform.z))
    (coarse, z16), (fine, z32) = runs
    assert np.max(np.abs(z16)) > 1e-3
    split = nested_split(coarse, fine, z16, z32)
    for name, value in zip(("z", "oracle", "solution"), MEASURED[kind]):
        assert split[name] <= 2.0 * value, (name, split)
