"""Node-last layout of per-node tensor fields.

Fields on the grid are (N, ...) arrays: one small tensor per node.  A
contraction of such tensors, ``nab,nai,nbj->nij`` say, runs fastest as one
plain ``np.einsum`` call when the node axis is last and contiguous, so that
the inner loop runs over the N nodes rather than over the 2 or 3 entries of
a tensor index.  Batched matrix products and contraction-order search only
pay off for large tensor blocks; with 3x3 blocks per node the layout decides
the cost.

The per-node kernels (kpres, gdef, transport, metrics, surface) therefore
take ``node_last`` of their inputs on entry, contract in that layout, and
hand their results out through ``node_first``: an (N, ...) view of the
node-last array, so every public field keeps its (N, ...) form and a later
``node_last`` of it is free.  ``SurfaceState`` stores every tensor that
way, once, so the kernels read ``node_last(surface.<field>)`` at no cost.
"""

from __future__ import annotations

import numpy as np


def node_last(x):
    """``x`` with its leading node axis moved last, C-contiguous.

    No copy is made when ``x`` is already laid out that way, e.g. when it is
    a ``node_first`` view.
    """
    return np.ascontiguousarray(np.moveaxis(x, 0, -1))


def node_first(x):
    """The (N, ...) view of a node-last array; no copy."""
    return np.moveaxis(x, -1, 0)
