"""Node-last layout of per-node tensor fields.

A field on the grid holds one small tensor per node.  A contraction of such
tensors, ``abn,ain,bjn->ijn`` say, runs fastest as one plain ``np.einsum``
call when the node axis is last and contiguous, so that the inner loop runs
over the N nodes rather than over the 2 or 3 entries of a tensor index.
Batched matrix products and contraction-order search only pay off for large
tensor blocks; with 3x3 blocks per node the layout decides the cost.

Every per-node tensor the package computes is therefore made node-last,
(..., N), and handed from kernel to kernel as it is: the surface's forms and
Christoffel symbols, the deformation's derivatives, the coefficient,
variation and transport records.  Only R^3 point and vector arrays keep the
(N, 3) form of the plug-in interfaces: the surface points ``y`` and normal
``n``, the displacement z, its rate and their histories.  ``node_last``
converts such an array, or a plug-in's (..., 3, 3) output, where it enters a
contraction.  NumPy's batched ``inv``/``eigvalsh``/``solve`` take the node
axis first; their callers transpose at the call.
"""

from __future__ import annotations

import numpy as np


def node_last(x):
    """``x`` with its leading node axis moved last, C-contiguous.

    No copy is made when ``x`` is already laid out that way, e.g. when it is
    the (N, 3) transpose view of a node-last array.
    """
    return np.ascontiguousarray(np.moveaxis(x, 0, -1))
