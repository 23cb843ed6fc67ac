"""N-batched tensor contractions along a cached optimal pairwise order.

A three-operand contraction such as ``nab,nai,nbj->nij`` runs several times
faster as two pairwise steps than as one nested loop, and recent NumPy maps
each pairwise step onto a batched matrix product.  The order depends only on
the subscripts and the operand shapes, so it is searched once per shape
combination.  Matrix-vector products on a trailing axis and plain traces are
already as fast in a single ``np.einsum`` call and stay there.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np


@lru_cache(maxsize=256)
def _path(subscripts, shapes):
    # the search reads shapes only; zero-stride views allocate nothing
    dummies = [np.broadcast_to(0.0, shape) for shape in shapes]
    return tuple(np.einsum_path(subscripts, *dummies, optimize="optimal")[0])


def contract(subscripts, *operands):
    """``np.einsum(subscripts, *operands)`` along the cached optimal path."""
    operands = [np.asarray(op) for op in operands]
    path = _path(subscripts, tuple(op.shape for op in operands))
    return np.einsum(subscripts, *operands, optimize=path)
