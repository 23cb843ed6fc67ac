from pathlib import Path

import numpy as np
import pytest

from mgdeform._contract import node_last

SRC = Path(__file__).resolve().parents[1] / "src" / "mgdeform"
SOURCE = "".join(path.read_text() for path in SRC.glob("*.py"))

# each per-node contraction of the flow step, in its node-first reading, and
# the node-last subscripts the kernels run it with
NODE_LAST = {
    "...gm,...abm->...gab": "gmn,abmn->gabn",
    "na,nas->ns": "an,asn->sn",
    "nab,nai,nb->ni": "abn,ain,bn->in",
    "nab,nai,nbj->nij": "abn,ain,bjn->ijn",
    "nab,nb->na": "abn,bn->an",
    "nabs,ns->nab": "absn,sn->abn",
    "nag,ngj->naj": "agn,gjn->ajn",
    "ngab,na->ngb": "gabn,an->gbn",
    "ngb,nbj->ngj": "gbn,bjn->gjn",
    "ngb,nbk->ngk": "gbn,bkn->gkn",
    "nji,nsj->nsi": "jin,sjn->sin",
    "njk,nkl->njl": "jkn,kln->jln",
    "njl,nsl->nsj": "jln,sln->sjn",
    "nk,nki->ni": "kn,kin->in",
    "nki,njk->nij": "kin,jkn->ijn",
    "ns,ns->n": "sn,sn->n",
    "ns,nsi->ni": "sn,sin->in",
}


def _served(subscripts):
    return f'np.einsum("{subscripts}"' in SOURCE


def _operands(subscripts, rng, n=37):
    inputs = subscripts.split("->")[0].split(",")
    # distinct extents per index letter so a transposed result cannot pass
    sizes = {c: 2 + (ord(c) % 3) for c in set("".join(inputs)) if c.isalpha()}
    sizes["n"] = n
    ops = []
    for term in inputs:
        shape = (n,) if term.startswith("...") else ()
        shape += tuple(sizes[c] for c in term.replace("...", ""))
        ops.append(rng.normal(size=shape))
    return ops


def test_contract_serves_the_hot_paths():
    assert _served("abn,ain,bjn->ijn")
    # Gamma(n, .) times the tangents, at the surface and displaced points
    assert _served("gbn,bjn->gjn")
    assert not _served("bmtn,mjn,tn->bjn") and not _served("gabn,ajn,bn->gjn")


@pytest.mark.parametrize("subscripts", sorted(NODE_LAST))
def test_contract_matches_plain_einsum(subscripts):
    # the node-last contraction a kernel runs, with its node axis moved back
    # first, equals the node-first einsum it replaces
    last = NODE_LAST[subscripts]
    assert _served(last)
    rng = np.random.default_rng(11)
    ops = _operands(subscripts, rng)
    expect = np.einsum(subscripts, *ops)
    got = np.moveaxis(np.einsum(last, *[node_last(op) for op in ops]), -1, 0)
    assert got.shape == expect.shape
    assert np.max(np.abs(got - expect)) <= 1e-13 * np.max(np.abs(expect))
