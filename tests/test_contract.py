import re
from pathlib import Path

import numpy as np
import pytest

from mgdeform._contract import _path, contract

SRC = Path(__file__).resolve().parents[1] / "src" / "mgdeform"


def _served_subscripts():
    """Every subscript string the package passes to ``contract``."""
    found = set()
    for path in SRC.glob("*.py"):
        found.update(re.findall(r'contract\("([^"]+)"', path.read_text()))
    return sorted(found)


SERVED = _served_subscripts()


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
    assert "nab,nai,nbj->nij" in SERVED
    assert "nbmt,nmj,nt->nbj" in SERVED
    assert "ngab,naj,nb->ngj" in SERVED


@pytest.mark.parametrize("subscripts", SERVED)
def test_contract_matches_plain_einsum(subscripts):
    rng = np.random.default_rng(11)
    ops = _operands(subscripts, rng)
    expect = np.einsum(subscripts, *ops)
    got = contract(subscripts, *ops)
    assert got.shape == expect.shape
    assert np.max(np.abs(got - expect)) <= 1e-13 * np.max(np.abs(expect))


def test_contract_path_found_once_per_shape():
    rng = np.random.default_rng(5)
    ops = _operands("nab,nai,nbj->nij", rng, n=29)
    contract("nab,nai,nbj->nij", *ops)
    before = _path.cache_info()
    contract("nab,nai,nbj->nij", *ops)
    after = _path.cache_info()
    assert after.hits == before.hits + 1
    assert after.misses == before.misses
