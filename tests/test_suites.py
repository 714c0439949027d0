"""The uogas enumeration, sampler and shape signature behind the lemma 4.2
and 4.3 suites, against product-and-filter and build-and-validate oracles."""

import itertools
import random

import pytest

from cantorlab.orientedgraphs import FiniteOrientedGraph, max_set, pred, validate_uogas
from cantorlab.suites import (
    _iter_uogas,
    _random_uogas,
    _table_graph,
    _table_signature,
)


# ---------------------------------------------------------------------------
# oracles


def oracle_iter_uogas(nv):
    """Every uogas on 0..nv-1: build each loop-free successor choice and keep
    the ones validate_uogas accepts."""
    verts = tuple(range(nv))
    for choice in itertools.product((None, *verts), repeat=nv):
        if any(choice[v] == v for v in verts):
            continue
        edges = [(v, choice[v]) for v in verts if choice[v] is not None]
        g = FiniteOrientedGraph(verts, edges)
        if validate_uogas(g).ok:
            yield g


def oracle_random_uogas(rng, nv):
    """A uniform successor-function sample, built and validated until acyclic."""
    verts = tuple(range(nv))
    while True:
        edges = []
        for v in verts:
            t = rng.randrange(nv + 1)
            if t != nv and t != v:
                edges.append((v, t))
        g = FiniteOrientedGraph(verts, edges)
        if validate_uogas(g).ok:
            return g


def oracle_forest_signature(g):
    """The in-forest shape read off the graph's predecessor index."""
    def sig(v):
        return tuple(sorted(sig(u) for u in pred(g, v)))

    return tuple(sorted(sig(r) for r in max_set(g)))


CAYLEY = {1: 1, 2: 3, 3: 16, 4: 125, 5: 1296, 6: 16807}


# ---------------------------------------------------------------------------
# enumeration


@pytest.mark.parametrize("nv", sorted(CAYLEY))
def test_enumeration_matches_product_and_filter(nv):
    """The same graphs in the same order; the counts are (nv+1)^(nv-1)."""
    tables = list(_iter_uogas(nv))
    want = list(oracle_iter_uogas(nv))
    assert [_table_graph(t) for t in tables] == want
    assert len(tables) == CAYLEY[nv] == (nv + 1) ** (nv - 1)


def test_enumeration_of_no_vertices():
    assert list(_iter_uogas(0)) == [()]
    assert list(map(_table_graph, _iter_uogas(0))) == list(oracle_iter_uogas(0))


@pytest.mark.parametrize("seed", range(5))
def test_sampler_matches_build_and_validate(seed):
    """The same 300 twelve-vertex graphs, and the same RNG state after them."""
    rng, ref = random.Random(seed), random.Random(seed)
    for _ in range(300):
        assert _random_uogas(rng, 12) == oracle_random_uogas(ref, 12)
    assert rng.random() == ref.random()


def test_table_signature_matches_graph_signature():
    """Every table up to 6 vertices; the shape counts are A000081(n+1)."""
    shapes = []
    for nv in range(1, 7):
        seen = set()
        for table in _iter_uogas(nv):
            sig = _table_signature(table)
            assert sig == oracle_forest_signature(_table_graph(table))
            seen.add(sig)
        shapes.append(len(seen))
    assert shapes == [1, 2, 4, 9, 20, 48]
