"""The uogas enumeration, sampler, shape generator and developments behind
the lemma 4.2 and 4.3 suites, against product-and-filter, build-and-validate,
signature and labeled-validation oracles."""

import itertools
import random

import pytest

from cantorlab.orientedgraphs import (
    Duplication,
    FiniteOrientedGraph,
    LabeledVertex,
    SuccessorTable,
    duplicate,
    max_set,
    pred,
    validate_uogas,
)
from cantorlab.suites import (
    _all_enumerations_of,
    _enumeration_of,
    _forest_shapes,
    _iter_uogas,
    _random_uogas,
    _shape_table,
    _table_graph,
    suite_lemma43,
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


def oracle_table_signature(choice):
    """Shape of a successor table's in-forest up to relabeling: a
    Merkle-style tuple built from sorted predecessor signatures, rooted at
    the vertices with no successor."""
    table = SuccessorTable([(v, t) for v, t in enumerate(choice) if t is not None])
    preds = table.preds

    def sig(v):
        return tuple(sorted(sig(u) for u in preds.get(v, ())))

    return tuple(sorted(sig(r) for r in range(len(choice)) if r not in table.succ))


def lemma43_developments(max_vertices, random_vertices, samples, seed):
    """The violation prefix, graph, order and stage of each development
    suite_lemma43 makes, in its order (no sample is over the cap at these
    sizes)."""
    for nv in range(1, max_vertices + 1):
        for shape in _forest_shapes(nv):
            g = _table_graph(_shape_table(shape))
            canonical, steps, lengths = _enumeration_of(g)
            orders = list(_all_enumerations_of(lengths)) if nv <= 3 else [canonical]
            for order in orders:
                yield f"{nv}-vertex {sorted(g.edges)} order {order}", g, order, steps
    rng = random.Random(seed)
    for _ in range(samples):
        g = _random_uogas(rng, random_vertices)
        order, steps, _ = _enumeration_of(g)
        yield f"random {random_vertices}-vertex {sorted(g.edges)}", g, order, min(steps, 2)


def oracle_lemma43_violations(max_vertices, random_vertices, samples, seed):
    """suite_lemma43's violations as a labeled validation of each
    development, the way `duplicate` returns it, finds them."""
    viol = []
    for name, g, order, m in lemma43_developments(max_vertices, random_vertices, samples, seed):
        rep = validate_uogas(duplicate(g, order, m))
        if not rep.ok:
            viol.append(f"{name}: {rep.violations[:2]}")
    return viol


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
            sig = oracle_table_signature(table)
            assert sig == oracle_forest_signature(_table_graph(table))
            seen.add(sig)
        shapes.append(len(seen))
    assert shapes == [1, 2, 4, 9, 20, 48]


# ---------------------------------------------------------------------------
# lemma 4.3 on generated shapes and copy-id graphs


@pytest.mark.parametrize("nv", range(7))
def test_forest_shapes_are_the_table_signatures(nv):
    """The generated shapes are the signatures of the labeled tables, once
    each; each shape's table has that shape; the tables number Cayley's
    (nv+1)^(nv-1), which lemma4.3 counts as covered."""
    shapes = _forest_shapes(nv)
    tables = list(_iter_uogas(nv))
    assert len(shapes) == len(set(shapes)) == [1, 1, 2, 4, 9, 20, 48][nv]
    assert set(shapes) == {oracle_table_signature(t) for t in tables}
    assert len(tables) == (nv + 1) ** (nv - 1)
    for shape in shapes:
        assert oracle_table_signature(_shape_table(shape)) == shape


def test_copy_id_stages_are_the_labeled_stages():
    """Every development lemma4.3 makes up to 5 vertices, and 12-vertex
    samples at three seeds: the copy-id graph, relabeled by (base, label)
    one to one, is the labeled graph, which is duplicate's output, and
    both get the same verdict."""
    for seed in (0, 1, 2):
        for _, g, order, m in lemma43_developments(5 if seed == 0 else 0, 12, 30, seed):
            dup = Duplication(g, order)
            dup.develop(m)
            ids, labeled = dup.graph(), dup.labeled()
            lv = {c: LabeledVertex(dup.base[c], dup.label[c]) for c in ids.vertices}
            assert len(set(lv.values())) == len(ids.vertices)
            relabeled = FiniteOrientedGraph(lv.values(), [(lv[a], lv[b]) for a, b in ids.edges])
            assert relabeled == labeled == duplicate(g, order, m)
            assert validate_uogas(ids).ok == validate_uogas(labeled).ok


def test_lemma43_reports_labeled_violations_of_a_failing_development(monkeypatch):
    """With every development given a loop at one maximal copy, each one
    fails, and the suite's violation strings are those of a labeled
    validation; the one-vertex shape's stage has that loop as its only
    edge."""
    develop = Duplication.develop

    def looped(self, m, p=None):
        develop(self, m, p)
        top = min(c for c in self.preds if c not in self.succ)
        self.succ[top] = top
        self.preds[top].add(top)

    monkeypatch.setattr(Duplication, "develop", looped)
    res = suite_lemma43(4, 12, 10, seed=5)
    want = oracle_lemma43_violations(4, 12, 10, seed=5)
    assert res.violations == want
    assert len(want) == res.params["developments"] + res.params["sampled"]
    assert want[0] == "1-vertex [] order (0,): [('irreflexive', (0:0, 0:0))]"


def test_lemma43_freezes_seven_vertices():
    """The 280,392 labeled tables up to 7 vertices, developed as 199 shapes
    (A000081(n+1) summed) in 207 developments."""
    res = suite_lemma43(7, 12, 10, seed=0)
    assert res.violations == []
    assert res.params["graphs_covered"] == 280_392
    assert res.params["shapes_developed"] == 199 == 1 + 2 + 4 + 9 + 20 + 48 + 115
    assert res.params["developments"] == 207
