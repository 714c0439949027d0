"""The sampler, shape generator and developments behind the lemma 4.2 and
4.3 suites, against product-and-filter, build-and-validate, signature and
labeled-validation oracles."""

import functools
import itertools
import random

import pytest

from cantorlab import suites
from cantorlab.orientedgraphs import (
    CheckReport,
    Duplication,
    FiniteOrientedGraph,
    LabeledVertex,
    SuccessorTable,
    duplicate,
    lemma42_suite,
    max_set,
    pred,
    validate_uogas,
)
from cantorlab.suites import (
    _all_enumerations_of,
    _enumeration_of,
    _forest_shapes,
    _random_uogas,
    _shape_graphs,
    _shape_table,
    suite_lemma42,
    suite_lemma43,
)


# ---------------------------------------------------------------------------
# oracles


@functools.cache
def oracle_iter_uogas(nv):
    """Every uogas on 0..nv-1, with its successor table: build each
    loop-free successor choice and keep the ones validate_uogas accepts.
    Cached, since several tests walk the 16,807 six-vertex tables."""
    verts = tuple(range(nv))
    out = []
    for choice in itertools.product((None, *verts), repeat=nv):
        if any(choice[v] == v for v in verts):
            continue
        edges = [(v, choice[v]) for v in verts if choice[v] is not None]
        g = FiniteOrientedGraph(verts, edges)
        if validate_uogas(g).ok:
            out.append((choice, g))
    return tuple(out)


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
    for nv, g in _shape_graphs(max_vertices):
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


# ---------------------------------------------------------------------------
# sampling and shapes


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
        for table, g in oracle_iter_uogas(nv):
            sig = oracle_table_signature(table)
            assert sig == oracle_forest_signature(g)
            seen.add(sig)
        shapes.append(len(seen))
    assert shapes == [1, 2, 4, 9, 20, 48]


# ---------------------------------------------------------------------------
# lemma 4.2 on generated shapes


def test_lemma42_holds_on_every_labeled_table():
    """The clauses hold on each of the 18,248 labeled tables up to 6
    vertices, which suite_lemma42(6) covers by its shapes."""
    graphs = 0
    for nv in range(1, 7):
        for _, g in oracle_iter_uogas(nv):
            graphs += 1
            assert lemma42_suite(g).ok, sorted(g.edges)
    assert graphs == suite_lemma42(6).params["graphs"] == 18_248


def test_lemma42_reports_each_failing_shape(monkeypatch):
    """With the clauses made to fail on every graph of 3 or more vertices,
    suite_lemma42(4) names each 3- and 4-vertex shape once (4 + 9)."""
    failed = []

    def failing(g):
        rep = CheckReport()
        if len(g.vertices) >= 3:
            failed.append(g)
            rep.add("forced", len(g.vertices))
        return rep

    monkeypatch.setattr(suites, "lemma42_suite", failing)
    res = suite_lemma42(4)
    assert not res.ok
    assert len(res.violations) == len(failed) == 13
    assert res.violations == [
        f"{len(g.vertices)}-vertex graph {sorted(g.edges)}: [('forced', {len(g.vertices)})]" for g in failed
    ]
    assert res.violations[0] == "3-vertex graph [(1, 0), (2, 1)]: [('forced', 3)]"
    want = {oracle_forest_signature(g) for nv in (3, 4) for _, g in oracle_iter_uogas(nv)}
    assert {oracle_forest_signature(g) for g in failed} == want
    assert res.params == {"max_vertices": 4, "graphs": 1 + 3 + 16 + 125}


def test_lemma42_freezes_twelve_vertices():
    """Every labeled table up to 12 vertices, the sum of (n+1)^(n-1),
    checked as its 20,298 shapes (A000081(n+1) summed)."""
    res = suite_lemma42(12)
    assert res.ok and res.violations == []
    assert res.params == {"max_vertices": 12, "graphs": 1_856_540_769_313}
    assert res.params["graphs"] == sum((n + 1) ** (n - 1) for n in range(1, 13))
    assert sum(len(_forest_shapes(n)) for n in range(1, 13)) == 20_298


# ---------------------------------------------------------------------------
# lemma 4.3 on generated shapes and copy-id graphs


@pytest.mark.parametrize("nv", range(7))
def test_forest_shapes_are_the_table_signatures(nv):
    """The generated shapes are the signatures of the labeled tables, once
    each; each shape's table has that shape; the tables number Cayley's
    (nv+1)^(nv-1), which both uogas suites count as covered."""
    shapes = _forest_shapes(nv)
    graphs = [g for _, g in oracle_iter_uogas(nv)]
    assert len(shapes) == len(set(shapes)) == [1, 1, 2, 4, 9, 20, 48][nv]
    assert set(shapes) == {oracle_forest_signature(g) for g in graphs}
    assert len(graphs) == (nv + 1) ** (nv - 1)
    for shape in shapes:
        assert oracle_table_signature(_shape_table(shape)) == shape


def test_copy_id_stages_are_the_labeled_stages():
    """Every development lemma4.3 makes up to 5 vertices, and 12-vertex
    samples at three seeds: the copy-id graph, relabeled by (base, label)
    one to one, is the labeled graph, which is duplicate's output, and
    both get the same verdict, which is the copy-id table's decision."""
    for seed in (0, 1, 2):
        for _, g, order, m in lemma43_developments(5 if seed == 0 else 0, 12, 30, seed):
            dup = Duplication(g, order)
            dup.develop(m)
            ids, labeled = FiniteOrientedGraph(dup.preds, dup.succ.items()), dup.labeled()
            lv = {c: LabeledVertex(dup.base[c], dup.label[c]) for c in ids.vertices}
            assert len(set(lv.values())) == len(ids.vertices)
            relabeled = FiniteOrientedGraph(lv.values(), [(lv[a], lv[b]) for a, b in ids.edges])
            assert relabeled == labeled == duplicate(g, order, m)
            ok = validate_uogas(labeled).ok
            assert validate_uogas(ids).ok == ok
            decided = SuccessorTable(dup.succ.items()).uogas_depths(dup.preds)
            assert (decided is not None) == ok


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
