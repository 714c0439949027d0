"""Oriented graph machinery against exhaustive and brute-force oracles."""

import time
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cantorlab import orientedgraphs
from cantorlab.errors import (
    BadEnumeration,
    CantorLabError,
    CapExceeded,
    InvalidArgument,
    NotConnected,
    StageRelationCycle,
)
from cantorlab.sequences import BinWord
from cantorlab.orientedgraphs import (
    CheckReport,
    Duplication,
    FiniteOrientedGraph,
    LabeledVertex,
    SuccessorTable,
    chain_table,
    components,
    duplicate,
    lemma42_suite,
    max_set,
    p_to_max,
    pred,
    succ,
    _edge_key,
    _vkey,
    to_dot,
    unique_path,
    validate_uogas,
)


# ---------------------------------------------------------------------------
# oracles


def M_of(G, x):
    """Longest distance from a minimal vertex whose chain passes through x,
    counted as a path length (number of vertices); 0 when none does."""
    best = 0
    for y in G.vertices:
        if pred(G, y):
            continue
        chain = p_to_max(G, y)
        if x in chain:
            best = max(best, chain.index(x) + 1)
    return best


def oracle_antisymmetric(edges):
    return all((b, a) not in edges for a, b in edges if a != b)


def oracle_forest(vertices, edges):
    """Acyclic symmetrization, decided by counting edges per component."""
    und = {frozenset(e) for e in edges if e[0] != e[1]}
    adj = {v: set() for v in vertices}
    for e in und:
        a, b = tuple(e)
        adj[a].add(b)
        adj[b].add(a)
    seen = set()
    comps = 0
    for v in vertices:
        if v in seen:
            continue
        comps += 1
        stack = [v]
        seen.add(v)
        while stack:
            u = stack.pop()
            for w in adj[u]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
    return len(und) == len(vertices) - comps


def scan_succ(G, x):
    return {b for a, b in G.edges if a == x}


def scan_pred(G, x):
    return {a for a, b in G.edges if b == x}


def _scan_sym_adj(G):
    adj = {x: set() for x in G.vertices}
    for a, b in G.edges:
        adj[a].add(b)
        adj[b].add(a)
    return adj


def _scan_root_path(parent, v):
    out = []
    while v is not None:
        out.append(v)
        v = parent[v]
    return out


def _scan_find_sym_cycle(G):
    adj = _scan_sym_adj(G)
    seen = set()
    for start in sorted(G.vertices, key=repr):
        if start in seen:
            continue
        parent = {start: None}
        stack = [(start, None)]
        while stack:
            v, par = stack.pop()
            seen.add(v)
            for w in sorted(adj[v], key=repr):
                if w == par or w == v:
                    continue
                if w in parent:
                    path_v = _scan_root_path(parent, v)
                    ancestors_w = set(_scan_root_path(parent, w))
                    lca = next(u for u in path_v if u in ancestors_w)
                    seg_v = path_v[: path_v.index(lca) + 1]
                    path_w = _scan_root_path(parent, w)
                    seg_w = path_w[: path_w.index(lca)]
                    return tuple(seg_v + seg_w[::-1])
                parent[w] = v
                stack.append((w, v))
    return None


def scan_validate_uogas(G):
    """The reference validator: every successor set by a scan of all edges,
    and a sorted symmetrized walk for acyclicity (quadratic, small graphs only).
    """
    report = CheckReport()
    for a, b in sorted(G.edges, key=lambda e: (repr(e[0]), repr(e[1]))):
        if a == b:
            report.add("irreflexive", (a, b))
        elif (b, a) in G.edges and repr(a) < repr(b):
            report.add("antisymmetric", (a, b))
    for x in sorted(G.vertices, key=repr):
        out = scan_succ(G, x)
        if len(out) > 1:
            report.add("unique-successor", (x, tuple(sorted(out, key=repr))))
    cycle = _scan_find_sym_cycle(G)
    if cycle is not None:
        report.add("acyclic-symmetrization", cycle)
    return report


def all_edge_graphs(names, loops):
    """Every edge subset over the given vertices, loops included if asked."""
    pairs = [(a, b) for a in names for b in names if loops or a != b]
    for mask in range(1 << len(pairs)):
        yield FiniteOrientedGraph(names, {e for k, e in enumerate(pairs) if mask >> k & 1})


def validator_families():
    """Successor choices on four vertices, every graph on three vertices
    (loops, antiparallel pairs and branching included), and every loop-free
    graph on four vertices.
    """
    yield from succ_choice_graphs("abcd")
    yield from all_edge_graphs("abc", loops=True)
    yield from all_edge_graphs("abcd", loops=False)


def succ_choice_graphs(names, loops=False):
    """Every graph where each vertex picks at most one successor, itself
    included if asked."""
    n = len(names)
    for choice in product(range(-1, n), repeat=n):
        if not loops and any(c == i for i, c in enumerate(choice)):
            continue
        edges = {(names[i], names[c]) for i, c in enumerate(choice) if c >= 0}
        yield FiniteOrientedGraph(names, edges)


def brute_simple_paths(G, x, y):
    """All injective symmetrized paths from x to y, by exhaustive extension."""
    adj = {v: set() for v in G.vertices}
    for a, b in G.edges:
        adj[a].add(b)
        adj[b].add(a)
    out = []
    stack = [(x,)]
    while stack:
        path = stack.pop()
        if path[-1] == y:
            out.append(path)
            continue
        for w in adj[path[-1]]:
            if w not in path:
                stack.append(path + (w,))
    return out


def sorted_enumeration(G):
    chains = {v: p_to_max(G, v) for v in G.vertices}
    return sorted(G.vertices, key=lambda v: (len(chains[v]), repr(v)))


def rescan_duplicate(G, enumeration, m, p=None):
    """The reference duplication: every step rescans all vertices and edges
    of the stage so far (quadratic, small graphs only)."""
    report = validate_uogas(G)
    if not report.ok:
        raise InvalidArgument(f"not an uogas: {report.violations[:3]}")
    order = tuple(enumeration)
    paths = {x: p_to_max(G, x) for x in G.vertices}
    if len(order) != len(G.vertices) or set(order) != G.vertices:
        raise BadEnumeration("enumeration must list every vertex exactly once")
    lengths = [len(paths[x]) for x in order]
    if any(lengths[i] > lengths[i + 1] for i in range(len(lengths) - 1)):
        raise BadEnumeration("enumeration must have nondecreasing chain lengths")
    L = len(order)
    if L == 0:
        return FiniteOrientedGraph((), ())
    if not 0 <= m < L:
        raise InvalidArgument("stage index out of range")
    L0 = sum(1 for x in order if len(paths[x]) == 1)
    if p is not None and m < L0:
        raise InvalidArgument("partial stages exist only once duplication starts")

    verts = {LabeledVertex(x, (0,)) for x in G.vertices}
    edges = {(LabeledVertex(a, (0,)), LabeledVertex(b, (0,))) for a, b in G.edges}
    for step in range(L0, m + 1):
        top = order[step]
        cone = {x for x in G.vertices if top in paths[x]}
        block_labels = sorted(v.label for v in verts if v.base == top)
        if step == m and p is not None:
            if not 0 <= p <= len(block_labels):
                raise InvalidArgument("partial block count out of range")
            blocks = set(block_labels[:p])
        else:
            blocks = set(block_labels)

        def dup(v):
            return v.base in cone and v.label in blocks

        new_verts = set()
        for v in verts:
            if dup(v):
                new_verts.update(LabeledVertex(v.base, v.label + (j,)) for j in range(L))
            else:
                new_verts.add(v)
        if len(new_verts) > orientedgraphs.DUPLICATION_CAP:
            raise CapExceeded(
                f"duplication stage {step} needs {len(new_verts)} vertices, "
                f"cap is {orientedgraphs.DUPLICATION_CAP}"
            )
        new_edges = set()
        for a, b in edges:
            if dup(b) and not dup(a):
                raise InvalidArgument("cone invariant broken; enumeration unusable")
            if not dup(a):
                new_edges.add((a, b))
            elif dup(b):
                for j in range(L):
                    new_edges.add(
                        (
                            LabeledVertex(a.base, a.label + (j,)),
                            LabeledVertex(b.base, b.label + (j,)),
                        )
                    )
            else:
                for j in range(L):
                    new_edges.add((LabeledVertex(a.base, a.label + (j,)), b))
        verts, edges = new_verts, new_edges
    return FiniteOrientedGraph(verts, edges)


def uogas_up_to(n):
    """Every uogas on the first k of the letters abcd..., for k = 1..n."""
    for k in range(1, n + 1):
        for g in succ_choice_graphs("abcdefgh"[:k]):
            if validate_uogas(g).ok:
                yield g


# ---------------------------------------------------------------------------
# construction and validation


def test_graph_construction():
    """Edges must connect known vertices; equality is structural."""
    g = FiniteOrientedGraph("ab", {("a", "b")})
    assert g == FiniteOrientedGraph({"a", "b"}, [("a", "b")])
    with pytest.raises(InvalidArgument):
        FiniteOrientedGraph("ab", {("a", "c")})


def test_validate_frozen():
    """Each contract clause is reported with a witness."""
    assert validate_uogas(FiniteOrientedGraph((), ())).ok
    r1 = validate_uogas(FiniteOrientedGraph("ab", {("a", "b"), ("b", "a")}))
    assert [c for c, _ in r1.violations] == ["antisymmetric"]
    r2 = validate_uogas(FiniteOrientedGraph("abc", {("a", "b"), ("a", "c")}))
    assert [c for c, _ in r2.violations] == ["unique-successor"]
    r3 = validate_uogas(FiniteOrientedGraph("a", {("a", "a")}))
    assert [c for c, _ in r3.violations] == ["irreflexive"]
    r4 = validate_uogas(
        FiniteOrientedGraph("abc", {("a", "b"), ("b", "c"), ("c", "a")})
    )
    assert [c for c, _ in r4.violations] == ["acyclic-symmetrization"]
    assert len(r4.violations[0][1]) == 3


def test_validate_matches_oracle_exhaustive():
    """Over successor-choice graphs on four vertices and every graph on three
    (with loops) and four (loop-free) vertices: the verdict matches the
    oracles, and the violations, in order and with their witnesses, match the
    edge-scan reference validator.
    """
    graphs = 0
    for g in validator_families():
        graphs += 1
        want = (
            all(a != b for a, b in g.edges)
            and all(len(scan_succ(g, x)) <= 1 for x in g.vertices)
            and oracle_antisymmetric(g.edges)
            and oracle_forest(g.vertices, g.edges)
        )
        report = validate_uogas(g)
        assert report.ok == want, (sorted(g.edges), report.violations)
        assert report.violations == scan_validate_uogas(g).violations, sorted(g.edges)
        for clause, witness in report.violations:
            if clause == "acyclic-symmetrization":
                k = len(witness)
                assert k >= 3 and len(set(witness)) == k
                ring = list(witness) + [witness[0]]
                for a, b in zip(ring, ring[1:]):
                    assert (a, b) in g.edges or (b, a) in g.edges
    assert graphs == 4**4 + 2**9 + 2**12


def cleared_depths(vertices, edges):
    """What check_lemma_53_54 reads off a SuccessorTable: every vertex's
    chain depth when `edges` is a cycle-free function on `vertices`, else
    None (a vertex branches, a chain cycles or an endpoint is no vertex)."""
    table = SuccessorTable(edges)
    depth = table.depths()
    ends = set(table.succ).union(table.succ.values())
    if table.branches or len(depth) != len(table.succ) or not ends <= set(vertices):
        return None
    return {v: depth.get(v, 1) for v in vertices}


def test_successor_table_depths_match_validator_exhaustive():
    """Over every successor table on up to five vertices: the table clears
    exactly the relations validate_uogas accepts, and each depth is the
    length of the vertex's chain to its maximum."""
    tables = accepted = 0
    for n in range(6):
        for g in succ_choice_graphs("abcde"[:n], loops=True):
            tables += 1
            depth = cleared_depths(g.vertices, g.edges)
            assert (depth is not None) == validate_uogas(g).ok, sorted(g.edges)
            if depth is not None:
                accepted += 1
                assert depth == {v: len(p_to_max(g, v)) for v in g.vertices}, sorted(g.edges)
    assert tables == sum((n + 1) ** n for n in range(6))
    # the accepted tables are the rooted forests: (n + 1)**(n - 1) on n vertices
    assert accepted == 1 + sum((n + 1) ** (n - 1) for n in range(1, 6))


def test_successor_table_hand_cases():
    """A branching vertex, a source off the vertex set and a target off it
    each leave the decision to validate_uogas."""
    assert cleared_depths({"a", "b", "c"}, {("a", "b"), ("b", "c")}) == {
        "a": 3, "b": 2, "c": 1,
    }
    assert cleared_depths({"a", "b", "c"}, {("a", "b"), ("a", "c")}) is None
    assert cleared_depths({"a", "b"}, {("z", "a")}) is None
    assert cleared_depths({"a", "b"}, {("a", "z")}) is None
    assert cleared_depths(set(), set()) == {}


def test_uogas_depths_is_the_cleared_table_decision():
    """uogas_depths, read with depth 1 for a vertex it does not store, is
    cleared_depths on every successor table up to five vertices and on a
    stray source, a stray target and a branching source."""
    cases = [
        (g.vertices, g.edges)
        for n in range(6)
        for g in succ_choice_graphs("abcde"[:n], loops=True)
    ]
    cases += [
        ({"a", "b"}, {("z", "a")}),
        ({"a", "b"}, {("a", "z")}),
        ({"a", "b", "c"}, {("a", "b"), ("a", "c")}),
    ]
    for vertices, edges in cases:
        depth = SuccessorTable(edges).uogas_depths(vertices)
        got = None if depth is None else {v: depth.get(v, 1) for v in vertices}
        assert got == cleared_depths(vertices, edges), sorted(edges)


def test_chain_table_gives_depths_or_raises_with_the_violations():
    """chain_table gives a uogas its table and p_to_max lengths, and raises
    with validate_uogas's violations on a branching BinWord graph (BinWords
    have no order to rank the successors by), a 2-cycle and a 3-cycle."""
    chain = FiniteOrientedGraph("abcd", {("a", "b"), ("b", "c")})
    table, depth = chain_table(chain)
    assert table.succ == {"a": "b", "b": "c"}
    assert depth == {v: len(p_to_max(chain, v)) for v in "abcd"} == {"a": 3, "b": 2, "c": 1, "d": 1}
    a, b, c = (BinWord.from_str(w) for w in ("0", "10", "11"))
    for edges in ({(a, b), (a, c)}, {(a, b), (b, a)}, {(a, b), (b, c), (c, a)}):
        G = FiniteOrientedGraph({a, b, c}, edges)
        violations = validate_uogas(G).violations
        assert violations
        with pytest.raises(InvalidArgument) as err:
            chain_table(G)
        assert str(err.value) == f"not an uogas: {violations[:3]}"


def oracle_largest_successor_depths(vertices, edges):
    """Chain depths by a bounded walk per vertex: a branching vertex follows
    its largest successor, and a vertex whose walk runs past |V| steps (it
    enters a cycle) gets no depth."""
    succ = dict(sorted(edges))
    depth = {}
    limit = len(vertices)
    for w in sorted(vertices):
        path, v = [], w
        while v not in depth and v in succ and len(path) <= limit:
            path.append(v)
            v = succ[v]
        if len(path) > limit:
            continue
        d = depth.setdefault(v, 1)
        for u in reversed(path):
            d += 1
            depth[u] = d
    return depth


def test_successor_table_depths_match_the_bounded_walk_exhaustive():
    """Every relation on up to four vertices, loops, antiparallel pairs,
    branching and cycles included: a vertex with a depth in the walk has it
    in the table (1 when it is no source), and a source without one is
    absent from the table's depths."""
    relations = branching = cyclic = 0
    for n in range(5):
        pairs = [(a, b) for a in range(n) for b in range(n)]
        for mask in range(1 << len(pairs)):
            edges = {e for k, e in enumerate(pairs) if mask >> k & 1}
            table = SuccessorTable(edges)
            depth = table.depths()
            want = oracle_largest_successor_depths(range(n), edges)
            got = {v: depth.get(v, 1) for v in range(n) if v in depth or v not in table.succ}
            assert got == want, sorted(edges)
            assert table.branches == (len(table.succ) != len(edges))
            relations += 1
            branching += table.branches
            cyclic += len(depth) != len(table.succ)
    assert relations == sum(2 ** (n * n) for n in range(5))
    assert branching and cyclic


def test_successor_table_distances_match_M_exhaustive():
    """On every uogas up to five vertices, a vertex's distance is M_of: the
    longest chain from a minimal vertex to it, counted in vertices."""
    for g in uogas_up_to(5):
        table = SuccessorTable(g.edges)
        dist = table.distances()
        assert {v: dist.get(v, 1) for v in g.vertices} == {v: M_of(g, v) for v in g.vertices}


def test_successor_table_builds_preds_on_first_use():
    """depths() and succ never build the predecessor lists; preds keeps
    every pair of a branching source, and distances() reads it."""
    table = SuccessorTable({("a", "c"), ("a", "b"), ("b", "c")})
    assert table.branches and table.succ == {"a": "c", "b": "c"}
    assert table.depths() == {"a": 2, "b": 2}
    assert "preds" not in vars(table)
    assert sorted(table.preds["c"]) == ["a", "b"] and table.preds["b"] == ["a"]
    assert table.distances() == {"b": 2, "c": 3}


@pytest.mark.parametrize("edges", [{(1, 1)}, {(1, 2), (2, 1)}, {(0, 1), (1, 2), (2, 3), (3, 1)}])
def test_successor_table_distances_reject_a_cycle(edges):
    with pytest.raises(StageRelationCycle):
        SuccessorTable(edges).distances()


def test_indexes_match_edge_scans_exhaustive():
    """succ, pred and max_set read the indexes the constructor builds; on
    every graph of the validator families they equal edge scans.
    """
    for g in validator_families():
        for x in g.vertices:
            assert succ(g, x) == scan_succ(g, x)
            assert pred(g, x) == scan_pred(g, x)
        assert max_set(g) == {x for x in g.vertices if not scan_succ(g, x)}


# A linear validator takes well under a second on either graph below; one edge
# scan per vertex takes minutes.  The budget leaves room for a slow host.
SCALE_BUDGET_S = 5.0


def test_duplicate_scales_linearly():
    """Full duplication of a 201-vertex star, 200 leaves on one root, makes
    40,201 labeled vertices within the time budget."""
    star = FiniteOrientedGraph(range(201), {(i, 0) for i in range(1, 201)})
    t0 = time.perf_counter()
    out = duplicate(star, range(201), 200)
    elapsed = time.perf_counter() - t0
    assert len(out.vertices) == 40_201 and len(out.edges) == 40_200
    assert elapsed < SCALE_BUDGET_S, elapsed


def test_validate_scales_linearly():
    """A 20,000-vertex path and a 19,609-vertex duplicate each validate
    within the time budget.
    """
    path = FiniteOrientedGraph(range(20_000), {(i, i + 1) for i in range(19_999)})
    chain = FiniteOrientedGraph("abcdefz", {(b, a) for a, b in zip("abcde", "bcdef")})
    dup = duplicate(chain, "azbcdef", 6)
    assert len(dup.vertices) == 19_609
    for g in (path, dup):
        t0 = time.perf_counter()
        report = validate_uogas(g)
        elapsed = time.perf_counter() - t0
        assert report.ok
        assert elapsed < SCALE_BUDGET_S, (g, elapsed)


# ---------------------------------------------------------------------------
# basic ops and paths


def test_basic_ops_frozen():
    """Successor sets, extremes, and components per the definitions."""
    g = FiniteOrientedGraph("ab", {("a", "b")})
    assert max_set(g) == {"b"} and pred(g, "a") == frozenset()
    g2 = FiniteOrientedGraph("abc", {("a", "b"), ("c", "b")})
    assert pred(g2, "b") == {"a", "c"} and succ(g2, "a") == {"b"}
    g3 = FiniteOrientedGraph("abcd", {("a", "b"), ("c", "d")})
    assert set(components(g3)) == {frozenset("ab"), frozenset("cd")}


def test_unique_path_frozen():
    """Paths run through the symmetrization, in both edge directions."""
    chain = FiniteOrientedGraph("abc", {("a", "b"), ("b", "c")})
    assert unique_path(chain, "a", "c") == ("a", "b", "c")
    assert unique_path(chain, "a", "a") == ("a",)
    vee = FiniteOrientedGraph("abc", {("a", "b"), ("c", "b")})
    assert unique_path(vee, "a", "c") == ("a", "b", "c")
    two = FiniteOrientedGraph("abcd", {("a", "b"), ("c", "d")})
    with pytest.raises(NotConnected):
        unique_path(two, "a", "c")


def test_p_to_max_and_M_frozen():
    """Successor chains and their maximal lengths through a vertex."""
    chain = FiniteOrientedGraph("abc", {("a", "b"), ("b", "c")})
    assert p_to_max(chain, "a") == ("a", "b", "c")
    assert M_of(chain, "c") == 3
    single = FiniteOrientedGraph("v", ())
    assert p_to_max(single, "v") == ("v",)
    assert M_of(single, "v") == 1


def test_p_to_max_rejects_a_non_vertex():
    """A start that is no vertex raises, as a missing unique_path endpoint
    does, rather than giving a one-vertex chain."""
    g = FiniteOrientedGraph("ab", [("a", "b")])
    with pytest.raises(InvalidArgument):
        p_to_max(g, "zzz")
    with pytest.raises(InvalidArgument):
        unique_path(g, "a", "zzz")


def test_unique_path_matches_brute_exhaustive():
    """On every valid four-vertex graph the simple path is unique and found."""
    for g in succ_choice_graphs("abcd"):
        if not validate_uogas(g).ok:
            continue
        comps = {v: c for c in components(g) for v in c}
        for x in g.vertices:
            for y in g.vertices:
                if comps[x] is not comps[y]:
                    with pytest.raises(NotConnected):
                        unique_path(g, x, y)
                    continue
                all_paths = brute_simple_paths(g, x, y)
                assert len(all_paths) == 1
                assert unique_path(g, x, y) == all_paths[0]


def test_lemma42_frozen():
    """The four clauses hold on chains and stars."""
    chain5 = FiniteOrientedGraph("abcde", {("a", "b"), ("b", "c"), ("c", "d"), ("d", "e")})
    assert lemma42_suite(chain5).ok
    star = FiniteOrientedGraph("abc", {("a", "c"), ("b", "c")})
    assert lemma42_suite(star).ok


def test_lemma42_passes_on_all_valid_exhaustive():
    """The lemma is a theorem, so the suite passes on every valid graph."""
    count = 0
    for g in succ_choice_graphs("abcd"):
        if validate_uogas(g).ok:
            count += 1
            assert lemma42_suite(g).ok
    assert count > 100  # the filter keeps a substantial family


def oracle_lemma42_suite(G):
    """lemma42_suite with max_set read per component and every chain walked
    again for clause (d)."""
    report = CheckReport()
    for y in sorted(G.vertices, key=_vkey):
        try:
            chain = p_to_max(G, y)
        except InvalidArgument as err:
            report.add("a-injective-chain", (y, str(err)))
            continue
        if chain != unique_path(G, y, chain[-1]):
            report.add("a-chain-is-the-path", (y, chain))
    for comp in components(G):
        tops = sorted(comp & max_set(G), key=_vkey)
        if len(tops) != 1:
            report.add("c-single-maximum", (tuple(sorted(comp, key=_vkey)), tuple(tops)))
            continue
        top = tops[0]
        for y in sorted(comp, key=_vkey):
            p = unique_path(G, y, top)
            for i in range(len(p) - 1):
                if (p[i], p[i + 1]) not in G.edges:
                    report.add("b-forward-edges", (y, p, i))
                    break
    for a, b in sorted(G.edges, key=_edge_key):
        try:
            p = p_to_max(G, a)
        except InvalidArgument:
            continue
        if len(p) < 2 or p[1] != b:
            report.add("d-first-step", ((a, b), p))
    return report


BRANCHING = (
    FiniteOrientedGraph("abc", {("a", "b"), ("a", "c")}),
    FiniteOrientedGraph("xabc", {("x", "a"), ("a", "b"), ("a", "c")}),
    FiniteOrientedGraph("abcd", {("a", "b"), ("b", "a"), ("b", "c"), ("d", "c")}),
)


def test_lemma42_matches_oracle():
    """Every successor choice on four vertices, loops and cycles included,
    and graphs that branch, where clause (a) raises and (d) skips."""
    for g in (*succ_choice_graphs("abcd", loops=True), *BRANCHING):
        assert lemma42_suite(g).violations == oracle_lemma42_suite(g).violations
    for g in BRANCHING:
        clauses = {clause for clause, _ in lemma42_suite(g).violations}
        assert "a-injective-chain" in clauses and "d-first-step" not in clauses


def test_lemma42_walks_one_path_per_vertex_of_a_valid_graph(monkeypatch):
    """Clause (b) reuses each clause-(a) chain that is the unique path to the
    component's top, so a valid graph costs one path search per vertex."""
    starts = []
    bfs_path = orientedgraphs._bfs_path

    def counted(adj, x, y):
        starts.append(x)
        return bfs_path(adj, x, y)

    monkeypatch.setattr(orientedgraphs, "_bfs_path", counted)
    g = FiniteOrientedGraph("abcdefgh", {("a", "c"), ("b", "c"), ("c", "d"), ("e", "d"),
                                         ("f", "g")})
    assert lemma42_suite(g).ok
    assert sorted(starts) == sorted(g.vertices)


# ---------------------------------------------------------------------------
# duplication


def test_duplicate_frozen_example():
    """The two-vertex hand-run: one cone copy per label j."""
    g = FiniteOrientedGraph("ab", {("a", "b")})
    out = duplicate(g, ("b", "a"), 1)
    b0 = LabeledVertex("b", (0,))
    assert out.vertices == {
        b0,
        LabeledVertex("a", (0, 0)),
        LabeledVertex("a", (0, 1)),
    }
    assert out.edges == {
        (LabeledVertex("a", (0, 0)), b0),
        (LabeledVertex("a", (0, 1)), b0),
    }


def test_labeled_vertex_list_and_tuple_labels_agree():
    """The hash is cached after the label becomes a tuple, so a list label
    and a tuple label give one vertex."""
    a, b = LabeledVertex("a", [0, 1]), LabeledVertex("a", (0, 1))
    assert a == b and hash(a) == hash(b)
    assert len({a, b}) == 1
    assert repr(a) == repr(b) == "a:0.1"
    assert a != LabeledVertex("a", (1, 0))


def test_labeled_vertices_with_one_repr_sort_the_same_either_way():
    """LabeledVertex(1, (0,)) and LabeledVertex("1", (0,)) both print as 1:0;
    the base's type breaks the tie, so input order does not matter."""
    a, b = LabeledVertex(1, (0,)), LabeledVertex("1", (0,))
    assert repr(a) == repr(b)
    assert sorted([a, b], key=_vkey) == sorted([b, a], key=_vkey) == [a, b]


def test_duplicate_early_and_partial_stages():
    """Stages before duplication copy the graph; p=0 duplicates nothing."""
    g = FiniteOrientedGraph("ab", {("a", "b")})
    base = duplicate(g, ("b", "a"), 0)
    assert base.vertices == {LabeledVertex("a", (0,)), LabeledVertex("b", (0,))}
    assert base.edges == {(LabeledVertex("a", (0,)), LabeledVertex("b", (0,)))}
    assert duplicate(g, ("b", "a"), 1, p=0) == base
    assert duplicate(g, ("b", "a"), 1, p=1) == duplicate(g, ("b", "a"), 1)
    with pytest.raises(InvalidArgument):
        duplicate(g, ("b", "a"), 0, p=0)
    with pytest.raises(InvalidArgument):
        duplicate(g, ("b", "a"), 2)
    with pytest.raises(InvalidArgument):
        duplicate(g, ("b", "a"), 1, p=2)


def test_duplicate_enumeration_errors():
    """Order must be complete, injective, and nondecreasing in chain length."""
    g = FiniteOrientedGraph("ab", {("a", "b")})
    with pytest.raises(BadEnumeration):
        duplicate(g, ("a", "b"), 1)
    with pytest.raises(BadEnumeration):
        duplicate(g, ("b",), 0)
    with pytest.raises(BadEnumeration):
        duplicate(g, ("b", "b"), 0)
    with pytest.raises(InvalidArgument):
        duplicate(FiniteOrientedGraph("ab", {("a", "b"), ("b", "a")}), ("a", "b"), 0)


def test_duplicate_three_chain_counts():
    """Two duplication steps on a three-chain: sizes and edge shapes."""
    g = FiniteOrientedGraph("abc", {("c", "b"), ("b", "a")})
    order = ("a", "b", "c")
    s1 = duplicate(g, order, 1)
    assert len(s1.vertices) == 1 + 6 and len(s1.edges) == 6
    assert validate_uogas(s1).ok
    s2 = duplicate(g, order, 2)
    assert len(s2.vertices) == 1 + 3 + 9 and len(s2.edges) == 12
    assert validate_uogas(s2).ok
    a0 = LabeledVertex("a", (0,))
    for j in range(3):
        assert (LabeledVertex("b", (0, j)), a0) in s2.edges
        for i in range(3):
            assert (LabeledVertex("c", (0, j, i)), LabeledVertex("b", (0, j))) in s2.edges


def test_duplicate_output_always_uogas_exhaustive():
    """Lemma: every stage and partial stage of every valid graph validates;
    distinct new blocks are never related by a symmetrized edge.
    """
    for g in succ_choice_graphs("abcd"):
        if not validate_uogas(g).ok:
            continue
        order = sorted_enumeration(g)
        L0 = len(max_set(g))
        for m in range(len(order)):
            out = duplicate(g, order, m)
            assert validate_uogas(out).ok
            if m < L0:
                continue
            prev = duplicate(g, order, m, p=0)
            top = order[m]
            new_blocks = {
                v.label + (j,)
                for v in prev.vertices
                if v.base == top
                for j in range(len(order))
            }
            for a, b in out.edges:
                if a.label in new_blocks and b.label in new_blocks:
                    assert a.label == b.label
            for p in range(len([v for v in prev.vertices if v.base == top]) + 1):
                assert validate_uogas(duplicate(g, order, m, p=p)).ok


def test_duplication_split_that_fails_changes_nothing(monkeypatch):
    """A split past the cap, or of a copy that is gone, raises before it
    touches the copies and their edges."""
    monkeypatch.setattr(orientedgraphs, "DUPLICATION_CAP", 7)
    g = FiniteOrientedGraph("abc", {("c", "b"), ("b", "a")})
    dup = Duplication(g, "abc")
    (b0,) = dup.copies["b"]
    (c0,) = dup.copies["c"]
    made = dup.split(b0)
    assert [(dup.base[old], dup.label[old], old) for old, _ in made] == [
        ("b", (0,), b0),
        ("c", (0,), c0),
    ]
    c00 = made[1][1][0]
    assert (dup.base[c00], dup.label[c00]) == ("c", (0, 0))
    state = (
        dict(dup.succ),
        {v: set(ps) for v, ps in dup.preds.items()},
        {x: set(c) for x, c in dup.copies.items()},
        list(dup.base),
        list(dup.label),
    )
    with pytest.raises(CapExceeded, match="^duplication needs 9 labeled vertices, cap is 7$"):
        dup.split(c00)
    with pytest.raises(InvalidArgument):
        dup.split(c0)
    assert state == (dup.succ, dup.preds, dup.copies, dup.base, dup.label)


def outcome(f, *args, **kwargs):
    """The graph f returns, or the type of the error it raises."""
    try:
        return f(*args, **kwargs)
    except CantorLabError as err:
        return type(err)


def test_duplicate_matches_rescan_oracle_exhaustive(monkeypatch):
    """On every uogas up to four vertices, every stage and partial stage, in
    range or one block past it, equals the rescanning oracle's, or raises
    the same error type, under the default cap and under small caps.

    The one exception is checked on its own: a partial stage with p=0 at the
    first splitting step splits nothing, so it passes a cap that the unsplit
    graph already exceeds, as stage m - 1 does; the oracle counted the
    vertices once more there and raised.
    """
    default = orientedgraphs.DUPLICATION_CAP
    caps = (default, 1, 2, 3, 5, 8, 13, 21, 40)
    cases = 0
    for g in uogas_up_to(4):
        order = sorted_enumeration(g)
        L0 = len(max_set(g))
        for m in range(len(order)):
            parts = [None]
            if m >= L0:
                before = rescan_duplicate(g, order, m, p=0)
                blocks = sum(1 for v in before.vertices if v.base == order[m])
                parts += range(blocks + 2)
            for cap in caps:
                monkeypatch.setattr(orientedgraphs, "DUPLICATION_CAP", cap)
                for p in parts:
                    got = outcome(duplicate, g, order, m, p)
                    want = outcome(rescan_duplicate, g, order, m, p)
                    if p == 0 and m == L0 and len(g.vertices) > cap:
                        assert want is CapExceeded
                        assert got == rescan_duplicate(g, order, m - 1)
                    else:
                        assert got == want, (sorted(g.edges), m, p, cap)
                    cases += cap == default
    assert cases == 2_193


@settings(max_examples=60, deadline=None)
@given(choices=st.lists(st.integers(min_value=-1, max_value=5), min_size=6, max_size=6))
def test_duplicate_random_six_vertex(choices):
    """Randomized six-vertex successor choices, full depth when within caps."""
    names = "uvwxyz"
    edges = {
        (names[i], names[c]) for i, c in enumerate(choices) if c >= 0 and c != i
    }
    g = FiniteOrientedGraph(names, edges)
    if not validate_uogas(g).ok:
        return
    order = sorted_enumeration(g)
    out = duplicate(g, order, len(order) - 1)
    assert validate_uogas(out).ok


def test_dot_frozen():
    """Deterministic DOT text for plain and labeled vertices."""
    g = FiniteOrientedGraph("ab", {("a", "b")})
    assert to_dot(g) == 'digraph G {\n  "a";\n  "b";\n  "a" -> "b";\n}'
    out = duplicate(g, ("b", "a"), 1)
    assert to_dot(out) == (
        'digraph G {\n  "a:0.0";\n  "a:0.1";\n  "b:0";\n'
        '  "a:0.0" -> "b:0";\n  "a:0.1" -> "b:0";\n}'
    )
