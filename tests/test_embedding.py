"""Assignment-toolkit tests: frozen refinement examples worked out through
the clopen transport oracle, randomized postcondition suites for the
splitting construction, and the level scheme checked against hand traces."""

import functools
import hashlib
import itertools
import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cantorlab.embedding as embedding_mod
from cantorlab.cylinders import (
    EMPTY_SET,
    FULL_SPACE,
    LazyPoint,
    SymbolicClopen,
    atom_const,
    atom_eq,
    atom_ne,
    cylinder,
)
from cantorlab.embedding import (
    CantorInstance,
    MappingTupleAssignment,
    SchemeState,
    build_scheme,
    check_scheme_conditions,
    h_eval,
    in_E,
    in_U,
    lemma25_check,
    lemma26_find,
    refine_45,
    refine_46,
    scheme_state_json,
    shrink_47,
)
from cantorlab.embedding import (
    _chain_cut,
    _counter_index,
    _counter_pins,
    _meeting_pairs,
    _point_avoiding,
    _separators,
)
from cantorlab.errors import (
    CapExceeded,
    EmptyRefinement,
    EmptySet,
    InvalidArgument,
    InvalidLevel,
    InvariantBroken,
    NotFoundWithinBudget,
    PrefixTooShort,
)
from cantorlab.maps import MapId, _read_inverse, domain_D, g_point, image_clopen
from cantorlab.approximation import detect_L_n, run
from cantorlab.orientedgraphs import (
    Duplication,
    FiniteOrientedGraph,
    LabeledVertex,
    chain_table,
    p_to_max,
)
from cantorlab.sequences import BinWord, anchor_word

W = BinWord.from_str
INST = CantorInstance()


def edge_graph():
    return FiniteOrientedGraph({"a", "b"}, {("a", "b")})


# ---------------------------------------------------------------------------
# instance operations


def pick_distinct_preimages(inst, n, C, count):
    """A target with `count` preimages in C under map n of `inst`, pairwise
    split at free coordinates the map never reads, so all share the same
    image point: the split points shrink_47 cuts its split cells around,
    built.

    Point j is a witness of C within the map's domain with bit t of j at the
    t-th coordinate of _split_coords: the points count in binary there.
    """
    coords = inst._split_coords(n, C, count)
    w = C.intersect(domain_D(MapId(inst.family, n))).witness_point()
    pts = [w.with_bits({c: (j >> t) & 1 for t, c in enumerate(coords)}) for j in range(count)]
    return g_point(MapId(inst.family, n), pts[0]), pts


def ref_split_cells(inst, n, C, count):
    """All `count` split cells of C under map n, in index order, of which
    shrink_47 builds only the one it keeps."""
    coords = inst._split_coords(n, C, count)
    pins = [_counter_pins(coords, count, j) for j in range(count)]
    return [inst.cell_pinned(C, LazyPoint(pn), pn) for pn in pins]


def test_pick_distinct_preimages_shares_image():
    """Five preimages of one target, pairwise distinct at probe coordinates."""
    target, pts = pick_distinct_preimages(INST, 0, cylinder("00"), 5)
    assert len(pts) == 5
    for i in range(5):
        for j in range(i + 1, 5):
            assert any(pts[i].eval(c) != pts[j].eval(c) for c in range(24))
    for p in pts:
        q = g_point(MapId(1, 0), p)
        assert all(q.eval(c) == target.eval(c) for c in range(40))


def test_pick_distinct_preimages_errors():
    """Bad count, off-domain cell, and oversized requests are rejected."""
    with pytest.raises(InvalidArgument):
        pick_distinct_preimages(INST, 0, cylinder("00"), 0)
    with pytest.raises(EmptySet):
        pick_distinct_preimages(INST, 0, cylinder("1"), 2)
    with pytest.raises(CapExceeded):
        pick_distinct_preimages(INST, 0, cylinder("00"), 1 << 25)


def test_point_preimage_is_exact():
    """The preimage point maps back onto the target coordinate by coordinate."""
    target = g_point(MapId(1, 0), cylinder("001").witness_point())
    p = INST.point_preimage(0, cylinder("00"), target)
    q = g_point(MapId(1, 0), p)
    assert all(q.eval(c) == target.eval(c) for c in range(50))
    assert cylinder("00").contains(p)


def test_point_preimage_rejects_non_image():
    """A target violating the forced output coordinate has no preimage."""
    from cantorlab.cylinders import LazyPoint

    with pytest.raises(InvalidArgument):
        INST.point_preimage(0, cylinder("00"), LazyPoint({}, 0))


def pull_oracle(inst, n, C, target):
    """point_preimage's result as a rule on coordinates: at a coordinate map
    n reads, the target's bit where it is read to; elsewhere the bit of the
    witness of C cut to the map's domain."""
    w = C.intersect(domain_D(MapId(inst.family, n))).witness_point()

    def pull(c):
        k = _read_inverse(inst.family, n, c)
        return w.eval(c) if k is None else target.eval(k)

    return pull


def sparse(p):
    """The same point with only the bits that differ from its tail explicit."""
    return LazyPoint({c: v for c, v in p.explicit.items() if v != p.default}, p.default)


def test_point_preimage_matches_the_pull_oracle():
    """On SPLIT_INPUTS, with targets the images of members of C (the split
    points, and C's witness with one coordinate flipped, each given by its
    1 bits only), point_preimage is the pull rule at every coordinate below
    POINT_PROBE_BITS."""
    checked = 0
    for n, C in SPLIT_INPUTS:
        ident = MapId(INST.family, n)
        C1 = C.intersect(domain_D(ident))
        w = C1.witness_point()
        flipped = [C1.pinned({c: 1 - v}) for c, v in w.explicit.items()]
        _, pts = pick_distinct_preimages(INST, n, C, 5)
        members = pts + [D.witness_point() for D in flipped if not D.is_empty()]
        for q in members:
            target = g_point(ident, sparse(q))
            p = INST.point_preimage(n, C, target)
            pull = pull_oracle(INST, n, C, target)
            assert all(p.eval(c) == pull(c) for c in range(embedding_mod.POINT_PROBE_BITS))
            checked += 1
    assert checked >= 20, checked


def test_point_preimage_of_a_default_one_target():
    """A target over a default-1 tail comes back to a member of C that maps
    onto it at every coordinate below 3,000."""
    for n, C in SPLIT_INPUTS:
        ident = MapId(INST.family, n)
        q = LazyPoint(C.intersect(domain_D(ident)).witness_point().explicit, 1)
        target = g_point(ident, q)
        assert target.default == 1
        p = INST.point_preimage(n, C, target)
        assert C.contains(p)
        image = g_point(ident, p)
        assert all(image.eval(c) == target.eval(c) for c in range(3000))


def test_cell_around_frozen():
    """The cell around a point pinned at every coordinate below 4."""
    p = cylinder("01").witness_point()
    got = INST.cell_pinned(cylinder("01"), p, range(4))
    assert got.render() == "N=0100"
    with pytest.raises(InvalidArgument):
        INST.cell_pinned(cylinder("01"), cylinder("10").witness_point(), range(4))


def test_instance_validation():
    with pytest.raises(InvalidLevel):
        CantorInstance(0)
    assert INST.domain(0).render() == "N=00"


# ---------------------------------------------------------------------------
# assignments and membership


def test_assignment_validation():
    """Missing strengths, missing cells, and empty cells are all rejected."""
    G = edge_graph()
    V = {"a": cylinder("00"), "b": cylinder("01")}
    with pytest.raises(InvalidArgument):
        MappingTupleAssignment(G, INST, {"a": 0}, V)
    with pytest.raises(InvalidArgument):
        MappingTupleAssignment(G, INST, {"a": -1, "b": 0}, V)
    with pytest.raises(InvalidArgument):
        MappingTupleAssignment(G, INST, {"a": 0, "b": 0}, {"a": cylinder("00")})
    from cantorlab.cylinders import EMPTY_SET

    with pytest.raises(InvalidArgument):
        MappingTupleAssignment(G, INST, {"a": 0, "b": 0}, {"a": EMPTY_SET, "b": cylinder("01")})


def test_membership_frozen():
    """The exact-image pair (N_00, N_01) under map 0; shrinking the target
    keeps containment but breaks equality."""
    G = edge_graph()
    exact = MappingTupleAssignment(
        G, INST, {"a": 0, "b": 0}, {"a": cylinder("00"), "b": cylinder("01")}
    )
    assert in_E(exact)
    assert in_U(exact)
    shrunk = MappingTupleAssignment(
        G, INST, {"a": 0, "b": 0}, {"a": cylinder("00"), "b": cylinder("011")}
    )
    assert not in_E(shrunk)
    assert in_U(shrunk)


def test_membership_needs_domain():
    """A source cell outside the map's domain fails both memberships."""
    G = edge_graph()
    bad = MappingTupleAssignment(
        G, INST, {"a": 1, "b": 0}, {"a": cylinder("01"), "b": cylinder("01")}
    )
    assert not in_U(bad)
    assert not in_E(bad)


# ---------------------------------------------------------------------------
# random contained-image assignments


def random_in_u(rng, inst=INST):
    """A random assignment with contained images: cells are seeded at the
    minimal vertices and pushed forward, targets optionally shrunk at a free
    coordinate so that exactness fails while containment survives."""
    kind = rng.choice(("edge", "fan", "chain"))
    if kind == "edge":
        vertices, edges = {"a", "b"}, {("a", "b")}
        u = {"a": 0, "b": 0}
        Va = cylinder("00")
        if rng.random() < 0.7:
            Va = Va.with_atoms([atom_const(rng.choice((2, 3, 4, 6, 8)), rng.randint(0, 1))])
        V = {"a": Va, "b": inst.image(0, Va)}
        if rng.random() < 0.5:
            V["b"] = V["b"].with_atoms([atom_const(rng.choice((4, 5, 6)), rng.randint(0, 1))])
    elif kind == "fan":
        vertices, edges = {"y1", "y2", "x"}, {("y1", "x"), ("y2", "x")}
        u = {"y1": 0, "y2": 0, "x": 0}
        c = rng.choice((2, 4, 6))
        V = {
            "y1": cylinder("00").with_atoms([atom_const(c, 0)]),
            "y2": cylinder("00").with_atoms([atom_const(c, 1)]),
        }
        V["x"] = inst.image(0, V["y1"]).intersect(inst.image(0, V["y2"]))
        if rng.random() < 0.5:
            V["x"] = V["x"].with_atoms([atom_const(rng.choice((4, 5, 6)), rng.randint(0, 1))])
    else:
        vertices, edges = {"a", "b", "c"}, {("a", "b"), ("b", "c")}
        u = {"a": 1, "b": 0, "c": 0}
        Va = domain_D(MapId(1, 1))
        if rng.random() < 0.5:
            Va = Va.with_atoms([atom_const(rng.choice((16, 32)), rng.randint(0, 1))])
        Vb = inst.image(1, Va)
        if rng.random() < 0.5:
            Vb = Vb.with_atoms([atom_const(rng.choice((10, 12, 14)), rng.randint(0, 1))])
        V = {"a": Va, "b": Vb, "c": inst.image(0, Vb)}
    for extra in range(rng.randint(0, 5 - len(vertices))):
        name = f"z{extra}"
        vertices = vertices | {name}
        u[name] = 0
        V[name] = cylinder("".join(rng.choice("01") for _ in range(rng.randint(0, 3))))
    G = FiniteOrientedGraph(vertices, edges)
    return MappingTupleAssignment(G, inst, u, V)


def test_random_in_u_generator_is_in_u():
    """The generator's output really has contained images."""
    for seed in range(30):
        assert in_U(random_in_u(random.Random(seed)))


# ---------------------------------------------------------------------------
# chain refinement


def test_refine_45_frozen():
    """Cutting N_00 back to the preimage of N_011 pins input coordinate 5."""
    asg = MappingTupleAssignment(
        edge_graph(), INST, {"a": 0, "b": 0}, {"a": cylinder("00"), "b": cylinder("011")}
    )
    out = refine_45(asg)
    assert out.V["a"].render() == "N=00; bit(5)=1"
    assert out.V["b"].render() == "N=011"
    assert in_E(out)


def test_refine_45_empty():
    """Disjoint source and target images empty the cut."""
    asg = MappingTupleAssignment(
        edge_graph(), INST, {"a": 0, "b": 0}, {"a": cylinder("00"), "b": cylinder("11")}
    )
    with pytest.raises(EmptyRefinement):
        refine_45(asg)


@given(seed=st.integers(0, 10**6))
@settings(max_examples=60, deadline=None)
def test_refine_45_restores_exactness(seed):
    """On contained images the chain cut lands in the exact-image class,
    shrinking every cell and fixing the maximal ones."""
    asg = random_in_u(random.Random(seed))
    out = refine_45(asg)
    assert out.V == chain_refinement_oracle(asg)
    assert in_E(out)
    succs = {y for y, x in asg.graph.edges}
    for v in asg.graph.vertices:
        assert out.V[v].subset(asg.V[v])
        if v not in succs:
            assert asg.V[v].subset(out.V[v])


# ---------------------------------------------------------------------------
# component refinement


def test_refine_46_backward_frozen():
    """A shrunk target pulls the source back through the preimage."""
    asg = MappingTupleAssignment(
        edge_graph(), INST, {"a": 0, "b": 0}, {"a": cylinder("00"), "b": cylinder("01")}
    )
    out = refine_46(asg, "b", cylinder("011"))
    assert out.V["a"].render() == "N=00; bit(5)=1"
    assert out.V["b"].render() == "N=011"
    assert in_E(out)


def test_refine_46_forward_frozen():
    """A shrunk source pushes the target forward through the image."""
    asg = MappingTupleAssignment(
        edge_graph(), INST, {"a": 0, "b": 0}, {"a": cylinder("00"), "b": cylinder("01")}
    )
    out = refine_46(asg, "a", cylinder("001"))
    assert out.V["a"].render() == "N=001"
    assert out.V["b"].render() == "N=01"
    assert in_E(out)


def test_refine_46_leaves_other_components():
    """Vertices outside the pivot's component keep their cells."""
    G = FiniteOrientedGraph({"a", "b", "z"}, {("a", "b")})
    asg = MappingTupleAssignment(
        G,
        INST,
        {"a": 0, "b": 0, "z": 0},
        {"a": cylinder("00"), "b": cylinder("01"), "z": cylinder("1")},
    )
    out = refine_46(asg, "a", cylinder("001"))
    assert out.V["z"].render() == "N=1"


def test_refine_46_validation():
    asg = MappingTupleAssignment(
        edge_graph(), INST, {"a": 0, "b": 0}, {"a": cylinder("00"), "b": cylinder("01")}
    )
    with pytest.raises(InvalidArgument):
        refine_46(asg, "nope", cylinder("0"))
    from cantorlab.cylinders import EMPTY_SET

    with pytest.raises(InvalidArgument):
        refine_46(asg, "a", EMPTY_SET)
    with pytest.raises(InvalidArgument):
        refine_46(asg, "a", cylinder("1"))


# ---------------------------------------------------------------------------
# the splitting construction


def test_shrink_47_frozen_edge():
    """The hand-traced two-vertex run: the source splits at coordinate 2 and
    the chosen branch lands on (N_000, N_01)."""
    asg = MappingTupleAssignment(
        edge_graph(), INST, {"a": 0, "b": 0}, {"a": cylinder("00"), "b": cylinder("01")}
    )
    out = shrink_47(asg, 2)
    assert out.V["a"].render() == "N=000"
    assert out.V["b"].render() == "N=01"
    assert in_E(out)
    assert out.V["a"].intersect(out.V["b"]).is_empty()


def test_shrink_47_validation():
    asg = MappingTupleAssignment(
        edge_graph(), INST, {"a": 0, "b": 0}, {"a": cylinder("00"), "b": cylinder("01")}
    )
    with pytest.raises(InvalidArgument):
        shrink_47(asg, -1)
    G = FiniteOrientedGraph({"a", "b", "c"}, {("a", "b"), ("a", "c")})
    bad = MappingTupleAssignment(
        G,
        INST,
        {"a": 0, "b": 0, "c": 0},
        {"a": cylinder("00"), "b": cylinder("01"), "c": cylinder("01")},
    )
    with pytest.raises(InvalidArgument):
        shrink_47(bad, 2)


def test_chain_refinement_rejects_a_branching_or_cycling_successor():
    """refine_45 and shrink_47 raise InvalidArgument on a word with two
    successors (BinWords have no order to rank them by) and on a successor
    cycle, a 2-cycle or a 3-cycle."""
    a, b, c = W("0"), W("10"), W("11")
    for edges in ({(a, b), (a, c)}, {(a, b), (b, a)}, {(a, b), (b, c), (c, a)}):
        G = FiniteOrientedGraph({a, b, c}, edges)
        asg = MappingTupleAssignment(
            G, INST, dict.fromkeys(G.vertices, 0), dict.fromkeys(G.vertices, FULL_SPACE)
        )
        with pytest.raises(InvalidArgument):
            refine_45(asg)
        with pytest.raises(InvalidArgument):
            shrink_47(asg, 2)


def test_shrink_47_stops_at_the_duplication_cap(monkeypatch):
    """shrink_47 makes no copies, so the cap bounds only the preimages of
    one split: the edge's source splits around two preimages, which a cap of
    one refuses in _split_coords and a cap of two admits, with the default
    cells."""

    def edge():
        return MappingTupleAssignment(
            edge_graph(), CantorInstance(1), {"a": 0, "b": 0},
            {"a": cylinder("00"), "b": cylinder("01")},
        )

    default_cells = shrink_47(edge(), 2).V
    monkeypatch.setattr(embedding_mod, "DUPLICATION_CAP", 1)
    with pytest.raises(CapExceeded, match="^2 preimages exceed the cap 1$") as caught:
        shrink_47(edge(), 2)
    assert caught.traceback[-1].name == "_split_coords"
    monkeypatch.setattr(embedding_mod, "DUPLICATION_CAP", 2)
    assert shrink_47(edge(), 2).V == default_cells


def check_shrink_postconditions(asg, d):
    out = shrink_47(asg, d)
    assert in_E(out)
    vs = sorted(asg.graph.vertices)
    for v in vs:
        assert out.V[v].subset(asg.V[v])
        assert out.V[v].first_free_coord() >= d
    for i, x in enumerate(vs):
        for y in vs[i + 1 :]:
            assert out.V[x].intersect(out.V[y]).is_empty()


@given(seed=st.integers(0, 10**6), d=st.sampled_from((3, 5)))
@settings(max_examples=40, deadline=None)
def test_shrink_47_postconditions(seed, d):
    """Exact images, nested cells, pairwise disjointness, diameter bound."""
    check_shrink_postconditions(random_in_u(random.Random(seed)), d)


# the splitting construction as it stood before the split-local recut: the
# oracle for shrink_47

REF_UNCHANGED = object()


def ref_settle(cells, dup, depth, ubase, preimage, changed, recuts):
    """Restore exact images after a batch of cells moved.

    `cells` and `changed` are keyed by the copy ids of the engine `dup`;
    `changed` maps the moved copies to their new cells, already exact along
    their own chain.  Every copy whose chain passes through a moved copy is
    recut against its successor, by the chain depth of its base from the
    maxima down, so every successor is settled first; a cut equal to the old
    cell (a cut lies inside the old cell, so normal-form equality decides it)
    keeps the old object so the cascade dies out.

    A recut is a function of the strength, the old cell and the successor's
    cell alone, and equal clopen sets have equal normal forms, so `recuts`
    memoizes it under that triple: the new cut, or REF_UNCHANGED.  `preimage`
    is the instance's, memoized the same way by the caller.
    """
    succ, preds, base = dup.succ, dup.preds, dup.base
    affected = set(changed)
    stack = list(changed)
    while stack:
        w = stack.pop()
        for p in preds.get(w, ()):
            if p not in affected:
                affected.add(p)
                stack.append(p)
    really = set()
    for w in sorted(affected, key=lambda w: depth[base[w]]):
        if w in changed:
            cells[w] = changed[w]
            really.add(w)
            continue
        nxt = succ[w]
        if nxt not in really:
            continue
        old = cells[w]
        n, target = ubase[base[w]], cells[nxt]
        key = (n, old, target)
        cut = recuts.get(key)
        if cut is None:
            cut = old.intersect(preimage(n, target))
            if cut.is_empty():
                raise EmptyRefinement(f"settling emptied the cell at a copy of {base[w]!r}")
            if cut == old:
                cut = REF_UNCHANGED
            recuts[key] = cut
        if cut is REF_UNCHANGED:
            continue
        cells[w] = cut
        really.add(w)


def ref_shrink_47(assignment: MappingTupleAssignment, d: int):
    """The splitting construction before the split-local recut, kept as the
    oracle: it shrinks the successor to the shared image of the split cells,
    pushes that up the chain, and settles every copy below by chain depth."""
    if d < 0:
        raise InvalidArgument("diameter exponent must be a natural number")
    G = assignment.graph
    inst = assignment.instance
    u = assignment.u
    table, depth = chain_table(G)
    order = sorted(G.vertices, key=lambda t: (depth[t], repr(t)))
    L = len(order)
    if L == 0:
        return assignment
    seed = refine_45(assignment)

    dup = Duplication(G, order)
    cells = {}
    recuts = {}
    image = functools.cache(inst.image)
    preimage = functools.cache(inst.preimage)
    for v in G.vertices:
        (c,) = dup.copies[v]
        cells[c] = seed.V[v]

    for top in order[dup.first :]:
        for vp in sorted(dup.copies[top], key=dup.label.__getitem__):
            s = dup.succ[vp]
            _, pts = pick_distinct_preimages(inst, u[top], cells[vp], L)
            pins = _separators(pts, 0)
            disj = [
                inst.cell_pinned(cells[vp], p, pn) for p, pn in zip(pts, pins)
            ]
            shrunk = cells[s]
            for c in disj:
                shrunk = shrunk.intersect(image(u[top], c))
            if shrunk.is_empty():
                raise EmptyRefinement("the preimage cells share no image")
            changed = {}
            cur, val = s, shrunk
            while True:
                changed[cur] = val
                nxt = dup.succ.get(cur)
                if nxt is None:
                    break
                val = image(u[dup.base[cur]], val)
                cur = nxt

            for old, fresh in dup.split(vp):
                old_cell = cells.pop(old)
                for j, new in enumerate(fresh):
                    cells[new] = disj[j] if old == vp else old_cell
            ref_settle(cells, dup, depth, u, preimage, changed, recuts)

    # choose one copy per vertex, from the maxima down, avoiding placed points
    chosen = {}
    zpt = {}
    placed = []
    for v in order:
        nxt = table.succ.get(v)
        if nxt is None:
            (c,) = dup.copies[v]
            z = _point_avoiding(cells[c], placed)
        else:
            sv = chosen[nxt]
            cands = sorted(
                (p for p in dup.preds[sv] if dup.base[p] == v), key=dup.label.__getitem__
            )
            c = None
            for cand in cands:
                cc = cells[cand]
                if all(not cc.contains(q) for q in placed):
                    c = cand
                    break
            if c is None:
                raise InvalidArgument("copy selection exhausted; splitting broken")
            z = inst.point_preimage(u[v], cells[c], zpt[nxt])
        chosen[v] = c
        zpt[v] = z
        placed.append(z)

    pins = _separators([zpt[v] for v in order], d)
    O = {
        v: inst.cell_pinned(cells[chosen[v]], zpt[v], pn)
        for v, pn in zip(order, pins)
    }

    # a vertex's predecessors sit at smaller distances, so they are done
    distance = table.distances()
    U = {}
    for v in sorted(order, key=lambda t: distance.get(t, 1)):
        cell = O[v]
        for y in table.preds.get(v, ()):
            cell = cell.intersect(image(u[y], U[y]))
        if cell.is_empty():
            raise EmptyRefinement(f"predecessor images emptied the cell at {v!r}")
        if not cell.contains(zpt[v]):
            raise InvariantBroken(f"the refined cell at {v!r} lost its chosen point")
        U[v] = cell
    return refine_45(MappingTupleAssignment(G, inst, u, U))


def test_shrink_47_matches_the_settling_oracle():
    """The split-local recut gives the cells of the construction that
    shrank each successor to the shared image and settled every copy: on the
    hand-traced edge and on 800 random contained-image inputs.  A difference
    would mean the shared-image shrink can change a cell after all."""
    edge = MappingTupleAssignment(
        edge_graph(), INST, {"a": 0, "b": 0}, {"a": cylinder("00"), "b": cylinder("01")}
    )
    cases = [(edge, 2)] + [
        (random_in_u(random.Random(seed)), d) for seed in range(400) for d in (3, 5)
    ]
    for asg, d in cases:
        assert shrink_47(asg, d).V == ref_shrink_47(asg, d).V


# ---------------------------------------------------------------------------
# separators: the pairwise scan, one per pair, is the oracle for the trie split


def first_difference_oracle(p, q, probe):
    for c in range(probe):
        if p.eval(c) != q.eval(c):
            return c
    raise NotFoundWithinBudget(f"no separating coordinate below {probe}")


def separators_oracle(points, d, probe):
    k = len(points)
    pins = [set(range(d)) for _ in range(k)]
    for i in range(k):
        for j in range(i + 1, k):
            c = first_difference_oracle(points[i], points[j], probe)
            pins[i].add(c)
            pins[j].add(c)
    return pins


PROBE = 24


@pytest.fixture
def probe(monkeypatch):
    """_separators with the probe budget lowered to PROBE bits."""
    monkeypatch.setattr(embedding_mod, "POINT_PROBE_BITS", PROBE)


def random_point(rng):
    """Explicit bits over a default-0 or default-1 tail, or over a random
    table of explicit bits below PROBE + 4."""
    top = PROBE + 4
    explicit = {c: rng.randrange(2) for c in rng.sample(range(top), rng.randrange(1, 10))}
    kind = rng.randrange(3)
    if kind < 2:
        return LazyPoint(explicit, kind)
    table = [rng.randrange(2) for _ in range(top)]
    return LazyPoint(dict(enumerate(table)), 0).with_bits(explicit)


def test_separators_match_the_pairwise_oracle(probe):
    """Equal pin sets on random point sets, or NotFoundWithinBudget from
    both when two points agree below the probe budget."""
    rng = random.Random(7)
    outcomes = {"pins": 0, "raised": 0}
    for _ in range(400):
        points = [random_point(rng) for _ in range(rng.randrange(41))]
        d = rng.randrange(4)
        try:
            want = separators_oracle(points, d, PROBE)
        except NotFoundWithinBudget as err:
            with pytest.raises(NotFoundWithinBudget, match=f"^{err}$"):
                _separators(points, d)
            outcomes["raised"] += 1
            continue
        assert _separators(points, d) == want
        outcomes["pins"] += 1
    assert outcomes["pins"] >= 200 and outcomes["raised"] >= 20, outcomes


def test_separators_need_a_difference_below_the_probe_budget(probe):
    """Two points that first differ at the budget are not separable."""
    p = LazyPoint({}, 0)
    q = LazyPoint({PROBE: 1}, 0)
    r = LazyPoint({0: 1}, 0)
    for points in ([p, q], [r, p, q]):
        with pytest.raises(NotFoundWithinBudget, match="^no separating coordinate below 24$"):
            separators_oracle(points, 2, PROBE)
        with pytest.raises(NotFoundWithinBudget, match="^no separating coordinate below 24$"):
            _separators(points, 2)
    assert _separators([p, r], 2) == [{0, 1}, {0, 1}]
    assert _separators([q], 3) == [{0, 1, 2}]
    assert _separators([], 3) == []


SPLIT_INPUTS = [
    (0, cylinder("00")),
    (1, domain_D(MapId(1, 1))),
    (0, cylinder("00").with_atoms([atom_ne(5, 9), atom_const(7, 1)])),
    (1, domain_D(MapId(1, 1)).with_atoms([atom_eq(3, 6), atom_const(9, 0)])),
]


def test_counter_pins_match_the_trie_scan_on_split_points():
    """For every count from 1 to 64, the closed-form pins on the coordinates
    of _split_coords are the pins _separators(points, 0) finds on the points
    pick_distinct_preimages returns, with those points' bits."""
    for n, C in SPLIT_INPUTS:
        for count in range(1, 65):
            coords = INST._split_coords(n, C, count)
            _, pts = pick_distinct_preimages(INST, n, C, count)
            pins = [_counter_pins(coords, count, j) for j in range(count)]
            assert [set(pn) for pn in pins] == _separators(pts, 0), (n, C, count)
            for p, pn in zip(pts, pins):
                assert all(p.eval(c) == bit for c, bit in pn.items())


def test_counter_pins_match_the_trie_scan_on_synthetic_counters():
    """Points that count in binary on random increasing coordinates, over a
    random common point: for every count from 1 to 64 the closed form pins
    what _separators(points, 0) pins.  Coordinates past the counter's top
    bit carry bit 0 in every point and are never pinned."""
    rng = random.Random(22)
    for count in range(1, 65):
        for _ in range(3):
            k = (count - 1).bit_length() + rng.randrange(3)
            coords = sorted(rng.sample(range(120), k))
            explicit = {c: rng.randrange(2) for c in rng.sample(range(130), 20)}
            base = LazyPoint(explicit, rng.randrange(2))
            pts = [
                base.with_bits({c: (j >> t) & 1 for t, c in enumerate(coords)})
                for j in range(count)
            ]
            pins = [_counter_pins(coords, count, j) for j in range(count)]
            assert [set(pn) for pn in pins] == _separators(pts, 0), (count, coords)
            for p, pn in zip(pts, pins):
                assert all(p.eval(c) == bit for c, bit in pn.items())


def test_counter_index_names_the_one_split_cell_that_holds_a_point():
    """For every count from 1 to 64 on SPLIT_INPUTS, each split point and
    random members of C lie in exactly one split cell, and _counter_index
    names it from the point's bits: split point j in cell j."""
    rng = random.Random(27)
    for n, C in SPLIT_INPUTS:
        w = C.witness_point()
        free = [c for c in range(96) if C.forced(c) is None]
        for count in range(1, 65):
            coords = INST._split_coords(n, C, count)
            cells = ref_split_cells(INST, n, C, count)
            _, pts = pick_distinct_preimages(INST, n, C, count)
            assert [_counter_index(p, coords, count) for p in pts] == list(range(count))
            members = [w.with_bits({c: rng.randrange(2) for c in free}) for _ in range(4)]
            for q in pts + [q for q in members if C.contains(q)]:
                holders = [j for j, cell in enumerate(cells) if cell.contains(q)]
                assert holders == [_counter_index(q, coords, count)], (n, C, count)


def test_split_cells_are_the_cells_around_the_separated_preimages():
    """The split cells are the cells that cell_pinned builds around the
    points of pick_distinct_preimages at their _separators(points, 0) pins."""
    for n, C in SPLIT_INPUTS:
        for count in (1, 2, 3, 5, 8, 13, 31):
            _, pts = pick_distinct_preimages(INST, n, C, count)
            want = [INST.cell_pinned(C, p, pn) for p, pn in zip(pts, _separators(pts, 0))]
            got = ref_split_cells(INST, n, C, count)
            assert got == want
            assert [c.render() for c in got] == [c.render() for c in want]


def test_split_cells_keep_the_errors_of_pick_distinct_preimages():
    with pytest.raises(InvalidArgument):
        ref_split_cells(INST, 0, cylinder("00"), 0)
    with pytest.raises(EmptySet):
        ref_split_cells(INST, 0, cylinder("1"), 2)
    with pytest.raises(CapExceeded):
        ref_split_cells(INST, 0, cylinder("00"), 1 << 25)


def test_shrink_47_splits_equal_cells_of_different_strengths_apart(monkeypatch):
    """Two edges a -> b under map 0 and c -> d under map 1 with a and c on
    the same cell: the two maps leave different coordinates unread, so the
    split cells of a and c differ, and each split is made for its own
    strength, giving the oracle's cells."""
    X = domain_D(MapId(1, 0)).intersect(domain_D(MapId(1, 1)))
    assert ref_split_cells(INST, 0, X, 4) != ref_split_cells(INST, 1, X, 4)
    G = FiniteOrientedGraph("abcd", {("a", "b"), ("c", "d")})
    u = {"a": 0, "b": 0, "c": 1, "d": 0}
    V = {"a": X, "b": INST.image(0, X), "c": X, "d": INST.image(1, X)}
    asg = MappingTupleAssignment(G, INST, u, V)
    calls = []
    real = CantorInstance._split_coords

    def split_coords(self, n, C, count):
        calls.append(n)
        return real(self, n, C, count)

    monkeypatch.setattr(CantorInstance, "_split_coords", split_coords)
    got = shrink_47(asg, 3).V
    assert sorted(calls) == [0, 1]
    assert got == ref_shrink_47(asg, 3).V


def test_build_scheme_builds_each_split_once_per_distinct_input(monkeypatch):
    """Within one shrink_47 call the split coordinates are hunted once per
    distinct (strength, cell): the depth-7 scheme hunts 32 times where
    hunting once per non-maximal vertex would make 63."""
    calls = []
    real_split = CantorInstance._split_coords
    real_shrink = embedding_mod.shrink_47

    def split_coords(self, n, C, count):
        calls[-1].append((n, C, count))
        return real_split(self, n, C, count)

    def shrink(assignment, d):
        calls.append([])
        return real_shrink(assignment, d)

    monkeypatch.setattr(CantorInstance, "_split_coords", split_coords)
    monkeypatch.setattr(embedding_mod, "shrink_47", shrink)
    build_scheme(INST, 7)
    for inputs in calls:
        assert len(set(inputs)) == len(inputs)
        assert len({count for _, _, count in inputs}) <= 1
    assert sum(map(len, calls)) == 32


# ---------------------------------------------------------------------------
# the two pairing facts


def test_lemma25_frozen():
    """The weaker image of the stronger image stays inside the weaker image."""
    V0 = domain_D(MapId(1, 1))
    V1 = image_clopen(MapId(1, 1), V0)
    assert lemma25_check(INST, V0, V1, 0, 1)
    a = image_clopen(MapId(1, 0), V1)
    b = image_clopen(MapId(1, 0), V0)
    assert a.render() == b.render() == "N=0100"


def test_lemma25_premises():
    V0 = domain_D(MapId(1, 1))
    V1 = image_clopen(MapId(1, 1), V0)
    with pytest.raises(InvalidArgument):
        lemma25_check(INST, V0, V1, 1, 0)
    with pytest.raises(InvalidArgument):
        lemma25_check(INST, cylinder("1"), V1, 0, 1)
    with pytest.raises(InvalidArgument):
        lemma25_check(INST, V0, cylinder("00"), 0, 1)


@given(bits=st.lists(st.sampled_from((16, 32, 48)), max_size=2, unique=True))
@settings(max_examples=20, deadline=None)
def test_lemma25_on_shrunk_cells(bits):
    """Valid premises built from shrunk domain cells always pass."""
    V0 = domain_D(MapId(1, 1)).with_atoms([atom_const(c, 0) for c in bits])
    V1 = image_clopen(MapId(1, 1), V0)
    assert lemma25_check(INST, V0, V1, 0, 1)


def test_lemma26_frozen():
    """The full space pairs with itself through map 0, then map 1 above it."""
    n, V0, V1 = lemma26_find(INST, FULL_SPACE)
    assert (n, V0.render(), V1.render()) == (0, "N=00", "N=01")
    n, V0, V1 = lemma26_find(INST, FULL_SPACE, 0)
    assert n == 1
    assert V0.render() == "N=00000000_0"
    assert V1.render() == "N=00000000_1"


def test_lemma26_errors():
    from cantorlab.cylinders import EMPTY_SET

    with pytest.raises(EmptySet):
        lemma26_find(INST, EMPTY_SET)
    with pytest.raises(NotFoundWithinBudget):
        lemma26_find(INST, cylinder("1"))


def test_lemma26_reads_the_instance_search_budget(monkeypatch):
    """The search stops at MAP_SEARCH_MAX, read at call time."""
    with pytest.raises(NotFoundWithinBudget, match=r"no strength in \[2, 1\]"):
        lemma26_find(INST, FULL_SPACE, 1)
    monkeypatch.setattr(embedding_mod, "MAP_SEARCH_MAX", 0)
    with pytest.raises(NotFoundWithinBudget, match=r"no strength in \[1, 0\]"):
        lemma26_find(INST, FULL_SPACE, 0)


# ---------------------------------------------------------------------------
# the level scheme


def test_build_scheme_frozen_low_levels():
    """Hand-traced levels: the first split lands on (N_0, N_1), the second
    pairs the zero cell with itself through map 0."""
    states = build_scheme(INST, 2)
    assert [st.level for st in states] == [0, 1, 2]
    assert scheme_state_json(states[0]) == {
        "level": 0,
        "phi": {},
        "cells": {"": "N="},
    }
    assert scheme_state_json(states[1]) == {
        "level": 1,
        "phi": {},
        "cells": {"0": "N=0", "1": "N=1"},
    }
    assert scheme_state_json(states[2]) == {
        "level": 2,
        "phi": {"0": 0},
        "cells": {"00": "N=000", "01": "N=01", "10": "N=100", "11": "N=101"},
    }


def test_build_scheme_first_split_disjoint():
    states = build_scheme(INST, 2)
    c0, c1 = states[1].cells[W("0")], states[1].cells[W("1")]
    assert not c0.is_empty() and not c1.is_empty()
    assert c0.intersect(c1).is_empty()


def test_build_scheme_assigns_strength_at_first_event():
    """The first strength appears while stepping away from level 1."""
    states = build_scheme(INST, 3)
    assert states[1].phi == {}
    assert states[2].phi == {0: 0}
    assert states[3].phi == {0: 0}


def test_build_scheme_validation():
    with pytest.raises(InvalidLevel):
        build_scheme(INST, -1)
    with pytest.raises(InvalidLevel):
        build_scheme(CantorInstance(2), 1)


def test_build_scheme_nesting_is_a_typed_check(monkeypatch):
    """A new cell outside its parent raises InvariantBroken, also under -O."""
    monkeypatch.setattr(SymbolicClopen, "subset", lambda self, other, *args: False)
    with pytest.raises(InvariantBroken):
        build_scheme(INST, 2)


def test_build_scheme_conditions_to_depth_five():
    """Every per-level clause of the condition report holds to depth 5."""
    states = build_scheme(INST, 5)
    report = check_scheme_conditions(states, INST)
    assert report.ok, report.violations[:5]


def test_build_scheme_diameters_shrink():
    states = build_scheme(INST, 4)
    for st_ in states:
        for cell in st_.cells.values():
            assert cell.first_free_coord() >= st_.level


def test_scheme_edge_containment_frozen():
    """The level-3 branch cells of 0^inf and its image satisfy the edge
    containment through map 0 exactly."""
    states = build_scheme(INST, 3)
    src = states[3].cells[W("000")]
    tgt = states[3].cells[W("01")]
    img = INST.image(0, src)
    assert tgt.subset(img)


def test_h_eval_chain_nested():
    states = build_scheme(INST, 3)
    chain = h_eval(states, "000")
    assert [str(w) for w, _ in chain] == ["", "0", "00", "000"]
    for (_, outer), (_, inner) in zip(chain, chain[1:]):
        assert inner.subset(outer)


def test_h_eval_distinct_branches_disjoint():
    states = build_scheme(INST, 3)
    a = h_eval(states, "000")[-1][1]
    b = h_eval(states, "100")[-1][1]
    assert a.intersect(b).is_empty()


def test_h_eval_prefix_too_short():
    states = build_scheme(INST, 2)
    with pytest.raises(PrefixTooShort):
        h_eval(states, "0")
    chain = h_eval(states, W("01"))
    assert str(chain[-1][0]) == "01"


def test_scheme_state_equality():
    states = build_scheme(INST, 1)
    same = SchemeState(1, states[1].cells, states[1].phi)
    assert same == states[1]
    assert SchemeState(0, {BinWord(): FULL_SPACE}, {}) != states[1]


def test_check_scheme_conditions_flags_tampering():
    """Swapping a cell out of its parent trips nesting and disjointness."""
    states = build_scheme(INST, 2)
    bad = [
        states[0],
        states[1],
        SchemeState(
            2,
            {**states[2].cells, W("00"): cylinder("10")},
            states[2].phi,
        ),
    ]
    report = check_scheme_conditions(bad, INST)
    clauses = {v[0] for v in report.violations}
    assert "cell-nesting" in clauses
    assert not check_scheme_conditions(states, INST).violations


def test_build_scheme_frozen_depth_nine():
    """The depth-9 scheme: cells per level, strengths, a clean condition
    report, and the SHA-256 of every level's rendered cells as `build-h
    --depth 9` writes them to its report."""
    states = build_scheme(INST, 9)
    assert [len(st_.cells) for st_ in states] == [1, 2, 4, 7, 13, 25, 50, 98, 196, 388]
    assert states[-1].phi == {0: 0, 1: 1}
    assert check_scheme_conditions(states, INST).violations == []
    cells = [scheme_state_json(st_)["cells"] for st_ in states]
    blob = json.dumps(cells, sort_keys=True, separators=(",", ":")).encode()
    assert hashlib.sha256(blob).hexdigest() == (
        "1544cb2560be8bbb63e6f4353ff03c9e9b0a1a678e3b14c241ec1e3287136413"
    )


def test_build_scheme_frozen_depth_ten():
    """The depth-10 scheme, pinned like depth 9 above; the digest is that of
    the `build-h --depth 10` report's cells."""
    states = build_scheme(INST, 10)
    assert [len(st_.cells) for st_ in states] == [1, 2, 4, 7, 13, 25, 50, 98, 196, 388, 776]
    assert states[-1].phi == {0: 0, 1: 1}
    assert check_scheme_conditions(states, INST).violations == []
    cells = [scheme_state_json(st_)["cells"] for st_ in states]
    blob = json.dumps(cells, sort_keys=True, separators=(",", ":")).encode()
    assert hashlib.sha256(blob).hexdigest() == (
        "a40ef6baefb6920cb9d264a3c023c51e40aca06c86a45b5be5c9e285fb91a537"
    )


def test_build_scheme_frozen_depth_eleven():
    """The depth-11 scheme, pinned like depth 9 above; the digest is that of
    the `build-h --depth 11` report's cells."""
    states = build_scheme(INST, 11)
    assert [len(st_.cells) for st_ in states] == [
        1, 2, 4, 7, 13, 25, 50, 98, 196, 388, 776, 1544
    ]
    assert states[-1].phi == {0: 0, 1: 1}
    assert check_scheme_conditions(states, INST).violations == []
    cells = [scheme_state_json(st_)["cells"] for st_ in states]
    blob = json.dumps(cells, sort_keys=True, separators=(",", ":")).encode()
    assert hashlib.sha256(blob).hexdigest() == (
        "41d91795d21d1b687cb2dafdc245035c0cd5d2982f2c2b9ebacddf8314b71633"
    )


def test_build_scheme_memoizes_images(monkeypatch):
    """shrink_47 takes no image while it splits: depth 7 asks the instance
    for 64 images, so the bound of 100 fails if a shrink to the split
    cells' shared image comes back (that asked for 484)."""
    calls = []
    real = CantorInstance.image

    def counted(self, n, C):
        calls.append(n)
        return real(self, n, C)

    monkeypatch.setattr(CantorInstance, "image", counted)
    build_scheme(INST, 7)
    assert len(calls) <= 100


def test_build_scheme_memoizes_preimages(monkeypatch):
    """Depth 7 asks the instance for 126 preimages, within the bound of
    1,000: no split there has a cone below the split copy, so shrink_47
    recuts nothing, and every preimage is asked for by a chain cut."""
    calls = []
    real = CantorInstance.preimage

    def counted(self, n, C):
        calls.append(n)
        return real(self, n, C)

    monkeypatch.setattr(CantorInstance, "preimage", counted)
    build_scheme(INST, 7)
    assert len(calls) <= 1000


def all_pairs_meeting(cells):
    """Oracle for _meeting_pairs: intersect every pair of words, in
    word-code order."""
    words = sorted(cells, key=lambda t: t.code)
    return [
        (x, y)
        for i, x in enumerate(words)
        for y in words[i + 1 :]
        if not cells[x].intersect(cells[y]).is_empty()
    ]


def random_bits(rng, n):
    return "".join(rng.choice("01") for _ in range(n))


def tampered_cells(rng, cells, allow_empty):
    """A level's cells with a third of them replaced by random clopens whose
    bases equal, extend, prefix or sit beside another cell's base; with
    `allow_empty`, some replacements are empty."""
    words = sorted(cells, key=lambda t: t.code)
    bases = [str(cells[w].base) for w in words]
    out = dict(cells)
    for w in rng.sample(words, max(2, len(words) // 3)):
        ref = rng.choice(bases)
        kind = rng.randrange(5 if allow_empty else 4)
        if kind == 4:
            out[w] = EMPTY_SET
            continue
        base = (
            ref,
            ref + random_bits(rng, rng.randint(1, 3)),
            ref[: rng.randrange(len(ref) + 1)],
            random_bits(rng, len(ref)),
        )[kind]
        lo = len(base)
        atoms = []
        for _ in range(rng.randrange(4)):
            a, b = rng.randrange(lo, lo + 6), rng.randrange(lo, lo + 6)
            atoms.append(
                rng.choice((atom_const(a, rng.randrange(2)), atom_eq(a, b), atom_ne(a, b)))
            )
        cell = SymbolicClopen(base, atoms)
        out[w] = cell if allow_empty or not cell.is_empty() else SymbolicClopen(base)
    return out


def test_meeting_pairs_match_the_all_pairs_loop_on_the_depth_seven_scheme(monkeypatch):
    states = build_scheme(INST, 7)
    for st_ in states:
        assert _meeting_pairs(st_.cells) == all_pairs_meeting(st_.cells) == []
    walked = check_scheme_conditions(states, INST).violations
    monkeypatch.setattr(embedding_mod, "_meeting_pairs", all_pairs_meeting)
    assert check_scheme_conditions(states, INST).violations == walked == []


def test_meeting_pairs_match_the_all_pairs_loop_on_tampered_levels(monkeypatch):
    """120 seeded levels with cells swapped for random clopens: the base walk
    finds the same meeting pairs as the all-pairs loop, in the same order,
    and the whole condition report agrees too.  Half the levels have empty
    cells, which the report names under cell-nonempty; every third level
    also loses one word's cell, which it names under cells-match-level-words."""
    rng = random.Random(18)
    states = build_scheme(INST, 7)
    met = empty = missing = 0
    for trial in range(120):
        lvl = rng.randrange(2, 8)
        cells = tampered_cells(rng, states[lvl].cells, allow_empty=trial % 2 == 0)
        if trial % 3 == 0:
            words = sorted(cells, key=lambda t: t.code)
            del cells[words[trial % len(words)]]
            missing += 1
        want = all_pairs_meeting(cells)
        assert _meeting_pairs(cells) == want, trial
        met += len(want)
        bad = states[:lvl] + [SchemeState(lvl, cells, states[lvl].phi)]
        walked = check_scheme_conditions(bad, INST).violations
        with monkeypatch.context() as m:
            m.setattr(embedding_mod, "_meeting_pairs", all_pairs_meeting)
            assert check_scheme_conditions(bad, INST).violations == walked, trial
        clauses = {clause for clause, _ in walked}
        if any(c.is_empty() for c in cells.values()):
            assert "cell-nonempty" in clauses, trial
            empty += 1
        if trial % 3 == 0:
            assert "cells-match-level-words" in clauses, trial
    assert met > 120 and empty >= 30 and missing == 40, (met, empty, missing)


def test_meeting_pairs_intersect_only_prefix_comparable_bases(monkeypatch):
    """The depth-7 levels take at most 140 disjointness intersects (6,384
    with every pair intersected)."""
    states = build_scheme(INST, 7)
    calls = []
    real = SymbolicClopen.intersect

    def counted(self, other):
        calls.append(None)
        return real(self, other)

    monkeypatch.setattr(SymbolicClopen, "intersect", counted)
    for st_ in states:
        _meeting_pairs(st_.cells)
    assert len(calls) <= 140


def chain_refinement_oracle(asg):
    """Oracle for refine_45 and _chain_cut: every vertex's p_to_max chain,
    and the cells cut from the maxima down in order of chain length."""
    chains = {v: p_to_max(asg.graph, v) for v in asg.graph.vertices}
    W = {}
    for v in sorted(chains, key=lambda t: len(chains[t])):
        ch = chains[v]
        W[v] = asg.V[v]
        if len(ch) > 1:
            W[v] = W[v].intersect(asg.instance.preimage(asg.u[v], W[ch[1]]))
    return W


def test_chain_cut_matches_refine_45_over_the_level():
    """At both event steps of the depth-9 scheme (levels 1 and 8, whose cells
    the depth-8 scheme already holds), cutting a word's cell back along its
    own chain gives the cell that refine_45 over the whole level gives, and
    both agree with the per-vertex chain oracle: for the anchor word the step
    reads, and for every other word."""
    states = build_scheme(INST, 8)
    approx = run(1, 9)
    events = detect_L_n(approx)
    assert events == {0: 1, 1: 8}
    for r, lvl in events.items():
        st_l, cells = approx[lvl], states[lvl].cells
        succ_l = dict(st_l.A)
        u = embedding_mod._scheme_strengths(st_l, succ_l, states[lvl].phi)
        level = MappingTupleAssignment(
            FiniteOrientedGraph(st_l.X, st_l.A), INST, {x: u.get(x, 0) for x in st_l.X}, cells
        )
        whole = refine_45(level).V
        assert whole == chain_refinement_oracle(level)
        assert anchor_word(r) in whole
        for x in st_l.X:
            assert _chain_cut(INST, u, cells, succ_l, x, {}) == whole[x], (lvl, x)


def test_chain_cut_reads_its_memo_in_any_vertex_order():
    """A three-vertex chain whose top cell sits strictly inside the image, so
    the cut reaches two steps down: cutting the vertices in every order with
    one shared memo, and refine_45, give the oracle's cells."""
    G = FiniteOrientedGraph({"a", "b", "c"}, {("a", "b"), ("b", "c")})
    Va = domain_D(MapId(1, 1))
    Vb = INST.image(1, Va)
    V = {"a": Va, "b": Vb, "c": INST.image(0, Vb).with_atoms([atom_const(5, 0)])}
    asg = MappingTupleAssignment(G, INST, {"a": 1, "b": 0, "c": 0}, V)
    want = chain_refinement_oracle(asg)
    assert want["a"].render() == "N=00000000_0; bit(11)=0"
    for order in itertools.permutations("abc"):
        W = {}
        for x in order:
            _chain_cut(INST, asg.u, V, {"a": "b", "b": "c"}, x, W)
        assert W == want, order
    assert refine_45(asg).V == want


def test_build_scheme_orders_copies_without_repr(monkeypatch):
    """The splitting construction reads its vertex order and its final cut
    order off the successor table and makes no labeled copy: with
    LabeledVertex construction and __repr__ raising, depth 7 builds the same
    cells."""
    want = [st_.cells for st_ in build_scheme(INST, 7)]

    def called(*args):
        raise AssertionError("called")

    monkeypatch.setattr(LabeledVertex, "__init__", called)
    monkeypatch.setattr(LabeledVertex, "__repr__", called)
    assert [st_.cells for st_ in build_scheme(INST, 7)] == want


# the full copy-splitting loop, every copy of every split built and recut:
# the oracle for the branch that shrink_47 builds alone


def split_recut_oracle(dup, vp, disj, cells, ubase, preimage, recuts):
    """Split the copy vp of the engine `dup` and give the fresh copies cells.

    `cells` is keyed by copy id.  vp's fresh copies take the cells `disj`,
    one each; every other fresh copy of vp's cone is cut to its old cell
    intersected with the preimage of its successor's cell.  split returns
    each cone copy after its successor, so that cell is already final.
    `recuts` memoizes a recut under (strength, old cell, successor cell).
    """
    for old, fresh in dup.split(vp):
        old_cell = cells.pop(old)
        if old == vp:
            cells.update(zip(fresh, disj))
            continue
        x = dup.base[old]
        n = ubase[x]
        for new in fresh:
            key = (n, old_cell, cells[dup.succ[new]])
            cut = recuts.get(key)
            if cut is None:
                cut = old_cell.intersect(preimage(n, key[2]))
                if cut.is_empty():
                    raise EmptyRefinement(f"the recut emptied the cell at a copy of {x!r}")
                recuts[key] = cut
            cells[new] = cut


def split_copies_oracle(asg, check=lambda split, dup, cells: None):
    """Every copy of the full construction and its cell: each copy of a
    non-maximal vertex, by chain depth and label, splits around
    ref_split_cells and recuts its cone.  `check` sees the set of vertices
    split so far, the engine and the cells after each vertex's splits.
    Returns the successor table, the order, the engine and the cells by
    copy id."""
    G, inst, u = asg.graph, asg.instance, asg.u
    table, depth = chain_table(G)
    order = sorted(G.vertices, key=lambda t: (depth[t], repr(t)))
    seed = refine_45(asg).V
    dup = Duplication(G, order)
    cells = {c: seed[dup.base[c]] for c in dup.preds}
    recuts, splits = {}, {}
    for i in range(dup.first, len(order)):
        n = u[order[i]]
        for vp in sorted(dup.copies[order[i]], key=dup.label.__getitem__):
            cell = cells[vp]
            disj = splits.get((n, cell))
            if disj is None:
                disj = splits[n, cell] = ref_split_cells(inst, n, cell, len(order))
            split_recut_oracle(dup, vp, disj, cells, u, inst.preimage, recuts)
        check(set(order[dup.first : i + 1]), dup, cells)
    return table, order, dup, cells


def split_branch_oracle(asg, copies=None):
    """The full construction's choice: one copy per vertex, from the maxima
    down, the first by label under the successor's chosen copy whose cell
    holds no placed point.  Returns the chosen cells of the non-maximal
    vertices, in order."""
    inst, u = asg.instance, asg.u
    table, order, dup, cells = copies or split_copies_oracle(asg)
    chosen, zpt, placed, out = {}, {}, [], []
    for v in order:
        nxt = table.succ.get(v)
        if nxt is None:
            (c,) = dup.copies[v]
            z = _point_avoiding(cells[c], placed)
        else:
            cands = sorted(
                (p for p in dup.preds[chosen[nxt]] if dup.base[p] == v),
                key=dup.label.__getitem__,
            )
            c = next(w for w in cands if not any(cells[w].contains(q) for q in placed))
            z = inst.point_preimage(u[v], cells[c], zpt[nxt])
            out.append(cells[c])
        chosen[v] = c
        zpt[v] = z
        placed.append(z)
    return out


def chain_abc():
    G = FiniteOrientedGraph("abc", {("a", "b"), ("b", "c")})
    Va = domain_D(MapId(1, 1))
    Vb = INST.image(1, Va)
    V = {"a": Va, "b": Vb, "c": INST.image(0, Vb)}
    return MappingTupleAssignment(G, INST, {"a": 1, "b": 0, "c": 0}, V)


def test_shrink_47_builds_the_branch_of_the_full_split_construction(monkeypatch):
    """Over every copy of the full construction, after each vertex's splits,
    on the chain a -> b -> c and on random contained-image inputs: a copy
    not yet split, with successor copy s, has the cell seed(base) &
    f^-1(cells[s]); the copies of a split vertex v under s are the split
    cells of seed(v) & f^-1(cells[s]) in label order; every such cell has
    the image cells[s]; and the cells
    shrink_47 aims its points in are the ones the full construction
    chooses."""
    cases = [chain_abc()] + [random_in_u(random.Random(seed)) for seed in range(40)]
    for asg in cases:
        inst, u = asg.instance, asg.u
        table, _ = chain_table(asg.graph)
        seed = refine_45(asg).V
        L = len(seed)

        def check(split, dup, cells):
            for w, cell in cells.items():
                x, s = dup.base[w], dup.succ.get(w)
                if s is None:
                    assert cell == seed[x]
                elif x not in split:
                    assert cell == seed[x].intersect(inst.preimage(u[x], cells[s]))
                    assert inst.image(u[x], cell) == cells[s]
            for s in cells:
                for v in split.intersection(table.preds.get(dup.base[s], ())):
                    under = sorted(
                        (p for p in dup.preds[s] if dup.base[p] == v), key=dup.label.__getitem__
                    )
                    parent = seed[v].intersect(inst.preimage(u[v], cells[s]))
                    assert [cells[p] for p in under] == ref_split_cells(inst, u[v], parent, L)
                    assert all(inst.image(u[v], cells[p]) == cells[s] for p in under)

        want = split_branch_oracle(asg, split_copies_oracle(asg, check))
        aimed = []
        real = CantorInstance.point_preimage

        def point_preimage(self, n, C, target):
            aimed.append(C)
            return real(self, n, C, target)

        with monkeypatch.context() as m:
            m.setattr(CantorInstance, "point_preimage", point_preimage)
            shrink_47(asg, 3)
        assert aimed == want
    # on the chain, b's chosen cell really cuts a's seed, so a cut skipped
    # or made against b's seed splits a different cell
    seed = refine_45(cases[0]).V
    b_cell = split_branch_oracle(cases[0])[0]
    assert seed["a"].intersect(INST.preimage(1, b_cell)) != seed["a"]
