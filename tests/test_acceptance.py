"""Acceptance battery: one test per criterion, each asserting zero violations
at the stated scale and finishing inside the stated time budget, then printing
a single pass line with the runtime and the checked counts."""

import random
import time

from test_cylinders import mentioned_coords, oracle_member
from test_cylinders import all_assignments as coord_assignments
from test_embedding import check_shrink_postconditions, random_in_u
from test_maps import (
    QS,
    all_assignments,
    brute_theta_n,
    oracle_compose,
    oracle_g,
    oracle_in_domain,
)
from test_orientedgraphs import brute_simple_paths

import pytest

from cantorlab.approximation import run
from cantorlab.suites import (
    suite_condition_d,
    suite_lemma42,
    suite_lemma43,
    suite_lemma51,
    suite_lemma52,
    suite_lemma53_54,
    suite_lemma57,
)
from cantorlab.cylinders import ClopenUnion, LazyPoint, SymbolicClopen
from cantorlab.embedding import CantorInstance, build_scheme, check_scheme_conditions
from cantorlab.errors import NotConnected
from cantorlab.maps import MapId, g_compose_eval, graph_meets
from cantorlab.orientedgraphs import (
    FiniteOrientedGraph,
    components,
    unique_path,
    validate_uogas,
)


def _pass_line(num, elapsed, budget, detail):
    assert elapsed < budget, f"criterion {num} took {elapsed:.1f}s, budget {budget}s"
    print(f"criterion {num}: PASS in {elapsed:.1f}s ({detail})")


def test_criterion_1_expansion_map_properties():
    t0 = time.perf_counter()
    res = suite_lemma51(3, 10**6)
    assert res.violations == []
    _pass_line(
        1,
        time.perf_counter() - t0,
        60,
        f"{res.params['lattice_points']} lattice points, "
        f"{res.params['(4)_witnesses']} landing witnesses, "
        f"{res.params['(5)_critical_probes']} critical probes",
    )


def test_criterion_2_composition_identities():
    t0 = time.perf_counter()
    res = suite_lemma52(2, 10**4, seed=0)
    assert res.violations == []
    _pass_line(
        2,
        time.perf_counter() - t0,
        60,
        f"{res.params['tested_b']} witness tuples, {res.params['tested_c']} "
        f"window tuples up to coordinate {res.params['window']}",
    )


def test_criterion_3_two_step_agreement():
    t0 = time.perf_counter()
    res = suite_condition_d(1, samples=100, seed=0)
    assert res.violations == []
    _pass_line(3, time.perf_counter() - t0, 10, "100 random admissible points")


def test_criterion_4_oriented_graph_suites():
    t0 = time.perf_counter()
    res_a = suite_lemma42(6)
    res_b = suite_lemma43(6, 12, 1000, seed=0)
    assert res_a.violations == []
    assert res_b.violations == []
    assert res_a.params["graphs"] == 18248
    assert res_b.params["graphs_covered"] == 18248
    assert res_b.params["shapes_developed"] == 84
    assert res_b.params["developments"] == 92
    assert res_b.params["sampled"] == 1000
    _pass_line(
        4,
        time.perf_counter() - t0,
        300,
        f"{res_a.params['graphs']} graphs exhaustively, "
        f"{res_b.params['sampled']} random 12-vertex graphs",
    )


def test_criterion_5_approximation_system():
    t0 = time.perf_counter()
    res_a = suite_lemma53_54(1, depth=20)
    res_b = suite_lemma57(1, depth=20)
    assert res_a.violations == []
    assert res_b.violations == []
    assert res_a.params["detected"][0] == 1
    _pass_line(
        5,
        time.perf_counter() - t0,
        300,
        f"depth 20, final |X| {res_a.params['stage_sizes'][-1]}, "
        f"detected levels {res_a.params['detected']}",
    )


def test_criterion_6_scheme_build():
    t0 = time.perf_counter()
    inst = CantorInstance(1)
    states = build_scheme(inst, 8)
    rep = check_scheme_conditions(states, inst)
    assert rep.violations == []

    top = states[-1]
    words = sorted(top.cells, key=lambda t: t.code)
    for i, x in enumerate(words):
        for y in words[i + 1 :]:
            assert top.cells[x].intersect(top.cells[y]).is_empty()

    approx = run(1, 8)
    containments = 0
    for st in states:
        ax = approx[st.level]
        for (y, x), idx in ax.phi.items():
            n = st.phi[idx]
            assert st.cells[x].subset(inst.image(n, st.cells[y]))
            containments += 1
    assert containments >= 10
    _pass_line(
        6,
        time.perf_counter() - t0,
        300,
        f"depth 8, {len(words)} pairwise disjoint cells, "
        f"{containments} exact edge containments",
    )


def test_criterion_7_splitting_postconditions():
    t0 = time.perf_counter()
    rng = random.Random(0)
    for i in range(200):
        check_shrink_postconditions(random_in_u(rng), (3, 5)[i % 2])
    _pass_line(7, time.perf_counter() - t0, 120, "200 random assignments, d in {3, 5}")


def _random_clopen_raw(rng):
    base = "".join(rng.choice("01") for _ in range(rng.randint(0, 3)))
    atoms = []
    for _ in range(rng.randint(0, 3)):
        if rng.random() < 0.5:
            atoms.append(("const", rng.randrange(8), rng.randint(0, 1)))
        else:
            atoms.append(("rel", rng.randrange(8), rng.randrange(8), rng.randint(0, 1)))
    return base, atoms


def _random_small_uogas(rng, nv):
    verts = [f"v{i}" for i in range(nv)]
    while True:
        edges = set()
        for v in verts:
            t = rng.choice([None] + verts)
            if t is not None and t != v:
                edges.add((v, t))
        g = FiniteOrientedGraph(verts, edges)
        if validate_uogas(g).ok:
            return g


def test_criterion_8_oracle_agreements():
    t0 = time.perf_counter()
    rng = random.Random(0)
    agreements = 0

    # set operations against pointwise enumeration
    for _ in range(1000):
        raw_c, raw_d = _random_clopen_raw(rng), _random_clopen_raw(rng)
        C, D = SymbolicClopen(*raw_c), SymbolicClopen(*raw_d)
        coords = mentioned_coords(*raw_c) | mentioned_coords(*raw_d)
        inter, uni = C.intersect(D), ClopenUnion((C, D))
        got_sub = C.subset(D)
        want_sub = True
        for bits in coord_assignments(coords):
            p = LazyPoint(bits)
            in_c = oracle_member(*raw_c, bits)
            in_d = oracle_member(*raw_d, bits)
            assert inter.contains(p) == (in_c and in_d)
            assert uni.contains(p) == (in_c or in_d)
            if in_c and not in_d:
                want_sub = False
        assert got_sub == want_sub
        agreements += 1

    # graph_meets against exhaustive search over the relevant coordinates
    for _ in range(1000):
        L, n = rng.randint(1, 2), rng.randint(0, 1)
        y = "".join(rng.choice("01") for _ in range(rng.randint(0, 6)))
        x = "".join(rng.choice("01") for _ in range(rng.randint(0, 6)))
        got = graph_meets(MapId(L, n), y, x)
        s = 2 ** QS[n]
        fixed = {i: 0 for i in range(s + 1)}
        ok = all(int(ch) == fixed.get(i, 0) for i, ch in enumerate(y) if i in fixed)
        want = False
        if ok:
            fixed.update({i: int(ch) for i, ch in enumerate(y)})
            free = {brute_theta_n(L, n, k) for k in range(len(x)) if k != s}
            free |= {s * 3**m for m in range(n + 2)} if L >= 2 else set()
            free -= set(fixed)
            for asg in all_assignments(free):
                bits = {**fixed, **asg}
                fn = lambda i: bits.get(i, 0)
                if not oracle_in_domain(L, n, bits):
                    continue
                if all(oracle_g(L, n, fn, k) == int(ch) for k, ch in enumerate(x)):
                    want = True
                    break
        assert got == want
        agreements += 1

    # composed evaluation against nested raw applications
    for _ in range(1000):
        L = rng.randint(1, 3)
        extra = {rng.randrange(9, 500): rng.randint(0, 1) for _ in range(rng.randint(0, 6))}
        k = rng.randrange(500)
        p = LazyPoint(extra)
        assert g_compose_eval(L, (0, 1), p, k) == oracle_compose(L, (0, 1), p.eval, k)
        agreements += 1

    # unique_path against exhaustive simple-path search
    for _ in range(1000):
        g = _random_small_uogas(rng, rng.randint(2, 6))
        comps = {v: c for c in components(g) for v in c}
        vs = sorted(g.vertices)
        x, y = rng.choice(vs), rng.choice(vs)
        if comps[x] is not comps[y]:
            with pytest.raises(NotConnected):
                unique_path(g, x, y)
        else:
            paths = brute_simple_paths(g, x, y)
            assert len(paths) == 1
            assert unique_path(g, x, y) == paths[0]
        agreements += 1

    _pass_line(8, time.perf_counter() - t0, 120, f"{agreements} agreements in 4 batteries")
