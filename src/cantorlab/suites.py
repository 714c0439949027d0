"""The named property suites behind `cantorlab check`, and their table.

Each suite checks one finitary lemma at desk scale and returns a
SuiteResult.  SUITES maps a suite's name to its function and to the `check`
options it takes, each with the parameter it sets; an option left out on
the command line leaves the parameter at its default, so every default
lives in the suite's signature.
"""

import functools
import itertools
import random
import time
from typing import Callable, NamedTuple

from .approximation import (
    _has,
    check_lemma_53_54,
    check_lemma_57,
    check_lemma_58,
    detect_L_n,
    is_maximal_antichain_codes,
    run,
)
from .embedding import CantorInstance, build_scheme, check_scheme_conditions
from .errors import CantorLabError, OutsideDomain
from .maps import MapId, check_condition_d, domain_point, g_compose_eval
from .orientedgraphs import (
    DUPLICATION_CAP,
    Duplication,
    FiniteOrientedGraph,
    SuccessorTable,
    chain_table,
    lemma42_suite,
    validate_uogas,
)
from .sequences import (
    SHIFT_BASE,
    Pow23,
    anchor_bit,
    in_stride_set,
    stride,
    stride_expand,
    tower_exp,
)

class SuiteResult:
    """Outcome of one named check suite: verdict, witnesses, timing, seed."""

    __slots__ = ("suite", "ok", "violations", "seconds", "params", "seed")

    def __init__(self, suite: str, ok: bool, violations: list, seconds: float, params: dict,
                 seed: int | None = None):
        self.suite, self.ok, self.violations = suite, ok, violations
        self.seconds, self.params, self.seed = seconds, params, seed

    def _fields(self):
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    __hash__ = None

    def __repr__(self):
        shown = ", ".join(f"{name}={value!r}" for name, value in zip(self.__slots__, self._fields()))
        return f"SuiteResult({shown})"

    def to_json(self) -> dict:
        out = {
            "suite": self.suite,
            "ok": self.ok,
            "violations": [str(v) for v in self.violations[:50]],
            "violation_count": len(self.violations),
            "seconds": round(self.seconds, 3),
            "params": self.params,
        }
        if self.seed is not None:
            out["seed"] = self.seed
        return out


def fmt_coord(c: int) -> str:
    if c.bit_length() <= 64:
        return str(c)
    return f"<{c.bit_length()}-bit integer>"


# ---------------------------------------------------------------------------
# finite oriented graph enumeration and sampling


def _table_graph(choice) -> FiniteOrientedGraph:
    return FiniteOrientedGraph(
        range(len(choice)), [(v, t) for v, t in enumerate(choice) if t is not None]
    )


def _random_uogas(rng: random.Random, nv: int) -> FiniteOrientedGraph:
    """A uniform successor-function sample, drawn again until acyclic.

    Each vertex draws one of nv+1 values: nv, or a draw of the vertex itself,
    means no successor.  A draw is decided on its successor list, and only
    the one accepted becomes a graph.
    """
    while True:
        edges = []
        for v in range(nv):
            t = rng.randrange(nv + 1)
            if t != nv and t != v:
                edges.append((v, t))
        if SuccessorTable(edges).uogas_depths(range(nv)) is not None:
            return FiniteOrientedGraph(range(nv), edges)


def _enumeration_of(g: FiniteOrientedGraph):
    """A valid duplication order (path length to the maximum, then vertex id),
    the number of duplication steps it supports, and each vertex's length."""
    _, lengths = chain_table(g)
    order = tuple(sorted(g.vertices, key=lambda v: (lengths[v], str(v))))
    steps = sum(1 for v in g.vertices if lengths[v] >= 2)
    return order, steps, lengths


def _all_enumerations_of(lengths):
    """Every order compatible with nondecreasing path length, given each
    vertex's length as `_enumeration_of` returns it (small graphs)."""
    groups = {}
    for v, n in lengths.items():
        groups.setdefault(n, []).append(v)
    pools = [groups[k] for k in sorted(groups)]
    for perm_blocks in itertools.product(*[itertools.permutations(p) for p in pools]):
        yield tuple(v for block in perm_blocks for v in block)


@functools.cache
def _forest_shapes(n: int) -> tuple:
    """Every rooted-forest shape on n vertices, once each.  A forest is the
    sorted tuple of its trees, and a k-vertex tree is the shape of the
    forest of its k - 1 descendants, so a successor table's shape is the
    forest read off its predecessors, rooted at the vertices with no
    successor.  A forest is built as a multiset of trees of each size,
    largest size first."""
    out = []

    def fill(k, left, trees):
        if not left:
            out.append(tuple(sorted(trees)))
        elif k:
            for count in range(left // k, -1, -1):
                for pick in itertools.combinations_with_replacement(_forest_shapes(k - 1), count):
                    fill(k - 1, left - count * k, trees + pick)

    fill(n, n, ())
    return tuple(out)


def _shape_table(shape) -> tuple:
    """A successor table of the given forest shape: each tree's root, then
    its subtrees in order, numbered depth first."""
    table = []

    def place(tree, parent):
        v = len(table)
        table.append(parent)
        for sub in tree:
            place(sub, v)

    for tree in shape:
        place(tree, None)
    return tuple(table)


def _labeled_tables(max_vertices: int) -> int:
    """The uogas tables on 1..max_vertices labeled vertices.  A table on nv
    vertices is a labeled rooted forest, which is a labeled tree on nv + 1
    vertices rooted at the extra one, so there are (nv+1)^(nv-1) of them
    (Cayley), and each has exactly one shape in `_shape_graphs`."""
    return sum((nv + 1) ** (nv - 1) for nv in range(1, max_vertices + 1))


def _shape_graphs(max_vertices: int):
    """One graph per rooted-forest shape on 1..max_vertices vertices, with
    its vertex count, smallest forests first."""
    for nv in range(1, max_vertices + 1):
        for shape in _forest_shapes(nv):
            yield nv, _table_graph(_shape_table(shape))


def _developed_violations(g: FiniteOrientedGraph, order, m: int) -> list:
    """validate_uogas's violations on stage m of g's duplication along order.
    The copy ids' successor table decides the stage, and only a stage it
    rejects is validated, on its labeled vertices, so violations name the
    vertices that `duplicate` returns; the two views are isomorphic, so the
    verdict is the same."""
    dup = Duplication(g, order)
    dup.develop(m)
    if SuccessorTable(dup.succ.items()).uogas_depths(dup.preds) is not None:
        return []
    return validate_uogas(dup.labeled()).violations


# ---------------------------------------------------------------------------
# suites over the index machinery


def suite_lemma51(L_max: int = 3, kmax: int = 10**6, shift_base: int = SHIFT_BASE) -> SuiteResult:
    """Exact checks of the six expansion-map properties on desk-scale ranges,
    under the shift multiplier shift_base."""
    t0 = time.perf_counter()
    viol = []
    lattice_points = 0
    for L in range(1, L_max + 1):
        for n in (0, 1, 2):
            st = stride(n)
            gap_bound = 6 * st
            jmax = max(kmax // st, 32)
            seen = set()
            prev = None
            for j in range(1, jmax + 1):
                k = st * j
                y = stride_expand(L, n, k, shift_base)
                if y == k:
                    viol.append(f"(3) fixed point on the stride lattice: L={L} n={n} k={k}")
                if in_stride_set(n, y) and (y & (y - 1)) == 0:
                    viol.append(f"(1) power of two in the image: L={L} n={n} k={k} -> {y}")
                if y in seen:
                    viol.append(f"(2) image collision: L={L} n={n} k={k}")
                seen.add(y)
                if prev is not None and y - prev > gap_bound:
                    viol.append(f"(6) gap {y - prev} exceeds {gap_bound}: L={L} n={n} j={j}")
                prev = y
            lattice_points += jmax
            del seen
            for k in range(1, min(kmax, 10_000) + 1):
                if k % st and stride_expand(L, n, k, shift_base) != k:
                    viol.append(f"(3) moved a point off the lattice: L={L} n={n} k={k}")

    # (4): the tail composition applied to stride-scale powers of two lands
    # back on the head's lattice with one tripling per applied stage.  The
    # small cases are cross-checked against the plain-integer route.
    witnesses = 0
    for L in range(2, L_max + 1):
        for size in range(2, L + 1):
            for combo in itertools.combinations(range(5), size):
                s = tuple(sorted(combo, reverse=True))
                for r in (0, 1, 2):
                    exp = tower_exp(s[0]) + r
                    x = Pow23(exp)
                    try:
                        for m in range(len(s) - 1, 0, -1):
                            x = x.stride_expand(L, s[m], shift_base)
                    except CantorLabError as err:
                        viol.append(f"(4) closed form lost: L={L} s={s} r={r}: {err}")
                        continue
                    if not (x.a == exp and x.b == len(s) - 1 and x.in_stride_set(s[0])):
                        viol.append(f"(4) wrong landing: L={L} s={s} r={r} -> 2^a*3^{x.b}")
                    if s[0] <= 2:
                        w = 1 << exp
                        for m in range(len(s) - 1, 0, -1):
                            w = stride_expand(L, s[m], w, shift_base)
                        if w != x.value():
                            viol.append(f"(4) route mismatch: L={L} s={s} r={r}")
                    witnesses += 1

    # (5): one stage more than the level permits never lands on the head's
    # lattice.  Stages whose stride dwarfs the argument act as the identity.
    # Besides the dense small range, probe arguments sitting on the two
    # materializable big lattices: pure tripling from those starting points
    # would land back on the head lattice, so they are where a wrongly chosen
    # shift multiplier shows up.
    kcap5 = min(kmax, 10**5)
    criticals = [stride(n) * j for n in (1, 2) for j in range(1, 65)]

    def theta_small(L, n, x):
        if tower_exp(n) > 64:
            return x
        return stride_expand(L, n, x, shift_base)

    for L in range(1, L_max + 1):
        for combo in itertools.combinations(range(5), L + 1):
            s = tuple(sorted(combo, reverse=True))
            head_big = tower_exp(s[0]) > 64
            for k in itertools.chain(range(1, kcap5 + 1), criticals):
                x = k
                for m in range(len(s) - 1, 0, -1):
                    x = theta_small(L, s[m], x)
                if not head_big and in_stride_set(s[0], x):
                    viol.append(f"(5) landed on the head lattice: L={L} s={s} k={k} -> {x}")
    return SuiteResult(
        "lemma5.1",
        not viol,
        viol,
        time.perf_counter() - t0,
        {
            "L_max": L_max,
            "kmax": kmax,
            "lattice_points": lattice_points,
            "(4)_witnesses": witnesses,
            "(5)_critical_probes": len(criticals),
        },
    )


def _seed_nested(outer: int, inner: int, inner_stride_bit: int) -> bool:
    """Does the inner seed word followed by `inner_stride_bit` give a cylinder
    inside the outer seed-then-0 cylinder?

    With bit 1 the inner cylinder is the inner map's image, with bit 0 its
    domain.  Both words are a short lenlex prefix padded with zeros, so
    comparing the first few positions and the appended-bit position decides it.
    """
    st_out = stride(outer)
    positions = list(range(min(st_out, 8)))
    positions.append(st_out)
    st_in = stride(inner)
    for i in positions:
        inner_bit = inner_stride_bit if i == st_in else anchor_bit(inner, i)
        want = anchor_bit(outer, i) if i < st_out else 0
        if inner_bit != want:
            return False
    return True


def _chain_defined(s) -> bool:
    """Whether the composition along s is anywhere defined: every stage's
    image must extend the next stage's seed, and the starting seed must
    extend every outer seed for the dropped-stage composition too."""
    for i in range(len(s) - 1):
        if not _seed_nested(s[i], s[i + 1], 1):
            return False
    return all(_seed_nested(s[i], s[-1], 0) for i in range(len(s) - 1))


def _sample_domain_point(L, n, rng):
    """A point of the map's domain with seeded free bits past the seed word
    (only where the free zone is materializable)."""
    extra = {}
    st = stride(n)
    if st <= 1 << 24 and rng is not None:
        ladder = {st * 3**m for m in range(n + 2)}
        lo, hi = st + 1, st * 3 ** (n + 2)
        while len(extra) < 8:
            c = rng.randrange(lo, hi)
            if c not in ladder:
                extra[c] = rng.randrange(2)
    return domain_point(MapId(L, n), extra)


def suite_lemma52(
    L_max: int = 2,
    grid: int = 10**4,
    seed: int = 0,
) -> SuiteResult:
    """The composition inequality at the witness coordinate and the dropped-
    stage equality over a coordinate window, per tuple that is defined at all."""
    t0 = time.perf_counter()
    rng = random.Random(seed)
    viol = []
    tested_b = tested_c = vacuous = 0

    for L in range(2, L_max + 1):
        for size in range(2, min(L, 3) + 1):
            for s in itertools.combinations(range(4), size):
                if not _chain_defined(s):
                    vacuous += 1
                    continue
                p = _sample_domain_point(L, s[-1], rng)
                k = stride(s[-1])
                try:
                    va = g_compose_eval(L, s, p, k)
                    vb = g_compose_eval(L, s[:-1], p, k)
                except OutsideDomain as err:
                    viol.append(f"(b) composition undefined on a domain point: L={L} s={s}: {err}")
                    continue
                if va == vb:
                    viol.append(f"(b) compositions agree at the witness coordinate: L={L} s={s}")
                tested_b += 1

    window = stride(2) * 9
    criticals = []
    for i in (0, 1, 2):
        c = stride(i)
        while c <= window:
            criticals.append(c)
            c *= 3
    for L in range(1, L_max + 1):
        for s in itertools.combinations(range(4), L + 1):
            if not _chain_defined(s):
                vacuous += 1
                continue
            p = _sample_domain_point(L, s[-1], rng)
            # threading a stage whose stride is huge costs a big-integer seed
            # check per call, so those tuples get a thinned grid
            points = grid if all(stride(n) <= 1 << 24 for n in s) else min(grid, 100)
            step = max(1, window // points)
            for k in itertools.chain(range(0, window + 1, step), criticals):
                try:
                    va = g_compose_eval(L, s, p, k)
                    vb = g_compose_eval(L, s[:-1], p, k)
                except OutsideDomain as err:
                    viol.append(f"(c) composition undefined on a domain point: L={L} s={s}: {err}")
                    break
                if va != vb:
                    viol.append(f"(c) dropped-stage mismatch: L={L} s={s} k={fmt_coord(k)}: {va} vs {vb}")
            tested_c += 1

    return SuiteResult(
        "lemma5.2",
        not viol,
        viol,
        time.perf_counter() - t0,
        {
            "L_max": L_max,
            "grid": grid,
            "window": window,
            "tested_b": tested_b,
            "tested_c": tested_c,
            "vacuous_tuples": vacuous,
        },
        seed=seed,
    )


def suite_condition_d(
    L: int = 1,
    samples: int = 100,
    seed: int = 0,
) -> SuiteResult:
    """Two-step-equals-one-step agreement for the first two maps: an identity
    at level 1, and the expected failure at the forced coordinate above."""
    t0 = time.perf_counter()
    rng = random.Random(seed)
    viol = []
    coords = list(range(513)) + [rng.randrange(513, 10**9) for _ in range(1000)]
    ladder = {8 * 3**m for m in range(4)}
    for i in range(samples):
        extra = {}
        while len(extra) < 10:
            c = rng.randrange(9, 2000)
            if c not in ladder:
                extra[c] = rng.randrange(2)
        p = domain_point(MapId(L, 1), extra)
        if L == 1:
            if not check_condition_d(1, 0, 1, p, coords):
                viol.append(f"two-step identity failed at level 1: sample {i}")
        else:
            if check_condition_d(L, 0, 1, p, [stride(1)]):
                viol.append(
                    f"two-step identity unexpectedly held at the forced coordinate: "
                    f"L={L} sample {i}"
                )
    return SuiteResult(
        "condition-d",
        not viol,
        viol,
        time.perf_counter() - t0,
        {"L": L, "samples": samples, "expected": "identity" if L == 1 else "failure at the witness"},
        seed=seed,
    )


# ---------------------------------------------------------------------------
# suites over finite oriented graphs


def suite_lemma42(max_vertices: int = 6) -> SuiteResult:
    """Validator and structure-lemma clauses over every uogas on up to
    max_vertices vertices, checked on one table per forest shape.

    A relabeling of a table is a graph isomorphism f, and each clause of
    `lemma42_suite` is defined from the edge set alone:
    (a) y's chain follows out-edges from y until a vertex has none, and it
        must be injective and be the path from y to its end in the
        symmetrization;
    (b) every path to the component's maximum steps forward along edges;
    (c) each component of the symmetrization has one vertex without an
        out-edge;
    (d) each edge (a, b) is the first step of a's chain.
    f maps edges to edges, so it carries y's chain to f(y)'s, a component
    to a component and its maxima to the image's maxima, and each first
    step to the image's first step.  A table's symmetrization is a forest,
    so a path between two vertices is unique, whatever order the
    breadth-first search scans them in, and f carries it to the path
    between their images.  So each clause holds at y exactly when it holds
    at f(y), and the verdict on any labeled table is the verdict on its
    shape's table; `graphs` counts the labeled tables those verdicts cover.
    """
    t0 = time.perf_counter()
    viol = []
    for nv, g in _shape_graphs(max_vertices):
        rep = lemma42_suite(g)
        if not rep.ok:
            viol.append(f"{nv}-vertex graph {sorted(g.edges)}: {rep.violations[:2]}")
    params = {"max_vertices": max_vertices, "graphs": _labeled_tables(max_vertices)}
    return SuiteResult("lemma4.2", not viol, viol, time.perf_counter() - t0, params)


def suite_lemma43(
    max_vertices: int = 6,
    random_vertices: int = 12,
    samples: int = 1000,
    seed: int = 0,
) -> SuiteResult:
    """Full duplication stays a uogas: exhaustive on small graphs (all valid
    orders up to 3 vertices, one canonical order above), sampled on larger ones.

    The exhaustive part develops one table per forest shape: duplication
    along a canonical order commutes with vertex relabeling, so one
    development per shape covers every labeled table, and `graphs_covered`
    counts those.
    """
    t0 = time.perf_counter()
    viol = []
    developed = shapes = 0
    for nv, g in _shape_graphs(max_vertices):
        shapes += 1
        canonical, steps, lengths = _enumeration_of(g)
        orders = list(_all_enumerations_of(lengths)) if nv <= 3 else [canonical]
        for order in orders:
            developed += 1
            bad = _developed_violations(g, order, steps)
            if bad:
                viol.append(f"{nv}-vertex {sorted(g.edges)} order {order}: {bad[:2]}")

    rng = random.Random(seed)
    sampled = skipped = 0
    attempts = 0
    copy_count = random_vertices
    while sampled < samples and attempts < samples * 20:
        attempts += 1
        g = _random_uogas(rng, random_vertices)
        order, steps, lengths = _enumeration_of(g)
        # two duplication steps keep randomized runs at desk scale; the full
        # development is exercised by the exhaustive small graphs above
        m = min(steps, 2)
        projected = sum(copy_count ** (min(lengths[v], m + 1) - 1) for v in g.vertices)
        if projected > DUPLICATION_CAP:
            skipped += 1
            continue
        sampled += 1
        bad = _developed_violations(g, order, m)
        if bad:
            viol.append(f"random {random_vertices}-vertex {sorted(g.edges)}: {bad[:2]}")
    return SuiteResult(
        "lemma4.3",
        not viol,
        viol,
        time.perf_counter() - t0,
        {
            "max_vertices": max_vertices,
            "graphs_covered": _labeled_tables(max_vertices),
            "shapes_developed": shapes,
            "developments": developed,
            "random_vertices": random_vertices,
            "random_steps": 2,
            "sampled": sampled,
            "skipped_over_cap": skipped,
        },
        seed=seed,
    )


# ---------------------------------------------------------------------------
# suites over the approximation stages


# The stage suites' word cap, raised for their depth-20 runs.
STAGE_MAX_WORDS = 2_000_000


def suite_lemma53_54(L: int = 1, depth: int = 20) -> SuiteResult:
    """Stage-structure checks: edge/antichain lemmas, the partition invariant,
    the stage-size recurrence, bounded word coverage, and event detection."""
    t0 = time.perf_counter()
    states = run(L, depth, STAGE_MAX_WORDS)
    viol = [f"{clause}: {witness}" for clause, witness in check_lemma_53_54(states).violations]
    for st in states:
        if not is_maximal_antichain_codes(st.X_sorted):
            viol.append(f"level {st.level}: X is not a maximal antichain")
    for before, after in zip(states, states[1:]):
        if len(after.X_sorted) != len(before.X_sorted) + len(before.E_sorted):
            viol.append(f"level {after.level}: |X| != |X_prev| + |E_prev|")
    for ln in range(depth // 3 + 1):
        for code in range(1 << ln, 2 << ln):
            if not any(_has(st.X_sorted, code) for st in states):
                viol.append(f"bounded coverage: word of length {ln} (code {code}) never appears")
    detected = detect_L_n(states)
    if depth >= 1 and detected.get(0) != 1:
        viol.append(f"detected first-map level {detected.get(0)}, expected 1")
    if depth >= 8 and detected.get(1) != 8:
        viol.append(f"detected second-map level {detected.get(1)}, expected 8")
    return SuiteResult(
        "lemma5.3-4",
        not viol,
        viol,
        time.perf_counter() - t0,
        {"L": L, "depth": depth, "stage_sizes": [len(st.X_sorted) for st in states[-3:]], "detected": detected},
    )


def suite_lemma57(L: int = 1, depth: int = 20) -> SuiteResult:
    """Chain-position bookkeeping for the first family over all stage edges."""
    t0 = time.perf_counter()
    states = run(L, depth, STAGE_MAX_WORDS)
    rep = check_lemma_57(states)
    viol = [f"{clause}: {witness}" for clause, witness in rep.violations]
    return SuiteResult(
        "lemma5.7", not viol, viol, time.perf_counter() - t0, {"L": L, "depth": depth}
    )


def suite_lemma58(
    L: int = 1,
    depth: int = 20,
    samples: int = 20,
    seed: int = 0,
) -> SuiteResult:
    """Follow random input prefixes through the stages and check the paired
    image prefixes, their witnesses, and their nesting."""
    t0 = time.perf_counter()
    states = run(L, depth, STAGE_MAX_WORDS)
    rng = random.Random(seed)
    viol = []
    probes = 0
    for n in (0, 1):
        st = stride(n)
        if st + 2 > depth:
            continue
        for _ in range(samples):
            length = rng.randint(st + 2, depth)
            prefix = "0" * (st + 1) + "".join(str(rng.randrange(2)) for _ in range(length - st - 1))
            rep = check_lemma_58(states, n, prefix)
            probes += 1
            for clause, witness in rep.violations:
                viol.append(f"n={n} prefix={prefix}: {clause}: {witness}")
    return SuiteResult(
        "lemma5.8",
        not viol,
        viol,
        time.perf_counter() - t0,
        {"L": L, "depth": depth, "probes": probes},
        seed=seed,
    )


# ---------------------------------------------------------------------------
# the cell scheme


def checked_scheme(depth: int):
    """Build the first family's nested cell scheme down to `depth` and check
    its six conditions; returns the level states and the condition report."""
    inst = CantorInstance(1)
    states = build_scheme(inst, depth)
    return states, check_scheme_conditions(states, inst)


def suite_scheme_conditions(depth: int = 8) -> SuiteResult:
    """Build the nested cell scheme and verify its six conditions."""
    t0 = time.perf_counter()
    states, rep = checked_scheme(depth)
    viol = [f"{clause}: {witness}" for clause, witness in rep.violations]
    return SuiteResult(
        "scheme-conditions",
        not viol,
        viol,
        time.perf_counter() - t0,
        {
            "depth": depth,
            "cells": len(states[-1].cells),
            "strengths": dict(sorted(states[-1].phi.items())),
        },
    )


# ---------------------------------------------------------------------------
# the table


class Suite(NamedTuple):
    """A suite's function, and each `check` option it takes mapped to the
    parameter that option sets."""

    fn: Callable[..., SuiteResult]
    options: dict


SUITES = {
    "lemma4.2": Suite(suite_lemma42, {"--max-vertices": "max_vertices"}),
    "lemma4.3": Suite(
        suite_lemma43, {"--max-vertices": "max_vertices", "--samples": "samples", "--seed": "seed"}
    ),
    "lemma5.1": Suite(suite_lemma51, {"--L": "L_max", "--kmax": "kmax"}),
    "lemma5.2": Suite(suite_lemma52, {"--L": "L_max", "--kmax": "grid", "--seed": "seed"}),
    "lemma5.3-4": Suite(suite_lemma53_54, {"--L": "L", "--depth": "depth"}),
    "lemma5.7": Suite(suite_lemma57, {"--L": "L", "--depth": "depth"}),
    "lemma5.8": Suite(
        suite_lemma58, {"--L": "L", "--depth": "depth", "--samples": "samples", "--seed": "seed"}
    ),
    "condition-d": Suite(suite_condition_d, {"--L": "L", "--samples": "samples", "--seed": "seed"}),
    "scheme-conditions": Suite(suite_scheme_conditions, {"--depth": "depth"}),
}
