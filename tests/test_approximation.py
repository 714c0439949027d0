"""Stage-system tests: a brute-force edge oracle, frozen small stages worked
out by hand, structural invariants at depth, and the check suites."""

import functools
import hashlib
import json
import random
import re
import tracemalloc
from array import array
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cantorlab import approximation, cli
from cantorlab.approximation import (
    CHUNK_ITEMS,
    MAX_WORDS,
    ApproxState,
    _split_flags,
    _stage_edges,
    anchor_index,
    check_lemma_53_54,
    check_lemma_57,
    check_lemma_58,
    detect_L_n,
    init,
    is_maximal_antichain,
    is_maximal_antichain_codes,
    run,
    state_chunks,
    state_dot,
    state_json,
    step,
)
from cantorlab.errors import (
    CapExceeded,
    DecisionOverflow,
    InvalidArgument,
    InvalidLevel,
    InvariantBroken,
    PrefixTooShort,
    StageRelationCycle,
)
from cantorlab.maps import MapId, graph_meets
from cantorlab.orientedgraphs import CheckReport, FiniteOrientedGraph, validate_uogas
from cantorlab.sequences import (
    BinWord,
    anchor_word,
    code_bit,
    code_len,
    code_str,
    stride,
    stride_expand,
)
from cantorlab.suites import STAGE_MAX_WORDS

W = BinWord.from_str


def oracle_edges(family, words):
    """Edge set straight from the definition: for every ordered word pair,
    scan all feasible map indices for a joint-satisfiability witness, and
    require a differing coordinate inside both words.  Also asserts the
    witness is unique whenever one exists."""
    out = {}
    words = list(words)
    if not words:
        return out
    top = max(len(w) for w in words)
    for y in words:
        for x in words:
            lo = min(len(y), len(x))
            if all(y.bit(i) == x.bit(i) for i in range(lo)):
                continue
            hits = []
            n = 0
            while stride(n) <= top:
                if graph_meets(MapId(family, n), y, x):
                    hits.append(n)
                n += 1
            assert len(hits) <= 1, f"witness not unique for {y}, {x}: {hits}"
            if hits:
                out[(y, x)] = hits[0]
    return out


def words(*texts):
    return frozenset(W(t) for t in texts)


# ---------------------------------------------------------------------------
# the BinWord stepper the code stepper replaced, kept as a reference


def _ref_anchor_lengths(max_len):
    out = {}
    n = 0
    while True:
        st = stride(n)
        if st > max_len:
            return out
        out[st] = n
        n += 1


def _ref_stage_edges(family, words, level):
    phi = {}
    if not words:
        return phi
    member_codes = {w.code for w in words}
    max_len = max(code_len(c) for c in member_codes)
    n = 0
    while stride(n) < level:
        st = stride(n)
        seed0 = anchor_word(n).append(0)
        reads = [stride_expand(family, n, k) for k in range(max_len + 1)]
        need_filter = family != 1
        ident = MapId(family, n)
        for y in words:
            ylen = len(y)
            if ylen <= st or not seed0.is_prefix_of(y):
                continue
            ycode = y.code
            stack = [1]
            while stack:
                c = stack.pop()
                if c in member_codes:
                    if code_len(c) > st:
                        x = BinWord(c)
                        if not need_filter or graph_meets(ident, y, x):
                            phi[(y, x)] = n
                    continue
                k = code_len(c)
                if k >= max_len:
                    continue
                if k == st:
                    stack.append((c << 1) | 1)
                    continue
                r = reads[k]
                if r < ylen:
                    stack.append((c << 1) | code_bit(ycode, r))
                else:
                    c2 = c << 1
                    stack.append(c2)
                    stack.append(c2 | 1)
        n += 1
    return phi


def _ref_advanced_chain(state):
    family = state.family
    lengths = _ref_anchor_lengths(max((len(w) for w in state.X), default=0))
    anchors = set()
    for w in state.X:
        q = lengths.get(len(w))
        if q is not None and w == anchor_word(q):
            anchors.add(w)
    sources = {y for y, _ in state.A}
    out = set()
    for w in anchors:
        if w in state.E and w not in sources:
            out.add((w.append(0), w.append(1)))
    theta = {}
    for y, x in state.A:
        if x not in state.E:
            if y not in state.E:
                out.add((y, x))
            elif y not in anchors:
                out.add((y.append(0), x))
                out.add((y.append(1), x))
            else:
                y1 = y.append(1)
                out.add((y1, x))
                out.add((y.append(0), y1))
        else:
            n = state.phi.get((y, x))
            if n is None:
                raise InvalidArgument("a successor pair with a splitting target has no edge witness")
            key = (n, len(x))
            t = theta.get(key)
            if t is None:
                t = theta[key] = stride_expand(family, n, len(x))
            if y in state.E:
                for eta in (0, 1):
                    yy = y.append(eta)
                    out.add((yy, x.append(yy.bit(t))))
            else:
                out.add((y, x.append(y.bit(t))))
    return frozenset(out)


def _ref_splitting_set(family, words, chain_pairs, phi):
    succ = {}
    preds = {}
    for y, x in chain_pairs:
        succ[y] = x
        preds.setdefault(x, []).append(y)

    position = {}
    budget = 4 * (len(words) + len(chain_pairs)) + 8
    for w in words:
        stack = [w]
        spent = 0
        while stack:
            spent += 1
            if spent > budget:
                raise InvalidArgument("stage relation cycles; split order undefined")
            v = stack[-1]
            if v in position:
                stack.pop()
                continue
            ps = preds.get(v)
            if not ps:
                position[v] = 1
                stack.pop()
                continue
            todo = [p for p in ps if p not in position]
            if todo:
                stack.extend(todo)
                continue
            position[v] = 1 + max(position[p] for p in ps)
            stack.pop()

    lengths = _ref_anchor_lengths(max((len(w) for w in words), default=0))
    theta = {}
    chosen = set()
    blocked = set()
    for x in sorted(words, key=lambda w: (position[w], str(w))):
        ps = preds.get(x)
        if ps:
            if x in blocked:
                continue
            ok = True
            for y in ps:
                n = phi.get((y, x))
                if n is None:
                    ok = False
                    break
                key = (n, len(x))
                t = theta.get(key)
                if t is None:
                    t = theta[key] = stride_expand(family, n, len(x))
                if t >= len(y) + (1 if y in chosen else 0):
                    ok = False
                    break
            if not ok:
                continue
        chosen.add(x)
        q = lengths.get(len(x))
        if q is not None and x == anchor_word(q):
            v = x
            while v in succ:
                v = succ[v]
                blocked.add(v)
    return frozenset(chosen)


def binword_step(state):
    """One stage step on BinWord objects throughout, as the stepper did
    before stages were stored as word codes."""
    next_words = set()
    for w in state.X:
        if w in state.E:
            next_words.add(w.append(0))
            next_words.add(w.append(1))
        else:
            next_words.add(w)
    if len(next_words) > MAX_WORDS:
        raise CapExceeded(f"stage {state.level + 1} needs {len(next_words)} words")
    level = state.level + 1
    phi = _ref_stage_edges(state.family, next_words, level)
    chain = _ref_advanced_chain(state)
    splitting = _ref_splitting_set(state.family, next_words, chain, phi)
    return ApproxState(state.family, level, next_words, chain, splitting, phi)


def string_maximal_antichain(words):
    """Prefix-freeness plus measure one, decided on sorted word strings."""
    ws = sorted(str(w) for w in words)
    if not ws:
        return False
    for a, b in zip(ws, ws[1:]):
        if b.startswith(a):
            return False
    top = max(len(s) for s in ws)
    return sum(1 << (top - len(s)) for s in ws) == 1 << top


# ---------------------------------------------------------------------------
# frozen small stages (worked out by hand from the stepping rules)


def test_init_is_the_singleton_stage():
    """Stage zero holds just the empty word, marked as splitting."""
    state = init()
    assert state.family == 1
    assert state.level == 0
    assert state.X == words("")
    assert state.A == frozenset()
    assert state.B == frozenset()
    assert state.E == words("")


def test_init_rejects_family_zero():
    with pytest.raises(InvalidLevel):
        init(0)


def test_stage_one_has_no_edges():
    """Splitting the root gives two cells, both splitting, still no edges."""
    state = step(init())
    assert state.level == 1
    assert state.X == words("0", "1")
    assert state.A == frozenset()
    assert state.B == frozenset()
    assert state.E == words("0", "1")


def test_stage_two_first_edge():
    """The length-1 seed word is maximal and splitting, so its two children
    get wired up, and the witness is map index 0."""
    state = step(step(init()))
    assert state.X == words("00", "01", "10", "11")
    assert state.A == {(W("00"), W("01"))}
    assert state.B == {(W("00"), W("01"))}
    assert state.phi[(W("00"), W("01"))] == 0
    assert state.E == words("00", "10", "11")


def test_stage_three_source_split():
    """The source 00 split while its non-splitting target 01 stayed put."""
    state = run(1, 3)[3]
    assert state.X == words("000", "001", "01", "100", "101", "110", "111")
    assert state.A == {(W("000"), W("01")), (W("001"), W("01"))}
    assert state.B == state.A
    assert state.E == state.X - words("01")


def test_frozen_stage_sizes_to_depth_twelve():
    """|X_l| for l = 0..12, from the size recurrence |X_{l+1}| = |X_l| + |E_l|.

    The image-side cells stall on alternate levels (the read coordinate grows
    twice as fast as the cell depth), so the doubling is not exact: level 10
    splits all but the eight image cells of length five."""
    sizes = [len(state.X) for state in run(1, 12)]
    assert sizes == [1, 2, 4, 7, 13, 25, 50, 98, 196, 388, 776, 1544, 3088]


def test_frozen_edge_and_chain_counts():
    counts = [(len(state.A), len(state.B)) for state in run(1, 9)]
    assert counts == [
        (0, 0),
        (0, 0),
        (1, 1),
        (2, 2),
        (4, 4),
        (8, 8),
        (16, 16),
        (32, 32),
        (64, 64),
        (128, 129),
    ]


def test_frozen_splitting_delays():
    """01 waits until the read coordinate falls inside the source, so it
    enters E at level 5; its children wait until 7; 01's grandchildren
    (length 4) wait until 9."""
    states = run(1, 9)
    first_in = {}
    for state in states:
        for w in state.E:
            first_in.setdefault(str(w), state.level)
    assert first_in["01"] == 5
    assert first_in["010"] == 7
    assert first_in["011"] == 7
    assert first_in["0100"] == 9
    assert first_in["00000000"] == 8


def test_stage_nine_seed_chain():
    """At level 9 the length-8 seed word splits into a three-word chain and
    the long branch's pair is witnessed by map index 1."""
    state = run(1, 9)[9]
    y9 = W("0" * 9)
    y81 = W("0" * 8 + "1")
    assert (y9, y81) in state.A
    assert (y81, W("0100")) in state.A
    assert state.phi[(y9, y81)] == 1
    assert state.phi[(y9, W("0100"))] == 0
    assert (y9, W("0100")) in state.B and (y9, W("0100")) not in state.A
    assert state.E == state.X


def test_detect_first_split_levels():
    assert detect_L_n(run(1, 2)) == {0: 1}
    assert detect_L_n(run(1, 9)) == {0: 1, 1: 8}


def test_run_depth_zero_is_init():
    assert run(1, 0) == [init()]


def test_run_is_memoized_per_family():
    assert run(1, 5)[3] is run(1, 3)[3]


def test_run_depth_cap():
    with pytest.raises(DecisionOverflow):
        run(1, 100)


def test_run_word_cap_reports_the_stage():
    with pytest.raises(CapExceeded) as err:
        run(1, 12, max_words=100)
    assert "stage" in str(err.value)


def test_run_word_cap_names_the_first_stage_over_it(monkeypatch):
    """Stage zero's one word is already over a cap of 0, and stage 3's seven
    words over a cap of 4, whether the stages are stepped or memoized."""
    monkeypatch.setattr(approximation, "_stage_cache", {})
    with pytest.raises(CapExceeded, match=r"^stage 0: 1 words, cap is 0$"):
        run(1, 2, max_words=0)
    for _ in range(2):
        with pytest.raises(CapExceeded, match=r"^stage 3: 7 words, cap is 4$"):
            run(1, 5, max_words=4)
        run(1, 5)


# ---------------------------------------------------------------------------
# oracle agreement and cross-validated structure


@pytest.mark.parametrize("family,depth", [(1, 6), (2, 6), (3, 5)])
def test_edge_set_matches_the_oracle(family, depth):
    """The walked edge set, witnesses included, equals the brute-force one."""
    for state in run(family, depth):
        assert dict(state.phi) == oracle_edges(family, state.X)


@pytest.mark.parametrize("family", [1, 2])
def test_stage_chain_is_an_uogas(family):
    """The successor relation passes the independent graph validator."""
    for state in run(family, 8):
        graph = FiniteOrientedGraph(state.X, state.A)
        assert validate_uogas(graph).ok, state.level


@pytest.mark.parametrize("family,depth", [(1, 16), (2, 10), (3, 8)])
def test_code_stepper_matches_the_binword_stepper(family, depth):
    """X, A, E and phi of every stage equal those of the BinWord stepper,
    each stepping from its own previous stage."""
    states = run(family, depth)
    ref = init(family)
    for state in states[1:]:
        ref = binword_step(ref)
        assert state.level == ref.level
        assert state.X == ref.X, state.level
        assert state.A == ref.A, state.level
        assert state.E == ref.E, state.level
        assert dict(state.phi) == dict(ref.phi), state.level


def test_code_stepper_matches_the_binword_stepper_on_a_foreign_stage():
    """Stepping the same hand-made stage gives the same next stage."""
    base = run(1, 9)[9]
    for state in (base, ApproxState(1, 9, base.X, base.A, base.E - words("0100"), base.phi)):
        assert step(state) == binword_step(state)


# ---------------------------------------------------------------------------
# edges carried forward against the full walk


def walked_edges(prev, state):
    """The edge set of the stage after prev, walked afresh: step never
    carries edges from a stage built by hand."""
    hand = ApproxState._from_columns(*prev._fields())
    return _stage_edges(hand, _split_flags(prev)[0], state.X_sorted, state.level)


@pytest.mark.parametrize("family,depth", [(1, 20), (2, 14), (3, 12)])
def test_carried_edges_match_the_full_walk(family, depth):
    """Every stage's carried edges, witnesses included, equal the full walk."""
    states = run(family, depth, STAGE_MAX_WORDS)
    for prev, state in zip(states, states[1:]):
        assert state.phi_codes == walked_edges(prev, state), state.level


def test_a_hand_made_stage_steps_by_the_full_walk():
    """A constructor-built copy of a real stage that lacks one non-successor
    pair steps to the real next stage: its edges are walked, not carried."""
    base = run(1, 9)[9]
    y, x = min(base.phi_codes.keys() - base.A_codes)
    phi = dict(base.phi)
    del phi[(BinWord(y), BinWord(x))]
    hand = ApproxState(1, 9, base.X, base.A, base.E, phi)
    assert step(hand) == run(1, 10)[10]


def test_a_split_source_keeps_only_the_child_its_target_reads():
    """From a hand-made level of all 4-bit words without successor pairs,
    every word splits twice running.  A source of length 5 has its new bit
    read at target coordinate 2, so the carried stage 6 keeps, for each of
    its stage-5 pairs, only the child source that agrees with the target."""
    level = [BinWord((1 << 4) | i) for i in range(16)]
    stage5 = step(ApproxState(1, 4, level, (), level, {}))
    stage6 = step(stage5)
    assert stage5.E_codes == stage5.X_codes
    assert len(stage6.phi_codes) == 2 * len(stage5.phi_codes)
    assert stage6.phi_codes == walked_edges(stage5, stage6)


def test_an_index_that_becomes_feasible_late_is_walked():
    """With the second seed word kept whole at a hand-made stage 8, index 1
    first has pairs at stage 10.  Stage 9 came from step, so stage 10 carries
    index 0's pairs and must still walk index 1's."""
    base = run(1, 8)[8]
    seed = anchor_word(1)
    hand = ApproxState(1, 8, base.X, base.A, base.E - {seed}, base.phi)
    stage9 = step(hand)
    stage10 = step(stage9)
    assert seed in stage9.X and 1 not in stage9.phi_codes.values()
    assert 1 in stage10.phi_codes.values()
    assert stage10.phi_codes == walked_edges(stage9, stage10)


# ---------------------------------------------------------------------------
# hand-made stages from a seeded generator, stepped three ways


def _random_stage(rng, family, depth=11, max_pairs=500):
    """A hand-made stage at level `depth`, marked as stepped.

    X is the leaf set of a random full binary tree of bounded depth.  The
    all-zero word splits down to a random length of at least 7, so the
    second map index is infeasible, newly feasible or feasible by turns.
    Every other node splits with a density drawn per 3-bit region: denser
    where index 0 has its sources ("00") than its targets ("01").  E is a
    random half of X and phi the full walk on X.  A is a random cycle-free
    function inside B whose split targets read inside their sources, as the
    stepper requires.  A stage with more than `max_pairs` pairs is drawn
    again, to bound the time of the test.
    """
    while True:
        zero = rng.randint(7, depth)
        density = ([rng.uniform(0.3, 0.9) for _ in range(2)]
                   + [rng.uniform(0.2, 0.7) for _ in range(2)]
                   + [rng.uniform(0, 0.9) for _ in range(4)])
        X, todo = [], [1]
        while todo:
            c = todo.pop()
            k = code_len(c)
            if k < depth and (k < 3 or c == 1 << k and k < zero
                              or rng.random() < density[(c >> (k - 3)) & 7]):
                todo += [c << 1, (c << 1) | 1]
            else:
                X.append(c)
        bare = ApproxState._from_codes(family, depth - 1, (), (), (), {})
        phi = _stage_edges(bare, _split_flags(bare)[0], sorted(X), depth)
        if len(phi) <= max_pairs:
            break
    E = {c for c in X if rng.random() < 0.5}
    succ = {}
    for y, x in rng.sample(sorted(phi), len(phi)):
        if y in succ or x in E and (stride_expand(family, phi[y, x], code_len(x))
                                    >= code_len(y) + (y in E)):
            continue
        v = x
        while v in succ and v != y:
            v = succ[v]
        if v != y:
            succ[y] = x
    state = ApproxState._from_codes(family, depth, X, succ.items(), E, phi)
    state._stepped = True
    return state


def _forced_reads(state):
    """How many of the stage's pairs each forced-bit read of the carried
    step fires on: a split source keeps one child, a split target one child."""
    splits = set(state.X_sorted).intersection(state.E_sorted)
    source = target = 0
    for (y, x), n in state.phi_codes.items():
        ylen, xlen = code_len(y), code_len(x)
        if y in splits:
            source += any(stride_expand(state.family, n, k) == ylen
                          for k in range(stride(n) + 1, xlen))
            ylen += 1
        target += x in splits and stride_expand(state.family, n, xlen) < ylen
    return source, target


# The generator's seed is GENERATOR_SEED + family.  At these seeds the
# forced reads fire (source, target) = (495, 896), (247, 234) and (217, 331)
# times at families 1-3, and index 1 becomes newly feasible 4, 2 and 5 times.
GENERATOR_SEED = 20


@pytest.mark.parametrize("family", [1, 2, 3])
def test_generated_stages_step_alike_three_ways(family, monkeypatch):
    """Each seeded hand-made stage steps to one next stage carried, walked
    afresh and on BinWords.  Over the stages both forced-bit reads fire at
    least 100 times, and some stage makes index 1 newly feasible.
    graph_meets is exact, so the three steppers share its answers."""
    shared = functools.cache(graph_meets)
    monkeypatch.setattr(approximation, "graph_meets", shared)
    monkeypatch.setitem(globals(), "graph_meets", shared)
    rng = random.Random(GENERATOR_SEED + family)
    fired = [0, 0]
    newly_feasible = 0
    for _ in range(32):
        state = _random_stage(rng, family)
        carried = step(state)
        assert carried == step(ApproxState._from_columns(*state._fields())) == binword_step(state)
        fired = [a + b for a, b in zip(fired, _forced_reads(state))]
        newly_feasible += 1 in carried.phi_codes.values() and 1 not in state.phi_codes.values()
    assert min(fired) >= 100, fired
    assert newly_feasible


def test_a_splitting_seed_word_keeps_its_successor_whole():
    """At a hand-made stage 7 that sends 0000000 to 010 and keeps 010 whole,
    index 1's padded seed word 00000000 appears at stage 8 with no
    predecessor, so it splits, and it heads the chain to 010.  Every
    predecessor of 010 reads its next coordinate inside itself, so only
    the block on the seed word's chain keeps 010 whole; the BinWord
    stepper agrees."""
    base = run(1, 7)[7]
    seed, x = W("0000000").code, W("010").code
    succ = dict(base.A_codes)
    succ[seed] = x
    state = ApproxState._from_codes(1, 7, base.X_codes, succ.items(), base.E_codes - {x},
                                    base.phi_codes)
    nxt = step(state)
    assert nxt == binword_step(state)
    assert (W("00000000"), W("010")) in nxt.A and W("00000000") in nxt.E
    assert W("010") in nxt.X and W("010") not in nxt.E


def test_a_whole_target_keeps_its_successor_whole():
    """At a hand-made stage 5 with the successor chain 10000 -> 00000 -> 01
    and all three words whole, the first pair has no edge witness, so
    00000 stays whole at stage 6.  Index 0 reads the next coordinate of 01
    at 5 = |00000|, inside its source only if that source splits, so 01
    stays whole too; without the chain's first pair 00000 splits, and so
    does 01.  The BinWord stepper agrees."""
    base = run(1, 5)[5]
    head, y, x = W("10000").code, W("00000").code, W("01").code
    assert stride_expand(1, 0, code_len(x)) == code_len(y)
    for chain in ({(head, y), (y, x)}, {(y, x)}):
        state = ApproxState._from_codes(1, 5, base.X_codes, chain, base.E_codes - {head, y, x},
                                        base.phi_codes)
        nxt = step(state)
        assert nxt == binword_step(state)
        assert chain <= nxt.A_codes and x in nxt.X_codes
        assert (x in nxt.E_codes) == (y in nxt.E_codes) == (len(chain) == 1)


def test_step_reports_a_chain_cycle_as_a_broken_invariant():
    """A 2-cycle of non-splitting words in A has no split order."""
    state = ApproxState(
        1, 2, words("00", "01", "10", "11"), {(W("10"), W("11")), (W("11"), W("10"))},
        words("00"), {}
    )
    with pytest.raises(StageRelationCycle) as err:
        step(state)
    assert isinstance(err.value, InvariantBroken)


def test_step_reports_a_missing_witness_as_a_broken_invariant():
    """A successor pair into a splitting word must carry its edge witness."""
    base = run(1, 2)[2]
    phi = dict(base.phi)
    del phi[(W("00"), W("01"))]
    state = ApproxState(1, 2, base.X, base.A, base.E | words("01"), phi)
    with pytest.raises(InvariantBroken):
        step(state)


def test_step_reports_a_target_read_past_its_source_as_a_broken_invariant():
    """The pair (00, 01) splits its target, but index 0 reads the target's new
    coordinate 2 past the two coordinates of its unsplit source: the step
    names the pair instead of shifting a code by a negative count."""
    state = ApproxState(1, 2, words("00", "01", "10", "11"), {(W("00"), W("01"))},
                        words("01"), {(W("00"), W("01")): 0})
    with pytest.raises(InvariantBroken, match=r"\(00, 01\)"):
        step(state)


def test_state_dot_frozen_text_to_depth_ten():
    """The DOT text of stages 0..10 stays byte for byte the same."""
    text = "\n".join(state_dot(s) for s in run(1, 10))
    assert len(text) == 67_448
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "c74168c91711265751e212715cbcbc7a9ea688cf4cd22a976434d1389f7627df"
    )


def test_partition_every_stage():
    for state in run(1, 12):
        assert is_maximal_antichain(state.X)


def test_size_recurrence_and_monotone_depth():
    states = run(1, 12)
    for before, after in zip(states, states[1:]):
        assert len(after.X) == len(before.X) + len(before.E)
        assert after.level == before.level + 1


def test_splitting_set_stays_inside_the_stage():
    for state in run(1, 12):
        assert state.E <= state.X


def test_bounded_coverage_every_short_word_eventually_appears():
    """Every word of length <= 4 shows up in some stage antichain by level 12."""
    seen = set()
    for state in run(1, 12):
        seen |= {str(w) for w in state.X}
    for k in range(5):
        for i in range(1 << k):
            text = format(i, f"0{k}b") if k else ""
            assert text in seen


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=(1 << 24) - 1))
def test_each_point_meets_exactly_one_cell(bits):
    """A random point prefix is covered by exactly one antichain member at
    every stage with level <= 12."""
    point = format(bits, "024b")
    for state in run(1, 12):
        owners = [w for w in state.X if point.startswith(str(w))]
        assert len(owners) == 1


# ---------------------------------------------------------------------------
# the check suites at family level 1


def test_check_53_54_clean_at_depth_twelve():
    assert check_lemma_53_54(run(1, 12)).ok


def test_check_53_54_flags_a_tampered_chain():
    """Reversing one successor pair must show up as a report entry."""
    state = run(1, 3)[3]
    bad = ApproxState(
        1,
        3,
        state.X,
        {(W("000"), W("01")), (W("01"), W("000"))},
        state.E,
        dict(state.phi),
    )
    report = check_lemma_53_54([bad])
    assert report.violations == ref_check_lemma_53_54([bad]).violations
    assert not report.ok
    clauses = {c for c, _ in report.violations}
    assert "contained-in-edge-set" in clauses


def test_check_53_54_reports_the_validator_clauses():
    """A level-3 stage whose successor relation has a loop (111), an
    antiparallel pair (100, 101), a branching word (110) and a symmetrized
    cycle (01, 001, 110): validate_uogas decides the uogas clauses, with its
    witnesses rendered as words, and every pair outside the edge set is
    reported, the loop included."""
    state = run(1, 3)[3]
    pairs = {("000", "01"), ("001", "01"), ("110", "01"), ("110", "001"),
             ("100", "101"), ("101", "100"), ("111", "111")}
    bad = ApproxState(1, 3, state.X, {(W(y), W(x)) for y, x in pairs}, state.E, dict(state.phi))
    assert check_lemma_53_54([bad]).violations == ref_check_lemma_53_54([bad]).violations == [
        ("antisymmetric", (3, "100", "101")),
        ("irreflexive", (3, "111", "111")),
        ("unique-successor", (3, "110", ("01", "001"))),
        ("acyclic-symmetrization", (3, "001", "110", "01")),
        ("contained-in-edge-set", (3, "100", "101")),
        ("contained-in-edge-set", (3, "101", "100")),
        ("contained-in-edge-set", (3, "110", "01")),
        ("contained-in-edge-set", (3, "110", "001")),
        ("contained-in-edge-set", (3, "111", "111")),
    ]


def test_check_53_54_rejects_a_pair_off_the_stage():
    state = run(1, 3)[3]
    bad = ApproxState(1, 3, state.X, state.A | {(W("01"), W("0"))}, state.E, dict(state.phi))
    for check in (check_lemma_53_54, ref_check_lemma_53_54):
        with pytest.raises(InvalidArgument):
            check([bad])


def _ref_rendered(witness):
    if isinstance(witness, tuple):
        return tuple(_ref_rendered(w) for w in witness)
    return code_str(witness)


def ref_check_lemma_53_54(states):
    """check_lemma_53_54 as it was before clean stages were decided on the
    successor table: every stage builds its graph and runs validate_uogas."""
    report = CheckReport()
    for state in states:
        lvl = state.level
        graph = FiniteOrientedGraph(state.X_codes, state.A_codes)
        for clause, witness in validate_uogas(graph).violations:
            report.add(clause, (lvl, *_ref_rendered(witness)))
        for y, x in sorted(state.A_codes - state.phi_codes.keys()):
            report.add("contained-in-edge-set", (lvl, code_str(y), code_str(x)))
        succ = dict(sorted(state.A_codes))
        depth = {}
        bound = max(lvl, 1)
        limit = len(state.X_codes)
        for w in state.X_codes:
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
            if depth[w] > bound:
                report.add("chain-length-bound", (lvl, code_str(w), depth[w]))
    return report


@pytest.mark.parametrize("family,depth", [(1, 16), (2, 12), (3, 10)])
def test_check_53_54_matches_the_always_build_reference(family, depth):
    """Equal reports, in the same order, on every stage of three families;
    families 2 and 3 break the edge-set containment."""
    states = run(family, depth)
    found = check_lemma_53_54(states).violations
    assert found == ref_check_lemma_53_54(states).violations
    assert len(found) == {1: 0, 2: 1007, 3: 251}[family]


def _rewired(state, pairs):
    """The stage with each source of `pairs` (word texts) sent to its new
    target instead of its old successor; the edge set is unchanged."""
    new = {W(y).code: W(x).code for y, x in pairs}
    A = {(y, x) for y, x in state.A_codes if y not in new} | set(new.items())
    return ApproxState._from_codes(state.family, state.level, state.X_codes, A,
                                   state.E_codes, dict(state.phi_codes))


FUNCTIONAL_TAMPERS = {
    "3-cycle": ([("100", "101"), ("101", "110"), ("110", "100")],
                {"acyclic-symmetrization", "contained-in-edge-set"}),
    "2-cycle": ([("100", "101"), ("101", "100")], {"antisymmetric", "contained-in-edge-set"}),
    "loop": ([("111", "111")], {"irreflexive", "contained-in-edge-set"}),
    "long chain": ([("100", "101"), ("101", "110"), ("110", "111"), ("111", "000")],
                   {"chain-length-bound", "contained-in-edge-set"}),
}


@pytest.mark.parametrize("name", FUNCTIONAL_TAMPERS)
def test_check_53_54_matches_the_reference_on_functional_tampers(name):
    """A level-3 successor relation that stays a function but gains a cycle,
    a loop or a chain past the bound gets the reference's report."""
    pairs, clauses = FUNCTIONAL_TAMPERS[name]
    bad = [_rewired(run(1, 3)[3], pairs)]
    report = check_lemma_53_54(bad)
    assert report.violations == ref_check_lemma_53_54(bad).violations
    assert {clause for clause, _ in report.violations} == clauses


def test_check_53_54_rejects_a_source_off_the_stage():
    """The successor relation stays a function, but its new source 0 is not
    a word of the stage (the test above sends 01 to 0 instead)."""
    bad = [_rewired(run(1, 3)[3], [("0", "01")])]
    for check in (check_lemma_53_54, ref_check_lemma_53_54):
        with pytest.raises(InvalidArgument):
            check(bad)


def test_check_57_clean_at_depth_twelve():
    assert check_lemma_57(run(1, 12)).ok


def test_check_57_flags_a_tampered_witness():
    state = run(1, 9)[9]
    phi = dict(state.phi)
    phi[(W("0" * 9), W("0100"))] = 1
    bad = ApproxState(1, 9, state.X, state.A, state.E, phi)
    report = check_lemma_57([bad])
    assert not report.ok
    clauses = {c for c, _ in report.violations}
    assert "landing-index-minimal" in clauses or "index-injective" in clauses


def test_check_57_rejects_other_families():
    with pytest.raises(InvalidLevel):
        check_lemma_57(run(2, 2))


def ref_check_lemma_57(states):
    """check_lemma_57 as it was before its walk stopped at each edge's
    target: one whole successor chain per source, then a list search."""
    report = CheckReport()
    for state in states:
        lvl = state.level
        phi = state.phi_codes
        succ = dict(sorted(state.A_codes))
        limit = len(state.X_codes)
        chains = {}
        for (y, x), witness in sorted(phi.items()):
            chain = chains.get(y)
            if chain is None:
                chain = [y]
                v = y
                while v in succ and len(chain) <= limit:
                    v = succ[v]
                    chain.append(v)
                chains[y] = chain
            try:
                j = chain.index(x)
            except ValueError:
                j = 0
            if j < 1:
                report.add("target-on-chain", (lvl, code_str(y), code_str(x)))
                continue
            walked = []
            for i in range(j):
                value = phi.get((chain[i], chain[i + 1]))
                if value is None:
                    report.add("chain-step-in-edge-set",
                               (lvl, code_str(chain[i]), code_str(chain[i + 1])))
                    break
                walked.append(value)
            else:
                if walked[-1] != witness or min(walked) != witness:
                    report.add("landing-index-minimal",
                               (lvl, code_str(y), code_str(x), tuple(walked), witness))
                if len(set(walked)) != len(walked):
                    report.add("index-injective", (lvl, code_str(y), code_str(x), tuple(walked)))
    return report


def test_check_57_matches_the_whole_chain_reference_to_depth_sixteen():
    states = run(1, 16)
    assert check_lemma_57(states).violations == ref_check_lemma_57(states).violations == []


def _tampered_stage(rng, state):
    """A family-1 stage with loops, 2-cycles and branching words added to its
    successor relation, and pairs dropped from, rewitnessed in and added to
    its edge set; added successor pairs sometimes get a witness too."""
    words = sorted(state.X_codes)
    A = set(state.A_codes)
    phi = dict(state.phi_codes)

    def add_pair(y, x):
        A.add((y, x))
        if rng.random() < 0.5:
            phi[(y, x)] = rng.randrange(4)

    for _ in range(rng.randrange(3)):
        w = rng.choice(words)
        add_pair(w, w)
    for _ in range(rng.randrange(3)):
        a, b = rng.sample(words, 2)
        add_pair(a, b)
        add_pair(b, a)
    for _ in range(rng.randrange(3)):
        add_pair(rng.choice(sorted(A))[0], rng.choice(words))
    for key in rng.sample(sorted(phi), min(len(phi), rng.randrange(4))):
        del phi[key]
    for key in rng.sample(sorted(phi), min(len(phi), rng.randrange(3))):
        phi[key] = rng.randrange(4)
    for _ in range(rng.randrange(4)):
        phi[(rng.choice(words), rng.choice(words))] = rng.randrange(4)
    return ApproxState._from_codes(1, state.level, state.X_codes, A, state.E_codes, phi)


def test_check_57_matches_the_whole_chain_reference_on_tampered_stages():
    """Equal reports, in the same order, on 300 randomly tampered stages of
    levels 3 to 10; between them the stages break every clause.  The stages
    branch, loop and cycle, so lemmas 5.3-5.4 take the validate_uogas path
    and must match their reference too."""
    rng = random.Random(57)
    stages = run(1, 10)[3:]
    clauses = set()
    for _ in range(300):
        bad = [_tampered_stage(rng, rng.choice(stages))]
        report = check_lemma_57(bad)
        assert report.violations == ref_check_lemma_57(bad).violations
        assert check_lemma_53_54(bad).violations == ref_check_lemma_53_54(bad).violations
        clauses.update(clause for clause, _ in report.violations)
    assert clauses == {"target-on-chain", "chain-step-in-edge-set",
                       "landing-index-minimal", "index-injective"}


def test_check_57_reports_an_edge_from_a_word_to_itself_off_chain():
    """An edge (w, w) is off the chain even when w's successors cycle back."""
    state = run(1, 3)[3]
    pairs = {(W("100"), W("101")), (W("101"), W("100"))}
    phi = {(W("100"), W("100")): 0, (W("100"), W("101")): 0, (W("101"), W("100")): 1}
    bad = ApproxState(1, 3, state.X, pairs, state.E, phi)
    assert check_lemma_57([bad]).violations == ref_check_lemma_57([bad]).violations == [
        ("target-on-chain", (3, "100", "100")),
    ]


def test_check_57_puts_no_edge_on_a_chain_when_x_is_empty():
    """With X empty a walk may take no step, so every edge fails
    target-on-chain, one whose target is its source's successor too."""
    state = run(1, 3)[3]
    succ = dict(state.A_codes)
    assert any(succ.get(y) == x for y, x in state.phi_codes)
    bad = [ApproxState._from_codes(1, 3, (), state.A_codes, state.E_codes, dict(state.phi_codes))]
    found = check_lemma_57(bad).violations
    assert found == ref_check_lemma_57(bad).violations
    assert [clause for clause, _ in found] == ["target-on-chain"] * len(state.phi_codes)


def _functional_tampered_stage(rng, state):
    """A family-1 stage whose successor relation stays a function: a few
    words get a new successor (any word of the stage, themselves included),
    a few witnesses change and a few edges are added at the end of phi."""
    words = sorted(state.X_codes)
    succ = dict(state.A_codes)
    for _ in range(rng.randrange(1, 4)):
        succ[rng.choice(words)] = rng.choice(words)
    phi = dict(state.phi_codes)
    for key in rng.sample(sorted(phi), min(len(phi), rng.randrange(4))):
        phi[key] = rng.randrange(4)
    for _ in range(rng.randrange(4)):
        phi[(rng.choice(words), rng.choice(words))] = rng.randrange(4)
    return ApproxState._from_codes(1, state.level, state.X_codes, succ.items(), state.E_codes, phi)


def test_checks_match_the_references_on_functional_tampered_stages():
    """Equal reports, in the same order, on 300 tampered stages whose
    successor relation is still a function; most break several clauses, so
    the order of the violations is checked too."""
    rng = random.Random(5354)
    stages = run(1, 10)[3:]
    several = 0
    for _ in range(300):
        bad = [_functional_tampered_stage(rng, rng.choice(stages))]
        assert len(dict(bad[0].A_codes)) == len(bad[0].A_codes)
        assert check_lemma_53_54(bad).violations == ref_check_lemma_53_54(bad).violations
        found = check_lemma_57(bad).violations
        assert found == ref_check_lemma_57(bad).violations
        several += len(found) >= 2
    assert several >= 100


def test_check_57_keeps_the_clause_order_of_one_edge():
    """The edge (100, 111) walks 100 -> 101 -> 110 -> 111 over witnesses
    1, 0, 1: it breaks both minimality and injectivity, in that order, and
    sorts after the edges of smaller codes whatever phi's order."""
    state = run(1, 3)[3]
    bad = _rewired(state, [("100", "101"), ("101", "110"), ("110", "111")])
    phi = {(W(y).code, W(x).code): n for y, x, n in [
        ("100", "111", 1), ("100", "101", 1), ("101", "110", 0), ("110", "111", 1),
        ("000", "111", 0), ("01", "01", 2)]}
    phi.update(state.phi_codes)
    bad = [ApproxState._from_codes(1, 3, bad.X_codes, bad.A_codes, bad.E_codes, phi)]
    assert check_lemma_57(bad).violations == ref_check_lemma_57(bad).violations == [
        ("target-on-chain", (3, "01", "01")),
        ("target-on-chain", (3, "000", "111")),
        ("landing-index-minimal", (3, "100", "111", (1, 0, 1), 1)),
        ("index-injective", (3, "100", "111", (1, 0, 1))),
    ]


def test_check_58_first_map_short_probe():
    """The worked probe: the image stream of anything in the 001 cell is
    pinned to the 01 cell, and the stage pairs reflect it."""
    report = check_lemma_58(run(1, 6), 0, "0010000000")
    assert report.ok


def test_check_58_second_map():
    report = check_lemma_58(run(1, 11), 1, "0" * 12)
    assert report.ok


def test_check_58_all_zero_probe_deep():
    assert check_lemma_58(run(1, 12), 0, "0" * 16).ok


def test_check_58_rejects_probe_off_the_seed():
    with pytest.raises(InvalidArgument):
        check_lemma_58(run(1, 4), 0, "11")


def test_check_58_needs_enough_to_check():
    with pytest.raises(PrefixTooShort):
        check_lemma_58(run(1, 2), 0, "001")


def test_check_58_flags_a_tampered_edge_set():
    states = run(1, 6)
    last = states[6]
    phi = dict(last.phi)
    removed = (W("001000"), W("010"))
    assert phi.pop(removed, None) is not None
    bad = ApproxState(1, 6, last.X, last.A, last.E, phi)
    report = check_lemma_58(states[:6] + [bad], 0, "0010000000")
    assert not report.ok
    assert report.violations[0][0] == "prefix-pair-in-edge-set"


# ---------------------------------------------------------------------------
# higher families: what still holds, and what honestly breaks


def test_family_two_shares_shallow_stages():
    """Up to level 3 the read coordinates agree, so the stages agree."""
    ours = run(2, 3)
    base = run(1, 3)
    for a, b in zip(ours, base):
        assert a.X == b.X and a.A == b.A and a.E == b.E
        assert dict(a.phi) == dict(b.phi)


def test_family_two_chain_containment_breaks_at_level_four():
    """At family level 2 the domain inequality pins the coordinate-3 bit, so
    the successor pairs from sources with a 0 there lose their witness at
    level 4.  The suite must report that instead of masking it."""
    states = run(2, 6)
    report = check_lemma_53_54(states)
    assert not report.ok
    clauses = {c for c, _ in report.violations}
    assert clauses == {"contained-in-edge-set"}
    flagged = {w for c, w in report.violations if w[0] == 4}
    assert ("contained-in-edge-set", (4, "0000", "01")) in report.violations
    assert ("contained-in-edge-set", (4, "0010", "01")) in report.violations
    assert len(flagged) == 2
    level4 = states[4]
    assert (W("0010"), W("01")) in level4.A
    assert (W("0010"), W("01")) not in level4.B


def test_family_two_stranded_target_never_splits():
    """With stranded predecessor pairs at every later stage, the 01 cell can
    never certify a split at family level 2."""
    for state in run(2, 8):
        assert W("01") not in state.E


def test_family_two_structural_invariants_still_hold():
    for state in run(2, 8):
        assert is_maximal_antichain(state.X)
        assert state.E <= state.X
        graph = FiniteOrientedGraph(state.X, state.A)
        assert validate_uogas(graph).ok


# ---------------------------------------------------------------------------
# anchors, predicates, emission


def test_anchor_index_recognizes_padded_seeds():
    assert anchor_index(W("0")) == 0
    assert anchor_index(W("0" * 8)) == 1
    assert anchor_index(W("10000000")) is None
    assert anchor_index(W("000")) is None
    assert anchor_index(W("")) is None


def test_antichain_predicate():
    assert is_maximal_antichain(words(""))
    assert is_maximal_antichain(words("0", "1"))
    assert not is_maximal_antichain(words("0"))
    assert not is_maximal_antichain(words("", "0"))
    assert not is_maximal_antichain([])


def test_antichain_predicate_matches_sorted_strings_exhaustive():
    """Every set of words of length <= 3, plus lists with repeats, against
    the sorted-string predicate."""
    universe = [BinWord(c) for c in range(1, 16)]
    count = 0
    for mask in range(1 << len(universe)):
        ws = [w for i, w in enumerate(universe) if mask >> i & 1]
        expected = string_maximal_antichain(ws)
        assert is_maximal_antichain(ws) == expected, [str(w) for w in ws]
        assert is_maximal_antichain_codes(w.code for w in ws) == expected
        count += expected
    assert count == 26
    for texts in (["", ""], ["0", "1", "1"], ["0", "0", "1"]):
        assert not is_maximal_antichain([W(t) for t in texts])


def test_antichain_predicate_rejects_the_measure_trick():
    """Total measure one does not certify prefix-freeness on its own."""
    assert not is_maximal_antichain(words("0", "01", "011", "0100", "0101"))


def kraft_antichain(codes):
    """The definition, on a list of codes that may repeat: no word is a
    prefix of another entry (a repeat is a prefix of itself), and the Kraft
    sum of 2^-|w| over the entries is exactly 1."""
    texts = [code_str(c) for c in codes]
    prefix_free = not any(i != j and b.startswith(a)
                          for i, a in enumerate(texts) for j, b in enumerate(texts))
    return prefix_free and sum(Fraction(1, 2 ** len(t)) for t in texts) == 1


def _random_code_list(rng):
    """Codes of words up to 7 bits: the leaves of a random full binary tree,
    often disturbed by one edit that may break maximality or bring in
    repeats, or else a random handful of codes."""
    if rng.random() < 0.2:
        return [rng.randrange(1, 256) for _ in range(rng.randint(0, 12))]
    leaves, todo = [], [1]
    while todo:
        c = todo.pop()
        if code_len(c) < 7 and rng.random() < 0.6:
            todo += [c << 1, (c << 1) | 1]
        else:
            leaves.append(c)
    edit = rng.randrange(7)
    c = rng.choice(leaves)
    if edit == 1:
        leaves.remove(c)
    elif edit == 2:
        leaves.append(c)
    elif edit == 3 and c > 1:
        leaves.append(c >> 1)
    elif edit == 4:
        leaves += [c << 1, (c << 1) | 1]
    elif edit == 5:
        leaves.append(rng.randrange(1, 256))
    elif edit == 6:  # each pair of siblings becomes two copies of the 1-child
        leaves = [c | 1 for c in leaves]
    return leaves


def test_antichain_predicate_matches_the_kraft_definition_on_random_sets():
    """On 600 seeded random code lists the predicate agrees with the
    definition, given as a sorted array (read in place), as a shuffled
    tuple with an extra copy of some codes and as that tuple sorted, and as
    a generator."""
    rng = random.Random(5)
    verdicts = []
    for _ in range(600):
        codes = _random_code_list(rng)
        shuffled = rng.sample(codes, len(codes)) + rng.sample(codes, rng.randint(0, len(codes)) // 3)
        for given, entries in ((array("q", sorted(codes)), codes), (tuple(shuffled), shuffled),
                               (tuple(sorted(shuffled)), shuffled), ((c for c in codes), codes)):
            expected = kraft_antichain(entries)
            assert is_maximal_antichain_codes(given) == expected, (sorted(entries), type(given))
            verdicts.append(expected)
    assert 400 < sum(verdicts) < 2000, sum(verdicts)


def test_state_json_frozen_stage_two():
    snap = state_json(run(1, 2)[2])
    assert snap == {
        "level": 2,
        "X": ["00", "01", "10", "11"],
        "B": [["00", "01", 0]],
        "A": [["00", "01"]],
        "E": ["00", "10", "11"],
    }
    json.dumps(snap)


@pytest.mark.parametrize("family,depth", [(1, 12), (2, 10), (3, 8)])
def test_state_text_is_the_indented_json_of_state_json(family, depth):
    """The stage file that state_chunks writes is json.dumps(state_json(state),
    indent=2) and a newline."""
    for state in run(family, depth):
        assert "".join(state_chunks(state)) == json.dumps(state_json(state), indent=2) + "\n", \
            state.level


def test_state_text_writes_empty_lists_as_json_does():
    """init() has empty A and B; a stage stripped of its splitting set has an
    empty E."""
    base = run(1, 9)[9]
    for state in (init(), ApproxState(1, 9, base.X, base.A, (), base.phi)):
        assert "".join(state_chunks(state)) == json.dumps(state_json(state), indent=2) + "\n"
    assert "".join(state_chunks(init())).splitlines() == [
        "{", '  "level": 0,', '  "X": [', '    ""', "  ],", '  "B": [],', '  "A": [],',
        '  "E": [', '    ""', "  ]", "}",
    ]


def test_state_dot_mentions_every_piece():
    text = state_dot(run(1, 2)[2])
    assert text.startswith("digraph stage2 {")
    assert '"00" [peripheries=2];' in text
    assert '"01";' in text
    assert '"00" -> "01" [label="0"];' in text
    assert text.rstrip().endswith("}")


def test_state_dot_renders_the_empty_word():
    assert '"<empty>" [peripheries=2];' in state_dot(init())


def test_states_compare_by_content():
    a = run(1, 2)[2]
    twin = ApproxState(1, 2, a.X, a.A, a.E, dict(a.phi))
    assert a == twin
    assert a != run(1, 3)[3]


# ---------------------------------------------------------------------------
# the column store against the frozenset store it replaced


def ref_state_dot(level, X, A, E, phi):
    """state_dot as it was on frozensets of codes."""
    def text(w):
        return code_str(w) if w > 1 else "<empty>"

    lines = [f"digraph stage{level} {{"]
    for w in sorted(X):
        lines.append(f'  "{text(w)}"{" [peripheries=2]" if w in E else ""};')
    for y, x in sorted(A | phi.keys()):
        label = phi.get((y, x), "?")
        lines.append(f'  "{text(y)}" -> "{text(x)}" [label="{label}"'
                     f'{"" if (y, x) in A else ", style=dashed"}];')
    lines.append("}")
    return "\n".join(lines)


@pytest.mark.parametrize("family,depth", [(1, 6), (2, 8)])
def test_a_hand_made_stage_reads_as_its_frozensets(family, depth):
    """A real stage with one word of the idle "1" half replaced by a chain of
    leaves down to a 70-bit word, that word and the replaced one (now off
    X) in E, given with repeats and in shuffled order, reads back as the
    frozensets it was built from, and steps as the BinWord stepper does."""
    base = run(family, depth)[depth]
    X, A, E, phi, deep = _deepened(base, 70)
    (w,) = E - X
    assert code_len(deep) == 70 and w not in X and is_maximal_antichain_codes(X)
    rng = random.Random(depth)
    shuffled = ApproxState._from_codes(
        family, depth, rng.sample(sorted(X), len(X)) * 2, rng.sample(sorted(A), len(A)) * 2,
        rng.sample(sorted(E), len(E)) + [deep], dict(rng.sample(sorted(phi.items()), len(phi))))
    state = ApproxState._from_codes(family, depth, X, A, E, phi)
    assert state == shuffled and state != ApproxState._from_codes(family, depth, X, A, E - {w}, phi)
    for st in (state, shuffled):
        assert st.X_codes is not st.X_codes and "X_codes" not in vars(st)
        _stored_as(st, X, A, E, phi)
    nxt = step(state)
    assert nxt == step(shuffled) == binword_step(state)
    assert nxt.X_codes == X - E | {c << 1 | b for c in X & E for b in (0, 1)}
    assert deep << 1 in nxt.X_codes and w << 1 not in nxt.X_codes


def _deepened(base, bits):
    """The codes of `base` with one word of the idle "1" half replaced by a
    chain of leaves down to a word of `bits` bits, that word and the
    replaced one (now off X) in E: (X, A, E, phi, the deep word)."""
    w = next(c for c in base.X_sorted if c >> (code_len(c) - 1) == 0b11)
    deep = w << (bits - code_len(w))
    chain = [(w << (i + 1)) | 1 for i in range(bits - code_len(w))] + [deep]
    X = frozenset(base.X_codes - {w} | set(chain))
    E = frozenset(base.E_codes | {w, deep})
    return X, base.A_codes, E, dict(base.phi_codes), deep


def _stored_as(state, X, A, E, phi):
    """The stage reads back as the sets it was built from, and writes the
    stage file and DOT text those sets give."""
    assert state.X_codes == X and state.E_codes == E
    assert state.A_codes == A and state.phi_codes == phi
    assert state.X == frozenset(map(BinWord, X)) and state.E == frozenset(map(BinWord, E))
    assert state.A == frozenset((BinWord(y), BinWord(x)) for y, x in A)
    assert dict(state.phi) == {(BinWord(y), BinWord(x)): n for (y, x), n in phi.items()}
    assert state.B == frozenset(state.phi)
    text = json.dumps({
        "level": state.level,
        "X": [code_str(c) for c in sorted(X)],
        "B": [[code_str(y), code_str(x), phi[y, x]] for y, x in sorted(phi)],
        "A": [[code_str(y), code_str(x)] for y, x in sorted(A)],
        "E": [code_str(c) for c in sorted(E)],
    }, indent=2) + "\n"
    assert "".join(state_chunks(state)) == json.dumps(state_json(state), indent=2) + "\n" == text
    assert state_dot(state) == ref_state_dot(state.level, X, A, E, phi)


@pytest.mark.parametrize("family,depth", [(1, 6), (2, 8)])
@pytest.mark.parametrize("bits", [62, 63])
@pytest.mark.parametrize("tamper", ["none", "branching A pair", "B pair outside A"])
def test_the_column_store_keeps_a_hand_made_stage_at_its_edges(family, depth, bits, tamper):
    """A word of 62 bits has the last code that fits an array('q') and one of
    63 bits the first that does not: each column holding one is a tuple,
    every other column an array.  With a source given a second target off
    E, or edges outside A placed before, after and between a source's A
    pairs, the stage still reads back as its sets, compares equal when
    given shuffled and with repeats, and steps as the BinWord stepper does."""
    X, A, E, phi, deep = _deepened(run(family, depth)[depth], bits)
    y, x = min(A)
    if tamper == "branching A pair":
        A = A | {(y, min(X - E - {x}))}
        assert len(dict(A)) < len(A)
    elif tamper == "B pair outside A":
        phi = {**phi, (y, 1): 0, (y, deep): 1, (deep, x): 2}
    rng = random.Random(bits)
    state = ApproxState._from_codes(family, depth, X, A, E, phi)
    shuffled = ApproxState._from_codes(
        family, depth, rng.sample(sorted(X), len(X)) * 2, rng.sample(sorted(A), len(A)) * 2,
        rng.sample(sorted(E), len(E)) + [deep], dict(rng.sample(sorted(phi.items()), len(phi))))
    assert state == shuffled
    assert state != ApproxState._from_codes(family, depth, X, A, E - {deep}, phi)
    long_columns = set()
    if bits == 63:
        long_columns = {"X_sorted", "E_sorted"}
        if tamper == "B pair outside A":
            long_columns |= {"B_src", "B_dst"}
    for name in ApproxState._FIELDS[2:]:
        assert isinstance(getattr(state, name), tuple if name in long_columns else array), name
    for st in (state, shuffled):
        _stored_as(st, X, A, E, phi)
    nxt = step(state)
    assert nxt == step(shuffled) == binword_step(state)
    assert deep << 1 in nxt.X_codes and isinstance(nxt.X_sorted, tuple)
    _stored_as(nxt, nxt.X_codes, nxt.A_codes, nxt.E_codes, nxt.phi_codes)


@pytest.mark.parametrize("case", ["endpoints off X past every word", "E words off X",
                                  "63-bit word"])
def test_the_split_lookup_answers_every_code_a_step_reads(case):
    """`_split_flags` marks exactly the words of both X and E, for every
    code a step reads: the words and the endpoints of A and B, on X or off
    it.  A hand-made stage gets the bytearray with a chain pair out to a
    word two bits longer than every word of X and back, or with E holding
    the prefixes of words, their extensions and a code past every code of
    the stage; a 63-bit word makes the codes too sparse, and the lookup a
    set.  Each stage steps as the BinWord stepper does."""
    base = run(1, 6)[6]
    X, A, E, phi = base.X_codes, set(base.A_codes), set(base.E_codes), base.phi_codes
    if case == "endpoints off X past every word":
        far = max(X) << 2
        w = min(X & E - {y for y, _ in A})
        A |= {(w, far), (far, min(X - E))}
    elif case == "E words off X":
        E |= {c >> 1 for c in X} | {c << 1 for c in X} | {max(X) << 3}
    else:
        X, A, E, phi, _ = _deepened(base, 63)
    state = ApproxState._from_codes(1, 6, X, A, E, phi)
    splits, count = _split_flags(state)
    assert type(splits) is (bytearray if case != "63-bit word" else approximation._SplitSet)
    read = set(X).union(*A, *phi)
    assert (read | E) - X and all(bool(splits[c]) == (c in X and c in E) for c in read)
    assert count == len(X & E)
    assert step(state) == binword_step(state)


def test_step_peaks_near_the_size_of_the_stage_it_returns():
    """Under tracemalloc, stepping stage 13 peaks at no more than 2.5 times
    what the stage it returns holds: the step works in the columns it
    returns, a lookup of a byte per code, and one dict at a time (it read
    4.7 times while it kept the words, splits, edges and chain pairs in
    sets and dicts of int objects)."""
    state = run(1, 13)[13]
    step(state)  # first use of the map-read tables
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        out = step(state)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert out == run(1, 14)[14]
    assert peak - base <= 2.5 * (held - base), (peak - base, held - base)


def test_stepped_stages_store_8_byte_columns():
    """Every column of a stage that init or step made is an array('q'), so
    a silent fall back to tuples fails here."""
    for state in run(1, 12):
        for name in ApproxState._FIELDS[2:]:
            column = getattr(state, name)
            assert isinstance(column, array) and column.typecode == "q", (state.level, name)


def test_the_hot_paths_never_rebuild_a_or_phi(monkeypatch, tmp_path, capsys):
    """With A_codes and phi_codes refusing every read, stepping, writing the
    stage files, both stage checks and `approx` give their usual results:
    they read the columns in place."""
    ref = run(1, 12)
    texts = ["".join(state_chunks(st)) for st in ref]

    def refuse(self):
        raise AssertionError("a hot path rebuilt A or phi")

    monkeypatch.setattr(ApproxState, "A_codes", property(refuse))
    monkeypatch.setattr(ApproxState, "phi_codes", property(refuse))
    monkeypatch.setattr(approximation, "_stage_cache", {})
    states = run(1, 12)
    assert states == ref and states[0] is not ref[0]
    assert ["".join(state_chunks(st)) for st in states] == texts
    assert check_lemma_53_54(states).ok and check_lemma_57(states).ok
    assert cli.main(["approx", "--L", "1", "--depth", "12", "--out", str(tmp_path)]) == 0
    assert [(tmp_path / f"stage_{lvl:03d}.json").read_text() for lvl in range(13)] == texts
    assert f"l=12 |X|=3088 |B|={len(ref[12].B_src)} |E|=3072" in capsys.readouterr().out


@pytest.mark.parametrize("size", [0, 1, CHUNK_ITEMS - 1, CHUNK_ITEMS, CHUNK_ITEMS + 1])
def test_stage_chunks_hold_the_stage_text_at_each_chunk_boundary(size):
    """The pieces join to the stage text and a newline, with one piece per
    CHUNK_ITEMS items of each list and one to close it."""
    codes = [(1 << 13) | i for i in range(size)]
    pairs = list(zip(codes, codes[1:] + codes[:1]))
    state = ApproxState._from_codes(1, 13, codes, pairs, codes, dict.fromkeys(pairs, 0))
    chunks = list(state_chunks(state))
    assert "".join(chunks) == json.dumps(state_json(state), indent=2) + "\n"
    assert len(chunks) == 2 + 4 * (-(-size // CHUNK_ITEMS) + 1)


@st.composite
def hand_made_stages(draw):
    """A stage of words of up to 10 bits and at most one of 62, 63 or 70
    bits, so that array and tuple columns mix, with E a subset of X plus
    words off X, and A and B drawn on X; any list may be empty."""
    def words(lengths):
        return lengths.flatmap(lambda k: st.integers(1 << k, (2 << k) - 1))

    X = sorted(draw(st.sets(words(st.integers(0, 10)), max_size=24))
               | draw(st.sets(words(st.sampled_from([62, 63, 70])), max_size=1)))
    E = {w for w in X if draw(st.booleans())}
    if X:
        w = draw(st.sampled_from(X))
        gaps = [(a, b) for a, b in zip(X, X[1:]) if b - a > 1]
        off = {
            "prefix": w >> draw(st.integers(1, max(code_len(w), 1))),
            "extension": 2 * w + draw(st.integers(0, 1)),
            "between": draw(st.sampled_from(gaps).flatmap(lambda g: st.integers(g[0] + 1, g[1] - 1)))
                       if gaps else X[-1] + 1,
            "past": X[-1] + draw(st.integers(1, 3)),
        }
        E |= {off[k] for k in draw(st.sets(st.sampled_from(sorted(off))))} - set(X) - {0}
    pairs = st.tuples(st.sampled_from(X or [1]), st.sampled_from(X or [1]))
    A = draw(st.lists(pairs, max_size=12 if X else 0))
    phi = draw(st.dictionaries(pairs, st.integers(0, 6), max_size=12 if X else 0))
    return ApproxState._from_codes(1, draw(st.integers(0, 30)), X, A, E, phi)


def items_in(piece: str) -> int:
    """The list items a stage-file piece holds: each starts a line at the
    items' indent, with a quote or a bracket."""
    return len(re.findall(r'\n    ["[]', piece))


@pytest.mark.parametrize("size", [1, 2, 3, 4096])
@settings(max_examples=80, deadline=None)
@given(state=hand_made_stages())
def test_stage_chunks_of_hand_made_stages_hold_the_stage_text(size, state):
    """Whatever E holds, on X or off it, the pieces join to the stage text
    and a newline, and none holds more than CHUNK_ITEMS items."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(approximation, "CHUNK_ITEMS", size)
        pieces = list(state_chunks(state))
    assert "".join(pieces) == json.dumps(state_json(state), indent=2) + "\n"
    assert max(map(items_in, pieces)) <= size


def test_stage_chunks_cut_e_from_the_text_of_x():
    """A stepped stage's E reuses X's texts: at each of stages 10 to 16 the
    words of X off E (the whole targets of A, 192 at stage 16) fall in one
    run of X, the only one rendered again."""
    for state in run(1, 16)[10:]:
        x_texts = approximation._word_texts(state.X_sorted, CHUNK_ITEMS)
        e_texts = approximation._split_texts(state, x_texts, CHUNK_ITEMS)
        again = [t is not x for t, x in zip(e_texts, x_texts)]
        assert len(e_texts) == len(x_texts), state.level
        assert again.count(True) == (len(state.E_sorted) < len(state.X_sorted)), state.level


def test_writing_a_stage_peaks_below_stepping_into_it():
    """Under tracemalloc, iterating state_chunks(stage 16) peaks at no more
    than 0.8 times what step(stage 15) does: the writer holds X's joined
    texts until E is cut from them, not a string per word (keeping X's
    word strings until E was written read 1.55 times the step)."""
    states = run(1, 16)

    def peak(work):
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            work()
            return tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()

    def write():
        for _ in state_chunks(states[16]):
            pass

    writing, stepping = peak(write), peak(lambda: step(states[15]))
    assert writing <= 0.8 * stepping, (writing, stepping)
