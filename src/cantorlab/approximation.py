"""Stage-by-stage finite approximants of the map family on the word tree.

Each stage carries a maximal antichain of binary words (one cell per member,
jointly covering sequence space), the set of cell pairs whose cylinders meet
some map's graph together with the witnessing map index, a unique-successor
relation picking one outgoing pair per word, and the set of words whose cells
split before the next stage.  Stepping carries the edge set forward: every
pair of the next stage is a child pair of a pair of this one, with the same
witness, so each map index already feasible here has its next pairs derived
from its pairs here by at most two forced-bit reads.  Only an index that has
just become feasible, or a stage built by hand, is walked afresh on the
antichain.

Stages are computed and checked on raw word codes (see `sequences`); BinWord
appears only in the public constructor, the BinWord views of a stage and the
rendered witnesses.

The stage interplay is tuned to family level 1, where every successor pair
provably keeps a satisfiability witness.  Higher families run too, but a
split can strand a successor pair outside the edge set (an inherited domain
inequality empties one branch); the stepper then treats the stranded pair as
non-expanding and the check suites report the containment failures instead
of hiding them.
"""

from __future__ import annotations

import itertools
from bisect import bisect_left
from functools import cached_property, partial
from operator import itemgetter
from types import MappingProxyType

from .cylinders import SymbolicClopen
from .errors import (CapExceeded, DecisionOverflow, InvalidArgument, InvalidLevel,
                     InvariantBroken, PrefixTooShort)
from .maps import MapId, domain_D, graph_meets
from .orientedgraphs import CheckReport, FiniteOrientedGraph, SuccessorTable, validate_uogas
from .sequences import (BinWord, anchor_word, code_is_prefix, code_len, code_str,
                        stride, stride_expand)


class ApproxState:
    """One stage: the word antichain X, the edge set B with its witness map
    phi, the successor relation A, and the splitting set E.

    A stage is stored as word codes: X_sorted and E_sorted are sorted tuples
    of distinct codes (8 bytes a code, where a frozenset takes about 40),
    A_codes a frozenset of code pairs, and phi_codes a read-only dict from
    code pairs to map indices whose key set is B.  X_codes and E_codes build
    a fresh frozenset on each read; X, A, E, B and phi are BinWord views,
    each built once.  The constructor takes BinWords, the stepper codes.
    """

    def __init__(self, family, level, X, A, E, phi):
        self._store(family, level, (w.code for w in X), ((y.code, x.code) for y, x in A),
                    (w.code for w in E), {(y.code, x.code): n for (y, x), n in phi.items()})

    @classmethod
    def _from_codes(cls, *fields) -> "ApproxState":
        state = cls.__new__(cls)
        state._store(*fields)
        return state

    def _store(self, family, level, X, A, E, phi):
        self.family, self.level = family, level
        self.X_sorted, self.E_sorted = (
            tuple(sorted(c if isinstance(c, set) else set(c))) for c in (X, E))
        self.A_codes, self.phi_codes = frozenset(A), MappingProxyType(phi)

    # Set on the stages init and step return: only their edge sets are
    # carried forward by the next step.
    _stepped = False

    X_codes = property(lambda self: frozenset(self.X_sorted))
    E_codes = property(lambda self: frozenset(self.E_sorted))
    X = cached_property(lambda self: frozenset(map(BinWord, self.X_sorted)))
    E = cached_property(lambda self: frozenset(map(BinWord, self.E_sorted)))
    A = cached_property(lambda self: frozenset(map(_word_pair, self.A_codes)))
    phi = cached_property(lambda self: MappingProxyType(
        {_word_pair(p): n for p, n in self.phi_codes.items()}))
    B = cached_property(lambda self: frozenset(self.phi))

    def _fields(self):
        return (self.family, self.level, self.X_sorted, self.A_codes, self.E_sorted, self.phi_codes)

    def __eq__(self, other):
        if not isinstance(other, ApproxState):
            return NotImplemented
        return self._fields() == other._fields()

    __hash__ = None

    def __repr__(self):
        return (
            f"ApproxState(level={self.level}, words={len(self.X_sorted)}, "
            f"edges={len(self.phi_codes)}, chain={len(self.A_codes)}, "
            f"splitting={len(self.E_sorted)})"
        )


def _word_pair(pair) -> tuple:
    return BinWord(pair[0]), BinWord(pair[1])


def _has(codes: tuple, code: int) -> bool:
    """Whether the sorted tuple `codes` holds `code`."""
    i = bisect_left(codes, code)
    return i < len(codes) and codes[i] == code


def init(family: int = 1) -> ApproxState:
    """Stage zero: the lone empty-word cell, already marked as splitting."""
    if family < 1:
        raise InvalidLevel("the stage system needs a family level >= 1")
    state = ApproxState._from_codes(family, 0, (1,), (), (1,), {})
    state._stepped = True
    return state


# ---------------------------------------------------------------------------
# anchor words (the zero-padded seed words, one per materializable stride)


def _anchor_codes(max_len: int) -> dict:
    """code -> map index, for every padded seed word of length <= max_len."""
    out = {}
    n = 0
    while stride(n) <= max_len:
        out[anchor_word(n).code] = n
        n += 1
    return out


def anchor_index(word: BinWord):
    """The map index whose padded seed word equals `word`, or None."""
    return _anchor_codes(len(word)).get(word.code)


def _max_len(codes) -> int:
    """Length of the longest word among codes (0 for none)."""
    return code_len(max(codes, default=1))


# ---------------------------------------------------------------------------
# the three stage computations: edges, successor advancement, splitting


def _feasible(n, holds) -> bool:
    """Whether map index n has pairs on the stage whose words pass `holds`:
    none may be a prefix of n's padded seed word (the seed word included)."""
    anchor = anchor_word(n).code
    return not any(holds(anchor >> j) for j in range(stride(n) + 1))


def _index_edges(family, n, words, max_len, phi):
    """Add map index n's pairs to phi, walking the antichain once per
    potential source.

    A partner bit is forced wherever the map reads inside the source word
    (and at the stride coordinate), and branches freely beyond it.  At family
    level 1 every walk result is a real pair; higher families keep a
    joint-satisfiability filter because a domain inequality can empty a
    branch the walk cannot see.  The caller has checked that n is feasible.
    """
    st = stride(n)
    # Every walk first copies the padded seed word out of its source.
    anchor = anchor_word(n).code
    seed0, start = anchor << 1, (anchor << 1) | 1
    reads = [stride_expand(family, n, k) for k in range(max_len + 1)]
    ident = MapId(family, n)
    for y in words:
        ylen = y.bit_length() - 1
        if ylen <= st or (y >> (ylen - st - 1)) != seed0:
            continue
        top = ylen - 1
        stack = [start]
        pop, push = stack.pop, stack.append
        while stack:
            c = pop()
            if c in words:
                if family == 1 or graph_meets(ident, BinWord(y), BinWord(c)):
                    phi[(y, c)] = n
                continue
            k = c.bit_length() - 1
            if k >= max_len:
                continue
            r = reads[k]
            if r < ylen:
                push((c << 1) | ((y >> (top - r)) & 1))
            else:
                push(c << 1)
                push((c << 1) | 1)


def _carried_edges(prev: ApproxState, children, max_len) -> dict:
    """The next stage's pairs of every map index feasible at prev, derived in
    one pass over prev's pairs.

    Each pair (y, x) with witness n proposes its child pairs: y or a child
    of y, against x or a child of x.  With reads[k] the coordinate the map
    reads for target coordinate k (injective) and lo = stride(n) + 1:
    - a split y keeps only the child y + x[k] when reads[k] == |y| for some
      lo <= k < |x|, and both children otherwise;
    - for each source y', a split x keeps only x + y'[reads[|x|]] when that
      coordinate lies inside y', and both children otherwise.
    Higher families filter each candidate through graph_meets.
    """
    family = prev.family
    plans = {}
    phi = {}
    for (y, x), n in prev.phi_codes.items():
        plan = plans.get(n)
        if plan is None:
            reads = [stride_expand(family, n, k) for k in range(max_len + 1)]
            lo = stride(n) + 1
            plan = plans[n] = (reads, {reads[k]: k for k in range(lo, max_len + 1)},
                               MapId(family, n))
        reads, target_of, ident = plan
        ylen = y.bit_length() - 1
        xlen = x.bit_length() - 1
        ys = children.get(y)
        if ys is None:
            sources = (y,)
        else:
            k = target_of.get(ylen)  # the target coordinate that reads y's new bit
            sources = ys if k is None or k >= xlen else (ys[(x >> (xlen - 1 - k)) & 1],)
            ylen += 1
        xs = children.get(x)
        r = reads[xlen]
        for yy in sources:
            if xs is None:
                targets = (x,)
            elif r < ylen:
                targets = (xs[(yy >> (ylen - 1 - r)) & 1],)
            else:
                targets = xs
            for xx in targets:
                if family == 1 or graph_meets(ident, BinWord(yy), BinWord(xx)):
                    phi[(yy, xx)] = n
    return phi


def _stage_edges(prev: ApproxState, children, words, level) -> dict:
    """The edge set of the stage after prev, as a dict (source, target) ->
    witnessing map index, on word codes.

    A map index already feasible at prev has its pairs carried forward from
    prev's pairs, when prev came from init or step; every other index with a
    stride below the level is walked afresh on the new words.
    """
    carry = prev._stepped
    max_len = _max_len(words)
    phi = _carried_edges(prev, children, max_len) if carry else {}
    for n in itertools.count():
        st = stride(n)
        if st >= level:
            return phi
        if carry and st < prev.level and _feasible(n, partial(_has, prev.X_sorted)):
            continue
        if _feasible(n, words.__contains__):
            _index_edges(prev.family, n, words, max_len, phi)


def _advanced_chain(state: ApproxState, children) -> set:
    """The next stage's successor pairs, case by case on whether the two
    endpoints split, with the padded seed words handled by their own rule.
    `children` maps each splitting word to its two child codes."""
    family = state.family
    phi = state.phi_codes
    anchors = {w for w in _anchor_codes(_max_len(state.X_sorted[-1:])) if _has(state.X_sorted, w)}
    sources = SuccessorTable(state.A_codes).succ
    out = set()
    for w in anchors:
        if w in children and w not in sources:
            out.add(children[w])
    theta = {}
    for y, x in state.A_codes:
        ys = children.get(y)
        xs = children.get(x)
        if xs is None:
            if ys is None:
                out.add((y, x))
            elif y not in anchors:
                out.add((ys[0], x))
                out.add((ys[1], x))
            else:
                out.add((ys[1], x))
                out.add(ys)
            continue
        n = phi.get((y, x))
        if n is None:
            raise InvariantBroken("stage invariant broken: a successor pair with a "
                                  "splitting target has no edge witness")
        key = (n, code_len(x))
        t = theta.get(key)
        if t is None:
            t = theta[key] = stride_expand(family, n, key[1])
        if t >= code_len(y) + (ys is not None):
            raise InvariantBroken(f"stage invariant broken: the successor pair ({code_str(y)}, "
                                  f"{code_str(x)}) reads its split target past its source")
        for yy in ys or (y,):
            out.add((yy, xs[(yy >> (yy.bit_length() - 2 - t)) & 1]))
    return out


def _splitting_set(family, words, chain_pairs, phi) -> set:
    """Decide which stage words split, walking words by their longest known
    distance from a chain-minimal word.

    A word with predecessors splits when every predecessor reads the word's
    next coordinate strictly inside that predecessor's resolved length, and
    the word does not sit beyond the head of a padded-seed word's successor
    chain whose head splits at this same stage.  A pair that lost its edge
    witness never certifies a split.  Every word's predecessors and every
    word a chain head blocks lie at a strictly smaller, respectively larger,
    distance, so the order among words at one distance does not matter.
    """
    table = SuccessorTable(chain_pairs)
    succ, preds = table.succ, table.preds
    position = table.distances()
    # Words without predecessors sit at distance 1 and always split.
    chosen = words.difference(preds)

    anchors = _anchor_codes(_max_len(words))
    blocked = set()

    def block_chain(head):
        while head in succ:
            head = succ[head]
            blocked.add(head)

    for x in chosen.intersection(anchors):
        block_chain(x)
    theta = {}
    for x in sorted(words.intersection(position), key=position.__getitem__):
        if x in blocked:
            continue
        xlen = code_len(x)
        for y in preds[x]:
            n = phi.get((y, x))
            if n is None:
                break
            key = (n, xlen)
            t = theta.get(key)
            if t is None:
                t = theta[key] = stride_expand(family, n, xlen)
            if t >= code_len(y) + (y in chosen):
                break
        else:
            chosen.add(x)
            if x in anchors:
                block_chain(x)
    return chosen


# Default cap on a stage's word count |X|.  It keeps casual runs small;
# `approx --max-words` and the depth-20 stage suites pass a larger one.
# Raising it never changes a stage, it only lets deeper stages be computed.
MAX_WORDS = 200_000


def _check_word_cap(level: int, count: int, max_words: int):
    """One message for a stage over the word cap, stepped or memoized."""
    if count > max_words:
        raise CapExceeded(f"stage {level}: {count} words, cap is {max_words}")


def step(state: ApproxState, max_words: int = MAX_WORDS) -> ApproxState:
    """The next stage: split every marked cell, carry the edge set forward
    (or walk it afresh), advance the successor relation, re-decide the splits.

    Carrying is exact, pair by pair of this stage:
    - a split source reads one coordinate more, which forces at most the one
      target bit whose read lands there;
    - a split target's new bit is forced by its source exactly when the map
      reads it inside that source;
    - a smaller cylinder pair meets no graph the larger one misses, so every
      next pair has its parent pair here, with the same witness, and the
      graph_meets filter above family 1 stays exact on the candidates.
    Only stages that init or step returned are carried from; a stage built by
    hand has its edges walked afresh.  The children table is shared by the
    next words, the carried edges and the successor pairs, so each child code
    is one int object; it is dropped before the splits are decided.
    """
    words = set(state.X_sorted)
    children = {w: (w << 1, (w << 1) | 1) for w in words.intersection(state.E_sorted)}
    words.difference_update(children)
    words.update(itertools.chain.from_iterable(children.values()))
    level = state.level + 1
    _check_word_cap(level, len(words), max_words)
    phi = _stage_edges(state, children, words, level)
    chain = _advanced_chain(state, children)
    del children  # the splits read none of it, and dropping it lowers the step's peak
    splitting = _splitting_set(state.family, words, chain, phi)
    out = ApproxState._from_codes(state.family, level, words, chain, splitting, phi)
    out._stepped = True
    return out


# Maximum approximation depth.
MAX_DEPTH = 64

# Stages per family, grown on demand and never emptied.
_stage_cache: dict = {}


def run(L: int, depth: int, max_words: int = MAX_WORDS) -> list:
    """Stages 0..depth for family L, memoized per family (max_words only
    bounds what may be materialized, it never changes values).
    """
    if depth < 0:
        raise InvalidArgument("depth must be a natural")
    if depth > MAX_DEPTH:
        raise DecisionOverflow(f"depth {depth} is past the {MAX_DEPTH}-stage budget")
    states = _stage_cache.setdefault(L, [init(L)])
    for st in states[: depth + 1]:
        _check_word_cap(st.level, len(st.X_sorted), max_words)
    while len(states) <= depth:
        states.append(step(states[-1], max_words))
    return states[: depth + 1]


def detect_L_n(states) -> dict:
    """First level whose splitting set contains each padded seed word."""
    anchors = _anchor_codes(max((_max_len(st.X_sorted[-1:]) for st in states), default=0))
    found = {}
    for state in sorted(states, key=lambda s: s.level):
        for w, q in anchors.items():
            if q not in found and _has(state.E_sorted, w):
                found[q] = state.level
    return found


# ---------------------------------------------------------------------------
# check suites


def _rendered(witness):
    """A validator witness with each word code rendered as its word."""
    if isinstance(witness, tuple):
        return tuple(_rendered(w) for w in witness)
    return code_str(witness)


def check_lemma_53_54(states) -> CheckReport:
    """Per stage: the successor relation is an uogas, it lies inside the edge
    set, and every successor chain fits inside the stage's length bound.

    SuccessorTable.uogas_depths decides each stage and gives every word's
    chain depth.  Only a stage it rejects (a word branches, a chain cycles or
    an endpoint is not a word) builds its graph, for validate_uogas to report
    the uogas clauses, and takes its chain depths from `depths()`."""
    report = CheckReport()
    for state in states:
        lvl = state.level
        table = SuccessorTable(state.A_codes)
        depth = table.uogas_depths(state.X_sorted)
        if depth is None:
            depth = table.depths()
            graph = FiniteOrientedGraph(state.X_codes, state.A_codes)
            for clause, witness in validate_uogas(graph).violations:
                report.add(clause, (lvl, *_rendered(witness)))
        for y, x in sorted(state.A_codes - state.phi_codes.keys()):
            report.add("contained-in-edge-set", (lvl, code_str(y), code_str(x)))
        bound = max(lvl, 1)
        if depth and max(depth.values()) > bound:
            for w in state.X_codes:
                d = depth.get(w)
                if d is not None and d > bound:
                    report.add("chain-length-bound", (lvl, code_str(w), d))
    return report


def check_lemma_57(states) -> CheckReport:
    """Per stage, per edge: the target lies on the source's successor chain
    strictly past the source, the edge's witness reappears at the landing
    step and is the minimum over the walked steps, and the walked witnesses
    are pairwise distinct.  Only defined at family level 1."""
    states = list(states)
    if states and states[0].family != 1:
        raise InvalidLevel("the chain-position suite is defined at family level 1")
    report = CheckReport()
    for state in states:
        lvl = state.level
        phi = state.phi_codes
        succ = SuccessorTable(state.A_codes).succ
        limit = len(state.X_sorted)
        found = []  # (edge, clause, witness), sorted by edge at the end
        for (y, x), witness in phi.items():
            # A one-step edge walks [witness], which breaks no clause; a loop,
            # and any edge when X is empty, still fails target-on-chain.
            if x != y and limit and succ.get(y) == x:
                continue
            # Walk at most |X| steps from y until x; the first step outside
            # the edge set counts only if the walk reaches x.
            walked, gap, v = [], None, y
            while x != y and v in succ and len(walked) < limit:
                u, v = v, succ[v]
                value = phi.get((u, v))
                if value is None and gap is None:
                    gap = (u, v)
                walked.append(value)
                if v == x:
                    break
            if x == y or v != x:
                found.append(((y, x), "target-on-chain", (lvl, code_str(y), code_str(x))))
            elif gap is not None:
                found.append(((y, x), "chain-step-in-edge-set",
                              (lvl, code_str(gap[0]), code_str(gap[1]))))
            else:
                if walked[-1] != witness or min(walked) != witness:
                    found.append(((y, x), "landing-index-minimal",
                                  (lvl, code_str(y), code_str(x), tuple(walked), witness)))
                if len(set(walked)) != len(walked):
                    found.append(((y, x), "index-injective",
                                  (lvl, code_str(y), code_str(x), tuple(walked))))
        found.sort(key=itemgetter(0))  # stable: an edge keeps its clause order
        for _, clause, witness in found:
            report.add(clause, witness)
    return report


def check_lemma_58(states, n: int, alpha_prefix) -> CheckReport:
    """Follow one input prefix through the stages: wherever a stage antichain
    resolves a strictly longer prefix past the seed block, the stage edge set
    must pair it with that stage's prefix of the image stream, with the right
    witness, and those image prefixes must be nested."""
    states = sorted(states, key=lambda s: s.level)
    if not states:
        raise InvalidArgument("no stages to check against")
    family = states[0].family
    w = BinWord.from_str(alpha_prefix) if isinstance(alpha_prefix, str) else alpha_prefix
    anchor = anchor_word(n).code
    if not code_is_prefix(anchor << 1, w.code):
        raise InvalidArgument("the probe prefix must extend the seed-then-0 word")
    probe = SymbolicClopen(w)
    if probe.intersect(domain_D(MapId(family, n))).is_empty():
        raise InvalidArgument("the probe prefix already leaves the map's domain")
    st_n = stride(n)
    wlen = len(w)
    wcode = w.code

    def image_bit(i):
        if i == st_n:
            return 1
        c = stride_expand(family, n, i)
        if c < wlen:
            return (wcode >> (wlen - 1 - c)) & 1
        return None

    report = CheckReport()
    prev_target = (anchor << 1) | 1
    prev_len = st_n + 1
    checks = 0
    for state in states[1:]:
        codes = state.X_sorted
        source = None
        for m in range(min(wlen, state.level) + 1):
            pc = wcode >> (wlen - m)
            if _has(codes, pc):
                source = pc
                break
        if source is None:
            break
        target = None
        tcode = 1
        for tlen in range(state.level + 1):
            if _has(codes, tcode):
                target = tcode
                break
            bit = image_bit(tlen)
            if bit is None:
                break
            tcode = (tcode << 1) | bit
        if target is None:
            break
        k = code_len(source)
        if k <= st_n + 1 or k <= prev_len:
            continue
        checks += 1
        witness = state.phi_codes.get((source, target))
        pair = (state.level, code_str(source), code_str(target))
        if witness is None:
            report.add("prefix-pair-in-edge-set", pair)
        elif witness != n:
            report.add("prefix-pair-witness", pair + (witness,))
        if not code_is_prefix(prev_target, target):
            report.add("nested-image-prefixes",
                       (state.level, code_str(prev_target), code_str(target)))
        prev_target = target
        prev_len = k
    if checks == 0:
        raise PrefixTooShort(
            "no stage resolved a checkable prefix past the seed block; "
            "lengthen the prefix or deepen the run"
        )
    return report


# ---------------------------------------------------------------------------
# structural predicates and emission


def is_maximal_antichain_codes(codes) -> bool:
    """Prefix-freeness plus exact total measure one, on word codes.

    Those hold exactly when the words are the leaves of a full binary tree:
    merging sibling pairs into their parents, longest words first, must
    always find both siblings, meet no word that is also a parent, and end
    at the empty word.
    """
    cs = sorted(codes)
    hi = len(cs)
    parents = set()
    for length in range(code_len(cs[-1]) if cs else 0, 0, -1):
        lo = bisect_left(cs, 1 << length, 0, hi)
        layer = set(cs[lo:hi])
        if len(layer) != hi - lo or not layer.isdisjoint(parents):
            return False
        layer |= parents
        parents = {c >> 1 for c in layer}
        if 2 * len(parents) != len(layer):
            return False
        hi = lo
    return cs[:hi] + list(parents) == [1]


def is_maximal_antichain(words) -> bool:
    """Prefix-freeness plus exact total measure one."""
    return is_maximal_antichain_codes(w.code for w in words)


def state_json(state: ApproxState) -> dict:
    """Plain-data snapshot of one stage, ready for json.dump."""
    phi = state.phi_codes
    return {
        "level": state.level,
        "X": [code_str(w) for w in state.X_sorted],
        "B": [[code_str(y), code_str(x), phi[(y, x)]] for y, x in sorted(phi)],
        "A": [[code_str(y), code_str(x)] for y, x in sorted(state.A_codes)],
        "E": [code_str(w) for w in state.E_sorted],
    }


# Rendered items joined into one piece of a stage file.
CHUNK_ITEMS = 4096


def state_chunks(state: ApproxState):
    """The stage file, `json.dumps(state_json(state), indent=2)` and a
    newline, written straight from the stored codes in pieces of at most
    CHUNK_ITEMS items.  Words are 0/1 strings and witnesses ints, so no
    item needs escaping, and json's pure-Python indent encoder is skipped."""
    phi = state.phi_codes
    yield f'{{\n  "level": {state.level}'
    for key, items in (
        ("X", (f'"{bin(w)[3:]}"' for w in state.X_sorted)),
        ("B", (f'[\n      "{bin(y)[3:]}",\n      "{bin(x)[3:]}",\n      {phi[y, x]}\n    ]'
               for y, x in sorted(phi))),
        ("A", (f'[\n      "{bin(y)[3:]}",\n      "{bin(x)[3:]}"\n    ]'
               for y, x in sorted(state.A_codes))),
        ("E", (f'"{bin(w)[3:]}"' for w in state.E_sorted)),
    ):
        head = f',\n  "{key}": [\n    '  # laid out as json.dumps(..., indent=2) does
        for chunk in iter(lambda: list(itertools.islice(items, CHUNK_ITEMS)), []):
            yield head + ",\n    ".join(chunk)
            head = ",\n    "
        yield "\n  ]" if head == ",\n    " else f',\n  "{key}": []'
    yield "\n}\n"


def state_dot(state: ApproxState) -> str:
    """DOT text for one stage: words as nodes (doubled border on splitting
    words), solid arrows for successor pairs, dashed for the other edges,
    every known arrow labeled by its witnessing map index."""
    def text(w):
        return code_str(w) if w > 1 else "<empty>"

    A, phi, E = state.A_codes, state.phi_codes, state.E_codes
    lines = [f"digraph stage{state.level} {{"]
    for w in state.X_sorted:
        marker = " [peripheries=2]" if w in E else ""
        lines.append(f'  "{text(w)}"{marker};')
    for y, x in sorted(A | phi.keys()):
        value = phi.get((y, x))
        label = f'label="{value}"' if value is not None else 'label="?"'
        style = "" if (y, x) in A else ", style=dashed"
        lines.append(f'  "{text(y)}" -> "{text(x)}" [{label}{style}];')
    lines.append("}")
    return "\n".join(lines)
