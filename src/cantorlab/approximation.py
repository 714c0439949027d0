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
import math
from array import array
from bisect import bisect_left, bisect_right
from functools import cached_property, partial
from operator import eq, itemgetter, lt, xor
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

    A stage is stored as sorted columns of word codes (see `_column`):
    X_sorted and E_sorted hold the distinct words; A_src and A_dst the pairs
    of A, and B_src, B_dst and B_wit the pairs of B with their witnesses,
    each sorted by pair.  A column is an array('q') of 8-byte values, or a
    tuple when one of its values does not fit in 63 bits.  The readers below
    walk the columns in place: pair order is the order of the stage files,
    and one merge walk finds the witness of each A pair.  X_codes, E_codes,
    A_codes and phi_codes build a fresh frozenset or dict on each read, for
    tests and cold readers; X, A, E, B and phi are BinWord views, each built
    once.  The constructor takes BinWords, the stepper columns.
    """

    _FIELDS = ("family", "level", "X_sorted", "A_src", "A_dst", "E_sorted",
               "B_src", "B_dst", "B_wit")

    def __init__(self, family, level, X, A, E, phi):
        vars(self).update(vars(self._from_codes(
            family, level, (w.code for w in X), ((y.code, x.code) for y, x in A),
            (w.code for w in E), {(y.code, x.code): n for (y, x), n in phi.items()})))

    @classmethod
    def _from_codes(cls, family, level, X, A, E, phi) -> "ApproxState":
        """A stage from collections of codes in any order, with repeats."""
        return cls._from_columns(family, level, _column(sorted(set(X))),
                                 *_pair_columns(sorted(set(A))), _column(sorted(set(E))),
                                 *_edge_columns(phi))

    @classmethod
    def _from_columns(cls, *fields) -> "ApproxState":
        state = cls.__new__(cls)
        vars(state).update(zip(cls._FIELDS, fields))
        return state

    # Set on the stages init and step return: only their edge sets are
    # carried forward by the next step.
    _stepped = False

    X_codes = property(lambda self: frozenset(self.X_sorted))
    E_codes = property(lambda self: frozenset(self.E_sorted))
    A_codes = property(lambda self: frozenset(zip(self.A_src, self.A_dst)))
    phi_codes = property(lambda self: dict(zip(zip(self.B_src, self.B_dst), self.B_wit)))
    X = cached_property(lambda self: frozenset(map(BinWord, self.X_sorted)))
    E = cached_property(lambda self: frozenset(map(BinWord, self.E_sorted)))
    A = cached_property(lambda self: frozenset(zip(map(BinWord, self.A_src),
                                                   map(BinWord, self.A_dst))))
    phi = cached_property(lambda self: MappingProxyType(dict(zip(
        zip(map(BinWord, self.B_src), map(BinWord, self.B_dst)), self.B_wit))))
    B = cached_property(lambda self: frozenset(self.phi))

    def _fields(self):
        return tuple(getattr(self, name) for name in self._FIELDS)

    def __eq__(self, other):
        if not isinstance(other, ApproxState):
            return NotImplemented
        return self._fields() == other._fields()

    __hash__ = None

    def __repr__(self):
        return (
            f"ApproxState(level={self.level}, words={len(self.X_sorted)}, "
            f"edges={len(self.B_src)}, chain={len(self.A_src)}, "
            f"splitting={len(self.E_sorted)})"
        )


def _column(values: list):
    """`values` as an array('q'), or as a tuple when one of them does not fit
    in 63 bits (the code of a word of 63 bits or more)."""
    try:
        return array("q", values)
    except OverflowError:
        return tuple(values)


def _pair_columns(pairs: list) -> list:
    """Code pairs, sorted by pair, as a source and a target column."""
    return [_column(list(map(itemgetter(i), pairs))) for i in (0, 1)]


def _edge_columns(phi) -> tuple:
    """A dict from code pairs to witnesses as a source, a target and a
    witness column, sorted by pair."""
    pairs = sorted(phi)
    return (*_pair_columns(pairs), _column(list(map(phi.__getitem__, pairs))))


def _has(codes, code: int) -> bool:
    """Whether the sorted column `codes` holds `code`."""
    i = bisect_left(codes, code)
    return i < len(codes) and codes[i] == code


class _SplitSet(frozenset):
    """The splitting words of a stage whose codes are too sparse for a byte
    per code: `splits[c]` says whether c is one, as a bytearray's does."""

    __getitem__ = frozenset.__contains__


def _split_flags(state: ApproxState):
    """The splitting words of `state`, the words of both X and E, as a
    lookup indexed by code (splits[c] is true exactly for them), and their
    count.

    The lookup answers for every code a step reads: the words of X and the
    endpoints of A and B, on X or off it.  It is a bytearray with one byte
    per code up to the largest of them, or a `_SplitSet` when those codes
    span more than 64 per word of X (a hand-made stage with a long word).
    Stages fill about 37 % of their code range, so they take the bytearray.
    """
    X, E = state.X_sorted, state.E_sorted
    top = max(itertools.chain(X[-1:], state.A_src[-1:], state.A_dst,
                              state.B_src[-1:], state.B_dst), default=0)
    if top >= 64 * (len(X) + 1):
        splits = _SplitSet(set(X).intersection(E))
        return splits, len(splits)
    in_e = bytearray(top + 1)
    for w in E[:bisect_right(E, top)]:
        in_e[w] = 1
    splits = bytearray(top + 1)
    for w in X:
        splits[w] = in_e[w]
    return splits, splits.count(1)


# Past every code: ends the merge walk of `_a_pairs`.
_END = (math.inf, math.inf, None)


def _a_pairs(state: ApproxState):
    """Each pair (y, x) of A with its witness in B, or None for a pair
    outside B, in pair order: one merge walk over the A and B columns."""
    edges = zip(state.B_src, state.B_dst, state.B_wit)
    by, bx, n = next(edges, _END)
    for y, x in zip(state.A_src, state.A_dst):
        while by < y or by == y and bx < x:
            by, bx, n = next(edges, _END)
        yield y, x, (n if by == y and bx == x else None)


def _witness(state: ApproxState, y: int, x: int):
    """The witness of the pair (y, x) in B, or None: bisects of the B columns."""
    lo = bisect_left(state.B_src, y)
    hi = bisect_right(state.B_src, y, lo)
    i = bisect_left(state.B_dst, x, lo, hi)
    return state.B_wit[i] if i < hi and state.B_dst[i] == x else None


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
    """Add map index n's pairs to phi, walking the antichain (the sorted
    word column `words`) once per potential source.

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
            if _has(words, c):
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


def _carried_edges(prev: ApproxState, splits, max_len) -> dict:
    """The next stage's pairs of every map index feasible at prev, derived in
    one pass over prev's pairs.  `splits` is prev's `_split_flags` lookup;
    the children of a word w are w + 0 and w + 1, the codes 2w and 2w + 1.

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
    for y, x, n in zip(prev.B_src, prev.B_dst, prev.B_wit):
        plan = plans.get(n)
        if plan is None:
            reads = [stride_expand(family, n, k) for k in range(max_len + 1)]
            lo = stride(n) + 1
            plan = plans[n] = (reads, {reads[k]: k for k in range(lo, max_len + 1)},
                               MapId(family, n))
        reads, target_of, ident = plan
        ylen = y.bit_length() - 1
        xlen = x.bit_length() - 1
        if splits[y]:
            k = target_of.get(ylen)  # the target coordinate that reads y's new bit
            y <<= 1
            ylen += 1
            sources = (y, y | 1) if k is None or k >= xlen else (y | ((x >> (xlen - 1 - k)) & 1),)
        else:
            sources = (y,)
        if splits[x]:
            x <<= 1
            r = ylen - 1 - reads[xlen]  # shift to the source bit the new target bit copies, if >= 0
            candidates = [(yy, x | ((yy >> r) & 1)) for yy in sources] if r >= 0 else [
                (yy, xx) for yy in sources for xx in (x, x | 1)]
        else:
            candidates = [(yy, x) for yy in sources]
        for pair in candidates:
            if family == 1 or graph_meets(ident, BinWord(pair[0]), BinWord(pair[1])):
                phi[pair] = n
    return phi


def _stage_edges(prev: ApproxState, splits, words, level) -> dict:
    """The edge set of the stage after prev, as a dict (source, target) ->
    witnessing map index, on word codes; `splits` is prev's `_split_flags`
    lookup and `words` the new stage's sorted word column.

    A map index already feasible at prev has its pairs carried forward from
    prev's pairs, when prev came from init or step; every other index with a
    stride below the level is walked afresh on the new words.  A pair that
    two indices reach keeps the last one's witness.
    """
    carry = prev._stepped
    max_len = _max_len(words[-1:])
    phi = _carried_edges(prev, splits, max_len) if carry else {}
    for n in itertools.count():
        st = stride(n)
        if st >= level:
            return phi
        if carry and st < prev.level and _feasible(n, partial(_has, prev.X_sorted)):
            continue
        if _feasible(n, partial(_has, words)):
            _index_edges(prev.family, n, words, max_len, phi)


def _advanced_chain(state: ApproxState, splits):
    """The next stage's successor pairs, case by case on whether the two
    endpoints split, with the padded seed words handled by their own rule.
    `splits` is the stage's `_split_flags` lookup.

    The distinct pairs come back as a dict's keys, in two runs that are
    each in pair order when no source branches: those whose source stayed
    whole, then those whose source split, so sorting them is one merge."""
    family = state.family
    anchors = {w for w in _anchor_codes(_max_len(state.X_sorted[-1:])) if _has(state.X_sorted, w)}
    whole, halved = [], []
    theta = {}
    for y, x, n in _a_pairs(state):
        split_y = splits[y]
        if not splits[x]:
            if not split_y:
                whole.append((y, x))
            elif y not in anchors:
                halved += (y << 1, x), ((y << 1) | 1, x)
            else:
                halved += (y << 1, (y << 1) | 1), ((y << 1) | 1, x)
            continue
        if n is None:
            raise InvariantBroken("stage invariant broken: a successor pair with a "
                                  "splitting target has no edge witness")
        key = (n, code_len(x))
        t = theta.get(key)
        if t is None:
            t = theta[key] = stride_expand(family, n, key[1])
        if t >= code_len(y) + split_y:
            raise InvariantBroken(f"stage invariant broken: the successor pair ({code_str(y)}, "
                                  f"{code_str(x)}) reads its split target past its source")
        x <<= 1
        if split_y:
            halved += [(yy, x | ((yy >> (code_len(y) - t)) & 1)) for yy in (y << 1, (y << 1) | 1)]
        else:
            whole.append((y, x | ((y >> (code_len(y) - 1 - t)) & 1)))
    # A splitting padded seed word that is no source gets its children as a pair.
    halved += [(w << 1, (w << 1) | 1) for w in sorted(anchors)
               if splits[w] and not _has(state.A_src, w)]
    return dict.fromkeys(itertools.chain(whole, halved)).keys()


def _splitting_column(state: ApproxState):
    """The splitting set of a stage whose X, A and B columns are in place,
    as a sorted column: X minus the words that stay whole.

    A word splits when every predecessor y reads the word's next coordinate
    strictly inside y's resolved length (|y|, plus one when y splits), and
    the word does not sit beyond the head of a padded-seed word's successor
    chain whose head splits at this same stage.  A pair that lost its edge
    witness never certifies a split.  So only A's targets can stay whole,
    and they are few (192 of the 49,216 words of stage 16).  Three facts
    turn the rule into one pass over A and a walk of a few pairs:
    - a pair with a witness has its source on X, and a source that is no
      target splits, so the pass decides the pairs from such sources, with
      their witnesses from one merge walk, and skips the rest of a target's
      pairs once it stays whole;
    - every pair of B ends in a word that extends a seed word followed by a
      1, never at a padded seed word, so a padded seed word with a
      predecessor stays whole, and only those without one block a chain
      (walked on the A columns, where a branching source's last target is
      its largest);
    - the pairs between targets hold every cycle of A, which `distances`
      raises as StageRelationCycle, and the targets are decided in order of
      that distance, each after its predecessors.
    """
    X, A_src, A_dst = state.X_sorted, state.A_src, state.A_dst
    targets = set(A_dst)
    whole = {x for x in targets if not _has(X, x)}  # with the targets off X
    theta = {}

    def keeps_whole(y, x, n, split_y):
        """Whether the pair (y, x) with witness n keeps x whole."""
        if n is None:
            return True
        key = (n, code_len(x))
        t = theta.get(key)
        if t is None:
            t = theta[key] = stride_expand(state.family, n, key[1])
        return t >= code_len(y) + split_y

    between = []
    for y, x, n in _a_pairs(state):
        if y in targets:
            between.append((y, x))
        elif x not in whole and keeps_whole(y, x, n, True):
            whole.add(x)
    table = SuccessorTable(between)
    distance = table.distances()
    for head in _anchor_codes(_max_len(X[-1:])):
        if head not in targets and _has(X, head):
            i = bisect_right(A_src, head)
            while i and A_src[i - 1] == head:
                head = A_dst[i - 1]
                whole.add(head)
                i = bisect_right(A_src, head)
    for x in sorted(targets - whole, key=lambda v: distance.get(v, 1)):
        if any(keeps_whole(y, x, _witness(state, y, x), y not in whole)
               for y in table.preds.get(x, ())):
            whole.add(x)
    splitting = itertools.filterfalse(whole.__contains__, X)
    # X's form fits E, a part of X; the slice copy drops the slack of growth.
    return array("q", splitting)[:] if isinstance(X, array) else tuple(splitting)


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
    hand has its edges walked afresh.  A splitting word w has the children
    2w and 2w + 1, computed where they are read.

    Beside the columns, the work holds one list or dict the size of a stage
    at a time: the splits are a lookup indexed by code, the words a merge of
    two sorted runs (those that stay whole, then the children), the edges
    and then the chain pairs are packed as soon as they are found, and the
    next splits are decided on the new stage's columns.
    """
    splits, split_count = _split_flags(state)
    level = state.level + 1
    _check_word_cap(level, len(state.X_sorted) + split_count, max_words)
    words = [w for w in state.X_sorted if not splits[w]]
    words += [c for w in state.X_sorted if splits[w] for c in (w << 1, (w << 1) | 1)]
    words.sort()  # two sorted runs: one merge
    X = _column(words)
    del words
    phi = _stage_edges(state, splits, X, level)
    B = _edge_columns(phi)
    del phi
    chain = _advanced_chain(state, splits)
    del splits
    A = _pair_columns(sorted(chain))
    del chain
    out = ApproxState._from_columns(state.family, level, X, *A, None, *B)
    out.E_sorted = _splitting_column(out)
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
        table = SuccessorTable.of_columns(state.A_src, state.A_dst)
        depth = table.uogas_depths(state.X_sorted)
        if depth is None:
            depth = table.depths()
            graph = FiniteOrientedGraph(state.X_sorted, zip(state.A_src, state.A_dst))
            for clause, witness in validate_uogas(graph).violations:
                report.add(clause, (lvl, *_rendered(witness)))
        for y, x, n in _a_pairs(state):
            if n is None:
                report.add("contained-in-edge-set", (lvl, code_str(y), code_str(x)))
        bound = max(lvl, 1)
        if depth and max(depth.values()) > bound:
            for w in state.X_codes:
                d = depth.get(w)
                if d is not None and d > bound:
                    report.add("chain-length-bound", (lvl, code_str(w), d))
        del table, depth  # before the next, larger stage builds its own
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
        succ = SuccessorTable.of_columns(state.A_src, state.A_dst).succ
        limit = len(state.X_sorted)
        # B is sorted by pair, so the edges are reported in pair order.
        for y, x, witness in zip(state.B_src, state.B_dst, state.B_wit):
            # A one-step edge walks [witness], which breaks no clause; a loop,
            # and any edge when X is empty, still fails target-on-chain.
            if x != y and limit and succ.get(y) == x:
                continue
            # Walk at most |X| steps from y until x; the first step outside
            # the edge set counts only if the walk reaches x.
            walked, gap, v = [], None, y
            while x != y and v in succ and len(walked) < limit:
                u, v = v, succ[v]
                value = _witness(state, u, v)
                if value is None and gap is None:
                    gap = (u, v)
                walked.append(value)
                if v == x:
                    break
            if x == y or v != x:
                report.add("target-on-chain", (lvl, code_str(y), code_str(x)))
            elif gap is not None:
                report.add("chain-step-in-edge-set", (lvl, code_str(gap[0]), code_str(gap[1])))
            else:
                if walked[-1] != witness or min(walked) != witness:
                    report.add("landing-index-minimal",
                               (lvl, code_str(y), code_str(x), tuple(walked), witness))
                if len(set(walked)) != len(walked):
                    report.add("index-injective", (lvl, code_str(y), code_str(x), tuple(walked)))
        del succ  # before the next, larger stage builds its own
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
        witness = _witness(state, source, target)
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
    """Prefix-freeness plus exact total measure one, on word codes in any
    order, with repeats.

    Those hold exactly when the words are the leaves of a full binary tree:
    merging sibling pairs into their parents, longest words first, must
    always find both siblings and end at the empty word.  Each length's
    parents, merged in order with the words of that length, must read as
    sibling pairs: a repeat, or a word that is also a parent, breaks the
    pattern, as the merged list is sorted.  A parent is kept as its
    leftmost descendant of the longest length, p << shift, so the longest
    words are never copied into new ints, and a sorted column or list (a
    stage's X_sorted) is read in place; any other input is sorted first.
    """
    if not isinstance(codes, (array, list, tuple)) or any(map(lt, codes[1:], codes)):
        codes = sorted(codes)
    hi = len(codes)
    top = code_len(codes[-1]) if hi else 0
    lo = bisect_left(codes, 1 << top, 0, hi)
    nodes = codes[lo:hi]  # the words of the longest length
    for shift in range(top):
        # Siblings p, p ^ 1 sit at q and q ^ (1 << shift); in sorted order
        # that is the next code only when q has that bit clear.
        if len(nodes) & 1 or not all(map(eq, map(xor, nodes[::2], itertools.repeat(1 << shift)),
                                         nodes[1::2])):
            return False
        nodes = nodes[::2]  # the parents
        hi, lo = lo, bisect_left(codes, 1 << (top - shift - 1), 0, lo)
        if lo < hi:  # words as long as the parents
            nodes = sorted(itertools.chain([w << (shift + 1) for w in codes[lo:hi]], nodes))
    return lo == 0 and list(nodes) == [1 << top]


def is_maximal_antichain(words) -> bool:
    """Prefix-freeness plus exact total measure one."""
    return is_maximal_antichain_codes(w.code for w in words)


def state_json(state: ApproxState) -> dict:
    """Plain-data snapshot of one stage, ready for json.dump."""
    return {
        "level": state.level,
        "X": [code_str(w) for w in state.X_sorted],
        "B": [[code_str(y), code_str(x), n]
              for y, x, n in zip(state.B_src, state.B_dst, state.B_wit)],
        "A": [[code_str(y), code_str(x)] for y, x in zip(state.A_src, state.A_dst)],
        "E": [code_str(w) for w in state.E_sorted],
    }


# Rendered items joined into one piece of a stage file.
CHUNK_ITEMS = 4096

# What a stage file puts between two words of a list, and between the two
# words of a pair, laid out as json.dumps(..., indent=2) does.
_WORD_SEP = '",\n    "'
_PAIR_SEP = '",\n      "'


def _words(codes):
    """The 0/1 strings of word codes, one C call chain for the lot."""
    return map(itemgetter(slice(3, None)), map(bin, codes))


def _slices(size: int, *columns):
    """The columns, of one length, cut into runs of `size` rows."""
    return (tuple(c[i:i + size] for c in columns) for i in range(0, len(columns[0]), size))


def _word_texts(codes, size: int) -> list:
    """The text of each run of `size` words of the sorted column `codes`,
    quoted and joined as in a stage file's word list."""
    return [f'"{_WORD_SEP.join(_words(run))}"' for run, in _slices(size, codes)]


class _EdgeEnds(dict):
    """witness -> what closes a B item after its target word, made once."""

    def __missing__(self, n):
        self[n] = end = f'",\n      {n}\n    ]'
        return end


def _edge_texts(state: ApproxState, size: int):
    """The text of each run of `size` pairs of B, with their witnesses."""
    ends = _EdgeEnds()
    for src, dst, wit in _slices(size, state.B_src, state.B_dst, state.B_wit):
        yield '[\n      "' + ',\n    [\n      "'.join(map("".join, zip(
            _words(src), itertools.repeat(_PAIR_SEP), _words(dst), map(ends.__getitem__, wit))))


def _chain_texts(state: ApproxState, size: int):
    """The text of each run of `size` pairs of A."""
    for src, dst in _slices(size, state.A_src, state.A_dst):
        yield ('[\n      "' + '"\n    ],\n    [\n      "'.join(map(_PAIR_SEP.join, zip(
            _words(src), _words(dst)))) + '"\n    ]')


def _split_texts(state: ApproxState, x_texts: list, size: int) -> list:
    """E's texts, cut from X's: each run of X whose words are all in E gives
    its text as it is, a run that holds fewer words of E is rendered again
    through a filter, and a run with none of them gives nothing.  E is
    rendered on its own when one of its words is not on X (a hand-made
    stage)."""
    X, E = state.X_sorted, state.E_sorted
    texts, cut = [], 0
    for text, (xs,) in zip(x_texts, _slices(size, X)):
        lo = bisect_left(E, xs[0])
        hi = bisect_right(E, xs[-1], lo)
        es = E[lo:hi]
        if es == xs:
            texts.append(text)
        elif es:
            kept = list(filter(set(es).__contains__, xs))
            if len(kept) < len(es):
                return _word_texts(E, size)
            texts.append(f'"{_WORD_SEP.join(_words(kept))}"')
        cut += hi - lo
    return texts if cut == len(E) else _word_texts(E, size)


def _list_pieces(key: str, texts):
    """One stage-file list from the texts of its runs of items.  No text is
    kept past its piece, so a run rendered for one piece is freed before
    the next one is rendered."""
    heads = itertools.chain([f',\n  "{key}": [\n    '], itertools.repeat(",\n    "))
    empty = True
    for piece in map(str.__add__, heads, texts):
        yield piece
        empty = False
    yield f',\n  "{key}": []' if empty else "\n  ]"


def state_chunks(state: ApproxState):
    """The stage file, `json.dumps(state_json(state), indent=2)` and a
    newline, written straight from the columns, which are already in the
    file's order, in pieces of at most CHUNK_ITEMS items.  Words are 0/1
    strings and witnesses ints, so no item needs escaping, and json's
    pure-Python indent encoder is skipped.  Each piece is one str.join over
    C iterators, with no Python frame per item; X's texts are kept until
    E's are cut from them (1.1 MiB at stage 16)."""
    size = CHUNK_ITEMS
    x_texts = _word_texts(state.X_sorted, size)
    yield f'{{\n  "level": {state.level}'
    yield from _list_pieces("X", x_texts)
    yield from _list_pieces("B", _edge_texts(state, size))
    yield from _list_pieces("A", _chain_texts(state, size))
    yield from _list_pieces("E", _split_texts(state, x_texts, size))
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
