"""The indexed family of coordinate-rearranging partial maps on sequence space.

Map (L, n) is defined on points extending the level-n seed word followed by 0;
it forces a 1 at the stride coordinate and reads every other output coordinate
from the input through the stride-local index expansion.  Everything a caller
can ask is finitary: single output coordinates, compositions evaluated by
threading one coordinate through the expansion chain, exact clopen images and
preimages, and edge decisions between cylinders.

A point is finitely many explicit bits over a constant tail, so every
point-level domain check is exact.  The one check that is not is
_check_composition_stages: it checks the inputs of a composition's inner
stages on the seed word's distinguishing positions only.
"""

from __future__ import annotations

from .cylinders import (
    EMPTY_SET,
    LazyPoint,
    SymbolicClopen,
    atom_const,
    atom_ne,
)
from .errors import InvalidArgument, OutsideDomain
from .sequences import (
    BinWord,
    anchor_bit,
    anchor_word,
    expand_index_inverse,
    lenlex_word,
    padded_word,
    stride,
    stride_expand,
)

EDGE_YES = "yes"
EDGE_NO = "no"
EDGE_UNKNOWN = "unknown-at-this-precision"


class MapId:
    """Names one map of the family: level L >= 1 and index n >= 0."""

    __slots__ = ("L", "n")

    def __init__(self, L: int, n: int):
        if L < 1:
            raise InvalidArgument("family level must be >= 1")
        if n < 0:
            raise InvalidArgument("map index must be a natural")
        object.__setattr__(self, "L", L)
        object.__setattr__(self, "n", n)

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is frozen: cannot set {name} to {value!r}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.L, self.n) == (other.L, other.n)

    def __hash__(self):
        return hash((self.L, self.n))

    def __repr__(self):
        return f"MapId(L={self.L!r}, n={self.n!r})"


def _as_word(w) -> BinWord:
    if isinstance(w, BinWord):
        return w
    if isinstance(w, str):
        return BinWord.from_str(w)
    raise InvalidArgument(f"expected a binary word, got {type(w).__name__}")


# ---------------------------------------------------------------------------
# domains


def domain_D(ident: MapId) -> SymbolicClopen:
    """The clopen domain of map (L, n): the seed-word-then-0 cylinder, plus at
    levels >= 2 the n+1 inequality atoms along the powers-of-three ladder.
    """
    return _map_sets(ident.L, ident.n)[0]


# (L, n) -> (domain, range cylinder, seed cylinder) of map (L, n)
_MAP_SETS = {}


def _map_sets(L, n):
    """The domain of map (L, n), the cylinder of its seed word then 1 that
    holds its range, and the cylinder of its seed word then 0.  Clopen sets
    are immutable, so each is built once per (L, n)."""
    sets = _MAP_SETS.get((L, n))
    if sets is None:
        seed = SymbolicClopen(anchor_word(n).append(0))
        domain = seed
        if L >= 2:
            st = stride(n)
            domain = seed.with_atoms([atom_ne(st * 3**m, st * 3 ** (m + 1)) for m in range(n + 1)])
        sets = _MAP_SETS[L, n] = (domain, SymbolicClopen(anchor_word(n).append(1)), seed)
    return sets


def _point_in_seed(n: int, p: LazyPoint) -> bool:
    """Does p extend the level-n seed word followed by 0?  Exact."""
    st = stride(n)
    w = lenlex_word(n)
    if p.default == 0:
        for i, b in enumerate(w.bits()):
            if p.eval(i) != b:
                return False
        for k, v in p.explicit.items():
            if 0 <= k <= st and v != (anchor_bit(n, k) if k < st else 0):
                return False
        return True
    pinned = sum(1 for k in p.explicit if 0 <= k <= st)
    if st + 1 - pinned > sum(w.bits()):
        return False
    return all(
        p.eval(i) == (anchor_bit(n, i) if i < st else 0)
        for i in range(st + 1)
    )


def point_in_domain(ident: MapId, p: LazyPoint) -> bool:
    """Membership of a point in the full domain of map (L, n): the seed
    cylinder and, at levels >= 2, the inequality atoms.  Exact.
    """
    if not _point_in_seed(ident.n, p):
        return False
    if ident.L >= 2:
        st = stride(ident.n)
        vals = [p.eval(st * 3**m) for m in range(ident.n + 2)]
        if any(vals[m] == vals[m + 1] for m in range(ident.n + 1)):
            return False
    return True


def domain_point(ident: MapId, extra=None) -> LazyPoint:
    """A member of the map's domain: the seed bits, alternating bits
    on the powers-of-three ladder when the level asks for them, and any extra
    explicit bits merged last (the caller keeps membership when overriding).
    """
    w = lenlex_word(ident.n)
    bits = {i: 1 for i, b in enumerate(w.bits()) if b}
    if ident.L >= 2:
        st = stride(ident.n)
        for m in range(ident.n + 1):
            bits[st * 3 ** (m + 1)] = (m + 1) % 2
    if extra:
        bits.update(extra)
    return LazyPoint(bits)


# ---------------------------------------------------------------------------
# evaluation


def g_eval_coord(ident: MapId, p: LazyPoint, k: int) -> int:
    """Output coordinate k of map (L, n) applied to p: the forced 1 at the
    stride coordinate, the expanded input coordinate everywhere else.
    """
    if k < 0:
        raise InvalidArgument("coordinates are natural numbers")
    if not _point_in_seed(ident.n, p):
        raise OutsideDomain(
            f"point does not extend the seed word of map ({ident.L},{ident.n})"
        )
    st = stride(ident.n)
    if k == st:
        return 1
    return p.eval(stride_expand(ident.L, ident.n, k))


def g_point(ident: MapId, p: LazyPoint) -> LazyPoint:
    """The image point; raises OutsideDomain up front.

    Exact: stride_expand and _read_inverse are inverse bijections between
    the output coordinates k != stride and the input coordinates the map
    reads.  So an explicit input bit at c lands at _read_inverse(c), or is
    forgotten when that is None; every other k != stride reads a coordinate
    that is not explicit and takes p's default; the stride bit is 1.
    """
    if not _point_in_seed(ident.n, p):
        raise OutsideDomain(
            f"point does not extend the seed word of map ({ident.L},{ident.n})"
        )
    bits = {}
    for c, v in p.explicit.items():
        k = _read_inverse(ident.L, ident.n, c)
        if k is not None:
            bits[k] = v
    bits[stride(ident.n)] = 1
    return LazyPoint(bits, p.default)


def _virtual_eval(L, stages, p, c):
    """Coordinate c of the composition of `stages` applied to p (no checks)."""
    for n in stages:
        if c == stride(n):
            return 1
        c = stride_expand(L, n, c)
    return p.eval(c)


def _seed_check_positions(n):
    """(coordinate, expected bit) pairs that distinguish the seed-then-0 word."""
    st = stride(n)
    if st <= 64:
        return [(i, anchor_bit(n, i)) for i in range(st)] + [(st, 0)]
    w = lenlex_word(n)
    out = [(i, w.bit(i)) for i in range(len(w))]
    out.append((len(w), 0))
    out.append((st, 0))
    return out


def _check_composition_stages(L, stages, p):
    """Verify, innermost first, that each stage's input sits in that stage's
    seed cylinder.  Inner stages are checked on the distinguishing positions
    only (the inputs there are derived points read through the expansion).
    """
    last = len(stages) - 1
    for i in range(last, -1, -1):
        n = stages[i]
        if i == last:
            ok = _point_in_seed(n, p)
        else:
            suffix = stages[i + 1 :]
            ok = all(
                _virtual_eval(L, suffix, p, c) == want
                for c, want in _seed_check_positions(n)
            )
        if not ok:
            raise OutsideDomain(
                f"stage {i} input does not extend the seed word of map ({L},{n})",
                stage=i,
            )


def g_compose_eval(L: int, s, p: LazyPoint, k: int) -> int:
    """Coordinate k of the composition along s (stage 0 outermost, the last
    stage applied to p first).  The coordinate threads through the stages in
    outer-to-inner order: a stride hit returns the forced 1, otherwise the
    coordinate expands and moves one stage inward.
    """
    stages = tuple(s)
    if not stages:
        raise InvalidArgument("empty composition")
    if k < 0:
        raise InvalidArgument("coordinates are natural numbers")
    _check_composition_stages(L, stages, p)
    for n in stages:
        if k == stride(n):
            return 1
        k = stride_expand(L, n, k)
    return p.eval(k)


def check_condition_d(L: int, m: int, n: int, p: LazyPoint, coords) -> bool:
    """Does applying map n and then map m agree with applying map m alone,
    at every coordinate in coords?  Exact at level 1; at higher levels the
    two-step route lands on shifted coordinates and the identity can fail.
    """
    if m >= n:
        raise InvalidArgument("needs m < n")
    return all(
        g_compose_eval(L, (m, n), p, k) == g_compose_eval(L, (m,), p, k)
        for k in coords
    )


# ---------------------------------------------------------------------------
# clopen transport


def _read_inverse(L, n, c):
    """The output coordinate k that reads input coordinate c, or None.

    k is the unique solution of stride_expand(L, n, k) == c, except that the
    stride coordinate never counts: its output bit is forced to 1, so the
    input bit at its expansion target is forgotten by the map.
    """
    st = stride(n)
    if c == 0 or c % st:
        return c
    i = expand_index_inverse(L, c // st)
    if i is None:
        return None
    k = st * i
    return None if k == st else k


def image_clopen(ident: MapId, C: SymbolicClopen) -> SymbolicClopen:
    """Exact image of C under map (L, n).

    C is first restricted to the map's domain (inequality atoms included at
    levels >= 2); a disjoint input yields the empty set.  Constraints of the
    restriction survive exactly when their coordinates are read by some output
    coordinate, and transport along the inverse expansion; constraint classes
    project member by member, so derived equalities carry over.  A
    restriction kept as two ints has no class, so its forced bits move one
    coordinate at a time straight onto the range cylinder's ints.
    """
    L, n = ident.L, ident.n
    domain, range_cyl, _ = _map_sets(L, n)
    C1 = C.intersect(domain)
    if C1.is_empty():
        return EMPTY_SET
    st = stride(n)
    forced = C1.forced_from(st)
    if forced is not None:
        pins = {}
        for c, v in forced:
            k = _read_inverse(L, n, c)
            if k is not None:
                pins[k] = v
        return range_cyl.pinned(pins)
    atoms = []
    for c in range(st, len(C1.base)):
        k = _read_inverse(L, n, c)
        if k is not None:
            atoms.append(atom_const(k, C1.base.bit(c)))
    for const_v, members in C1.classes():
        kept = []
        for c, parity in members:
            k = _read_inverse(L, n, c)
            if k is not None:
                kept.append((k, parity))
        if not kept:
            continue
        if const_v is not None:
            atoms.extend(atom_const(k, const_v ^ parity) for k, parity in kept)
        else:
            k0, p0 = kept[0]
            atoms.extend(("rel", k0, k, p0 ^ parity) for k, parity in kept[1:])
    return range_cyl.with_atoms(atoms)


def preimage_clopen(ident: MapId, C: SymbolicClopen) -> SymbolicClopen:
    """Exact preimage of C under map (L, n), intersected with the map's domain.

    Output-side constraints pull back along the expansion; the forced 1 at the
    stride coordinate either holds in C (no input constraint) or empties the
    preimage outright.  As in image_clopen, the forced bits of a restriction
    kept as two ints move straight onto the seed cylinder's ints.
    """
    L, n = ident.L, ident.n
    domain, range_cyl, seed_cyl = _map_sets(L, n)
    C1 = C.intersect(range_cyl)
    if C1.is_empty():
        return EMPTY_SET
    st = stride(n)
    forced = C1.forced_from(st + 1)
    if forced is not None:
        return seed_cyl.pinned({stride_expand(L, n, c): v for c, v in forced}).intersect(domain)
    atoms = []
    for c in range(st + 1, len(C1.base)):
        atoms.append(atom_const(stride_expand(L, n, c), C1.base.bit(c)))
    for const_v, members in C1.classes():
        mapped = [(stride_expand(L, n, c), parity) for c, parity in members]
        if const_v is not None:
            atoms.extend(atom_const(k, const_v ^ parity) for k, parity in mapped)
        else:
            k0, p0 = mapped[0]
            atoms.extend(("rel", k0, k, p0 ^ parity) for k, parity in mapped[1:])
    return seed_cyl.with_atoms(atoms).intersect(domain)


# ---------------------------------------------------------------------------
# edge decisions


def graph_meets(ident: MapId, y, x) -> bool:
    """Does the graph of map (L, n), restricted to its domain, meet N_y x N_x?

    Decided exactly by joint satisfiability: the y prefix, the domain atoms,
    and one pulled-back constraint per readable x position.
    """
    y = _as_word(y)
    x = _as_word(x)
    L, n = ident.L, ident.n
    st = stride(n)
    if st < len(x) and x.bit(st) == 0:
        return False
    yset = SymbolicClopen(y).intersect(domain_D(ident))
    if yset.is_empty():
        return False
    atoms = []
    for k in range(len(x)):
        if k == st:
            continue
        atoms.append(atom_const(stride_expand(L, n, k), x.bit(k)))
    return not yset.with_atoms(atoms).is_empty()


def is_G0_edge(a, b) -> str:
    """Edge decision for the dense-word digraph, from two finite prefixes.

    "yes" when some level's full edge pattern is visible inside the prefixes:
    the level word is a common prefix, a continues with 0 and b with 1, and
    the visible tails agree.  "no" when every level is refuted.  Comparable
    prefixes can never refute every level, so they answer "unknown".
    """
    a = _as_word(a)
    b = _as_word(b)
    lo = min(len(a), len(b))
    for n in range(lo):
        if (
            a.bit(n) == 0
            and b.bit(n) == 1
            and a.prefix(n) == padded_word(n) == b.prefix(n)
            and all(a.bit(i) == b.bit(i) for i in range(n + 1, lo))
        ):
            return EDGE_YES
    if a.prefix(lo) == b.prefix(lo):
        return EDGE_UNKNOWN
    for n in range(max(len(a), len(b)) + 1):
        if _pattern_compatible(a, b, n):
            return EDGE_UNKNOWN
    return EDGE_NO


def _pattern_compatible(a, b, n):
    """Could extensions of (a, b) realize the level-n edge pattern?"""
    w = padded_word(n)
    if not _compat(a, w.append(0)) or not _compat(b, w.append(1)):
        return False
    return all(a.bit(i) == b.bit(i) for i in range(n + 1, min(len(a), len(b))))


def _compat(u, v):
    m = min(len(u), len(v))
    return u.prefix(m) == v.prefix(m)
