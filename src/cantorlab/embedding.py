"""Clopen assignments on successor graphs and the nested cell scheme.

The working objects are mapping-tuple assignments: a finite successor graph
together with a map strength u(x) and a nonempty clopen cell V(x) per vertex.
Membership tests (exact-image and contained-image form), two refinement
passes, and the copy-splitting construction operate on assignments; on top of
them build_scheme grows the level-by-level cell system whose nested chains
evaluate a point embedding.
"""

from .approximation import detect_L_n, run
from .cylinders import LazyPoint, SymbolicClopen, FULL_SPACE
from .errors import (
    CapExceeded,
    EmptyRefinement,
    EmptySet,
    InvalidArgument,
    InvalidLevel,
    InvariantBroken,
    NotFoundWithinBudget,
    PrefixTooShort,
)
from .maps import MapId, _read_inverse, domain_D, image_clopen, preimage_clopen
from .orientedgraphs import (
    DUPLICATION_CAP,
    CheckReport,
    FiniteOrientedGraph,
    chain_table,
    components,
    pred,
    succ,
)
from .sequences import BinWord, anchor_word, code_is_prefix, stride, stride_expand

__all__ = [
    "CantorInstance",
    "MappingTupleAssignment",
    "SchemeState",
    "build_scheme",
    "check_scheme_conditions",
    "h_eval",
    "in_E",
    "in_U",
    "lemma25_check",
    "lemma26_find",
    "refine_45",
    "refine_46",
    "scheme_state_json",
    "shrink_47",
]


# The coordinate searches of the scheme construction (split coordinates,
# separating coordinates, a point avoiding placed points) stop here.
POINT_PROBE_BITS = 4096


# ---------------------------------------------------------------------------
# instances


class CantorInstance:
    """Binary sequence space carrying the stride maps: an indexed family of
    partial clopen-to-clopen maps.

    Its methods are what the refinement passes and the splitting
    construction consume: per-index domains, exact images and preimages of
    cells, and the coordinates that split distinct preimages of a single
    point.  point_preimage and cell_pinned extend that minimal surface: the
    splitting construction needs to aim a preimage at a given point and to
    carve a cell around a given point, and neither is expressible through
    the other operations.

    Cells are SymbolicClopen values, points are LazyPoint values, and every
    operation is exact; nothing is sampled.  `family` picks the expansion
    discipline of the underlying maps (1 is the plain doubling expansion).
    """

    __slots__ = ("family",)

    def __init__(self, family: int = 1):
        if family < 1:
            raise InvalidLevel("family level must be >= 1")
        self.family = family

    def _ident(self, n) -> MapId:
        return MapId(self.family, n)

    def domain(self, n) -> SymbolicClopen:
        return domain_D(self._ident(n))

    def image(self, n, C) -> SymbolicClopen:
        return image_clopen(self._ident(n), C)

    def preimage(self, n, C) -> SymbolicClopen:
        return preimage_clopen(self._ident(n), C)

    def _split_coords(self, n, C, count):
        """The coordinates that split `count` preimages in C under map n.

        They are the first (count - 1).bit_length() coordinates, in
        increasing order, that are free in C cut to the map's domain, in no
        class of it, unread by map n and not a stride coordinate of the
        materializable maps: leaving those untouched keeps every later
        pairing stage satisfiable.
        """
        if count < 1:
            raise InvalidArgument("count must be positive")
        C1 = C.intersect(domain_D(self._ident(n)))
        if C1.is_empty():
            raise EmptySet("the cell misses the map's domain")
        if count > DUPLICATION_CAP:
            raise CapExceeded(f"{count} preimages exceed the cap {DUPLICATION_CAP}")
        need = (count - 1).bit_length()
        linked = set(C1.constrained_coords())
        avoid = _stride_coords()
        coords = []
        c = 0
        while len(coords) < need:
            if c > POINT_PROBE_BITS:
                raise NotFoundWithinBudget(
                    "ran out of probe budget hunting unread free coordinates"
                )
            if (
                c not in avoid
                and C1.forced(c) is None
                and c not in linked
                and _read_inverse(self.family, n, c) is None
            ):
                coords.append(c)
            c += 1
        return coords

    def point_preimage(self, n, C, target) -> LazyPoint:
        """A point of C mapping exactly to `target` under map n.

        Each explicit target bit at k != stride moves to stride_expand(k),
        a witness w of C cut to the map's domain keeps its explicit bits
        where _read_inverse is None, and the tail is the target's default.
        As in g_point, the two are inverse bijections off the stride, so
        the image is the target at every k != stride, and the target check
        covers the forced 1 at the stride.  w's explicit bits cover every
        coordinate that C cut to the domain constrains, so an unread
        coordinate w leaves free may take any default; for a default-0
        target the result is w at every unread coordinate.  The membership
        check below decides whether the read bits keep the result in C.
        """
        ident = self._ident(n)
        C1 = C.intersect(domain_D(ident))
        if C1.is_empty():
            raise EmptySet("the cell misses the map's domain")
        out_base = anchor_word(n).append(1)
        for i in range(len(out_base)):
            if target.eval(i) != out_base.bit(i):
                raise InvalidArgument("the target is not an image of the cell")
        fam = self.family
        bits = {
            c: v
            for c, v in C1.witness_point().explicit.items()
            if _read_inverse(fam, n, c) is None
        }
        st = stride(n)
        for k, v in target.explicit.items():
            if k != st:
                bits[stride_expand(fam, n, k)] = v
        p = LazyPoint(bits, target.default)
        if not C.contains(p):
            raise InvalidArgument("the target is not an image of the cell")
        return p

    def cell_pinned(self, C, p, coords) -> SymbolicClopen:
        """A clopen neighbourhood of p inside C fixing the given coordinates.

        Pinning only the listed coordinates keeps the rest of the cell free,
        which the level scheme depends on (a later pairing stage must still
        find room at the coordinate its map forces).
        """
        bits = {}
        for i in sorted(set(coords)):
            bit = p.eval(i)
            f = C.forced(i)
            if f is None:
                bits[i] = bit
            elif f != bit:
                raise InvalidArgument("the point is not in the cell")
        out = C.pinned(bits)
        if out.is_empty():
            raise InvalidArgument("the point is not in the cell")
        return out


# ---------------------------------------------------------------------------
# assignments and membership


class MappingTupleAssignment:
    """A successor graph with a strength and a nonempty cell per vertex."""

    __slots__ = ("graph", "instance", "u", "V")

    def __init__(self, graph: FiniteOrientedGraph, instance: CantorInstance, u, V):
        self.graph = graph
        self.instance = instance
        self.u = dict(u)
        self.V = dict(V)
        for x in graph.vertices:
            if x not in self.u:
                raise InvalidArgument(f"no strength for vertex {x!r}")
            if self.u[x] < 0:
                raise InvalidArgument("strengths are natural numbers")
            cell = self.V.get(x)
            if cell is None:
                raise InvalidArgument(f"no cell for vertex {x!r}")
            if cell.is_empty():
                raise InvalidArgument(f"the cell at {x!r} is empty")

    def __repr__(self):
        return (
            f"MappingTupleAssignment({len(self.graph.vertices)} vertices, "
            f"{len(self.graph.edges)} edges)"
        )


def in_E(assignment: MappingTupleAssignment) -> bool:
    """Exact-image membership: every edge's source cell sits in its map's
    domain and pushes forward onto the target cell with equality.
    """
    inst = assignment.instance
    for y, x in assignment.graph.edges:
        n = assignment.u[y]
        Vy, Vx = assignment.V[y], assignment.V[x]
        if not Vy.subset(inst.domain(n)):
            return False
        img = inst.image(n, Vy)
        if not (Vx.subset(img) and img.subset(Vx)):
            return False
    return True


def in_U(assignment: MappingTupleAssignment) -> bool:
    """Contained-image membership: target cells sit inside the pushforward."""
    inst = assignment.instance
    for y, x in assignment.graph.edges:
        n = assignment.u[y]
        Vy = assignment.V[y]
        if not Vy.subset(inst.domain(n)):
            return False
        if not assignment.V[x].subset(inst.image(n, Vy)):
            return False
    return True


# ---------------------------------------------------------------------------
# refinement passes


def _chain_cut(instance, u, V, succ_of, x, W):
    """x's cell as refine_45 leaves it, worked out along x's own successor
    chain: below the maximum, each cell is cut to the preimage of its
    successor's cut.  W holds the cuts made so far and gains the chain's."""
    chain = [x]
    while chain[-1] not in W and chain[-1] in succ_of:
        chain.append(succ_of[chain[-1]])
    top = chain.pop()
    cell = W.setdefault(top, V[top])
    for v in reversed(chain):
        cell = V[v].intersect(instance.preimage(u[v], cell))
        if cell.is_empty():
            raise EmptyRefinement(f"chain refinement emptied the cell at {v!r}")
        W[v] = cell
    return cell


def refine_45(assignment: MappingTupleAssignment):
    """Pull every cell back along its successor chain.

    Maximal vertices keep their cells; below, each cell is cut to the
    preimage of the refined successor cell, walking away from the maxima, so
    the result carries exact images along every edge.  Needs contained-image
    membership to stay nonempty; an emptied cell raises EmptyRefinement.
    """
    G, inst, u = assignment.graph, assignment.instance, assignment.u
    table, _ = chain_table(G)
    W = {}
    for v in G.vertices:
        _chain_cut(inst, u, assignment.V, table.succ, v, W)
    return MappingTupleAssignment(G, inst, u, W)


def refine_46(assignment: MappingTupleAssignment, x0, W0):
    """Propagate a refined pivot cell through the pivot's component.

    Away from the pivot the new cell is the image of the refined neighbour
    when the edge points outward, and the preimage cut when it points back.
    Vertices outside the pivot's component are untouched.  Needs exact-image
    membership and a nonempty W0 inside the pivot's cell.
    """
    if x0 not in assignment.graph.vertices:
        raise InvalidArgument(f"{x0!r} is not a vertex")
    if W0.is_empty():
        raise InvalidArgument("the pivot's refined cell must be nonempty")
    if not W0.subset(assignment.V[x0]):
        raise InvalidArgument("the refined cell must sit inside the pivot's cell")
    inst = assignment.instance
    G = assignment.graph
    W = dict(assignment.V)
    W[x0] = W0
    seen = {x0}
    queue = [x0]
    while queue:
        y = queue.pop(0)
        for v in sorted(succ(G, y) | pred(G, y), key=repr):
            if v in seen:
                continue
            seen.add(v)
            if (y, v) in G.edges:
                W[v] = inst.image(assignment.u[y], W[y])
            else:
                W[v] = assignment.V[v].intersect(inst.preimage(assignment.u[v], W[y]))
            if W[v].is_empty():
                raise EmptyRefinement(f"component refinement emptied the cell at {v!r}")
            queue.append(v)
    return MappingTupleAssignment(assignment.graph, inst, assignment.u, W)


# ---------------------------------------------------------------------------
# the splitting construction


def _stride_coords() -> frozenset:
    """Stride coordinates of the maps small enough to materialize.

    The scheme's pairing stages force these output coordinates, so the
    construction never pins them of its own accord: a cell whose stride
    coordinate is already fixed can no longer pair with itself there.
    """
    out = []
    n = 0
    while True:
        s = stride(n)
        if s > POINT_PROBE_BITS:
            break
        out.append(s)
        n += 1
    return frozenset(out)


def _separators(points, d):
    """Per-point pin sets making the listed points' cells pairwise disjoint:
    coordinates 0..d-1 plus the first differing coordinate of every pair.

    Those first differences are the branch points of the points' binary
    trie, so the points are split group by group, one coordinate at a time:
    a group that meets both bits at c adds c to each member's pins, and a
    group of one drops out.
    """
    pins = [set(range(d)) for _ in points]
    groups = [list(range(len(points)))] if len(points) > 1 else []
    for c in range(POINT_PROBE_BITS):
        if not groups:
            break
        split = []
        for group in groups:
            halves = ([], [])
            for i in group:
                halves[points[i].eval(c)].append(i)
            if halves[0] and halves[1]:
                for i in group:
                    pins[i].add(c)
            split.extend(h for h in halves if len(h) > 1)
        groups = split
    if groups:
        raise NotFoundWithinBudget(f"no separating coordinate below {POINT_PROBE_BITS}")
    return pins


def _counter_pins(coords, count, j):
    """Split point j's pins in _separators(points, 0), as bits: coords[t]
    when (j mod 2^t) + 2^t < count, as shrink_47's docstring argues."""
    return {c: (j >> t) & 1 for t, c in enumerate(coords) if j % (1 << t) + (1 << t) < count}


def _counter_index(q, coords, count):
    """The index of the split cell that holds q, for q in the cell being
    split, read off q's bits as shrink_47's docstring argues."""
    r = t = 0
    while r + (1 << t) < count:
        r |= q.eval(coords[t]) << t
        t += 1
    return r


def _point_avoiding(cell: SymbolicClopen, placed) -> LazyPoint:
    """A member of the cell that differs from every listed point the cell
    contains, built by flipping one fresh free coordinate per such point."""
    w = cell.witness_point()
    if not placed:
        return w
    linked = set(cell.constrained_coords())
    avoid = _stride_coords()
    bits = {}
    c = 0
    for q in placed:
        if not cell.contains(q):
            continue
        while cell.forced(c) is not None or c in linked or c in bits or c in avoid:
            c += 1
            if c > POINT_PROBE_BITS:
                raise NotFoundWithinBudget("ran out of free coordinates to flip")
        bits[c] = 1 - q.eval(c)
    return w.with_bits(bits)


def shrink_47(assignment: MappingTupleAssignment, d: int):
    """Shrink a contained-image assignment to exact images on pairwise
    disjoint cells of diameter at most 2^-d.

    The full copy-splitting construction processes the vertices by chain
    depth, read off one successor table.  It splits each copy vp of a
    non-maximal vertex into |X| fresh copies around distinct preimages of a
    common target point, and cuts every other fresh copy of vp's cone to the
    preimage of its successor's new cell.  Then it chooses one copy per
    vertex, from the maxima down, whose cell holds no point placed so far.
    Only that branch reaches the result, so this builds the branch alone, in
    one walk of the order:
    - a maximal vertex takes its refine_45 cell, seed(v);
    - any other vertex v, with successor s, takes C = seed(v), cut to
      f^-1(chosen cell of s) when s is not maximal (f is map u(v)), and then
      the first of C's |X| split cells (below) that holds no placed point;
    - v's point is a preimage of s's point in that cell.
    Separating neighbourhoods around the chosen points and a final chain
    refinement give the result.

    C's split cells surround |X| split points of C in f's domain, never
    built, that agree except at the increasing coordinates c_0 < c_1 < ...
    that _split_coords hunts, once per distinct f and C (equal cells have
    equal normal forms, and |X| is fixed within the call), point j carrying
    bit t of j at c_t; they share their image under f.  Cell j pins C at
    point j's bits where _separators(points, 0) would: two points first
    differ at c_t for the lowest bit t where their indices differ, and the
    trie group reaching c_t with point j holds the indices below |X| that
    share j's low t bits, r + m 2^t for r = j mod 2^t and m = 0, 1, ...; it
    meets bit 0 at c_t in r and bit 1 exactly when it holds r + 2^t.  So j
    is pinned at c_t exactly when r + 2^t < |X| (_counter_pins).

    The branch is the one the full construction chooses:
    - a split's cone holds exactly the copies whose chain passes through
      the split copy, so v's copies are recut only at splits on v's own
      chain;
    - each recut gives old & f^-1(cell of the successor copy), and a
      successor copy's cell only shrinks, so every copy of v with successor
      copy s' has the cell seed(v) & f^-1(cell(s')); equal sets have equal
      normal forms, so the two cells are the same value;
    - the cell of s' is final when s' is made, because no later split's
      cone holds s's base;
    - the copies of v under s' are the |X| fresh copies of one split of v,
      in label order, and carry that cell's split cells in index order;
    - when s is maximal, refine_45 has already put seed(v) inside
      f^-1(seed(s)), so the cut is skipped.

    Images stay exact along the branch, so each chosen cell holds a
    preimage of its successor's point:
    - the input has contained images, so refine_45 leaves exact ones;
    - s's chosen cell B lies in seed(s), which is f(seed(v)), so C has
      the image f(seed(v)) & B = B;
    - the split points differ only at coordinates free in C, linked to no
      other and unread by f, and only those are pinned, so every split cell
      has the whole image of C, B again.

    The split cells partition C, so only the first free one is built,
    found from the placed points' bits.  Every inner trie node splits both
    ways, so a point q of C walks one path down: from r = t = 0, while
    r + 2^t < |X|, add q(c_t) 2^t to r and 1 to t (_counter_index).  The
    path's c_t are cell r's pins, so that cell holds q.  Any other j < |X|
    first differs from r at a bit t on the path, as the walk stops at r
    alone; r and j share their low t bits and one has bit t set, so both
    are pinned at c_t, to different bits, and j's cell misses q.  A placed
    point outside C is in no split cell, so the first free cell is the
    least index that no placed point of C hits; at the i-th vertex of the
    order i < |X| points are placed, so one is free.
    """
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

    # one cell and one point per vertex, from the maxima down
    split_coords = {}
    chosen = {}
    zpt = {}
    placed = []
    for v in order:
        nxt = table.succ.get(v)
        if nxt is None:
            cell = seed.V[v]
            z = _point_avoiding(cell, placed)
        else:
            n = u[v]
            C = seed.V[v]
            if nxt in table.succ:
                C = C.intersect(inst.preimage(n, chosen[nxt]))
                if C.is_empty():
                    raise EmptyRefinement(f"the cut emptied the cell at {v!r}")
            coords = split_coords.get((n, C))
            if coords is None:
                coords = split_coords[n, C] = inst._split_coords(n, C, L)
            hit = {_counter_index(q, coords, L) for q in placed if C.contains(q)}
            j = min(set(range(L)) - hit)
            pins = _counter_pins(coords, L, j)
            cell = inst.cell_pinned(C, LazyPoint(pins), pins)
            z = inst.point_preimage(n, cell, zpt[nxt])
        chosen[v] = cell
        zpt[v] = z
        placed.append(z)

    pins = _separators([zpt[v] for v in order], d)
    O = {v: inst.cell_pinned(chosen[v], zpt[v], pn) for v, pn in zip(order, pins)}

    # a vertex's predecessors sit at smaller distances, so they are done
    distance = table.distances()
    U = {}
    for v in sorted(order, key=lambda t: distance.get(t, 1)):
        cell = O[v]
        for y in table.preds.get(v, ()):
            cell = cell.intersect(inst.image(u[y], U[y]))
        if cell.is_empty():
            raise EmptyRefinement(f"predecessor images emptied the cell at {v!r}")
        if not cell.contains(zpt[v]):
            raise InvariantBroken(f"the refined cell at {v!r} lost its chosen point")
        U[v] = cell
    return refine_45(MappingTupleAssignment(G, inst, u, U))


# ---------------------------------------------------------------------------
# the two pairing facts


def lemma25_check(instance, V0, V1, m, n) -> bool:
    """Weaker-map image comparison: with V0 in both domains and V1 caught
    between the stronger image and the weaker domain, does the weaker image
    of V1 land inside the weaker image of V0?
    """
    if m >= n:
        raise InvalidArgument("the first strength must be the smaller one")
    if not V0.subset(instance.domain(m)) or not V0.subset(instance.domain(n)):
        raise InvalidArgument("V0 must sit in both domains")
    if not V1.subset(instance.image(n, V0)):
        raise InvalidArgument("V1 must sit in the stronger image of V0")
    if not V1.subset(instance.domain(m)):
        raise InvalidArgument("V1 must sit in the weaker domain")
    return instance.image(m, V1).subset(instance.image(m, V0))


# Bounded search over map indices (only maps 0 and 1 act on materializable words).
MAP_SEARCH_MAX = 1


def lemma26_find(instance, V, m=None):
    """A map strength above m whose graph meets V x V, with witnessing cells.

    Returns (n, V0, V1) with V0 inside V and the n-th domain and V1 inside V
    and the image of V0.  The search stops at strength MAP_SEARCH_MAX;
    running past it raises NotFoundWithinBudget rather than pretending
    exhaustion.
    """
    if V.is_empty():
        raise EmptySet("the empty set pairs with nothing")
    if m is not None and m < 0:
        raise InvalidArgument("the lower bound is a natural number or None")
    start = 0 if m is None else m + 1
    for n in range(start, MAP_SEARCH_MAX + 1):
        V0 = V.intersect(instance.domain(n))
        if V0.is_empty():
            continue
        V1 = V.intersect(instance.image(n, V0))
        if V1.is_empty():
            continue
        return n, V0, V1
    raise NotFoundWithinBudget(
        f"no strength in [{start}, {MAP_SEARCH_MAX}] pairs the cell with itself"
    )


# ---------------------------------------------------------------------------
# the level scheme


class SchemeState:
    """One level of the cell scheme: cells per level word, strengths so far."""

    __slots__ = ("level", "cells", "phi")

    def __init__(self, level: int, cells, phi):
        self.level = level
        self.cells = dict(cells)
        self.phi = dict(phi)

    def __eq__(self, other):
        if not isinstance(other, SchemeState):
            return NotImplemented
        return (
            self.level == other.level
            and self.cells == other.cells
            and self.phi == other.phi
        )

    __hash__ = None

    def __repr__(self):
        return f"SchemeState(level={self.level}, cells={len(self.cells)}, phi={self.phi})"


def _scheme_strengths(state, succ, sphi):
    """Strength per non-maximal level word, through the assigned table."""
    u = {}
    for y, x in succ.items():
        idx = state.phi.get((y, x))
        if idx is None or idx not in sphi:
            raise InvalidLevel(
                f"level {state.level}: no assigned strength for the pair "
                f"({y}, {x})"
            )
        u[y] = sphi[idx]
    return u


def build_scheme(instance, depth: int):
    """Grow the nested cell scheme level by level.

    Level 0 assigns the full space to the empty word.  Each step seeds the
    next level's cells from the parents.  At an anchor splitting level it
    cuts the anchor word's cell back along its chain, as refine_45 over the
    level would, assigns the next map strength from that cell (searching
    upward from the strengths used so far), and gives the anchor's children
    the freshly paired cells and the chain words behind the new anchor pair
    transported images.  It then runs the splitting construction groupwise
    so that all postconditions hold with cells cut below 2^-(level word
    length).
    """
    if depth < 0:
        raise InvalidLevel("depth must be a natural number")
    if instance.family != 1:
        raise InvalidLevel("the scheme is built over the family-1 maps")
    approx = run(1, depth)
    event_at = {lvl: n for n, lvl in detect_L_n(approx).items()}
    sphi = {}
    cells = {BinWord(): FULL_SPACE}
    states = [SchemeState(0, cells, sphi)]
    for l in range(depth):
        st_l, st_n = approx[l], approx[l + 1]
        succ_n = dict(st_n.A)
        V = {}
        parent = {}
        for x in sorted(st_n.X, key=lambda t: t.code):
            parent[x] = x if x in st_l.X else x.prefix(len(x) - 1)
            V[x] = cells[parent[x]]
        r = event_at.get(l)
        if r is not None:
            succ_l = dict(st_l.A)
            u_l = _scheme_strengths(st_l, succ_l, sphi)
            tr = anchor_word(r)
            prev = max(sphi.values()) if sphi else None
            cut = _chain_cut(instance, u_l, cells, succ_l, tr, {})
            t0, t1 = tr.append(0), tr.append(1)
            sphi[r], V[t0], V[t1] = lemma26_find(instance, cut, prev)
            y = t1
            while y in succ_n:
                V[succ_n[y]] = instance.image(u_l[parent[y]], V[y])
                y = succ_n[y]

        u_n = {}
        next_phi = _scheme_strengths(st_n, succ_n, sphi)
        for x in st_n.X:
            u_n[x] = next_phi.get(x, 0)

        # group the level's components so that words sharing a parent are
        # split inside one call; cross-group cells live in disjoint parents,
        # so the order of the calls changes no cell
        by_parent = {}
        for x in st_n.X:
            by_parent.setdefault(parent[x], []).append(x)
        sibling_links = {(sibs[0], other) for sibs in by_parent.values() for other in sibs[1:]}
        groups = components(FiniteOrientedGraph(st_n.X, st_n.A | sibling_links))
        d_lvl = max(len(x) for x in st_n.X)
        new_cells = {}
        for members in groups:
            sub = FiniteOrientedGraph(
                members, {(y, succ_n[y]) for y in members if y in succ_n}
            )
            part = MappingTupleAssignment(
                sub, instance, {x: u_n[x] for x in members}, {x: V[x] for x in members}
            )
            done = shrink_47(part, d_lvl)
            new_cells.update(done.V)
        for x in st_n.X:
            if not new_cells[x].subset(cells[parent[x]]):
                raise InvariantBroken(f"level {l + 1} cell of {x} is not inside its parent's cell")
        cells = new_cells
        states.append(SchemeState(l + 1, cells, sphi))
    return states


def h_eval(states, alpha_prefix):
    """The chain of scheme cells along a point's branch, one per level.

    Raises PrefixTooShort as soon as some level's word on the branch is not
    determined by the given bits.
    """
    w = BinWord.from_str(alpha_prefix) if isinstance(alpha_prefix, str) else alpha_prefix
    chain = []
    for st in states:
        member = None
        for x in sorted(st.cells, key=lambda t: t.code):
            if x.is_prefix_of(w):
                member = x
                break
        if member is None:
            raise PrefixTooShort(
                f"level {st.level} of the scheme needs more than {len(w)} bits"
            )
        chain.append((member, st.cells[member]))
    return chain


def _meeting_pairs(cells):
    """The pairs of words whose cells meet, each pair and the list in
    word-code order.

    Every member of a cell extends its normalized base, so cells whose bases
    are prefix-incomparable are disjoint.  One walk of the bases in text
    order, where a word comes right before its extensions, keeps the chain of
    bases that prefix the current one on a stack, and only those pairs are
    tested with meets.  Empty cells meet nothing.
    """
    pairs, chain = [], []
    live = [(str(b), b.code, x, c) for x, c in cells.items() if not c.empty for b in (c.base,)]
    for _, code, x, cell in sorted(live, key=lambda t: t[0]):
        while chain and not code_is_prefix(chain[-1][0], code):
            chain.pop()
        for _, y, other in chain:
            if cell.meets(other):
                pairs.append((y, x) if y.code < x.code else (x, y))
        chain.append((code, x, cell))
    pairs.sort(key=lambda p: (p[0].code, p[1].code))
    return pairs


def check_scheme_conditions(states, instance):
    """Every per-level invariant of the scheme, reported clause by clause.

    Clauses: cells match the level words; nesting into the parent cell;
    diameter below 2^-level; sibling cells disjoint; all cells at one level
    pairwise disjoint; chain pairs carried with exact domain and image
    containments; edge pairs and their chain prefixes sitting in the paired
    map's domain; strengths strictly increasing.
    """
    report = CheckReport()
    if not states:
        return report
    top = states[-1].level
    approx = run(1, top)
    for st in states:
        ax = approx[st.level]
        if set(st.cells) != set(ax.X):
            report.add("cells-match-level-words", (st.level,))
        for x, cell in st.cells.items():
            if cell.is_empty():
                report.add("cell-nonempty", (st.level, str(x)))
        if st.level == 0:
            continue
        prev = states[st.level - 1]
        for x, cell in st.cells.items():
            par = x if x in prev.cells else x.prefix(len(x) - 1)
            if par not in prev.cells or not cell.subset(prev.cells[par]):
                report.add("cell-nesting", (st.level, str(x)))
            if not cell.is_empty() and cell.first_free_coord() < st.level:
                report.add("cell-diameter", (st.level, str(x)))
        for x, y in _meeting_pairs(st.cells):
            report.add("level-cells-pairwise-disjoint", (st.level, str(x), str(y)))
        # a word without a cell is reported under cells-match-level-words
        succ = dict(ax.A)
        for y, x in sorted(ax.A, key=lambda p: (p[0].code, p[1].code)):
            if y not in st.cells or x not in st.cells:
                continue
            idx = ax.phi.get((y, x))
            if idx is None or idx not in st.phi:
                report.add("chain-pair-strength-defined", (st.level, str(y), str(x)))
                continue
            n = st.phi[idx]
            if not st.cells[y].subset(instance.domain(n)):
                report.add("chain-pair-domain", (st.level, str(y), str(x)))
            if not st.cells[x].subset(instance.image(n, st.cells[y])):
                report.add("chain-pair-image", (st.level, str(y), str(x)))
        for (y, x), idx in sorted(
            ax.phi.items(), key=lambda kv: (kv[0][0].code, kv[0][1].code)
        ):
            if y not in st.cells or x not in st.cells:
                continue
            if idx not in st.phi:
                report.add("edge-pair-strength-defined", (st.level, str(y), str(x)))
                continue
            n = st.phi[idx]
            dom = instance.domain(n)
            if not st.cells[y].subset(dom):
                report.add("edge-containment-domain", (st.level, str(y), str(x)))
            if not st.cells[x].subset(instance.image(n, st.cells[y])):
                report.add("edge-containment-image", (st.level, str(y), str(x)))
            walk = y
            while walk != x and walk in succ:
                if walk in st.cells and not st.cells[walk].subset(dom):
                    report.add("edge-chain-prefix-domain", (st.level, str(y), str(x), str(walk)))
                walk = succ[walk]
    seen = []
    for st in states:
        for idx in sorted(st.phi):
            if idx < len(seen):
                if st.phi[idx] != seen[idx]:
                    report.add("strength-stable", (st.level, idx))
            else:
                if seen and st.phi[idx] <= max(seen):
                    report.add("strength-increasing", (st.level, idx))
                seen.append(st.phi[idx])
    return report


def scheme_state_json(state: SchemeState) -> dict:
    """A plain rendering: level, strengths, and each cell's description."""
    return {
        "level": state.level,
        "phi": {str(n): v for n, v in sorted(state.phi.items())},
        "cells": {
            str(w): state.cells[w].render()
            for w in sorted(state.cells, key=lambda t: t.code)
        },
    }
