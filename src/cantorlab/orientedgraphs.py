"""Finite oriented graphs with unique successors and acyclic symmetrization.

Everything here is finite and order-insensitive except the duplication
construction, which consumes a caller-supplied vertex enumeration and makes
label copies of one vertex's predecessor cone per stage.  Vertex ids are
opaque hashable values.  The construction exists once, as the Duplication
engine on integer copy ids: `duplicate` builds its stages with it and wraps
only its result in LabeledVertex.  embedding.shrink_47 runs no engine: it
builds only the branch of copies it keeps.  SuccessorTable.uogas_depths is
the one uogas decision, on stages and copy ids alike; chain_table is its
raising form, and validate_uogas explains a relation it rejects.
"""

from __future__ import annotations

from functools import cached_property, partial

from .errors import BadEnumeration, CapExceeded, InvalidArgument, NotConnected, StageRelationCycle

# Cap on the labeled copies one duplication may hold, checked by
# Duplication.split before it changes anything; the scheme's splitting,
# which makes no copies, reads it as the cap on one split's preimages.
# Raising it never changes a computed value, it only lets more be computed.
DUPLICATION_CAP = 200_000


class LabeledVertex:
    """A base vertex id together with a finite label sequence.

    The hash is computed once, at construction: validating a graph that
    `duplicate` returns looks each of its vertices up many times.
    """

    __slots__ = ("base", "label", "_hash")

    def __init__(self, base, label):
        label = tuple(label)
        object.__setattr__(self, "base", base)
        object.__setattr__(self, "label", label)
        object.__setattr__(self, "_hash", hash((base, label)))

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is frozen: cannot set {name} to {value!r}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.base, self.label) == (other.base, other.label)

    def __hash__(self):
        return self._hash

    def __repr__(self):
        tail = ".".join(str(j) for j in self.label)
        return f"{self.base}:{tail}"


class FiniteOrientedGraph:
    """A finite vertex set with a set of directed edges between its vertices.

    An edge with an endpoint outside the vertex set raises InvalidArgument.
    Loops and antiparallel pairs are kept: they are data that validate_uogas
    reports as violated clauses.  The successor and predecessor indexes map a
    vertex to the frozenset of its successors or predecessors, and a vertex
    with none has no entry.  They are built once, here, and are read-only;
    succ, pred and every walk below read them.
    """

    __slots__ = ("vertices", "edges", "_succ", "_pred")

    def __init__(self, vertices, edges):
        self.vertices = frozenset(vertices)
        self.edges = frozenset((a, b) for a, b in edges)
        outs, ins = {}, {}
        for a, b in self.edges:
            if a not in self.vertices or b not in self.vertices:
                raise InvalidArgument(f"edge endpoint {a!r} or {b!r} not a vertex")
            outs.setdefault(a, []).append(b)
            ins.setdefault(b, []).append(a)
        self._succ = {v: frozenset(out) for v, out in outs.items()}
        self._pred = {v: frozenset(inc) for v, inc in ins.items()}

    def __eq__(self, other):
        if not isinstance(other, FiniteOrientedGraph):
            return NotImplemented
        return self.vertices == other.vertices and self.edges == other.edges

    def __hash__(self):
        return hash((self.vertices, self.edges))

    def __repr__(self):
        return f"FiniteOrientedGraph({len(self.vertices)} vertices, {len(self.edges)} edges)"


def _vkey(v):
    """Sort key of a vertex: its repr, then, for a labeled vertex, the type
    and repr of its base.  LabeledVertex(1, (0,)) and LabeledVertex("1", (0,))
    both print as 1:0; the base's type orders them whatever the input order."""
    if isinstance(v, LabeledVertex):
        return repr(v), type(v.base).__qualname__, repr(v.base)
    return (repr(v),)


def _edge_key(e):
    return (_vkey(e[0]), _vkey(e[1]))


_NONE = frozenset()


def succ(G: FiniteOrientedGraph, x) -> frozenset:
    return G._succ.get(x, _NONE)


def pred(G: FiniteOrientedGraph, x) -> frozenset:
    return G._pred.get(x, _NONE)


def max_set(G: FiniteOrientedGraph):
    return {x for x in G.vertices if x not in G._succ}


def _sym_adj(G: FiniteOrientedGraph, x) -> frozenset:
    """Neighbours of x in the symmetrization (x itself if it has a loop)."""
    return succ(G, x) | pred(G, x)


def components(G: FiniteOrientedGraph):
    """Connected components of the symmetrization, sorted for determinism."""
    return _components(sorted(G.vertices, key=_vkey), partial(_sym_adj, G))


def _components(verts, adj):
    """The components reached from `verts`, in their order, where adj(v)
    gives v's symmetrized neighbours."""
    seen = set()
    out = []
    for start in verts:
        if start in seen:
            continue
        comp = {start}
        queue = [start]
        while queue:
            v = queue.pop()
            for w in adj(v):
                if w not in comp:
                    comp.add(w)
                    queue.append(w)
        seen |= comp
        out.append(frozenset(comp))
    return out


class CheckReport:
    """Outcome of a validation or lemma suite; violations carry witnesses."""

    __slots__ = ("violations",)

    def __init__(self, violations=None):
        self.violations = [] if violations is None else violations

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.violations == other.violations

    __hash__ = None

    def __repr__(self):
        return f"CheckReport(violations={self.violations!r})"

    @property
    def ok(self) -> bool:
        return not self.violations

    def add(self, clause: str, witness):
        self.violations.append((clause, witness))


def validate_uogas(G: FiniteOrientedGraph) -> CheckReport:
    """Report every violated clause of the unique-successor acyclic contract.

    One pass over the edges finds the loops and antiparallel pairs and runs a
    union-find over the simple undirected edges; only the violations are
    sorted, so a valid graph costs linear time.
    """
    report = CheckReport()
    ids = {v: i for i, v in enumerate(G.vertices)}
    root = list(range(len(ids)))
    succ_of = G._succ
    bad = []
    cyclic = False
    for e in G.edges:
        a, b = e
        i, j = ids[a], ids[b]
        if i == j or a in succ_of.get(b, _NONE):
            bad.append(e)
            if i <= j:  # skip loops; unite an antiparallel pair once, from i > j
                continue
        if not cyclic:
            i, j = _uf_find(root, i), _uf_find(root, j)
            if i == j:
                cyclic = True
            else:
                root[i] = j
    for a, b in sorted(bad, key=_edge_key):
        if a == b:
            report.add("irreflexive", (a, b))
        elif _vkey(a) < _vkey(b):
            report.add("antisymmetric", (a, b))
    # Vertices whose sort keys tie keep their vertex-set order, as in a sort
    # of the whole vertex set.
    branching = [x for x, out in succ_of.items() if len(out) > 1]
    for x in sorted(branching, key=lambda x: (_vkey(x), ids[x])):
        report.add("unique-successor", (x, tuple(sorted(succ_of[x], key=_vkey))))
    if cyclic:
        report.add("acyclic-symmetrization", _find_sym_cycle(G))
    return report


class SuccessorTable:
    """A successor relation given as a collection of distinct pairs: a stage
    relation A_l or a uogas suite's table.  `succ` maps each source to its
    successor, the largest one where some source branches (`branches`), and
    `preds`, built on first use, maps each target to all its sources.  The
    vertices are whatever the pairs hold; checking them is the caller's."""

    def __init__(self, pairs):
        self._pairs = pairs.__iter__
        self.succ = dict(pairs)
        self.branches = len(self.succ) != len(pairs)
        if self.branches:
            self.succ = dict(sorted(pairs))

    @classmethod
    def of_columns(cls, sources, targets) -> "SuccessorTable":
        """The table of the pairs zip(sources, targets), two columns sorted
        by pair (a stage's A_src and A_dst) and read in place: a branching
        source's last target is its largest, so `dict` keeps it unsorted."""
        table = cls.__new__(cls)
        table._pairs = partial(zip, sources, targets)
        table.succ = dict(zip(sources, targets))
        table.branches = len(table.succ) != len(sources)
        return table

    @cached_property
    def preds(self) -> dict:
        preds = {}
        for y, x in self._pairs():
            preds.setdefault(x, []).append(y)
        return preds

    def depths(self) -> dict:
        """The number of vertices on each source's `succ` chain, itself
        included, for the sources whose chain ends.  A vertex that is no
        source has depth 1 and is not stored, and a source on or leading into
        a directed cycle has none, so `len(depths()) == len(succ)` says there
        is no directed cycle.

        A function without a directed cycle is an uogas, so this is the
        functional-graph case of validate_uogas.  With at most one successor
        per vertex, only a directed cycle can break the remaining clauses (a
        loop is a 1-cycle, an antiparallel pair a 2-cycle).  Without one,
        every walk ends at a vertex with no successor; a symmetrized
        component of n vertices with k such ends has n - k edges, and being
        connected at least n - 1, so k = 1 and the component is a tree.

        One walk with three colours takes linear time: a source is unseen,
        on the current walk or on a cycle (depth 0), or done.
        """
        succ = self.succ
        depth = {}
        cyclic = False
        for w, v in succ.items():
            if w in depth:
                continue
            if v not in succ:  # most stage chains end after one step
                depth[w] = 2
                continue
            path = [w]
            depth[w] = 0
            while v in succ and v not in depth:
                depth[v] = 0
                path.append(v)
                v = succ[v]
            d = depth.get(v, 1)
            if not d:  # back on this walk, or on a cycle an earlier walk met
                cyclic = True
                continue
            for u in reversed(path):
                d += 1
                depth[u] = d
        return {w: d for w, d in depth.items() if d} if cyclic else depth

    def uogas_depths(self, vertices):
        """`depths()` when the pairs form an uogas on `vertices`, else None:
        when no source branches, every endpoint is a vertex and no chain
        cycles (`len(depths()) == len(succ)`; `depths` says why that is all)."""
        stray = self.succ.keys() | self.succ.values()
        stray.difference_update(vertices)
        if self.branches or stray:
            return None
        depth = self.depths()
        return depth if len(depth) == len(self.succ) else None

    def distances(self) -> dict:
        """Each target's longest distance from a chain-minimal vertex, over
        every pair: one more than the largest among its sources.  A vertex
        that is no target has distance 1 and is not stored.  A directed
        cycle has no such order and raises StageRelationCycle."""
        preds = self.preds
        dist = {}
        for w in preds:
            if w in dist:
                continue
            dist[w] = 0  # on the walk
            stack = [(w, iter(preds[w]))]
            while stack:
                v, todo = stack[-1]
                for p in todo:
                    if p in preds:
                        d = dist.get(p)
                        if d is None:
                            dist[p] = 0
                            stack.append((p, iter(preds[p])))
                            break
                        if not d:
                            raise StageRelationCycle("stage relation cycles; split order undefined")
                else:
                    stack.pop()
                    dist[v] = 1 + max(dist.get(p, 1) for p in preds[v])
        return dist


def chain_table(G: FiniteOrientedGraph):
    """A uogas's successor table and each vertex's chain depth (p_to_max
    length), or InvalidArgument with validate_uogas's violations.  Branching
    is refused first, as its table sorts vertices that may have no order."""
    if len(G._succ) == len(G.edges):
        table = SuccessorTable(G.edges)
        depths = table.uogas_depths(G.vertices)
        if depths is not None:
            return table, {v: depths.get(v, 1) for v in G.vertices}
    raise InvalidArgument(f"not an uogas: {validate_uogas(G).violations[:3]}")


def _uf_find(root, i):
    while root[i] != i:
        root[i] = root[root[i]]
        i = root[i]
    return i


def _find_sym_cycle(G: FiniteOrientedGraph):
    """An injective symmetrized cycle of length >= 3, or None.

    Parallel edge pairs are the antisymmetry clause's business, so the walk
    runs on the simple undirected graph.
    """
    seen = set()
    for start in sorted(G.vertices, key=_vkey):
        if start in seen:
            continue
        parent = {start: None}
        stack = [(start, None)]
        while stack:
            v, par = stack.pop()
            seen.add(v)
            for w in sorted(_sym_adj(G, v), key=_vkey):
                if w == par or w == v:
                    continue
                if w in parent:
                    path_v = _root_path(parent, v)
                    ancestors_w = set(_root_path(parent, w))
                    lca = next(u for u in path_v if u in ancestors_w)
                    seg_v = path_v[: path_v.index(lca) + 1]
                    path_w = _root_path(parent, w)
                    seg_w = path_w[: path_w.index(lca)]
                    return tuple(seg_v + seg_w[::-1])
                parent[w] = v
                stack.append((w, v))
    return None


def _root_path(parent, v):
    out = []
    while v is not None:
        out.append(v)
        v = parent[v]
    return out


def unique_path(G: FiniteOrientedGraph, x, y):
    """The unique injective symmetrized path from x to y, as a tuple."""
    if x not in G.vertices or y not in G.vertices:
        raise InvalidArgument("path endpoints must be vertices")
    path = _bfs_path(partial(_sym_adj, G), x, y)
    if path is None:
        raise NotConnected(f"{x!r} and {y!r} lie in different components")
    return path


def _bfs_path(adj, x, y):
    """The shortest symmetrized path from x to y as a tuple, breadth first
    over adj(v), v's symmetrized neighbours; None when y is not reached."""
    parent = {x: None}
    queue = [x]
    while queue and y not in parent:
        nxt = []
        for v in queue:
            for w in adj(v):
                if w not in parent:
                    parent[w] = v
                    nxt.append(w)
        queue = nxt
    if y not in parent:
        return None
    return tuple(_root_path(parent, y)[::-1])


def p_to_max(G: FiniteOrientedGraph, y):
    """The successor chain from y to its component's maximal vertex."""
    if y not in G.vertices:
        raise InvalidArgument(f"{y!r} is not a vertex")
    chain = [y]
    seen = {y}
    while True:
        out = succ(G, chain[-1])
        if not out:
            return tuple(chain)
        if len(out) > 1:
            raise InvalidArgument(f"{chain[-1]!r} has two successors; not an uogas")
        (nxt,) = out
        if nxt in seen:
            raise InvalidArgument("successor chain cycles; not an uogas")
        chain.append(nxt)
        seen.add(nxt)


def lemma42_suite(G: FiniteOrientedGraph) -> CheckReport:
    """Injective chains, forward paths to the maximum, unique maxima, and
    first-step agreement, each checked exhaustively with witnesses.
    """
    report = CheckReport()
    verts = sorted(G.vertices, key=_vkey)
    rank = {v: i for i, v in enumerate(verts)}.__getitem__
    adj = {v: _sym_adj(G, v) for v in verts}.__getitem__
    chains = {}
    is_path = set()  # vertices whose chain is their unique path to its end
    for y in verts:
        try:
            chain = chains[y] = p_to_max(G, y)
        except InvalidArgument as err:
            report.add("a-injective-chain", (y, str(err)))
            continue
        if chain != _bfs_path(adj, y, chain[-1]):
            report.add("a-chain-is-the-path", (y, chain))
        else:
            is_path.add(y)
    maxima = max_set(G)
    for comp in _components(verts, adj):
        tops = sorted(comp & maxima, key=rank)
        if len(tops) != 1:
            report.add("c-single-maximum", (tuple(sorted(comp, key=rank)), tuple(tops)))
            continue
        top = tops[0]
        for y in sorted(comp, key=rank):
            # a chain to top that is the unique path steps along edges only
            if y in is_path and chains[y][-1] == top:
                continue
            p = _bfs_path(adj, y, top)
            for i in range(len(p) - 1):
                if (p[i], p[i + 1]) not in G.edges:
                    report.add("b-forward-edges", (y, p, i))
                    break
    # a vertex whose chain raised in (a) has no first step to compare
    for a, b in sorted(G.edges, key=_edge_key):
        p = chains.get(a)
        if p is None:
            continue
        if len(p) < 2 or p[1] != b:
            report.add("d-first-step", ((a, b), p))
    return report


# ---------------------------------------------------------------------------
# duplication


class Duplication:
    """The labeled copies of a uogas under the duplication construction,
    kept incrementally.

    The constructor checks the graph (chain_table) and the enumeration,
    which lists every vertex once in nondecreasing chain length; splitting
    starts at its index `first`, the first non-maximal vertex.  Copies are
    ints, numbered in order of creation: copy c is a copy of vertex
    `base[c]` with label `label[c]`, and each vertex x starts with the one
    copy labeled (0,).  `copies` maps a base vertex to the set of its live
    copies, `succ` maps a copy to its successor copy, and `preds` maps every
    live copy to the set of its predecessor copies; only `split` changes
    them.  `develop` runs the construction's steps; `succ` and `preds` are
    the stage reached on copy ids, and `labeled` gives it on labeled
    vertices.  Copy c stands for LabeledVertex(base[c], label[c]), and that
    map is injective on live copies, so the two views are isomorphic.
    `duplicate` and the lemma 4.3 suite run it.
    """

    __slots__ = ("order", "first", "base", "label", "copies", "succ", "preds")

    def __init__(self, G: FiniteOrientedGraph, enumeration):
        _, depth = chain_table(G)
        self.order = order = tuple(enumeration)
        if len(order) != len(G.vertices) or set(order) != G.vertices:
            raise BadEnumeration("enumeration must list every vertex exactly once")
        lengths = [depth[x] for x in order]
        if any(lengths[i] > lengths[i + 1] for i in range(len(lengths) - 1)):
            raise BadEnumeration("enumeration must have nondecreasing chain lengths")
        self.first = lengths.count(1)
        self.base = list(G.vertices)
        self.label = [(0,)] * len(self.base)
        zero = {x: c for c, x in enumerate(self.base)}
        self.copies = {x: {c} for x, c in zero.items()}
        self.succ = {zero[a]: zero[b] for a, b in G.edges}
        self.preds = {c: set() for c in zero.values()}
        for a, b in G.edges:
            self.preds[zero[b]].add(zero[a])

    def split(self, copy) -> list:
        """Replace the live copy's predecessor cone by one block per
        enumerated vertex: each cone copy labeled sigma gets fresh copies
        labeled sigma.j.

        Edges inside the cone are copied into each block and the edge out of
        the split copy keeps its target.  Returns (old copy, fresh copies in
        label order) per cone copy, each after its successor.  Raises
        CapExceeded, before changing anything, when the copies would outgrow
        the cap.
        """
        succ, preds = self.succ, self.preds
        if copy not in preds:
            raise InvalidArgument(f"copy {copy} is not live")
        cone = [copy]
        for c in cone:
            cone.extend(preds[c])
        n = len(self.order)
        size = len(preds) + len(cone) * (n - 1)
        if size > DUPLICATION_CAP:
            raise CapExceeded(
                f"duplication needs {size} labeled vertices, cap is {DUPLICATION_CAP}"
            )
        target = succ.get(copy)
        if target is not None:
            preds[target].discard(copy)
        out = []
        made = {}
        for old in cone:
            del preds[old]
            nxt = succ.pop(old, None)
            x = self.base[old]
            fresh = made[old] = range(len(self.base), len(self.base) + n)
            self.base += [x] * n
            self.label += [self.label[old] + (j,) for j in range(n)]
            self.copies[x].discard(old)
            self.copies[x].update(fresh)
            # the old successor precedes old in the cone, so its copies exist
            for j, new in enumerate(fresh):
                preds[new] = set()
                tgt = target if old == copy else made[nxt][j]
                if tgt is not None:
                    succ[new] = tgt
                    preds[tgt].add(new)
            out.append((old, fresh))
        return out

    def develop(self, m: int, p: int | None = None) -> None:
        """Run a fresh engine to stage m, or to the intermediate stage after
        splitting only the first p label blocks of step m.  Blocks are taken
        in lexicographic label order; any injective block order satisfies
        the construction's contract.  An empty enumeration has one stage,
        the empty graph, whatever m and p are.

        Stage 0 is the relabeled copy (every vertex gets the one-symbol label
        0); each later step replaces the predecessor cone of the step's
        vertex by copyCount labeled copies, keeping edges as follows: edges
        outside the cone survive, edges inside are copied into each block,
        and the one edge out of the cone's top keeps its target.  Each block
        is one split.
        """
        order = self.order
        if not order:
            return
        if not 0 <= m < len(order):
            raise InvalidArgument("stage index out of range")
        if p is not None and m < self.first:
            raise InvalidArgument("partial stages exist only once duplication starts")
        for step in range(self.first, m + 1):
            blocks = sorted(self.copies[order[step]], key=self.label.__getitem__)
            if step == m and p is not None:
                if not 0 <= p <= len(blocks):
                    raise InvalidArgument("partial block count out of range")
                blocks = blocks[:p]
            for copy in blocks:
                self.split(copy)

    def labeled(self) -> FiniteOrientedGraph:
        """The stage reached, with copy c as LabeledVertex(base[c], label[c])."""
        lv = {c: LabeledVertex(self.base[c], self.label[c]) for c in self.preds}
        return FiniteOrientedGraph(lv.values(), ((lv[a], lv[b]) for a, b in self.succ.items()))


def duplicate(
    G: FiniteOrientedGraph, enumeration, m: int, p: int | None = None
) -> FiniteOrientedGraph:
    """Stage m of the labeled duplication along the given enumeration, or the
    intermediate stage after duplicating only the first p label blocks of
    step m, as Duplication.develop runs it."""
    dup = Duplication(G, enumeration)
    dup.develop(m, p)
    return dup.labeled()


# ---------------------------------------------------------------------------
# DOT emission


def _render(v) -> str:
    return v if isinstance(v, str) else repr(v)


def to_dot(G: FiniteOrientedGraph) -> str:
    """Deterministic DOT text: vertices and edges in sorted render order."""
    lines = ["digraph G {"]
    for v in sorted(G.vertices, key=_vkey):
        lines.append(f'  "{_render(v)}";')
    for a, b in sorted(G.edges, key=_edge_key):
        lines.append(f'  "{_render(a)}" -> "{_render(b)}";')
    lines.append("}")
    return "\n".join(lines)
