"""Points of the binary sequence space and an exact algebra of clopen subsets.

A SymbolicClopen is a cylinder (all sequences extending a base word) cut down
by finitely many constraints on coordinates beyond the base: bit(a)=v,
bit(a)=bit(b), bit(a)!=bit(b).  That constraint language is closed under the
coordinate transport the maps need, and satisfiability, subset, and projection
are all decidable through a parity union-find with no assignment enumeration.

Normal form: constraints whose coordinates fall inside the base prefix are
folded into the prefix (or produce the empty set), and forced bits right after
the base extend it.  What remains is one map from each constrained coordinate
to (root, parity): a forced coordinate maps to (-1, its bit), one of two
tuples every set shares, and a member of a free class maps to the class's
least coordinate and its parity to it.  Two sets denote the same family of
points iff their bases and maps are equal; the sorted atoms and the hash are
derived from the map when asked for.

The classes are built in one pass: each coordinate links straight to its
class with a parity, and a union relabels the smaller class into the larger
(weighted union with parity, Tarjan 1975).  intersect returns an operand
that lies inside the other; otherwise it and with_atoms start from an
operand's map and merge in only the other constraints.  pinned copies the
map when the pins only add forced coordinates.
"""

from __future__ import annotations

from .errors import EmptySet, InvalidArgument
from .sequences import BinWord, code_bit, code_is_prefix


class LazyPoint:
    """An infinite binary sequence: finitely many explicit bits over a
    constant default tail.
    """

    __slots__ = ("explicit", "default")

    def __init__(self, explicit=None, default=0):
        self.explicit = dict(explicit or {})
        self.default = default & 1

    def eval(self, k) -> int:
        if k < 0:
            raise InvalidArgument("coordinates are natural numbers")
        return self.explicit.get(k, self.default)

    def with_bits(self, bits: dict) -> "LazyPoint":
        merged = dict(self.explicit)
        merged.update(bits)
        return LazyPoint(merged, self.default)

    def prefix(self, n: int) -> BinWord:
        return BinWord.from_bits(self.eval(i) for i in range(n))

    def __repr__(self):
        shown = dict(sorted(self.explicit.items())[:8])
        return f"LazyPoint({shown}, default={self.default})"


# ---------------------------------------------------------------------------
# constraint atoms
#
# Internal atom forms: ("const", a, v) meaning bit(a) = v, and
# ("rel", a, b, parity) meaning bit(a) xor bit(b) = parity.


def atom_eq(a, b):
    return ("rel", a, b, 0)


def atom_ne(a, b):
    return ("rel", a, b, 1)


def atom_const(a, v):
    return ("const", a, v & 1)


# the link entry of a forced coordinate, by its bit; every set shares these
_PIN = ((-1, 0), (-1, 1))


class SymbolicClopen:
    __slots__ = ("base", "empty", "_link")

    def __init__(self, base=None, atoms=()):
        """The cylinder of `base` cut by `atoms`.

        `base` is a BinWord, its text, None for the whole space, or a
        SymbolicClopen, whose normal form is then loaded as it stands so
        that only `atoms` are merged in.
        """
        # link: coord -> (class id, parity to the class root); members lists
        # each class.  Class -1 is pinned to 0, so its members carry their
        # forced bits.  A union relabels the smaller class into the larger,
        # and the pinned class keeps its id.  A normal form's link has this
        # shape, with each free class keyed by its least coordinate.
        link, members = {-1: _PIN[0]}, {-1: []}
        empty = False
        if isinstance(base, SymbolicClopen):
            empty, seed, base = base.empty, base, base.base
            link.update(seed._link)
            for x, (r, _) in seed._link.items():
                members.setdefault(r, []).append(x)
        elif isinstance(base, str):
            base = BinWord.from_str(base)
        elif base is None:
            base = BinWord(1)
        blen, bcode = len(base), base.code
        for atom in atoms:
            if atom[0] == "const":
                a, b, parity = atom[1], -1, atom[2] & 1
                if a < 0:
                    raise InvalidArgument("negative coordinate in constraint")
            else:
                a, b, parity = atom[1], atom[2], atom[3] & 1
                if a < 0 or b < 0:
                    raise InvalidArgument("negative coordinate in constraint")
                # fold coordinates that the base already pins
                if b < blen:
                    parity ^= code_bit(bcode, b)
                    b = -1
            if empty:
                continue  # a contradiction is final; the rest is only checked
            if a < blen:
                parity ^= code_bit(bcode, a)
                a = -1
            if a == b:
                empty = parity == 1
                continue
            la, lb = link.get(a), link.get(b)
            if la is None and lb is None:
                link[a], link[b] = (a, 0), (a, parity)
                members[a] = [a, b]
            elif lb is None:
                link[b] = (la[0], la[1] ^ parity)
                members[la[0]].append(b)
            elif la is None:
                link[a] = (lb[0], lb[1] ^ parity)
                members[lb[0]].append(a)
            else:
                flip = la[1] ^ lb[1] ^ parity
                src, dst = la[0], lb[0]
                if src == dst:
                    empty = flip == 1
                    continue
                if src == -1 or (dst != -1 and len(members[src]) > len(members[dst])):
                    src, dst = dst, src
                moved = members.pop(src)
                for x in moved:
                    link[x] = (dst, link[x][1] ^ flip)
                members[dst].extend(moved)
        self.empty = empty
        if empty:
            self.base, self._link = base, {}
            return
        del link[-1]
        # forced bits right after the base fold into it, so equal sets built
        # along different routes normalize alike
        code = bcode
        nxt = link.get(blen)
        while nxt is not None and nxt[0] == -1:
            del link[blen]
            code = (code << 1) | nxt[1]
            blen += 1
            nxt = link.get(blen)
        self.base = base if code == bcode else BinWord(code)
        # each free class is rerooted at its least coordinate
        roots = {}
        for c, ms in members.items():
            if c != -1:
                r = min(ms)
                roots[c] = r, link[r][1]
        self._link = {
            x: _PIN[p] if c == -1 else (roots[c][0], p ^ roots[c][1]) for x, (c, p) in link.items()
        }

    # -- basic protocol ----------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, SymbolicClopen):
            return NotImplemented
        if self.empty or other.empty:
            return self.empty and other.empty
        return self.base.code == other.base.code and self._link == other._link

    def __hash__(self):
        # all empty sets are equal, whatever their base
        if self.empty:
            return 0
        return hash((self.base.code, frozenset(self._link.items())))

    def __repr__(self):
        return f"SymbolicClopen({self.render()!r})"

    def render(self) -> str:
        """Canonical text form, e.g. "N=00000000_0; bit(24)!=bit(72)"."""
        if self.empty:
            return "EMPTY"
        s = str(self.base)
        grouped = "_".join(s[i : i + 8] for i in range(0, len(s), 8))
        parts = [f"N={grouped}"]
        for atom in self.atoms:
            if atom[0] == "const":
                parts.append(f"bit({atom[1]})={atom[2]}")
            else:
                op = "=" if atom[3] == 0 else "!="
                parts.append(f"bit({atom[1]}){op}bit({atom[2]})")
        return "; ".join(parts)

    @property
    def atoms(self):
        """The normal form's constraints past the base, sorted by first
        coordinate: bit(x)=v for each forced x and bit(r) xor bit(x) = p for
        each other member x of a free class rooted at r."""
        keys = [(x, -1, p) if r == -1 else (r, x, p) for x, (r, p) in self._link.items() if x != r]
        keys.sort()
        return tuple(("const", x, p) if y < 0 else ("rel", x, y, p) for x, y, p in keys)

    # -- queries -----------------------------------------------------------

    def is_empty(self) -> bool:
        return self.empty

    def forced(self, i):
        """The bit every member has at coordinate i, or None if both occur."""
        if i < 0:
            raise InvalidArgument("coordinates are natural numbers")
        if self.empty:
            raise EmptySet("no forced bits in the empty set")
        if i < len(self.base):
            return code_bit(self.base.code, i)
        e = self._link.get(i)
        if e is not None and e[0] == -1:
            return e[1]
        return None

    def constrained_coords(self):
        return sorted(self._link)

    def first_free_coord(self) -> int:
        if self.empty:
            raise EmptySet("the empty set has no free coordinate")
        i = len(self.base)
        while self.forced(i) is not None:
            i += 1
        return i

    def contains(self, p: LazyPoint) -> bool:
        if self.empty:
            return False
        for i, b in enumerate(self.base.bits()):
            if p.eval(i) != b:
                return False
        for x, (r, q) in self._link.items():
            if r == -1:
                if p.eval(x) != q:
                    return False
            elif (p.eval(r) ^ p.eval(x)) != q:
                return False
        return True

    def witness_point(self) -> LazyPoint:
        """A member with default-0 tail; each free class root takes 0."""
        if self.empty:
            raise EmptySet("no witness in the empty set")
        bits = {i: b for i, b in enumerate(self.base.bits())}
        for x, (_, p) in self._link.items():
            bits[x] = p
        return LazyPoint(bits)

    # -- relational structure for transports -------------------------------

    def classes(self):
        """[(forced bit or None, [(coord, parity relative to class root)])] sorted;
        each forced coordinate is a class of its own."""
        groups = {}
        for x, (r, p) in self._link.items():
            if r == -1:
                groups[x] = (p, [(x, 0)])
            else:
                groups.setdefault(r, (None, []))[1].append((x, p))
        return [(v, sorted(ms)) for _, (v, ms) in sorted(groups.items())]

    # -- algebra -----------------------------------------------------------

    def with_atoms(self, extra) -> "SymbolicClopen":
        return SymbolicClopen(self, extra)

    def pinned(self, bits) -> "SymbolicClopen":
        """The subset with bit(c) = v for each c -> v of the mapping `bits`.

        A coordinate past the one right after the base, in no class, becomes
        a forced coordinate of its own: no union and no fold into the base.
        When every pin is such a coordinate, the link is copied and the pins
        added.  Any other pin goes through with_atoms.
        """
        blen, link = len(self.base), self._link
        if self.empty or any(c <= blen or c in link for c in bits):
            return self.with_atoms([atom_const(c, v) for c, v in bits.items()])
        out = object.__new__(SymbolicClopen)
        out.base, out.empty = self.base, False
        out._link = dict(link)
        for c, v in bits.items():
            out._link[c] = _PIN[v & 1]
        return out

    def intersect(self, other: "SymbolicClopen") -> "SymbolicClopen":
        if self.empty:
            return self
        if other.empty:
            return other
        # seed from the operand with the longer base, on a tie the one with
        # more constrained coordinates; the other's base is then a prefix or
        # the sets are disjoint
        seed, rest = self, other
        if (len(seed.base), len(seed._link)) < (len(rest.base), len(rest._link)):
            seed, rest = rest, seed
        if not code_is_prefix(rest.base.code, seed.base.code):
            return EMPTY_SET
        # an operand inside the other is the intersection, normal form and all
        if seed.subset(rest):
            return seed
        if rest.subset(seed):
            return rest
        return SymbolicClopen(seed, rest.atoms)

    def implies_rel(self, a, b, parity) -> bool:
        """Does bit(a) xor bit(b) = parity hold for every member?"""
        fa, fb = self.forced(a), self.forced(b)
        if fa is not None and fb is not None:
            return (fa ^ fb) == parity
        if fa is not None or fb is not None:
            return False
        ra = self._link.get(a)
        rb = self._link.get(b)
        if ra is None or rb is None:
            return False
        if ra[0] != rb[0]:
            return False
        return (ra[1] ^ rb[1]) == parity

    def subset(self, other: "SymbolicClopen") -> bool:
        if self.empty:
            return True
        if other.empty:
            return False
        # every constraint defining `other` must be implied here; a normalized
        # base takes in every bit forced right after it, so other's base must
        # be a prefix of it
        if not code_is_prefix(other.base.code, self.base.code):
            return False
        for x, (r, p) in other._link.items():
            if r == -1:
                if self.forced(x) != p:
                    return False
            elif x != r and not self.implies_rel(r, x, p):
                return False
        return True

    def literals(self):
        """The defining constraints as a list of positive literals."""
        lits = [("const", i, b) for i, b in enumerate(self.base.bits())]
        lits.extend(self.atoms)
        return lits

    def minus(self, other: "SymbolicClopen"):
        """self \\ other as a list of pairwise-disjoint SymbolicClopen."""
        if self.empty or other.empty:
            return [] if self.empty else [self]
        parts = []
        kept = []
        for lit in other.literals():
            if lit[0] == "const":
                neg = ("const", lit[1], lit[2] ^ 1)
            else:
                neg = ("rel", lit[1], lit[2], lit[3] ^ 1)
            piece = self.with_atoms(kept + [neg])
            if not piece.empty:
                parts.append(piece)
            kept.append(lit)
        return parts


EMPTY_SET = SymbolicClopen(atoms=[atom_const(0, 0), atom_const(0, 1)])
FULL_SPACE = SymbolicClopen()


def cylinder(word) -> SymbolicClopen:
    return SymbolicClopen(word)


class ClopenUnion:
    """A finite union of pairwise-disjoint SymbolicClopen parts."""

    __slots__ = ("parts",)

    def __init__(self, parts=(), already_disjoint=False):
        nonempty = [p for p in parts if not p.empty]
        if not already_disjoint:
            acc = []
            for p in nonempty:
                pieces = [p]
                for q in acc:
                    nxt = []
                    for piece in pieces:
                        nxt.extend(piece.minus(q))
                    pieces = nxt
                acc.extend(pieces)
            nonempty = acc
        self.parts = tuple(sorted(nonempty, key=lambda c: (c.base.code, c.atoms)))

    def is_empty(self) -> bool:
        return not self.parts

    def contains(self, p: LazyPoint) -> bool:
        return any(c.contains(p) for c in self.parts)

    def union(self, other) -> "ClopenUnion":
        other_parts = other.parts if isinstance(other, ClopenUnion) else (other,)
        return ClopenUnion(list(self.parts) + list(other_parts))

    def intersect(self, other) -> "ClopenUnion":
        other_parts = other.parts if isinstance(other, ClopenUnion) else (other,)
        out = []
        for a in self.parts:
            for b in other_parts:
                c = a.intersect(b)
                if not c.empty:
                    out.append(c)
        return ClopenUnion(out, already_disjoint=True)

    def minus(self, other) -> "ClopenUnion":
        other_parts = other.parts if isinstance(other, ClopenUnion) else (other,)
        pieces = list(self.parts)
        for q in other_parts:
            nxt = []
            for p in pieces:
                nxt.extend(p.minus(q))
            pieces = nxt
        return ClopenUnion(pieces, already_disjoint=True)

    def subset(self, other) -> bool:
        return self.minus(other).is_empty()

    def render(self) -> str:
        return " | ".join(c.render() for c in self.parts) if self.parts else "EMPTY"

    def __eq__(self, other):
        if not isinstance(other, ClopenUnion):
            return NotImplemented
        return self.subset(other) and other.subset(self)

    def __repr__(self):
        return f"ClopenUnion({self.render()!r})"

