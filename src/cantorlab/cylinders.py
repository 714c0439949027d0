"""Points of the binary sequence space and an exact algebra of clopen subsets.

A SymbolicClopen is a cylinder (all sequences extending a base word) cut down
by finitely many constraints on coordinates beyond the base: bit(a)=v,
bit(a)=bit(b), bit(a)!=bit(b).  That constraint language is closed under the
coordinate transport the maps need, and satisfiability, subset, and projection
are all decidable through a parity union-find with no assignment enumeration.

Normal form: constraints whose coordinates fall inside the base prefix are
folded into the prefix (or produce the empty set); singleton classes with no
forced value are dropped; each remaining class is keyed by its least
coordinate.  Two sets denote the same family of points iff their normal forms
are equal.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import EmptySet, InvalidArgument
from .sequences import BinWord, code_bit, code_is_prefix, code_len, code_meet


class LazyPoint:
    """An infinite binary sequence: finitely many explicit bits over a default
    tail, with an optional rule consulted between the two.
    """

    __slots__ = ("explicit", "default", "rule")

    def __init__(self, explicit=None, default=0, rule=None):
        self.explicit = dict(explicit or {})
        self.default = default & 1
        self.rule = rule

    @classmethod
    def zeros(cls):
        return cls()

    @classmethod
    def from_word(cls, w: BinWord, default=0, rule=None):
        return cls({i: b for i, b in enumerate(w.bits())}, default, rule)

    def eval(self, k) -> int:
        if k < 0:
            raise InvalidArgument("coordinates are natural numbers")
        v = self.explicit.get(k)
        if v is not None:
            return v
        if self.rule is not None:
            return self.rule(k) & 1
        return self.default

    def with_bits(self, bits: dict) -> "LazyPoint":
        merged = dict(self.explicit)
        merged.update(bits)
        return LazyPoint(merged, self.default, self.rule)

    def prefix(self, n: int) -> BinWord:
        return BinWord.from_bits(self.eval(i) for i in range(n))

    def __repr__(self):
        shown = dict(sorted(self.explicit.items())[:8])
        return f"LazyPoint({shown}, default={self.default}{', rule' if self.rule else ''})"


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


class SymbolicClopen:
    __slots__ = ("base", "empty", "_link", "_const", "_atoms", "_hash")

    def __init__(self, base=None, atoms=()):
        if isinstance(base, str):
            base = BinWord.from_str(base)
        self.base = base if base is not None else BinWord(1)
        self.empty = False
        self._link = {}   # coord -> (root, parity to root)
        self._const = {}  # root -> forced bit or None
        atoms = list(atoms)
        while True:
            self._build(atoms)
            if self.empty:
                break
            # constraints pinning bits right after the base fold into it,
            # so equal sets built along different routes normalize alike
            ext = []
            i = len(self.base)
            while True:
                v = self._forced_beyond_base(i)
                if v is None:
                    break
                ext.append(v)
                i += 1
            if not ext:
                break
            for b in ext:
                self.base = self.base.append(b)
        self._atoms = self._canonical_atoms()
        self._hash = hash((self.empty, self.base.code if not self.empty else 0, self._atoms))

    def _forced_beyond_base(self, i):
        if i in self._link:
            r, p = self._link[i]
            v = self._const.get(r)
            if v is not None:
                return v ^ p
        return None

    # -- construction ------------------------------------------------------

    def _build(self, atoms):
        blen = len(self.base)
        bcode = self.base.code
        parent = {}

        def find(x):
            # returns (root, parity of x relative to root)
            path = []
            p = 0
            while x in parent:
                path.append((x, p))
                x, q = parent[x]
                p ^= q
            for y, py in path:
                parent[y] = (x, p ^ py)
            return x, p

        def union(a, b, parity):
            ra, pa = find(a)
            rb, pb = find(b)
            if ra == rb:
                return pa ^ pb == parity
            if ra > rb:
                ra, rb, pa, pb = rb, ra, pb, pa
            parent[rb] = (ra, pa ^ pb ^ parity)
            return True

        # the virtual node -1 is pinned to 0; bit(a)=v becomes a ~ -1 with parity v
        for atom in atoms:
            if atom[0] == "const":
                a, b, parity = atom[1], -1, atom[2] & 1
            else:
                a, b, parity = atom[1], atom[2], atom[3] & 1
            if a < -1 or b < -1:
                raise InvalidArgument("negative coordinate in constraint")
            # fold coordinates that the base already pins
            if 0 <= a < blen:
                parity ^= code_bit(bcode, a)
                a = -1
            if 0 <= b < blen:
                parity ^= code_bit(bcode, b)
                b = -1
            if a == b:
                if parity:
                    self.empty = True
                    return
                continue
            if not union(a, b, parity):
                self.empty = True
                return

        # compress into (root, parity) links and per-root constants
        roots = {}
        for x in list(parent):
            r, p = find(x)
            roots.setdefault(r, []).append((x, p))
        link = {}
        const = {}
        for r, members in roots.items():
            if r == -1:
                for x, p in members:
                    link[x] = (x, 0)
                    const[x] = p
            else:
                const[r] = None
                link[r] = (r, 0)
                for x, p in members:
                    link[x] = (r, p)
        link.pop(-1, None)
        const.pop(-1, None)
        # drop singleton classes with nothing forced
        counts = {}
        for x, (r, _) in link.items():
            counts[r] = counts.get(r, 0) + 1
        for x in list(link):
            r, _ = link[x]
            if counts[r] == 1 and const.get(r) is None:
                del link[x]
                const.pop(r, None)
        self._link = link
        self._const = const

    def _canonical_atoms(self):
        if self.empty:
            return ()
        out = []
        for x in self._link:
            r, p = self._link[x]
            v = self._const.get(r)
            if v is not None:
                out.append(("const", x, v ^ p))
            elif x != r:
                out.append(("rel", r, x, p))
        return tuple(sorted(out, key=lambda t: (t[1], t[2] if t[0] == "rel" else -1, t[0])))

    # -- basic protocol ----------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, SymbolicClopen):
            return NotImplemented
        if self.empty or other.empty:
            return self.empty and other.empty
        return self.base.code == other.base.code and self._atoms == other._atoms

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"SymbolicClopen({self.render()!r})"

    def render(self) -> str:
        """Canonical text form, e.g. "N=00000000_0; bit(24)!=bit(72)"."""
        if self.empty:
            return "EMPTY"
        s = str(self.base)
        grouped = "_".join(s[i : i + 8] for i in range(0, len(s), 8))
        parts = [f"N={grouped}"]
        for atom in self._atoms:
            if atom[0] == "const":
                parts.append(f"bit({atom[1]})={atom[2]}")
            else:
                op = "=" if atom[3] == 0 else "!="
                parts.append(f"bit({atom[1]}){op}bit({atom[2]})")
        return "; ".join(parts)

    @property
    def atoms(self):
        return self._atoms

    # -- queries -----------------------------------------------------------

    def is_empty(self) -> bool:
        return self.empty

    def forced(self, i):
        """The bit every member has at coordinate i, or None if both occur."""
        if self.empty:
            raise EmptySet("no forced bits in the empty set")
        if i < len(self.base):
            return code_bit(self.base.code, i)
        if i in self._link:
            r, p = self._link[i]
            v = self._const.get(r)
            if v is not None:
                return v ^ p
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

    def diameter(self) -> Fraction:
        return Fraction(1, 2 ** self.first_free_coord())

    def contains(self, p: LazyPoint) -> bool:
        if self.empty:
            return False
        for i, b in enumerate(self.base.bits()):
            if p.eval(i) != b:
                return False
        for atom in self._atoms:
            if atom[0] == "const":
                if p.eval(atom[1]) != atom[2]:
                    return False
            else:
                if (p.eval(atom[1]) ^ p.eval(atom[2])) != atom[3]:
                    return False
        return True

    def witness_point(self, choices=None) -> LazyPoint:
        """A member with default-0 tail; choices may pin free class roots."""
        if self.empty:
            raise EmptySet("no witness in the empty set")
        bits = {i: b for i, b in enumerate(self.base.bits())}
        for x in self._link:
            r, p = self._link[x]
            v = self._const.get(r)
            if v is None:
                v = (choices or {}).get(r, 0)
            bits[x] = v ^ p
        return LazyPoint(bits)

    # -- relational structure for transports -------------------------------

    def classes(self):
        """[(forced bit or None, [(coord, parity relative to class root)])] sorted."""
        groups = {}
        for x, (r, p) in self._link.items():
            groups.setdefault(r, []).append((x, p))
        out = []
        for r in sorted(groups):
            members = sorted(groups[r])
            out.append((self._const.get(r), members))
        return out

    # -- algebra -----------------------------------------------------------

    def with_atoms(self, extra) -> "SymbolicClopen":
        if self.empty:
            return self
        return SymbolicClopen(self.base, list(self._atoms) + list(extra))

    def intersect(self, other: "SymbolicClopen") -> "SymbolicClopen":
        if self.empty:
            return self
        if other.empty:
            return other
        a, b = self.base.code, other.base.code
        if code_is_prefix(a, b):
            base = other.base
        elif code_is_prefix(b, a):
            base = self.base
        else:
            return EMPTY_SET
        return SymbolicClopen(base, list(self._atoms) + list(other._atoms))

    def implies_const(self, a, v) -> bool:
        """Does every member have bit(a) = v?"""
        return self.forced(a) == v

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
        # every constraint defining `other` must be implied here
        obase = other.base
        for i, bit in enumerate(obase.bits()):
            if self.forced(i) != bit:
                return False
        for atom in other._atoms:
            if atom[0] == "const":
                if not self.implies_const(atom[1], atom[2]):
                    return False
            else:
                if not self.implies_rel(atom[1], atom[2], atom[3]):
                    return False
        return True

    def literals(self):
        """The defining constraints as a list of positive literals."""
        lits = [("const", i, b) for i, b in enumerate(self.base.bits())]
        lits.extend(self._atoms)
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

