"""Points of the binary sequence space and an exact algebra of clopen subsets.

A SymbolicClopen is a cylinder (all sequences extending a base word) cut down
by finitely many constraints on coordinates beyond the base: bit(a)=v,
bit(a)=bit(b), bit(a)!=bit(b).  That constraint language is closed under the
coordinate transport the maps need, and satisfiability, subset, and projection
are all decidable through a parity union-find with no assignment enumeration.

Normal form: constraints whose coordinates fall inside the base prefix are
folded into the prefix (or produce the empty set), and forced bits right after
the base extend it.  What remains is a set of forced coordinates and a set of
free classes.  The normal form is kept in one of two stores, and which one is
decided by the normal form alone, so two sets denote the same family of
points iff they have the same store with equal contents:

- A constant-only set (no free class) whose coordinates are dense is two
  ints, mask and value, with coordinate i at bit i: mask marks the forced
  coordinates and value holds their bits, so the base is the low run of ones
  of mask.  Dense means that the largest coordinate plus one is at most
  _DENSE times one more than the number of forced coordinates, the base
  included; then each int takes a few bits per forced coordinate.  A union
  of two dense masks is dense, so intersections stay in this store.
  Intersect is a conflict test m1 & m2 & (v1 ^ v2) and an OR, subset a mask
  containment and an agreement test, and contains one AND and one compare
  against the point's bits read as an int (LazyPoint.low_bits).
- Any other set keeps its base word and one map from each constrained
  coordinate to (root, parity): a forced coordinate maps to (-1, its bit),
  one of two tuples every set shares, and a member of a free class maps to
  the class's least coordinate and its parity to it.  So a pin at coordinate
  10**9 stays one dict entry, not a 125 MB int.

render, atoms, classes and the hash are derived from either store when
asked for, and read the same for both.  The classes are built in one pass:
each coordinate links straight to its class with a parity, and a union
relabels the smaller class into the larger (weighted union with parity,
Tarjan 1975).  intersect returns an operand that lies inside the other;
otherwise it and with_atoms start from an operand's normal form and merge in
only the other constraints.  pinned ORs the pins into the ints, or copies
the map when the pins only add forced coordinates to a set with a free
class.
"""

from __future__ import annotations

from itertools import compress

from .errors import EmptySet, InvalidArgument
from .sequences import BinWord, code_bit, code_is_prefix

# an int-form set spans at most this many coordinates per forced coordinate
_DENSE = 64

_DIGITS = bytes.maketrans(b"01", b"\0\1")


def _dense(top, count) -> bool:
    """May a constant-only set whose largest coordinate is top - 1, with
    count forced coordinates, be kept as two ints?"""
    return top <= _DENSE * (count + 1)


def _mirror(x: int) -> int:
    """x with the bits below its leading 1 in reverse order: it maps a word
    code to the word's bits at coordinates 0, 1, ... over a 1 at its length,
    and back."""
    return int("1" + bin(x)[:2:-1], 2)


def _run(mask: int) -> int:
    """The length of the low run of ones of mask: the base length."""
    return (mask ^ (mask + 1)).bit_length() - 1


def _has_class(link) -> bool:
    """Does the link map hold a free class?"""
    return any(r != -1 for r, _ in link.values())


def _digits(x: int, n: int) -> bytes:
    """The bits of x below n as bytes of 0 and 1, coordinate i at index i."""
    return bin(x | 1 << n)[:1:-1].encode().translate(_DIGITS)


class LazyPoint:
    """An infinite binary sequence: finitely many explicit bits over a
    constant default tail.
    """

    __slots__ = ("explicit", "default", "_low")

    def __init__(self, explicit=None, default=0):
        self.explicit = dict(explicit or {})
        self.default = default & 1
        self._low = None

    def eval(self, k) -> int:
        if k < 0:
            raise InvalidArgument("coordinates are natural numbers")
        return self.explicit.get(k, self.default)

    def low_bits(self, n: int) -> int:
        """An int whose bit i is the point's bit i at every coordinate
        i < n; its bits at n and above are unspecified.

        The bits are read from the explicit ones once, over at least _DENSE
        coordinates per explicit bit, and cached until a longer read is
        asked for, so a far explicit bit never makes a long int.
        """
        got = self._low
        if got is None or got[0] < n:
            n = max(n, _DENSE * (len(self.explicit) + 1))
            flips = bytearray((n >> 3) + 1)
            d = self.default
            for k, v in self.explicit.items():
                if k < n and v != d:
                    flips[k >> 3] |= 1 << (k & 7)
            bits = int.from_bytes(flips, "little")
            got = self._low = (n, bits ^ ((1 << n) - 1) if d else bits)
        return got[1]

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


def _ints(mask, value) -> "SymbolicClopen":
    """The nonempty set stored as (mask, value)."""
    out = object.__new__(SymbolicClopen)
    out.empty, out._base, out._link, out._mask, out._value = False, None, None, mask, value
    return out


def _empty_on(base) -> "SymbolicClopen":
    """The empty set, carrying the base a contradiction was found on."""
    out = object.__new__(SymbolicClopen)
    out.empty, out._base, out._link, out._mask, out._value = True, base, {}, None, None
    return out


class SymbolicClopen:
    # an int-form set has _mask and _value and no _base or _link; any other
    # set, the empty ones included, has _base and _link and no ints
    __slots__ = ("empty", "_base", "_link", "_mask", "_value")

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
            for x, e in seed._items():
                link[x] = e
                members.setdefault(e[0], []).append(x)
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
            self._base, self._link, self._mask, self._value = base, {}, None, None
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
        # each free class is rerooted at its least coordinate
        roots = {}
        for c, ms in members.items():
            if c != -1:
                r = min(ms)
                roots[c] = r, link[r][1]
        self._store(
            base if code == bcode else BinWord(code),
            {x: _PIN[p] if c == -1 else (roots[c][0], p ^ roots[c][1]) for x, (c, p) in link.items()},
        )

    def _store(self, base, link):
        """Keep the nonempty normal form (base, link) as two ints when it is
        constant-only and dense, and as it is otherwise."""
        blen = len(base)
        if _dense(max(link, default=blen - 1) + 1, blen + len(link)) and not _has_class(link):
            mask, value = (1 << blen) - 1, _mirror(base.code) ^ (1 << blen)
            for x, (_, p) in link.items():
                bit = 1 << x
                mask |= bit
                if p:
                    value |= bit
            self._mask, self._value, self._base, self._link = mask, value, None, None
        else:
            self._mask, self._value, self._base, self._link = None, None, base, link

    def _bits(self, start):
        """(coordinate, bit) of each coordinate from `start` up that an
        int-form set forces, in increasing order."""
        n = self._mask.bit_length()
        ms = _digits(self._mask, n)[start:n]
        return zip(compress(range(start, n), ms), compress(_digits(self._value, n)[start:n], ms))

    def _items(self):
        """The (coordinate, link entry) pairs of the normal form past the
        base, in the link-map shape; an int-form set lists its pins."""
        if self._mask is None:
            return self._link.items()
        return ((x, _PIN[v]) for x, v in self._bits(_run(self._mask)))

    # -- basic protocol ----------------------------------------------------

    @property
    def base(self) -> BinWord:
        mask = self._mask
        if mask is None:
            return self._base
        n = _run(mask)
        return BinWord(_mirror(self._value & ((1 << n) - 1) | 1 << n))

    def __eq__(self, other):
        if not isinstance(other, SymbolicClopen):
            return NotImplemented
        if self.empty or other.empty:
            return self.empty and other.empty
        if self._mask is not None or other._mask is not None:
            return self._mask == other._mask and self._value == other._value
        return self._base.code == other._base.code and self._link == other._link

    def __hash__(self):
        # all empty sets are equal, whatever their base
        if self.empty:
            return 0
        return hash((self.base.code, frozenset(self._items())))

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
        keys = [(x, -1, p) if r == -1 else (r, x, p) for x, (r, p) in self._items() if x != r]
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
        mask = self._mask
        if mask is not None:
            return (self._value >> i) & 1 if (mask >> i) & 1 else None
        if i < len(self._base):
            return code_bit(self._base.code, i)
        e = self._link.get(i)
        if e is not None and e[0] == -1:
            return e[1]
        return None

    def forced_from(self, start):
        """(coordinate, bit) for each coordinate from `start` up that an
        int-form set forces, in increasing order; None for a set kept as a
        link map, which may have free classes."""
        return None if self._mask is None else list(self._bits(start))

    def constrained_coords(self):
        return sorted(x for x, _ in self._items())

    def first_free_coord(self) -> int:
        # forced bits right after the base fold into it
        if self.empty:
            raise EmptySet("the empty set has no free coordinate")
        mask = self._mask
        return len(self._base) if mask is None else _run(mask)

    def contains(self, p: LazyPoint) -> bool:
        if self.empty:
            return False
        mask = self._mask
        if mask is not None:
            return not (p.low_bits(mask.bit_length()) ^ self._value) & mask
        for i, b in enumerate(self._base.bits()):
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
        if self._mask is not None:
            return LazyPoint(dict(self._bits(0)))
        bits = {i: b for i, b in enumerate(self._base.bits())}
        for x, (_, p) in self._link.items():
            bits[x] = p
        return LazyPoint(bits)

    # -- relational structure for transports -------------------------------

    def classes(self):
        """[(forced bit or None, [(coord, parity relative to class root)])] sorted;
        each forced coordinate is a class of its own."""
        groups = {}
        for x, (r, p) in self._items():
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

        On an int-form set the pins are ORed into the ints when the result
        stays dense.  On a set with a free class, a coordinate past the one
        right after the base, in no class, becomes a forced coordinate of
        its own: no union and no fold into the base, so when every pin is
        such a coordinate the link is copied and the pins added.  Any other
        pin goes through with_atoms.
        """
        mask = self._mask
        if mask is not None:
            if not bits:
                return self
            count = mask.bit_count() + len(bits)
            if min(bits) >= 0 and _dense(max(bits) + 1, count):
                pm = pv = 0
                for c, v in bits.items():
                    bit = 1 << c
                    pm |= bit
                    if v & 1:
                        pv |= bit
                value = self._value
                if pm & mask & (pv ^ value):
                    return _empty_on(self.base)
                pm |= mask
                if _dense(pm.bit_length(), pm.bit_count()):
                    return _ints(pm, value | pv)
        elif not self.empty and _has_class(self._link):
            blen, link = len(self._base), self._link
            if not any(c <= blen or c in link for c in bits):
                out = object.__new__(SymbolicClopen)
                out.empty = False
                out._mask = out._value = None
                out._base, out._link = self._base, dict(link)
                for c, v in bits.items():
                    out._link[c] = _PIN[v & 1]
                return out
        return self.with_atoms([atom_const(c, v) for c, v in bits.items()])

    def meets(self, other: "SymbolicClopen") -> bool:
        """Do the two sets share a point?  Two int-form sets meet unless
        they force a coordinate to different bits, so nothing is built."""
        if self.empty or other.empty:
            return False
        if self._mask is not None and other._mask is not None:
            return not self._mask & other._mask & (self._value ^ other._value)
        return not self.intersect(other).empty

    def intersect(self, other: "SymbolicClopen") -> "SymbolicClopen":
        if self.empty:
            return self
        if other.empty:
            return other
        m1, m2 = self._mask, other._mask
        if m1 is not None and m2 is not None:
            v1, v2 = self._value, other._value
            both = m1 & m2
            if both & (v1 ^ v2):
                # the empty set on the longer base, or on none when the
                # bases are incomparable
                b1, b2 = _run(m1), _run(m2)
                if (v1 ^ v2) & ((1 << min(b1, b2)) - 1):
                    return EMPTY_SET
                return _empty_on((self if b1 >= b2 else other).base)
            if both == m2:
                return self
            if both == m1:
                return other
            return _ints(m1 | m2, v1 | v2)
        # seed from the operand with the longer base, on a tie the one with
        # more linked coordinates; the other's base is then a prefix or
        # the sets are disjoint
        seed, rest = self, other
        if (len(seed.base), len(seed._link or ())) < (len(rest.base), len(rest._link or ())):
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
        if a == b:
            return parity == 0
        if fa is not None or fb is not None or self._link is None:
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
        m1, m2 = self._mask, other._mask
        if m1 is not None and m2 is not None:
            return not (m2 & ~m1 or (self._value ^ other._value) & m2)
        # every constraint defining `other` must be implied here; a normalized
        # base takes in every bit forced right after it, so other's base must
        # be a prefix of it
        if not code_is_prefix(other.base.code, self.base.code):
            return False
        for x, (r, p) in other._items():
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

