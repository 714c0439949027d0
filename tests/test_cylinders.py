"""Clopen constraint algebra against a brute-force point-enumeration oracle."""

import tracemalloc
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cantorlab.approximation import run
from cantorlab.cylinders import (
    EMPTY_SET,
    FULL_SPACE,
    ClopenUnion,
    LazyPoint,
    SymbolicClopen,
    atom_const,
    atom_eq,
    atom_ne,
    cylinder,
)
from cantorlab.embedding import CantorInstance, build_scheme
from cantorlab.errors import EmptySet, InvalidArgument
from cantorlab.maps import MapId, _read_inverse, domain_D, image_clopen, preimage_clopen
from cantorlab.sequences import BinWord, anchor_word, code_bit, stride, stride_expand


# ---------------------------------------------------------------------------
# oracle: evaluate raw defining data pointwise, no constraint reasoning


def oracle_member(base: str, atoms, bits: dict) -> bool:
    get = lambda i: bits.get(i, 0)
    for i, ch in enumerate(base):
        if get(i) != int(ch):
            return False
    for atom in atoms:
        if atom[0] == "const":
            if get(atom[1]) != atom[2]:
                return False
        else:
            if (get(atom[1]) ^ get(atom[2])) != atom[3]:
                return False
    return True


def all_assignments(coords):
    coords = sorted(coords)
    for values in product((0, 1), repeat=len(coords)):
        yield dict(zip(coords, values))


def mentioned_coords(base: str, atoms):
    out = set(range(len(base)))
    for atom in atoms:
        out.add(atom[1])
        if atom[0] == "rel":
            out.add(atom[2])
    return out


coord_st = st.integers(min_value=0, max_value=9)
atom_st = st.one_of(
    st.tuples(st.just("const"), coord_st, st.integers(0, 1)),
    st.tuples(st.just("rel"), coord_st, coord_st, st.integers(0, 1)),
)
clopen_raw_st = st.tuples(st.text(alphabet="01", max_size=3), st.lists(atom_st, max_size=4))


# ---------------------------------------------------------------------------
# points


def test_point_eval_frozen_values():
    assert LazyPoint().eval(10**9) == 0
    p = LazyPoint({5: 1})
    assert p.eval(5) == 1
    assert p.eval(6) == 0
    assert str(LazyPoint({0: 1, 3: 0}).prefix(4)) == "1000"


def test_contains_frozen_values():
    n01 = cylinder("01")
    assert n01.contains(LazyPoint({0: 0, 1: 1, 2: 0, 3: 0}))
    assert not n01.contains(LazyPoint())
    c = SymbolicClopen("0", [atom_ne(3, 9)])
    assert not c.contains(LazyPoint())


# ---------------------------------------------------------------------------
# normalization


@given(clopen_raw_st)
def test_normalization_preserves_membership(raw):
    base, atoms = raw
    C = SymbolicClopen(base, atoms)
    coords = mentioned_coords(base, atoms) | mentioned_coords(str(C.base), C.atoms if not C.empty else [])
    seen_any = False
    for bits in all_assignments(coords):
        expected = oracle_member(base, atoms, bits)
        seen_any = seen_any or expected
        assert C.contains(LazyPoint(bits)) == expected
    assert C.is_empty() == (not seen_any)


@given(clopen_raw_st)
def test_canonicalization_idempotent(raw):
    base, atoms = raw
    C = SymbolicClopen(base, atoms)
    if not C.empty:
        D = SymbolicClopen(C.base, C.atoms)
        assert D == C and D.render() == C.render()


def test_atoms_fold_into_base():
    # a constraint just past the base that pins a bit becomes part of the base
    C = SymbolicClopen("", [atom_const(0, 1)])
    assert str(C.base) == "1" and C.atoms == ()
    # chained relations pin through equalities; bit 4 stays an atom because
    # coordinates 2 and 3 in between are free
    D = SymbolicClopen("0", [atom_eq(1, 4), atom_const(4, 0), atom_ne(2, 5)])
    assert str(D.base) == "00"
    assert D.atoms == (("rel", 2, 5, 1), ("const", 4, 0))
    # within-base folds simply vanish or contradict
    assert SymbolicClopen("01", [atom_const(1, 1)]).atoms == ()
    assert SymbolicClopen("01", [atom_const(1, 0)]).empty


def test_render_format():
    C = SymbolicClopen("000000000", [atom_ne(24, 72)])
    assert C.render() == "N=00000000_0; bit(24)!=bit(72)"
    assert SymbolicClopen("01").render() == "N=01"
    assert EMPTY_SET.render() == "EMPTY"


def test_thousands_of_linked_coordinates_decide_exactly():
    """Linked coordinates carry no budget: a class of 5,001 alternating
    coordinates and 3,000 disjoint unequal pairs build, and intersect and
    subset decide them exactly."""
    n = 5000
    chain = SymbolicClopen("", [atom_ne(i, i + 1) for i in range(n)])
    assert len(chain.constrained_coords()) == n + 1
    # n is even, so bit(n) = bit(0) on every point of the chain
    assert chain.intersect(SymbolicClopen("", [atom_ne(0, n)])).is_empty()
    same = chain.intersect(SymbolicClopen("", [atom_eq(1, n - 1)]))
    assert same == chain and chain.subset(same) and same.subset(chain)
    pinned = chain.intersect(cylinder("0"))
    assert pinned.base == BinWord.from_str("01" * (n // 2) + "0")
    assert pinned.subset(chain) and not chain.subset(pinned)
    assert chain.contains(pinned.witness_point())

    pairs = SymbolicClopen("", [atom_ne(2 * i, 2 * i + 1) for i in range(3000)])
    assert len(pairs.atoms) == 3000
    assert pairs.intersect(SymbolicClopen("", [atom_eq(5998, 5999)])).is_empty()
    assert pairs.subset(SymbolicClopen("", [atom_ne(2, 3)]))
    assert not SymbolicClopen("", [atom_ne(2, 3)]).subset(pairs)
    assert not pairs.intersect(chain).is_empty()
    assert pairs.contains(pairs.intersect(chain).witness_point())


# ---------------------------------------------------------------------------
# set operations against the oracle


@given(clopen_raw_st, clopen_raw_st)
@settings(max_examples=60)
def test_set_ops_match_oracle(raw_c, raw_d):
    C = SymbolicClopen(*raw_c)
    D = SymbolicClopen(*raw_d)
    coords = mentioned_coords(*raw_c) | mentioned_coords(*raw_d)
    inter = C.intersect(D)
    uni = ClopenUnion((C, D))
    diff = ClopenUnion((C,)).minus(D)
    sub_cd = C.subset(D)
    oracle_sub = True
    for bits in all_assignments(coords):
        p = LazyPoint(bits)
        in_c = oracle_member(*raw_c, bits)
        in_d = oracle_member(*raw_d, bits)
        assert inter.contains(p) == (in_c and in_d)
        assert uni.contains(p) == (in_c or in_d)
        assert diff.contains(p) == (in_c and not in_d)
        if in_c and not in_d:
            oracle_sub = False
    assert sub_cd == oracle_sub


@given(clopen_raw_st, clopen_raw_st)
@settings(max_examples=40)
def test_union_parts_pairwise_disjoint(raw_c, raw_d):
    u = ClopenUnion((SymbolicClopen(*raw_c), SymbolicClopen(*raw_d)))
    for i, a in enumerate(u.parts):
        for b in u.parts[i + 1 :]:
            assert a.intersect(b).empty


def test_set_ops_frozen_values():
    full = ClopenUnion((FULL_SPACE,), already_disjoint=True)
    assert ClopenUnion((cylinder("0"), cylinder("1"))) == full
    assert cylinder("01").intersect(cylinder("0")) == cylinder("01")
    assert cylinder("00").intersect(cylinder("1")).is_empty()


# ---------------------------------------------------------------------------
# diameter: a nonempty set has diameter 2^-first_free_coord()


def test_diameter_frozen_values():
    assert cylinder("010").first_free_coord() == 3
    assert FULL_SPACE.first_free_coord() == 0
    assert SymbolicClopen("0", [atom_const(1, 0)]).first_free_coord() == 2
    with pytest.raises(EmptySet):
        EMPTY_SET.first_free_coord()


@given(clopen_raw_st)
def test_diameter_matches_brute_force(raw):
    C = SymbolicClopen(*raw)
    if C.empty:
        return
    coords = mentioned_coords(*raw) | mentioned_coords(str(C.base), C.atoms)
    probe = max(coords, default=0) + 2
    first_split = None
    for i in range(probe + 1):
        seen = set()
        for bits in all_assignments(coords | {i}):
            if oracle_member(*raw, bits):
                seen.add(bits.get(i, 0))
        if len(seen) == 2:
            first_split = i
            break
    assert first_split is not None
    assert C.first_free_coord() == first_split
    assert C.first_free_coord() >= len(C.base)


@given(clopen_raw_st, clopen_raw_st)
@settings(max_examples=40)
def test_diameter_monotone_under_subset(raw_c, raw_d):
    C, D = SymbolicClopen(*raw_c), SymbolicClopen(*raw_d)
    if not C.empty and not D.empty and C.subset(D):
        assert C.first_free_coord() >= D.first_free_coord()


# ---------------------------------------------------------------------------
# witnesses


@given(clopen_raw_st)
def test_witness_point_is_member(raw):
    C = SymbolicClopen(*raw)
    if not C.empty:
        assert C.contains(C.witness_point())


# ---------------------------------------------------------------------------
# coordinates are natural numbers


@pytest.mark.parametrize("atom", [("const", -1, 1), ("const", -1, 0), ("const", -3, 0),
                                  ("rel", -1, 2, 0), ("rel", 2, -1, 1)])
def test_negative_coordinate_in_atom_is_rejected(atom):
    with pytest.raises(InvalidArgument):
        SymbolicClopen("0", [atom])
    with pytest.raises(InvalidArgument):
        cylinder("0").with_atoms([atom])
    # also after a contradiction has already emptied the set
    with pytest.raises(InvalidArgument):
        SymbolicClopen("0", [atom_const(0, 1), atom])
    with pytest.raises(InvalidArgument):
        EMPTY_SET.with_atoms([atom])


def test_negative_coordinate_query_is_rejected():
    C = cylinder("01")
    with pytest.raises(InvalidArgument):
        C.forced(-1)
    with pytest.raises(InvalidArgument):
        C.implies_rel(-1, 0, 1)
    with pytest.raises(InvalidArgument):
        C.implies_rel(0, -2, 0)


# ---------------------------------------------------------------------------
# the normal form against the rebuild-until-stable constructor it replaces


class ReferenceClopen:
    """The earlier constructor: a path-compressing parity union-find over the
    whole atom list, rebuilt from scratch after each extension of the base by
    bits forced right after it."""

    def __init__(self, base, atoms):
        self.base = BinWord.from_str(base) if isinstance(base, str) else base
        self.empty = False
        self._link = {}
        self._const = {}
        atoms = list(atoms)
        while True:
            self._build(atoms)
            if self.empty:
                break
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
        self.atoms = self._atoms = self._canonical_atoms()

    def _forced_beyond_base(self, i):
        if i in self._link:
            r, p = self._link[i]
            v = self._const.get(r)
            if v is not None:
                return v ^ p
        return None

    def _build(self, atoms):
        blen = len(self.base)
        bcode = self.base.code
        parent = {}

        def find(x):
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

        for atom in atoms:
            if atom[0] == "const":
                a, b, parity = atom[1], -1, atom[2] & 1
            else:
                a, b, parity = atom[1], atom[2], atom[3] & 1
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

    def render(self):
        return SymbolicClopen.render(self)

    def classes(self):
        groups = {}
        for x, (r, p) in self._link.items():
            groups.setdefault(r, []).append((x, p))
        return [(self._const.get(r), sorted(groups[r])) for r in sorted(groups)]


def normal_form(C):
    return (C.empty, C.base, C.atoms, C.render(), C.classes())


def assert_matches_reference(base, atoms):
    C = SymbolicClopen(base, atoms)
    assert normal_form(C) == normal_form(ReferenceClopen(base, atoms)), (base, atoms)
    return C


@given(st.tuples(st.text(alphabet="01", max_size=3), st.lists(atom_st, max_size=10)))
@settings(max_examples=300)
def test_normal_form_matches_reference(raw):
    assert_matches_reference(*raw)


SMALL_ATOMS = [atom_const(a, v) for a in range(4) for v in (0, 1)] + [
    (kind, a, b, p) for a in range(4) for b in range(4) if a != b
    for kind, p in (("rel", 0), ("rel", 1))
]


def test_normal_form_matches_reference_exhaustive():
    """Every base of length <= 2 with every ordered pair of atoms over
    coordinates 0-3, and every chain of three atoms over 1-4 from base 0."""
    bases = ["", "0", "1", "00", "01", "10", "11"]
    for base in bases:
        for pair in product(SMALL_ATOMS, repeat=2):
            assert_matches_reference(base, pair)
    rels = [(kind, a + 1, b + 1, p) for kind, a, b, p in SMALL_ATOMS[8:]]
    for triple in product(rels, repeat=3):
        assert_matches_reference("0", triple + (atom_const(4, 1),))


def test_clopen_as_base_cuts_that_set():
    C = SymbolicClopen("0", [atom_ne(2, 5)])
    assert SymbolicClopen(C, [atom_const(1, 1)]) == SymbolicClopen("01", [atom_ne(2, 5)])
    assert SymbolicClopen(C, [atom_eq(2, 5)]).empty
    assert SymbolicClopen(EMPTY_SET, [atom_const(3, 0)]).empty


def scratch_intersect(C, D):
    """C and D as one from-scratch build on the longer base."""
    if C.empty or D.empty:
        return C if C.empty else D
    if C.base.is_prefix_of(D.base):
        return SymbolicClopen(D.base, C.atoms + D.atoms)
    if D.base.is_prefix_of(C.base):
        return SymbolicClopen(C.base, C.atoms + D.atoms)
    return EMPTY_SET


def scratch_minus(C, D):
    if C.empty or D.empty:
        return [] if C.empty else [C]
    parts, kept = [], []
    for lit in D.literals():
        neg = ("const", lit[1], lit[2] ^ 1) if lit[0] == "const" else lit[:3] + (lit[3] ^ 1,)
        piece = SymbolicClopen(C.base, list(C.atoms) + kept + [neg])
        if not piece.empty:
            parts.append(piece)
        kept.append(lit)
    return parts


@given(clopen_raw_st, clopen_raw_st, st.lists(atom_st, max_size=6))
@settings(max_examples=300)
def test_seeded_algebra_matches_scratch_build(raw_c, raw_d, extra):
    C = assert_matches_reference(*raw_c)
    D = assert_matches_reference(*raw_d)
    for X, Y in ((C, D), (D, C)):
        assert normal_form(X.intersect(Y)) == normal_form(scratch_intersect(X, Y))
        got, want = X.minus(Y), scratch_minus(X, Y)
        assert [normal_form(p) for p in got] == [normal_form(p) for p in want]
    if not C.empty:
        want = SymbolicClopen(C.base, list(C.atoms) + extra)
        assert normal_form(C.with_atoms(extra)) == normal_form(want)


def test_seeded_algebra_matches_scratch_build_exhaustive():
    """Seeding across bases of length 0-2, each cut by one or two atoms."""
    cells = [SymbolicClopen(b, [a]) for b in ("", "0", "01") for a in SMALL_ATOMS]
    cells += [SymbolicClopen("", pair) for pair in product(SMALL_ATOMS[::3], repeat=2)]
    for C in cells:
        for D in cells:
            assert normal_form(C.intersect(D)) == normal_form(scratch_intersect(C, D))


def assert_equal_and_hash_alike(*sets):
    for X in sets:
        assert X == sets[0] and hash(X) == hash(sets[0]), (X, sets[0])


@given(clopen_raw_st, clopen_raw_st, st.randoms(use_true_random=False))
@settings(max_examples=300)
def test_equal_sets_built_along_different_routes_hash_alike(raw_c, raw_d, rnd):
    """Both intersection orders, the whole cut built at once, the atoms in
    another order and a nonempty normal form rebuilt from its own base and
    atoms all give one set, and so one hash."""
    (bc, ac), (bd, ad) = raw_c, raw_d
    C, D = SymbolicClopen(bc, ac), SymbolicClopen(bd, ad)
    at_once = SymbolicClopen(bc, ac + [atom_const(i, int(ch)) for i, ch in enumerate(bd)] + ad)
    assert_equal_and_hash_alike(C.intersect(D), D.intersect(C), at_once)
    shuffled = list(ac)
    rnd.shuffle(shuffled)
    rebuilt = [] if C.empty else [SymbolicClopen(C.base, C.atoms)]
    assert_equal_and_hash_alike(C, SymbolicClopen(bc, shuffled), *rebuilt)


def test_empty_sets_on_different_bases_hash_alike():
    empties = [
        EMPTY_SET,
        SymbolicClopen("01", [atom_const(1, 0)]),
        SymbolicClopen("1", [atom_eq(2, 3), atom_ne(2, 3)]),
        SymbolicClopen("0110", [atom_const(7, 1), atom_const(7, 0)]),
        cylinder("0").intersect(cylinder("1")),
        cylinder("0").with_atoms([atom_const(0, 1)]),
    ]
    assert all(X.empty for X in empties)
    assert_equal_and_hash_alike(*empties)
    assert len(set(empties)) == 1


def per_bit_subset(C, D):
    """subset with the base compared one forced bit at a time."""
    if C.empty:
        return True
    if D.empty:
        return False
    if any(C.forced(i) != bit for i, bit in enumerate(D.base.bits())):
        return False
    return all(
        C.forced(a[1]) == a[2] if a[0] == "const" else C.implies_rel(*a[1:])
        for a in D.atoms
    )


@given(clopen_raw_st, clopen_raw_st)
@settings(max_examples=300)
def test_subset_prefix_check_matches_per_bit_check(raw_c, raw_d):
    C, D = SymbolicClopen(*raw_c), SymbolicClopen(*raw_d)
    for X, Y in ((C, D), (D, C), (C, C.intersect(D)), (C.intersect(D), D)):
        assert X.subset(Y) == per_bit_subset(X, Y)


def assert_inner_operand_returned(X, Y):
    """With X inside Y, both intersections are an operand equal to X."""
    for got in (X.intersect(Y), Y.intersect(X)):
        assert got is X or got is Y
        assert got == X and got.render() == X.render()


@given(clopen_raw_st, clopen_raw_st)
@settings(max_examples=300)
def test_intersect_returns_an_operand_inside_the_other(raw_c, raw_d):
    C, D = SymbolicClopen(*raw_c), SymbolicClopen(*raw_d)
    meet = C.intersect(D)
    for X, Y in ((C, D), (D, C), (meet, C), (meet, D), (C, C)):
        if X.subset(Y):
            assert_inner_operand_returned(X, Y)


def test_intersect_returns_an_operand_inside_the_other_exhaustive():
    """Every nested pair among the seeding cells and their copies built
    afresh, so equal operands are distinct objects too."""
    cells = [SymbolicClopen(b, [a]) for b in ("", "0", "01") for a in SMALL_ATOMS]
    cells += [SymbolicClopen("", pair) for pair in product(SMALL_ATOMS[::3], repeat=2)]
    cells += [SymbolicClopen(C.base, C.atoms) for C in cells]
    nested = 0
    for C in cells:
        for D in cells:
            if C.subset(D):
                assert_inner_operand_returned(C, D)
                nested += 1
    assert nested > len(cells)


def test_build_scheme_skips_intersections_equal_to_an_operand(monkeypatch):
    """The depth-7 scheme runs the clopen constructor at most 10 times:
    its cells are int-form sets, and intersect, pinned and the transports
    build those with no constructor call (798 calls when every cell went
    through the union-find; 5,121 when every intersection was rebuilt, even
    one equal to an operand; 1,810 when each split copy built its own split
    cells, each through the constructor)."""
    built = []
    real = SymbolicClopen.__init__

    def counted(self, *args, **kwargs):
        built.append(None)
        real(self, *args, **kwargs)

    monkeypatch.setattr(SymbolicClopen, "__init__", counted)
    build_scheme(CantorInstance(), 7)
    assert len(built) <= 10


def test_scheme_cells_hold_at_most_1200_bytes_each():
    """Under tracemalloc, with the stages built before tracing starts, the
    depth-10 scheme holds at most 1,200 B per cell (it read 870 B, and
    about 2,300 B when each cell kept its normal form four times: the link
    map, a constant table, the sorted atoms and a stored hash)."""
    run(1, 10)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        states = build_scheme(CantorInstance(1), 10)
        held = tracemalloc.get_traced_memory()[0] - base
    finally:
        tracemalloc.stop()
    cells = sum(len(state.cells) for state in states)
    assert held <= 1200 * cells, (held, cells)


# ---------------------------------------------------------------------------
# pinned: the copy of the normal form against with_atoms


def assert_same_construction(got, want):
    """Equal normal form down to the store (link table or ints) and the hash."""
    assert got.empty == want.empty
    assert got.base == want.base
    assert got._link == want._link
    assert (got._mask, got._value) == (want._mask, want._value)
    assert got.atoms == want.atoms
    assert hash(got) == hash(want)
    assert got.render() == want.render()


def pin_atoms(bits):
    return [atom_const(c, v) for c, v in bits.items()]


pins_st = st.dictionaries(st.integers(min_value=0, max_value=12), st.integers(0, 1), max_size=4)


@given(clopen_raw_st, pins_st)
@settings(max_examples=400)
def test_pinned_matches_with_atoms(raw, bits):
    C = SymbolicClopen(*raw)
    assert_same_construction(C.pinned(bits), C.with_atoms(pin_atoms(bits)))


def counted_constructions(monkeypatch):
    built = []
    real = SymbolicClopen.__init__

    def counted(self, *args, **kwargs):
        built.append(None)
        real(self, *args, **kwargs)

    monkeypatch.setattr(SymbolicClopen, "__init__", counted)
    return built


def test_pinned_copies_only_past_the_base_fold_and_outside_every_class(monkeypatch):
    """Pins past the coordinate right after the base and in no class are a
    copy with no constructor call; a pin at that coordinate (it folds into
    the base), inside the base, on a linked or on a forced coordinate goes
    through with_atoms, and each gives with_atoms' normal form."""
    C = SymbolicClopen("01", [atom_ne(4, 6), atom_const(8, 1)])
    fast = {3: 1, 9: 0, 5: 1}
    slow = [{2: 1}, {2: 0, 9: 1}, {1: 1}, {4: 0}, {6: 1, 9: 0}, {8: 1}, {8: 0}]
    want = {}
    for bits in [fast] + slow:
        want[tuple(bits.items())] = C.with_atoms(pin_atoms(bits))
    built = counted_constructions(monkeypatch)
    assert_same_construction(C.pinned(fast), want[tuple(fast.items())])
    assert built == []
    for bits in slow:
        before = len(built)
        assert_same_construction(C.pinned(bits), want[tuple(bits.items())])
        assert len(built) > before, bits
    assert str(C.pinned({2: 1}).base) == "011"
    assert C.pinned({8: 0}).empty
    assert EMPTY_SET.pinned({5: 1}).empty


def test_cell_pinned_and_cell_around_match_with_atoms():
    """cell_pinned, which pins through pinned, gives the cell with_atoms
    builds from the point's bits at the unforced coordinates, sparse or a
    whole range below d."""
    inst = CantorInstance()
    cells = [
        SymbolicClopen("01", [atom_ne(4, 6), atom_const(8, 1)]),
        SymbolicClopen("", [atom_eq(3, 7)]),
        cylinder("0010"),
    ]
    for C in cells:
        p = C.witness_point()
        for coords in ([5, 9, 11], [3, 10], [len(C.base)], [len(C.base) + 1, 20], range(6)):
            bits = {i: p.eval(i) for i in coords if C.forced(i) is None}
            assert_same_construction(inst.cell_pinned(C, p, coords), C.with_atoms(pin_atoms(bits)))
        for d in range(12):
            bits = {i: p.eval(i) for i in range(d) if C.forced(i) is None}
            assert_same_construction(inst.cell_pinned(C, p, range(d)), C.with_atoms(pin_atoms(bits)))


# ---------------------------------------------------------------------------
# the two stores: a constant-only dense set is two ints, any other a link map

# small coordinates fold into the base; the others straddle bit 64 and the
# 30-bit digits of the ints
wide_coord_st = st.one_of(st.integers(0, 5), st.integers(58, 70), st.integers(120, 130))
wide_const_st = st.tuples(st.just("const"), wide_coord_st, st.integers(0, 1))
wide_atom_st = st.one_of(
    wide_const_st, st.tuples(st.just("rel"), wide_coord_st, wide_coord_st, st.integers(0, 1))
)
short_base_st = st.text(alphabet="01", max_size=3)
wide_raw_st = st.one_of(
    st.tuples(short_base_st, st.lists(wide_atom_st, max_size=3)),
    st.tuples(short_base_st, st.lists(wide_const_st, max_size=3)),
)
wide_pins_st = st.dictionaries(wide_coord_st, st.integers(0, 1), max_size=3)


def is_int_form(C):
    return C._mask is not None


def oracle_forced(raw, coords, i):
    """The bit every member has at i (a coordinate in coords), or None."""
    seen = {bits[i] for bits in all_assignments(coords) if oracle_member(*raw, bits)}
    return seen.pop() if len(seen) == 1 else None


@given(wide_raw_st, wide_pins_st)
@settings(max_examples=200, deadline=None)
def test_wide_coordinates_match_oracle(raw, pins):
    """render, is_empty and the store against the rebuild-until-stable
    constructor, and forced, contains and pinned against the brute-force
    oracle, on coordinates across the 64-bit boundary."""
    C = assert_matches_reference(*raw)
    if not C.empty:
        constant = all(a[0] == "const" for a in C.atoms)
        top = max([len(C.base) - 1] + [a[-2] for a in C.atoms]) + 1
        assert is_int_form(C) == (constant and top <= 64 * (len(C.base) + len(C.atoms) + 1))
    coords = mentioned_coords(*raw) | set(pins)
    pin_raw = (raw[0], raw[1] + pin_atoms(pins))
    P = C.pinned(pins)
    assert_same_construction(P, C.with_atoms(pin_atoms(pins)))
    # an empty result keeps the base it was found on, which may be C's longer one
    ref = ReferenceClopen(*pin_raw)
    assert P.empty == ref.empty and (P.empty or normal_form(P) == normal_form(ref))
    for bits in all_assignments(coords):
        p = LazyPoint(bits)
        assert C.contains(p) == oracle_member(*raw, bits)
        assert P.contains(p) == oracle_member(*pin_raw, bits)
    if not C.empty:
        for i in sorted(coords):
            assert C.forced(i) == oracle_forced(raw, coords, i), i
        assert C.forced(max(coords, default=-1) + 1) is None
        assert C.first_free_coord() == len(C.base)


@given(wide_raw_st, st.tuples(short_base_st, st.lists(wide_atom_st, max_size=2)))
@settings(max_examples=200, deadline=None)
def test_wide_set_ops_match_oracle(raw_c, raw_d):
    """intersect against the from-scratch build and the oracle, subset and
    meets against the oracle, on coordinates across the 64-bit boundary."""
    C, D = SymbolicClopen(*raw_c), SymbolicClopen(*raw_d)
    coords = mentioned_coords(*raw_c) | mentioned_coords(*raw_d)
    for X, Y in ((C, D), (D, C)):
        assert normal_form(X.intersect(Y)) == normal_form(scratch_intersect(X, Y))
    inter = C.intersect(D)
    c_in_d = d_in_c = True
    meet = False
    for bits in all_assignments(coords):
        in_c, in_d = oracle_member(*raw_c, bits), oracle_member(*raw_d, bits)
        assert inter.contains(LazyPoint(bits)) == (in_c and in_d)
        c_in_d = c_in_d and (in_d or not in_c)
        d_in_c = d_in_c and (in_c or not in_d)
        meet = meet or (in_c and in_d)
    assert C.subset(D) == c_in_d and D.subset(C) == d_in_c
    assert C.meets(D) == D.meets(C) == meet


@given(st.one_of(st.tuples(clopen_raw_st, clopen_raw_st), st.tuples(wide_raw_st, wide_raw_st)))
@settings(max_examples=300)
def test_meets_is_a_nonempty_intersection(pair):
    C, D = (SymbolicClopen(*raw) for raw in pair)
    for X, Y in ((C, D), (D, C), (C, C), (C, C.intersect(D))):
        assert X.meets(Y) == (not X.intersect(Y).empty)


def test_meets_of_two_int_form_sets_builds_nothing(monkeypatch):
    C = SymbolicClopen("01", [atom_const(70, 1), atom_const(9, 0)])
    D = SymbolicClopen("0", [atom_const(70, 0)])
    E = SymbolicClopen("", [atom_const(130, 1), atom_const(3, 1)])
    assert all(is_int_form(X) for X in (C, D, E))
    built = counted_constructions(monkeypatch)
    assert not C.meets(D) and C.meets(E) and D.meets(E)
    assert built == []


@given(clopen_raw_st, coord_st, st.one_of(st.none(), coord_st), st.integers(0, 1))
@settings(max_examples=300)
def test_implies_rel_matches_brute_force(raw, a, b, parity):
    """implies_rel(a, b, parity) holds iff every member has bit(a) xor bit(b)
    = parity; b is None draws b = a, free or forced."""
    b = a if b is None else b
    C = SymbolicClopen(*raw)
    if C.empty:
        return
    coords = mentioned_coords(*raw) | {a, b}
    want = all(
        bits[a] ^ bits[b] == parity for bits in all_assignments(coords) if oracle_member(*raw, bits)
    )
    assert C.implies_rel(a, b, parity) == want


def test_implies_rel_of_a_coordinate_with_itself():
    for C in (FULL_SPACE, SymbolicClopen("01"), SymbolicClopen("", [atom_ne(2, 5)])):
        for a in (0, 2, 5, 9):
            assert C.implies_rel(a, a, 0) and not C.implies_rel(a, a, 1)


def test_a_far_pin_stays_a_link_entry():
    """A pin at coordinate 10**9 is one link entry, never a 125 MB int:
    building the set and crossing it with a short cylinder stays under
    1 MiB."""
    far_atom = atom_const(10**9, 1)
    tracemalloc.start()
    try:
        far, short = SymbolicClopen(atoms=[far_atom]), cylinder("01")
        p = far.witness_point()
        meet = (far.intersect(short), short.intersect(far), short.pinned({10**9: 1}))
        subsets = (far.subset(short), short.subset(far), meet[0].subset(far), meet[1].subset(short))
        pinned = far.pinned({0: 0, 1: 1})
        members = (far.contains(p), short.contains(p), meet[0].contains(p.with_bits({1: 1})))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20, peak
    want = SymbolicClopen("01", [far_atom])
    assert all(X == want and X.render() == "N=01; bit(1000000000)=1" for X in meet + (pinned,))
    assert not is_int_form(far) and not is_int_form(want) and is_int_form(short)
    assert subsets == (False, False, True, True)
    assert members == (True, False, True)


def test_points_read_their_bits_once_per_length():
    p = LazyPoint({3: 1, 200: 1, 10**9: 1})
    bits = p.low_bits(10)
    assert bits & 1023 == 8 and p.low_bits(5) is bits
    assert (p.low_bits(300) >> 200) & 1 == 1
    q = LazyPoint({1: 0, 70: 0}, default=1)
    assert all((q.low_bits(100) >> i) & 1 == q.eval(i) for i in range(100))


# ---------------------------------------------------------------------------
# the transports against the constructor route they replaced


def atom_image(ident, C):
    """image_clopen as an atom list fed to the constructor."""
    L, n = ident.L, ident.n
    C1 = C.intersect(domain_D(ident))
    if C1.is_empty():
        return EMPTY_SET
    atoms = []
    for c in range(stride(n), len(C1.base)):
        if _read_inverse(L, n, c) is not None:
            atoms.append(atom_const(_read_inverse(L, n, c), C1.base.bit(c)))
    for v, members in C1.classes():
        kept = [(_read_inverse(L, n, c), p) for c, p in members if _read_inverse(L, n, c) is not None]
        if v is not None:
            atoms.extend(atom_const(k, v ^ p) for k, p in kept)
        elif kept:
            atoms.extend(("rel", kept[0][0], k, kept[0][1] ^ p) for k, p in kept[1:])
    return SymbolicClopen(anchor_word(n).append(1), atoms)


def atom_preimage(ident, C):
    """preimage_clopen as an atom list fed to the constructor."""
    L, n = ident.L, ident.n
    C1 = C.intersect(SymbolicClopen(anchor_word(n).append(1)))
    if C1.is_empty():
        return EMPTY_SET
    atoms = [atom_const(stride_expand(L, n, c), C1.base.bit(c)) for c in range(stride(n) + 1, len(C1.base))]
    for v, members in C1.classes():
        mapped = [(stride_expand(L, n, c), p) for c, p in members]
        if v is not None:
            atoms.extend(atom_const(k, v ^ p) for k, p in mapped)
        else:
            atoms.extend(("rel", mapped[0][0], k, mapped[0][1] ^ p) for k, p in mapped[1:])
    return SymbolicClopen(anchor_word(n).append(0), atoms).intersect(domain_D(ident))


@given(
    st.integers(1, 2), st.integers(0, 1), st.sampled_from(("", "seed", "range")),
    st.one_of(wide_raw_st, st.tuples(short_base_st, st.lists(wide_const_st, max_size=8))),
)
@settings(max_examples=300, deadline=None)
def test_transports_match_the_atom_route(L, n, prefix, raw):
    """Images and preimages of constant-only and mixed cells, on a seed or
    range word or on none, equal the constructor's from the atom list,
    down to the base an empty result keeps."""
    ident = MapId(L, n)
    word = {"": "", "seed": str(anchor_word(n)) + "0", "range": str(anchor_word(n)) + "1"}[prefix]
    C = SymbolicClopen(word + raw[0], raw[1])
    assert normal_form(image_clopen(ident, C)) == normal_form(atom_image(ident, C))
    assert normal_form(preimage_clopen(ident, C)) == normal_form(atom_preimage(ident, C))


def test_map_domains_are_built_once():
    for L, n in ((1, 0), (1, 1), (2, 1)):
        assert domain_D(MapId(L, n)) is domain_D(MapId(L, n))
