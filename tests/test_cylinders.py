"""Clopen constraint algebra against a brute-force point-enumeration oracle."""

from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
from cantorlab.errors import EmptySet
from cantorlab.sequences import BinWord


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
    assert LazyPoint.zeros().eval(10**9) == 0
    p = LazyPoint({5: 1})
    assert p.eval(5) == 1
    assert p.eval(6) == 0


def test_point_rule_layering():
    p = LazyPoint({3: 0}, default=0, rule=lambda k: 1 if k % 3 == 0 else 0)
    assert p.eval(3) == 0   # explicit wins over the rule
    assert p.eval(6) == 1
    assert p.eval(7) == 0
    assert str(p.prefix(4)) == "1000"


def test_contains_frozen_values():
    n01 = cylinder("01")
    assert n01.contains(LazyPoint({0: 0, 1: 1, 2: 0, 3: 0}))
    assert not n01.contains(LazyPoint.zeros())
    c = SymbolicClopen("0", [atom_ne(3, 9)])
    assert not c.contains(LazyPoint.zeros())


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
# diameter


def test_diameter_frozen_values():
    assert cylinder("010").diameter() == Fraction(1, 8)
    assert FULL_SPACE.diameter() == 1
    assert SymbolicClopen("0", [atom_const(1, 0)]).diameter() == Fraction(1, 4)
    with pytest.raises(EmptySet):
        EMPTY_SET.diameter()


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
    assert C.diameter() == Fraction(1, 2**first_split)
    assert C.diameter() <= Fraction(1, 2 ** len(C.base))


@given(clopen_raw_st, clopen_raw_st)
@settings(max_examples=40)
def test_diameter_monotone_under_subset(raw_c, raw_d):
    C, D = SymbolicClopen(*raw_c), SymbolicClopen(*raw_d)
    if not C.empty and not D.empty and C.subset(D):
        assert C.diameter() <= D.diameter()


# ---------------------------------------------------------------------------
# witnesses


@given(clopen_raw_st)
def test_witness_point_is_member(raw):
    C = SymbolicClopen(*raw)
    if not C.empty:
        assert C.contains(C.witness_point())
        assert C.contains(C.witness_point({r: 1 for r in C.constrained_coords()}))
