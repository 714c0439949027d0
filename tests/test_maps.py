"""Map family: frozen examples plus raw-definition oracles for every operation."""

import time
import tracemalloc
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cantorlab.cylinders import (
    EMPTY_SET,
    LazyPoint,
    SymbolicClopen,
    atom_const,
    atom_eq,
    atom_ne,
)
from cantorlab.errors import InvalidArgument, OutsideDomain
from cantorlab.maps import (
    EDGE_NO,
    EDGE_UNKNOWN,
    EDGE_YES,
    MapId,
    check_condition_d,
    domain_D,
    domain_point,
    g_compose_eval,
    g_eval_coord,
    g_point,
    graph_meets,
    image_clopen,
    is_G0_edge,
    point_in_domain,
    preimage_clopen,
)


# ---------------------------------------------------------------------------
# oracles: raw definitions, no reuse of the library's index machinery

QS = [0, 3, 24]  # exponent tower below the materializable ceiling: 0, 3*2^0, 3*2^3


def brute_skip(L, v):
    """v = 2^p * 3^l with l < L - 2, by direct factoring."""
    if v < 1:
        return False
    while v % 2 == 0:
        v //= 2
    l = 0
    while v % 3 == 0:
        v //= 3
        l += 1
    return v == 1 and l < L - 2


def brute_shift(L, j):
    return j >= 24 and j % 24 == 0 and not brute_skip(L, j // 24)


def brute_theta(L, j):
    if L == 1:
        return 2 * j + 1
    if brute_shift(L, j):
        return 3 * j + 3
    if brute_shift(L, j - 1):
        return 3 * j - 3
    return 3 * j


def brute_theta_n(L, n, k):
    s = 2 ** QS[n]
    if k == 0 or k % s:
        return k
    return s * brute_theta(L, k // s)


def oracle_g(L, n, fn, k):
    """Output coordinate k of the level-L index-n map over point function fn."""
    if k == 2 ** QS[n]:
        return 1
    return fn(brute_theta_n(L, n, k))


def oracle_compose(L, stages, fn, k):
    """Composed value built as nested point functions, innermost applied first."""
    val = fn
    for n in reversed(stages):
        val = (lambda f, m: lambda j: oracle_g(L, m, f, j))(val, n)
    return val(k)


def all_assignments(coords):
    coords = sorted(coords)
    for values in product((0, 1), repeat=len(coords)):
        yield dict(zip(coords, values))


def raw_sat(point_bits, atoms):
    get = lambda i: point_bits.get(i, 0)
    for atom in atoms:
        if atom[0] == "const":
            if get(atom[1]) != atom[2]:
                return False
        else:
            if (get(atom[1]) ^ get(atom[2])) != atom[3]:
                return False
    return True


def oracle_in_domain(L, n, point_bits):
    """Raw domain test: seed word then 0, then the ladder inequalities."""
    get = lambda i: point_bits.get(i, 0)
    s = 2 ** QS[n]
    seed = {0: "", 1: "0", 2: "1"}[n].ljust(s, "0") + "0"
    if any(get(i) != int(ch) for i, ch in enumerate(seed)):
        return False
    if L >= 2:
        vals = [get(s * 3**m) for m in range(n + 2)]
        if any(vals[m] == vals[m + 1] for m in range(n + 1)):
            return False
    return True


# ---------------------------------------------------------------------------
# identifiers


def test_map_id_validation():
    """Level must be >= 1 and the index a natural."""
    MapId(1, 0)
    with pytest.raises(InvalidArgument):
        MapId(0, 0)
    with pytest.raises(InvalidArgument):
        MapId(1, -1)


# ---------------------------------------------------------------------------
# domains


def test_domain_frozen_level_one():
    """Level-1 domains are bare seed cylinders."""
    assert domain_D(MapId(1, 0)) == SymbolicClopen("00")
    assert domain_D(MapId(1, 0)).render() == "N=00"
    assert domain_D(MapId(1, 1)) == SymbolicClopen("000000000")


def test_domain_frozen_level_two():
    """Levels >= 2 add the alternating ladder; folding forces concrete bits."""
    d0 = domain_D(MapId(2, 0))
    assert d0 == SymbolicClopen("00", [atom_ne(1, 3)])
    assert d0.forced(3) == 1
    d1 = domain_D(MapId(2, 1))
    assert d1 == SymbolicClopen("0" * 9, [atom_ne(8, 24), atom_ne(24, 72)])
    assert d1.forced(24) == 1 and d1.forced(72) == 0


def test_domain_membership():
    """Exact membership for points over a default-0 or default-1 tail."""
    zeros = LazyPoint()
    assert point_in_domain(MapId(1, 0), zeros)
    assert point_in_domain(MapId(1, 1), zeros)
    assert not point_in_domain(MapId(2, 0), zeros)
    assert point_in_domain(MapId(2, 0), domain_point(MapId(2, 0)))
    assert point_in_domain(MapId(2, 2), domain_point(MapId(2, 2)))
    assert not point_in_domain(MapId(1, 0), LazyPoint({}, 1))


def test_domain_point_overrides():
    """Extra bits merge last and may sit anywhere past the constrained zone."""
    p = domain_point(MapId(2, 0), extra={9: 1})
    assert p.eval(9) == 1
    assert point_in_domain(MapId(2, 0), p)


# ---------------------------------------------------------------------------
# single-map evaluation


def test_g_eval_frozen():
    """Forced stride bit, identity below it, expansion above it."""
    zeros = LazyPoint()
    assert g_eval_coord(MapId(1, 0), zeros, 1) == 1
    assert g_eval_coord(MapId(1, 0), zeros, 0) == 0
    p = LazyPoint({3: 1})
    assert g_eval_coord(MapId(1, 0), p, 0) == 0
    assert g_eval_coord(MapId(1, 0), p, 1) == 1
    assert g_eval_coord(MapId(1, 0), p, 2) == 0  # reads coordinate 5
    assert g_eval_coord(MapId(1, 1), LazyPoint({40: 1}), 16) == 1  # reads 40
    assert g_eval_coord(MapId(1, 1), zeros, 16) == 0
    assert g_eval_coord(MapId(1, 1), zeros, 8) == 1
    with pytest.raises(InvalidArgument):
        g_eval_coord(MapId(1, 0), zeros, -1)
    with pytest.raises(OutsideDomain):
        g_eval_coord(MapId(1, 0), LazyPoint({0: 1}), 0)


def test_g_point_frozen():
    """The lazy image point agrees with coordinatewise evaluation."""
    gp = g_point(MapId(1, 0), LazyPoint())
    assert [gp.eval(i) for i in range(10)] == [0, 1, 0, 0, 0, 0, 0, 0, 0, 0]
    gp2 = g_point(MapId(1, 1), LazyPoint({40: 1}))
    assert gp2.eval(8) == 1 and gp2.eval(16) == 1 and gp2.eval(0) == 0
    with pytest.raises(OutsideDomain):
        g_point(MapId(1, 0), LazyPoint({1: 1}))


@given(
    L=st.integers(min_value=1, max_value=3),
    n=st.integers(min_value=0, max_value=1),
    extra=st.dictionaries(st.integers(9, 400), st.sampled_from((0, 1)), max_size=6),
    k=st.integers(min_value=0, max_value=400),
)
def test_eval_matches_oracle(L, n, extra, k):
    """Every coordinate of every small map agrees with the raw definition."""
    p = LazyPoint(extra)
    want = oracle_g(L, n, p.eval, k)
    assert g_eval_coord(MapId(L, n), p, k) == want
    assert g_point(MapId(L, n), p).eval(k) == want


# ---------------------------------------------------------------------------
# composition


def test_compose_frozen():
    """Coordinates thread outermost-first; the order is observable at k=8."""
    zeros = LazyPoint()
    assert g_compose_eval(1, (0, 1), zeros, 1) == 1
    # coordinate 2 reads input coordinate 5, which the inner seed pins to 0
    assert g_compose_eval(1, (0, 1), zeros, 2) == 0
    with pytest.raises(OutsideDomain):
        g_compose_eval(1, (0, 1), LazyPoint({5: 1}), 2)
    assert g_compose_eval(1, (0, 1), LazyPoint({17: 1}), 8) == 1  # reads 17
    assert g_compose_eval(1, (0, 1), LazyPoint({49: 1}), 8) == 0  # never 49
    assert g_compose_eval(1, [0, 1], zeros, 2) == 0
    for k in (0, 1, 2, 5, 8, 13):
        assert g_compose_eval(1, (1,), zeros, k) == g_eval_coord(MapId(1, 1), zeros, k)


def test_compose_stage_errors():
    """Stage checks run innermost-first and name the failing stage."""
    zeros = LazyPoint()
    with pytest.raises(InvalidArgument):
        g_compose_eval(1, (), zeros, 0)
    with pytest.raises(InvalidArgument):
        g_compose_eval(1, (0, -1), zeros, 2)
    with pytest.raises(OutsideDomain) as e1:
        g_compose_eval(1, (1, 0), zeros, 0)
    assert e1.value.stage == 0
    with pytest.raises(OutsideDomain) as e2:
        g_compose_eval(1, (0, 0), zeros, 0)
    assert e2.value.stage == 0
    # index 2 forces a leading 1, which no later seed word tolerates
    with pytest.raises(OutsideDomain) as e3:
        g_compose_eval(1, (1, 2), domain_point(MapId(1, 2)), 0)
    assert e3.value.stage == 0


def test_compose_through_huge_stride():
    """A chain through index 3 stays symbolic: strides never materialize."""
    big = 2 ** (3 * 2**24)
    target = 4 * big + 1
    assert g_compose_eval(1, (0, 1, 3), LazyPoint(), 2 * big) == 0
    assert g_compose_eval(1, (0, 1, 3), LazyPoint({target: 1}), 2 * big) == 1
    assert g_compose_eval(1, (0, 1, 3), LazyPoint(), 8) == 0


@given(
    L=st.integers(min_value=1, max_value=3),
    extra=st.dictionaries(st.integers(9, 500), st.sampled_from((0, 1)), max_size=6),
    k=st.integers(min_value=0, max_value=500),
)
def test_compose_matches_oracle(L, extra, k):
    """The threading evaluator equals nested raw applications on the 0-1 chain."""
    p = LazyPoint(extra)
    assert g_compose_eval(L, (0, 1), p, k) == oracle_compose(L, (0, 1), p.eval, k)


def test_condition_d_frozen():
    """Two-step versus one-step agreement holds at level 1, fails at level 2."""
    p = LazyPoint({33: 1, 100: 1})
    assert check_condition_d(1, 0, 1, p, range(65))
    assert check_condition_d(1, 0, 1, p, [8])
    assert not check_condition_d(2, 0, 1, domain_point(MapId(2, 1)), [8])
    with pytest.raises(InvalidArgument):
        check_condition_d(1, 1, 1, p, [0])


@given(
    extra=st.dictionaries(st.integers(9, 2000), st.sampled_from((0, 1)), max_size=8),
    coords=st.lists(st.integers(0, 2000), max_size=20),
)
def test_condition_d_exact_level_one(extra, coords):
    """At level 1 the agreement is an identity, whatever the point and coords."""
    assert check_condition_d(1, 0, 1, LazyPoint(extra), coords)


# ---------------------------------------------------------------------------
# clopen transport


def test_image_frozen():
    """Transported constraints survive exactly when their coordinate is read."""
    m0 = MapId(1, 0)
    assert image_clopen(m0, SymbolicClopen("00")) == SymbolicClopen("01")
    # input bit 2 is read by nothing at level 1, so it is forgotten
    assert image_clopen(m0, SymbolicClopen("001")) == SymbolicClopen("01")
    assert image_clopen(m0, SymbolicClopen("00", [atom_const(5, 1)])) == SymbolicClopen("011")
    assert image_clopen(m0, SymbolicClopen("1")) == EMPTY_SET
    # the ladder bit nearest the stride lands on the forced coordinate
    assert image_clopen(MapId(2, 0), domain_D(MapId(2, 0))) == SymbolicClopen("01")
    assert image_clopen(MapId(2, 1), domain_D(MapId(2, 1))) == SymbolicClopen(
        "000000001", [atom_const(24, 0)]
    )


def test_preimage_frozen():
    """Output constraints pull back along the expansion, inside the domain."""
    m0 = MapId(1, 0)
    assert preimage_clopen(m0, SymbolicClopen("01")) == SymbolicClopen("00")
    assert preimage_clopen(m0, SymbolicClopen("011")) == SymbolicClopen(
        "00", [atom_const(5, 1)]
    )
    assert preimage_clopen(m0, SymbolicClopen("00")) == EMPTY_SET
    d1 = domain_D(MapId(2, 1))
    assert preimage_clopen(MapId(2, 1), SymbolicClopen("000000001", [atom_const(24, 0)])) == d1


def test_image_preimage_roundtrip_frozen():
    """Pulling an image back recovers the domain part of the input."""
    m0 = MapId(1, 0)
    c = SymbolicClopen("00", [atom_const(9, 1)])
    img = image_clopen(m0, c)
    assert img == SymbolicClopen("01", [atom_const(4, 1)])
    assert preimage_clopen(m0, img) == c


def clopen_strategy():
    extension = st.lists(st.sampled_from((0, 1)), max_size=2)
    coord = st.integers(min_value=2, max_value=9)
    const_atom = st.tuples(coord, st.sampled_from((0, 1))).map(lambda t: atom_const(*t))
    rel_atom = st.tuples(coord, coord, st.sampled_from((0, 1))).filter(
        lambda t: t[0] != t[1]
    ).map(lambda t: atom_eq(t[0], t[1]) if t[2] == 0 else atom_ne(t[0], t[1]))
    atoms = st.lists(st.one_of(const_atom, rel_atom), max_size=1)
    return st.tuples(extension, atoms)


@settings(max_examples=40, deadline=None)
@given(L=st.integers(min_value=1, max_value=2), raw=clopen_strategy())
def test_image_matches_pattern_oracle(L, raw):
    """Pattern sets of the image and of pointwise mapping agree on a window."""
    extension, atoms = raw
    base = "00" + "".join(str(b) for b in extension)
    c = SymbolicClopen(base, atoms)
    img = image_clopen(MapId(L, 0), c)
    window = set(range(4)) | {1}
    if not img.is_empty():
        window |= set(range(len(img.base))) | set(img.constrained_coords())
    window = sorted(window)
    fixed = {i: int(ch) for i, ch in enumerate(base)}
    free = {a[1] for a in atoms} | {a[2] for a in atoms if a[0] == "rel"}
    free |= {brute_theta_n(L, 0, w) for w in window if w != 1}
    free |= {3, 9} if L == 2 else set()
    free -= set(fixed)
    got = set()
    for asg in all_assignments(free):
        bits = {**fixed, **asg}
        if not raw_sat(bits, atoms):
            continue
        if not oracle_in_domain(L, 0, bits):
            continue
        fn = lambda i: bits.get(i, 0)
        got.add(tuple(oracle_g(L, 0, fn, w) for w in window))
    have = set()
    if not img.is_empty():
        img_fixed = {i: b for i, b in enumerate(img.base.bits())}
        img_free = set(window) - set(img_fixed)
        for asg in all_assignments(img_free):
            bits = {**img_fixed, **asg}
            if img.contains(LazyPoint(bits)):
                have.add(tuple(bits.get(w, 0) for w in window))
    assert have == got
    assert img == image_clopen(MapId(L, 0), c.intersect(domain_D(MapId(L, 0))))


@settings(max_examples=40, deadline=None)
@given(
    L=st.integers(min_value=1, max_value=2),
    n=st.integers(min_value=0, max_value=1),
    raw=clopen_strategy(),
)
def test_preimage_matches_agreement_oracle(L, n, raw):
    """Preimage membership equals 'in domain and maps into the set', pointwise."""
    extension, atoms = raw
    s = 2 ** QS[n]
    shift = s + 1
    base = "0" * s + "1" + "".join(str(b) for b in extension)
    atoms = [
        (
            atom_const(a[1] + shift, a[2])
            if a[0] == "const"
            else ("rel", a[1] + shift, a[2] + shift, a[3])
        )
        for a in atoms
    ]
    c = SymbolicClopen(base, atoms)
    pre = preimage_clopen(MapId(L, n), c)
    seed_bits = {i: 0 for i in range(s + 1)}
    out_coords = set(range(len(base))) | {a[1] for a in atoms}
    out_coords |= {a[2] for a in atoms if a[0] == "rel"}
    free = {brute_theta_n(L, n, k) for k in out_coords if k != s}
    free |= {s * 3**m for m in range(n + 2)} if L >= 2 else set()
    if not pre.is_empty():
        free |= set(pre.constrained_coords()) | set(range(len(pre.base)))
    free -= set(seed_bits)
    for asg in all_assignments(free):
        bits = {**seed_bits, **asg}
        fn = lambda i: bits.get(i, 0)
        inside = oracle_in_domain(L, n, bits)
        mapped_ok = all(
            oracle_g(L, n, fn, i) == int(ch) for i, ch in enumerate(base)
        ) and raw_sat({k: oracle_g(L, n, fn, k) for k in out_coords}, atoms)
        assert pre.contains(LazyPoint(bits)) == (inside and mapped_ok)


@given(
    L=st.integers(min_value=1, max_value=2),
    n=st.integers(min_value=0, max_value=1),
    extra=st.dictionaries(st.integers(220, 400), st.sampled_from((0, 1)), max_size=4),
)
def test_image_contains_mapped_witness(L, n, extra):
    """Mapping any domain member lands inside the computed image of the domain."""
    d = domain_D(MapId(L, n))
    img = image_clopen(MapId(L, n), d)
    p = domain_point(MapId(L, n), extra)
    assert point_in_domain(MapId(L, n), p)
    assert img.contains(g_point(MapId(L, n), p))


def test_index_2_domain_decides_within_budget():
    """domain_D(MapId(1, 2)) has a base of 2^24 + 1 bits, held as two ints:
    contains on a point and subset against cylinders stay within the scale
    budget and 200 MiB."""
    from test_orientedgraphs import SCALE_BUDGET_S

    tracemalloc.start()
    try:
        t0 = time.perf_counter()
        D = domain_D(MapId(1, 2))
        members = (D.contains(LazyPoint()), D.contains(LazyPoint({0: 1})))
        subsets = (D.subset(SymbolicClopen("1")), SymbolicClopen("1").subset(D), D.subset(D))
        elapsed = time.perf_counter() - t0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert members == (False, True) and subsets == (True, False, True)
    assert elapsed < SCALE_BUDGET_S, elapsed
    assert peak < 200 * 2**20, peak


# ---------------------------------------------------------------------------
# edge decisions


def test_graph_meets_frozen():
    """Meeting a product of cylinders is decided by joint satisfiability."""
    m0 = MapId(1, 0)
    assert graph_meets(m0, "00", "01")
    assert not graph_meets(m0, "01", "01")
    assert not graph_meets(m0, "01", "")
    assert not graph_meets(m0, "00", "00")  # output bit 1 is forced to 1
    assert graph_meets(MapId(1, 1), "00", "00")
    assert graph_meets(MapId(2, 0), "00", "01")


@settings(max_examples=60, deadline=None)
@given(
    L=st.integers(min_value=1, max_value=2),
    n=st.integers(min_value=0, max_value=1),
    y=st.text(alphabet="01", max_size=6),
    x=st.text(alphabet="01", max_size=6),
)
def test_graph_meets_matches_oracle(L, n, y, x):
    """Exhaustive search over the relevant free coordinates agrees."""
    got = graph_meets(MapId(L, n), y, x)
    s = 2 ** QS[n]
    fixed = {i: 0 for i in range(s + 1)}
    ok = all(int(ch) == fixed.get(i, 0) for i, ch in enumerate(y) if i in fixed)
    want = False
    if ok:
        fixed.update({i: int(ch) for i, ch in enumerate(y)})
        free = {brute_theta_n(L, n, k) for k in range(len(x)) if k != s}
        free |= {s * 3**m for m in range(n + 2)} if L >= 2 else set()
        free -= set(fixed)
        for asg in all_assignments(free):
            bits = {**fixed, **asg}
            fn = lambda i: bits.get(i, 0)
            if not oracle_in_domain(L, n, bits):
                continue
            if all(oracle_g(L, n, fn, k) == int(ch) for k, ch in enumerate(x)):
                want = True
                break
    assert got == want


def test_is_G0_edge_frozen():
    """Edges need the full level pattern; comparability blocks refutation."""
    assert is_G0_edge("00", "01") == EDGE_YES
    assert is_G0_edge("0", "1") == EDGE_YES
    assert is_G0_edge("00", "011") == EDGE_YES
    assert is_G0_edge("01", "00") == EDGE_NO
    assert is_G0_edge("000", "001") == EDGE_NO
    assert is_G0_edge("0", "0") == EDGE_UNKNOWN
    assert is_G0_edge("", "0") == EDGE_UNKNOWN


@given(a=st.text(alphabet="01", max_size=8), b=st.text(alphabet="01", max_size=8))
def test_is_G0_edge_properties(a, b):
    """No mutual certificates; comparable prefixes are never refuted."""
    ab = is_G0_edge(a, b)
    ba = is_G0_edge(b, a)
    assert not (ab == EDGE_YES and ba == EDGE_YES)
    lo = min(len(a), len(b))
    if a[:lo] == b[:lo]:
        assert ab != EDGE_NO
    if a == b:
        assert ab == EDGE_UNKNOWN
