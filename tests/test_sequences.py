"""Index sequences and index maps: frozen values plus independent oracles."""

import time
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cantorlab.errors import CapExceeded, InvalidArgument, InvalidLevel
from cantorlab.sequences import (
    MAX_STRIDE_BITS,
    BinWord,
    Pow23,
    anchor_bit,
    anchor_word,
    code_bit,
    code_is_prefix,
    code_len,
    code_meet,
    code_of_str,
    code_str,
    expand_index,
    in_shift_set,
    in_skip_set,
    in_stride_set,
    lenlex_word,
    padded_word,
    stride,
    stride_expand,
    tower_exp,
)
from cantorlab.suites import suite_lemma51


# ---------------------------------------------------------------------------
# oracles


def brute_lenlex(count):
    """All binary words in length-then-lex order, built the slow obvious way."""
    out = [""]
    length = 1
    while len(out) < count:
        out.extend("".join(p) for p in product("01", repeat=length))
        length += 1
    return out[:count]


def brute_expand(L, j, shift_base=8):
    """Index expansion recomputed from set definitions materialized as sets."""
    if L == 1:
        return 2 * j + 1
    top = 3 * j + 4
    skip = set()
    p = 1
    while p <= top:
        t = p
        l = 0
        while t <= top:
            if l < L - 2:
                skip.add(t)
            t *= 3
            l += 1
        p *= 2
    shift = {shift_base * 3 * k for k in range(1, top // (3 * shift_base) + 1) if k not in skip}
    if j in shift:
        return 3 * j + 3
    if j - 1 in shift:
        return 3 * j - 3
    return 3 * j


# ---------------------------------------------------------------------------
# words and codes


def test_word_roundtrip_and_ops():
    w = BinWord.from_str("0100")
    assert str(w) == "0100"
    assert len(w) == 4
    assert w.bits() == [0, 1, 0, 0]
    assert w.bit(1) == 1
    assert BinWord.from_str("01").is_prefix_of(w)
    assert not BinWord.from_str("00").is_prefix_of(w)
    assert str(w.meet(BinWord.from_str("0111"))) == "01"
    assert str(w.prefix(2)) == "01"


@given(st.text(alphabet="01", max_size=40), st.text(alphabet="01", max_size=40))
def test_code_helpers_match_strings(a, b):
    ca, cb = code_of_str(a), code_of_str(b)
    assert code_str(ca) == a
    assert code_len(ca) == len(a)
    assert code_is_prefix(ca, cb) == b.startswith(a)
    meet = code_str(code_meet(ca, cb))
    assert a.startswith(meet) and b.startswith(meet)
    for i, ch in enumerate(a):
        assert code_bit(ca, i) == int(ch)


def test_lenlex_frozen_values():
    assert str(lenlex_word(0)) == ""
    assert str(lenlex_word(1)) == "0"
    assert str(lenlex_word(2)) == "1"
    assert str(lenlex_word(3)) == "00"
    assert str(lenlex_word(6)) == "11"


def test_lenlex_matches_brute_enumeration():
    words = brute_lenlex(200)
    for n, w in enumerate(words):
        assert str(lenlex_word(n)) == w
        assert BinWord.from_str(w).code == n + 1


@given(st.integers(min_value=0, max_value=10**9))
def test_lenlex_bijection(n):
    """A word's rank is its code less one: read back from its text, the n-th
    word has code n + 1."""
    assert BinWord.from_str(str(lenlex_word(n))).code == n + 1


def test_padded_word_frozen_values():
    assert str(padded_word(0)) == ""
    assert str(padded_word(2)) == "10"
    assert str(padded_word(4)) == "0100"


@given(st.integers(min_value=0, max_value=2000))
def test_padded_word_shape(n):
    w = padded_word(n)
    assert len(w) == n
    assert lenlex_word(n).is_prefix_of(w)
    assert all(b == 0 for b in w.bits()[len(lenlex_word(n)):])


# ---------------------------------------------------------------------------
# tower, strides, anchors


def test_tower_frozen_values():
    assert tower_exp(0) == 0
    assert tower_exp(1) == 3
    assert tower_exp(2) == 24
    assert tower_exp(3) == 50331648
    assert tower_exp(3) == 3 * 2 ** tower_exp(2)


def test_tower_cap():
    with pytest.raises(CapExceeded):
        tower_exp(5)


def test_stride_values_and_cap():
    assert stride(0) == 1
    assert stride(1) == 8
    assert stride(2) == 2**24
    with pytest.raises(CapExceeded):
        stride(4)
    with pytest.raises(InvalidArgument):
        stride(-1)


def test_anchor_words():
    assert str(anchor_word(0)) == "0"
    assert str(anchor_word(1)) == "00000000"
    w2 = anchor_word(2)
    assert len(w2) == 2**24
    assert w2.bit(0) == 1
    assert w2.bit(1) == 0
    assert w2.bit(2**24 - 1) == 0
    with pytest.raises(CapExceeded):
        anchor_word(3)


def test_anchor_bit_matches_words():
    for n in (0, 1):
        w = anchor_word(n)
        for i in range(len(w)):
            assert anchor_bit(n, i) == w.bit(i)
    assert anchor_bit(2, 0) == 1
    assert anchor_bit(2, 1) == 0
    # index 3 anchors are unmaterializable but individual bits are not
    assert anchor_bit(3, 0) == 0
    assert anchor_bit(3, 12345678) == 0
    with pytest.raises(InvalidArgument):
        anchor_bit(1, 8)


# ---------------------------------------------------------------------------
# stride multiples, skip and shift sets


def test_stride_set_frozen_values():
    assert in_stride_set(1, 8)
    assert not in_stride_set(1, 12)
    assert in_stride_set(0, 5)
    assert not in_stride_set(0, 0)


def test_skip_set_frozen_values():
    assert not in_skip_set(2, 6)
    assert in_skip_set(3, 2)
    assert not in_skip_set(3, 6)  # 6 = 2*3 has 3-exponent 1, not < 1
    assert in_skip_set(4, 6)
    with pytest.raises(InvalidLevel):
        in_skip_set(1, 5)


def test_shift_set_frozen_values():
    assert in_shift_set(2, 24)
    assert not in_shift_set(2, 25)
    assert in_shift_set(2, 48)
    assert not in_shift_set(3, 24)  # quotient 1 is skipped at level 3
    with pytest.raises(InvalidLevel):
        in_shift_set(1, 24)


def test_expand_frozen_values():
    assert expand_index(1, 4) == 9
    assert expand_index(2, 5) == 15
    assert expand_index(2, 25) == 72
    with pytest.raises(InvalidArgument):
        expand_index(1, 0)


@given(st.integers(min_value=2, max_value=5), st.integers(min_value=1, max_value=3000))
def test_expand_matches_brute_oracle(L, j):
    assert expand_index(L, j) == brute_expand(L, j)


@given(st.integers(min_value=1, max_value=5), st.integers(min_value=1, max_value=10**6))
def test_expand_fixed_point_free(L, j):
    assert expand_index(L, j) != j


def test_stride_expand_frozen_values():
    assert stride_expand(1, 0, 0) == 0
    assert stride_expand(1, 1, 8) == 24
    assert stride_expand(2, 1, 16) == 48


@given(
    st.integers(min_value=1, max_value=3),
    st.integers(min_value=0, max_value=2),
    st.integers(min_value=0, max_value=10**7),
)
def test_stride_expand_fixes_exactly_off_lattice(L, n, k):
    if in_stride_set(n, k):
        assert stride_expand(L, n, k) != k
    else:
        assert stride_expand(L, n, k) == k


# ---------------------------------------------------------------------------
# exponent-pair values


@given(st.integers(min_value=0, max_value=40), st.integers(min_value=0, max_value=12))
def test_pow23_value_and_stride_set(a, b):
    v = Pow23(a, b)
    assert v.value() == 2**a * 3**b
    for n in (0, 1, 2):
        assert v.in_stride_set(n) == in_stride_set(n, v.value())


@given(
    st.integers(min_value=2, max_value=4),
    st.integers(min_value=0, max_value=30),
    st.integers(min_value=0, max_value=8),
)
def test_pow23_shift_set_matches_plain(L, a, b):
    v = Pow23(a, b)
    assert v.in_shift_set(L) == in_shift_set(L, v.value())


@given(
    st.integers(min_value=2, max_value=3),
    st.integers(min_value=0, max_value=2),
    st.integers(min_value=0, max_value=30),
    st.integers(min_value=0, max_value=4),
)
def test_pow23_stride_expand_matches_plain(L, n, a, b):
    v = Pow23(a, b)
    try:
        expanded = v.stride_expand(L, n)
    except InvalidArgument:
        # the closed form only leaves 2-3 purity when the shift branch fires
        assert v.in_stride_set(n)
        assert in_shift_set(L, v.value() // stride(n))
        return
    assert expanded.value() == stride_expand(L, n, v.value())


def test_pow23_huge_exponent_arithmetic():
    # stride-3-scale exponents: the values would have ~5e7 bits
    a = tower_exp(3) + 2
    v = Pow23(a, 0)
    assert v.in_stride_set(3)
    assert v.in_stride_set(2)
    out = v.stride_expand(2, 3)
    assert out == Pow23(a, 1)
    with pytest.raises(CapExceeded):
        Pow23(2**28, 0).value()


def test_pow23_value_honours_stride_budget():
    """value() materializes exactly the exponents up to MAX_STRIDE_BITS."""
    assert Pow23(MAX_STRIDE_BITS).value().bit_length() == MAX_STRIDE_BITS + 1
    with pytest.raises(CapExceeded):
        Pow23(MAX_STRIDE_BITS + 1).value()


def test_shift_base_is_configurable():
    alt = 2**31
    # 3 * 2**31 is the least element under the alternative base
    assert in_shift_set(2, 3 * 2**31, shift_base=alt)
    assert not in_shift_set(2, 24, shift_base=alt)
    assert expand_index(2, 24, shift_base=alt) == 72  # plain triple, no shift correction


def test_the_property_suite_settles_the_shift_base():
    """The experiment of scripts/resolve_shift_constant.py at its defaults:
    the alternative multiplier 2**31 lands a big-lattice argument back on
    the head lattice, and the package's 8 passes every property."""
    lost = suite_lemma51(2, 10**4, shift_base=2**31)
    assert not lost.ok
    assert lost.violations[0] == (
        "(5) landed on the head lattice: L=2 s=(2, 1, 0) k=16777216 -> 150994944"
    )
    won = suite_lemma51(2, 10**4, shift_base=8)
    assert won.ok, won.violations[:3]


def test_bits_match_shift_reads():
    """bits() reads the binary text in one pass; on every word of length
    <= 12 it equals one shift per bit."""
    for code in range(1, 1 << 13):
        n = code.bit_length() - 1
        assert BinWord(code).bits() == [(code >> (n - 1 - i)) & 1 for i in range(n)]


def test_bits_of_a_long_word_take_linear_time():
    from test_orientedgraphs import SCALE_BUDGET_S

    n = 1 << 22
    w = BinWord((1 << n) | (1 << (n - 1)) | 5)
    t0 = time.perf_counter()
    bits = w.bits()
    elapsed = time.perf_counter() - t0
    assert len(bits) == n and bits[0] == 1 and sum(bits) == 3 and bits[-3:] == [1, 0, 1]
    assert elapsed < SCALE_BUDGET_S, elapsed
