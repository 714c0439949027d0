"""Exact arithmetic of the index sequences and index maps everything else is built on.

Binary words are wrapped by BinWord but internally carried as "codes": the
natural number whose binary expansion is 1 followed by the word's bits.  The
empty word is 1, "0" is 2, "1" is 3, "00" is 4, and so on; numeric order of
codes is exactly length-then-lexicographic order of words, which is also the
enumeration order used by lenlex_word.  The approximation stages are stored
and computed as raw codes with the code_* helpers, and turn them into BinWords
only at their API boundary.
"""

from __future__ import annotations

from .errors import CapExceeded, InvalidArgument, InvalidLevel

# Largest stride exponent (bit count) we will turn into a concrete integer.
# stride(3) = 2**50331648 is a ~6 MB integer and still allowed; stride(4) is not.
MAX_STRIDE_BITS = 1 << 27

# Longest binary word that may be materialized, in bits.  anchor_word(2)
# (length 2**24) fits, anchor_word(3) (length 2**50331648) never will.
MAX_WORD_BITS = 1 << 26

# Multiplier c of the shift set {c*3*k | k >= 1, k not in skip set}.  It is
# mathematics, not a size: it picks the shift set, and the expansion-map
# property suite fails under the alternative 2**31
# (scripts/resolve_shift_constant.py runs both).
SHIFT_BASE = 8


# ---------------------------------------------------------------------------
# word codes


def code_of_str(s: str) -> int:
    if s and set(s) - {"0", "1"}:
        raise InvalidArgument(f"not a binary word: {s!r}")
    return int("1" + s, 2)


def code_str(code: int) -> str:
    return bin(code)[3:]


def code_len(code: int) -> int:
    return code.bit_length() - 1


def code_bit(code: int, i: int) -> int:
    """Bit at position i (0 = leftmost) of the word behind code."""
    return (code >> (code.bit_length() - 2 - i)) & 1


def code_is_prefix(p: int, code: int) -> bool:
    shift = code.bit_length() - p.bit_length()
    return shift >= 0 and (code >> shift) == p


def code_meet(a: int, b: int) -> int:
    """Code of the longest common prefix."""
    la, lb = a.bit_length(), b.bit_length()
    if la > lb:
        a >>= la - lb
    elif lb > la:
        b >>= lb - la
    while a != b:
        a >>= 1
        b >>= 1
    return a


class BinWord:
    """Immutable finite binary word.

    Supports the usual prefix/append/compare operations; equality and hashing
    go through the code, so words are usable as dict keys and set members.
    """

    __slots__ = ("code",)

    def __init__(self, code: int = 1):
        if code < 1:
            raise InvalidArgument("word code must be >= 1")
        self.code = code

    @classmethod
    def from_str(cls, s: str) -> "BinWord":
        return cls(code_of_str(s))

    @classmethod
    def from_bits(cls, bits) -> "BinWord":
        c = 1
        for b in bits:
            c = (c << 1) | (b & 1)
        return cls(c)

    def __len__(self) -> int:
        return self.code.bit_length() - 1

    def __str__(self) -> str:
        return bin(self.code)[3:]

    def __repr__(self) -> str:
        return f"BinWord({str(self)!r})"

    def __eq__(self, other) -> bool:
        return isinstance(other, BinWord) and self.code == other.code

    def __hash__(self) -> int:
        return hash(self.code)

    def bit(self, i: int) -> int:
        if not 0 <= i < len(self):
            raise InvalidArgument(f"bit index {i} outside word of length {len(self)}")
        return code_bit(self.code, i)

    def bits(self):
        # one pass over the binary text, linear in the length
        return list(bin(self.code)[3:].encode().translate(_DIGIT_BITS))

    def append(self, bit: int) -> "BinWord":
        return BinWord((self.code << 1) | (bit & 1))

    def is_prefix_of(self, other: "BinWord") -> bool:
        return code_is_prefix(self.code, other.code)

    def meet(self, other: "BinWord") -> "BinWord":
        return BinWord(code_meet(self.code, other.code))

    def prefix(self, n: int) -> "BinWord":
        if n > len(self):
            raise InvalidArgument("prefix longer than word")
        return BinWord(self.code >> (len(self) - n))


_DIGIT_BITS = bytes.maketrans(b"01", b"\0\1")


# ---------------------------------------------------------------------------
# the length-then-lex enumeration of all binary words


def lenlex_word(n: int) -> BinWord:
    """The n-th binary word in length-then-lexicographic order (0 -> empty word)."""
    if n < 0:
        raise InvalidArgument("rank must be >= 0")
    return BinWord(n + 1)


def padded_word(n: int) -> BinWord:
    """lenlex_word(n) padded with zeros on the right to total length n."""
    w = lenlex_word(n)
    return BinWord(w.code << (n - len(w)))


# ---------------------------------------------------------------------------
# the tower of stride exponents and the anchor words


_tower_cache: dict[int, int] = {0: 0}


def tower_exp(n: int) -> int:
    """Iterated-exponential exponent sequence: 0, 3, 24, 50331648, 3*2**50331648, ...

    Each value is exact.  Values whose *successor* could never be formed
    (the next stride would need more bits than MAX_STRIDE_BITS) still compute;
    only genuinely unformable entries raise CapExceeded.
    """
    if n < 0:
        raise InvalidArgument("sequence index must be >= 0")
    if n in _tower_cache:
        return _tower_cache[n]
    top = max(_tower_cache)
    value = _tower_cache[top]
    while top < n:
        if value > MAX_STRIDE_BITS:
            raise CapExceeded(
                f"tower exponent {top + 1} is a power tower past any materialization cap "
                f"(its exponent alone has {value.bit_length()} bits)"
            )
        value = 3 * (1 << value)
        top += 1
        _tower_cache[top] = value
    return value


_stride_cache: dict[int, int] = {}


def stride(n: int) -> int:
    """2 ** tower_exp(n): the coordinate stride of the n-th map."""
    v = _stride_cache.get(n)
    if v is None:
        e = tower_exp(n)
        if e > MAX_STRIDE_BITS:
            raise CapExceeded(
                f"stride {n} needs more bits than the cap {MAX_STRIDE_BITS} "
                f"(the exponent itself has {e.bit_length()} bits)"
            )
        v = _stride_cache[n] = 1 << e
    return v


def anchor_word(n: int) -> BinWord:
    """The length-stride(n) word with lenlex_word(n) as prefix, zero-padded.

    anchor_word(0) = "0", anchor_word(1) = "00000000"; anchor_word(2) has
    length 2**24 and still materializes; anchor_word(3) never will.
    """
    e = tower_exp(n)
    if e > 62 or (1 << e) > MAX_WORD_BITS:
        raise CapExceeded(
            f"anchor word {n} has length 2**{e}, beyond the {MAX_WORD_BITS}-bit word cap"
        )
    length = 1 << e
    w = lenlex_word(n)
    return BinWord(w.code << (length - len(w)))


def anchor_bit(n: int, i) -> int:
    """Bit i of the (possibly unmaterializable) anchor word, computed directly."""
    e = tower_exp(n)
    if i < 0 or i.bit_length() > e:
        raise InvalidArgument(f"position {i} outside anchor word {n} (length 2**{e})")
    w = lenlex_word(n)
    if i < len(w):
        return w.bit(i)
    return 0


# ---------------------------------------------------------------------------
# stride multiples, the skip and shift sets, and the index expansions


def in_stride_set(n: int, k: int) -> bool:
    """True iff k is a positive multiple of stride(n)."""
    if k < 1:
        return False
    return k % stride(n) == 0


def _split_pow23(k: int):
    """k = 2**a * 3**b * rest; returns (a, b, rest)."""
    a = (k & -k).bit_length() - 1
    k >>= a
    b = 0
    while k % 3 == 0:
        k //= 3
        b += 1
    return a, b, k


def in_skip_set(L: int, k: int) -> bool:
    """Membership in {2**p * 3**l | p >= 0, 0 <= l < L-2}; empty for L = 2."""
    if L < 2:
        raise InvalidLevel("skip set is defined for family levels >= 2")
    if k < 1:
        return False
    a, b, rest = _split_pow23(k)
    return rest == 1 and b < L - 2


def in_shift_set(L: int, k: int, shift_base: int = SHIFT_BASE) -> bool:
    """Membership in {c*3*j | j >= 1, j not in skip set}, c = shift_base."""
    if L < 2:
        raise InvalidLevel("shift set is defined for family levels >= 2")
    base = 3 * shift_base
    if k < base or k % base:
        return False
    return not in_skip_set(L, k // base)


def expand_index(L: int, j: int, shift_base: int = SHIFT_BASE) -> int:
    """One-step index expansion: 2j+1 at level 1; 3j with +-3 shift corrections above."""
    if j < 1:
        raise InvalidArgument("index expansion needs j >= 1")
    if L == 1:
        return 2 * j + 1
    if L < 1:
        raise InvalidLevel("family level must be >= 1")
    if in_shift_set(L, j, shift_base):
        return 3 * j + 3
    if in_shift_set(L, j - 1, shift_base):
        return 3 * j - 3
    return 3 * j


def stride_expand(L: int, n: int, k: int, shift_base: int = SHIFT_BASE) -> int:
    """Expansion localized to the stride-n lattice: identity off it, conjugated expansion on it."""
    if k < 1:
        return k
    st = stride(n)
    j, r = divmod(k, st)
    if r:
        return k
    return st * expand_index(L, j, shift_base)


def expand_index_inverse(L: int, j: int, shift_base: int = SHIFT_BASE):
    """The unique i >= 1 with expand_index(L, i) == j, or None.

    Injectivity of the expansion makes the candidate set tiny: at level 1 the
    image is the odd numbers >= 3; above, j must be a multiple of 3 and the
    preimage is one of j/3, (j-3)/3, (j+3)/3.
    """
    if L == 1:
        if j >= 3 and j % 2:
            return (j - 1) // 2
        return None
    if L < 1:
        raise InvalidLevel("family level must be >= 1")
    if j < 3 or j % 3:
        return None
    for i in (j // 3, (j - 3) // 3, (j + 3) // 3):
        if i >= 1 and expand_index(L, i, shift_base) == j:
            return i
    return None


# ---------------------------------------------------------------------------
# numbers of the form 2**a * 3**b with an exponent too large to materialize


class Pow23:
    """Exact value 2**a * 3**b carried as the exponent pair.

    Needed where the value itself cannot exist as an integer (witness points
    with stride-4-scale exponents).  Only the operations the property suites
    use are provided; anything leaving the closed form raises InvalidArgument.
    """

    __slots__ = ("a", "b")

    def __init__(self, a: int, b: int = 0):
        if a < 0 or b < 0:
            raise InvalidArgument("exponents must be >= 0")
        self.a = a
        self.b = b

    def __repr__(self):
        return f"Pow23(2**{self.a if self.a.bit_length() <= 64 else '<huge>'} * 3**{self.b})"

    def __eq__(self, other):
        return isinstance(other, Pow23) and self.a == other.a and self.b == other.b

    def __hash__(self):
        return hash((self.a, self.b))

    def value(self) -> int:
        if self.a > MAX_STRIDE_BITS:
            raise CapExceeded("value too large to materialize")
        return (1 << self.a) * 3**self.b

    def in_stride_set(self, n: int) -> bool:
        return self.a >= tower_exp(n)

    def in_shift_set(self, L: int, shift_base: int = SHIFT_BASE) -> bool:
        if L < 2:
            raise InvalidLevel("shift set is defined for family levels >= 2")
        gamma = shift_base.bit_length() - 1
        if shift_base != 1 << gamma:
            raise InvalidArgument("closed-form shift test needs a power-of-two shift base")
        return self.a >= gamma and self.b >= L - 1

    def expand_index(self, L: int, shift_base: int = SHIFT_BASE) -> "Pow23":
        if L == 1:
            raise InvalidArgument("level-1 expansion leaves the 2-3 closed form")
        if self.in_shift_set(L, shift_base):
            raise InvalidArgument("shifted expansion leaves the 2-3 closed form")
        return Pow23(self.a, self.b + 1)

    def stride_expand(self, L: int, n: int, shift_base: int = SHIFT_BASE) -> "Pow23":
        if not self.in_stride_set(n):
            return self
        e = tower_exp(n)
        expanded = Pow23(self.a - e, self.b).expand_index(L, shift_base)
        return Pow23(expanded.a + e, expanded.b)
