"""Tunable size and search budgets.

Everything here is a desk-scale knob, not mathematics: raising a budget never
changes a computed value, it only lets more of them be computed.
"""

from dataclasses import dataclass


@dataclass(frozen=True)
class Budgets:
    # Longest binary word that may be materialized, in bits.  anchor_word(2)
    # (length 2**24) fits, anchor_word(3) (length 2**50331648) never will.
    word_cap_bits: int = 1 << 26

    # Cap on |X| for approximation runs.  The default keeps casual runs safe;
    # the depth-20 acceptance run passes an explicit larger cap.
    max_words: int = 200_000

    # Default maximum approximation depth.
    max_depth: int = 64

    # Multiplier c in the shift set {c*3*k | k >= 1, k not in skip set}.
    # The value is settled by the property suite (see scripts/resolve_shift_constant.py);
    # both the winning 8 and the losing alternative 2**31 can be injected here.
    shift_base: int = 8

    # Largest stride exponent (bit count) we will turn into a concrete integer.
    # stride(3) = 2**50331648 is a ~6 MB integer and still allowed; stride(4) is not.
    max_stride_bits: int = 1 << 27

    # Bounded search over map indices (only maps 0 and 1 act on materializable words).
    map_search_max: int = 1

    # For point-domain checks against a huge seed word when the point carries a
    # rule: probe this many leading coordinates (plus every explicit bit and the
    # word's distinguishing positions).  Rule-free points are checked exactly.
    point_probe_bits: int = 4096

    # Guard for the labeled-duplication construction: the total number of labeled
    # copies, sum over vertices of |X|**(|p_x|-1), must stay under this.
    duplication_cap: int = 200_000


DEFAULT = Budgets()
