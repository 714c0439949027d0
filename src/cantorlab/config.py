"""Size and search budgets that a caller sets.

Each field has a caller that sets it:

- `shift_base`, by scripts/resolve_shift_constant.py;
- `max_words`, by `approx --max-words` and the stage suites;
- `duplication_cap`, by `build-h --duplication-cap`.  It bounds the
  labeled copies of `duplicate`; in the scheme, whose splitting makes no
  copies, it bounds only the preimages of one split.

Raising `max_words` or `duplication_cap` never changes a computed value, it
only lets more of them be computed.  `shift_base` is mathematics, not a
size: it picks the shift set, and the property suite fails under the
alternative 2**31.

The caps no caller varies are module constants: `sequences.MAX_STRIDE_BITS`
and `sequences.MAX_WORD_BITS`, `approximation.MAX_DEPTH`,
`embedding.POINT_PROBE_BITS` and `embedding.MAP_SEARCH_MAX`.
"""

from dataclasses import dataclass


@dataclass(frozen=True)
class Budgets:
    # Cap on |X| for approximation runs.  The default keeps casual runs safe;
    # the depth-20 acceptance run passes an explicit larger cap.
    max_words: int = 200_000

    # Multiplier c in the shift set {c*3*k | k >= 1, k not in skip set}.
    # The value is settled by the property suite (see scripts/resolve_shift_constant.py);
    # both the winning 8 and the losing alternative 2**31 can be injected here.
    shift_base: int = 8

    # Guard for the labeled-duplication construction: the total number of labeled
    # copies, sum over vertices of |X|**(|p_x|-1), must stay under this.  The
    # splitting construction reads it as the cap on one split's preimages.
    duplication_cap: int = 200_000


DEFAULT = Budgets()
