"""Settle the shift-set multiplier by experiment.

The shift set that perturbs the index expansion is a set of multiples
c * 3 * k, and two readings of the multiplier c are on the table: the small
constant 8 and the huge constant 2**31.  The expansion-map property suite
decides between them.  Under c = 2**31 the shift never fires at reachable
scales, the composed expansion degenerates to pure tripling, and an argument
on the big lattice (k = 2**24 under the three-stage composition at level 2)
lands straight back on the head lattice, violating the no-landing property.
Under c = 8 the shift fires exactly where needed and every property holds.

The package fixes the winner as `cantorlab.sequences.SHIFT_BASE`.  This
script runs the full property suite under both candidates, passing each as
the `shift_base` of `suite_lemma51`, and prints the verdict with the first
few violations of the loser.

Example:
    python3 scripts/resolve_shift_constant.py
    python3 scripts/resolve_shift_constant.py --L-max 3 --kmax 100000
"""

import argparse
import sys

from cantorlab.suites import suite_lemma51

CANDIDATES = (("8", 8), ("2**31", 2**31))


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--L-max", type=int, default=2)
    ap.add_argument("--kmax", type=int, default=10**4)
    args = ap.parse_args()

    verdicts = {}
    for name, c in CANDIDATES:
        res = suite_lemma51(args.L_max, args.kmax, shift_base=c)
        verdicts[name] = res.ok
        print(f"shift base {name}: {'PASS' if res.ok else 'FAIL'} ({res.seconds:.2f}s)")
        for v in res.violations[:3]:
            print(f"  {v}")

    survivors = [name for name, ok in verdicts.items() if ok]
    if survivors == ["8"]:
        print("resolved: shift base 8 is the only candidate passing the property suite")
        return 0
    print(f"unresolved: survivors {survivors}", file=sys.stderr)
    return 1


if __name__ == "__main__":
    sys.exit(main())
