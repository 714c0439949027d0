"""Stage-by-stage approximation runs with a growth table.

Runs the finite approximation for a chosen level and depth, prints the
per-stage sizes with their growth ratios, and reports which map levels the
final stage pins down.  Useful for eyeballing how fast the word sets double
and when the level detector resolves.

Example:
    python3 scripts/run_approx.py --L 1 --depth 12
    python3 scripts/run_approx.py --L 2 --depth 8 --dump-dir /tmp/stages
"""

import argparse
import dataclasses
import json
import pathlib
import sys

from cantorlab.approximation import detect_L_n, run, state_json
from cantorlab.config import DEFAULT
from cantorlab.errors import ResourceBoundary


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--L", type=int, default=1)
    ap.add_argument("--depth", type=int, default=12)
    ap.add_argument("--max-words", type=int, default=2_000_000)
    ap.add_argument("--dump-dir", default=None, help="also write one JSON file per stage")
    args = ap.parse_args()

    budgets = dataclasses.replace(DEFAULT, max_words=args.max_words)
    try:
        states = run(args.L, args.depth, budgets)
    except ResourceBoundary as err:
        print(f"stopped: {err}", file=sys.stderr)
        return 1

    print(f"{'l':>3} {'|X|':>9} {'|B|':>9} {'|E|':>9} {'|X| ratio':>10}")
    prev = None
    for st in states:
        ratio = "" if prev is None else f"{len(st.X_codes) / prev:.3f}"
        print(f"{st.level:>3} {len(st.X_codes):>9} {len(st.phi_codes):>9} {len(st.E_codes):>9} {ratio:>10}")
        prev = len(st.X_codes)

    detected = detect_L_n(states, budgets)
    print(f"detected map levels at depth {args.depth}: {detected}")

    if args.dump_dir:
        outdir = pathlib.Path(args.dump_dir)
        outdir.mkdir(parents=True, exist_ok=True)
        for st in states:
            path = outdir / f"stage_{st.level:03d}.json"
            path.write_text(json.dumps(state_json(st), indent=2))
        print(f"wrote {len(states)} stage files to {outdir}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
