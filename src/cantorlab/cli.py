"""Command-line surface: approximation-stage runs, the named property suites,
the scheme build with its condition report, and map evaluation at a coordinate.
"""

import argparse
import json
import sys
from pathlib import Path

from .approximation import MAX_WORDS, detect_L_n, run, state_chunks, state_dot
from .cylinders import LazyPoint
from .embedding import scheme_state_json
from .errors import CantorLabError, InvalidArgument, OutsideDomain
from .maps import g_compose_eval
from .sequences import stride, stride_expand
from .suites import SUITES, checked_scheme, fmt_coord


def cmd_approx(args) -> int:
    states = run(args.L, args.depth, args.max_words)
    outdir = Path(args.out or f"approx_L{args.L}_d{args.depth}")
    outdir.mkdir(parents=True, exist_ok=True)
    for st in states:
        if args.emit == "json":
            with open(outdir / f"stage_{st.level:03d}.json", "w") as out:
                out.writelines(state_chunks(st))
        else:
            path = outdir / f"stage_{st.level:03d}.dot"
            path.write_text(state_dot(st))
    for st in states:
        print(f"l={st.level} |X|={len(st.X_sorted)} |B|={len(st.B_src)} |E|={len(st.E_sorted)}")
    detected = detect_L_n(states)
    print("detected map levels:", json.dumps({str(k): v for k, v in sorted(detected.items())}))
    print(f"wrote {len(states)} stage files to {outdir}")
    return 0


def cmd_check(args) -> int:
    suite = SUITES[args.suite]
    given = {}
    for option in CHECK_OPTIONS:
        value = getattr(args, option[2:].replace("-", "_"))
        if value is not None:
            given[option] = value
    foreign = [option for option in given if option not in suite.options]
    if foreign:
        print(f"error: suite {args.suite} takes no {', '.join(foreign)}", file=sys.stderr)
        return 2
    result = suite.fn(**{suite.options[option]: value for option, value in given.items()})
    print(json.dumps(result.to_json(), indent=2))
    return 0 if result.ok else 1


def cmd_build_h(args) -> int:
    states, rep = checked_scheme(args.depth)
    report = {
        "depth": args.depth,
        "strengths": {str(k): v for k, v in sorted(states[-1].phi.items())},
        "conditions_ok": rep.ok,
        "violations": [f"{clause}: {witness}" for clause, witness in rep.violations],
        "levels": [scheme_state_json(st) for st in states],
    }
    path = Path(args.report)
    path.write_text(json.dumps(report, indent=2) + "\n")
    for st in states:
        print(f"level {st.level}: {len(st.cells)} cells")
    print(f"conditions ok: {rep.ok}")
    for clause, witness in rep.violations[:10]:
        print(f"violation: {clause}: {witness}")
    print(f"wrote report to {path}")
    return 0 if rep.ok else 1


def _parse_point(spec: str) -> LazyPoint:
    """Point specs: 'zeros-in-N00' / 'zeros', or 'coord:bit,...[,default:bit]'."""
    if spec in ("zeros-in-N00", "zeros"):
        return LazyPoint()
    explicit = {}
    default = 0
    for part in spec.split(","):
        part = part.strip()
        if not part:
            continue
        key, _, value = part.partition(":")
        if not value:
            raise InvalidArgument(f"bad point fragment {part!r}, want coord:bit")
        bit = int(value)
        if bit not in (0, 1):
            raise InvalidArgument(f"bad bit in point fragment {part!r}, want 0 or 1")
        if key == "default":
            default = bit
        else:
            coord = int(key)
            if coord < 0:
                raise InvalidArgument(f"bad coordinate in point fragment {part!r}, want a natural")
            explicit[coord] = bit
    return LazyPoint(explicit, default)


def cmd_eval_g(args) -> int:
    try:
        stages = tuple(int(x) for x in args.s.split(",") if x.strip() != "")
    except ValueError:
        print(f"error: bad stage list {args.s!r}", file=sys.stderr)
        return 2
    if not stages or any(n < 0 for n in stages):
        print("error: stages and coordinate must be naturals", file=sys.stderr)
        return 2
    try:
        point = _parse_point(args.point)
    except (InvalidArgument, ValueError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    c = args.coord
    trace = []
    try:
        for i, n in enumerate(stages):
            if c == stride(n):
                trace.append(f"stage {i} (map {n}): coordinate {fmt_coord(c)} is the forced stride coordinate -> 1")
                c = None
                break
            nxt = stride_expand(args.L, n, c)
            trace.append(f"stage {i} (map {n}): coordinate {fmt_coord(c)} reads input {fmt_coord(nxt)}")
            c = nxt
        value = g_compose_eval(args.L, stages, point, args.coord)
    except OutsideDomain as err:
        for line in trace:
            print(line)
        stage = getattr(err, "stage", None)
        print(f"error: point outside the domain at stage {stage}: {err}", file=sys.stderr)
        return 1
    for line in trace:
        print(line)
    if c is not None:
        trace_tail = f"point bit {fmt_coord(c)}"
    else:
        trace_tail = "forced"
    print(f"value: {value} ({trace_tail})")
    return 0


def _positive_int(text: str) -> int:
    """Argument type of the options that count or bound work, and of --L."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _natural(text: str) -> int:
    """Argument type of the --depth and --coord options."""
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


# Every `check` option and its argument type; each suite takes the ones its
# SUITES entry maps.
CHECK_OPTIONS = {
    "--L": _positive_int,
    "--depth": _natural,
    "--kmax": _positive_int,
    "--max-vertices": _positive_int,
    "--samples": _positive_int,
    "--seed": int,
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cantorlab",
        description="Approximation stages, property suites, the cell scheme, and map evaluation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_approx = sub.add_parser("approx", help="run approximation stages and dump them")
    p_approx.add_argument("--L", type=_positive_int, default=1, help="family level (>= 1)")
    p_approx.add_argument("--depth", type=_natural, default=8, help="last stage to compute")
    p_approx.add_argument("--emit", choices=("json", "dot"), default="json")
    p_approx.add_argument("--out", default=None, help="output directory")
    p_approx.add_argument("--max-words", type=_positive_int, default=MAX_WORDS,
                          help="stage size cap")
    p_approx.set_defaults(fn=cmd_approx)

    p_check = sub.add_parser("check", help="run a named property suite")
    p_check.add_argument("--suite", required=True, choices=SUITES)
    for option, kind in CHECK_OPTIONS.items():
        p_check.add_argument(option, type=kind)
    p_check.set_defaults(fn=cmd_check)

    p_build = sub.add_parser("build-h", help="build the cell scheme and verify its conditions")
    p_build.add_argument("--depth", type=_natural, default=8)
    p_build.add_argument("--report", default="scheme_report.json")
    p_build.set_defaults(fn=cmd_build_h)

    p_eval = sub.add_parser("eval-g", help="evaluate a map composition at one coordinate")
    p_eval.add_argument("--L", type=_positive_int, default=1)
    p_eval.add_argument("--s", required=True, help="comma-separated map indices, outermost first")
    p_eval.add_argument("--coord", type=_natural, required=True)
    p_eval.add_argument("--point", default="zeros-in-N00")
    p_eval.set_defaults(fn=cmd_eval_g)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.fn(args)
    except CantorLabError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
