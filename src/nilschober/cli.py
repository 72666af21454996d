"""
Command-line front end.

Subcommands: `check` (axiom sweeps with JSON reports), `eval` (normal forms
of algebra expressions), `shuffles` (count or list), `render` (SVG diagram
sets), `oracle` (worked NH_3 example).  Exit codes: 0 all checks pass,
1 axiom failure, 2 usage error (a ValueError from parsing or from the
input itself), 3 internal error (a cube, fiber, oracle or linear-algebra
invariant failed, or some other exception escaped: a bug, not bad input).
Once `check`'s arguments have parsed, every exception exits 3.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .compositions import CompositionError, Pair, parse_composition
from .cubes import CubeError
from .expr import eval_string, format_element
from .fiber import FiberError
from .linalg import LinAlgError
from .oracle import OracleError
from .report import DEFAULT_MAX_ORACLE, build_report, report_ok, to_json, two_part_pairs
from .shuffles import enumerate_shuffles

AXIOM_FAILURE = 1
USAGE_ERROR = 2
INTERNAL_ERROR = 3
PROG = "nilschober"


def internal_error(exc: Exception) -> int:
    what = exc if isinstance(exc, ValueError) else f"{type(exc).__name__}: {exc}"
    print(f"{PROG}: internal error: {what}", file=sys.stderr)
    return INTERNAL_ERROR


def parse_pair(text: str) -> Pair:
    halves = text.split(";")
    if len(halves) != 2:
        raise CompositionError(f'pair syntax is "a,b;c,d", got {text!r}')
    ab = parse_composition(halves[0])
    cd = parse_composition(halves[1])
    if len(ab) != 2 or len(cd) != 2:
        raise CompositionError(f"pairs need two-part compositions: {text!r}")
    if sum(ab) != sum(cd):
        raise CompositionError(f"pair totals differ in {text!r}")
    return ab, cd


def cmd_check(args: argparse.Namespace) -> int:
    if not 2 <= args.n <= args.max_n:
        print(
            f"check: --n must be between 2 and {args.max_n} strands",
            file=sys.stderr,
        )
        return USAGE_ERROR
    pair = parse_pair(args.pair) if args.pair else None
    if pair is not None and pair not in two_part_pairs(args.n):
        raise CompositionError(f"pair {pair} is not a pair for n={args.n}")
    out = Path(args.json) if args.json else None
    if out is not None and (out.is_dir() or not out.parent.is_dir()):
        print(f"check: cannot write the report to {out}", file=sys.stderr)
        return USAGE_ERROR
    try:
        return _run_check(args, pair)
    except Exception as exc:  # the arguments parsed, so this is a bug
        return internal_error(exc)


def _run_check(args: argparse.Namespace, pair: Pair | None) -> int:
    doc = build_report(
        args.n,
        pair_filter=pair,
        max_oracle=args.max_oracle,
        with_timing=args.timing,
    )
    text = to_json(doc)
    if args.json:
        Path(args.json).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)
    ok = report_ok(doc)
    for entry in doc["pairs"]:
        pair_txt = (
            f"({','.join(map(str, entry['pair']['ab']))};"
            f"{','.join(map(str, entry['pair']['cd']))})"
        )
        status = "ok" if all(entry["checks"].values()) else "FAIL"
        print(
            f"{pair_txt} {entry['verdict']} [{status}]",
            file=sys.stderr,
        )
    return 0 if ok else AXIOM_FAILURE


def cmd_eval(args: argparse.Namespace) -> int:
    tau = parse_composition(args.tau)
    print(format_element(eval_string(args.expr, tau)))
    return 0


def cmd_shuffles(args: argparse.Namespace) -> int:
    sigma = parse_composition(args.sigma)
    tau = parse_composition(args.tau)
    shuffles = enumerate_shuffles(sigma, tau)
    if args.list:
        for w in shuffles:
            print(",".join(str(v) for v in w))
    else:
        print(len(shuffles))
    return 0


def cmd_render(args: argparse.Namespace) -> int:
    from .render import render_level

    pair = parse_pair(args.pair)
    written = render_level(pair, args.level, args.out)
    for path in written:
        print(path)
    return 0


def cmd_oracle(args: argparse.Namespace) -> int:
    if args.example != "nh3-square":
        print(f"oracle: unknown example {args.example!r}", file=sys.stderr)
        return USAGE_ERROR
    from .oracle import check_bicartesian, flip_action_check

    square = check_bicartesian()
    flip = flip_action_check(((1, 2), (2, 1)))
    print(f"bicartesian square ((1,2),(1,2)): {'ok' if square else 'FAIL'}")
    print(f"flip kernel ((1,2),(2,1)): {'ok' if flip else 'FAIL'}")
    return 0 if square and flip else AXIOM_FAILURE


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog=PROG,
        description="exact NilHecke strand-diagram engine and schober checks",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_check = sub.add_parser(
        "check", help="run the five axiom checks and emit a JSON report"
    )
    p_check.add_argument(
        "--n", type=int, required=True,
        help="number of strands (the compositions' total)",
    )
    p_check.add_argument("--pair", help='restrict to one pair, e.g. "2,3;2,3"')
    p_check.add_argument("--json", help="write the report to this path")
    p_check.add_argument(
        "--max-oracle", type=int, default=DEFAULT_MAX_ORACLE,
        help="largest strand count for the exact matrix oracle (default %(default)s)",
    )
    p_check.add_argument(
        "--max-n", type=int, default=6,
        help="refuse sweeps beyond this strand count (default 6)",
    )
    p_check.add_argument(
        "--timing", action="store_true",
        help="include wall-clock timing (breaks byte determinism)",
    )
    p_check.set_defaults(func=cmd_check)

    p_eval = sub.add_parser("eval", help="normal form of an algebra expression")
    p_eval.add_argument("--tau", required=True, help='block structure, e.g. "2,1"')
    p_eval.add_argument("expr", help='expression, e.g. "s1*X1"')
    p_eval.set_defaults(func=cmd_eval)

    p_shuf = sub.add_parser("shuffles", help="enumerate (sigma, tau)-shuffles")
    p_shuf.add_argument("--sigma", required=True)
    p_shuf.add_argument("--tau", required=True)
    group = p_shuf.add_mutually_exclusive_group(required=True)
    group.add_argument("--count", action="store_true")
    group.add_argument("--list", action="store_true")
    p_shuf.set_defaults(func=cmd_shuffles)

    p_render = sub.add_parser("render", help="SVG diagrams of a fiber level")
    p_render.add_argument("--pair", required=True, help='e.g. "2,3;2,3"')
    p_render.add_argument("--level", type=int, required=True)
    p_render.add_argument("--out", required=True, help="output directory")
    p_render.set_defaults(func=cmd_render)

    p_oracle = sub.add_parser("oracle", help="run a worked oracle example")
    p_oracle.add_argument("--example", default="nh3-square")
    p_oracle.set_defaults(func=cmd_oracle)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = make_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (CubeError, FiberError, OracleError, LinAlgError) as exc:
        return internal_error(exc)
    except ValueError as exc:
        # bad input: compositions, pairs, shuffles, expressions, levels
        print(f"{PROG}: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except Exception as exc:
        return internal_error(exc)


if __name__ == "__main__":
    sys.exit(main())
