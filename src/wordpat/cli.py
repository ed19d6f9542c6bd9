"""Command-line front end, one subcommand per library entry point.

Exit codes: 0 on success, 1 for domain outcomes (pattern not found,
guard exceeded, verification or extraction failure), 2 for malformed
input or bad usage.  A --guard flag on each guarded command is the only
way to lift its library default; nothing here reads the environment.
"""

from __future__ import annotations

import argparse
import json
import sys

from .algebra import concat, direct_power, direct_sum, skew_power, skew_sum
from .construction import build, verify
from .oracle import (
    check_unavoidability_balanced,
    enumerate_balanced,
    enumerate_cayley,
    max_repeats_avoiding,
)
from .witness import extract_witness
from .words import (
    contains,
    format_word,
    parse_word,
    repeats,
    standardise,
)


class UsageError(Exception):
    """Malformed command-line input; mapped to exit code 2."""


def _word(text: str):
    try:
        return parse_word(text)
    except ValueError as exc:
        raise UsageError(str(exc)) from None


def _int_from(low: int, kind: str):
    """argparse type for an integer option that must be >= ``low``."""

    def parse(text: str) -> int:
        # The digit rule of parse_word: no sign, "_", or non-ASCII digit.
        value = int(text) if text.isascii() and text.isdigit() else low - 1
        if value < low:
            raise argparse.ArgumentTypeError(f"must be a {kind} integer, got {text!r}")
        return value

    return parse


_positive = _int_from(1, "positive")
_nonnegative = _int_from(0, "non-negative")


def _guard(args: argparse.Namespace) -> dict:
    """``guard=`` for a library call when --guard sets one; otherwise
    nothing, so the library's own default applies."""
    return {} if args.guard is None else {"guard": args.guard}


def _occ_str(occ) -> str:
    return "[" + ",".join(str(i) for i in occ) + "]"


def cmd_std(args: argparse.Namespace) -> int:
    print(format_word(standardise(_word(args.word))))
    return 0


def cmd_repeats(args: argparse.Namespace) -> int:
    print(repeats(_word(args.word)))
    return 0


def cmd_contains(args: argparse.Namespace) -> int:
    host = _word(args.word)
    pattern = standardise(_word(args.pattern))
    occ = contains(host, pattern)
    if occ is None:
        print("no")
        return 1
    print(f"yes {_occ_str(occ)}" if args.occurrence else "yes")
    return 0


def cmd_algebra(args: argparse.Namespace) -> int:
    left = _word(args.left)
    if args.op in ("dpow", "spow"):
        try:
            m = _positive(args.right)
        except argparse.ArgumentTypeError as exc:
            raise UsageError(f"power {exc}") from None
        out = direct_power(left, m) if args.op == "dpow" else skew_power(left, m)
    else:
        right = _word(args.right)
        fn = {"concat": concat, "dsum": direct_sum, "ssum": skew_sum}[args.op]
        out = fn(left, right)
    print(format_word(out))
    return 0


def cmd_construct(args: argparse.Namespace) -> int:
    parts = build(args.n, args.k, **_guard(args))
    part = getattr(parts, "r_prime" if args.part == "rprime" else args.part)
    print(" ".join(str(v) for v in part))
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    report = verify(args.n, args.k, **_guard(args))
    if args.json:
        print(json.dumps(report.to_dict(), sort_keys=True))
    else:
        failing = [name for name, ok in report.avoided.items() if not ok]
        avoided = "all" if not failing else ",".join(failing)
        print(
            f"length={report.length} repeats={report.repeats} "
            f"multiplicity_ok={report.multiplicity_ok} avoided={avoided} "
            f"elapsed_ms={report.elapsed_ms:.1f}"
        )
    return 0 if report.ok else 1


def cmd_witness(args: argparse.Namespace) -> int:
    text = sys.stdin.read() if args.word == "-" else args.word
    w = _word(text)
    fid, occ, trace = extract_witness(w, args.n, args.k)
    print(f"{fid} {_occ_str(occ)}")
    if args.trace:
        print(json.dumps(trace.to_dict(), sort_keys=True))
    return 0


def cmd_oracle_cayley(args: argparse.Namespace) -> int:
    for w in enumerate_cayley(args.length, **_guard(args)):
        print(format_word(w))
    return 0


def cmd_oracle_balanced(args: argparse.Namespace) -> int:
    for w in enumerate_balanced(args.values, args.mult, **_guard(args)):
        print(format_word(w))
    return 0


def cmd_oracle_max_repeats(args: argparse.Namespace) -> int:
    best, witness_word = max_repeats_avoiding(
        args.n, args.k, args.max_values, **_guard(args)
    )
    shown = "none" if witness_word is None else format_word(witness_word)
    print(f"max_repeats={best} witness={shown}")
    return 0


def cmd_oracle_balanced_check(args: argparse.Namespace) -> int:
    ok = check_unavoidability_balanced(args.n, args.k, **_guard(args))
    print(f"unavoidable={ok}")
    return 0 if ok else 1


def _add_guard(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("--guard", type=_nonnegative, default=None, help="size guard override")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wordpat",
        description="Patterns in words with repeated letters: containment, "
        "extremal construction, witness extraction, exhaustive checks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("std", help="standardise a word")
    sp.add_argument("word")
    sp.set_defaults(func=cmd_std)

    sp = sub.add_parser("repeats", help="number of repeats of a word")
    sp.add_argument("word")
    sp.set_defaults(func=cmd_repeats)

    sp = sub.add_parser("contains", help="test pattern containment")
    sp.add_argument("word")
    sp.add_argument("pattern", help="pattern word; standardised before matching")
    sp.add_argument("--occurrence", action="store_true", help="print witness positions")
    sp.set_defaults(func=cmd_contains)

    sp = sub.add_parser("algebra", help="combine words")
    sp.add_argument("op", choices=["concat", "dsum", "ssum", "dpow", "spow"])
    sp.add_argument("left")
    sp.add_argument("right", help="second word, or the power for dpow/spow")
    sp.set_defaults(func=cmd_algebra)

    sp = sub.add_parser("construct", help="print a construction part")
    sp.add_argument("--n", type=_positive, required=True)
    sp.add_argument("--k", type=_positive, default=1)
    sp.add_argument(
        "--part", choices=["p", "t", "r", "rprime", "q", "s"], default="s"
    )
    _add_guard(sp)
    sp.set_defaults(func=cmd_construct)

    sp = sub.add_parser("verify", help="check the constructed word's guarantees")
    sp.add_argument("--n", type=_positive, required=True)
    sp.add_argument("--k", type=_positive, default=1)
    sp.add_argument("--json", action="store_true", help="machine-readable report")
    _add_guard(sp)
    sp.set_defaults(func=cmd_verify)

    sp = sub.add_parser("witness", help="extract a guaranteed pattern occurrence")
    sp.add_argument("word", help="host word, or - to read it from stdin")
    sp.add_argument("--n", type=_positive, required=True)
    sp.add_argument("--k", type=_positive, default=1)
    sp.add_argument("--trace", action="store_true", help="print the replayable trace")
    sp.set_defaults(func=cmd_witness)

    sp = sub.add_parser("oracle", help="exhaustive desk-scale searches")
    osub = sp.add_subparsers(dest="oracle_command", required=True)

    op = osub.add_parser("cayley", help="enumerate standardised words")
    op.add_argument("--len", dest="length", type=_nonnegative, required=True)
    _add_guard(op)
    op.set_defaults(func=cmd_oracle_cayley)

    op = osub.add_parser("balanced", help="enumerate balanced words")
    op.add_argument("--values", type=_nonnegative, required=True)
    op.add_argument("--mult", type=_positive, required=True)
    _add_guard(op)
    op.set_defaults(func=cmd_oracle_balanced)

    op = osub.add_parser("max-repeats", help="search for extremal avoiders")
    op.add_argument("--n", type=_nonnegative, required=True)
    op.add_argument("--k", type=_positive, required=True)
    op.add_argument("--max-values", type=_nonnegative, required=True)
    _add_guard(op)
    op.set_defaults(func=cmd_oracle_max_repeats)

    op = osub.add_parser("balanced-check", help="confirm balanced unavoidability")
    op.add_argument("--n", type=_positive, required=True)
    op.add_argument("--k", type=_positive, required=True)
    _add_guard(op)
    op.set_defaults(func=cmd_oracle_balanced_check)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
