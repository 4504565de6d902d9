"""Command-line surface for the Steinitz calculus.

Expressions are read by :func:`steinitz.supernatural.parse_steinitz` (the
grammar is in its docstring).  Output is always canonical: primes
ascending, ``^1`` omitted, ``rest^d`` last and omitted when d = 0.

Exit codes: 0 for success and YES-decisions, 1 for NO-decisions (including
a verification report with failures), 2 for input and usage errors.

Each command is one row of ``_COMMANDS``: help, arguments, a call that
computes the result and one of five printers that map it to stdout and an
exit code.  The calls reach library functions through this module's
globals at run time, so a function replaced here is the one called.

The parser is built on the first call of :func:`main` and reused by every
later one.  It holds no per-call state: each call parses into a fresh
namespace, and argparse reads the help width (``COLUMNS``) and
``sys.stdout``/``sys.stderr`` when it prints, not when it is built.
"""

from __future__ import annotations

import argparse
import re
import sys
from functools import cache, reduce

from .errors import SteinitzError
from .morita import (
    AlgebraDescriptor,
    CornerComparison,
    _morita_class,
    are_isomorphic,
    corner,
    decompose_matrix_factor,
    morita_ratio,
    morita_witness,
    proper_corner_compare,
)
from .primes import get_default_trial_bound, set_default_trial_bound
from .supernatural import (
    MAX_NUMBER_DIGITS,
    divides,
    format_steinitz,
    gcd,
    is_locally_finite,
    lcm,
    mul,
    parse_steinitz,
)
from .tower import RANK_ORDER_CAP, run_verification


# ASCII digits and an optional '-': int() alone also reads '+', '_' and other scripts' digits.
_INTEGER = re.compile(r"\s*-?[0-9]+\s*")


def _integer(text: str) -> int:
    """An integer argument; more than MAX_NUMBER_DIGITS ASCII digits are refused unread."""
    if sum(map(text.count, "0123456789")) > MAX_NUMBER_DIGITS:
        raise argparse.ArgumentTypeError(f"number longer than {MAX_NUMBER_DIGITS} digits")
    if _INTEGER.fullmatch(text) is None:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")
    return int(text)


# The five printers: each prints a result and returns the exit code.
def _values(values) -> int:
    """Canonical values, one per line, printed as they are made."""
    for value in values:
        print(format_steinitz(value))
    return 0


def _decision(flag: bool) -> int:
    print("YES" if flag else "NO")
    return 0 if flag else 1


def _optional(template: str):
    """NO with exit 1 on None, else the result formatted into ``template``."""
    def show(result) -> int:
        print("NO" if result is None else template.format(result))
        return int(result is None)
    return show


def _comparison(result: CornerComparison) -> int:
    print(result.value)
    return 1 if result is CornerComparison.INCOMPARABLE else 0


def _report(report) -> int:
    print(report.render())
    return 0 if report.all_passed else 1


def _one(args) -> AlgebraDescriptor:
    return AlgebraDescriptor(parse_steinitz(args.expr))


def _two(args) -> tuple:
    return parse_steinitz(args.left), parse_steinitz(args.right)


def _pair(args) -> list[AlgebraDescriptor]:
    return [AlgebraDescriptor(s) for s in _two(args)]


def _all(args) -> list:
    return [parse_steinitz(t) for t in args.exprs]


#: name -> (help, arguments, compute, printer), in the order --help lists them.
_COMMANDS = {
    "parse": ("canonicalize an expression", "expr",
              lambda a: [parse_steinitz(a.expr)], _values),
    "mul": ("product of expressions", "exprs",
            lambda a: [reduce(mul, _all(a))], _values),
    "lcm": ("least common multiple of expressions", "exprs",
            lambda a: [reduce(lcm, _all(a))], _values),
    "gcd": ("greatest common divisor of expressions", "exprs",
            lambda a: [reduce(gcd, _all(a))], _values),
    "divides": ("does the first expression divide the second?", "left right",
                lambda a: divides(*_two(a)), _decision),
    "locally-finite": ("is every exponent finite?", "expr",
                       lambda a: is_locally_finite(parse_steinitz(a.expr)), _decision),
    "iso": ("are the two descriptors isomorphic?", "left right",
            lambda a: are_isomorphic(*_pair(a)), _decision),
    "morita": ("are the two descriptors Morita equivalent?", "left right",
               lambda a: morita_ratio(*_pair(a)), _optional("YES ratio={}")),
    "ratio": ("connecting ratio st(RIGHT)/st(LEFT), if any", "left right",
              lambda a: morita_ratio(*_pair(a)), _optional("{}")),
    "witness": ("matrix orders k, l with k*st(LEFT) = l*st(RIGHT)", "left right",
                lambda a: morita_witness(*_pair(a)),
                _optional("YES k={0.k} l={0.l} ratio={0.ratio}")),
    "compare": ("corner order of LEFT relative to RIGHT", "left right",
                lambda a: proper_corner_compare(*_pair(a)), _comparison),
    "corner": ("scale a descriptor by a relative rank in (0, 1]", "expr rank",
               lambda a: [corner(_one(a), a.rank).steinitz], _values),
    "decompose": ("split off a matrix factor of the given order", "expr order",
                  lambda a: [decompose_matrix_factor(_one(a), a.order).steinitz], _values),
    # The class is streamed from the generator, never held whole.
    "enumerate": ("distinct Morita-class members up to a bound (at most 500)", "expr bound",
                  lambda a: _morita_class(_one(a), a.bound), _values),
    "verify": ("run the seeded matrix-tower verification suites", "--seed --max-order --trials",
               lambda a: run_verification(a.seed, max_order=a.max_order, trials=a.trials), _report),
}

#: add_argument keywords for the arguments that need any.
_ARGUMENTS = {
    "exprs": dict(nargs="+", metavar="EXPR"),
    "rank": dict(help="'m' or 'm/n' in (0, 1], e.g. 3/4"),
    "order": dict(type=_integer),
    "bound": dict(type=_integer),
    "--seed": dict(type=_integer, required=True),
    "--max-order": dict(type=_integer, default=RANK_ORDER_CAP),
    "--trials": dict(type=_integer, default=20),
}


@cache
def _build_parser() -> argparse.ArgumentParser:
    """The parser of this process: built on first use, then reused by every call of main."""
    parser = argparse.ArgumentParser(
        prog="steinitz",
        description="Exact Steinitz-number calculus for locally matrix algebras.",
    )
    parser.add_argument(
        "--trial-bound",
        type=_integer,
        metavar="N",
        help="trial-division cap used when factoring natural-number inputs",
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")
    for name, (help_text, names, compute, show) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(compute=compute, show=show)
        for arg in names.split():
            p.add_argument(arg, **_ARGUMENTS.get(arg, {}))
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse has already printed its message; fold its exit status
        # into the 0/2 contract so callers of main() get a plain int.
        return exc.code if isinstance(exc.code, int) else 2
    saved_bound = get_default_trial_bound()
    try:
        if args.trial_bound is not None:
            set_default_trial_bound(args.trial_bound)
        return args.show(args.compute(args))
    except SteinitzError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    finally:
        set_default_trial_bound(saved_bound)


if __name__ == "__main__":
    sys.exit(main())
