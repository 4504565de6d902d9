"""Command-line surface for the Steinitz calculus.

Expression grammar (whitespace ignored)::

    expr := term ('*' term)*
    term := PRIME ['^' exp] | 'rest' '^' exp
    exp  := NAT | 'inf'

``rest`` fixes the exponent of every prime not listed explicitly (at most
one ``rest`` term; absent means 0).  The single digit ``1`` is accepted as
the empty product.  Output is always canonical: primes ascending, ``^1``
omitted, ``rest^d`` last and omitted when d = 0.

Exit codes: 0 for success and YES-decisions, 1 for NO-decisions (including
a verification report with failures), 2 for input and usage errors.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from string import ascii_letters, digits

from .errors import (
    DuplicatePrimeError,
    DuplicateRestError,
    NotPrimeError,
    SteinitzError,
    SteinitzSyntaxError,
)
from .morita import (
    AlgebraDescriptor,
    CornerComparison,
    are_isomorphic,
    corner,
    decompose_matrix_factor,
    enumerate_morita_class,
    morita_ratio,
    morita_witness,
    proper_corner_compare,
)
from .primes import get_default_trial_bound, is_prime, set_default_trial_bound
from .supernatural import (
    INF,
    Exponent,
    SupernaturalNumber,
    divides,
    gcd,
    is_locally_finite,
    lcm,
    mul,
)
from .tower import run_verification


@dataclass(frozen=True)
class _Token:
    kind: str  # "number" | "name" | "star" | "caret" | "end"
    text: str
    pos: int


def _tokenize(text: str) -> list[_Token]:
    tokens: list[_Token] = []
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
        elif ch in digits:
            j = i
            while j < n and text[j] in digits:
                j += 1
            tokens.append(_Token("number", text[i:j], i))
            i = j
        elif ch in ascii_letters:
            j = i
            while j < n and text[j] in ascii_letters:
                j += 1
            tokens.append(_Token("name", text[i:j], i))
            i = j
        elif ch == "*":
            tokens.append(_Token("star", ch, i))
            i += 1
        elif ch == "^":
            tokens.append(_Token("caret", ch, i))
            i += 1
        else:
            raise SteinitzSyntaxError(f"unexpected character {ch!r}", i)
    tokens.append(_Token("end", "", n))
    return tokens


class _Parser:
    def __init__(self, tokens: list[_Token]):
        self._tokens = tokens
        self._pos = 0
        self._exceptions: dict[int, Exponent] = {}
        self._default: Exponent = 0
        self._saw_rest = False

    def _peek(self) -> _Token:
        return self._tokens[self._pos]

    def _advance(self) -> _Token:
        tok = self._tokens[self._pos]
        if tok.kind != "end":
            self._pos += 1
        return tok

    def parse(self) -> SupernaturalNumber:
        self._term()
        while self._peek().kind == "star":
            self._advance()
            self._term()
        tok = self._peek()
        if tok.kind != "end":
            raise SteinitzSyntaxError(f"unexpected {tok.text!r}", tok.pos)
        return SupernaturalNumber(self._default, self._exceptions)

    def _term(self) -> None:
        tok = self._advance()
        if tok.kind == "number":
            base = int(tok.text)
            if base == 1:
                if self._peek().kind == "caret":
                    raise SteinitzSyntaxError("'1' does not take an exponent", self._peek().pos)
                return
            exp: Exponent = 1
            if self._peek().kind == "caret":
                self._advance()
                exp = self._exponent()
            if not is_prime(base):
                raise NotPrimeError(f"{base} is not prime (at position {tok.pos})")
            if base in self._exceptions:
                raise DuplicatePrimeError(
                    f"prime {base} appears more than once (at position {tok.pos})"
                )
            self._exceptions[base] = exp
        elif tok.kind == "name" and tok.text == "rest":
            if self._peek().kind != "caret":
                raise SteinitzSyntaxError("'rest' requires an explicit exponent", tok.pos)
            self._advance()
            exp = self._exponent()
            if self._saw_rest:
                raise DuplicateRestError(
                    f"'rest' appears more than once (at position {tok.pos})"
                )
            self._saw_rest = True
            self._default = exp
        elif tok.kind == "end":
            raise SteinitzSyntaxError("unexpected end of expression", tok.pos)
        else:
            raise SteinitzSyntaxError(f"unexpected {tok.text!r}", tok.pos)

    def _exponent(self) -> Exponent:
        tok = self._advance()
        if tok.kind == "number":
            return int(tok.text)
        if tok.kind == "name" and tok.text == "inf":
            return INF
        where = tok.text if tok.kind != "end" else "end of expression"
        raise SteinitzSyntaxError(f"expected a natural number or 'inf', got {where!r}", tok.pos)


def parse_steinitz(text: str) -> SupernaturalNumber:
    """Parse expression text into a supernatural number (see module docstring)."""
    if not isinstance(text, str):
        raise TypeError(f"expected expression text, got {text!r}")
    return _Parser(_tokenize(text)).parse()


def format_steinitz(s: SupernaturalNumber) -> str:
    """Canonical expression text; parse(format_steinitz(s)) == s."""
    return str(s)


def _parse_rank(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as err:
        raise SteinitzSyntaxError(f"not a rational number: {text!r}", 0) from err


def _print_decision(flag: bool) -> int:
    print("YES" if flag else "NO")
    return 0 if flag else 1


def _cmd_parse(args) -> int:
    print(format_steinitz(parse_steinitz(args.expr)))
    return 0


def _fold(args, op) -> int:
    values = [parse_steinitz(t) for t in args.exprs]
    print(format_steinitz(reduce(op, values)))
    return 0


def _cmd_mul(args) -> int:
    return _fold(args, mul)


def _cmd_lcm(args) -> int:
    return _fold(args, lcm)


def _cmd_gcd(args) -> int:
    return _fold(args, gcd)


def _cmd_divides(args) -> int:
    return _print_decision(divides(parse_steinitz(args.left), parse_steinitz(args.right)))


def _cmd_locally_finite(args) -> int:
    return _print_decision(is_locally_finite(parse_steinitz(args.expr)))


def _descriptors(args) -> tuple[AlgebraDescriptor, AlgebraDescriptor]:
    return (
        AlgebraDescriptor(parse_steinitz(args.left)),
        AlgebraDescriptor(parse_steinitz(args.right)),
    )


def _cmd_iso(args) -> int:
    return _print_decision(are_isomorphic(*_descriptors(args)))


def _cmd_morita(args) -> int:
    q = morita_ratio(*_descriptors(args))
    if q is None:
        print("NO")
        return 1
    print(f"YES ratio={q}")
    return 0


def _cmd_ratio(args) -> int:
    q = morita_ratio(*_descriptors(args))
    if q is None:
        print("NO")
        return 1
    print(q)
    return 0


def _cmd_witness(args) -> int:
    w = morita_witness(*_descriptors(args))
    if w is None:
        print("NO")
        return 1
    print(f"YES k={w.k} l={w.l} ratio={w.ratio}")
    return 0


def _cmd_corner(args) -> int:
    result = corner(AlgebraDescriptor(parse_steinitz(args.expr)), _parse_rank(args.rank))
    print(format_steinitz(result.steinitz))
    return 0


def _cmd_decompose(args) -> int:
    result = decompose_matrix_factor(AlgebraDescriptor(parse_steinitz(args.expr)), args.order)
    print(format_steinitz(result.steinitz))
    return 0


def _cmd_enumerate(args) -> int:
    values = enumerate_morita_class(AlgebraDescriptor(parse_steinitz(args.expr)), args.bound)
    for value in values:
        print(format_steinitz(value))
    return 0


def _cmd_compare(args) -> int:
    result = proper_corner_compare(*_descriptors(args))
    print(result.value)
    return 1 if result is CornerComparison.INCOMPARABLE else 0


def _cmd_verify(args) -> int:
    report = run_verification(args.seed, max_order=args.max_order, trials=args.trials)
    print(report.render())
    return 0 if report.all_passed else 1


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="steinitz",
        description="Exact Steinitz-number calculus for locally matrix algebras.",
    )
    parser.add_argument(
        "--trial-bound",
        type=int,
        metavar="N",
        help="trial-division cap used when factoring natural-number inputs",
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")

    def cmd(name, handler, help_text):
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(handler=handler)
        return p

    p = cmd("parse", _cmd_parse, "canonicalize an expression")
    p.add_argument("expr")

    for name, handler, help_text in (
        ("mul", _cmd_mul, "product of expressions"),
        ("lcm", _cmd_lcm, "least common multiple of expressions"),
        ("gcd", _cmd_gcd, "greatest common divisor of expressions"),
    ):
        p = cmd(name, handler, help_text)
        p.add_argument("exprs", nargs="+", metavar="EXPR")

    p = cmd("divides", _cmd_divides, "does the first expression divide the second?")
    p.add_argument("left")
    p.add_argument("right")

    p = cmd("locally-finite", _cmd_locally_finite, "is every exponent finite?")
    p.add_argument("expr")

    for name, handler, help_text in (
        ("iso", _cmd_iso, "are the two descriptors isomorphic?"),
        ("morita", _cmd_morita, "are the two descriptors Morita equivalent?"),
        ("ratio", _cmd_ratio, "connecting ratio st(RIGHT)/st(LEFT), if any"),
        ("witness", _cmd_witness, "matrix orders k, l with k*st(LEFT) = l*st(RIGHT)"),
        ("compare", _cmd_compare, "corner order of LEFT relative to RIGHT"),
    ):
        p = cmd(name, handler, help_text)
        p.add_argument("left")
        p.add_argument("right")

    p = cmd("corner", _cmd_corner, "scale a descriptor by a relative rank in (0, 1]")
    p.add_argument("expr")
    p.add_argument("rank", help="rational in (0, 1], e.g. 3/4")

    p = cmd("decompose", _cmd_decompose, "split off a matrix factor of the given order")
    p.add_argument("expr")
    p.add_argument("order", type=int)

    p = cmd("enumerate", _cmd_enumerate, "distinct Morita-class members up to a bound")
    p.add_argument("expr")
    p.add_argument("bound", type=int)

    p = cmd("verify", _cmd_verify, "run the seeded matrix-tower verification suites")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--max-order", type=int, default=96, dest="max_order")
    p.add_argument("--trials", type=int, default=20)

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
        return args.handler(args)
    except SteinitzError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except (TypeError, ValueError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    finally:
        set_default_trial_bound(saved_bound)


if __name__ == "__main__":
    sys.exit(main())
