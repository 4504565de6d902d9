"""Exact arithmetic on Steinitz (supernatural) numbers.

A Steinitz number is a formal product over all primes p of p**e_p with
exponents in N union {infinity}.  This module restricts to the decidable
class whose exponent pattern is eventually constant: a single default
exponent applies to every prime outside a finite exception set.  That class
contains every positive integer, every p**infinity pattern, the product of
all primes, and is closed under the operations below, which makes equality,
divisibility, lcm/gcd and rational connectedness all decidable by finite
bookkeeping.  Binary operations walk the two canonical exception tuples
once, in ascending prime order, with the defaults filled in.

Values are immutable and canonicalized on construction, so structural
equality coincides with semantic equality.  This module also owns the
expression text: ``str`` writes it and :func:`parse_steinitz` reads it.
"""

from __future__ import annotations

import operator
import re
import sys
from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from functools import total_ordering
from math import prod
from typing import Callable, Iterator, Mapping, Sequence, Union

from .errors import (
    MAX_NUMBER_DIGITS,
    DenominatorDoesNotDivideError,
    DuplicatePrimeError,
    DuplicateRestError,
    InvalidArgumentError,
    NotPrimeError,
    RatioTooLargeError,
    SteinitzSyntaxError,
    _check_positive_int,
    _shown,
)
from .primes import factorize, is_prime


@total_ordering
class Infinity:
    """Absorbing infinite exponent: t + inf = inf, and inf exceeds every int."""

    __slots__ = ()

    def __add__(self, other):
        if isinstance(other, (int, Infinity)):
            return self
        return NotImplemented

    __radd__ = __add__

    def __eq__(self, other):
        return isinstance(other, Infinity)

    def __lt__(self, other):
        if isinstance(other, (int, Infinity)):
            return False
        return NotImplemented

    def __hash__(self):
        return sys.hash_info.inf

    def __repr__(self):
        return "INF"


#: The infinite exponent marker.
INF = Infinity()

#: A prime exponent: a finite nonnegative integer or INF.
Exponent = Union[int, Infinity]


def is_infinite(e: Exponent) -> bool:
    return isinstance(e, Infinity)


def _check_exponent(e, what: str) -> None:
    if isinstance(e, Infinity):
        return
    if isinstance(e, bool) or not isinstance(e, int):
        raise TypeError(f"{what} must be a nonnegative int or INF, got {e!r}")
    if e < 0:
        raise InvalidArgumentError(f"{what} must be nonnegative, got {_shown(e)}")


@dataclass(frozen=True)
class SupernaturalNumber:
    """A Steinitz number with an eventually-constant exponent pattern.

    ``default_exp`` applies to every prime not listed in ``exceptions``.
    ``exceptions`` may be given as a mapping or as (prime, exponent) pairs;
    it is stored canonically: ascending primes, no entry equal to the
    default.
    """

    default_exp: Exponent = 0
    exceptions: tuple[tuple[int, Exponent], ...] = ()

    def __post_init__(self):
        _check_exponent(self.default_exp, "default exponent")
        if isinstance(self.exceptions, Mapping):
            items = list(self.exceptions.items())
        else:
            items = list(self.exceptions)
        seen: dict[int, Exponent] = {}
        for entry in items:
            p, e = entry
            if isinstance(p, bool) or not isinstance(p, int) or not is_prime(p):
                raise NotPrimeError(f"exception key {p!r} is not prime")
            _check_exponent(e, f"exponent of {p}")
            if p in seen:
                raise InvalidArgumentError(f"duplicate prime {p} in exceptions")
            seen[p] = e
        canonical = [(p, e) for p, e in sorted(seen.items()) if e != self.default_exp]
        object.__setattr__(self, "exceptions", tuple(canonical))

    def exponent(self, p: int) -> Exponent:
        return exponent_at(self, p)

    def __mul__(self, other):
        if isinstance(other, SupernaturalNumber):
            return mul(self, other)
        return NotImplemented

    def __str__(self):
        parts = []
        for p, e in self.exceptions:
            if e == 1:
                parts.append(str(p))
            elif is_infinite(e):
                parts.append(f"{p}^inf")
            else:
                parts.append(f"{p}^{e}")
        if is_infinite(self.default_exp):
            parts.append("rest^inf")
        elif self.default_exp != 0:
            parts.append(f"rest^{self.default_exp}")
        return "*".join(parts) if parts else "1"


#: The empty product.
ONE = SupernaturalNumber()

# One token per match: a number, a word, '*' or '^' in group 1, or any other
# non-space character in group 2.
_TOKEN = re.compile(r"\s*(?:([0-9]+|[A-Za-z]+|[*^])|(\S))")


def parse_steinitz(text: str) -> SupernaturalNumber:
    """Parse expression text into a supernatural number.

    Grammar (whitespace ignored, ASCII only)::

        expr := term ('*' term)*
        term := PRIME ['^' exp] | 'rest' '^' exp
        exp  := NAT | 'inf'

    ``rest`` fixes the exponent of every prime not listed explicitly (at most
    one ``rest`` term; absent means 0).  The single digit ``1`` is accepted
    as the empty product.  A number longer than MAX_NUMBER_DIGITS digits is
    refused.  The whole text is scanned before any term is read, so a bad
    character is reported before an error in a term.  Errors carry the
    position of the offending token.
    """
    if not isinstance(text, str):
        raise TypeError(f"expected expression text, got {text!r}")
    tokens: list[tuple[str, int]] = []
    for m in _TOKEN.finditer(text):
        tok, bad = m.group(1, 2)
        if bad is not None:
            raise SteinitzSyntaxError(f"unexpected character {bad!r}", m.start(2))
        if len(tok) > MAX_NUMBER_DIGITS and tok.isdigit():
            raise SteinitzSyntaxError(
                f"number longer than {MAX_NUMBER_DIGITS} digits", m.start(1)
            )
        tokens.append((tok, m.start(1)))
    tokens.append(("", len(text)))  # the end of the text

    exceptions: dict[int, Exponent] = {}
    default: Exponent | None = None
    i = 0
    while True:
        head, at = tokens[i]
        if not head:
            raise SteinitzSyntaxError("unexpected end of expression", at)
        if not (head.isdigit() or head == "rest"):
            raise SteinitzSyntaxError(f"unexpected {head!r}", at)
        base = int(head) if head.isdigit() else None
        exp: Exponent = 1
        i += 1
        if tokens[i][0] == "^":
            if base == 1:
                raise SteinitzSyntaxError("'1' does not take an exponent", tokens[i][1])
            word, where = tokens[i + 1]
            if word.isdigit():
                exp = int(word)
            elif word == "inf":
                exp = INF
            else:
                got = word or "end of expression"
                raise SteinitzSyntaxError(
                    f"expected a natural number or 'inf', got {got!r}", where
                )
            i += 2
        elif base is None:
            raise SteinitzSyntaxError("'rest' requires an explicit exponent", at)
        if base is None:
            if default is not None:
                raise DuplicateRestError(f"'rest' appears more than once (at position {at})")
            default = exp
        elif base != 1:
            if not is_prime(base):
                raise NotPrimeError(f"{base} is not prime (at position {at})")
            if base in exceptions:
                raise DuplicatePrimeError(
                    f"prime {base} appears more than once (at position {at})"
                )
            exceptions[base] = exp
        sep, at = tokens[i]
        if sep != "*":
            if sep:
                raise SteinitzSyntaxError(f"unexpected {sep!r}", at)
            return SupernaturalNumber(0 if default is None else default, exceptions)
        i += 1


# 'm' or 'm/n' in ASCII digits, with a nonzero denominator.
_RATIONAL = re.compile(r"\s*([0-9]+)(?:/(0*[1-9][0-9]*))?\s*")


def read_rational(
    q: Fraction | int | str, what: str, at_most_one: bool = False
) -> Fraction:
    """q as a positive Fraction, at most 1 when ``at_most_one``.

    The one reader of relative ranks and scale factors.  It takes an int, a
    Fraction, or ASCII text 'm' or 'm/n' with at most MAX_NUMBER_DIGITS
    digits in each number, so exponent notation and overlong literals
    cannot start unbounded work.  Floats, bools and other types raise
    TypeError; other text and values out of range raise
    InvalidArgumentError.
    """
    if isinstance(q, str):
        match = _RATIONAL.fullmatch(q)
        if match is None or any(len(g) > MAX_NUMBER_DIGITS for g in match.groups("")):
            raise InvalidArgumentError(
                f"{what} must be 'm' or 'm/n' with at most {MAX_NUMBER_DIGITS} "
                f"digits each, got {q!r}"
            )
        value = Fraction(int(match[1]), int(match[2] or 1))
    elif isinstance(q, (int, Fraction)) and not isinstance(q, bool):
        value = Fraction(q)
    else:
        raise TypeError(f"{what} must be exact (int, Fraction or 'm/n' text), got {q!r}")
    if at_most_one and not 0 < value <= 1:
        raise InvalidArgumentError(f"{what} must lie in (0, 1], got {_shown(value)}")
    if value <= 0:
        raise InvalidArgumentError(f"{what} must be positive, got {_shown(value)}")
    return value


def format_steinitz(s: SupernaturalNumber) -> str:
    """Canonical expression text; parse_steinitz(format_steinitz(s)) == s."""
    return str(s)

#: Largest bit-length bound accepted for the numerator or the denominator of
#: a connecting ratio, and for the integer is_natural returns.  2**14000 has
#: 4215 decimal digits, so every accepted value prints under CPython's
#: default 4300-digit int-to-str limit.
MAX_RATIO_BITS = 14_000


def from_natural(n: int) -> SupernaturalNumber:
    """Embed a positive integer via its prime factorization."""
    _check_positive_int(n, "n")
    return SupernaturalNumber(0, factorize(n))


def exponent_at(s: SupernaturalNumber, p: int) -> Exponent:
    """Exponent of the prime p in s (the default if p is not an exception)."""
    if isinstance(p, bool) or not isinstance(p, int) or not is_prime(p):
        raise NotPrimeError(f"{p!r} is not prime")
    # The keys ascend, and (p,) sorts before (p, e), so no exponent is compared.
    ex = s.exceptions
    i = bisect_left(ex, (p,))
    return ex[i][1] if i < len(ex) and ex[i][0] == p else s.default_exp


def _aligned(
    s: SupernaturalNumber, t: SupernaturalNumber
) -> Iterator[tuple[int, Exponent, Exponent]]:
    """(p, exponent in s, exponent in t) for every prime listed in s or t, ascending."""
    a, b = dict(s.exceptions), dict(t.exceptions)
    for p in sorted(a.keys() | b.keys()):
        yield p, a.get(p, s.default_exp), b.get(p, t.default_exp)


def _pointwise(
    op: Callable[[Exponent, Exponent], Exponent],
    s: SupernaturalNumber,
    t: SupernaturalNumber,
) -> SupernaturalNumber:
    exc = {p: op(a, b) for p, a, b in _aligned(s, t)}
    return SupernaturalNumber(op(s.default_exp, t.default_exp), exc)


def mul(s: SupernaturalNumber, t: SupernaturalNumber) -> SupernaturalNumber:
    """Pointwise exponent addition, with INF absorbing."""
    return _pointwise(operator.add, s, t)


def lcm(s: SupernaturalNumber, t: SupernaturalNumber) -> SupernaturalNumber:
    """Pointwise maximum of exponents (join in the divisibility lattice)."""
    return _pointwise(max, s, t)


def gcd(s: SupernaturalNumber, t: SupernaturalNumber) -> SupernaturalNumber:
    """Pointwise minimum of exponents (meet in the divisibility lattice)."""
    return _pointwise(min, s, t)


def divides(s: SupernaturalNumber, t: SupernaturalNumber) -> bool:
    """True iff every exponent of s is <= the matching exponent of t."""
    return s.default_exp <= t.default_exp and all(a <= b for _, a, b in _aligned(s, t))


def is_locally_finite(s: SupernaturalNumber) -> bool:
    """True iff no exponent (default or exception) is infinite."""
    return not is_infinite(s.default_exp) and not any(is_infinite(e) for _, e in s.exceptions)


def is_natural(s: SupernaturalNumber) -> int | None:
    """The positive integer s denotes (built by _bounded_prod), or None if s is infinite."""
    if s.default_exp != 0 or not is_locally_finite(s):
        return None
    return _bounded_prod(s.exceptions, "the natural number may need {} bits")


def _bounded_prod(powers: Sequence[tuple[int, int]], need: str) -> int:
    """prod(p**e) over powers; RatioTooLargeError, before any power is taken, when
    its bit-length bound sum(e * bitlen(p)) exceeds MAX_RATIO_BITS (``need`` names it)."""
    bits = sum(e * p.bit_length() for p, e in powers)
    if bits > MAX_RATIO_BITS:
        raise RatioTooLargeError(f"{need.format(bits)}, above the limit of {MAX_RATIO_BITS}")
    return prod(p**e for p, e in powers)


def rationally_connected(
    s1: SupernaturalNumber, s2: SupernaturalNumber
) -> Fraction | None:
    """The reduced positive rational q with s2 = q * s1, or None.

    Two representable Steinitz numbers are connected exactly when their
    default exponents agree and every prime where they differ carries a
    finite exponent on both sides; q is then the finite product of the
    exponent differences.  The numerator and the denominator are each built
    by _bounded_prod, so RatioTooLargeError is raised before a power is taken
    when either would exceed MAX_RATIO_BITS.
    """
    if s1.default_exp != s2.default_exp:
        return None
    up: list[tuple[int, int]] = []
    down: list[tuple[int, int]] = []
    for p, a, b in _aligned(s1, s2):
        if a == b:
            continue
        if is_infinite(a) or is_infinite(b):
            return None
        if b > a:
            up.append((p, b - a))
        else:
            down.append((p, a - b))
    need = "the connecting ratio may need {} bits in one term"
    return Fraction(_bounded_prod(up, need), _bounded_prod(down, need))


def scale(s: SupernaturalNumber, q: Fraction | int | str) -> SupernaturalNumber:
    """Multiply s by a positive rational q = m/n, exponentwise.

    q is read by read_rational.  Each exponent moves by v_p(m) - v_p(n) with
    INF absorbing; an exponent that would become negative raises
    DenominatorDoesNotDivideError.  m and n are each factored once, and not
    at all when equal to 1.
    """
    q = read_rational(q, "scale factor")
    adjust: dict[int, int] = {}
    for k, sign in ((q.numerator, 1), (q.denominator, -1)):
        if k > 1:
            for p, e in factorize(k).items():
                adjust[p] = adjust.get(p, 0) + sign * e
    exc: dict[int, Exponent] = dict(s.exceptions)
    for p, delta in adjust.items():
        e = exc.get(p, s.default_exp)
        if is_infinite(e):
            exc[p] = e
            continue
        if e + delta < 0:
            raise DenominatorDoesNotDivideError(
                f"prime {p}: exponent {_shown(e)} cannot absorb {delta} (q={_shown(q)})"
            )
        exc[p] = e + delta
    return SupernaturalNumber(s.default_exp, exc)
