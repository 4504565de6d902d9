"""Exact arithmetic on Steinitz (supernatural) numbers.

A Steinitz number is a formal product over all primes p of p**e_p with
exponents in N union {infinity}.  This module restricts to the decidable
class whose exponent pattern is eventually constant: a single default
exponent applies to every prime outside a finite exception set.  That class
contains every positive integer, every p**infinity pattern, the product of
all primes, and is closed under the operations below, which makes equality,
divisibility, lcm/gcd and rational connectedness all decidable by finite
bookkeeping.  Binary operations merge the two canonical exception tuples
in one walk, in ascending prime order, with the defaults filled in.

Values are immutable and canonicalized on construction, so structural
equality coincides with semantic equality.  The public constructor proves
every key prime; the values this module computes from canonical values,
from :func:`factorize` or from bases the parser has proven are built by
``SupernaturalNumber._trusted``, which proves nothing again; ``mul`` and
``scale`` still refuse an exponent that the text could not hold.  This module
also owns the expression text: ``str`` writes it and :func:`parse_steinitz`
reads it, after searching it for scan errors, proving each base once.
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
from itertools import chain, islice
from typing import Callable, Iterable, Iterator, Mapping, Sequence, Union

from .errors import (
    MAX_NUMBER_DIGITS,
    _NUMBER_LIMIT,
    ArgumentTypeError,
    DenominatorDoesNotDivideError,
    DuplicatePrimeError,
    DuplicateRestError,
    InvalidArgumentError,
    NotPrimeError,
    RatioTooLargeError,
    SteinitzSyntaxError,
    _check_int,
    _check_positive_int,
    _is_exact,
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
    _check_int(e, what)
    if e < 0:
        raise InvalidArgumentError(f"{what} must be nonnegative, got {_shown(e)}")
    if e >= _NUMBER_LIMIT:
        raise InvalidArgumentError(f"{what} must be below 10**{MAX_NUMBER_DIGITS}, got {_shown(e)}")


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
            if not is_prime(p):
                raise NotPrimeError(f"exception key {p!r} is not prime")
            _check_exponent(e, f"exponent of {p}")
            if p in seen:
                raise InvalidArgumentError(f"duplicate prime {p} in exceptions")
            seen[p] = e
        canonical = [(p, e) for p, e in sorted(seen.items()) if e != self.default_exp]
        object.__setattr__(self, "exceptions", tuple(canonical))

    @classmethod
    def _trusted(
        cls, default: Exponent, items: Iterable[tuple[int, Exponent]]
    ) -> SupernaturalNumber:
        """A value from proven (prime, exponent) pairs, without the checks.

        Only for pairs in ascending prime order, each prime listed once and
        already proven, with valid exponents: those this module computes
        from canonical values, from factorize, or from bases parse_steinitz
        has proven.  Pairs equal to the default are dropped.  Anything from
        outside goes through ``SupernaturalNumber(default, exceptions)``.
        The stored tuple is ``tuple(<list>)``.
        """
        value = object.__new__(cls)
        object.__setattr__(value, "default_exp", default)
        kept = [pe for pe in items if pe[1] != default]
        object.__setattr__(value, "exceptions", tuple(kept))
        return value

    def exponent(self, p: int) -> Exponent:
        return exponent_at(self, p)

    def __mul__(self, other):
        if isinstance(other, SupernaturalNumber):
            return mul(self, other)
        return NotImplemented

    def __str__(self):
        # Each term goes straight into one buffer, so no per-term string is
        # held until the end.
        text = bytearray()
        for p, e in self.exceptions:
            if e == 1:
                text += b"%d*" % p
            elif is_infinite(e):
                text += b"%d^inf*" % p
            else:
                text += b"%d^%d*" % (p, e)
        if is_infinite(self.default_exp):
            text += b"rest^inf*"
        elif self.default_exp != 0:
            text += b"rest^%d*" % self.default_exp
        if not text:
            return "1"
        del text[-1]
        return text.decode()


#: The empty product.
ONE = SupernaturalNumber()

# One token per match, in group 1: a number, a word, '*' or '^'.
_TOKEN = re.compile(r"\s*([0-9]+|[A-Za-z]+|[*^])")

# The two scan errors: a character that starts no token, and a number longer than
# MAX_NUMBER_DIGITS digits.  Each search takes time linear in the text.  The second
# runs on " " + text, so that every number follows the non-digit its pattern starts
# with: the engine then skips digit runs in C, where a lookbehind was tried at every
# position, and the match starts at the index of the number's first digit in text.
_BAD_CHARACTER = re.compile(r"[^\s0-9A-Za-z*^]")
_LONG_NUMBER = re.compile(rf"[^0-9][0-9]{{{MAX_NUMBER_DIGITS + 1}}}")


def parse_steinitz(text: str) -> SupernaturalNumber:
    """Parse expression text into a supernatural number.

    Grammar (whitespace ignored, ASCII only)::

        expr := term ('*' term)*
        term := PRIME ['^' exp] | 'rest' '^' exp
        exp  := NAT | 'inf'

    ``rest`` fixes the exponent of every prime not listed explicitly (at most
    one ``rest`` term; absent means 0).  The single digit ``1`` is accepted
    as the empty product.  A number longer than MAX_NUMBER_DIGITS digits is
    refused.  The text is searched for a bad character and an overlong
    number before any term is read, so such an error anywhere is reported
    before an error in a term.  Errors carry the position of the offending
    token.  Each base is proven prime once.
    """
    if not isinstance(text, str):
        raise ArgumentTypeError(f"expected expression text, got {text!r}")
    bad = _BAD_CHARACTER.search(text)
    end = len(text) if bad is None else bad.start()
    number = _LONG_NUMBER.search(" " + text, 0, end + 1)  # only the first scan error counts
    if number is not None:
        raise SteinitzSyntaxError(f"number longer than {MAX_NUMBER_DIGITS} digits", number.start())
    if bad is not None:
        raise SteinitzSyntaxError(f"unexpected character {bad[0]!r}", end)
    # (token, position) pairs as they are matched, then ("", len(text)) for the end.
    tokens = chain(((m[1], m.start(1)) for m in _TOKEN.finditer(text)), [("", len(text))])
    exceptions: dict[int, Exponent] = {}
    default: Exponent | None = None
    head, at = next(tokens)
    while True:
        if not head:
            raise SteinitzSyntaxError("unexpected end of expression", at)
        if not (head.isdigit() or head == "rest"):
            raise SteinitzSyntaxError(f"unexpected {head!r}", at)
        base = int(head) if head.isdigit() else None
        exp: Exponent = 1
        sep, where = next(tokens)
        if sep == "^":
            if base == 1:
                raise SteinitzSyntaxError("'1' does not take an exponent", where)
            word, where = next(tokens)
            if word.isdigit():
                exp = int(word)
            elif word == "inf":
                exp = INF
            else:
                got = word or "end of expression"
                raise SteinitzSyntaxError(
                    f"expected a natural number or 'inf', got {got!r}", where
                )
            sep, where = next(tokens)
        elif base is None:
            raise SteinitzSyntaxError("'rest' requires an explicit exponent", at)
        if base is None:
            if default is not None:
                raise DuplicateRestError(
                    f"'rest' appears more than once (at position {at})"
                )
            default = exp
        elif base != 1:
            # A base seen before was proven then, so it is not proven again.
            if base in exceptions:
                raise DuplicatePrimeError(
                    f"prime {base} appears more than once (at position {at})"
                )
            if not is_prime(base):
                raise NotPrimeError(f"{base} is not prime (at position {at})")
            exceptions[base] = exp
        if sep != "*":
            if sep:
                raise SteinitzSyntaxError(f"unexpected {sep!r}", where)
            break
        head, at = next(tokens)
    return SupernaturalNumber._trusted(
        0 if default is None else default, sorted(exceptions.items())
    )


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
    ArgumentTypeError (a TypeError); other text and values out of range
    raise InvalidArgumentError.
    """
    if isinstance(q, str):
        match = _RATIONAL.fullmatch(q)
        if match is None or any(len(g) > MAX_NUMBER_DIGITS for g in match.groups("")):
            raise InvalidArgumentError(
                f"{what} must be 'm' or 'm/n' with at most {MAX_NUMBER_DIGITS} "
                f"digits each, got {q!r}"
            )
        value = Fraction(int(match[1]), int(match[2] or 1))
    elif _is_exact(q):
        value = Fraction(q)
    else:
        raise ArgumentTypeError(f"{what} must be exact (int, Fraction or 'm/n' text), got {q!r}")
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
    return SupernaturalNumber._trusted(0, factorize(n).items())


def exponent_at(s: SupernaturalNumber, p: int) -> Exponent:
    """Exponent of the prime p in s (the default if p is not an exception)."""
    if not is_prime(p):
        raise NotPrimeError(f"{p!r} is not prime")
    # The keys ascend, and (p,) sorts before (p, e), so no exponent is compared.
    ex = s.exceptions
    i = bisect_left(ex, (p,))
    return ex[i][1] if i < len(ex) and ex[i][0] == p else s.default_exp


def _aligned(
    s: SupernaturalNumber, t: SupernaturalNumber
) -> Iterator[tuple[int, Exponent, Exponent]]:
    """(p, exponent in s, exponent in t) for every prime listed in s or t, ascending.

    One merge of the two canonical exception tuples, which ascend already.
    """
    a, b = s.exceptions, t.exceptions
    i = j = 0
    while i < len(a) and j < len(b):
        p, x = a[i]
        q, y = b[j]
        if p == q:
            yield p, x, y
            i += 1
            j += 1
        elif p < q:
            yield p, x, t.default_exp
            i += 1
        else:
            yield q, s.default_exp, y
            j += 1
    for p, x in islice(a, i, None):
        yield p, x, t.default_exp
    for q, y in islice(b, j, None):
        yield q, s.default_exp, y


def _pointwise(
    op: Callable[[Exponent, Exponent], Exponent],
    s: SupernaturalNumber,
    t: SupernaturalNumber,
) -> SupernaturalNumber:
    return SupernaturalNumber._trusted(
        op(s.default_exp, t.default_exp), ((p, op(a, b)) for p, a, b in _aligned(s, t))
    )


def mul(s: SupernaturalNumber, t: SupernaturalNumber) -> SupernaturalNumber:
    """Pointwise exponent addition, with INF absorbing; a finite sum of
    _NUMBER_LIMIT or more raises InvalidArgumentError."""
    product = _pointwise(operator.add, s, t)
    for p, e in [(None, product.default_exp), *product.exceptions]:
        if not isinstance(e, Infinity) and e >= _NUMBER_LIMIT:
            _check_exponent(e, "default exponent" if p is None else f"exponent of {p}")
    return product


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


def _connecting_gaps(
    s1: SupernaturalNumber, s2: SupernaturalNumber
) -> tuple[list[tuple[int, int]], list[tuple[int, int]]] | None:
    """The exponent gaps (p, b - a) where s2 is above s1 and (p, a - b) where it is
    below, or None when the two are not rationally connected.

    Two representable Steinitz numbers are connected exactly when their
    default exponents agree and every prime where they differ carries a
    finite exponent on both sides.
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
    return up, down


def _connecting_ratio(up: Sequence[tuple[int, int]], down: Sequence[tuple[int, int]]) -> Fraction:
    """The ratio the gaps of _connecting_gaps give, its terms built by _bounded_prod."""
    need = "the connecting ratio may need {} bits in one term"
    return Fraction(_bounded_prod(up, need), _bounded_prod(down, need))


def rationally_connected(
    s1: SupernaturalNumber, s2: SupernaturalNumber
) -> Fraction | None:
    """The reduced positive rational q with s2 = q * s1, or None.

    q is the finite product of the exponent gaps of _connecting_gaps.  The
    numerator and the denominator are each built by _bounded_prod, so
    RatioTooLargeError is raised before a power is taken when either would
    exceed MAX_RATIO_BITS.
    """
    gaps = _connecting_gaps(s1, s2)
    return None if gaps is None else _connecting_ratio(*gaps)


def scale(s: SupernaturalNumber, q: Fraction | int | str) -> SupernaturalNumber:
    """Multiply s by a positive rational q = m/n, exponentwise.

    q is read by read_rational.  Each exponent moves by v_p(m) - v_p(n) with
    INF absorbing; an exponent that would become negative raises
    DenominatorDoesNotDivideError, and one that would reach _NUMBER_LIMIT
    raises InvalidArgumentError.  m and n are each factored once, and not
    at all when equal to 1.
    """
    q = read_rational(q, "scale factor")
    adjust: dict[int, int] = {}
    for k, sign in ((q.numerator, 1), (q.denominator, -1)):
        if k > 1:
            for p, e in factorize(k).items():
                adjust[p] = adjust.get(p, 0) + sign * e
    # Merge the moved primes, ascending, into the canonical exceptions; the
    # untouched pairs are reused by slicing, not copied through a dict.
    ex = s.exceptions
    out: list[tuple[int, Exponent]] = []
    i = 0
    for p, delta in sorted(adjust.items()):
        j = bisect_left(ex, (p,), i)
        out += ex[i:j]
        if j < len(ex) and ex[j][0] == p:
            e, i = ex[j][1], j + 1
        else:
            e, i = s.default_exp, j
        if not is_infinite(e):
            if e + delta < 0:
                raise DenominatorDoesNotDivideError(
                    f"prime {p}: exponent {_shown(e)} cannot absorb {delta} (q={_shown(q)})"
                )
            e += delta
            if e >= _NUMBER_LIMIT:
                _check_exponent(e, f"exponent of {p}")
        out.append((p, e))
    out += ex[i:]
    return SupernaturalNumber._trusted(s.default_exp, out)
