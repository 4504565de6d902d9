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
equality coincides with semantic equality.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from fractions import Fraction
from functools import total_ordering
from math import prod
from typing import Callable, Iterator, Mapping, Union

from .errors import (
    DenominatorDoesNotDivideError,
    NotPrimeError,
    RatioTooLargeError,
    _check_positive_int,
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

    def __sub__(self, other):
        # inf - t = inf for finite t; inf - inf stays undefined.
        if isinstance(other, int):
            return self
        return NotImplemented

    def __eq__(self, other):
        return isinstance(other, Infinity)

    def __lt__(self, other):
        if isinstance(other, (int, Infinity)):
            return False
        return NotImplemented

    def __hash__(self):
        return hash(float("inf"))

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
        raise ValueError(f"{what} must be nonnegative, got {e}")


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
                raise ValueError(f"duplicate prime {p} in exceptions")
            seen[p] = e
        canonical = tuple(
            (p, e)
            for p, e in sorted(seen.items(), key=lambda kv: kv[0])
            if e != self.default_exp
        )
        object.__setattr__(self, "exceptions", canonical)

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

#: Largest bit-length bound accepted for the numerator or the denominator of
#: a connecting ratio.  2**14000 has 4215 decimal digits, so every accepted
#: ratio prints under CPython's default 4300-digit int-to-str limit.
MAX_RATIO_BITS = 14_000


def from_natural(n: int) -> SupernaturalNumber:
    """Embed a positive integer via its prime factorization."""
    _check_positive_int(n, "n")
    return SupernaturalNumber(0, factorize(n))


def exponent_at(s: SupernaturalNumber, p: int) -> Exponent:
    """Exponent of the prime p in s (the default if p is not an exception)."""
    if isinstance(p, bool) or not isinstance(p, int) or not is_prime(p):
        raise NotPrimeError(f"{p!r} is not prime")
    for q, e in s.exceptions:
        if q == p:
            return e
    return s.default_exp


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
    if is_infinite(s.default_exp):
        return False
    return not any(is_infinite(e) for _, e in s.exceptions)


def is_natural(s: SupernaturalNumber) -> int | None:
    """The positive integer s denotes, or None if s is infinite."""
    if s.default_exp != 0 or not is_locally_finite(s):
        return None
    return prod(p**e for p, e in s.exceptions)


def rationally_connected(
    s1: SupernaturalNumber, s2: SupernaturalNumber
) -> Fraction | None:
    """The reduced positive rational q with s2 = q * s1, or None.

    Two representable Steinitz numbers are connected exactly when their
    default exponents agree and every prime where they differ carries a
    finite exponent on both sides; q is then the finite product of the
    exponent differences.  Before any power is taken, the bit length of the
    numerator and of the denominator is bounded by the sum of d * bitlen(p)
    over its exponent gaps d; RatioTooLargeError is raised when either bound
    exceeds MAX_RATIO_BITS.
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
    for gaps in (up, down):
        bits = sum(d * p.bit_length() for p, d in gaps)
        if bits > MAX_RATIO_BITS:
            raise RatioTooLargeError(
                f"the connecting ratio may need {bits} bits in one term, "
                f"above the limit of {MAX_RATIO_BITS}"
            )
    return Fraction(prod(p**d for p, d in up), prod(p**d for p, d in down))


def scale(s: SupernaturalNumber, q: Fraction | int | str) -> SupernaturalNumber:
    """Multiply s by a positive rational q = m/n, exponentwise.

    Each exponent moves by v_p(m) - v_p(n) with INF absorbing; an exponent
    that would become negative raises DenominatorDoesNotDivideError.
    """
    if isinstance(q, float):
        raise TypeError("scale factor must be exact (int, Fraction or 'm/n' text)")
    q = Fraction(q)
    if q <= 0:
        raise ValueError(f"scale factor must be positive, got {q}")
    adjust: dict[int, int] = dict(factorize(q.numerator))
    for p, e in factorize(q.denominator).items():
        adjust[p] = adjust.get(p, 0) - e
    exc: dict[int, Exponent] = dict(s.exceptions)
    for p, delta in adjust.items():
        e = exc.get(p, s.default_exp)
        if is_infinite(e):
            exc[p] = e
            continue
        if e + delta < 0:
            raise DenominatorDoesNotDivideError(
                f"prime {p}: exponent {e} cannot absorb {delta} (q={q})"
            )
        exc[p] = e + delta
    return SupernaturalNumber(s.default_exp, exc)
