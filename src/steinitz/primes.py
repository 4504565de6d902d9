"""Primality testing and factoring within a trial bound.

:func:`factorize` divides out the cached sieve primes below 2**16 first.
A cofactor of at least 2**32 that is left when the trial bound exceeds
2**16 is split by perfect-power roots and Brent's rho (Pollard 1975, Brent
1980), with a step budget of ``_RHO_STEPS_PER_ROOT * isqrt(bound)``; when the
budget runs out, or the cofactor has more than 256 bits, a plain sweep of
the odd numbers up to the bound takes over.  The bound keeps one meaning:
factors above it are never searched for, so the part of n made of primes
above the bound is kept only when it is provably prime, and otherwise
:class:`FactorizationError` is raised instead of grinding on.

:func:`is_prime` is deterministic Miller-Rabin with the first k prime
witnesses, for the least k with n < psi_k, where psi_k is the least strong
pseudoprime to the first k prime bases: one witness below psi_1 = 2047, and
all twelve, 2..37, from psi_11 on.  The psi_k are from
Pomerance, Selfridge and Wagstaff (Math. Comp. 35, 1980) and Jaeschke
(Math. Comp. 61, 1993) for psi_1..psi_8, Jiang and Deng (Math. Comp. 83,
2014) for psi_9..psi_11, Sorenson and Webster (Math. Comp. 86, 2017) for
psi_12 = 318665857834031151167461, about 3.2 * 10**23; see also OEIS A014233.
At or above psi_12 :func:`is_prime` cannot prove anything and raises
:class:`InvalidArgumentError` rather than risk calling a composite prime.
"""

from __future__ import annotations

from bisect import bisect_right
from functools import cache
from math import gcd, isqrt

from .errors import (
    FactorizationError,
    InvalidArgumentError,
    _check_int,
    _check_positive_int,
    _shown,
)

#: Largest trial divisor attempted when the caller does not override it.
DEFAULT_TRIAL_BOUND = 1 << 20
#: Largest trial bound accepted.  The bound sets how long rho and the sweep
#: may grind on a cofactor they cannot split: on the prime 2**89 - 1 that is
#: about 0.35 s at this bound (0.09 s at the default, 1.4 s at 2**24).
MAX_TRIAL_BOUND = 1 << 22

_SIEVE_LIMIT = 1 << 16

# The first k primes as witnesses make Miller-Rabin exact for n < psi_k =
# _MR_PSI[k - 1], the least strong pseudoprime to all k of them (sources in
# the module docstring).  is_prime runs the first bisect_right(_MR_PSI, n)
# + 1 of them, the least k with n < psi_k.  psi_12 = 399165290221 *
# 798330580441 passes all twelve, so nothing at or above it is decided.
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_MR_PSI = (
    2047,
    1_373_653,
    25_326_001,
    3_215_031_751,
    2_152_302_898_747,
    3_474_749_660_383,
    341_550_071_728_321,
    341_550_071_728_321,
    3_825_123_056_546_413_051,
    3_825_123_056_546_413_051,
    3_825_123_056_546_413_051,
    318_665_857_834_031_151_167_461,
)
_MR_EXACT_BELOW = _MR_PSI[-1]

#: Brent's rho gets _RHO_STEPS_PER_ROOT * isqrt(bound) steps of y -> y*y + c
#: per factorization.  Rho finds a prime p in about sqrt(p) steps, so every
#: factor up to the bound is in reach with room to spare.  Past the budget the
#: sweep takes over, so an input that rho cannot split costs the sweep plus
#: this budget (8192 steps at the default bound).
_RHO_STEPS_PER_ROOT = 8
#: Differences multiplied together per gcd in the rho loop.
_RHO_BATCH = 128
#: Rho is tried only on cofactors below 2**_RHO_MAX_BITS.  A rho step
#: multiplies numbers of the cofactor's size, a sweep step divides it by a
#: small int, so the budget costs about a seventh of a full sweep at 256
#: bits but four sweeps at 13000.  A larger cofactor that factors within the
#: bound holds at least nine primes up to the bound, which the budget
#: rarely covers anyway.
_RHO_MAX_BITS = 256

_default_trial_bound = DEFAULT_TRIAL_BOUND


def _check_trial_bound(bound) -> None:
    """Raise InvalidArgumentError unless bound is an int from 2 to MAX_TRIAL_BOUND."""
    _check_int(bound, "trial bound")
    if bound < 2:
        raise InvalidArgumentError(f"trial bound must be at least 2, got {_shown(bound)}")
    if bound > MAX_TRIAL_BOUND:
        raise InvalidArgumentError(
            f"trial bound must be at most {MAX_TRIAL_BOUND}, got a {bound.bit_length()}-bit number"
        )


def set_default_trial_bound(bound: int) -> None:
    """Set the process-wide trial-division cap (used when calls pass None)."""
    _check_trial_bound(bound)
    global _default_trial_bound
    _default_trial_bound = bound


def get_default_trial_bound() -> int:
    return _default_trial_bound


@cache
def _small_primes() -> list[int]:
    """The primes below _SIEVE_LIMIT, sieved on the first call (not on import)."""
    sieve = bytearray([1]) * _SIEVE_LIMIT
    sieve[0] = sieve[1] = 0
    for p in range(2, isqrt(_SIEVE_LIMIT) + 1):
        if sieve[p]:
            sieve[p * p :: p] = bytearray(len(sieve[p * p :: p]))
    return [p for p in range(_SIEVE_LIMIT) if sieve[p]]


def is_prime(n: int) -> bool:
    """Deterministic primality test: Miller-Rabin with the first k prime witnesses.

    k is the least with n < psi_k in the _MR_PSI table: one witness below
    2047, two below 1373653, and all twelve, 2..37, from psi_11 on.  Raises
    InvalidArgumentError for n >= 318665857834031151167461 = psi_12, where
    the twelve witnesses no longer decide primality, and its subclass
    ArgumentTypeError for an n that is not an int (or is a bool).
    """
    _check_int(n, "is_prime's argument")
    if n < 2:
        return False
    if n >= _MR_EXACT_BELOW:
        raise InvalidArgumentError(
            f"primality is decided only below {_MR_EXACT_BELOW}, "
            f"got a {n.bit_length()}-bit number"
        )
    for p in _MR_WITNESSES:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_WITNESSES[: bisect_right(_MR_PSI, n) + 1]:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def factorize(n: int, trial_bound: int | None = None) -> dict[int, int]:
    """Prime factorization of a positive integer, searching factors up to a bound.

    Returns a prime -> multiplicity mapping in ascending prime order.  Let R
    be the part of n made of primes above ``trial_bound``: R is returned as
    one prime when it is provably prime, FactorizationError is raised when
    it is composite, and InvalidArgumentError when R >= psi_12, where
    primality cannot be decided.
    """
    _check_positive_int(n, "the number to factor")
    bound = _default_trial_bound if trial_bound is None else trial_bound
    if trial_bound is not None:  # the default was checked when it was set
        _check_trial_bound(bound)

    remaining = n
    factors: dict[int, int] = {}
    for p in _small_primes():
        if p > bound or p * p > remaining:
            break
        while remaining % p == 0:
            remaining //= p
            factors[p] = factors.get(p, 0) + 1
    if remaining >= _SIEVE_LIMIT * _SIEVE_LIMIT and bound > _SIEVE_LIMIT:
        # Every prime factor left exceeds 2**16, so any piece of it below
        # 2**32 is prime.
        found = _split(remaining, _RHO_STEPS_PER_ROOT * isqrt(bound))
        if found is None:
            remaining = _sweep(remaining, bound, factors)
        else:
            remaining = 1
            for p in sorted(found):
                if p <= bound:
                    factors[p] = found[p]
                else:
                    remaining *= p ** found[p]
    if remaining > 1:
        if is_prime(remaining):
            factors[remaining] = factors.get(remaining, 0) + 1
        else:
            raise FactorizationError(
                f"{n} has a composite cofactor {remaining} with no prime "
                f"factor <= {bound}"
            )
    return factors


def _sweep(remaining: int, bound: int, factors: dict[int, int]) -> int:
    """Divide out every odd d from 2**16 + 1 up to the bound; return the rest."""
    d = _SIEVE_LIMIT + 1
    while d * d <= remaining and d <= bound:
        while remaining % d == 0:
            remaining //= d
            factors[d] = factors.get(d, 0) + 1
        d += 2
    return remaining


def _split(m: int, steps: int) -> dict[int, int] | None:
    """Every prime factor of m, whose prime factors all exceed 2**16.

    Each prime is proven by is_prime, below psi_12.  A piece that is not
    proven prime is tried as a perfect power, then split by Brent's rho.
    None when m has more than _RHO_MAX_BITS bits, or when the rho steps run
    out first (always so for a prime piece at or above psi_12).
    """
    if m.bit_length() > _RHO_MAX_BITS:
        return None
    primes: dict[int, int] = {}
    pieces = [(m, 1)]
    while pieces:
        m, k = pieces.pop()
        if m < _MR_EXACT_BELOW and is_prime(m):
            primes[m] = primes.get(m, 0) + k
            continue
        root, e = _perfect_power(m)
        if e > 1:
            pieces.append((root, k * e))
            continue
        d, steps = _rho_divisor(m, steps)
        if d == 1:
            return None
        pieces += [(d, k), (m // d, k)]
    return primes


def _perfect_power(m: int) -> tuple[int, int]:
    """(r, e) with m = r**e and e prime, or (m, 1); r exceeds 2**16."""
    for e in _small_primes():
        if e > m.bit_length() // 16:
            break
        r = isqrt(m) if e == 2 else _iroot(m, e)
        if r**e == m:
            return r, e
    return m, 1


def _iroot(m: int, e: int) -> int:
    """The largest r with r**e <= m, by Newton's method from above."""
    r = 1 << -(-m.bit_length() // e)
    while True:
        s = ((e - 1) * r + m // r ** (e - 1)) // e
        if s >= r:
            return r
        r = s


def _rho_divisor(n: int, steps: int) -> tuple[int, int]:
    """Brent's rho on the odd composite n: a proper divisor and the steps left.

    The divisor is 1 when the steps run out.  Each step is one evaluation of
    y -> y*y + c mod n; when a batch of differences shares all of n, the
    batch is replayed one gcd at a time, and when that still gives n the
    next c is tried.
    """
    c = 1
    while True:
        y, q, r, g = 2, 1, 1, 1
        while g == 1:
            if 2 * r > steps:
                return 1, steps
            steps -= 2 * r
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(_RHO_BATCH, r - k)):
                    y = (y * y + c) % n
                    q = q * (x - y) % n
                g = gcd(q, n)
                k += _RHO_BATCH
            r *= 2
        if g == n:
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = gcd(x - ys, n)
        if g != n:
            return g, steps
        c += 1
