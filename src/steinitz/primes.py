"""Primality testing and bounded trial-division factoring.

Factoring is deliberately primitive: trial division against a cached prime
table, extended past the table by a plain odd-number sweep up to a
configurable bound.  That is all a desk-scale calculus needs, and it keeps
the package free of factoring dependencies.  A cofactor that survives the
sweep is accepted if it is provably prime (deterministic Miller-Rabin,
exact far beyond 2**63); otherwise :class:`FactorizationError` is raised
instead of silently grinding on.
"""

from __future__ import annotations

from .errors import FactorizationError, _check_positive_int

#: Largest trial divisor attempted when the caller does not override it.
DEFAULT_TRIAL_BOUND = 1 << 20

_SIEVE_LIMIT = 1 << 16

# Witnesses making Miller-Rabin deterministic for n < 3.3 * 10**24.
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)

_small_primes_cache: list[int] | None = None
_default_trial_bound = DEFAULT_TRIAL_BOUND


def set_default_trial_bound(bound: int) -> None:
    """Set the process-wide trial-division cap (used when calls pass None)."""
    if bound < 2:
        raise ValueError(f"trial bound must be at least 2, got {bound}")
    global _default_trial_bound
    _default_trial_bound = bound


def get_default_trial_bound() -> int:
    return _default_trial_bound


def _small_primes() -> list[int]:
    global _small_primes_cache
    if _small_primes_cache is None:
        sieve = bytearray([1]) * _SIEVE_LIMIT
        sieve[0] = sieve[1] = 0
        for p in range(2, int(_SIEVE_LIMIT**0.5) + 1):
            if sieve[p]:
                sieve[p * p :: p] = bytearray(len(sieve[p * p :: p]))
        _small_primes_cache = [p for p in range(_SIEVE_LIMIT) if sieve[p]]
    return _small_primes_cache


def is_prime(n: int) -> bool:
    """Deterministic primality test (Miller-Rabin with fixed witnesses)."""
    if n < 2:
        return False
    for p in _MR_WITNESSES:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_WITNESSES:
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
    """Prime factorization of a positive integer by trial division.

    Returns a prime -> multiplicity mapping in ascending prime order.
    Raises FactorizationError when a composite cofactor remains whose least
    prime factor exceeds ``trial_bound``.
    """
    _check_positive_int(n, "the number to factor")
    bound = _default_trial_bound if trial_bound is None else trial_bound
    if bound < 2:
        raise ValueError(f"trial bound must be at least 2, got {bound}")

    remaining = n
    factors: dict[int, int] = {}
    for p in _small_primes():
        if p > bound or p * p > remaining:
            break
        while remaining % p == 0:
            remaining //= p
            factors[p] = factors.get(p, 0) + 1
    if remaining > 1 and remaining >= _SIEVE_LIMIT * _SIEVE_LIMIT:
        d = _SIEVE_LIMIT + 1
        while d * d <= remaining and d <= bound:
            while remaining % d == 0:
                remaining //= d
                factors[d] = factors.get(d, 0) + 1
            d += 2
    if remaining > 1:
        if is_prime(remaining):
            factors[remaining] = factors.get(remaining, 0) + 1
        else:
            raise FactorizationError(
                f"{n} has a composite cofactor {remaining} with no prime "
                f"factor <= {bound}"
            )
    return factors
