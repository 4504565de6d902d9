"""Shared oracles and generators.

The oracles deliberately avoid the library's own algorithms: ranks come
from plain Gaussian elimination over Fraction with pivot normalization,
reduced ratios from integer gcd, so agreement with the library is an
actual cross-check rather than the same code run twice.
"""

from __future__ import annotations

import math
import random
import re
from fractions import Fraction

from hypothesis import strategies as st

from steinitz import (
    INF,
    DenominatorDoesNotDivideError,
    FactorizationError,
    Infinity,
    MatrixStage,
    SteinitzSyntaxError,
    SupernaturalNumber,
    is_prime,
    scale,
)
from steinitz.errors import MAX_NUMBER_DIGITS

PRIME_POOL = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
#: A prime outside PRIME_POOL: its exponent is the default of every value
#: built from the pool.
OUTSIDE_PRIME = 41


def gauss_rank(rows) -> int:
    """Row-reduce a copy over Fraction and count the pivots."""
    m = [[Fraction(x) for x in row] for row in rows]
    if not m:
        return 0
    nrows, ncols = len(m), len(m[0])
    rank = 0
    for col in range(ncols):
        piv = next((i for i in range(rank, nrows) if m[i][col] != 0), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        pv = m[rank][col]
        m[rank] = [x / pv for x in m[rank]]
        for i in range(nrows):
            if i != rank and m[i][col] != 0:
                f = m[i][col]
                m[i] = [x - f * y for x, y in zip(m[i], m[rank])]
        rank += 1
        if rank == nrows:
            break
    return rank


def gauss_inverse(rows):
    """Gauss-Jordan inverse over Fraction with pivot normalization; None if singular."""
    n = len(rows)
    m = [
        [Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)]
        for i, row in enumerate(rows)
    ]
    for col in range(n):
        piv = next((i for i in range(col, n) if m[i][col] != 0), None)
        if piv is None:
            return None
        m[col], m[piv] = m[piv], m[col]
        pv = m[col][col]
        m[col] = [x / pv for x in m[col]]
        for i in range(n):
            if i != col and m[i][col] != 0:
                f = m[i][col]
                m[i] = [x - f * y for x, y in zip(m[i], m[col])]
    return [row[n:] for row in m]


def plain_product(a, b):
    """Textbook triple-loop product of row lists of ints and Fractions, m x k by k x n."""
    return [
        [sum(a[i][k] * b[k][j] for k in range(len(b))) for j in range(len(b[0]))]
        for i in range(len(a))
    ]


def plain_kron(a, b):
    """Textbook Kronecker product of square row lists, one four-index loop.

    Entry (i1 m + i2, j1 m + j2) is a[i1][j1] * b[i2][j2], or int 0 where a[i1][j1]
    is zero, which is the library's entry-type rule for a zero factor.
    """
    n, m = len(a), len(b)
    return [
        [
            a[i1][j1] * b[i2][j2] if a[i1][j1] else 0
            for j1 in range(n)
            for j2 in range(m)
        ]
        for i1 in range(n)
        for i2 in range(m)
    ]


def matrix_rank_oracle(a: MatrixStage) -> int:
    return gauss_rank(a.entries)


def pointwise_exponents(s: SupernaturalNumber) -> dict:
    """Exponent of s at each prime of PRIME_POOL and at OUTSIDE_PRIME.

    Read straight off the fields, with INF as math.inf, so that sums,
    maxima, minima and comparisons on the result are plain Python's and
    not the library's.
    """
    listed = dict(s.exceptions)
    out = {}
    for p in PRIME_POOL + (OUTSIDE_PRIME,):
        e = listed.get(p, s.default_exp)
        out[p] = math.inf if isinstance(e, Infinity) else e
    return out


def random_supernatural(
    rng: random.Random,
    max_primes: int = 4,
    max_exp: int = 6,
    allow_default: bool = True,
) -> SupernaturalNumber:
    primes = rng.sample(PRIME_POOL, rng.randint(0, max_primes))
    default = rng.choice((0, 0, 0, 1, 2, INF)) if allow_default else 0
    exc = {}
    for p in primes:
        pick = rng.randrange(4)
        exc[p] = INF if pick == 3 else rng.randint(0, max_exp)
    return SupernaturalNumber(default, exc)


def random_matrix(rng: random.Random, n: int, denominators=(1, 1, 1, 2, 3)) -> MatrixStage:
    return MatrixStage(
        tuple(
            tuple(Fraction(rng.randint(-4, 4), rng.choice(denominators)) for _ in range(n))
            for _ in range(n)
        )
    )


def random_low_rank_matrix(rng: random.Random, n: int, r: int) -> MatrixStage:
    """Product of n x r and r x n integer matrices, so rank is at most r."""
    u = [[rng.randint(-3, 3) for _ in range(r)] for _ in range(n)]
    v = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(r)]
    return MatrixStage(
        tuple(
            tuple(Fraction(sum(u[i][k] * v[k][j] for k in range(r))) for j in range(n))
            for i in range(n)
        )
    )


exponents = st.one_of(st.integers(min_value=0, max_value=8), st.just(INF))

supernaturals = st.builds(
    lambda default, items: SupernaturalNumber(default, dict(items)),
    exponents,
    st.lists(
        st.tuples(st.sampled_from(PRIME_POOL), exponents),
        max_size=4,
        unique_by=lambda kv: kv[0],
    ),
)


def _primes_below(limit: int) -> list[int]:
    """Sieve of Eratosthenes."""
    composite = bytearray(limit)
    for p in range(2, math.isqrt(limit) + 1):
        if not composite[p]:
            composite[p * p :: p] = b"\x01" * len(range(p * p, limit, p))
    return [p for p in range(2, limit) if not composite[p]]


#: The primes below 2**16, which the sweep oracle divides out first.
_SWEEP_SMALL_PRIMES = _primes_below(1 << 16)


def sweep_factorize(n: int, bound: int) -> dict[int, int]:
    """The trial-division factorize that rho replaced, kept as the reference.

    Sieve primes below 2**16, then every odd d from 2**16 + 1 up to the
    bound; a cofactor left over is kept if is_prime proves it, and otherwise
    raises FactorizationError (InvalidArgumentError from is_prime at or
    above psi_12).
    """
    remaining = n
    factors: dict[int, int] = {}
    for p in _SWEEP_SMALL_PRIMES:
        if p > bound or p * p > remaining:
            break
        while remaining % p == 0:
            remaining //= p
            factors[p] = factors.get(p, 0) + 1
    if remaining > 1 and remaining >= 1 << 32:
        d = (1 << 16) + 1
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


def strong_probable_prime(n: int, base: int) -> bool:
    """Whether an odd n > 2 coprime to the base is a strong probable prime to it.

    With n - 1 = d * 2**s and d odd: base**d = 1 mod n, or base**(d * 2**r)
    = -1 mod n for some r < s.  Each power is its own pow, not a chain of
    squarings as in the library.
    """
    s = ((n - 1) & (1 - n)).bit_length() - 1
    d = (n - 1) >> s
    return pow(base, d, n) == 1 or any(pow(base, d << r, n) == n - 1 for r in range(s))


def twelve_witness_is_prime(n: int) -> bool:
    """Miller-Rabin with all twelve bases 2..37, exact below psi_12.

    The reference for is_prime, which runs only a prefix of these bases.
    """
    if n < 2:
        return False
    for p in PRIME_POOL:
        if n % p == 0:
            return n == p
    return all(strong_probable_prime(n, a) for a in PRIME_POOL)


def join_format(s: SupernaturalNumber) -> str:
    """Canonical expression text, one string per term joined by '*'."""

    def shown(e):
        return "inf" if isinstance(e, Infinity) else str(e)

    terms = [str(p) if e == 1 else f"{p}^{shown(e)}" for p, e in s.exceptions]
    if s.default_exp != 0:
        terms.append(f"rest^{shown(s.default_exp)}")
    return "*".join(terms) or "1"


def pairwise_enumerate(s: SupernaturalNumber, bound: int) -> list[SupernaturalNumber]:
    """The O(bound**2) Morita-class walk that the constructive one replaced.

    Tries scale(s, m/n) for every reduced m/n with m, n <= bound in (n, m)
    order and keeps each value the first time it appears.
    """
    out: list[SupernaturalNumber] = []
    seen: set[SupernaturalNumber] = set()
    for n in range(1, bound + 1):
        for m in range(1, bound + 1):
            if math.gcd(m, n) != 1:
                continue
            try:
                value = scale(s, Fraction(m, n))
            except DenominatorDoesNotDivideError:
                continue
            if value not in seen:
                seen.add(value)
                out.append(value)
    return out


# One token per match: a number, a word, '*' or '^' in group 1, or any other
# non-space character in group 2.
_SCAN_TOKEN = re.compile(r"\s*(?:([0-9]+|[A-Za-z]+|[*^])|(\S))")


def first_scan_error(text: str) -> SteinitzSyntaxError | None:
    """The scan error parse_steinitz must report for text, found token by token.

    The first token that is a bad character or a number longer than
    MAX_NUMBER_DIGITS digits, as the error for it, or None when no token is.
    """
    for m in _SCAN_TOKEN.finditer(text):
        if m[1] is None:
            return SteinitzSyntaxError(f"unexpected character {m[2]!r}", m.start(2))
        if len(m[1]) > MAX_NUMBER_DIGITS and m[1].isdigit():
            return SteinitzSyntaxError(f"number longer than {MAX_NUMBER_DIGITS} digits", m.start(1))
    return None
