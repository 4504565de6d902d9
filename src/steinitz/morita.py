"""Algebra descriptors and the decision procedures built on them.

A countable-dimensional unital locally matrix algebra is determined up to
isomorphism by its Steinitz number (Glimm), so a descriptor is just that
invariant.  Isomorphism is equality of the invariants; Morita equivalence
is rational connectedness; corners, matrix amplifications and tensor
products act on the invariant by exact scaling and multiplication.

Only the countable-dimensional case is modeled: in uncountable dimension
the invariant is known to be incomplete, so no computation is offered
there.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from math import gcd
from typing import Iterator

from .errors import (
    DenominatorDoesNotDivideError,
    InvalidArgumentError,
    NotADivisorError,
    _check_positive_int,
)
from .primes import factorize
from .supernatural import (
    SupernaturalNumber,
    from_natural,
    is_infinite,
    mul,
    rationally_connected,
    read_rational,
    scale,
)

#: Largest bound enumerate_morita_class accepts.  The walk visits bound**2
#: fractions and the class can have as many members, so an unchecked bound
#: from a short argv could start unbounded work; 500 is far above what the
#: classify-small benchmark asks for (120).
MAX_ENUMERATE_BOUND = 500


@dataclass(frozen=True)
class AlgebraDescriptor:
    """The classification datum of a countable-dimensional algebra."""

    steinitz: SupernaturalNumber


@dataclass(frozen=True)
class MoritaWitness:
    """Matrix amplification orders k, l with k * st(A) = l * st(B).

    The pair returned is the reduced one; any common multiple of (k, l)
    also witnesses the equivalence.
    """

    k: int
    l: int
    ratio: Fraction


class CornerComparison(Enum):
    """Order of two descriptors inside one Morita equivalence class."""

    LESS = "LESS"
    EQUAL = "EQUAL"
    GREATER = "GREATER"
    INCOMPARABLE = "INCOMPARABLE"


def are_isomorphic(a: AlgebraDescriptor, b: AlgebraDescriptor) -> bool:
    """Glimm's criterion: equal Steinitz numbers."""
    return a.steinitz == b.steinitz


def morita_ratio(a: AlgebraDescriptor, b: AlgebraDescriptor) -> Fraction | None:
    """st(B) / st(A) as a reduced fraction, or None if not connected."""
    return rationally_connected(a.steinitz, b.steinitz)


def are_morita_equivalent(a: AlgebraDescriptor, b: AlgebraDescriptor) -> bool:
    """Countable-dimensional criterion: rationally connected invariants."""
    return morita_ratio(a, b) is not None


def matrix_over(a: AlgebraDescriptor, k: int) -> AlgebraDescriptor:
    """Descriptor of the k x k matrix algebra over a."""
    _check_positive_int(k, "matrix order")
    return AlgebraDescriptor(mul(from_natural(k), a.steinitz))


def tensor(a: AlgebraDescriptor, b: AlgebraDescriptor) -> AlgebraDescriptor:
    """Descriptor of the tensor product: invariants multiply."""
    return AlgebraDescriptor(mul(a.steinitz, b.steinitz))


def corner(a: AlgebraDescriptor, r: Fraction | int | str) -> AlgebraDescriptor:
    """Descriptor of the corner cut by an idempotent of relative rank r.

    Requires 0 < r <= 1, read by read_rational; raises
    DenominatorDoesNotDivideError when r is not realizable against st(A).
    """
    r = read_rational(r, "relative rank", at_most_one=True)
    return AlgebraDescriptor(scale(a.steinitz, r))


def morita_witness(a: AlgebraDescriptor, b: AlgebraDescriptor) -> MoritaWitness | None:
    """Reduced (k, l) with k * st(A) = l * st(B), or None if not equivalent."""
    q = morita_ratio(a, b)
    if q is None:
        return None
    return MoritaWitness(k=q.numerator, l=q.denominator, ratio=q)


def proper_corner_compare(
    a: AlgebraDescriptor, b: AlgebraDescriptor
) -> CornerComparison:
    """Compare st(A)/st(B) against 1 inside the Morita class.

    LESS means A is isomorphic to a proper corner of B; INCOMPARABLE means
    the two are not Morita equivalent at all.
    """
    q = rationally_connected(b.steinitz, a.steinitz)
    if q is None:
        return CornerComparison.INCOMPARABLE
    if q < 1:
        return CornerComparison.LESS
    if q == 1:
        return CornerComparison.EQUAL
    return CornerComparison.GREATER


def decompose_matrix_factor(a: AlgebraDescriptor, n: int) -> AlgebraDescriptor:
    """Split off an M_n factor: the descriptor C with A = M_n(C).

    Requires n to divide st(A), which is exactly when st(A) / n has no
    negative exponent; round-trips with matrix_over.
    """
    _check_positive_int(n, "matrix order")
    try:
        return AlgebraDescriptor(scale(a.steinitz, Fraction(1, n)))
    except DenominatorDoesNotDivideError:
        raise NotADivisorError(f"{n} does not divide {a.steinitz}") from None


def enumerate_morita_class(
    a: AlgebraDescriptor, bound: int
) -> list[SupernaturalNumber]:
    """Distinct invariants q * st(A) over reduced q = m/n with m, n <= bound.

    Output order follows the generating fractions sorted by (n, m); values
    already produced by a smaller fraction are skipped, so the list is
    duplicate-free and deterministic.  The bound may be at most
    MAX_ENUMERATE_BOUND.
    """
    return list(_morita_class(a, bound))


def _morita_class(a: AlgebraDescriptor, bound: int) -> Iterator[SupernaturalNumber]:
    """The members of enumerate_morita_class, one at a time.

    q * st(A) exists exactly when no prime divides n more often than its
    finite exponent in st(A) allows, and two such q give the same member
    exactly when they agree after the primes of infinite exponent are
    stripped out.  So each n is factored once, each m and n is reduced to
    its stripped part once, and scale is called only for a new member.
    """
    _check_positive_int(bound, "bound")
    if bound > MAX_ENUMERATE_BOUND:
        raise InvalidArgumentError(
            f"bound must be at most {MAX_ENUMERATE_BOUND}, got {bound}"
        )
    s = a.steinitz
    listed = dict(s.exceptions)
    if is_infinite(s.default_exp):
        keep = [p for p, e in listed.items() if not is_infinite(e) and p <= bound]
        stripped = [0] + [_part_over(k, keep) for k in range(1, bound + 1)]
    else:
        drop = [p for p, e in listed.items() if is_infinite(e) and p <= bound]
        stripped = [0] + [k // _part_over(k, drop) for k in range(1, bound + 1)]
    seen: set[tuple[int, int]] = set()
    for n in range(1, bound + 1):
        if any(v > listed.get(p, s.default_exp) for p, v in factorize(n).items()):
            continue
        n_part = stripped[n]
        for m in range(1, bound + 1):
            key = (stripped[m], n_part)
            if key not in seen and gcd(m, n) == 1:
                seen.add(key)
                yield scale(s, Fraction(m, n))


def _part_over(k: int, primes: list[int]) -> int:
    """The largest divisor of the positive k made of the given primes."""
    part = 1
    for p in primes:
        while k % p == 0:
            k //= p
            part *= p
    return part
