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
from math import gcd, prod
from typing import Iterator

from .errors import (
    DenominatorDoesNotDivideError,
    InvalidArgumentError,
    NotADivisorError,
    _check_positive_int,
    _shown,
)
from .primes import factorize
from .supernatural import (
    SupernaturalNumber,
    _connecting_gaps,
    _connecting_ratio,
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
    """Countable-dimensional criterion: rationally connected invariants (no ratio is built)."""
    return _connecting_gaps(a.steinitz, b.steinitz) is not None


def matrix_over(a: AlgebraDescriptor, k: int) -> AlgebraDescriptor:
    """Descriptor of the k x k matrix algebra over a."""
    _check_positive_int(k, "matrix order")
    return AlgebraDescriptor(scale(a.steinitz, k))


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
    the two are not Morita equivalent at all.  Exponent gaps that all point
    one way decide the order; only gaps both ways build the ratio, which
    raises RatioTooLargeError past MAX_RATIO_BITS.
    """
    gaps = _connecting_gaps(b.steinitz, a.steinitz)
    if gaps is None:
        return CornerComparison.INCOMPARABLE
    up, down = gaps
    if not (up or down):
        return CornerComparison.EQUAL
    greater = _connecting_ratio(up, down) > 1 if up and down else bool(up)
    return CornerComparison.GREATER if greater else CornerComparison.LESS


def decompose_matrix_factor(a: AlgebraDescriptor, n: int) -> AlgebraDescriptor:
    """Split off an M_n factor: the descriptor C with A = M_n(C).

    Requires n to divide st(A), which is exactly when st(A) / n has no
    negative exponent; round-trips with matrix_over.
    """
    _check_positive_int(n, "matrix order")
    try:
        return AlgebraDescriptor(scale(a.steinitz, Fraction(1, n)))
    except DenominatorDoesNotDivideError:
        raise NotADivisorError(f"{_shown(n)} does not divide {a.steinitz}") from None


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
    finite exponent in st(A) allows.  Two such q give the same member exactly
    when they agree at every prime whose exponent in st(A) is finite, so the
    key of m/n is the pair of finite parts: the product of the prime powers
    p**v of m (and of n) at the primes whose exponent in st(A) is finite.
    Each k up to the bound is factored once, and scale is called only for a
    new member.
    """
    _check_positive_int(bound, "bound")
    if bound > MAX_ENUMERATE_BOUND:
        raise InvalidArgumentError(
            f"bound must be at most {MAX_ENUMERATE_BOUND}, got {_shown(bound)}"
        )
    s = a.steinitz
    listed = dict(s.exceptions)
    factors = [()] + [factorize(k).items() for k in range(1, bound + 1)]
    finite_part = [
        prod(p**v for p, v in f if not is_infinite(listed.get(p, s.default_exp)))
        for f in factors
    ]
    seen: set[tuple[int, int]] = set()
    for n in range(1, bound + 1):
        if any(v > listed.get(p, s.default_exp) for p, v in factors[n]):
            continue
        n_part = finite_part[n]
        for m in range(1, bound + 1):
            key = (finite_part[m], n_part)
            if key not in seen and gcd(m, n) == 1:
                seen.add(key)
                yield scale(s, Fraction(m, n))
