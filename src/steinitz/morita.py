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
from math import gcd as _int_gcd

from .errors import (
    DenominatorDoesNotDivideError,
    InvalidArgumentError,
    NotADivisorError,
    _check_positive_int,
)
from .supernatural import (
    SupernaturalNumber,
    divides,
    from_natural,
    mul,
    rationally_connected,
    scale,
)


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

    Requires 0 < r <= 1; raises DenominatorDoesNotDivideError when r is not
    realizable against st(A).
    """
    if isinstance(r, float):
        raise TypeError("relative rank must be exact (int, Fraction or 'm/n' text)")
    r = Fraction(r)
    if not 0 < r <= 1:
        raise InvalidArgumentError(f"relative rank must lie in (0, 1], got {r}")
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

    Requires n to divide st(A); round-trips with matrix_over.
    """
    _check_positive_int(n, "matrix order")
    if not divides(from_natural(n), a.steinitz):
        raise NotADivisorError(f"{n} does not divide {a.steinitz}")
    return AlgebraDescriptor(scale(a.steinitz, Fraction(1, n)))


def enumerate_morita_class(
    a: AlgebraDescriptor, bound: int
) -> list[SupernaturalNumber]:
    """Distinct invariants q * st(A) over reduced q = m/n with m, n <= bound.

    Output order follows the generating fractions sorted by (n, m); values
    already produced by a smaller fraction are skipped, so the list is
    duplicate-free and deterministic.
    """
    _check_positive_int(bound, "bound")
    out: list[SupernaturalNumber] = []
    seen: set[SupernaturalNumber] = set()
    for n in range(1, bound + 1):
        for m in range(1, bound + 1):
            if _int_gcd(m, n) != 1:
                continue
            try:
                value = scale(a.steinitz, Fraction(m, n))
            except DenominatorDoesNotDivideError:
                continue
            if value not in seen:
                seen.add(value)
                out.append(value)
    return out
