"""Exact Steinitz-number calculus for unital locally matrix algebras.

Three layers:

* :mod:`steinitz.supernatural` — arithmetic on Steinitz (supernatural)
  numbers with eventually-constant exponent patterns: product, lcm, gcd,
  divisibility, rational connectedness, exact scaling.
* :mod:`steinitz.morita` — algebra descriptors and the decision
  procedures (isomorphism, Morita equivalence, corners, matrix factors).
* :mod:`steinitz.tower` — exact rational matrix stages that ground the
  symbolic laws: ranks, idempotents, corner isomorphisms, and the seeded
  verification harness.

:mod:`steinitz.supernatural` also reads and writes the expression text
(``parse_steinitz``, ``format_steinitz``).  The CLI entry point lives in
:mod:`steinitz.cli`; importing the package does not load it, and
``steinitz.cli`` imports it on first access.
"""

from .errors import (
    ArgumentTypeError,
    DenominatorDoesNotDivideError,
    DuplicatePrimeError,
    DuplicateRestError,
    ExpressionError,
    FactorizationError,
    InvalidArgumentError,
    NotADivisorError,
    NotPrimeError,
    RatioTooLargeError,
    SpanCapExceededError,
    SteinitzError,
    SteinitzSyntaxError,
    ZeroIdempotentError,
)
from .primes import factorize, is_prime
from .supernatural import (
    INF,
    ONE,
    Exponent,
    Infinity,
    SupernaturalNumber,
    divides,
    exponent_at,
    format_steinitz,
    from_natural,
    gcd,
    is_infinite,
    is_locally_finite,
    is_natural,
    lcm,
    mul,
    parse_steinitz,
    rationally_connected,
    scale,
)
from .morita import (
    AlgebraDescriptor,
    CornerComparison,
    MoritaWitness,
    are_isomorphic,
    are_morita_equivalent,
    corner,
    decompose_matrix_factor,
    enumerate_morita_class,
    matrix_over,
    morita_ratio,
    morita_witness,
    proper_corner_compare,
    tensor,
)
from .tower import (
    FULLNESS_ORDER_CAP,
    RANK_ORDER_CAP,
    SPAN_ORDER_CAP,
    CheckLine,
    CornerIsomorphism,
    IdempotentElement,
    MatrixStage,
    Tower,
    VerificationReport,
    corner_isomorphism,
    corner_span_dimension,
    embed,
    exact_rank,
    is_full_idempotent,
    kron,
    proper_corner_witness,
    random_idempotent,
    relative_rank,
    run_verification,
    verify_corner_scaling,
)

__version__ = "0.1.0"

__all__ = [
    "AlgebraDescriptor",
    "ArgumentTypeError",
    "CheckLine",
    "CornerComparison",
    "CornerIsomorphism",
    "DenominatorDoesNotDivideError",
    "DuplicatePrimeError",
    "DuplicateRestError",
    "Exponent",
    "ExpressionError",
    "FactorizationError",
    "FULLNESS_ORDER_CAP",
    "IdempotentElement",
    "INF",
    "Infinity",
    "InvalidArgumentError",
    "MatrixStage",
    "MoritaWitness",
    "NotADivisorError",
    "NotPrimeError",
    "ONE",
    "RANK_ORDER_CAP",
    "RatioTooLargeError",
    "SPAN_ORDER_CAP",
    "SpanCapExceededError",
    "SteinitzError",
    "SteinitzSyntaxError",
    "SupernaturalNumber",
    "Tower",
    "VerificationReport",
    "ZeroIdempotentError",
    "are_isomorphic",
    "are_morita_equivalent",
    "corner",
    "corner_isomorphism",
    "corner_span_dimension",
    "decompose_matrix_factor",
    "divides",
    "embed",
    "enumerate_morita_class",
    "exact_rank",
    "exponent_at",
    "factorize",
    "format_steinitz",
    "from_natural",
    "gcd",
    "is_full_idempotent",
    "is_infinite",
    "is_locally_finite",
    "is_natural",
    "is_prime",
    "kron",
    "lcm",
    "matrix_over",
    "morita_ratio",
    "morita_witness",
    "mul",
    "parse_steinitz",
    "proper_corner_compare",
    "proper_corner_witness",
    "random_idempotent",
    "rationally_connected",
    "relative_rank",
    "run_verification",
    "scale",
    "tensor",
    "verify_corner_scaling",
]


def __getattr__(name):
    # `steinitz.cli` still resolves after a bare `import steinitz` (the
    # benchmarks reach the CLI that way); it is imported on first access.
    if name == "cli":
        from importlib import import_module

        return import_module(".cli", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
