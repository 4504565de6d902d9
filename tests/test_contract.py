"""One argument contract over the public API.

Every scalar slot of every public callable, given any of BAD_VALUES, either
returns or raises a SteinitzError: a wrong type raises ArgumentTypeError
and a value out of range InvalidArgumentError (or the domain error the
call documents), never a bare TypeError, ValueError or AttributeError.
The slots come from inspect.signature; a slot is scalar unless its
annotation names one of the duck-typed object types or a container.
"""

import inspect
from fractions import Fraction

import pytest

import steinitz
from steinitz import (
    ONE,
    AlgebraDescriptor,
    ArgumentTypeError,
    IdempotentElement,
    MatrixStage,
    SteinitzError,
    SupernaturalNumber,
    Tower,
)

BAD_VALUES = (None, 7.0, 0.5, "7", True, -3, 0, Fraction(1, 2), [], b"2", 2**4000)

#: Annotations of the slots left duck-typed: an object of one of these types
#: is used through its attributes, and a container through iteration, so a
#: wrong object fails as Python fails on it.  These slots are not in the table.
DUCK_TYPED_OBJECTS = (
    "SupernaturalNumber",
    "AlgebraDescriptor",
    "MatrixStage",
    "IdempotentElement",
    "Tower",
)
DUCK_TYPED_CONTAINERS = ("tuple[", "Sequence")

#: Public names that are not calls taking arguments.
NOT_CALLS = {
    "CornerComparison": "an Enum: calling it looks a member up by value",
    "Exponent": "a type alias (int | Infinity)",
}

_STAGE = MatrixStage.rank_projector(2, 1)
_A = AlgebraDescriptor(SupernaturalNumber(0, {2: 1, 3: 1}))

#: One valid call per public callable and MatrixStage builder.
VALID_CALLS = {
    "AlgebraDescriptor": (AlgebraDescriptor, (ONE,)),
    "CheckLine": (steinitz.CheckLine, ("idempotent", 2, "True", "True", True)),
    "CornerIsomorphism": (steinitz.CornerIsomorphism, (1, _STAGE, _STAGE)),
    "IdempotentElement": (IdempotentElement, (_STAGE,)),
    "Infinity": (steinitz.Infinity, ()),
    "MatrixStage": (MatrixStage, (((1, 0), (0, 1)),)),
    "MoritaWitness": (steinitz.MoritaWitness, (1, 2, Fraction(2))),
    "SupernaturalNumber": (SupernaturalNumber, (0, ((2, 1),))),
    "Tower": (Tower, ((2, 4),)),
    "VerificationReport": (steinitz.VerificationReport, ((),)),
    "are_isomorphic": (steinitz.are_isomorphic, (_A, _A)),
    "are_morita_equivalent": (steinitz.are_morita_equivalent, (_A, _A)),
    "corner": (steinitz.corner, (_A, Fraction(1, 2))),
    "corner_isomorphism": (steinitz.corner_isomorphism, (IdempotentElement(_STAGE),)),
    "corner_span_dimension": (steinitz.corner_span_dimension, (IdempotentElement(_STAGE),)),
    "decompose_matrix_factor": (steinitz.decompose_matrix_factor, (_A, 6)),
    "divides": (steinitz.divides, (ONE, ONE)),
    "embed": (steinitz.embed, (_STAGE, 2)),
    "enumerate_morita_class": (steinitz.enumerate_morita_class, (_A, 3)),
    "exact_rank": (steinitz.exact_rank, (_STAGE,)),
    "exponent_at": (steinitz.exponent_at, (ONE, 2)),
    "factorize": (steinitz.factorize, (12, 100)),
    "format_steinitz": (steinitz.format_steinitz, (ONE,)),
    "from_natural": (steinitz.from_natural, (12,)),
    "gcd": (steinitz.gcd, (ONE, ONE)),
    "is_full_idempotent": (steinitz.is_full_idempotent, (IdempotentElement(_STAGE),)),
    "is_infinite": (steinitz.is_infinite, (steinitz.INF,)),
    "is_locally_finite": (steinitz.is_locally_finite, (ONE,)),
    "is_natural": (steinitz.is_natural, (ONE,)),
    "is_prime": (steinitz.is_prime, (7,)),
    "kron": (steinitz.kron, (_STAGE, _STAGE)),
    "lcm": (steinitz.lcm, (ONE, ONE)),
    "matrix_over": (steinitz.matrix_over, (_A, 2)),
    "morita_ratio": (steinitz.morita_ratio, (_A, _A)),
    "morita_witness": (steinitz.morita_witness, (_A, _A)),
    "mul": (steinitz.mul, (ONE, ONE)),
    "parse_steinitz": (steinitz.parse_steinitz, ("2^inf*3",)),
    "proper_corner_compare": (steinitz.proper_corner_compare, (_A, _A)),
    "proper_corner_witness": (steinitz.proper_corner_witness, (1, 2, 2)),
    "random_idempotent": (steinitz.random_idempotent, (4, 2, 0)),
    "rationally_connected": (steinitz.rationally_connected, (ONE, ONE)),
    "relative_rank": (steinitz.relative_rank, (_STAGE,)),
    "run_verification": (steinitz.run_verification, (0, 6, 1)),
    "scale": (steinitz.scale, (ONE, 6)),
    "tensor": (steinitz.tensor, (_A, _A)),
    "verify_corner_scaling": (
        steinitz.verify_corner_scaling,
        (SupernaturalNumber(0, {2: 2}), Tower((2, 4)), Fraction(1, 2), 0),
    ),
    "MatrixStage.identity": (MatrixStage.identity, (2,)),
    "MatrixStage.zero": (MatrixStage.zero, (2,)),
    "MatrixStage.diagonal": (MatrixStage.diagonal, ((1, 0),)),
    "MatrixStage.rank_projector": (MatrixStage.rank_projector, (3, 1)),
}


def _is_duck_typed(annotation: str) -> bool:
    if annotation.startswith(DUCK_TYPED_CONTAINERS):
        return True
    return any(t in annotation.split(" | ") for t in DUCK_TYPED_OBJECTS)


def _scalar_slots():
    for name, (f, args) in VALID_CALLS.items():
        for i, param in enumerate(inspect.signature(f).parameters.values()):
            if not _is_duck_typed(param.annotation):
                yield name, param.name, i


SCALAR_SLOTS = list(_scalar_slots())


def test_every_public_call_is_in_the_table():
    """A public callable added later must get a valid call here, or a reason in NOT_CALLS."""
    public = {name: getattr(steinitz, name) for name in steinitz.__all__}
    calls = {
        name
        for name, obj in public.items()
        if callable(obj) and not (isinstance(obj, type) and issubclass(obj, BaseException))
    }
    assert calls - set(NOT_CALLS) == {n for n in VALID_CALLS if "." not in n}


@pytest.mark.parametrize("name", list(VALID_CALLS))
def test_valid_call_returns(name):
    f, args = VALID_CALLS[name]
    params = list(inspect.signature(f).parameters.values())
    assert len(args) == len(params)
    assert all(isinstance(p.annotation, str) and p.annotation for p in params)
    f(*args)


def test_scalar_slots():
    """The slots the contract covers: every int, rational, text or exponent argument."""
    assert {f"{name}({slot})" for name, slot, _ in SCALAR_SLOTS} == {
        "CheckLine(name)", "CheckLine(stage)", "CheckLine(expected)", "CheckLine(got)",
        "CheckLine(passed)", "CornerIsomorphism(rank)", "MoritaWitness(k)", "MoritaWitness(l)",
        "MoritaWitness(ratio)", "SupernaturalNumber(default_exp)", "corner(r)",
        "decompose_matrix_factor(n)", "embed(k)", "enumerate_morita_class(bound)",
        "exponent_at(p)", "factorize(n)", "factorize(trial_bound)", "from_natural(n)",
        "is_infinite(e)", "is_prime(n)", "matrix_over(k)", "parse_steinitz(text)",
        "proper_corner_witness(m)", "proper_corner_witness(n)",
        "proper_corner_witness(stage_order)", "random_idempotent(n)", "random_idempotent(r)",
        "random_idempotent(seed)", "run_verification(seed)", "run_verification(max_order)",
        "run_verification(trials)", "scale(q)", "verify_corner_scaling(r)",
        "verify_corner_scaling(seed)", "MatrixStage.identity(n)", "MatrixStage.zero(n)",
        "MatrixStage.rank_projector(n)", "MatrixStage.rank_projector(r)",
    }


@pytest.mark.parametrize(
    "name,slot,index", SCALAR_SLOTS, ids=[f"{n}-{s}" for n, s, _ in SCALAR_SLOTS]
)
def test_bad_scalar_returns_or_raises_a_steinitz_error(name, slot, index):
    f, args = VALID_CALLS[name]
    for bad in BAD_VALUES:
        call = list(args)
        call[index] = bad
        try:
            f(*call)
        except SteinitzError:
            pass
        except Exception as exc:
            shown = f"{bad!r}"[:20]
            pytest.fail(f"{name}({slot}={shown}) raised {type(exc).__name__}: {exc}")


@pytest.mark.parametrize(
    "call",
    [
        lambda: steinitz.is_prime(7.0),
        lambda: steinitz.from_natural(2.0),
        lambda: steinitz.scale(ONE, 0.5),
        lambda: steinitz.parse_steinitz(None),
        lambda: SupernaturalNumber(0, {2: 1.5}),
        lambda: MatrixStage(((0.5,),)),
        lambda: MatrixStage.rank_projector(3, 1.5),
        lambda: Tower((2.0, 4)),
        lambda: steinitz.random_idempotent(4, 2, "0"),
    ],
)
def test_a_wrong_type_raises_one_class(call):
    """A scalar of the wrong type raises ArgumentTypeError, whichever entry point it reaches."""
    with pytest.raises(ArgumentTypeError):
        call()
