import math
import random
import time
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from steinitz import (
    INF,
    ONE,
    AlgebraDescriptor,
    CornerComparison,
    InvalidArgumentError,
    NotADivisorError,
    RatioTooLargeError,
    SupernaturalNumber,
    are_isomorphic,
    are_morita_equivalent,
    corner,
    decompose_matrix_factor,
    enumerate_morita_class,
    from_natural,
    matrix_over,
    morita_ratio,
    morita_witness,
    mul,
    parse_steinitz,
    proper_corner_compare,
    rationally_connected,
    tensor,
)
from steinitz import morita, supernatural
from steinitz.cli import main
from helpers import (
    OUTSIDE_PRIME,
    PRIME_POOL,
    pairwise_enumerate,
    pointwise_exponents,
    random_supernatural,
    supernaturals,
)

descriptors = supernaturals.map(AlgebraDescriptor)
naturals = st.integers(min_value=1, max_value=400)


@given(descriptors, descriptors)
def test_isomorphism_is_invariant_equality(a, b):
    assert are_isomorphic(a, a)
    assert are_isomorphic(a, b) == (a.steinitz == b.steinitz)


@given(descriptors, naturals, naturals)
def test_amplified_pair_is_equivalent(a, k, l):
    ak, al = matrix_over(a, k), matrix_over(a, l)
    assert are_morita_equivalent(ak, al)
    q = morita_ratio(ak, al)
    # Infinite exponents may absorb parts of l/k, but never all of it
    # unless the values really coincide.
    assert q is not None
    assert matrix_over(ak, q.numerator).steinitz == matrix_over(al, q.denominator).steinitz


@given(descriptors)
def test_equivalence_reflexive(a):
    assert morita_ratio(a, a) == 1
    assert are_morita_equivalent(a, a)


@given(descriptors, descriptors)
def test_equivalence_symmetric(a, b):
    q = morita_ratio(a, b)
    back = morita_ratio(b, a)
    if q is None:
        assert back is None
        assert not are_morita_equivalent(a, b)
    else:
        assert back == 1 / q


@given(descriptors, naturals, naturals)
def test_ratio_composes_along_a_chain(a, m, n):
    b = matrix_over(a, m)
    c = matrix_over(b, n)
    q_ab, q_bc, q_ac = morita_ratio(a, b), morita_ratio(b, c), morita_ratio(a, c)
    assert q_ac == q_ab * q_bc


def test_morita_examples():
    two_inf = SupernaturalNumber(0, {2: INF})
    a = AlgebraDescriptor(mul(two_inf, from_natural(3)))
    b = AlgebraDescriptor(mul(two_inf, from_natural(5)))
    assert morita_ratio(a, b) == Fraction(5, 3)
    assert not are_morita_equivalent(
        AlgebraDescriptor(two_inf), AlgebraDescriptor(SupernaturalNumber(0, {3: INF}))
    )


class TestMatrixOverAndDecompose:
    @given(descriptors, naturals)
    def test_roundtrip(self, a, n):
        grown = matrix_over(a, n)
        assert decompose_matrix_factor(grown, n) == a or are_morita_equivalent(grown, a)
        # The descriptor recovered after growing is exactly the original.
        assert decompose_matrix_factor(grown, n).steinitz == a.steinitz

    @pytest.mark.parametrize("default", [0, 2, INF])
    def test_adds_the_valuations_of_k(self, default):
        """k * s raises each exponent by v_p(k), checked against the pointwise oracle."""
        rng = random.Random(2200)
        pool = PRIME_POOL + (OUTSIDE_PRIME,)
        for _ in range(200):
            s = SupernaturalNumber(default, random_supernatural(rng).exceptions)
            powers = {p: rng.randint(1, 3) for p in rng.sample(pool, rng.randint(0, 4))}
            k = math.prod(p**e for p, e in powers.items())
            got = matrix_over(AlgebraDescriptor(s), k).steinitz
            assert got.default_exp == default
            want = {p: e + powers.get(p, 0) for p, e in pointwise_exponents(s).items()}
            assert pointwise_exponents(got) == want, (s, k)

    def test_decompose_requires_divisor(self):
        with pytest.raises(NotADivisorError):
            decompose_matrix_factor(AlgebraDescriptor(from_natural(6)), 4)

    def test_rejects_bad_orders(self):
        a = AlgebraDescriptor(ONE)
        for bad in (0, -1, True):
            with pytest.raises(ValueError):
                matrix_over(a, bad)
            with pytest.raises(ValueError):
                decompose_matrix_factor(a, bad)

    def test_infinite_part_survives_decomposition(self):
        rest_inf = AlgebraDescriptor(SupernaturalNumber(INF))
        assert decompose_matrix_factor(rest_inf, 12) == rest_inf

    def test_factors_the_order_once(self, monkeypatch):
        calls = []
        real = supernatural.factorize

        def counting(n, *args):
            calls.append(n)
            return real(n, *args)

        monkeypatch.setattr(supernatural, "factorize", counting)
        n = 999983 * 1000003
        a = AlgebraDescriptor(SupernaturalNumber(1))
        assert decompose_matrix_factor(a, n).steinitz == SupernaturalNumber(
            1, {999983: 0, 1000003: 0}
        )
        assert calls == [n]
        calls.clear()
        with pytest.raises(NotADivisorError, match=f"^{n} does not divide 2\\^inf$"):
            decompose_matrix_factor(AlgebraDescriptor(SupernaturalNumber(0, {2: INF})), n)
        assert calls == [n]


class TestTensor:
    @given(descriptors, descriptors)
    def test_commutative_and_mirrors_mul(self, a, b):
        assert tensor(a, b) == tensor(b, a)
        assert tensor(a, b).steinitz == mul(a.steinitz, b.steinitz)

    @given(descriptors)
    def test_unit(self, a):
        assert tensor(a, AlgebraDescriptor(ONE)) == a


class TestCorner:
    def test_example(self):
        two_inf = AlgebraDescriptor(SupernaturalNumber(0, {2: INF}))
        assert corner(two_inf, Fraction(3, 4)).steinitz == SupernaturalNumber(0, {2: INF, 3: 1})

    @given(descriptors)
    def test_full_corner_is_identity(self, a):
        assert corner(a, 1) == a

    @given(descriptors, st.integers(min_value=1, max_value=30), st.integers(min_value=1, max_value=30))
    def test_corner_of_amplification(self, a, m, n):
        if m > n:
            m, n = n, m
        big = matrix_over(a, n)
        small = corner(big, Fraction(m, n))
        assert small.steinitz == matrix_over(a, m).steinitz

    def test_rejects_bad_ranks(self):
        a = AlgebraDescriptor(from_natural(4))
        with pytest.raises(ValueError):
            corner(a, Fraction(3, 2))
        with pytest.raises(ValueError):
            corner(a, 0)
        with pytest.raises(TypeError):
            corner(a, 0.25)


class TestWitness:
    @given(descriptors, naturals, naturals)
    def test_witness_is_sound_and_reduced(self, base, m, n):
        a = matrix_over(base, n)
        b = matrix_over(base, m)
        w = morita_witness(a, b)
        assert w is not None
        assert math.gcd(w.k, w.l) == 1
        assert w.ratio == Fraction(w.k, w.l)
        assert mul(from_natural(w.k), a.steinitz) == mul(from_natural(w.l), b.steinitz)
        assert are_isomorphic(matrix_over(a, w.k), matrix_over(b, w.l))

    def test_no_witness_when_disconnected(self):
        a = AlgebraDescriptor(SupernaturalNumber(0, {2: INF}))
        b = AlgebraDescriptor(SupernaturalNumber(0, {3: INF}))
        assert morita_witness(a, b) is None

    def test_witness_example(self):
        w = morita_witness(AlgebraDescriptor(from_natural(6)), AlgebraDescriptor(from_natural(35)))
        assert (w.k, w.l) == (35, 6)


class TestProperCornerCompare:
    def test_table(self):
        two_inf = SupernaturalNumber(0, {2: INF})
        a = AlgebraDescriptor(mul(two_inf, from_natural(3)))
        b = AlgebraDescriptor(mul(two_inf, from_natural(5)))
        assert proper_corner_compare(a, b) is CornerComparison.LESS
        assert proper_corner_compare(b, a) is CornerComparison.GREATER
        assert proper_corner_compare(a, a) is CornerComparison.EQUAL
        assert (
            proper_corner_compare(a, AlgebraDescriptor(SupernaturalNumber(0, {7: INF})))
            is CornerComparison.INCOMPARABLE
        )

    @given(descriptors, descriptors)
    def test_antisymmetry(self, a, b):
        fwd, back = proper_corner_compare(a, b), proper_corner_compare(b, a)
        flips = {
            CornerComparison.LESS: CornerComparison.GREATER,
            CornerComparison.GREATER: CornerComparison.LESS,
            CornerComparison.EQUAL: CornerComparison.EQUAL,
            CornerComparison.INCOMPARABLE: CornerComparison.INCOMPARABLE,
        }
        assert back is flips[fwd]

    @given(descriptors, st.integers(min_value=2, max_value=50))
    def test_proper_corner_is_less(self, a, n):
        big = matrix_over(a, n)
        small = corner(big, Fraction(1, n))
        result = proper_corner_compare(small, big)
        # With infinite exponents the cut can be invisible in the invariant.
        if small == big:
            assert result is CornerComparison.EQUAL
        else:
            assert result is CornerComparison.LESS


class TestDecisionsWithoutTheRatio:
    """Morita equivalence and the corner order read the exponent gaps; only the
    corner order of gaps that point both ways builds the ratio."""

    BIG = AlgebraDescriptor(SupernaturalNumber(0, {2: 20000}))
    UNIT = AlgebraDescriptor(ONE)
    OTHER = AlgebraDescriptor(SupernaturalNumber(0, {3: 20000}))

    def test_one_way_gaps_decide_past_the_ratio_cap(self):
        assert are_morita_equivalent(self.BIG, self.UNIT)
        assert are_morita_equivalent(self.BIG, self.OTHER)
        assert proper_corner_compare(self.BIG, self.UNIT) is CornerComparison.GREATER
        assert proper_corner_compare(self.UNIT, self.BIG) is CornerComparison.LESS
        message = "the connecting ratio may need 40000 bits in one term"
        for call in (morita_ratio, morita_witness):
            with pytest.raises(RatioTooLargeError, match=message):
                call(self.BIG, self.UNIT)

    def test_two_way_gaps_still_build_the_ratio(self):
        with pytest.raises(RatioTooLargeError, match="may need 40000 bits"):
            proper_corner_compare(self.BIG, self.OTHER)
        with pytest.raises(RatioTooLargeError, match="may need 40000 bits"):
            proper_corner_compare(self.OTHER, self.BIG)

    def test_cli_compare_answers_and_the_ratio_commands_refuse(self, capsys):
        assert main(["compare", "2^20000", "1"]) == 0
        assert main(["compare", "1", "2^20000"]) == 0
        assert capsys.readouterr().out == "GREATER\nLESS\n"
        for argv in (
            ["morita", "2^20000", "1"],
            ["ratio", "2^20000", "1"],
            ["witness", "2^20000", "1"],
            ["compare", "2^20000", "3^20000"],
        ):
            assert main(argv) == 2, argv
            assert capsys.readouterr().err == (
                "error: the connecting ratio may need 40000 bits in one term, "
                f"above the limit of {supernatural.MAX_RATIO_BITS}\n"
            )

    @given(descriptors, descriptors)
    def test_agrees_with_the_ratio(self, a, b):
        q = rationally_connected(b.steinitz, a.steinitz)
        assert are_morita_equivalent(a, b) is (q is not None)
        expected = (
            CornerComparison.INCOMPARABLE if q is None
            else CornerComparison.LESS if q < 1
            else CornerComparison.EQUAL if q == 1
            else CornerComparison.GREATER
        )
        assert proper_corner_compare(a, b) is expected


class TestEnumerate:
    def test_hand_oracle(self):
        values = enumerate_morita_class(AlgebraDescriptor(from_natural(2)), 2)
        assert values == [from_natural(2), from_natural(4), ONE]

    def test_deduplicates_under_absorption(self):
        base = AlgebraDescriptor(mul(SupernaturalNumber(0, {3: INF}), from_natural(2)))
        values = enumerate_morita_class(base, 3)
        assert len(values) == len(set(values))
        three_inf = SupernaturalNumber(0, {3: INF})
        assert set(values) == {
            mul(three_inf, from_natural(2)),
            mul(three_inf, from_natural(4)),
            three_inf,
        }

    @given(descriptors, st.integers(min_value=1, max_value=5))
    def test_members_are_equivalent_and_distinct(self, a, bound):
        values = enumerate_morita_class(a, bound)
        assert a.steinitz in values
        assert len(values) == len(set(values))
        for v in values:
            assert are_morita_equivalent(a, AlgebraDescriptor(v))

    def test_rejects_bad_bound(self):
        with pytest.raises(ValueError):
            enumerate_morita_class(AlgebraDescriptor(ONE), 0)

    def test_bound_is_capped(self):
        cap = morita.MAX_ENUMERATE_BOUND
        assert cap == 500
        two_inf = AlgebraDescriptor(SupernaturalNumber(0, {2: INF}))
        # 2^inf absorbs every power of 2, so the members are the odd multiples.
        assert enumerate_morita_class(two_inf, cap) == [
            mul(two_inf.steinitz, from_natural(m)) for m in range(1, cap + 1, 2)
        ]
        start = time.perf_counter()
        with pytest.raises(InvalidArgumentError, match=f"bound must be at most {cap}, got {cap + 1}"):
            enumerate_morita_class(AlgebraDescriptor(ONE), cap + 1)
        assert time.perf_counter() - start < 1.0

    @pytest.mark.parametrize("seed", range(6))
    def test_matches_the_pairwise_walk(self, seed):
        rng = random.Random(seed)
        for _ in range(8):
            s = random_supernatural(rng, max_primes=4, max_exp=3)
            bound = rng.randint(1, 24)
            assert enumerate_morita_class(AlgebraDescriptor(s), bound) == pairwise_enumerate(
                s, bound
            ), (str(s), bound)

    @pytest.mark.parametrize(
        "text,bound",
        [("2^inf", 120), ("2*3^2*5", 60), ("rest^1*3^inf", 30), ("rest^inf*7^2", 60),
         ("rest^inf", 40), ("rest^2*5^inf*7", 25), ("1", 50)],
    )
    def test_matches_the_pairwise_walk_on_fixed_inputs(self, text, bound):
        s = parse_steinitz(text)
        assert enumerate_morita_class(AlgebraDescriptor(s), bound) == pairwise_enumerate(s, bound)

    def test_scale_runs_once_per_member(self, monkeypatch):
        calls = []
        real = morita.scale

        def counting(s, q):
            calls.append(q)
            return real(s, q)

        monkeypatch.setattr(morita, "scale", counting)
        for text, bound in (("2*3^2*5", 40), ("2^inf*3", 30), ("rest^inf*7^2", 30)):
            calls.clear()
            values = enumerate_morita_class(AlgebraDescriptor(parse_steinitz(text)), bound)
            assert len(calls) == len(values), text
