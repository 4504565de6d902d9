"""Arithmetic laws for supernatural numbers, mostly as hypothesis properties.

Laws that have a finite shadow are checked against integer oracles through
from_natural / is_natural; the rest are structural (commutativity,
associativity, lattice absorption, partial order).
"""

import inspect
import math
import random
from fractions import Fraction
from functools import reduce

import pytest
from hypothesis import given, strategies as st

from steinitz import (
    INF,
    ONE,
    DenominatorDoesNotDivideError,
    FactorizationError,
    Infinity,
    NotPrimeError,
    RatioTooLargeError,
    SupernaturalNumber,
    divides,
    exponent_at,
    from_natural,
    gcd,
    is_infinite,
    is_locally_finite,
    is_natural,
    lcm,
    mul,
    rationally_connected,
    scale,
)
from steinitz import primes, supernatural
from helpers import OUTSIDE_PRIME, _primes_below, pointwise_exponents, supernaturals

naturals = st.integers(min_value=1, max_value=10_000)


class TestInfinity:
    def test_absorbs_addition(self):
        assert INF + 5 == INF
        assert 5 + INF == INF
        assert INF + INF == INF
        with pytest.raises(TypeError):
            INF - 3

    def test_subtracting_from_int_is_an_error(self):
        with pytest.raises(TypeError):
            3 - INF

    def test_ordering(self):
        assert 5 < INF
        assert INF > 10**100
        assert not INF < INF
        assert INF <= INF
        assert INF >= 0
        assert not INF <= 7
        assert not INF > INF
        assert INF >= INF
        assert 3 <= INF
        assert not 3 >= INF
        for compare in (
            lambda: INF < "a",
            lambda: INF > "a",
            lambda: INF <= 1.5,
            lambda: "a" <= INF,
        ):
            with pytest.raises(TypeError):
                compare()

    def test_equality_and_hash(self):
        assert INF == Infinity()
        assert INF != 10**100
        assert hash(INF) == hash(Infinity())
        assert repr(INF) == "INF"

    def test_is_infinite(self):
        assert is_infinite(INF)
        assert not is_infinite(0)
        assert not is_infinite(10**9)


class TestConstruction:
    def test_exceptions_sorted_and_pruned(self):
        s = SupernaturalNumber(0, {5: 2, 2: 1, 3: 0})
        assert s.exceptions == ((2, 1), (5, 2))

    def test_pairs_and_mapping_agree(self):
        assert SupernaturalNumber(1, [(3, 0), (2, 5)]) == SupernaturalNumber(1, {2: 5, 3: 0})

    def test_entry_equal_to_default_is_dropped(self):
        assert SupernaturalNumber(INF, {2: INF}) == SupernaturalNumber(INF)

    def test_rejects_composite_key(self):
        with pytest.raises(NotPrimeError):
            SupernaturalNumber(0, {4: 1})

    def test_rejects_duplicate_key(self):
        with pytest.raises(ValueError):
            SupernaturalNumber(0, [(2, 1), (2, 3)])

    def test_rejects_negative_exponent(self):
        with pytest.raises(ValueError):
            SupernaturalNumber(0, {2: -1})
        with pytest.raises(ValueError):
            SupernaturalNumber(-1)

    def test_rejects_inexact_exponent(self):
        with pytest.raises(TypeError):
            SupernaturalNumber(0, {2: 1.5})
        with pytest.raises(TypeError):
            SupernaturalNumber(0, {2: True})

    def test_str_forms(self):
        assert str(ONE) == "1"
        assert str(SupernaturalNumber(0, {2: INF, 3: 1})) == "2^inf*3"
        assert str(SupernaturalNumber(1)) == "rest^1"
        assert str(SupernaturalNumber(1, {2: 0})) == "2^0*rest^1"
        assert str(SupernaturalNumber(INF)) == "rest^inf"
        assert str(SupernaturalNumber(0, {7: 3})) == "7^3"


class TestFromNatural:
    @given(naturals)
    def test_reconstructs(self, n):
        s = from_natural(n)
        assert s.default_exp == 0
        assert math.prod(p**e for p, e in s.exceptions) == n
        assert is_natural(s) == n

    def test_one(self):
        assert from_natural(1) == ONE

    @pytest.mark.parametrize("bad", [0, -3, True])
    def test_rejects_nonpositive(self, bad):
        with pytest.raises(ValueError):
            from_natural(bad)

    @given(naturals, naturals)
    def test_multiplicative(self, a, b):
        assert from_natural(a * b) == mul(from_natural(a), from_natural(b))

    def test_trial_bound_is_the_process_default(self):
        # 1022117 = 1009 * 1013 has no factor below 100.
        assert "trial_bound" not in inspect.signature(from_natural).parameters
        assert "trial_bound" not in inspect.signature(scale).parameters
        old = primes.get_default_trial_bound()
        primes.set_default_trial_bound(100)
        try:
            with pytest.raises(FactorizationError):
                from_natural(1022117)
            with pytest.raises(FactorizationError):
                scale(from_natural(1022117 * 3), Fraction(1, 1022117))
        finally:
            primes.set_default_trial_bound(old)
        assert from_natural(1022117) == SupernaturalNumber(0, {1009: 1, 1013: 1})


class TestExponentAt:
    def test_exception_and_default(self):
        s = SupernaturalNumber(2, {3: INF})
        assert exponent_at(s, 3) == INF
        assert exponent_at(s, 2) == 2
        assert exponent_at(s, 101) == 2
        assert s.exponent(3) == INF

    def test_requires_prime(self):
        with pytest.raises(NotPrimeError):
            exponent_at(ONE, 6)
        with pytest.raises(NotPrimeError):
            exponent_at(SupernaturalNumber(0, {2: 1, 3: INF}), 4)

    def test_bisection_matches_a_dict_lookup(self):
        """Seeded supports of up to 4000 primes, queried at listed and absent primes."""
        pool = _primes_below(45_000)
        rng = random.Random(4000)
        for size in (0, 1, 2, 3, 10, 100, 1000, 4000):
            for default in (0, 1, 7, INF):
                keys = rng.sample(pool, size)
                exps = [INF if rng.random() < 0.2 else rng.randint(0, 9) for _ in keys]
                s = SupernaturalNumber(default, dict(zip(keys, exps)))
                table = dict(s.exceptions)
                queries = rng.sample(pool, min(300, len(pool))) + keys[:300]
                queries += [pool[0], pool[-1], 2**61 - 1]
                for p in queries:
                    assert exponent_at(s, p) == table.get(p, s.default_exp), (size, p)


class TestLatticeLaws:
    @given(supernaturals, supernaturals)
    def test_commutative(self, s, t):
        assert mul(s, t) == mul(t, s)
        assert lcm(s, t) == lcm(t, s)
        assert gcd(s, t) == gcd(t, s)

    @given(supernaturals, supernaturals, supernaturals)
    def test_associative(self, s, t, u):
        assert mul(mul(s, t), u) == mul(s, mul(t, u))
        assert lcm(lcm(s, t), u) == lcm(s, lcm(t, u))
        assert gcd(gcd(s, t), u) == gcd(s, gcd(t, u))

    @given(supernaturals)
    def test_identities(self, s):
        assert mul(s, ONE) == s
        assert lcm(s, ONE) == s
        assert gcd(s, ONE) == ONE
        assert lcm(s, s) == s
        assert gcd(s, s) == s

    @given(supernaturals, supernaturals)
    def test_absorption(self, s, t):
        assert lcm(s, gcd(s, t)) == s
        assert gcd(s, lcm(s, t)) == s

    @given(supernaturals, supernaturals)
    def test_gcd_lcm_bound_the_inputs(self, s, t):
        assert divides(gcd(s, t), s)
        assert divides(s, lcm(s, t))
        assert divides(s, mul(s, t))

    @given(naturals, naturals)
    def test_matches_integer_oracle(self, a, b):
        sa, sb = from_natural(a), from_natural(b)
        assert is_natural(lcm(sa, sb)) == math.lcm(a, b)
        assert is_natural(gcd(sa, sb)) == math.gcd(a, b)
        assert divides(sa, sb) == (b % a == 0)

    @given(supernaturals, supernaturals)
    def test_matches_pointwise_oracle(self, s, t):
        a, b = pointwise_exponents(s), pointwise_exponents(t)
        assert pointwise_exponents(mul(s, t)) == {p: a[p] + b[p] for p in a}
        assert pointwise_exponents(lcm(s, t)) == {p: max(a[p], b[p]) for p in a}
        assert pointwise_exponents(gcd(s, t)) == {p: min(a[p], b[p]) for p in a}
        assert divides(s, t) == all(a[p] <= b[p] for p in a)
        differing = [p for p in a if a[p] != b[p]]
        if a[OUTSIDE_PRIME] == b[OUTSIDE_PRIME] and all(
            math.isfinite(a[p]) and math.isfinite(b[p]) for p in differing
        ):
            expected = math.prod(Fraction(p) ** (b[p] - a[p]) for p in differing)
        else:
            expected = None
        assert rationally_connected(s, t) == expected

    def test_operator_sugar(self):
        assert from_natural(6) * from_natural(10) == from_natural(60)


class TestDividesOrder:
    @given(supernaturals)
    def test_reflexive(self, s):
        assert divides(s, s)

    @given(supernaturals, supernaturals)
    def test_antisymmetric(self, s, t):
        if divides(s, t) and divides(t, s):
            assert s == t

    @given(supernaturals, supernaturals, supernaturals)
    def test_transitive(self, s, t, u):
        if divides(s, t) and divides(t, u):
            assert divides(s, u)

    def test_infinite_exponents(self):
        two_inf = SupernaturalNumber(0, {2: INF})
        assert divides(from_natural(2**20), two_inf)
        assert not divides(two_inf, from_natural(2**20))
        assert divides(two_inf, SupernaturalNumber(INF))


class TestFinitenessPredicates:
    def test_is_locally_finite(self):
        assert is_locally_finite(from_natural(360))
        assert is_locally_finite(SupernaturalNumber(1, {2: 0}))
        assert not is_locally_finite(SupernaturalNumber(0, {2: INF}))
        assert not is_locally_finite(SupernaturalNumber(INF, {2: 0}))

    def test_is_natural(self):
        assert is_natural(from_natural(84)) == 84
        assert is_natural(ONE) == 1
        assert is_natural(SupernaturalNumber(0, {2: INF})) is None
        assert is_natural(SupernaturalNumber(1)) is None

    def test_is_natural_bounds_the_product_before_building_it(self):
        # 2**(10**1000 - 1) would never finish; the bit bound refuses it first.
        with pytest.raises(RatioTooLargeError, match="may need"):
            is_natural(SupernaturalNumber(0, {2: int("9" * 1000)}))
        # The bound is sum(e * bitlen(p)) = 2 * e for p = 2: 7000 sits on the cap.
        assert is_natural(SupernaturalNumber(0, {2: 7000})) == 2**7000
        with pytest.raises(RatioTooLargeError):
            is_natural(SupernaturalNumber(0, {2: 7001}))
        assert is_natural(SupernaturalNumber(0, {2: 3000, 3: 4000})) == 2**3000 * 3**4000
        with pytest.raises(RatioTooLargeError):
            is_natural(SupernaturalNumber(0, {2: 3000, 3: 4001}))


class TestRationalConnectedness:
    @given(naturals, naturals)
    def test_natural_oracle(self, a, b):
        q = rationally_connected(from_natural(a), from_natural(b))
        assert q == Fraction(b, a)

    def test_infinite_exponents_absorb(self):
        two_inf = SupernaturalNumber(0, {2: INF})
        assert rationally_connected(two_inf, mul(two_inf, from_natural(8))) == 1
        assert rationally_connected(mul(two_inf, from_natural(3)), mul(two_inf, from_natural(5))) == Fraction(5, 3)

    def test_disconnected_cases(self):
        assert rationally_connected(SupernaturalNumber(0, {2: INF}), SupernaturalNumber(0, {3: INF})) is None
        assert rationally_connected(SupernaturalNumber(0, {2: INF}), ONE) is None
        assert rationally_connected(SupernaturalNumber(1), SupernaturalNumber(0)) is None
        assert rationally_connected(SupernaturalNumber(INF), SupernaturalNumber(2)) is None

    @given(supernaturals, supernaturals)
    def test_connecting_ratio_actually_connects(self, s, t):
        q = rationally_connected(s, t)
        if q is not None:
            assert q > 0
            assert scale(s, q) == t
            back = rationally_connected(t, s)
            assert back == 1 / q


    def test_oversized_ratio_is_refused_before_any_power(self):
        # Exponent gaps of 10**11 would need ~10**11-bit powers; the bound
        # is read off the gaps, so the refusal is immediate.
        huge = 10**11
        with pytest.raises(RatioTooLargeError):
            rationally_connected(
                SupernaturalNumber(0, {2: huge}), SupernaturalNumber(0, {3: huge})
            )
        with pytest.raises(RatioTooLargeError):
            rationally_connected(ONE, SupernaturalNumber(0, {5: huge}))

    def test_ratio_bound_edge(self):
        # 2 has bit length 2, so 2^(MAX_RATIO_BITS / 2) is the largest power
        # of 2 accepted on either side of the ratio.
        k = supernatural.MAX_RATIO_BITS // 2
        q = rationally_connected(ONE, SupernaturalNumber(0, {2: k}))
        assert q == 2**k
        assert len(str(q)) < 4300
        with pytest.raises(RatioTooLargeError):
            rationally_connected(ONE, SupernaturalNumber(0, {2: k + 1}))
        with pytest.raises(RatioTooLargeError):
            rationally_connected(SupernaturalNumber(0, {2: k + 1}), ONE)
        # Each side is bounded on its own: k on top and k below is accepted.
        assert rationally_connected(
            SupernaturalNumber(0, {3: k}), SupernaturalNumber(0, {2: k})
        ) == Fraction(2**k, 3**k)


class TestScale:
    @given(supernaturals)
    def test_by_one_is_identity(self, s):
        assert scale(s, 1) == s

    @given(naturals, naturals)
    def test_matches_integer_multiplication(self, a, k):
        assert scale(from_natural(a), k) == from_natural(a * k)
        assert scale(from_natural(a * k), Fraction(1, k)) == from_natural(a)

    @given(supernaturals, st.integers(min_value=1, max_value=500), st.integers(min_value=1, max_value=500))
    def test_multiplying_in_then_out(self, s, m, n):
        grown = scale(mul(s, from_natural(n)), Fraction(m, n))
        # q may be partially absorbed by infinite exponents, but the
        # connecting ratio of the actual pair always scales back exactly.
        q = rationally_connected(mul(s, from_natural(n)), grown)
        assert q is not None
        assert scale(mul(s, from_natural(n)), q) == grown

    def test_infinite_exponent_absorbs(self):
        two_inf = SupernaturalNumber(0, {2: INF})
        assert scale(two_inf, Fraction(3, 4)) == mul(two_inf, from_natural(3))
        assert scale(two_inf, 2) == two_inf

    def test_nonrealizable_denominator(self):
        with pytest.raises(DenominatorDoesNotDivideError):
            scale(from_natural(6), Fraction(1, 4))

    def test_rejects_bad_factors(self):
        with pytest.raises(TypeError):
            scale(ONE, 0.5)
        with pytest.raises(ValueError):
            scale(ONE, Fraction(-1, 2))
        with pytest.raises(ValueError):
            scale(ONE, 0)


class TestWalkCost:
    """Binary operations prove each prime at most once (no wall clock)."""

    @staticmethod
    def _wide(rng, primes):
        return SupernaturalNumber(0, {p: rng.randint(1, 5) for p in rng.sample(primes, 200)})

    def test_is_prime_calls_bounded_by_support_union(self, monkeypatch):
        primes = [p for p in range(2, 2000) if all(p % d for d in range(2, math.isqrt(p) + 1))]
        rng = random.Random(20200217)
        s, t = self._wide(rng, primes), self._wide(rng, primes)
        below_t = gcd(s, t)
        # Neither walk stops early, so each visits the whole union.
        assert divides(below_t, t) and rationally_connected(s, t) is not None
        s_keys, t_keys = dict(s.exceptions).keys(), dict(t.exceptions).keys()
        outside = [p for p in primes if p not in s_keys][:3]
        q = Fraction(math.prod(outside), math.prod(sorted(s_keys)[:2]))
        calls = []
        real = supernatural.is_prime
        monkeypatch.setattr(supernatural, "is_prime", lambda n: calls.append(n) or real(n))
        both = len(s_keys | t_keys)
        cases = [
            (mul, s, t, both),
            (lcm, s, t, both),
            (gcd, s, t, both),
            (divides, below_t, t, len(dict(below_t.exceptions).keys() | t_keys)),
            (rationally_connected, s, t, both),
            (scale, s, q, len(s_keys | set(outside))),
        ]
        for op, x, y, bound in cases:
            calls.clear()
            op(x, y)
            assert len(calls) <= bound, (op.__name__, len(calls), bound)


class TestTowerLimitExample:
    """Folding lcm over the orders 2, 4, .., 2^20 of a finite chain."""

    def test_prefix_folds_stay_finite_but_divide_the_limit(self):
        limit = SupernaturalNumber(0, {2: INF})
        acc = ONE
        previous = None
        for k in range(1, 21):
            acc = lcm(acc, from_natural(2**k))
            assert divides(acc, limit)
            assert acc != limit
            if previous is not None:
                assert divides(previous, acc) and previous != acc
            previous = acc
        assert is_natural(acc) == 2**20
        # The limit itself is reached only as the stated infinite pattern.
        assert reduce(lcm, (from_natural(2**k) for k in range(1, 21)), ONE) == from_natural(2**20)
        assert lcm(acc, limit) == limit
