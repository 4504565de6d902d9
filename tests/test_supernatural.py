"""Arithmetic laws for supernatural numbers, mostly as hypothesis properties.

Laws that have a finite shadow are checked against integer oracles through
from_natural / is_natural; the rest are structural (commutativity,
associativity, lattice absorption, partial order).
"""

import inspect
import math
import random
import re
import tracemalloc
from fractions import Fraction
from functools import reduce

import pytest
from hypothesis import given, strategies as st

from steinitz import (
    INF,
    ONE,
    ArgumentTypeError,
    DenominatorDoesNotDivideError,
    FactorizationError,
    Infinity,
    InvalidArgumentError,
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
    parse_steinitz,
    rationally_connected,
    scale,
)
from steinitz import primes, supernatural
from helpers import (
    OUTSIDE_PRIME,
    PRIME_POOL,
    _primes_below,
    join_format,
    pointwise_exponents,
    supernaturals,
)

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

    @pytest.mark.parametrize("key", [2.0, True, "2"])
    def test_non_int_key_is_an_argument_error(self, key):
        """is_prime owns the key type rule: a non-int key is not reported as a non-prime."""
        message = f"^is_prime's argument must be an int, got {re.escape(repr(key))}$"
        with pytest.raises(ArgumentTypeError, match=message):
            SupernaturalNumber(0, {key: 1})
        with pytest.raises(ArgumentTypeError, match=message):
            exponent_at(ONE, key)

    def test_rejects_duplicate_key(self):
        with pytest.raises(ValueError):
            SupernaturalNumber(0, [(2, 1), (2, 3)])

    def test_rejects_negative_exponent(self):
        with pytest.raises(ValueError):
            SupernaturalNumber(0, {2: -1})
        with pytest.raises(ValueError):
            SupernaturalNumber(-1)

    def test_exponent_has_at_most_the_parser_digits(self):
        """An exponent of more than MAX_NUMBER_DIGITS digits is refused where it enters, so
        str never meets one it cannot print and every exponent reads back."""
        for e, shown in ((10**1000, "a 3322-bit number"), (10**5000, "a 16610-bit number")):
            message = re.escape(f"must be below 10**1000, got {shown}")
            with pytest.raises(InvalidArgumentError, match=f"^exponent of 2 {message}$"):
                SupernaturalNumber(0, {2: e})
            with pytest.raises(InvalidArgumentError, match=f"^default exponent {message}$"):
                SupernaturalNumber(e)
        top = 10**1000 - 1
        for s in (SupernaturalNumber(0, {2: top}), SupernaturalNumber(top, {3: 1})):
            assert parse_steinitz(str(s)) == s
            assert str(top) in repr(s)

    def test_computed_exponent_has_at_most_the_parser_digits(self):
        """mul and scale refuse a finite exponent the text could not hold, so str never
        prints one that parse_steinitz refuses or that CPython cannot print at all."""
        top = 10**1000 - 1
        s = SupernaturalNumber(0, {2: top})
        message = "^exponent of 2 must be below 10\\*\\*1000, got a 33(22|23)-bit number$"
        for call in (lambda: mul(s, s), lambda: scale(s, 2), lambda: scale(s, Fraction(6, 5))):
            with pytest.raises(InvalidArgumentError, match=message):
                call()
        with pytest.raises(InvalidArgumentError, match="^default exponent must be below"):
            mul(SupernaturalNumber(top), SupernaturalNumber(1))
        w = SupernaturalNumber(0, {2: 10**999})
        with pytest.raises(InvalidArgumentError):
            for _ in range(11_000):
                w = mul(w, w)
        assert exponent_at(w, 2) == 8 * 10**999
        for t in (mul(s, ONE), scale(s, Fraction(3, 1)), scale(s, Fraction(1, 2))):
            assert parse_steinitz(str(t)) == t
        # INF absorbs, and only the primes scale raises are checked.
        assert mul(SupernaturalNumber(0, {2: INF}), s) == SupernaturalNumber(0, {2: INF})
        assert scale(SupernaturalNumber(top, {2: 0}), 2) == SupernaturalNumber(top, {2: 1})

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


class TestText:
    """str writes the canonical text; a join of one string per term is the reference."""

    def test_matches_a_join_on_a_seeded_corpus(self):
        rng = random.Random(1717)
        pool = _primes_below(20_000)
        corpus = [ONE, SupernaturalNumber(INF), SupernaturalNumber(10**31)]
        for _ in range(400):
            default = rng.choice((0, 0, 1, 2, INF, rng.randrange(10**30, 10**40)))
            keys = rng.sample(pool, rng.choice((0, 1, 3, 12, 200)))
            exponents = (0, 1, 1, 2, rng.randrange(100), INF, rng.randrange(10**30, 10**40))
            corpus.append(SupernaturalNumber(default, {p: rng.choice(exponents) for p in keys}))
        texts = [str(v) for v in corpus]
        assert texts == [join_format(v) for v in corpus]
        assert [parse_steinitz(text) for text in texts] == corpus
        joined = " ".join(texts)
        for form in ("^inf*", "^0*", "rest^inf", "rest^1 ", "rest^2 ", " 1 "):
            assert form in joined
        assert any(len(e) > 30 for e in re.findall(r"\^([0-9]+)\*", joined))
        assert any(len(t.rpartition("rest^")[2]) > 30 for t in texts)

    def test_peak_is_a_few_times_the_text(self):
        """No string per term is held until the end: the peak stays under 4x the text."""
        keys = _primes_below(8000)[:1000]
        value = SupernaturalNumber(2, {p: (1, 3, INF)[i % 3] for i, p in enumerate(keys)})
        size = len(str(value))
        tracemalloc.start()
        try:
            text = str(value)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(text) == size
        assert peak <= 4 * size, (peak, size)


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
    """Computed values prove no prime again, and parsed ones each base once (no wall clock)."""

    @staticmethod
    def _wide(rng, primes):
        return SupernaturalNumber(0, {p: rng.randint(1, 5) for p in rng.sample(primes, 200)})

    def test_is_prime_calls_bounded_by_support_union(self, monkeypatch):
        primes_below = _primes_below(2000)
        rng = random.Random(20200217)
        s, t = self._wide(rng, primes_below), self._wide(rng, primes_below)
        below_t = gcd(s, t)
        # Neither walk stops early, so each visits the whole union.
        assert divides(below_t, t) and rationally_connected(s, t) is not None
        s_keys = dict(s.exceptions).keys()
        outside = [p for p in primes_below if p not in s_keys][:3]
        q = Fraction(math.prod(outside), math.prod(sorted(s_keys)[:2]))
        # factorize proves a cofactor above its trial division: 1000003 here.
        q_big = Fraction(1_000_003 * outside[0], sorted(s_keys)[0])
        calls = []
        for module in (supernatural, primes):
            real = module.is_prime
            monkeypatch.setattr(module, "is_prime", lambda n, real=real: calls.append(n) or real(n))
        cases = [
            (mul, s, t, 0),
            (lcm, s, t, 0),
            (gcd, s, t, 0),
            (divides, below_t, t, 0),
            (rationally_connected, s, t, 0),
            (scale, s, q, len(outside) + 2),
            (scale, s, q_big, 3),
        ]
        for op, x, y, most in cases:
            calls.clear()
            op(x, y)
            assert len(calls) <= most, (op.__name__, len(calls), most)
        assert 1_000_003 in calls

        bases = sorted(s_keys | dict(t.exceptions).keys())
        rng.shuffle(bases)
        terms = [f"{p}^{rng.choice(('1', '2', 'inf'))}" for p in bases] + ["1", "rest^2"]
        rng.shuffle(terms)
        calls.clear()
        parsed = parse_steinitz("*".join(terms))
        assert sorted(calls) == sorted(bases)
        assert parsed.default_exp == 2


def _semiprime_corpus(rng):
    """Products of two primes near 10**6 (up to about 10**12), and random n below 10**12."""
    near = [p for p in range(10**6 - 2000, 10**6 + 2000) if primes.is_prime(p)]
    out = [rng.choice(near) * rng.choice(near) for _ in range(20)]
    out += [rng.randrange(1, 10**12) for _ in range(20)]
    return out + [1, 2, 10**12, 999983 * 1000003]


def _random_text(rng, pool):
    """Expression text: a random support in random order, '1' terms and maybe a rest term."""
    default = rng.choice((None, "0", "1", "2", "inf"))
    terms = []
    for p in rng.sample(pool, rng.randint(0, 12)):
        exp = rng.choice(("", "^0", "^1", "^2", "^7", "^inf", "^" + str(rng.randrange(10**30))))
        terms.append(f"{p}{exp}")
    terms += ["1"] * rng.randint(0, 2)
    if default is not None:
        terms.append(f"rest^{default}")
    rng.shuffle(terms)
    return " * ".join(terms) or "1"


class TestTrustedBuilder:
    """Values this module computes skip the checks; the public constructor must agree."""

    def test_every_trusted_value_passes_the_public_constructor(self, monkeypatch):
        made = []
        trusted = SupernaturalNumber._trusted.__func__

        def recording(cls, default, items):
            value = trusted(cls, default, items)
            made.append(value)
            return value

        monkeypatch.setattr(SupernaturalNumber, "_trusted", classmethod(recording))
        rng = random.Random(1517)
        pool = list(PRIME_POOL) + [41, 97, 65537, 1_000_003, 999_999_000_001]
        corpus = [parse_steinitz(_random_text(rng, pool)) for _ in range(300)]
        values = corpus[:60]
        for s in values:
            for t in values[::7]:
                corpus += [mul(s, t), lcm(s, t), gcd(s, t)]
            keys = [p for p, _ in s.exceptions]
            inside = rng.sample(keys, min(len(keys), 2))
            outside = rng.sample([p for p in pool if p not in keys], 2)
            for m, n in ((outside, []), (inside, []), (outside, inside), (inside[:1], outside[:1])):
                try:
                    corpus.append(scale(s, Fraction(math.prod(m), math.prod(n))))
                except DenominatorDoesNotDivideError:
                    pass
        corpus += [from_natural(n) for n in _semiprime_corpus(rng)]
        # Every value of the corpus came through the trusted builder.
        assert {id(v) for v in corpus} <= {id(v) for v in made}
        assert len(made) >= len(corpus) > 2000
        for value in made:
            assert type(value.exceptions) is tuple
            assert all(type(pe) is tuple for pe in value.exceptions)
            rebuilt = SupernaturalNumber(value.default_exp, value.exceptions)
            assert rebuilt == value
            assert rebuilt.exceptions == value.exceptions


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
