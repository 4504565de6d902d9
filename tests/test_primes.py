import math
import random

import pytest
from hypothesis import given, strategies as st

from steinitz import FactorizationError, InvalidArgumentError, factorize, is_prime, primes
from steinitz.primes import get_default_trial_bound, set_default_trial_bound
from helpers import sweep_factorize


def naive_is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


KNOWN = [
    (0, False),
    (1, False),
    (2, True),
    (3, True),
    (4, False),
    (97, True),
    (561, False),  # Carmichael
    (1009, True),
    (1_000_003, True),
    (3215031751, False),  # strong pseudoprime to bases 2,3,5,7
    (2**31 - 1, True),
    (2**61 - 1, True),
    (2**67 - 1, False),
]


@pytest.mark.parametrize("n,expected", KNOWN)
def test_is_prime_known_values(n, expected):
    assert is_prime(n) is expected


#: Least composite that passes Miller-Rabin for all twelve witnesses 2..37.
PSI_12 = 318665857834031151167461


@pytest.mark.parametrize("n", [PSI_12, 2**89 - 1, PSI_12 + 1, 10**1000])
def test_is_prime_refuses_what_it_cannot_prove(n):
    """At or above psi_12 the fixed witnesses prove nothing, so no answer is given."""
    assert PSI_12 == 399165290221 * 798330580441
    with pytest.raises(InvalidArgumentError) as exc:
        is_prime(n)
    assert isinstance(exc.value, ValueError)
    assert str(PSI_12) in str(exc.value)


def test_is_prime_below_the_bound():
    # psi_11, a strong pseudoprime to the bases 2..31; base 37 exposes it.
    assert 149491 * 747451 * 34233211 == 3825123056546413051
    assert is_prime(3825123056546413051) is False
    assert is_prime(PSI_12 - 1) is False


def test_factorize_refuses_an_unprovable_cofactor():
    with pytest.raises(InvalidArgumentError):
        factorize(PSI_12)


@given(st.integers(min_value=-10, max_value=100_000))
def test_is_prime_matches_trial_division(n):
    assert is_prime(n) == naive_is_prime(n)


@given(st.integers(min_value=1, max_value=1_000_000))
def test_factorize_reconstructs(n):
    fac = factorize(n)
    assert math.prod(p**e for p, e in fac.items()) == n
    for p, e in fac.items():
        assert is_prime(p)
        assert e >= 1


def test_factorize_one_is_empty():
    assert factorize(1) == {}


def test_factorize_large_prime_cofactor_allowed():
    # 1_000_003 is prime and far above the bound; Miller-Rabin certifies it.
    assert factorize(2 * 1_000_003, trial_bound=100) == {2: 1, 1_000_003: 1}


def test_factorize_composite_cofactor_rejected():
    with pytest.raises(FactorizationError):
        factorize(1009 * 1013, trial_bound=100)


def test_factorize_respects_explicit_bound():
    assert factorize(1009 * 1013, trial_bound=1013) == {1009: 1, 1013: 1}


@pytest.mark.parametrize("bad", [0, -5, True])
def test_factorize_rejects_nonpositive(bad):
    with pytest.raises(ValueError):
        factorize(bad)


def test_factorize_rejects_tiny_bound():
    with pytest.raises(ValueError):
        factorize(6, trial_bound=1)


def test_default_trial_bound_roundtrip():
    old = get_default_trial_bound()
    try:
        set_default_trial_bound(50)
        assert get_default_trial_bound() == 50
        with pytest.raises(FactorizationError):
            factorize(1009 * 1013)
    finally:
        set_default_trial_bound(old)
    with pytest.raises(InvalidArgumentError):
        set_default_trial_bound(1)


def test_factorize_tiny_bound_is_an_invalid_argument():
    with pytest.raises(InvalidArgumentError, match="trial bound must be at least 2, got 1"):
        factorize(6, trial_bound=1)


def _prime_in(rng: random.Random, lo: int, hi: int) -> int:
    while True:
        p = rng.randrange(lo, hi) | 1
        if is_prime(p):
            return p


def _differential_cases(seed: int) -> list[int]:
    """Seeded inputs on both sides of every branch of factorize."""
    rng = random.Random(seed)
    cases = [PSI_12, PSI_12 - 1, PSI_12 + 1, 2 * PSI_12]
    for _ in range(3):
        # semiprimes near 10**12, as the classify-small benchmark makes them
        cases.append(_prime_in(rng, 900_000, 1_000_000) * _prime_in(rng, 1_000_000, 1_100_000))
        # prime powers, with the prime below and above 2**20
        cases.append(_prime_in(rng, 1 << 16, 1 << 21) ** rng.randint(2, 5))
        # squares of primes above 2**20, alone or with small and mid-size factors
        cases.append(_prime_in(rng, 1 << 20, 1 << 36) ** 2 * rng.choice((1, 12, 65537, 70001)))
        # a provable cofactor just below psi_12, and a composite one next to it
        cases.append(rng.choice((2, 6, 65537)) * _prime_in(rng, PSI_12 // 70000, PSI_12 // 65537))
        cases.append(PSI_12 + rng.randint(-10**6, 10**6))
        # three mid-size primes, two of them below 2**20
        cases.append(
            _prime_in(rng, 1 << 16, 1 << 20) ** rng.randint(1, 2)
            * _prime_in(rng, 1 << 16, 1 << 20)
            * _prime_in(rng, 1 << 20, 1 << 40)
        )
        cases.append(rng.randint(1, 10**15))
        # a cofactor above 2**256 made of primes up to 2**20, and a prime
        # above the bound: the sweep's case
        cases.append(
            math.prod(_prime_in(rng, 1 << 16, 1 << 20) for _ in range(16))
            * _prime_in(rng, 1 << 20, 1 << 40)
        )
    return cases


def _outcome(fn, n, bound):
    try:
        return list(fn(n, bound).items())
    except (FactorizationError, InvalidArgumentError) as err:
        return type(err), str(err)


class TestSweepDifferential:
    """factorize gives exactly what the trial-division sweep gave."""

    @pytest.mark.parametrize("bound", [2, 100, 65537, 1 << 20])
    def test_matches_the_sweep(self, bound):
        for n in _differential_cases(seed=bound):
            assert _outcome(factorize, n, bound) == _outcome(sweep_factorize, n, bound), n

    def test_semiprimes_split_without_the_sweep(self, monkeypatch):
        """Rho's step budget covers every factor up to the bound."""

        def no_sweep(*args):
            raise AssertionError("the sweep ran")

        monkeypatch.setattr(primes, "_sweep", no_sweep)
        rng = random.Random(11)
        for _ in range(50):
            p = _prime_in(rng, 900_000, 1_000_000)
            q = _prime_in(rng, 1_000_000, 1_100_000)
            assert factorize(p * q) == {p: 1, q: 1}
        # Both factors above the bound: rho still splits them, so the
        # composite cofactor is reported without a sweep.
        with pytest.raises(FactorizationError, match=str(1048583 * 1048589)):
            factorize(1048583 * 1048589)
        # Squares of primes above the bound are roots, not rho work.
        big = 100_000_000_003
        with pytest.raises(FactorizationError, match=str(big * big)):
            factorize(big * big)

    def test_large_cofactors_go_to_the_sweep(self, monkeypatch):
        def no_rho(*args):
            raise AssertionError("rho ran")

        monkeypatch.setattr(primes, "_rho_divisor", no_rho)
        rng = random.Random(5)
        for _ in range(3):
            n = math.prod(_prime_in(rng, 1 << 16, 1 << 20) for _ in range(16))
            assert n.bit_length() > 256
            assert factorize(n) == sweep_factorize(n, 1 << 20)

    def test_exhausted_budget_falls_back_to_the_sweep(self, monkeypatch):
        calls = []
        sweep = primes._sweep
        monkeypatch.setattr(primes, "_sweep", lambda *a: calls.append(a[0]) or sweep(*a))
        with pytest.raises(InvalidArgumentError, match="primality is decided only below"):
            factorize(PSI_12)
        assert calls == [PSI_12]
