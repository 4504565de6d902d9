import math

import pytest
from hypothesis import given, strategies as st

from steinitz import FactorizationError, InvalidArgumentError, factorize, is_prime
from steinitz.primes import get_default_trial_bound, set_default_trial_bound


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
