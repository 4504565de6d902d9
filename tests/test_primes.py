import math
import random
import re
from bisect import bisect_left
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from steinitz import (
    ArgumentTypeError,
    FactorizationError,
    InvalidArgumentError,
    factorize,
    is_prime,
    primes,
)
from steinitz.primes import get_default_trial_bound, set_default_trial_bound
from helpers import PRIME_POOL, strong_probable_prime, sweep_factorize, twelve_witness_is_prime


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


@pytest.mark.parametrize("n", [7.0, 4.5, "7", True, False, Fraction(7), None])
def test_is_prime_takes_only_ints(n):
    """A float, a str, a bool or any other non-int is an argument error, not an answer."""
    message = f"^is_prime's argument must be an int, got {re.escape(repr(n))}$"
    with pytest.raises(ArgumentTypeError, match=message) as exc:
        is_prime(n)
    assert isinstance(exc.value, InvalidArgumentError) and isinstance(exc.value, TypeError)


def test_is_prime_below_the_bound():
    # psi_11, a strong pseudoprime to the bases 2..31; base 37 exposes it.
    assert 149491 * 747451 * 34233211 == 3825123056546413051
    assert is_prime(3825123056546413051) is False
    assert is_prime(PSI_12 - 1) is False


#: psi_k, the least strong pseudoprime to the first k prime bases, k = 1..12.
PSI = (
    2047,
    1373653,
    25326001,
    3215031751,
    2152302898747,
    3474749660383,
    341550071728321,
    341550071728321,
    3825123056546413051,
    3825123056546413051,
    3825123056546413051,
    PSI_12,
)

#: Each distinct psi_k below psi_12 with its prime factors.
PSI_FACTORS = {
    2047: (23, 89),
    1373653: (829, 1657),
    25326001: (2251, 11251),
    3215031751: (151, 751, 28351),
    2152302898747: (6763, 10627, 29947),
    3474749660383: (1303, 16927, 157543),
    341550071728321: (10670053, 32010157),
    3825123056546413051: (149491, 747451, 34233211),
}


def test_psi_table_is_the_literature_table():
    table = primes._MR_PSI
    assert table == PSI
    assert len(table) == len(primes._MR_WITNESSES) == 12
    assert all(a <= b for a, b in zip(table, table[1:]))
    assert table[-1] == primes._MR_EXACT_BELOW == PSI_12
    assert sorted(PSI_FACTORS) == sorted(set(PSI[:-1]))


@pytest.mark.parametrize("psi, factors", PSI_FACTORS.items(), ids=str)
def test_every_psi_below_psi_12_is_composite(psi, factors):
    assert math.prod(factors) == psi
    assert all(naive_is_prime(p) for p in factors)
    assert is_prime(psi) is False


@pytest.mark.parametrize("k", range(1, 13))
def test_psi_k_passes_the_first_k_bases(k):
    """So a prefix one witness short would call psi_k prime."""
    psi = PSI[k - 1]
    assert all(strong_probable_prime(psi, a) for a in PRIME_POOL[:k])
    if k < 12 and PSI[k] > psi:
        assert not strong_probable_prime(psi, PRIME_POOL[k])


def test_a_prefix_one_short_is_caught(monkeypatch):
    """With bisect_left each psi_k gets the k witnesses it fools.

    All but 2047 = 23 * 89, which the trial division by the witnesses finds.
    """
    monkeypatch.setattr(primes, "bisect_right", bisect_left)
    assert [psi for psi in PSI_FACTORS if is_prime(psi)] == sorted(PSI_FACTORS)[1:]


#: The nonempty bands [psi_(k-1), psi_k), with psi_0 = 0.
PSI_BANDS = [(lo, hi) for lo, hi in zip((0,) + PSI, PSI) if lo < hi]


@pytest.mark.parametrize("band", range(len(PSI_BANDS)))
def test_is_prime_matches_twelve_witnesses_in_each_band(band):
    lo, hi = PSI_BANDS[band]
    rng = random.Random(1700 + band)
    verdicts = set()
    for _ in range(2000):
        n = 2 * rng.randrange(lo // 2, hi // 2) + 1
        verdict = twelve_witness_is_prime(n)
        assert is_prime(n) is verdict, n
        verdicts.add(verdict)
    assert verdicts == {False, True}


@pytest.mark.parametrize(
    "n, witnesses",
    [
        (1009, 1),
        (2039, 1),
        (2053, 2),
        (1_000_003, 2),
        (1373677, 3),
        (25326023, 4),
        (3215031767, 5),
        (2152302898771, 6),
        (3474749660401, 7),
        (341550071728361, 9),
        (3825123056546413057, 12),
        (2**64 - 59, 12),
    ],
)
def test_a_prime_runs_the_witnesses_of_its_band(monkeypatch, n, witnesses):
    """Counted as pow calls, one per witness, through a pow in primes' globals."""
    calls = []
    monkeypatch.setattr(primes, "pow", lambda *a: calls.append(a[0]) or pow(*a), raising=False)
    assert twelve_witness_is_prime(n)
    assert is_prime(n) is True
    assert calls == list(PRIME_POOL[:witnesses])


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


def test_trial_bound_ceiling_and_type():
    """One check serves factorize and set_default_trial_bound."""
    top = primes.MAX_TRIAL_BOUND
    assert factorize(1009 * 1013, trial_bound=top) == {1009: 1, 1013: 1}
    old = get_default_trial_bound()
    try:
        set_default_trial_bound(top)
        assert get_default_trial_bound() == top
        for bad in (top + 1, 10**30, True, 2.5, "100", None):
            with pytest.raises(InvalidArgumentError, match="trial bound"):
                set_default_trial_bound(bad)
            assert get_default_trial_bound() == top
        for bad in (top + 1, 10**30, True, 2.5, "100"):
            with pytest.raises(InvalidArgumentError, match="trial bound"):
                factorize(6, trial_bound=bad)
    finally:
        set_default_trial_bound(old)


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


def test_only_a_passed_bound_is_checked(monkeypatch):
    """The default was checked when it was set, so factorize checks only a bound passed in."""
    checked = []
    check = primes._check_trial_bound
    monkeypatch.setattr(primes, "_check_trial_bound", lambda b: checked.append(b) or check(b))
    assert factorize(360) == {2: 3, 3: 2, 5: 1}
    assert checked == []
    assert factorize(360, 100) == {2: 3, 3: 2, 5: 1}
    assert checked == [100]


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


@pytest.mark.parametrize("n", [35, 143, 391])
def test_rho_tries_the_next_c(n):
    """With c = 1 every gcd of these is 1 or n, so rho goes on to c = 2."""
    budget = 10**4
    d, steps = primes._rho_divisor(n, budget)
    assert 1 < d < n and n % d == 0
    assert 0 <= steps < budget
