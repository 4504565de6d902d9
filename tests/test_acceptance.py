"""End-to-end acceptance gate.

Nine exact criteria, one per test, each printing a single
``PASS|FAIL criterion-N ...`` line (mirrored past pytest's capture so the
gate lines are always visible).  All arithmetic is exact, so every
comparison is equality; the only tolerances are the two wall-clock
budgets, which are asserted.
"""

import math
import random
import time
from fractions import Fraction

from steinitz import (
    INF,
    ONE,
    AlgebraDescriptor,
    SupernaturalNumber,
    are_isomorphic,
    are_morita_equivalent,
    corner_isomorphism,
    corner_span_dimension,
    exact_rank,
    format_steinitz,
    from_natural,
    is_full_idempotent,
    kron,
    matrix_over,
    morita_ratio,
    morita_witness,
    mul,
    parse_steinitz,
    proper_corner_witness,
    random_idempotent,
    rationally_connected,
    scale,
    verify_corner_scaling,
)
from steinitz.cli import main
from steinitz.tower import sample_relative_rank, sample_tower
from helpers import random_low_rank_matrix, random_matrix, random_supernatural


def _emit(capsys, passed: bool, label: str) -> None:
    line = f"{'PASS' if passed else 'FAIL'} {label}"
    with capsys.disabled():
        print(line)
    assert passed, line


def test_criterion_1_connectedness_against_integer_oracle(capsys):
    rng = random.Random(0xC1)
    start = time.perf_counter()
    mismatches = 0
    for _ in range(10_000):
        a = rng.randint(1, 1_000_000)
        b = rng.randint(1, 1_000_000)
        if rationally_connected(from_natural(a), from_natural(b)) != Fraction(b, a):
            mismatches += 1
    elapsed = time.perf_counter() - start
    _emit(
        capsys,
        mismatches == 0 and elapsed < 5.0,
        f"criterion-1 connectedness-oracle pairs=10000 mismatches={mismatches} "
        f"elapsed={elapsed:.2f}s budget=5s",
    )


def test_criterion_2_morita_equivalence_is_an_equivalence(capsys):
    rng = random.Random(0xC2)
    failures = 0
    for _ in range(1_000):
        base = random_supernatural(rng)  # mixes finite, infinite, rest defaults
        d1, d2, d3 = (
            AlgebraDescriptor(mul(base, from_natural(rng.randint(1, 120))))
            for _ in range(3)
        )
        q12 = morita_ratio(d1, d2)
        q23 = morita_ratio(d2, d3)
        q13 = morita_ratio(d1, d3)
        other = AlgebraDescriptor(random_supernatural(rng))
        ok = (
            morita_ratio(d1, d1) == 1
            and q12 is not None
            and q23 is not None
            and q13 is not None
            and morita_ratio(d2, d1) == 1 / q12
            and q13 == q12 * q23
            and are_morita_equivalent(d1, d2)
            and are_morita_equivalent(d2, d3)
            and are_morita_equivalent(d1, d3)
            and are_morita_equivalent(d1, other) == are_morita_equivalent(other, d1)
        )
        if not ok:
            failures += 1
    _emit(capsys, failures == 0, f"criterion-2 equivalence-relation triples=1000 failures={failures}")


_TOWER_PATTERNS = (
    ONE,
    SupernaturalNumber(0, {2: INF}),
    SupernaturalNumber(0, {3: INF, 7: 2}),
    SupernaturalNumber(1),
    None,  # replaced by a random natural per trial
)


def test_criterion_3_corner_scaling_on_seeded_towers(capsys):
    rng = random.Random(0xC3)
    start = time.perf_counter()
    failures = 0
    for _ in range(100):
        tower = sample_tower(rng, max_order=96)
        r = sample_relative_rank(rng, tower.orders[0])
        pattern = rng.choice(_TOWER_PATTERNS)
        if pattern is None:
            pattern = from_natural(rng.randint(1, 1000))
        descriptor = mul(from_natural(tower.top_order), pattern)
        report = verify_corner_scaling(descriptor, tower, r, seed=rng.randrange(2**32))
        if not report.all_passed:
            failures += 1
    elapsed = time.perf_counter() - start
    _emit(
        capsys,
        failures == 0 and elapsed < 30.0,
        f"criterion-3 corner-scaling trials=100 failures={failures} "
        f"elapsed={elapsed:.2f}s budget=30s",
    )


def test_criterion_4_corner_dimension_and_multiplicativity(capsys):
    rng = random.Random(0xC4)
    failures = 0
    for n in range(1, 9):
        if corner_span_dimension(random_idempotent(n, 0, seed=rng.randrange(2**32))) != 0:
            failures += 1
        for _ in range(2):
            r = rng.randint(1, n)
            e = random_idempotent(n, r, seed=rng.randrange(2**32))
            if corner_span_dimension(e) != r * r:
                failures += 1
                continue
            iso = corner_isomorphism(e)
            for _ in range(20):
                x = e.matrix * random_matrix(rng, n) * e.matrix
                y = e.matrix * random_matrix(rng, n) * e.matrix
                if iso.apply(x * y) != iso.apply(x) * iso.apply(y):
                    failures += 1
                    break
    _emit(
        capsys,
        failures == 0,
        f"criterion-4 corner-dimension-r-squared orders<=8 pairs-per-trial=20 failures={failures}",
    )


def test_criterion_5_tensor_rank_multiplicativity(capsys):
    rng = random.Random(0xC5)

    def draw(n):
        if rng.randrange(2):
            return random_matrix(rng, n)
        return random_low_rank_matrix(rng, n, rng.randint(0, n))

    failures = 0
    for _ in range(200):
        a = draw(rng.randint(1, 6))
        b = draw(rng.randint(1, 6))
        if exact_rank(kron(a, b)) != exact_rank(a) * exact_rank(b):
            failures += 1
    _emit(capsys, failures == 0, f"criterion-5 kron-rank-multiplicative pairs=200 failures={failures}")


def test_criterion_6_fullness_iff_nonzero_rank(capsys):
    rng = random.Random(0xC6)
    failures = 0
    for n in range(1, 6):
        for _ in range(50):
            r = rng.randint(0, n)
            e = random_idempotent(n, r, seed=rng.randrange(2**32))
            if is_full_idempotent(e) != (r > 0):
                failures += 1
    _emit(capsys, failures == 0, f"criterion-6 fullness trials=250 failures={failures}")


def test_criterion_7_witness_soundness(capsys):
    rng = random.Random(0xC7)
    failures = 0
    for _ in range(1_000):
        n = rng.randint(1, 60)
        base = mul(random_supernatural(rng), from_natural(n))
        a = AlgebraDescriptor(base)
        b = AlgebraDescriptor(scale(base, Fraction(rng.randint(1, 60), n)))
        w = morita_witness(a, b)
        ok = (
            w is not None
            and math.gcd(w.k, w.l) == 1
            and mul(from_natural(w.k), a.steinitz) == mul(from_natural(w.l), b.steinitz)
            and are_isomorphic(matrix_over(a, w.k), matrix_over(b, w.l))
        )
        if not ok:
            failures += 1
    _emit(capsys, failures == 0, f"criterion-7 witness-soundness pairs=1000 failures={failures}")


def test_criterion_8_proper_corner_construction(capsys):
    rng = random.Random(0xC8)
    failures = 0
    for _ in range(50):
        n = rng.randint(2, 8)
        m = rng.randint(1, n - 1)
        while math.gcd(m, n) != 1:
            m = rng.randint(1, n - 1)
        stage = rng.randint(1, 6)
        report = proper_corner_witness(m, n, stage)
        by_name = {c.name: c for c in report.checks}
        ok = (
            report.all_passed
            and by_name["relative-rank"].got == str(Fraction(m, n))
            and by_name["corner-order"].got == str(m * stage)
        )
        if not ok:
            failures += 1
    _emit(capsys, failures == 0, f"criterion-8 proper-corner pairs=50 failures={failures}")


_EXIT_MATRIX = [
    (["divides", "2", "2^inf"], 0),
    (["iso", "2^inf*3", "3*2^inf"], 0),
    (["morita", "3*2^inf", "5*2^inf"], 0),
    (["locally-finite", "2^3"], 0),
    (["ratio", "2", "2^4"], 0),
    (["witness", "2*3", "5*7"], 0),
    (["compare", "2", "2^3"], 0),
    (["parse", "2^inf"], 0),
    (["mul", "2", "3"], 0),
    (["lcm", "2^2", "2^5"], 0),
    (["gcd", "2^2", "2^5"], 0),
    (["corner", "2^inf", "3/4"], 0),
    (["decompose", "2^inf", "4"], 0),
    (["enumerate", "2", "2"], 0),
    (["verify", "--seed", "2", "--trials", "3"], 0),
    (["divides", "2^inf", "2"], 1),
    (["iso", "2^inf", "3^inf"], 1),
    (["morita", "2^inf", "3^inf"], 1),
    (["locally-finite", "rest^inf"], 1),
    (["ratio", "2^inf", "3^inf"], 1),
    (["witness", "2^inf", "3^inf"], 1),
    (["compare", "2^inf", "3^inf"], 1),
    (["parse", "4"], 2),
    (["parse", "2*"], 2),
    (["parse", "2*2"], 2),
    (["mul", "2", "x!"], 2),
    (["corner", "2", "0"], 2),
    (["corner", "2", "5/4"], 2),
    (["corner", "6", "1/4"], 2),
    (["decompose", "3", "2"], 2),
    (["enumerate", "2", "-1"], 2),
    (["verify", "--seed", "1", "--trials", "0"], 2),
    (["no-such-command"], 2),
    (["divides"], 2),
    ([], 2),
]


def test_criterion_9_cli_round_trip_and_exit_codes(capsys):
    rng = random.Random(0xC9)
    round_trip_failures = 0
    for _ in range(1_000):
        s = random_supernatural(rng)
        text = format_steinitz(s)
        if parse_steinitz(text) != s or format_steinitz(parse_steinitz(text)) != text:
            round_trip_failures += 1
    matrix_failures = 0
    for argv, want in _EXIT_MATRIX:
        if main(list(argv)) != want:
            matrix_failures += 1
    capsys.readouterr()  # drop accumulated CLI output
    _emit(
        capsys,
        round_trip_failures == 0 and matrix_failures == 0,
        f"criterion-9 cli round-trips=1000 rt-failures={round_trip_failures} "
        f"exit-matrix-cases={len(_EXIT_MATRIX)} matrix-failures={matrix_failures}",
    )
