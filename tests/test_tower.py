import ast
import random
import re
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from steinitz import (
    INF,
    DenominatorDoesNotDivideError,
    IdempotentElement,
    MatrixStage,
    NotADivisorError,
    SpanCapExceededError,
    SupernaturalNumber,
    Tower,
    ZeroIdempotentError,
    corner_isomorphism,
    corner_span_dimension,
    embed,
    exact_rank,
    from_natural,
    is_full_idempotent,
    kron,
    mul,
    proper_corner_witness,
    random_idempotent,
    relative_rank,
    run_verification,
    scale,
    verify_corner_scaling,
)
from steinitz import tower
from steinitz.tower import CheckLine, VerificationReport
from helpers import (
    gauss_inverse,
    gauss_rank,
    matrix_rank_oracle,
    random_low_rank_matrix,
    random_matrix,
)

F = Fraction

REPORT_LINE = re.compile(
    r"^(PASS|FAIL) [A-Za-z0-9.\-]+ stage=\d+ expected=\S+ got=\S+$"
)


class TestMatrixStage:
    def test_construction_normalizes_to_fractions(self):
        m = MatrixStage([[1, F(1, 2)], [0, 3]])
        assert m.entries == ((F(1), F(1, 2)), (F(0), F(3)))
        assert m.order == 2

    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            MatrixStage([[1, 2], [3]])
        with pytest.raises(ValueError):
            MatrixStage([])
        with pytest.raises(ValueError):
            MatrixStage([[1, 2]])

    def test_rejects_floats(self):
        with pytest.raises(TypeError):
            MatrixStage([[0.5]])

    def test_constructors(self):
        assert MatrixStage.identity(2) == MatrixStage([[1, 0], [0, 1]])
        assert MatrixStage.zero(2) == MatrixStage([[0, 0], [0, 0]])
        assert MatrixStage.diagonal([2, F(1, 3)]) == MatrixStage([[2, 0], [0, F(1, 3)]])
        assert MatrixStage.rank_projector(3, 2) == MatrixStage.diagonal([1, 1, 0])
        with pytest.raises(ValueError):
            MatrixStage.rank_projector(3, 4)

    def test_ring_operations(self):
        a = MatrixStage([[1, 2], [3, 4]])
        b = MatrixStage([[0, 1], [1, 0]])
        assert a + b == MatrixStage([[1, 3], [4, 4]])
        assert a - b == MatrixStage([[1, 1], [2, 4]])
        assert a * b == MatrixStage([[2, 1], [4, 3]])
        assert a * MatrixStage.identity(2) == a
        assert a * 2 == MatrixStage([[2, 4], [6, 8]])
        assert F(1, 2) * a == MatrixStage([[F(1, 2), 1], [F(3, 2), 2]])
        assert a.trace() == 5

    def test_order_mismatch(self):
        with pytest.raises(ValueError):
            MatrixStage.identity(2) * MatrixStage.identity(3)
        with pytest.raises(ValueError):
            MatrixStage.identity(2) + MatrixStage.identity(3)

    def test_scalar_float_unsupported(self):
        with pytest.raises(TypeError):
            MatrixStage.identity(2) * 0.5


def _all_int(m: MatrixStage) -> bool:
    return all(type(x) is int for row in m.entries for x in row)


class TestEntryContract:
    """A stage keeps each entry as given: ints stay ints, Fractions stay Fractions."""

    def test_integer_input_stays_int(self):
        a = MatrixStage([[1, 2], [3, 4]])
        b = MatrixStage([[0, -1], [1, 0]])
        for m in (
            a,
            MatrixStage(((1, 2), (3, 4))),
            a * b,
            a * 3,
            3 * a,
            a + b,
            a - b,
            kron(a, b),
            embed(a, 3),
            MatrixStage.identity(3),
            MatrixStage.zero(3),
            MatrixStage.rank_projector(4, 2),
            MatrixStage.diagonal([5, -2]),
            random_idempotent(7, 3, seed=4).matrix,
        ):
            assert _all_int(m), m
        assert type(a.trace()) is int

    def test_fraction_entries_stay_exact(self):
        half = F(1, 2)
        m = MatrixStage([[half, 1], [F(2, 1), F(-3, 4)]])
        assert m.entries == ((half, 1), (2, F(-3, 4)))
        assert type(m.entries[0][0]) is Fraction
        assert type(m.entries[1][0]) is Fraction
        assert type(m.entries[0][1]) is int
        assert (m * m).entries == ((F(9, 4), F(-1, 4)), (F(-1, 2), F(41, 16)))
        assert (m - m) == MatrixStage.zero(2)
        assert m.trace() == F(-1, 4)

    @pytest.mark.parametrize("bad", [True, False, 0.5, 1.0, "1", None])
    def test_non_exact_entries_rejected(self, bad):
        with pytest.raises(TypeError):
            MatrixStage([[1, bad], [0, 1]])
        with pytest.raises(TypeError):
            MatrixStage.diagonal([1, bad])

    def test_from_matrix_derives_order_and_relative_rank(self):
        e = IdempotentElement.from_matrix(MatrixStage.rank_projector(6, 4))
        assert (e.rank, e.stage_order, e.relative_rank) == (4, 6, F(2, 3))
        assert _all_int(e.matrix)
        r = random_idempotent(9, 6, seed=2)
        assert (r.rank, r.stage_order, r.relative_rank) == (6, 9, F(2, 3))

    def test_non_idempotent_rejected(self):
        with pytest.raises(ValueError):
            IdempotentElement.from_matrix(MatrixStage([[2, 0], [0, 1]]))
        with pytest.raises(ValueError):
            IdempotentElement(MatrixStage([[1, 1], [0, 0]]) * 2, 1)
        with pytest.raises(ValueError):
            IdempotentElement(MatrixStage.identity(2), 3)

    def test_no_tuple_built_from_a_generator(self):
        """The package builds every tuple from a list, never from a generator.

        A tuple built from a generator grows by reallocation, so it never
        reuses a freed tuple of its final size; when it is freed it is
        still kept on CPython's per-size free list.  With integer entries
        (few other allocations, so few full gc passes) those lists filled
        to hundreds or thousands of tuples per size, and the verify-tower
        benchmark's peak_rss_mb rose threefold.  The wall-clock benchmark
        is not part of this suite, so this guard keeps the rule.
        """
        offenders = [
            f"{path.name}:{node.lineno}"
            for path in sorted(Path(tower.__file__).parent.glob("*.py"))
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
            if isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "tuple"
            and len(node.args) == 1
            and not node.keywords
            and isinstance(node.args[0], ast.GeneratorExp)
        ]
        assert offenders == [], f"tuple(<generator>) at {offenders}"


class TestExactRank:
    def test_basic_values(self):
        assert exact_rank(MatrixStage.zero(3)) == 0
        assert exact_rank(MatrixStage.identity(4)) == 4
        assert exact_rank(MatrixStage.rank_projector(5, 2)) == 2
        assert exact_rank(MatrixStage([[1, 2], [2, 4]])) == 1

    def test_rational_entries(self):
        m = MatrixStage([[F(1, 2), F(1, 3)], [F(3, 2), 1]])
        assert exact_rank(m) == matrix_rank_oracle(m)

    def test_matches_oracle_on_random_matrices(self):
        rng = random.Random(90125)
        for _ in range(60):
            n = rng.randint(1, 7)
            m = random_matrix(rng, n)
            assert exact_rank(m) == matrix_rank_oracle(m)

    def test_matches_oracle_on_low_rank_matrices(self):
        rng = random.Random(5150)
        for _ in range(60):
            n = rng.randint(2, 7)
            r = rng.randint(0, n)
            m = random_low_rank_matrix(rng, n, r) if r else MatrixStage.zero(n)
            got = exact_rank(m)
            assert got == matrix_rank_oracle(m)
            assert got <= r


class TestKronAndEmbed:
    def test_kron_identity(self):
        assert kron(MatrixStage.identity(2), MatrixStage.identity(3)) == MatrixStage.identity(6)

    def test_kron_example(self):
        a = MatrixStage([[1, 2], [3, 4]])
        b = MatrixStage([[0, 1], [1, 0]])
        top_left = kron(a, b).entries
        assert top_left[0][:4] == (F(0), F(1), F(0), F(2))
        assert kron(a, b).order == 4

    def test_rank_multiplicative_sample(self):
        rng = random.Random(2112)
        for _ in range(25):
            a = random_matrix(rng, rng.randint(1, 4))
            b = random_low_rank_matrix(rng, rng.randint(2, 4), 1)
            assert exact_rank(kron(a, b)) == exact_rank(a) * exact_rank(b)

    def test_embed_is_unital_and_preserves_relative_rank(self):
        rng = random.Random(777)
        a = random_matrix(rng, 3)
        big = embed(a, 4)
        assert big.order == 12
        assert embed(MatrixStage.identity(3), 4) == MatrixStage.identity(12)
        assert relative_rank(big) == relative_rank(a)
        assert exact_rank(big) == 4 * exact_rank(a)

    def test_embed_one_is_identity(self):
        a = MatrixStage([[1, 2], [3, 4]])
        assert embed(a, 1) == a

    def test_embed_rejects_bad_multiplicity(self):
        with pytest.raises(ValueError):
            embed(MatrixStage.identity(2), 0)
        with pytest.raises(ValueError):
            embed(MatrixStage.identity(2), True)

    def test_embed_is_multiplicative(self):
        rng = random.Random(31415)
        a, b = random_matrix(rng, 3), random_matrix(rng, 3)
        assert embed(a * b, 3) == embed(a, 3) * embed(b, 3)


class TestRandomIdempotent:
    def test_deterministic_per_seed(self):
        a = random_idempotent(6, 2, seed=11)
        b = random_idempotent(6, 2, seed=11)
        c = random_idempotent(6, 2, seed=12)
        assert a == b
        assert a != c

    def test_zero_and_full_rank(self):
        assert random_idempotent(3, 0, seed=5).matrix == MatrixStage.zero(3)
        assert random_idempotent(3, 3, seed=5).matrix == MatrixStage.identity(3)

    def test_idempotent_with_expected_rank_and_trace(self):
        rng = random.Random(8128)
        for _ in range(40):
            n = rng.randint(1, 8)
            r = rng.randint(0, n)
            e = random_idempotent(n, r, seed=rng.randrange(10**9))
            m = e.matrix
            assert m * m == m
            assert exact_rank(m) == r == e.rank
            # For an idempotent the trace equals the rank: an independent oracle.
            assert m.trace() == r
            assert e.relative_rank == F(r, n)
            assert all(x.denominator == 1 for row in m.entries for x in row)

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            random_idempotent(0, 0, seed=1)
        with pytest.raises(ValueError):
            random_idempotent(3, 4, seed=1)
        with pytest.raises(ValueError):
            random_idempotent(3, -1, seed=1)

    def test_from_matrix_validates(self):
        e = IdempotentElement.from_matrix(MatrixStage.rank_projector(4, 2))
        assert (e.rank, e.stage_order) == (2, 4)
        with pytest.raises(ValueError):
            IdempotentElement.from_matrix(MatrixStage([[1, 1], [0, 1]]))


class TestCornerIsomorphism:
    def test_diagonalizes(self):
        e = random_idempotent(5, 2, seed=3)
        iso = corner_isomorphism(e)
        assert iso.to_diagonal * e.matrix * iso.from_diagonal == MatrixStage.rank_projector(5, 2)

    def test_apply_lift_inverse_bijection(self):
        rng = random.Random(404)
        e = random_idempotent(6, 3, seed=99)
        iso = corner_isomorphism(e)
        for _ in range(10):
            y = random_matrix(rng, 3)
            assert iso.apply(iso.lift(y)) == y
            x = e.matrix * random_matrix(rng, 6) * e.matrix
            assert iso.lift(iso.apply(x)) == x

    def test_multiplicative_and_unital(self):
        rng = random.Random(606)
        e = random_idempotent(5, 3, seed=42)
        iso = corner_isomorphism(e)
        assert iso.apply(e.matrix) == MatrixStage.identity(3)
        for _ in range(10):
            x = e.matrix * random_matrix(rng, 5) * e.matrix
            y = e.matrix * random_matrix(rng, 5) * e.matrix
            assert iso.apply(x * y) == iso.apply(x) * iso.apply(y)
            assert iso.apply(x + y) == iso.apply(x) + iso.apply(y)

    def test_lift_lands_in_the_corner(self):
        rng = random.Random(808)
        e = random_idempotent(4, 2, seed=77)
        iso = corner_isomorphism(e)
        y = random_matrix(rng, 2)
        x = iso.lift(y)
        assert e.matrix * x == x
        assert x * e.matrix == x

    def test_rational_idempotents(self):
        # e = q * diag(1,..,1,0,..,0) * q^-1 with rational q: non-integer
        # entries take the rational path of the change of basis.
        rng = random.Random(4242)
        non_integer = 0
        for _ in range(30):
            n = rng.randint(2, 7)
            r = rng.randint(1, n - 1)
            q_inv = None
            while q_inv is None:
                q = random_matrix(rng, n)
                q_inv = gauss_inverse(q.entries)
            e = IdempotentElement.from_matrix(
                q * MatrixStage.rank_projector(n, r) * MatrixStage(q_inv)
            )
            assert e.rank == r
            non_integer += any(x.denominator > 1 for row in e.matrix.entries for x in row)
            iso = corner_isomorphism(e)
            to_diag, from_diag = iso.to_diagonal, iso.from_diagonal
            assert to_diag * e.matrix * from_diag == MatrixStage.rank_projector(n, r)
            assert to_diag * from_diag == MatrixStage.identity(n)
            y = random_matrix(rng, r)
            assert iso.apply(iso.lift(y)) == y
            x = e.matrix * random_matrix(rng, n) * e.matrix
            assert iso.lift(iso.apply(x)) == x
            # The basis is the first independent columns of e, then of 1 - e.
            for m, picked in (
                (e.matrix, range(r)),
                (MatrixStage.identity(n) - e.matrix, range(r, n)),
            ):
                cols = [[row[j] for row in m.entries] for j in range(n)]
                first = [
                    cols[j] for j in range(n)
                    if gauss_rank(cols[: j + 1]) > gauss_rank(cols[:j])
                ]
                assert [[row[k] for row in from_diag.entries] for k in picked] == first
        assert non_integer >= 20

    def test_zero_idempotent_rejected(self):
        with pytest.raises(ZeroIdempotentError):
            corner_isomorphism(random_idempotent(3, 0, seed=1))

    def test_wrong_orders_rejected(self):
        iso = corner_isomorphism(random_idempotent(4, 2, seed=9))
        with pytest.raises(ValueError):
            iso.apply(MatrixStage.identity(3))
        with pytest.raises(ValueError):
            iso.lift(MatrixStage.identity(3))


class TestCornerSpanAndFullness:
    def test_span_dimension_is_rank_squared(self):
        rng = random.Random(1001)
        for _ in range(20):
            n = rng.randint(1, 6)
            r = rng.randint(0, n)
            e = random_idempotent(n, r, seed=rng.randrange(10**9))
            assert corner_span_dimension(e) == r * r

    def test_span_accepts_raw_matrix(self):
        assert corner_span_dimension(MatrixStage.rank_projector(4, 3)) == 9

    def test_fullness_iff_nonzero(self):
        rng = random.Random(2002)
        for n in range(1, 6):
            for r in range(0, n + 1):
                e = random_idempotent(n, r, seed=rng.randrange(10**9))
                assert is_full_idempotent(e) == (r > 0)

    def test_cap_enforced_and_overridable(self):
        e = random_idempotent(7, 1, seed=4)
        with pytest.raises(SpanCapExceededError):
            is_full_idempotent(e)
        assert is_full_idempotent(e, cap=7)


class TestTower:
    def test_multiplicities(self):
        t = Tower((4, 8, 24))
        assert t.multiplicities == (2, 3)
        assert t.top_order == 24
        assert Tower((5,)).multiplicities == ()

    def test_constant_stages_allowed(self):
        assert Tower((3, 3, 6)).multiplicities == (1, 2)

    def test_rejects_non_chains(self):
        with pytest.raises(ValueError):
            Tower((4, 6))
        with pytest.raises(ValueError):
            Tower(())
        with pytest.raises(ValueError):
            Tower((0, 4))
        with pytest.raises(ValueError):
            Tower((4, True))


class TestReports:
    def test_check_line_rendering(self):
        line = CheckLine("corner-order", 8, "6", "6", True)
        assert line.render() == "PASS corner-order stage=8 expected=6 got=6"
        bad = CheckLine("corner-order", 8, "6", "5", False)
        assert bad.render() == "FAIL corner-order stage=8 expected=6 got=5"

    def test_report_aggregation(self):
        ok = CheckLine("a", 1, "1", "1", True)
        bad = CheckLine("b", 1, "1", "2", False)
        assert VerificationReport((ok,)).all_passed
        assert not VerificationReport((ok, bad)).all_passed
        merged = VerificationReport.merge(
            [VerificationReport((ok,)), VerificationReport((bad,))]
        )
        assert [c.name for c in merged.checks] == ["a", "b"]
        pref = merged.prefixed("suite")
        assert [c.name for c in pref.checks] == ["suite.a", "suite.b"]

    def test_rendered_lines_are_machine_parseable(self):
        report = run_verification(seed=5, trials=4)
        for line in report.render().splitlines():
            assert REPORT_LINE.match(line), line


class TestVerifyCornerScaling:
    def test_frozen_example(self):
        st_val = SupernaturalNumber(0, {2: INF})
        report = verify_corner_scaling(st_val, Tower((4, 8, 16)), F(3, 4), seed=1)
        assert report.all_passed
        orders = [
            int(c.got) for c in report.checks if c.name == "corner-order"
        ]
        assert orders == [3, 6, 12]
        lcm_checks = [c for c in report.checks if c.name == "corner-order-lcm"]
        assert len(lcm_checks) == 1
        assert lcm_checks[0].expected == "2^2*3"

    def test_relative_rank_constant_across_stages(self):
        report = verify_corner_scaling(
            from_natural(96), Tower((6, 24, 96)), F(1, 2), seed=23
        )
        assert report.all_passed
        rel = [c for c in report.checks if c.name == "relative-rank"]
        assert len(rel) == 3
        assert {c.got for c in rel} == {"1/2"}

    def test_symbolic_corner_consistency(self):
        st_val = mul(SupernaturalNumber(0, {5: INF}), from_natural(8))
        report = verify_corner_scaling(st_val, Tower((8,)), F(5, 8), seed=7)
        assert report.all_passed
        expected_corner = scale(st_val, F(5, 8))
        div = [c for c in report.checks if c.name == "corner-divides-steinitz"]
        assert div and div[0].got == "YES"
        assert expected_corner == mul(from_natural(5), SupernaturalNumber(0, {5: INF}))

    def test_bad_inputs(self):
        st_val = SupernaturalNumber(0, {2: INF, 3: INF})
        with pytest.raises(DenominatorDoesNotDivideError):
            verify_corner_scaling(st_val, Tower((4, 8)), F(1, 3), seed=0)
        with pytest.raises(NotADivisorError):
            verify_corner_scaling(from_natural(8), Tower((4, 16)), F(1, 2), seed=0)
        with pytest.raises(ValueError):
            verify_corner_scaling(st_val, Tower((4, 8)), F(3, 2), seed=0)
        with pytest.raises(TypeError):
            verify_corner_scaling(st_val, Tower((4, 8)), 0.5, seed=0)
        with pytest.raises(ValueError):
            verify_corner_scaling(st_val, Tower((2, 128)), F(1, 2), seed=0)

    def test_deterministic_per_seed(self):
        st_val = SupernaturalNumber(0, {2: INF, 3: 2})
        a = verify_corner_scaling(st_val, Tower((6, 12)), F(2, 3), seed=5)
        b = verify_corner_scaling(st_val, Tower((6, 12)), F(2, 3), seed=5)
        assert a.render() == b.render()


class TestProperCornerWitness:
    def test_example_2_3(self):
        report = proper_corner_witness(2, 3, 2)
        assert report.all_passed
        by_name = {c.name: c for c in report.checks}
        assert by_name["corner-order"].got == "4"
        assert by_name["relative-rank"].got == "2/3"
        assert by_name["symbolic-corner"].passed

    def test_all_coprime_pairs_small(self):
        import math

        for n in range(2, 9):
            for m in range(1, n):
                if math.gcd(m, n) != 1:
                    continue
                assert proper_corner_witness(m, n, 3).all_passed

    def test_rejects_bad_pairs(self):
        with pytest.raises(ValueError):
            proper_corner_witness(3, 3, 1)
        with pytest.raises(ValueError):
            proper_corner_witness(2, 4, 1)
        with pytest.raises(ValueError):
            proper_corner_witness(0, 3, 1)
        with pytest.raises(ValueError):
            proper_corner_witness(1, 3, 0)


class TestRunVerification:
    def test_deterministic(self):
        assert run_verification(seed=9, trials=6).render() == run_verification(seed=9, trials=6).render()

    def test_all_pass_over_several_seeds(self):
        for seed in range(5):
            report = run_verification(seed=seed, trials=8)
            assert report.all_passed, report.render()

    def test_contains_all_three_suites(self):
        names = {c.name.split(".")[0] for c in run_verification(seed=1, trials=8).checks}
        assert names == {"corner-tower", "proper-corner", "corner-span"}

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            run_verification(seed=0, trials=0)
        with pytest.raises(ValueError):
            run_verification(seed=0, max_order=1)


@given(st.integers(min_value=1, max_value=5), st.integers(min_value=1, max_value=5))
def test_kron_of_projectors(m, n):
    p = kron(MatrixStage.rank_projector(3, min(m, 3)), MatrixStage.rank_projector(5, n))
    assert exact_rank(p) == min(m, 3) * n
