import ast
import hashlib
import inspect
import math
import random
import re
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from steinitz import (
    INF,
    DenominatorDoesNotDivideError,
    FULLNESS_ORDER_CAP,
    IdempotentElement,
    InvalidArgumentError,
    MatrixStage,
    NotADivisorError,
    SPAN_ORDER_CAP,
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
import steinitz
from steinitz import tower
from steinitz.tower import CheckLine, VerificationReport
from helpers import (
    gauss_inverse,
    gauss_rank,
    matrix_rank_oracle,
    plain_product,
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
        e = IdempotentElement(MatrixStage.rank_projector(6, 4))
        assert (e.rank, e.stage_order, e.relative_rank) == (4, 6, F(2, 3))
        assert _all_int(e.matrix)
        r = random_idempotent(9, 6, seed=2)
        assert (r.rank, r.stage_order, r.relative_rank) == (6, 9, F(2, 3))

    def test_non_idempotent_rejected(self):
        with pytest.raises(ValueError):
            IdempotentElement(MatrixStage([[2, 0], [0, 1]]))
        with pytest.raises(ValueError):
            IdempotentElement(MatrixStage([[1, 1], [0, 0]]) * 2)

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

    def test_no_plain_value_error_is_raised(self):
        """Argument errors raise InvalidArgumentError or ArgumentTypeError, SteinitzErrors
        that are still a ValueError and a TypeError: no plain ValueError or TypeError."""
        offenders = [
            f"{path.name}:{node.lineno}"
            for path in sorted(Path(tower.__file__).parent.glob("*.py"))
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
            if isinstance(node, ast.Raise)
            and node.exc is not None
            and isinstance(getattr(node.exc, "func", node.exc), ast.Name)
            and getattr(node.exc, "func", node.exc).id in {"ValueError", "TypeError"}
        ]
        assert offenders == [], f"raise ValueError or TypeError at {offenders}"

    def test_every_import_is_used(self):
        """Each name a package module imports is used there (__init__ re-exports its imports)."""
        offenders = []
        for path in sorted(Path(tower.__file__).parent.glob("*.py")):
            if path.name == "__init__.py":
                continue
            tree = ast.parse(path.read_text(encoding="utf-8"))
            used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
            for node in ast.walk(tree):
                if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                    continue
                if isinstance(node, (ast.Import, ast.ImportFrom)):
                    for alias in node.names:
                        name = alias.asname or alias.name.split(".")[0]
                        if name not in used:
                            offenders.append(f"{path.name}:{node.lineno} {name}")
        assert offenders == [], f"unused imports: {offenders}"

    def test_no_floating_point_in_the_package(self):
        """No float constant and no float(...) call anywhere in the package."""
        offenders = [
            f"{path.name}:{node.lineno}"
            for path in sorted(Path(tower.__file__).parent.glob("*.py"))
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
            if (isinstance(node, ast.Constant) and isinstance(node.value, (float, complex)))
            or (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id == "float"
            )
        ]
        assert offenders == [], f"floating point at {offenders}"


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

    @staticmethod
    def _block_stages():
        """Seeded stages with diagonal blocks: embed and kron stages of integer and
        rational blocks, then zero rows and columns, and one nonzero just outside
        a block boundary."""
        rng = random.Random(2525)
        for _ in range(110):
            m = rng.randint(1, 8)
            e = random_idempotent(m, rng.randint(0, m), rng.randrange(2**32)).matrix
            b = random_matrix(rng, rng.randint(1, 4))
            k = rng.randint(1, 5)
            yield embed(e, k)
            yield embed(b, k)
            yield kron(b, MatrixStage.rank_projector(3, rng.randint(0, 3)))
            scales = [rng.choice((0, 1, -2, F(2, 3))) for _ in range(k)]
            yield kron(MatrixStage.diagonal(scales), e)
            rows = [list(row) for row in embed(e, k).entries]
            zero_row, zero_col = rng.randrange(m * k), rng.randrange(m * k)
            rows[zero_row] = [0] * (m * k)
            for row in rows:
                row[zero_col] = 0
            yield MatrixStage(rows)
            if k > 1:
                rows = [list(row) for row in embed(b, k).entries]
                t = b.order * rng.randint(1, k - 1)
                i, j = rng.choice(((t - 1, t), (t, t - 1)))
                rows[i][j] = rng.choice((1, -2, F(1, 3)))
                yield MatrixStage(rows)

    def test_block_wise_rank_matches_gauss_rank(self):
        count = 0
        for stage in self._block_stages():
            assert exact_rank(stage) == gauss_rank(stage.entries), stage.entries
            count += 1
        assert count >= 500

    @staticmethod
    def _recording_echelon(monkeypatch):
        """Patch ``tower._echelon`` to record the (row count, row widths) of each call."""
        calls = []
        real = tower._echelon

        def recording(rows, reduced=False):
            rows = list(rows)
            calls.append((len(rows), {len(row) for row in rows}))
            return real(rows, reduced)

        monkeypatch.setattr(tower, "_echelon", recording)
        return calls

    def test_one_elimination_per_embedded_block(self, monkeypatch):
        calls = self._recording_echelon(monkeypatch)
        for m, r, k in ((24, 12, 16), (5, 2, 4), (12, 11, 3), (96, 40, 4), (2, 1, 2)):
            e = random_idempotent(m, r, seed=m).matrix
            calls.clear()
            assert exact_rank(e) == r
            assert calls == [(m, {m})], (m, r)
            calls.clear()
            assert exact_rank(embed(e, k)) == k * r
            assert calls == [(m, {m})] * k, (m, r, k)

    def test_a_nonzero_outside_a_boundary_merges_two_blocks(self, monkeypatch):
        calls = self._recording_echelon(monkeypatch)
        b = MatrixStage([[1, 2, 3], [2, 4, 6], [1, 1, F(1, 2)]])
        three, six, nine = (3, {3}), (6, {6}), (9, {9})
        cases = {
            (2, 3): [six, three, three],
            (3, 2): [six, three, three],
            (5, 6): [three, six, three],
            (9, 8): [three, three, six],
            # Further out, the one entry ties the blocks between its row and column.
            (5, 9): [three, nine],
            (9, 5): [three, nine],
        }
        for (i, j), expected in cases.items():
            rows = [list(row) for row in embed(b, 4).entries]
            rows[i][j] = 5
            calls.clear()
            assert exact_rank(MatrixStage(rows)) == gauss_rank(rows)
            assert calls == expected, (i, j)

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

    @staticmethod
    def _corrupting(rows):
        """A stub of ``_unimodular`` adding 1 to one entry of each chosen row of the inverse.

        The entry sits in a column j with P[j][0] != 0, so a changed row of C
        changes C B.
        """
        real = tower._unimodular

        def stub(n, rng):
            p, p_inv = real(n, rng)
            j = next(j for j in range(n) if p[j][0])
            for i in rows(n):
                p_inv[i][j] += 1
            return p, p_inv

        return stub

    def test_factor_certificate_self_check(self, monkeypatch):
        """A wrong entry in C = P^-1[:r, :] fails C B = I_r: a RuntimeError, not an argument error."""
        n, r = 5, 2
        for i in range(r):
            monkeypatch.setattr(tower, "_unimodular", self._corrupting(lambda n: [i]))
            with pytest.raises(RuntimeError, match=r"C B = I_r") as exc:
                random_idempotent(n, r, seed=3)
            assert not isinstance(exc.value, InvalidArgumentError)

    def test_rows_past_the_rank_are_not_read(self, monkeypatch):
        """e = B C uses only the first r rows of P^-1: corrupting the rest changes nothing."""
        for n, r in ((5, 2), (12, 5), (24, 1)):
            expected = random_idempotent(n, r, seed=3)
            monkeypatch.setattr(tower, "_unimodular", self._corrupting(lambda n: range(r, n)))
            assert random_idempotent(n, r, seed=3) == expected
            monkeypatch.undo()

    def test_one_cubic_product_per_idempotent(self, monkeypatch):
        """C B (r x n x r), then e = B C (n x r x n); the certificate stands in for e e.

        Rank 0 builds the zero stage through the public constructor, whose
        proof is the one n x n x n product.
        """
        shapes = []
        real = tower._matmul_rows

        def recording(a, b):
            shapes.append((len(a), len(b), len(b[0])))
            return real(a, b)

        monkeypatch.setattr(tower, "_matmul_rows", recording)
        for n, r in ((1, 1), (5, 2), (24, 12), (40, 39), (96, 40)):
            shapes.clear()
            random_idempotent(n, r, seed=n)
            assert shapes == [(r, n, r), (n, r, n)], (n, r)
        shapes.clear()
        random_idempotent(7, 0, seed=1)
        assert shapes == [(7, 7, 7)]

    # sha256 of repr(e.matrix.entries) over n = 1..40, r in sorted({0, 1, n // 2, n})
    # and seeds 0..2, recorded while P P^-1 = I was still checked in full.
    VALUES_SHA256 = "d585ebd2adf94b46f55004ee23ef692294c8c8a76d884dc3d930dfa61087c20c"

    def test_values_pinned(self):
        digest = hashlib.sha256()
        for n in range(1, 41):
            for r in sorted({0, 1, n // 2, n}):
                for s in range(3):
                    digest.update(repr(random_idempotent(n, r, s).matrix.entries).encode())
        assert digest.hexdigest() == self.VALUES_SHA256

    def test_public_constructor_accepts_every_certified_element(self):
        """Each seeded idempotent of the pinned corpus passes the public proof unchanged."""
        for n in range(1, 41):
            for r in sorted({0, 1, n // 2, n}):
                for s in range(3):
                    e = random_idempotent(n, r, s)
                    assert (type(e.rank), e.rank) == (int, r)
                    assert IdempotentElement(e.matrix) == e, (n, r, s)

    @pytest.mark.parametrize("seed", [None, 7.5, "7", True, Fraction(1, 2)])
    def test_seed_must_be_an_int(self, seed):
        message = f"^seed must be an int, got {re.escape(repr(seed))}$"
        for call in (
            lambda: random_idempotent(4, 2, seed),
            lambda: verify_corner_scaling(from_natural(4), Tower((4,)), F(1, 2), seed),
            lambda: run_verification(seed, 24, 2),
        ):
            with pytest.raises(InvalidArgumentError, match=message):
                call()

    def test_from_matrix_validates(self):
        e = IdempotentElement(MatrixStage.rank_projector(4, 2))
        assert (e.rank, e.stage_order) == (2, 4)
        with pytest.raises(ValueError):
            IdempotentElement(MatrixStage([[1, 1], [0, 1]]))


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
            e = IdempotentElement(q * MatrixStage.rank_projector(n, r) * MatrixStage(q_inv))
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

    def test_no_row_wider_than_the_stage(self, monkeypatch):
        """The inverse comes from the eliminations of e and 1 - e, not of [basis | I]."""
        widths = []
        echelon = tower._echelon

        def recording(rows, *args, **kwargs):
            rows = [list(row) for row in rows]
            widths.extend([len(row) for row in rows])
            return echelon(rows, *args, **kwargs)

        monkeypatch.setattr(tower, "_echelon", recording)
        for n, r in ((1, 1), (5, 2), (8, 8), (12, 7)):
            widths.clear()
            corner_isomorphism(random_idempotent(n, r, seed=n + r))
            assert widths and max(widths) == n, (n, r)


def _corner_cases():
    """Seeded idempotents: integer ones at n <= 24 and every rank, then rational ones."""
    rng = random.Random(1729)
    for n in (1, 2, 3, 5, 8, 13, 24):
        for r in sorted({1, 2, n // 3, n // 2, n - 1, n} - {0}) if n > 8 else range(1, n + 1):
            yield random_idempotent(n, r, rng.randrange(2**32)), rng
    for _ in range(12):
        n = rng.randint(2, 7)
        r = rng.randint(1, n - 1)
        q_inv = None
        while q_inv is None:
            q = random_matrix(rng, n)
            q_inv = gauss_inverse(q.entries)
        yield IdempotentElement(q * MatrixStage.rank_projector(n, r) * MatrixStage(q_inv)), rng


def _rows(m: MatrixStage) -> list[list]:
    return [list(row) for row in m.entries]


class TestCornerMapsAgainstOracles:
    """The rank-factor maps against plain Fraction products and a Gauss-Jordan inverse."""

    def test_to_diagonal_inverts_from_diagonal(self):
        for e, _ in _corner_cases():
            iso = corner_isomorphism(e)
            assert _rows(iso.to_diagonal) == gauss_inverse(iso.from_diagonal.entries)

    def test_apply_is_the_leading_block(self):
        for e, rng in _corner_cases():
            iso = corner_isomorphism(e)
            n, r = e.stage_order, e.rank
            x = random_matrix(rng, n)
            full = plain_product(
                plain_product(iso.to_diagonal.entries, x.entries), iso.from_diagonal.entries
            )
            assert _rows(iso.apply(x)) == [row[:r] for row in full[:r]]

    def test_lift_is_the_padded_conjugate(self):
        for e, rng in _corner_cases():
            iso = corner_isomorphism(e)
            n, r = e.stage_order, e.rank
            y = random_matrix(rng, r)
            pad = [list(row) + [0] * (n - r) for row in y.entries] + [[0] * n] * (n - r)
            expect = plain_product(
                plain_product(iso.from_diagonal.entries, pad), iso.to_diagonal.entries
            )
            assert _rows(iso.lift(y)) == expect


class TestRandomIdempotentOracle:
    def test_conjugate_of_the_projector(self):
        rng = random.Random(31337)
        for n in (1, 2, 4, 7, 12, 20, 24):
            for r in range(0, n + 1, 1 + n // 8):
                s = rng.randrange(2**32)
                p, p_inv = tower._unimodular(n, random.Random(s))
                proj = [[int(i == j and i < r) for j in range(n)] for i in range(n)]
                e = random_idempotent(n, r, s)
                assert _rows(e.matrix) == plain_product(plain_product(p, proj), p_inv), (n, r)
                assert _all_int(e.matrix)


class TestDerivedRank:
    """The rank an idempotent reads off its trace against plain Gaussian elimination."""

    @staticmethod
    def cases():
        rng = random.Random(1414)
        # Seeded idempotents at every order up to 40, at the verify cap and
        # at the stage cap.
        for n in range(1, 41):
            for r in sorted({0, 1, n // 2, n - 1, n}):
                yield random_idempotent(n, r, rng.randrange(2**32))
        for n, ranks in ((96, (0, 1, 2, 95, 96)), (384, (383,))):
            for r in ranks:
                yield random_idempotent(n, r, rng.randrange(2**32))
        for n in range(1, 13):
            for r in range(n + 1):
                yield IdempotentElement(MatrixStage.rank_projector(n, r))
        conjugates = 0
        while conjugates < 150:
            n = rng.randint(1, 7)
            q = random_matrix(rng, n)
            q_inv = gauss_inverse(q.entries)
            if q_inv is not None:
                p = MatrixStage.rank_projector(n, rng.randint(0, n))
                yield IdempotentElement(q * p * MatrixStage(q_inv))
                conjugates += 1
        for _ in range(40):
            n = rng.randint(1, 6)
            a = random_idempotent(n, rng.randint(0, n), rng.randrange(2**32))
            b = IdempotentElement(MatrixStage.rank_projector(3, rng.randint(0, 3)))
            yield IdempotentElement(embed(a.matrix, rng.randint(1, 4)))
            yield IdempotentElement(kron(a.matrix, b.matrix))

    def test_rank_is_the_gauss_rank(self):
        count = 0
        for e in self.cases():
            assert type(e.rank) is int
            assert e.rank == gauss_rank(e.matrix.entries), (e.stage_order, e.rank)
            count += 1
        assert count >= 500


class _DirectRandom(random.Random):
    """A Random that counts its getrandbits calls and refuses every other draw.

    Overriding getrandbits keeps ``_randbelow_with_getrandbits``, so the
    stream is that of ``random.Random`` with the same seed.
    """

    def __init__(self, seed):
        super().__init__(seed)
        self.calls = 0

    def getrandbits(self, k):
        self.calls += 1
        return super().getrandbits(k)

    def _refused(self, *args, **kwargs):
        raise AssertionError("_unimodular must draw through getrandbits only")

    sample = randrange = choice = _refused


class TestUnimodularPinned:
    def test_rows_are_pinned(self):
        """The shears, their order and the RNG stream behind every seeded idempotent."""

        def digest(orders):
            text = repr([tower._unimodular(n, random.Random(7 * n)) for n in orders])
            return hashlib.sha256(text.encode()).hexdigest()

        # Up to order 21 the pair is drawn as random.Random.sample(range(n), 2) draws it.
        assert digest(range(1, 22)) == (
            "83f66689752a47183ba075a0440f7d09e7c7bf8c2024af70c8b97f44946a1bb4"
        )
        assert digest(range(1, 30)) == (
            "1aa19cfe7f99ae5c0f092043ed67ca987e78f85f90ab724caf18ca025a8a6cf8"
        )
        # Recorded while each row of P was still a list of ints, not one packed int.
        assert digest(range(30, 97)) == (
            "e92eaaf1a95a86a2745fc2e48fbd3871ce7f99232aa8a1b4a847b37ccfc0d13c"
        )
        assert digest((383, 384)) == (
            "da9df8d9c73b5f8135eb619b04921ecd2c622cb3864f4f1b3e644486ad829e58"
        )

    def test_packed_bound_test_matches_min_and_max(self):
        """The two masks agree with -bound <= min(row) and max(row) <= bound on fields in [-9, 9]."""
        bound = tower._UNIMODULAR_ENTRY_BOUND
        rng = random.Random(9009)
        for n in (1, 2, 3, 8, 96, 384):
            ones, over, under, high = tower._packed_masks(n)
            assert ones == sum(256**i for i in range(n))
            for v in range(-9, 10):
                for pos in sorted({0, n // 2, n - 1}):
                    for fill in (range(-bound, bound + 1), range(-9, 10), [0]):
                        row = [rng.choice(fill) for _ in range(n)]
                        row[pos] = v
                        q = sum(x * 256**i for i, x in enumerate(row))
                        within = -bound <= min(row) and max(row) <= bound
                        masked = not (q + over) & high and (q + under) & high == high
                        assert masked == within, (n, pos, v, row)
                        if within:
                            unpacked = (q + bound * ones).to_bytes(n, "little")
                            assert [x - bound for x in unpacked] == row

    def test_draws_only_getrandbits(self):
        for n in (1, 2, 3, 5, 21, 22, 40, 96):
            for s in (0, 1, 2**31 + n):
                direct = _DirectRandom(s)
                assert tower._unimodular(n, direct) == tower._unimodular(n, random.Random(s))
                assert (direct.calls > 0) == (n > 1)


def _entry_types(m: MatrixStage) -> list[type]:
    return [type(x) for row in m.entries for x in row]


class TestTrustedBuilder:
    """Stages the tower computes skip the entry scan; the public constructor must accept them."""

    def test_every_trusted_stage_passes_the_public_constructor(self, monkeypatch):
        made = []
        trusted = tower.MatrixStage._trusted.__func__

        def recording(cls, rows):
            stage = trusted(cls, rows)
            made.append(stage)
            return stage

        monkeypatch.setattr(tower.MatrixStage, "_trusted", classmethod(recording))
        rng = random.Random(8086)
        corpus = []
        for n in range(1, 25):
            for r in range(n + 1):
                corpus.append(random_idempotent(n, r, rng.randrange(2**32)).matrix)
        for n in (1, 2, 3, 5, 8):
            ints = [
                MatrixStage([[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)])
                for _ in range(2)
            ]
            rats = [random_matrix(rng, n) for _ in range(2)]
            for a, b in ((ints[0], ints[1]), (rats[0], rats[1]), (ints[0], rats[1])):
                corpus += [a * b, b * a, a + b, a - b, a * F(2, 3), 3 * a, a * -2]
                corpus += [kron(a, b), embed(a, 3), embed(b, 1)]
        for e, rng in _corner_cases():
            iso = corner_isomorphism(e)
            corpus += [iso.to_diagonal, iso.from_diagonal]
            corpus.append(iso.apply(random_matrix(rng, e.stage_order)))
            corpus.append(iso.lift(random_matrix(rng, e.rank)))
        # Every stage of the corpus came through the trusted builder, and more besides.
        assert {id(m) for m in corpus} <= {id(m) for m in made}
        assert len(made) > len(corpus)
        for stage in made:
            assert type(stage.entries) is tuple
            assert all(type(row) is tuple for row in stage.entries)
            rebuilt = MatrixStage([list(row) for row in stage.entries])
            assert rebuilt.entries == stage.entries
            assert _entry_types(rebuilt) == _entry_types(stage)


class TestComplexityGuard:
    """Deterministic counts instead of wall clocks for the tower's integer fast path."""

    def test_verify_checks_only_the_values_passed_in(self, monkeypatch):
        """No stage built from stages is scanned again: only diagonal values and scalars are."""
        counts = {"checks": 0, "passed_in": 0}
        is_exact = tower._is_exact
        diagonal = tower.MatrixStage.diagonal.__func__
        product = tower.MatrixStage.__mul__

        def counting_is_exact(x):
            counts["checks"] += 1
            return is_exact(x)

        def counting_diagonal(cls, values):
            counts["passed_in"] += len(values)
            return diagonal(cls, values)

        def counting_product(self, other):
            if not isinstance(other, MatrixStage):
                counts["passed_in"] += 1
            return product(self, other)

        monkeypatch.setattr(tower, "_is_exact", counting_is_exact)
        monkeypatch.setattr(tower.MatrixStage, "diagonal", classmethod(counting_diagonal))
        monkeypatch.setattr(tower.MatrixStage, "__mul__", counting_product)
        monkeypatch.setattr(tower.MatrixStage, "__rmul__", counting_product)
        assert run_verification(7, 96, 20).all_passed
        assert counts["checks"] <= counts["passed_in"], counts

    def test_integer_rows_never_clear_denominators(self, monkeypatch):
        calls = []
        cleared = tower._cleared_row

        def counting(row):
            calls.append(len(row))
            return cleared(row)

        monkeypatch.setattr(tower, "_cleared_row", counting)
        assert run_verification(7, 96, 20).all_passed
        assert calls == []
        half = F(1, 2)
        corner_isomorphism(IdempotentElement(MatrixStage([[half, half], [half, half]])))
        assert calls


class TestRowKernels:
    def test_primitive_rows_match_a_fraction_oracle(self):
        rng = random.Random(99)
        for _ in range(300):
            n = rng.randint(0, 7)
            row = [rng.choice((0, 0, 1, -4, 6, 12, F(3, 4), F(-5, 6))) for _ in range(n)]
            if rng.random() < 0.5:
                row = [int(x) * rng.choice((1, 2, 6)) for x in row]
            got = tower._primitive_int_row(tuple(row))
            if not any(row):
                assert got is None
                continue
            lcm = 1
            for x in row:
                lcm = lcm * F(x).denominator // math.gcd(lcm, F(x).denominator)
            scaled = [int(x * lcm) for x in row]
            g = math.gcd(*scaled)
            assert got == [x // g for x in scaled], row
            assert {type(x) for x in got} == {int}

    # sha256 of repr(_echelon(rows, reduced)) over _echelon_corpus() in both modes,
    # recorded while the rows above a pivot had an update loop of their own.
    ECHELON_SHA256 = "d39d6095dff9cb8f602389ac59ebb6f23830abc513c16be0948b872836ed4bef"

    @staticmethod
    def _echelon_corpus():
        """Seeded row lists, n <= 40: integer, rational, low-rank and rectangular
        matrices, seeded idempotents and embed stages of them."""
        rng = random.Random(2424)
        for n in (1, 2, 3, 5, 8, 13, 21, 40):
            yield [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
            yield random_matrix(rng, n).entries
            yield random_low_rank_matrix(rng, n, rng.randint(1, n)).entries
            yield [[rng.choice((0, 0, 0, 1, -2, F(5, 3))) for _ in range(n)] for _ in range(n // 2 + 1)]
            yield [[rng.choice((0, 1, -1, 7)) for _ in range(n // 2 + 1)] for _ in range(n)]
            e = random_idempotent(n, rng.randint(0, n), rng.randint(0, 99)).matrix
            yield e.entries
            if n <= 13:
                yield embed(e, 3).entries

    def test_echelon_pinned(self):
        digest = hashlib.sha256()
        for rows in self._echelon_corpus():
            for reduced in (False, True):
                digest.update(repr(tower._echelon(rows, reduced)).encode())
        assert digest.hexdigest() == self.ECHELON_SHA256


class TestRectangularProduct:
    def test_matches_a_triple_loop(self):
        rng = random.Random(2718)
        for m, k, n in ((1, 1, 1), (2, 3, 4), (4, 3, 2), (5, 1, 3), (3, 7, 1), (6, 6, 6)):
            for _ in range(5):
                a = [[rng.choice((0, 0, 1, -2, F(3, 4))) for _ in range(k)] for _ in range(m)]
                b = [[rng.choice((0, 0, 2, -1, F(-1, 3))) for _ in range(n)] for _ in range(k)]
                got = tower._matmul_rows(a, b)
                assert (len(got), len({len(row) for row in got})) == (m, 1)
                assert len(got[0]) == n
                assert got == plain_product(a, b)

    def test_unreached_entries_stay_int_zero(self):
        got = tower._matmul_rows([[F(1, 2), 0], [0, 0]], [[0, F(2)], [F(5), 1]])
        assert got == [[0, 1], [0, 0]]
        assert [type(x) for row in got for x in row] == [int, Fraction, int, int]


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

    def test_span_cap(self):
        assert SPAN_ORDER_CAP > 8
        assert corner_span_dimension(MatrixStage.rank_projector(SPAN_ORDER_CAP, 3)) == 9
        for n, r in ((SPAN_ORDER_CAP + 1, 1), (384, 192)):
            start = time.perf_counter()
            with pytest.raises(SpanCapExceededError, match="corner span cap"):
                corner_span_dimension(MatrixStage.rank_projector(n, r))
            assert time.perf_counter() - start < 2.0, n
        e = random_idempotent(SPAN_ORDER_CAP + 1, 1, seed=4)
        with pytest.raises(SpanCapExceededError):
            corner_span_dimension(e)

    def test_fullness_iff_nonzero(self):
        rng = random.Random(2002)
        for n in range(1, 6):
            for r in range(0, n + 1):
                e = random_idempotent(n, r, seed=rng.randrange(10**9))
                assert is_full_idempotent(e) == (r > 0)

    def test_cap_enforced_and_overridable(self):
        """The span cap still refuses; fullness needs no span and answers past every cap."""
        e = random_idempotent(FULLNESS_ORDER_CAP + 1, 1, seed=4)
        assert is_full_idempotent(e)
        e = random_idempotent(SPAN_ORDER_CAP + 1, 1, seed=4)
        with pytest.raises(SpanCapExceededError, match="corner span cap"):
            corner_span_dimension(e)
        assert is_full_idempotent(e)


class TestFullnessRows:
    @staticmethod
    def old_rows(e):
        """Every nonzero E_ij e E_kl = e[j][k] E_il, the n**4 spanning set."""
        n, ent = e.stage_order, e.matrix.entries
        rows = []
        for i in range(n):
            for j in range(n):
                for k in range(n):
                    for l in range(n):
                        if ent[j][k]:
                            vec = [0] * (n * n)
                            vec[i * n + l] = ent[j][k]
                            rows.append(vec)
        return rows

    def test_one_row_per_entry_position(self, monkeypatch):
        """One unit row per position (i, l) spans what the n**4 rows span, without elimination."""
        calls = []
        echelon = tower._echelon
        monkeypatch.setattr(tower, "_echelon", lambda *a, **k: calls.append(a) or echelon(*a, **k))
        half = F(1, 2)
        rng = random.Random(8080)
        cases = [IdempotentElement(MatrixStage([[half, half], [half, half]]))]
        for n in range(1, 7):
            for r in range(0, n + 1):
                cases.append(random_idempotent(n, r, rng.randrange(2**32)))
        for e in cases:
            n = e.stage_order
            v = next((x for row in e.matrix.entries for x in row if x), 0)
            unit_rows = [[v if col == il else 0 for col in range(n * n)] for il in range(n * n)]
            span_rank = gauss_rank(self.old_rows(e))
            assert gauss_rank(unit_rows) == span_rank, (n, e.rank)
            assert is_full_idempotent(e) == (span_rank == n * n), (n, e.rank)
        assert calls == []

    def test_nonzero_entry_decides_fullness(self, monkeypatch):
        """Orders past the old fullness cap get an answer, and no elimination runs."""
        calls = []
        echelon = tower._echelon
        monkeypatch.setattr(tower, "_echelon", lambda *a, **k: calls.append(a) or echelon(*a, **k))
        for n in (7, 96, 384):
            for r in (0, 1, n // 2, n):
                e = IdempotentElement(MatrixStage.rank_projector(n, r))
                assert is_full_idempotent(e) == (r > 0), (n, r)
        assert calls == []


class TestTowerContract:
    """One idempotent contract and one set of tower limits, decided in ``tower``."""

    def test_rank_equal_to_the_trace_accepted(self):
        """The rank is read off the matrix as an int, and is no argument."""
        half = F(1, 2)
        e = IdempotentElement(MatrixStage([[half, half], [half, half]]))
        assert (e.rank, e.relative_rank) == (1, F(1, 2))
        assert type(e.rank) is int
        assert IdempotentElement(MatrixStage.rank_projector(4, 2)).rank == 2
        assert list(inspect.signature(IdempotentElement).parameters) == ["matrix"]
        with pytest.raises(TypeError):
            IdempotentElement(MatrixStage.rank_projector(4, 2), 2)

    def test_no_public_idempotent_breaks_the_corner_map(self):
        """A corner map of any idempotent that can be built raises no RuntimeError."""
        rng = random.Random(3003)
        cases = [e for e, _ in _corner_cases()]
        for n in range(1, 7):
            for r in range(n + 1):
                cases.append(IdempotentElement(MatrixStage.rank_projector(n, r)))
                q = random_matrix(rng, n)
                q_inv = gauss_inverse(q.entries)
                if q_inv is not None:
                    m = q * MatrixStage.rank_projector(n, r) * MatrixStage(q_inv)
                    cases.append(IdempotentElement(m))
        for e in cases:
            if e.rank == 0:
                with pytest.raises(ZeroIdempotentError):
                    corner_isomorphism(e)
                continue
            iso = corner_isomorphism(e)
            assert iso.apply(e.matrix) == MatrixStage.identity(e.rank)

    def test_stage_cap_is_the_one_tower_limit(self, monkeypatch):
        """Any tower up to MAX_STAGE_ORDER is verified; none above it builds a stage."""
        st_val = SupernaturalNumber(0, {2: INF, 3: INF})
        for orders in ((4, 128), (96, 384)):
            assert verify_corner_scaling(st_val, Tower(orders), F(1, 2), seed=0).all_passed
        sizes = []
        trusted = tower.MatrixStage._trusted.__func__

        def recording(cls, rows):
            stage = trusted(cls, rows)
            sizes.append(stage.order)
            return stage

        monkeypatch.setattr(tower.MatrixStage, "_trusted", classmethod(recording))
        for orders in ((2, 768), (384, 768)):
            with pytest.raises(InvalidArgumentError, match="stage order 768 exceeds the cap 384"):
                verify_corner_scaling(st_val, Tower(orders), F(1, 2), seed=0)
        assert sizes == []

    # Every tower callable the package exports, with its parameters.
    SIGNATURES = {
        "CheckLine": ["name", "stage", "expected", "got", "passed"],
        "CornerIsomorphism": ["rank", "to_diagonal", "from_diagonal"],
        "IdempotentElement": ["matrix"],
        "MatrixStage": ["entries"],
        "Tower": ["orders"],
        "VerificationReport": ["checks"],
        "corner_isomorphism": ["e"],
        "corner_span_dimension": ["e"],
        "embed": ["a", "k"],
        "exact_rank": ["a"],
        "is_full_idempotent": ["e"],
        "kron": ["a", "b"],
        "proper_corner_witness": ["m", "n", "stage_order"],
        "random_idempotent": ["n", "r", "seed"],
        "relative_rank": ["a"],
        "run_verification": ["seed", "max_order", "trials"],
        "verify_corner_scaling": ["descriptor_st", "tower", "r", "seed"],
    }

    def test_no_call_moves_a_tower_cap(self):
        """No exported tower callable, nor a public method of one, takes a ``*_cap`` parameter."""
        exported = {
            name: getattr(steinitz, name)
            for name in steinitz.__all__
            if callable(getattr(steinitz, name))
            and getattr(steinitz, name).__module__ == tower.__name__
        }
        assert sorted(exported) == sorted(self.SIGNATURES)
        callables = [tower.sample_tower]
        for name, obj in exported.items():
            assert list(inspect.signature(obj).parameters) == self.SIGNATURES[name], name
            callables.append(obj)
            if inspect.isclass(obj):
                callables += [f for m, f in inspect.getmembers(obj, callable) if m[0] != "_"]
        for obj in callables:
            params = inspect.signature(obj).parameters
            assert not [p for p in params if p.endswith("_cap")], obj
        assert list(inspect.signature(tower.sample_tower).parameters) == ["rng", "max_order"]
        assert tower.MAX_STAGE_ORDER == 384

    def test_sampled_towers_stay_within_the_stage_cap(self):
        for max_order in (2, 96, 384, 10**6):
            rng = random.Random(max_order)
            for _ in range(500):
                t = tower.sample_tower(rng, max_order=max_order)
                assert t.top_order <= min(max(max_order, 2), tower.MAX_STAGE_ORDER)

    def test_sampled_stream_unchanged(self):
        """The same draws as the former (24, 3, 4) defaults of sample_tower."""

        def reference(rng, max_order):
            orders = [rng.randint(2, max(2, min(24, max_order)))]
            for _ in range(rng.randint(1, 3) - 1):
                k = rng.randint(2, 4)
                if orders[-1] * k > max_order:
                    break
                orders.append(orders[-1] * k)
            return tuple(orders)

        for max_order in (2, 7, 96, 10**6):
            ours, theirs = random.Random(max_order), random.Random(max_order)
            for _ in range(300):
                assert tower.sample_tower(ours, max_order).orders == reference(theirs, max_order)
            assert ours.getstate() == theirs.getstate()

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_verification_above_the_stage_cap_passes(self, seed):
        report = run_verification(seed, max_order=10**6, trials=20)
        assert report.all_passed
        assert report.render() == run_verification(seed, max_order=384, trials=20).render()

    def test_from_matrix_runs_no_elimination(self, monkeypatch):
        """Building an idempotent from its matrix reads the rank off the trace."""
        calls = []
        echelon = tower._echelon

        def counting(*args, **kwargs):
            calls.append(1)
            return echelon(*args, **kwargs)

        monkeypatch.setattr(tower, "_echelon", counting)
        for e, _ in _corner_cases():
            assert IdempotentElement(e.matrix) == e
        assert calls == []

    def test_corner_isomorphism_makes_one_stage_product(self, monkeypatch):
        cases = [e for e, _ in _corner_cases()]
        calls = []
        mul = MatrixStage.__mul__

        def counting(self, other):
            calls.append(1)
            return mul(self, other)

        monkeypatch.setattr(MatrixStage, "__mul__", counting)
        for e in cases:
            calls.clear()
            corner_isomorphism(e)
            assert len(calls) == 1, (e.stage_order, e.rank)


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
            verify_corner_scaling(st_val, Tower((2, 768)), F(1, 2), seed=0)

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

    def test_negative_seed_accepted(self):
        """The CLI's ``--seed -1`` reaches run_verification as a negative int."""
        assert run_verification(-1, 24, 2).all_passed

    def test_trials_are_capped(self):
        with pytest.raises(InvalidArgumentError, match="at most 500 trials"):
            run_verification(seed=0, trials=tower.MAX_TRIALS + 1)
        assert run_verification(seed=0, max_order=2, trials=tower.MAX_TRIALS).all_passed


@given(st.integers(min_value=1, max_value=5), st.integers(min_value=1, max_value=5))
def test_kron_of_projectors(m, n):
    p = kron(MatrixStage.rank_projector(3, min(m, 3)), MatrixStage.rank_projector(5, n))
    assert exact_rank(p) == min(m, 3) * n
