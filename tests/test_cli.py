import argparse
import contextlib
import gc
import hashlib
import io
import os
import random
import re
import subprocess
import sys
import time
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import steinitz
from steinitz import (
    INF,
    ONE,
    AlgebraDescriptor,
    DuplicatePrimeError,
    DuplicateRestError,
    ExpressionError,
    InvalidArgumentError,
    NotPrimeError,
    SteinitzError,
    SteinitzSyntaxError,
    SupernaturalNumber,
    Tower,
    corner,
    corner_isomorphism,
    decompose_matrix_factor,
    embed,
    enumerate_morita_class,
    factorize,
    format_steinitz,
    from_natural,
    kron,
    parse_steinitz,
    proper_corner_witness,
    random_idempotent,
    run_verification,
    scale,
    verify_corner_scaling,
)
from steinitz import cli, tower
from steinitz.cli import main
from steinitz.tower import MAX_STAGE_ORDER, IdempotentElement, MatrixStage
from steinitz.primes import set_default_trial_bound
from steinitz.supernatural import MAX_NUMBER_DIGITS, read_rational
from helpers import _primes_below, first_scan_error, random_supernatural, supernaturals


class TestParse:
    def test_grammar_examples(self):
        assert parse_steinitz("2^inf*3^5*7") == SupernaturalNumber(0, {2: INF, 3: 5, 7: 1})
        assert parse_steinitz("rest^1*2^0") == SupernaturalNumber(1, {2: 0})
        assert parse_steinitz("1") == ONE
        assert parse_steinitz("rest^inf") == SupernaturalNumber(INF)

    def test_whitespace_and_order_are_free(self):
        assert parse_steinitz("  3 * 2 ^ inf ") == parse_steinitz("2^inf*3")

    def test_implicit_exponent_one(self):
        assert parse_steinitz("5") == SupernaturalNumber(0, {5: 1})

    def test_one_as_neutral_term(self):
        assert parse_steinitz("1*3") == parse_steinitz("3")

    @pytest.mark.parametrize(
        "text",
        ["", "   ", "2*", "*2", "2^", "^3", "2^^3", "rest", "rest^", "inf", "2^foo", "1^2", "2 3"],
    )
    def test_syntax_errors(self, text):
        with pytest.raises(SteinitzSyntaxError):
            parse_steinitz(text)

    def test_syntax_error_carries_position(self):
        with pytest.raises(SteinitzSyntaxError) as exc:
            parse_steinitz("2*@")
        assert exc.value.position == 2
        assert "position 2" in str(exc.value)

    @pytest.mark.parametrize(
        "text, error, message",
        [
            ("2*@", SteinitzSyntaxError, "unexpected character '@' (at position 2)"),
            # An error in a term is raised only after the whole text is
            # scanned: '@' beats the non-prime 4, the duplicate 2, the bare
            # 'rest' and the unprovable 10**30.
            ("4*@", SteinitzSyntaxError, "unexpected character '@' (at position 2)"),
            ("4*7#", SteinitzSyntaxError, "unexpected character '#' (at position 3)"),
            ("2*2 * 5 @", SteinitzSyntaxError, "unexpected character '@' (at position 8)"),
            ("rest*3 ^ 2 %", SteinitzSyntaxError, "unexpected character '%' (at position 11)"),
            (f"{10**30}*@", SteinitzSyntaxError, "unexpected character '@' (at position 32)"),
            ("2 * 3 +", SteinitzSyntaxError, "unexpected character '+' (at position 6)"),
            ("2*", SteinitzSyntaxError, "unexpected end of expression (at position 2)"),
            ("", SteinitzSyntaxError, "unexpected end of expression (at position 0)"),
            ("3*1^2", SteinitzSyntaxError, "'1' does not take an exponent (at position 3)"),
            ("2*rest", SteinitzSyntaxError, "'rest' requires an explicit exponent (at position 2)"),
            ("rest*2", SteinitzSyntaxError, "'rest' requires an explicit exponent (at position 0)"),
            (
                "2^foo",
                SteinitzSyntaxError,
                "expected a natural number or 'inf', got 'foo' (at position 2)",
            ),
            (
                "rest^",
                SteinitzSyntaxError,
                "expected a natural number or 'inf', got 'end of expression' (at position 5)",
            ),
            (
                "2^^3",
                SteinitzSyntaxError,
                "expected a natural number or 'inf', got '^' (at position 2)",
            ),
            ("2 3", SteinitzSyntaxError, "unexpected '3' (at position 2)"),
            ("2**3", SteinitzSyntaxError, "unexpected '*' (at position 2)"),
            ("2^3^4", SteinitzSyntaxError, "unexpected '^' (at position 3)"),
            ("inf", SteinitzSyntaxError, "unexpected 'inf' (at position 0)"),
            ("3*4^2", NotPrimeError, "4 is not prime (at position 2)"),
            ("2*3*2^5", DuplicatePrimeError, "prime 2 appears more than once (at position 4)"),
            ("rest^1*rest^2", DuplicateRestError, "'rest' appears more than once (at position 7)"),
        ],
    )
    def test_error_table(self, text, error, message):
        with pytest.raises(error) as exc:
            parse_steinitz(text)
        assert type(exc.value) is error
        assert str(exc.value) == message

    def test_number_at_the_digit_cap_parses(self):
        nines = "9" * MAX_NUMBER_DIGITS
        assert parse_steinitz(f"2^{nines}") == SupernaturalNumber(0, {2: int(nines)})
        assert parse_steinitz(f"rest^{nines}") == SupernaturalNumber(int(nines))

    @pytest.mark.parametrize(
        "text, position",
        [
            ("2^" + "9" * (MAX_NUMBER_DIGITS + 1), 2),
            ("3 * " + "0" * MAX_NUMBER_DIGITS + "7", 4),
            ("2^" + "9" * 5000, 2),
            ("rest^" + "1" * 5000 + "*@", 5),
            ("2*2*" + "9" * (MAX_NUMBER_DIGITS + 1), 4),
            ("2^foo*3^" + "1" * (MAX_NUMBER_DIGITS + 1), 8),
        ],
    )
    def test_number_past_the_digit_cap(self, capsys, text, position):
        with pytest.raises(SteinitzSyntaxError) as exc:
            parse_steinitz(text)
        assert exc.value.position == position
        assert str(exc.value) == (
            f"number longer than {MAX_NUMBER_DIGITS} digits (at position {position})"
        )
        assert main(["parse", text]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: number longer than")
        assert "set_int_max_str_digits" not in captured.err

    def test_bad_character(self):
        with pytest.raises(SteinitzSyntaxError):
            parse_steinitz("2+3")

    @given(
        st.lists(
            st.one_of(
                st.sampled_from("12345679*^ @restinf\u00a0\u2003\u0663\u00e9"),
                st.integers(MAX_NUMBER_DIGITS - 1, MAX_NUMBER_DIGITS + 1).map("9".__mul__),
            ),
            max_size=24,
        ).map("".join)
    )
    def test_errors_match_a_scan_of_the_whole_text_first(self, text):
        """A scan error anywhere in the text is the error reported, as when the text is
        scanned token by token before any term is read."""
        expected = first_scan_error(text)
        try:
            parsed = parse_steinitz(text)
        except SteinitzError as error:
            if expected is not None:
                assert (type(error), str(error)) == (type(expected), str(expected))
                assert error.position == expected.position
        else:
            assert expected is None
            assert parse_steinitz(str(parsed)) == parsed

    def test_peak_memory_stays_under_twice_the_result(self):
        """The tokens are not collected first, so the parse holds little beyond its result."""
        rng = random.Random(1000)
        primes = _primes_below(8000)[:1000]
        text = "*".join(f"{p}^{rng.randint(1, 9)}" for p in rng.sample(primes, len(primes)))
        parse_steinitz(text)  # warm the regex and the parser
        gc.collect()  # a full pass also empties CPython's free lists, so every tuple is traced
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            result = parse_steinitz(text)
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(result.exceptions) == 1000
        assert peak - before < 2 * (held - before), (peak - before, held - before)

    @pytest.mark.parametrize(
        "text, position",
        # Superscript two, fullwidth two and Arabic-Indic three pass
        # str.isdigit, and e-acute passes str.isalpha; the grammar is ASCII.
        [("2\u00b2", 1), ("\uff12^3", 0), ("2^\u0663", 2), ("2^inf\u00e9", 5)],
    )
    def test_non_ascii_rejected_at_position(self, capsys, text, position):
        with pytest.raises(SteinitzSyntaxError) as exc:
            parse_steinitz(text)
        assert exc.value.position == position
        assert main(["parse", text]) == 2
        assert capsys.readouterr().err.startswith("error: unexpected character")

    def test_not_prime(self):
        with pytest.raises(NotPrimeError):
            parse_steinitz("4^2")
        with pytest.raises(NotPrimeError):
            parse_steinitz("91")  # 7 * 13

    def test_duplicates(self):
        with pytest.raises(DuplicatePrimeError):
            parse_steinitz("2*3*2^5")
        with pytest.raises(DuplicateRestError):
            parse_steinitz("rest^1*rest^2")

    def test_errors_share_a_base_class(self):
        for text in ("2*", "rest^1*rest^2", "2*2"):
            with pytest.raises(ExpressionError):
                parse_steinitz(text)

    def test_rejects_non_text(self):
        with pytest.raises(TypeError):
            parse_steinitz(7)


class TestFormat:
    def test_canonical_examples(self):
        assert format_steinitz(ONE) == "1"
        assert format_steinitz(SupernaturalNumber(0, {3: 1, 2: INF})) == "2^inf*3"
        assert format_steinitz(SupernaturalNumber(1)) == "rest^1"

    @given(supernaturals)
    def test_round_trip(self, s):
        text = format_steinitz(s)
        assert parse_steinitz(text) == s
        assert format_steinitz(parse_steinitz(text)) == text

    def test_seeded_round_trip_sweep(self):
        rng = random.Random(424242)
        for _ in range(300):
            s = random_supernatural(rng)
            assert parse_steinitz(format_steinitz(s)) == s


class TestMainExitCodes:
    def run(self, *argv, capsys=None):
        code = main(list(argv))
        return code

    def test_yes_decisions_exit_zero(self, capsys):
        assert main(["divides", "2^2", "2^inf"]) == 0
        assert main(["iso", "2^inf", "2^inf"]) == 0
        assert main(["morita", "3*2^inf", "5*2^inf"]) == 0
        assert main(["locally-finite", "2^5*3"]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out == ["YES", "YES", "YES ratio=5/3", "YES"]

    def test_no_decisions_exit_one(self, capsys):
        assert main(["divides", "2^inf", "2^2"]) == 1
        assert main(["iso", "2^inf", "3^inf"]) == 1
        assert main(["morita", "2^inf", "3^inf"]) == 1
        assert main(["locally-finite", "2^inf"]) == 1
        assert main(["ratio", "2^inf", "3^inf"]) == 1
        assert main(["witness", "2^inf", "3^inf"]) == 1
        assert main(["compare", "2^inf", "3^inf"]) == 1
        out = capsys.readouterr().out.splitlines()
        assert out == ["NO", "NO", "NO", "NO", "NO", "NO", "INCOMPARABLE"]

    def test_input_errors_exit_two(self, capsys):
        cases = [
            ["parse", "4^2"],
            ["parse", "2*"],
            ["mul", "2", "junk!"],
            ["corner", "3", "0"],
            ["corner", "3", "5/4"],
            ["corner", "3", "x"],
            ["corner", "6", "1/4"],
            ["decompose", "2^2", "3"],
            ["enumerate", "2", "0"],
            ["verify", "--seed", "1", "--trials", "0"],
        ]
        for argv in cases:
            assert main(argv) == 2, argv
            captured = capsys.readouterr()
            assert captured.err.startswith("error:"), argv

    @pytest.mark.parametrize(
        "argv",
        # 318665857834031151167461 = 399165290221 * 798330580441 passes
        # Miller-Rabin for all twelve witnesses 2..37.
        [
            ["decompose", "rest^1", "318665857834031151167461"],
            ["parse", "318665857834031151167461^2"],
        ],
    )
    def test_unprovable_prime_exits_two(self, capsys, argv):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: primality is decided only below")

    def test_usage_errors_exit_two(self, capsys):
        assert main(["not-a-command"]) == 2
        assert main(["divides", "2"]) == 2
        assert main([]) == 2
        capsys.readouterr()

    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0
        assert "COMMAND" in capsys.readouterr().out


# Bases: the empty product, primes, composites, a prime near 2**61 and the
# least composite that all twelve Miller-Rabin witnesses pass.
_BASES = st.sampled_from(
    ("1", "2", "3", "5", "7", "13", "4", "9", "91", "1000003", str(2**61 - 1),
     "318665857834031151167461")
)
_EXPONENTS = st.one_of(
    st.integers(min_value=0, max_value=10**30).map(str),
    st.sampled_from(("inf", "", "x", "-1", "^", "9" * 5000)),
)
_TERMS = st.one_of(
    st.builds(lambda b, e: b if e is None else f"{b}^{e}", _BASES, st.none() | _EXPONENTS),
    _EXPONENTS.map("rest^{}".format),
)
_EXPRS = st.one_of(
    st.lists(_TERMS, max_size=4).map("*".join),
    st.text(max_size=12),
    st.text(alphabet="0123456789^* restinf", max_size=16),
)
_ARGV = st.one_of(
    st.builds(lambda c, a: [c, a], st.sampled_from(("parse", "locally-finite")), _EXPRS),
    st.builds(
        lambda c, xs: [c, *xs],
        st.sampled_from(("mul", "lcm", "gcd")),
        st.lists(_EXPRS, min_size=1, max_size=3),
    ),
    st.builds(
        lambda c, a, b: [c, a, b],
        st.sampled_from(("divides", "iso", "morita", "ratio", "witness", "compare")),
        _EXPRS,
        _EXPRS,
    ),
    st.builds(
        lambda a, r: ["corner", a, r],
        _EXPRS,
        st.text(alphabet="0123456789/-", max_size=6),
    ),
    st.builds(
        lambda a, n: ["decompose", a, n],
        _EXPRS,
        st.integers(min_value=-3, max_value=10**6).map(str) | st.text(max_size=4),
    ),
    st.builds(lambda a, n: ["enumerate", a, str(n)], _EXPRS, st.integers(min_value=-2, max_value=20)),
)


# Rank texts that Fraction would read: exponent notation (10**60000 from
# eight characters), decimals, signs and underscores, and overlong numbers.
_RANK_TEXTS = st.one_of(
    st.builds("{}e-{}".format, st.integers(1, 9), st.integers(0, 60000)),
    st.builds("{}E{}".format, st.integers(1, 9), st.integers(-60000, 60000)),
    st.sampled_from(("1e-60000", "0.5", ".5", "+1/2", "1_0/2_0", "1/0", "0/5", " 1/2 ",
                     "1" * 1001, "1/" + "3" * 1001, "3" * 1000 + "/" + "7" * 1000)),
)


# Counts far past their caps, as --trials and --trial-bound texts: at most
# 1000 digits reach the library, which refuses them before any work.
_HUGE_COUNTS = st.one_of(
    st.integers(min_value=501, max_value=10**40).map(str),
    st.integers(min_value=1001, max_value=6000).map("9".__mul__),
    st.sampled_from((" 1000000000 ", "1_000_000_000", "+99999999999999")),
)


class TestArgvFuzz:
    @settings(max_examples=60)
    @given(st.sampled_from(("2^inf*5^inf", "rest^1", "3", "rest^inf")), _RANK_TEXTS)
    def test_rank_text_is_read_in_bounded_time(self, expr, rank):
        """A corner rank is plain 'm' or 'm/n'; anything else exits 2 at once."""
        out, err = io.StringIO(), io.StringIO()
        start = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["corner", expr, rank])
        assert time.perf_counter() - start < 2.0, rank
        assert code in (0, 2), (expr, rank)
        if code == 2:
            assert err.getvalue().startswith("error:"), rank
            assert out.getvalue() == ""
        else:
            assert rank.strip() == "1/2", rank

    @settings(max_examples=40, deadline=None)
    @given(_HUGE_COUNTS)
    def test_huge_counts_exit_two_in_bounded_time(self, count):
        """verify --trials and --trial-bound far past their caps exit 2 at once."""
        # Seven more zeros put every count above MAX_TRIAL_BOUND = 4194304.
        for argv in (
            ["verify", "--seed", "0", "--trials", count],
            ["--trial-bound", count + "0" * 7, "decompose", "rest^1", "618970019642690137449562111"],
        ):
            out, err = io.StringIO(), io.StringIO()
            start = time.perf_counter()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(argv)
            assert time.perf_counter() - start < 2.0, argv
            assert code == 2, argv
            assert out.getvalue() == ""
            assert "error:" in err.getvalue()

    @settings(max_examples=200)
    @given(_ARGV, st.none() | st.integers(min_value=-2, max_value=100))
    def test_main_exits_cleanly(self, argv, trial_bound):
        """Any argv gives exit 0, 1 or 2, never a traceback; exit 2 names the error."""
        if trial_bound is not None:
            argv = ["--trial-bound", str(trial_bound), *argv]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        text = out.getvalue() + err.getvalue()
        assert code in (0, 1, 2), (argv, code)
        assert "Traceback" not in text
        assert "set_int_max_str_digits" not in text
        if code == 2:
            lines = err.getvalue().splitlines()
            assert any(ln.startswith("error:") or ": error:" in ln for ln in lines), argv
        else:
            assert err.getvalue() == "", argv


class TestErrorContract:
    def test_rank_and_bound_checks_raise_invalid_argument_error(self):
        a = AlgebraDescriptor(SupernaturalNumber(0, {2: INF}))
        for call in (
            lambda: corner(a, "1e-60000"),
            lambda: corner(a, "0.5"),
            lambda: corner(a, "1/0"),
            lambda: corner(a, "3/2"),
            lambda: corner(a, "1/" + "2" * (MAX_NUMBER_DIGITS + 1)),
            lambda: scale(a.steinitz, "1e5"),
            lambda: scale(a.steinitz, Fraction(-1, 2)),
            lambda: verify_corner_scaling(from_natural(8), Tower((8,)), Fraction(3, 2), seed=0),
            lambda: verify_corner_scaling(from_natural(8), Tower((8,)), "2e-1", seed=0),
            lambda: enumerate_morita_class(a, 501),
            lambda: factorize(6, trial_bound=1),
        ):
            with pytest.raises(InvalidArgumentError):
                call()
        for bad in (0.5, True, None):
            with pytest.raises(TypeError):
                corner(a, bad)
        assert corner(a, " 3/4 ").steinitz == SupernaturalNumber(0, {2: INF, 3: 1})
        # 2**3000 has 904 digits: under the cap, and absorbed by 2^inf.
        assert corner(a, f"1/{2**3000}") == a

    def test_argument_checks_raise_invalid_argument_error(self):
        a = AlgebraDescriptor(ONE)
        for call in (
            lambda: corner(a, 2),
            lambda: decompose_matrix_factor(a, 0),
            lambda: enumerate_morita_class(a, 0),
            lambda: run_verification(0, max_order=1),
            lambda: run_verification(0, trials=0),
            lambda: set_default_trial_bound(1),
            lambda: MatrixStage([[1, 2], [3]]),
            lambda: MatrixStage.rank_projector(3, 4),
            lambda: MatrixStage.identity(2) + MatrixStage.identity(3),
            lambda: MatrixStage.identity(2) * MatrixStage.identity(3),
            lambda: IdempotentElement(MatrixStage([[2, 0], [0, 1]])),
            lambda: random_idempotent(3, 4, 1),
            lambda: corner_isomorphism(random_idempotent(4, 2, 9)).apply(MatrixStage.identity(3)),
            lambda: corner_isomorphism(random_idempotent(4, 2, 9)).lift(MatrixStage.identity(3)),
            lambda: Tower(()),
            lambda: Tower((2, 3)),
            lambda: verify_corner_scaling(from_natural(768), Tower((768,)), 1, 0),
            lambda: proper_corner_witness(3, 2, 1),
            lambda: proper_corner_witness(2, 4, 1),
            lambda: SupernaturalNumber(-1),
            lambda: SupernaturalNumber(0, [(2, 1), (2, 3)]),
            lambda: run_verification(0, trials="5"),
            lambda: run_verification(0, max_order=96.0),
            # Stage builders take int orders and ranks only: no float, bool or Fraction.
            lambda: MatrixStage.rank_projector(3, 1.5),
            lambda: MatrixStage.rank_projector(3.0, 1),
            lambda: MatrixStage.rank_projector(3, True),
            lambda: MatrixStage.rank_projector(3, Fraction(1)),
            lambda: MatrixStage.zero(2.0),
            lambda: MatrixStage.zero(False),
            lambda: MatrixStage.identity(True),
            lambda: MatrixStage.identity(Fraction(2)),
            lambda: MatrixStage.identity("2"),
        ):
            with pytest.raises(InvalidArgumentError) as exc:
                call()
            assert isinstance(exc.value, ValueError)
        # Int orders and ranks out of range keep their messages.
        for call, message in (
            (lambda: MatrixStage.identity(0), "matrix must be square and nonempty"),
            (lambda: MatrixStage.zero(-1), "matrix must be square and nonempty"),
            (lambda: MatrixStage.rank_projector(0, 0), "matrix must be square and nonempty"),
            (lambda: MatrixStage.rank_projector(3, 4),
             "projector rank must satisfy 0 <= r <= n, got r=4, n=3"),
            (lambda: MatrixStage.rank_projector(3, -1),
             "projector rank must satisfy 0 <= r <= n, got r=-1, n=3"),
        ):
            with pytest.raises(InvalidArgumentError, match=f"^{re.escape(message)}$"):
                call()
        # A requested or resulting stage order above the cap is refused before any allocation.
        cap, huge = MAX_STAGE_ORDER, 10**5000
        for call, shown in (
            (lambda: random_idempotent(10**6, 0, 0), "1000000"),
            (lambda: random_idempotent(huge, 0, 0), "a 16610-bit number"),
            (lambda: random_idempotent(cap + 1, 1, 0), str(cap + 1)),
            (lambda: MatrixStage.identity(10**6), "1000000"),
            (lambda: MatrixStage.zero(huge), "a 16610-bit number"),
            (lambda: MatrixStage.rank_projector(10**6, 0), "1000000"),
            (lambda: MatrixStage.rank_projector(huge, 1), "a 16610-bit number"),
            (lambda: MatrixStage.diagonal([1] * (cap + 1)), str(cap + 1)),
            (lambda: embed(MatrixStage.identity(2), 5 * 10**5), "1000000"),
            (lambda: embed(MatrixStage.identity(2), huge), "a 16611-bit number"),
            (lambda: kron(MatrixStage.identity(20), MatrixStage.identity(20)), "400"),
            (lambda: proper_corner_witness(1, 2, 10**6), "1000000"),
        ):
            start = time.perf_counter()
            with pytest.raises(InvalidArgumentError, match=f"^stage order {shown} exceeds the cap"):
                call()
            assert time.perf_counter() - start < 2.0, shown
        assert MatrixStage.identity(cap).order == cap

    def test_huge_ints_are_shown_by_bit_length(self):
        """A message never prints an int past CPython's int-to-str limit."""
        huge = 10**5000
        for call, shown in (
            (lambda: decompose_matrix_factor(AlgebraDescriptor(ONE), -huge), "negative 16610-bit"),
            (lambda: decompose_matrix_factor(AlgebraDescriptor(ONE), 2**20000), "20001-bit"),
            (lambda: run_verification(0, trials=huge), "16610-bit"),
            (lambda: run_verification(0, trials=-huge), "negative 16610-bit"),
            (lambda: run_verification(0, max_order=-huge), "negative 16610-bit"),
            (lambda: random_idempotent(3, huge, 1), "16610-bit"),
            (lambda: enumerate_morita_class(AlgebraDescriptor(ONE), huge), "16610-bit"),
            (lambda: factorize(6, trial_bound=-huge), "negative 16610-bit"),
            (lambda: SupernaturalNumber(-huge), "negative 16610-bit"),
            (lambda: corner(AlgebraDescriptor(ONE), huge), "16610-bit"),
            (lambda: scale(ONE, Fraction(1, 2**20000)), "20001-bit"),
            (lambda: Tower((3, huge)), "16610-bit"),
            (lambda: proper_corner_witness(huge, 2, 1), "16610-bit"),
        ):
            with pytest.raises(SteinitzError, match=f"a {shown} number"):
                call()
        # Up to MAX_NUMBER_DIGITS digits the value itself is printed.
        edge = 10**MAX_NUMBER_DIGITS - 1
        with pytest.raises(InvalidArgumentError, match=f"got {edge}$"):
            run_verification(0, trials=edge)

    def test_rank_text_digit_limit_is_inclusive(self, capsys):
        """Numbers of exactly MAX_NUMBER_DIGITS digits are read; one digit more is refused
        with the same message through the library and through ``steinitz corner``."""
        big = "1" + "0" * (MAX_NUMBER_DIGITS - 1)
        one = "0" * (MAX_NUMBER_DIGITS - 1) + "1"
        assert len(big) == len(one) == MAX_NUMBER_DIGITS
        half = f"{big}/2{big[1:]}"
        accepted = {one: Fraction(1), f"1/{big}": Fraction(1, int(big)), half: Fraction(1, 2)}
        for text, value in accepted.items():
            assert read_rational(text, "relative rank", at_most_one=True) == value
        assert read_rational(big, "scale factor") == int(big)
        a = AlgebraDescriptor(parse_steinitz("2^inf*5^inf"))
        for text in accepted:
            assert corner(a, text) == a
            assert main(["corner", "2^inf*5^inf", text]) == 0
            assert capsys.readouterr() == ("2^inf*5^inf\n", "")
        for text in ("0" + one, "1/0" + big, "0" + big + "/" + big, big + "/0" + big):
            message = (
                f"relative rank must be 'm' or 'm/n' with at most {MAX_NUMBER_DIGITS} digits "
                f"each, got {text!r}"
            )
            with pytest.raises(InvalidArgumentError, match=f"^{re.escape(message)}$"):
                read_rational(text, "relative rank", at_most_one=True)
            with pytest.raises(InvalidArgumentError, match=f"^{re.escape(message)}$"):
                corner(a, text)
            assert main(["corner", "2^inf*5^inf", text]) == 2
            assert capsys.readouterr() == ("", f"error: {message}\n")

    def test_internal_errors_are_not_reported_as_input_errors(self, monkeypatch):
        """main maps only SteinitzError to exit 2; a bug raises through."""

        def broken(text):
            raise ValueError("internal")

        monkeypatch.setattr(cli, "parse_steinitz", broken)
        with pytest.raises(ValueError, match="internal"):
            main(["parse", "2"])


def _run_python(*args):
    src = os.path.dirname(os.path.dirname(steinitz.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    return subprocess.run(
        [sys.executable, *args], env=env, capture_output=True, text=True, check=True
    ).stdout


class TestPackageRoot:
    def test_import_does_not_load_the_cli(self):
        code = (
            "import steinitz, sys; "
            "print(sorted(m for m in ('steinitz.cli', 'argparse') if m in sys.modules))"
        )
        assert _run_python("-c", code) == "[]\n"

    def test_import_builds_no_sieve(self):
        """The small-prime sieve is built by the first factorization, not by the import."""
        code = (
            "import steinitz; from steinitz import primes; "
            "print(primes._small_primes.cache_info().currsize); "
            "steinitz.factorize(12); "
            "print(primes._small_primes.cache_info().currsize)"
        )
        assert _run_python("-c", code) == "0\n1\n"

    def test_import_of_the_cli_builds_no_parser(self):
        """The parser is built by the first main call, not by the import."""
        code = (
            "import argparse, contextlib, io\n"
            "built = []\n"
            "init = argparse.ArgumentParser.__init__\n"
            "def counting(self, *a, **k):\n"
            "    built.append(1)\n"
            "    init(self, *a, **k)\n"
            "argparse.ArgumentParser.__init__ = counting\n"
            "import steinitz.cli\n"
            "print(len(built), steinitz.cli._build_parser.cache_info().currsize)\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    steinitz.cli.main(['parse', '2'])\n"
            "print(len(built))\n"
        )
        assert _run_python("-c", code) == f"0 0\n{1 + len(cli._COMMANDS)}\n"

    def test_cli_still_reachable(self):
        code = "import steinitz; print(steinitz.cli.main.__module__)"
        assert _run_python("-c", code) == "steinitz.cli\n"
        assert _run_python("-m", "steinitz", "parse", "3 * 2^inf") == "2^inf*3\n"


class TestMainOutputs:
    def test_parse_canonicalizes(self, capsys):
        assert main(["parse", "3 * 2^inf"]) == 0
        assert capsys.readouterr().out.strip() == "2^inf*3"

    def test_fold_commands(self, capsys):
        assert main(["mul", "2^3", "2^inf*5", "rest^1"]) == 0
        assert main(["lcm", "2^3*5", "2^5"]) == 0
        assert main(["gcd", "2^3*5", "2^5"]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out == ["2^inf*5^2*rest^1", "2^5*5", "2^3"]

    def test_corner_example(self, capsys):
        assert main(["corner", "2^inf", "3/4"]) == 0
        assert capsys.readouterr().out.strip() == "2^inf*3"

    def test_witness_output(self, capsys):
        assert main(["witness", "2*3", "5*7"]) == 0
        assert capsys.readouterr().out.strip() == "YES k=35 l=6 ratio=35/6"

    def test_ratio_output(self, capsys):
        assert main(["ratio", "3*2^inf", "5*2^inf"]) == 0
        assert capsys.readouterr().out.strip() == "5/3"

    def test_compare_output(self, capsys):
        assert main(["compare", "2", "2^3"]) == 0
        assert capsys.readouterr().out.strip() == "LESS"

    def test_decompose_output(self, capsys):
        assert main(["decompose", "2^inf*3", "6"]) == 0
        assert capsys.readouterr().out.strip() == "2^inf"

    def test_enumerate_output(self, capsys):
        assert main(["enumerate", "2", "2"]) == 0
        assert capsys.readouterr().out.splitlines() == ["2", "2^2", "1"]

    # sha256 of `steinitz enumerate EXPR BOUND` stdout, recorded with the
    # pairwise walk that tried scale on every reduced m/n.
    ENUMERATE_SHA256 = {
        ("2^inf", 120): "248b387b6247f0cd30a70039494dbc102058352aac3cf9d83ead1b15f5e32a58",
        ("2*3^2*5", 110): "5d2ffb309f297e69c39c9c95b7a7a41db6d3bab98e2a5dde4f2b8f38e517ca05",
        ("rest^1*3^inf", 60): "39dcf1a546005086214a60cebebfa1dd8ebf8b75a542bdba7afcf25ed3918603",
        ("rest^inf*7^2", 100): "edef91e90d0e7bdbcd510a402fe479cb551f93fbc6ef3d2879064a4b2c039420",
        ("1", 120): "b4985eeb9f698e810712f3e0cb5d24e4bfedc1c6b8500709d401fb2771b459df",
        ("2^3*5^inf*11", 90): "5d6eee8ad7c37b55ccf14cc877ab27c443570c6314b2bcb2a44300714bda18a2",
        ("rest^2*3^inf*5", 40): "f52270ffbf293cf13f90860cb28e4b31c1929cb59218958c09f6f7d7077e76de",
    }

    @pytest.mark.parametrize("expr,bound", sorted(ENUMERATE_SHA256))
    def test_enumerate_text_pinned(self, capsys, expr, bound):
        assert main(["enumerate", expr, str(bound)]) == 0
        out = capsys.readouterr().out.encode()
        assert hashlib.sha256(out).hexdigest() == self.ENUMERATE_SHA256[expr, bound]

    def test_enumerate_bound_cap_exits_two(self, capsys):
        start = time.perf_counter()
        assert main(["enumerate", "1", "3000"]) == 2
        assert time.perf_counter() - start < 1.0
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: bound must be at most 500, got 3000\n"

    def test_verify_report(self, capsys):
        assert main(["verify", "--seed", "3", "--trials", "5"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines
        pattern = re.compile(r"^PASS [A-Za-z0-9.\-]+ stage=\d+ expected=\S+ got=\S+$")
        for line in lines:
            assert pattern.match(line), line

    def test_verify_deterministic(self, capsys):
        main(["verify", "--seed", "3", "--trials", "5"])
        first = capsys.readouterr().out
        main(["verify", "--seed", "3", "--trials", "5"])
        assert capsys.readouterr().out == first

    # sha256 of `steinitz verify --seed s --max-order 96 --trials 20` stdout,
    # recorded before ranks, corner bases and inverses shared one
    # elimination routine; any change to the report text shows here.
    VERIFY_SHA256 = (
        "a753005af5f419d6ac1c2fdaae86136b5b17e994cfc54e4898a4dcafb87c4795",
        "7d328dd8c69efa5d39a96f5e566381aa6b843a6451ede7f7cb2aba14498eb841",
        "dbe2fca4f3e343e7ebbf86f0ba14a292c24041b2945952565bfd7601611e0792",
        "e439234806c659525f47db85940ed51f83a9b91ab08aa86fc0589ce553d9256a",
        "6cf5ea621b82ec7a7f06c75de17c6a6516ef78c5d86acf882ae2be0b029fa37e",
        "5d84cd2f817d35177998554ea18bf88ca9e8cb49b9557dff25a85956a37033ea",
        "03ef67d15fa674cc22ef84c345bd3ce2c59772c3643347bc4ead34f2d5722e36",
        "f118867feca183f5099df736ce14f32a964896678a1b40dadeec58125c983500",
        "44b30bab7bb49e5530b626e7cb0f7c8cce80a7debc03b1a2c4e7ee13036ab767",
        "e6336d2adc3e3f312a40fe8cafa6e8c22e0f7f801b5ce001667624fd8d736c8f",
    )

    @pytest.mark.parametrize("seed", range(10))
    def test_verify_text_pinned(self, capsys, seed):
        argv = ["verify", "--seed", str(seed), "--max-order", "96", "--trials", "20"]
        assert main(argv) == 0
        out = capsys.readouterr().out.encode()
        assert hashlib.sha256(out).hexdigest() == self.VERIFY_SHA256[seed]

    @pytest.mark.parametrize("seed", range(10))
    def test_verify_text_depends_only_on_ranks(self, capsys, monkeypatch, seed):
        """With P = I every seeded idempotent is a rank projector, and the text is the same."""

        def identity_pair(n, rng):
            eye = [[int(i == j) for j in range(n)] for i in range(n)]
            return eye, [row[:] for row in eye]

        monkeypatch.setattr(tower, "_unimodular", identity_pair)
        argv = ["verify", "--seed", str(seed), "--max-order", "96", "--trials", "20"]
        assert main(argv) == 0
        out = capsys.readouterr().out.encode()
        assert hashlib.sha256(out).hexdigest() == self.VERIFY_SHA256[seed]

    @pytest.mark.parametrize(
        "argv",
        [["witness", "2^100000", "3^100000"], ["ratio", "2^99999999999", "3^99999999999"]],
    )
    def test_oversized_ratio_exits_two(self, capsys, argv):
        start = time.perf_counter()
        assert main(argv) == 2
        assert time.perf_counter() - start < 1.0
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:")
        assert "set_int_max_str_digits" not in captured.err

    def test_large_ratio_still_prints(self, capsys):
        assert main(["ratio", "2^5000", "3^5000"]) == 0
        assert capsys.readouterr().out.strip() == f"{3**5000}/{2**5000}"

    def test_trial_bound_flag(self, capsys):
        # 1022117 = 1009 * 1013 has no factor below 100.
        assert main(["--trial-bound", "100", "decompose", "rest^inf", "1022117"]) == 2
        assert "error:" in capsys.readouterr().err
        assert main(["decompose", "rest^inf", "1022117"]) == 0
        assert capsys.readouterr().out.strip() == "rest^inf"

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["verify", "--seed", "0", "--trials", "1000000000"],
             "error: need at most 500 trials, got 1000000000\n"),
            # 2**89 - 1 is prime but above psi_12: only the bound limits the search.
            (["--trial-bound", "1000000000000000000000000000000",
              "decompose", "rest^1", "618970019642690137449562111"],
             "error: trial bound must be at most 4194304, got a 100-bit number\n"),
            (["decompose", "rest^1", "9" * 4000],
             "argument order: number longer than 1000 digits\n"),
        ],
    )
    def test_counts_past_their_caps_exit_two(self, capsys, argv, message):
        start = time.perf_counter()
        assert main(argv) == 2
        assert time.perf_counter() - start < 2.0
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.endswith(message)

    def test_product_past_the_digit_cap_exits_two(self, capsys):
        nines = "9" * MAX_NUMBER_DIGITS
        assert main(["mul", f"2^{nines}", "3"]) == 0
        assert main(["mul", f"2^{nines}", f"2^{nines}"]) == 2
        captured = capsys.readouterr()
        assert captured.out == f"2^{nines}*3\n"
        assert captured.err.endswith(
            "error: exponent of 2 must be below 10**1000, got a 3323-bit number\n"
        )

    def test_integer_argument_at_the_digit_cap(self, capsys):
        power = str(10 ** (MAX_NUMBER_DIGITS - 1))
        assert len(power) == MAX_NUMBER_DIGITS
        assert main(["decompose", "2^inf*5^inf", power]) == 0
        assert main(["--trial-bound", "4194304", "decompose", "2^inf*5^inf", power]) == 0
        assert capsys.readouterr().out == "2^inf*5^inf\n" * 2
        assert main(["decompose", "2^inf*5^inf", power + "0"]) == 2
        assert capsys.readouterr().err.endswith(
            f"argument order: number longer than {MAX_NUMBER_DIGITS} digits\n"
        )

    @pytest.mark.parametrize(
        "argv, code, err",
        [
            # int() alone reads these: other scripts' digits, '_' and a leading '+'.
            (["decompose", "2^3", "\u0662"], 2, "argument order: invalid int value: '\u0662'\n"),
            (["decompose", "2^3", "1_0"], 2, "argument order: invalid int value: '1_0'\n"),
            (["enumerate", "2", "+2"], 2, "argument bound: invalid int value: '+2'\n"),
            (["--trial-bound", "1\u0660\u0660", "parse", "2"], 2,
             "argument --trial-bound: invalid int value: '1\u0660\u0660'\n"),
            # Unchanged: a negative number is read, and other text is refused.
            (["decompose", "2^3", "-3"], 2, "error: matrix order must be a positive integer, got -3\n"),
            (["decompose", "2^3", "x"], 2, "argument order: invalid int value: 'x'\n"),
            (["decompose", "2^3", "2.5"], 2, "argument order: invalid int value: '2.5'\n"),
            (["decompose", "2^3", " 2 "], 0, ""),
            (["verify", "--seed", "-3", "--max-order", "4", "--trials", "1"], 0, ""),
            # Only ASCII digits count towards the cap, which is checked before the pattern.
            (["decompose", "2^3", "\u0662" * 1001], 2,
             "argument order: invalid int value: '" + "\u0662" * 1001 + "'\n"),
            (["decompose", "2^3", "1" * 1001 + "x"], 2,
             "argument order: number longer than 1000 digits\n"),
        ],
    )
    def test_integer_arguments_are_ascii_digits(self, capsys, argv, code, err):
        assert main(argv) == code
        assert capsys.readouterr().err.endswith(err)

    def test_trial_bound_does_not_leak(self, capsys):
        from steinitz.primes import get_default_trial_bound

        before = get_default_trial_bound()
        main(["--trial-bound", "100", "parse", "2"])
        capsys.readouterr()
        assert get_default_trial_bound() == before
        # The same on the reused parser after a usage error and after --help,
        # and a later call without the flag parses into a namespace without it:
        # 1022117 = 1009 * 1013 factors only under the default bound.
        for argv, code in (
            (["--trial-bound", "100", "not-a-command"], 2),
            (["--trial-bound", "100", "divides", "2"], 2),
            (["--trial-bound", "100", "--help"], 0),
            (["--trial-bound", "100", "decompose", "--help"], 0),
            (["--trial-bound", "100", "decompose", "rest^inf", "1022117"], 2),
        ):
            assert main(argv) == code, argv
            assert get_default_trial_bound() == before, argv
            assert main(["decompose", "rest^inf", "1022117"]) == 0, argv
            assert capsys.readouterr().out.endswith("rest^inf\n"), argv


_HUGE = "9" * 5000

# Every command on its YES, NO and error paths, every --help, usage errors
# and --trial-bound.  Each entry is (argv, exit code, the first 16 hex digits
# of the sha256 of stdout, and of stderr), recorded before the command table
# replaced the per-command handlers.  Only the three stderr digests marked
# below changed since, when integer arguments were capped at 1000 digits.
CLI_PINNED = [
    ([], 2, "e3b0c44298fc1c14", "65be3faf8841bbf0"),
    (["--help"], 0, "01ad45c10d1cbbab", "e3b0c44298fc1c14"),
    (["parse", "--help"], 0, "16e2346ed2f0e84f", "e3b0c44298fc1c14"),
    (["mul", "--help"], 0, "d2bde68997111dab", "e3b0c44298fc1c14"),
    (["lcm", "--help"], 0, "3e61dc6df6d07ff6", "e3b0c44298fc1c14"),
    (["gcd", "--help"], 0, "b6124193dd4d123d", "e3b0c44298fc1c14"),
    (["divides", "--help"], 0, "b7256db6f9313678", "e3b0c44298fc1c14"),
    (["locally-finite", "--help"], 0, "52f05147a5465666", "e3b0c44298fc1c14"),
    (["iso", "--help"], 0, "2b533c782000a792", "e3b0c44298fc1c14"),
    (["morita", "--help"], 0, "e2e82d254be2bb98", "e3b0c44298fc1c14"),
    (["ratio", "--help"], 0, "d909cf683100bce1", "e3b0c44298fc1c14"),
    (["witness", "--help"], 0, "779922a99a7dba8a", "e3b0c44298fc1c14"),
    (["compare", "--help"], 0, "ff6f2f0540e321aa", "e3b0c44298fc1c14"),
    (["corner", "--help"], 0, "1b08203c449bf115", "e3b0c44298fc1c14"),
    (["decompose", "--help"], 0, "5c92272cc3bc094c", "e3b0c44298fc1c14"),
    (["enumerate", "--help"], 0, "a1b344107b51c785", "e3b0c44298fc1c14"),
    (["verify", "--help"], 0, "53c6bd455b920fbc", "e3b0c44298fc1c14"),
    (["not-a-command"], 2, "e3b0c44298fc1c14", "884e25d8eb348e0c"),
    (["parse"], 2, "e3b0c44298fc1c14", "2609607f42bf717e"),
    (["parse", "2", "3"], 2, "e3b0c44298fc1c14", "e6599546d1f25f95"),
    (["mul"], 2, "e3b0c44298fc1c14", "7c49259ceb60cca2"),
    (["divides", "2"], 2, "e3b0c44298fc1c14", "ce4a7176bb9287bf"),
    (["verify"], 2, "e3b0c44298fc1c14", "f8b30425e6e735f2"),
    (["verify", "--seed", "x"], 2, "e3b0c44298fc1c14", "be4ff409cd51cb6d"),
    (["parse", "3 * 2^inf"], 0, "cc0079442d625ad9", "e3b0c44298fc1c14"),
    (["parse", "4^2"], 2, "e3b0c44298fc1c14", "53947640a4beb486"),
    (["parse", "2*@"], 2, "e3b0c44298fc1c14", "8ab02aa3142b1e92"),
    (["parse", "318665857834031151167461^2"], 2, "e3b0c44298fc1c14", "66e20d1d38d3229d"),
    (["mul", "2^3", "2^inf*5", "rest^1"], 0, "88f3264ba4e14b75", "e3b0c44298fc1c14"),
    (["lcm", "2^3*5", "2^5"], 0, "bd780bd4543b9a9c", "e3b0c44298fc1c14"),
    (["gcd", "2^3*5", "2^5", "rest^inf"], 0, "36b11a262caaddb6", "e3b0c44298fc1c14"),
    (["mul", "2", "junk!", "4"], 2, "e3b0c44298fc1c14", "8b8a13507f7e46b7"),
    (["divides", "2^2", "2^inf"], 0, "a115e91c2e84c307", "e3b0c44298fc1c14"),
    (["divides", "2^inf", "2^2"], 1, "cfe72034a9f298fb", "e3b0c44298fc1c14"),
    (["divides", "4", "2"], 2, "e3b0c44298fc1c14", "53947640a4beb486"),
    (["locally-finite", "2^5*3"], 0, "a115e91c2e84c307", "e3b0c44298fc1c14"),
    (["locally-finite", "rest^inf"], 1, "cfe72034a9f298fb", "e3b0c44298fc1c14"),
    (["locally-finite", "rest"], 2, "e3b0c44298fc1c14", "aadcea3ca820c274"),
    (["iso", "2^inf", "2^inf"], 0, "a115e91c2e84c307", "e3b0c44298fc1c14"),
    (["iso", "2^inf", "3^inf"], 1, "cfe72034a9f298fb", "e3b0c44298fc1c14"),
    (["iso", "2^inf", "6"], 2, "e3b0c44298fc1c14", "f7f37bbc2ca2e597"),
    (["morita", "3*2^inf", "5*2^inf"], 0, "c393ca50e81caf9d", "e3b0c44298fc1c14"),
    (["morita", "2^inf", "2^inf*3^0"], 0, "6cf829d2435e1548", "e3b0c44298fc1c14"),
    (["morita", "2^inf", "3^inf"], 1, "cfe72034a9f298fb", "e3b0c44298fc1c14"),
    (["morita", "2^x", "3"], 2, "e3b0c44298fc1c14", "1d5eee120a31e124"),
    (["ratio", "3*2^inf", "5*2^inf"], 0, "6947cfc8acbd5aa4", "e3b0c44298fc1c14"),
    (["ratio", "2^inf", "3^inf"], 1, "cfe72034a9f298fb", "e3b0c44298fc1c14"),
    (["ratio", "2^5000", "3^5000"], 0, "eae753f29f54d976", "e3b0c44298fc1c14"),
    (["ratio", "2^99999999999", "3^99999999999"], 2, "e3b0c44298fc1c14", "868dcc98e6659e97"),
    (["witness", "2*3", "5*7"], 0, "a9a9760febd6c44e", "e3b0c44298fc1c14"),
    (["witness", "rest^1", "rest^2"], 1, "cfe72034a9f298fb", "e3b0c44298fc1c14"),
    (["witness", "2^100000", "3^100000"], 2, "e3b0c44298fc1c14", "146183b517c2af40"),
    (["compare", "2", "2^3"], 0, "587680b9b6e2b196", "e3b0c44298fc1c14"),
    (["compare", "2^3", "2"], 0, "827b120cffa7e9bd", "e3b0c44298fc1c14"),
    (["compare", "2^inf", "2^inf*3"], 0, "587680b9b6e2b196", "e3b0c44298fc1c14"),
    (["compare", "2", "2"], 0, "66d44786dc9344c8", "e3b0c44298fc1c14"),
    (["compare", "2^inf", "3^inf"], 1, "c3f20f460d3d1600", "e3b0c44298fc1c14"),
    (["compare", "2", "rest^1*rest^2"], 2, "e3b0c44298fc1c14", "f676c3679617c7d4"),
    (["corner", "2^inf", "3/4"], 0, "cc0079442d625ad9", "e3b0c44298fc1c14"),
    (["corner", "3", "0"], 2, "e3b0c44298fc1c14", "a861b519786a8ba8"),
    (["corner", "6", "1/4"], 2, "e3b0c44298fc1c14", "f7f37bbc2ca2e597"),
    (["corner", "3", "x"], 2, "e3b0c44298fc1c14", "15cb7cdfc790a389"),
    (["decompose", "2^inf*3", "6"], 0, "b3c412523714f979", "e3b0c44298fc1c14"),
    (["decompose", "2^2", "3"], 2, "e3b0c44298fc1c14", "d4586841563b10f4"),
    (["decompose", "2", "0"], 2, "e3b0c44298fc1c14", "e81c0b1a2854d04b"),
    (["decompose", "2", "-3"], 2, "e3b0c44298fc1c14", "891e4a1be64e99c1"),
    (["decompose", "2", "x"], 2, "e3b0c44298fc1c14", "d777b016fa4d2f6f"),
    # stderr: "argument order: number longer than 1000 digits".
    (["decompose", "rest^1", _HUGE], 2, "e3b0c44298fc1c14", "e17a0b668116e61d"),
    (["decompose", "rest^1", "318665857834031151167461"], 2, "e3b0c44298fc1c14", "66e20d1d38d3229d"),
    (["enumerate", "2*3^2*5", "20"], 0, "0016734f0ef789dd", "e3b0c44298fc1c14"),
    (["enumerate", "2", "0"], 2, "e3b0c44298fc1c14", "e8ad108b06308f73"),
    (["enumerate", "1", "3000"], 2, "e3b0c44298fc1c14", "fa9afad76c1bf55c"),
    # stderr: "argument bound: number longer than 1000 digits".
    (["enumerate", "1", "9" * 2000], 2, "e3b0c44298fc1c14", "372b821fa386b4bd"),
    (["enumerate", "1", "2.5"], 2, "e3b0c44298fc1c14", "5a6094aea85e21e8"),
    (["verify", "--seed", "3", "--trials", "5"], 0, "ced7a7d313aea4fe", "e3b0c44298fc1c14"),
    (["verify", "--seed", "1", "--trials", "0"], 2, "e3b0c44298fc1c14", "5a8e3dae58d9bb8c"),
    (["verify", "--seed", "1", "--max-order", "1"], 2, "e3b0c44298fc1c14", "dd1e930a68d8906c"),
    (["verify", "--seed", "1", "--trials", "x"], 2, "e3b0c44298fc1c14", "a43bc299aa112bd3"),
    (["--trial-bound", "100", "decompose", "rest^inf", "1022117"], 2, "e3b0c44298fc1c14", "b45a9793685fff82"),
    (["--trial-bound", "2000", "decompose", "rest^inf", "1022117"], 0, "4bc4e94de9ba0e12", "e3b0c44298fc1c14"),
    (["--trial-bound", "1", "parse", "2"], 2, "e3b0c44298fc1c14", "8f5b572d7f707aa0"),
    (["--trial-bound", "x", "parse", "2"], 2, "e3b0c44298fc1c14", "69e4d01a70c53032"),
    # stderr: "argument --trial-bound: number longer than 1000 digits".
    (["--trial-bound", _HUGE, "parse", "2"], 2, "e3b0c44298fc1c14", "98385295d16b86fd"),
]


def _sha16(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


@pytest.mark.parametrize(
    "argv, code, out_sha, err_sha",
    CLI_PINNED,
    ids=[f"{i:02d}-" + " ".join(a)[:40] for i, (a, *_) in enumerate(CLI_PINNED)],
)
def test_cli_text_pinned(monkeypatch, capsys, argv, code, out_sha, err_sha):
    """stdout, stderr and exit codes as they were before the command table."""
    monkeypatch.setenv("COLUMNS", "80")
    assert main(argv) == code
    captured = capsys.readouterr()
    assert (_sha16(captured.out), _sha16(captured.err)) == (out_sha, err_sha)


class TestParserReuse:
    """main builds its parser once per process; no call leaves state in it."""

    def test_one_build_across_mixed_calls(self, monkeypatch, capsys):
        built = []
        init = argparse.ArgumentParser.__init__

        def counting(self, *args, **kwargs):
            built.append(self)
            init(self, *args, **kwargs)

        def broken(text):
            raise ValueError("internal")

        cli._build_parser.cache_clear()
        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
        mix = [
            (["parse", "3 * 2^inf"], 0),
            (["divides", "2^inf", "2^2"], 1),
            (["not-a-command"], 2),  # usage error: argparse exits
            (["divides", "2"], 2),
            (["--help"], 0),  # help: argparse exits with status 0
            (["corner", "--help"], 0),
            (["--trial-bound", "100", "decompose", "rest^inf", "1022117"], 2),  # SteinitzError
            (["--trial-bound", "2000", "decompose", "rest^inf", "1022117"], 0),
            (["parse", "4^2"], 2),
            (["enumerate", "2*3^2*5", "20"], 0),
        ]
        for _ in range(5):  # 55 calls
            for argv, code in mix:
                assert main(argv) == code, argv
            # A library function replaced in cli is the one the reused parser's call reaches.
            with monkeypatch.context() as m:
                m.setattr(cli, "parse_steinitz", broken)
                with pytest.raises(ValueError, match="internal"):
                    main(["parse", "2"])
        assert len(built) == 1 + len(cli._COMMANDS)  # the root parser and one per command
        assert cli._build_parser.cache_info().misses == 1

    def test_corpus_forward_and_reversed_in_one_process(self, monkeypatch, capsys):
        monkeypatch.setenv("COLUMNS", "80")

        def digests(corpus):
            seen = []
            for argv, *_ in corpus:
                code = main(argv)
                captured = capsys.readouterr()
                seen.append((code, _sha16(captured.out), _sha16(captured.err)))
            return seen

        forward = digests(CLI_PINNED)
        assert forward == [(code, out, err) for _, code, out, err in CLI_PINNED]
        assert digests(CLI_PINNED[::-1])[::-1] == forward

    def test_help_width_is_read_when_help_is_printed(self, monkeypatch, capsys):
        main(["parse", "2"])
        capsys.readouterr()
        helps = {}
        for columns in ("40", "120"):
            monkeypatch.setenv("COLUMNS", columns)
            assert main(["--help"]) == 0
            helps[columns] = capsys.readouterr().out
            # The same text as a parser built under this width.
            with pytest.raises(SystemExit):
                cli._build_parser.__wrapped__().parse_args(["--help"])
            assert capsys.readouterr().out == helps[columns]
        assert helps["40"] != helps["120"]
