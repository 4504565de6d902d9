import contextlib
import hashlib
import io
import os
import random
import re
import subprocess
import sys
import time
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
    SteinitzSyntaxError,
    SupernaturalNumber,
    Tower,
    corner,
    decompose_matrix_factor,
    enumerate_morita_class,
    factorize,
    format_steinitz,
    from_natural,
    parse_steinitz,
    run_verification,
    scale,
    verify_corner_scaling,
)
from steinitz import cli
from steinitz.cli import main
from steinitz.primes import set_default_trial_bound
from steinitz.supernatural import MAX_NUMBER_DIGITS
from helpers import random_supernatural, supernaturals


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
            # The whole text is scanned first: '@' beats the non-prime 4.
            ("4*@", SteinitzSyntaxError, "unexpected character '@' (at position 2)"),
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
        ):
            with pytest.raises(InvalidArgumentError) as exc:
                call()
            assert isinstance(exc.value, ValueError)

    def test_internal_errors_are_not_reported_as_input_errors(self, monkeypatch):
        """main maps only SteinitzError to exit 2; a bug raises through."""

        def broken(args):
            raise ValueError("internal")

        monkeypatch.setattr(cli, "_cmd_parse", broken)
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

    def test_trial_bound_does_not_leak(self, capsys):
        from steinitz.primes import get_default_trial_bound

        before = get_default_trial_bound()
        main(["--trial-bound", "100", "parse", "2"])
        capsys.readouterr()
        assert get_default_trial_bound() == before
