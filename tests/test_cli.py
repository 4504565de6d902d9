import hashlib
import random
import re
import time

import pytest
from hypothesis import given

from steinitz import (
    INF,
    ONE,
    DuplicatePrimeError,
    DuplicateRestError,
    ExpressionError,
    NotPrimeError,
    SteinitzSyntaxError,
    SupernaturalNumber,
    format_steinitz,
    parse_steinitz,
)
from steinitz.cli import main
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

    def test_usage_errors_exit_two(self, capsys):
        assert main(["not-a-command"]) == 2
        assert main(["divides", "2"]) == 2
        assert main([]) == 2
        capsys.readouterr()

    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0
        assert "COMMAND" in capsys.readouterr().out


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
