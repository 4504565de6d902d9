"""README's examples run as written.

The Python quick start is executed as one block, and every commented
``steinitz ... # out`` line of the command-line section is run through
``cli.main``: its stdout, lines joined by " / ", must be the comment, and
its exit code 1 where the comment says ``(exit 1)`` and 0 otherwise.
"""

import contextlib
import io
import re
import shlex
from fractions import Fraction
from pathlib import Path

import pytest

from steinitz.cli import main

README = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")

EXAMPLE = re.compile(r"steinitz (?P<argv>.+?)\s+# (?P<out>.+?)(?:\s+\((?P<note>[^)]*)\))?")


def _python_quick_start() -> str:
    section = README.split("## Library quick start", 1)[1]
    return section.split("```python\n", 1)[1].split("```", 1)[0]


def _cli_examples() -> list[tuple[str, str, int]]:
    section = README.split("## Command line", 1)[1].split("\n## ", 1)[0]
    examples = []
    for line in section.splitlines():
        m = EXAMPLE.fullmatch(line)
        if m:
            examples.append((m["argv"], m["out"], 1 if m["note"] == "exit 1" else 0))
    return examples


def test_python_quick_start_runs_as_written():
    namespace = {}
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(_python_quick_start(), "README.md", "exec"), namespace)
    assert namespace["morita_ratio"](namespace["a"], namespace["b"]) == Fraction(5, 3)
    assert (namespace["w"].k, namespace["w"].l) == (5, 3)
    lines = out.getvalue().splitlines()
    assert lines and all(line.startswith("PASS ") for line in lines)
    orders = [line.split("got=")[1] for line in lines if line.startswith("PASS corner-order ")]
    assert orders == ["3", "6", "12"]


EXAMPLES = _cli_examples()


def test_every_commented_command_is_found():
    assert len(EXAMPLES) == 12


@pytest.mark.parametrize("argv, out, code", EXAMPLES, ids=[argv for argv, _, _ in EXAMPLES])
def test_commented_command_prints_its_comment(capsys, argv, out, code):
    assert main(shlex.split(argv)) == code
    assert " / ".join(capsys.readouterr().out.splitlines()) == out
