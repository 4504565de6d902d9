"""Run the steinitz CLI in-process with its output captured.

Kept apart from :mod:`workloads` so that the worker's set-up can use it
without importing the benchmark's generator and oracle.
"""

from __future__ import annotations

import io
import sys
from time import perf_counter


def call_cli(cli, argv: list[str]):
    """Run ``cli.main(argv)`` with captured output; returns (s, exit, out, err).

    ``cli.main`` is looked up at call time so a traced run sees its wrapper.
    An exception escaping ``main`` is returned in place of the exit code.
    """
    out, err = io.StringIO(), io.StringIO()
    saved = sys.stdout, sys.stderr
    sys.stdout, sys.stderr = out, err
    try:
        t0 = perf_counter()
        try:
            code = cli.main(argv)
        except Exception as exc:  # a raise is a failed request, not a crash
            code = exc
        elapsed = perf_counter() - t0
    finally:
        sys.stdout, sys.stderr = saved
    return elapsed, code, out.getvalue(), err.getvalue()
