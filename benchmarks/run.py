"""Benchmark of the steinitz package, standard library only.

    python3 benchmarks/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 benchmarks/run.py --workload all [--seed N] [--seconds S] [--trace 0|1]

Run from anywhere; the package is imported from ``src/`` next to this
directory, so the checkout needs no install or build step.

Every workload is a closed loop: one client in one process and one thread
sends the next request when the previous reply is in.  The inputs are made
from ``--seed``; every reply is checked against an answer the benchmark
computes itself (workloads.py, oracle.py).

``--trace 0`` prints the end-to-end metrics:

* ``setup_s``: a fresh interpreter imports ``steinitz`` and finishes the
  workload's fixed warm-up requests (this is where the lazy prime sieve is
  built); median of SETUP_PROBES interpreters, half of them started before
  the timed run and half after it.  Input generation and the oracle are not
  in it.
* ``req_per_s``: completed requests per second of request time.
* ``latency_p50_ms``: median request latency.
* ``latency_tail_ms``: the latency with exactly ten samples beyond it; its
  percentile and the sample count are printed next to it.
* ``peak_rss_mb``: peak resident memory of the workload process (the
  larger of ``resource.getrusage`` and the resident size read after every
  request) minus its resident size at the first timed request, when the
  interpreter, ``steinitz`` and the benchmark's own generator, oracle and
  first block are already in.  So it is what the requests make the library
  hold, not the interpreter or the harness; the process's whole peak and
  the start size are printed next to it.
* ``fail_ratio``: failed / attempted, printed in the table.  It is not in the
  JSON metrics, which hold only metrics that are never 0; the JSON carries
  ``failed`` and ``attempted`` instead.

The times (``setup_s``, ``req_per_s`` and the latencies) are scaled by the
host's speed in the same process (hostspeed.py): a fixed reference task that
never calls ``steinitz`` runs between requests, or after set-up, and each
time is multiplied by ``NOMINAL_S / median(task time)`` over the task runs
around it.  The shared host
this was written on drifts by up to 1.5x over minutes, which unscaled times
carry into every comparison.  The unscaled figures are printed beside them.

``--trace 1`` wraps the public entry points of primes, supernatural, morita,
tower and cli (spans.py) and runs a fixed list of requests in whole passes:
untraced once, traced, then untraced again until the time is up.  It prints
the per-layer metrics, each with the end-to-end metric it is predicted to
move, and the tracing overhead.  The spans are written to
``.bench_out/spans-<workload>.bin``.  With ``--workload all --trace 1`` each
workload is traced twice with the same seed and the exact counts are checked
to repeat.

The last line of stdout is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
SETUP_PROBES = 15
WORKLOAD_NAMES = ("verify-tower", "corner-maps", "symbolic-wide", "classify-small")
END_TO_END = {
    "setup_s": "s",
    "req_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "peak_rss_mb": "MB",
}
#: A run of one workload must end well inside 180 s.
RUN_TIMEOUT_S = 170


class WorkerFailed(Exception):
    pass


def worker(*args: str, timeout: float) -> dict:
    """Run worker.py in a fresh interpreter and return its JSON reply."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    env["PYTHONHASHSEED"] = "0"
    proc = subprocess.run(
        [sys.executable, "-s", WORKER, *args],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=timeout,
    )
    if proc.returncode != 0:
        raise WorkerFailed(f"worker {' '.join(args)} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _row(name: str, value: float, unit: str, note: str = "") -> str:
    return f"  {name:<40} {value:>12.4f} {unit:<9} {note}".rstrip()


def untraced(workload: str, seed: int, seconds: int) -> dict:
    def probes(count: int) -> list:
        return [worker("--workload", workload, "--setup-only", timeout=15)
                for _ in range(count)]

    # Probes on both sides of the timed run, so a slow spell of the host
    # during one of them does not set the median.
    before = probes(SETUP_PROBES // 2)
    res = worker("--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
                 "--trace", "0", timeout=RUN_TIMEOUT_S - 40)
    setup = before + [res] + probes(SETUP_PROBES - 1 - len(before))
    res["setup_s"] = statistics.median(p["setup_s"] for p in setup)
    res["raw_setup_s"] = statistics.median(p["raw_setup_s"] for p in setup)
    n, failed = res["attempted"], res["failed"]
    print(f"{workload} seed={seed}: {n} requests, {failed} failed, "
          f"closed loop, 1 client")
    notes = {
        "setup_s": f"median of {len(setup)} fresh interpreters; unscaled "
                   f"{res['raw_setup_s']:.4f}",
        "req_per_s": f"unscaled {res['raw_req_per_s']:.4f}; median scale "
                     f"{res['host_scale']:.3f} over {res['host_refs']} reference runs",
        "latency_p50_ms": f"unscaled {res['raw_latency_p50_ms']:.4f}",
        "peak_rss_mb": f"over {res['start_rss_mb']:.1f} MB at the first timed request; "
                       f"process peak {res['process_peak_rss_mb']:.1f} MB",
        "latency_tail_ms": f"p{res['tail_percentile']:.1f}: {res['tail_beyond']} of {n} "
                           f"samples beyond it; unscaled {res['raw_latency_tail_ms']:.4f}",
    }
    for name, unit in END_TO_END.items():
        print(_row(name, res[name], unit, notes.get(name, "")))
    print(_row("fail_ratio", failed / n, "ratio", f"{failed} of {n}"))
    if not res["warmup_ok"]:
        print("  warm-up reply differs from the recorded sha256")
    return {
        "correct": failed == 0 and res["warmup_ok"],
        "attempted": n,
        "failed": failed,
        "metrics": {m: {"value": res[m], "unit": u} for m, u in END_TO_END.items()},
    }


def traced(workload: str, seed: int, seconds: int) -> dict:
    from spans import PER_LAYER

    res = worker("--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
                 "--trace", "1", timeout=RUN_TIMEOUT_S)
    per_layer = res["per_layer"]
    print(f"{workload} seed={seed} traced: {res['passes']} traced and "
          f"{res['untraced_passes']} untraced passes of {res['pass_requests']} requests, "
          f"{res['spans']} spans in {res['spans_file']}, {res['failed']} failed")
    print(f"  tracing overhead: {res['traced_req_per_s']:.3f} req/s traced vs "
          f"{res['untraced_req_per_s']:.3f} req/s untraced "
          f"({res['untraced_req_per_s'] / res['traced_req_per_s']:.2f}x)")
    for name, unit, _, _, target in PER_LAYER:
        print(_row(name, per_layer[name]["value"], unit, f"-> {target}"))
    return {
        "correct": res["failed"] == 0 and res["warmup_ok"],
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": per_layer,
    }


def run_all(seed: int, seconds: int, trace: bool) -> dict:
    from spans import EXACT

    results = {}
    for name in WORKLOAD_NAMES:
        if not trace:
            results[name] = untraced(name, seed, seconds)
            continue
        first = traced(name, seed, seconds)
        second = traced(name, seed, seconds)
        differ = [m for m in EXACT
                  if first["metrics"][m]["value"] != second["metrics"][m]["value"]]
        print(f"  exact counts repeat across two traced runs: "
              f"{'yes' if not differ else 'NO: ' + ', '.join(differ)}")
        first["correct"] = first["correct"] and second["correct"] and not differ
        results[name] = first
    return {
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{w}.{m}": v for w, r in results.items() for m, v in r["metrics"].items()},
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not os.path.isfile(os.path.join(ROOT, "src", "steinitz", "__init__.py")):
        print(f"error: no steinitz sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    try:
        if args.workload == "all":
            result = run_all(args.seed, args.seconds, bool(args.trace))
        elif args.trace:
            result = traced(args.workload, args.seed, args.seconds)
        else:
            result = untraced(args.workload, args.seed, args.seconds)
    except (WorkerFailed, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
