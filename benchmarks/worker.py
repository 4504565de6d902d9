"""One workload process: set up, then run a closed loop and report as JSON.

Started by ``run.py`` as a fresh interpreter, so its set-up time covers
importing ``steinitz`` from the checkout's ``src/`` and the workload's fixed
warm-up requests.  Of the benchmark's own code only ``capture.py``, which
runs the warm-up requests, is imported before set-up is measured; the
generator and oracle load after it.

    worker.py --workload W --seed N --seconds S --trace 0|1
    worker.py --workload W --setup-only
"""

import sys
import time

_T0 = time.perf_counter()

import os  # noqa: E402

from capture import call_cli  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

#: Reference-task runs that scale one set-up time.
SETUP_REFS = 5
#: Spans kept by a traced run (27 bytes each) before it stops tracing.
MAX_SPANS = 1_000_000

VERIFY_WARMUP = ["verify", "--seed", "7", "--max-order", "24", "--trials", "4"]
SYMBOLIC_WARMUP = [
    ["parse", "3 * 2^inf"],
    ["mul", "2^3", "2^inf*5", "rest^1"],
    ["lcm", "2^3*7", "2^5*3"],
    ["gcd", "2^3*7", "2^5*3"],
    ["corner", "2^inf*3", "1/3"],
    ["decompose", "2^inf*3^2", "6"],
    ["divides", "2^2", "2^inf"],
    ["iso", "2^inf", "3^inf"],
    ["morita", "3*2^inf", "5*2^inf"],
    ["ratio", "3*2^inf", "5*2^inf"],
    ["witness", "2*3", "5*7"],
    ["compare", "2^inf", "3*2^inf"],
    ["locally-finite", "rest^1"],
]
CLASSIFY_WARMUP = SYMBOLIC_WARMUP + [
    ["enumerate", "2^inf*3", "12"],
    ["decompose", "rest^1", "77"],
    ["parse", "4^2"],
]


def _arg(flag, default=None):
    argv = sys.argv[1:]
    return argv[argv.index(flag) + 1] if flag in argv else default


def _warm_corner(steinitz):
    t = steinitz.tower
    e = t.random_idempotent(8, 3, 7)
    iso = t.corner_isomorphism(e)
    iso.lift(iso.apply(e.matrix))
    small = t.random_idempotent(3, 2, 7)
    t.corner_span_dimension(small)
    t.is_full_idempotent(small)
    return ""


WARMUPS = {
    "verify-tower": lambda s: call_cli(s.cli, VERIFY_WARMUP)[2],
    "corner-maps": _warm_corner,
    "symbolic-wide": lambda s: "".join(call_cli(s.cli, a)[2] for a in SYMBOLIC_WARMUP),
    "classify-small": lambda s: "".join(call_cli(s.cli, a)[2] for a in CLASSIFY_WARMUP),
}


def set_up(workload):
    """Import the checkout's steinitz and run the warm-up; returns its output."""
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import steinitz

    origin = os.path.dirname(os.path.abspath(steinitz.__file__))
    if origin != os.path.join(ROOT, "src", "steinitz"):
        raise ImportError(f"steinitz was imported from {origin}, not from the checkout")
    return steinitz, WARMUPS[workload](steinitz)


def rss_mb():
    """Resident size of this process now, read from /proc/self/statm."""
    with open("/proc/self/statm") as f:
        return int(f.read().split()[1]) * os.sysconf("SC_PAGE_SIZE") / 2**20


def timed_run(w, seconds):
    """Closed loop over whole blocks; times are scaled by the host's speed.

    The reference task of :mod:`hostspeed` runs between two requests every
    ``hostspeed.EVERY_S``; each request is scaled by the task runs around it.
    The unscaled figures are returned too, under ``raw_``.
    """
    import gc

    import hostspeed
    from resource import RUSAGE_SELF, getrusage
    from statistics import median

    # Whole blocks only, so every run sends the workload's exact request mix.
    latencies, ref_at, failed = [], [], 0
    block = w.block()
    hostspeed.reference()
    # The harness's objects (oracle tables, the first block) are moved out of
    # the cyclic collector's reach, so its passes during timed requests
    # scan what the library allocates rather than what the harness holds.
    gc.collect()
    gc.freeze()
    rss_start = top = rss_mb()
    ref_times = [hostspeed.reference()]
    start = last_ref = time.perf_counter()
    while time.perf_counter() - start < seconds:
        for req in block:
            elapsed, ok = w.execute(req)
            latencies.append(elapsed)
            ref_at.append(len(ref_times))
            failed += not ok
            top = max(top, rss_mb())
            if time.perf_counter() - last_ref >= hostspeed.EVERY_S:
                ref_times.append(hostspeed.reference())
                last_ref = time.perf_counter()
        block = w.block()
    ref_times.append(hostspeed.reference())
    # The kernel updates the high-water mark behind ru_maxrss only at some
    # events (unmapping, exit), so it can lag the resident size; the size
    # read after every request covers what it has not caught up with.
    peak = max(top, getrusage(RUSAGE_SELF).ru_maxrss / 1024)
    scaled = sorted(hostspeed.scale_each(latencies, ref_at, ref_times))
    latencies.sort()
    n = len(latencies)
    # The tail is the highest percentile with ten samples beyond it.
    beyond = 10 if n > 10 else 0
    return {
        "attempted": n,
        "failed": failed,
        "req_per_s": n / sum(scaled),
        "latency_p50_ms": median(scaled) * 1e3,
        "latency_tail_ms": scaled[n - 1 - beyond] * 1e3,
        "raw_req_per_s": n / sum(latencies),
        "raw_latency_p50_ms": median(latencies) * 1e3,
        "raw_latency_tail_ms": latencies[n - 1 - beyond] * 1e3,
        "host_scale": hostspeed.factor(ref_times),
        "host_refs": len(ref_times),
        "tail_percentile": 100 * (n - beyond) / n,
        "tail_beyond": beyond,
        # What the requests add over the resident size at the first timed
        # request, when the interpreter, the library and the harness are in.
        "peak_rss_mb": peak - rss_start,
        "process_peak_rss_mb": peak,
        "start_rss_mb": rss_start,
    }


def traced_run(steinitz, w, reqs, seconds):
    """An untraced pass, traced passes, then untraced passes until ``seconds``.

    Tracing stops early once MAX_SPANS are kept, which bounds the memory and
    the size of the span file; the untraced passes before and after it give
    the reference for the tracing overhead.
    """
    import spans

    def one_pass(execute):
        busy, failed = 0.0, 0
        for req in reqs:
            elapsed, ok = execute(req)
            busy += elapsed
            failed += not ok
        return busy, failed

    start = time.perf_counter()
    ref_busy, failed = one_pass(w.execute)
    ref_passes = 1
    tracer = spans.Tracer()
    tracer.install(steinitz)
    execute = tracer.wrap(w.execute, "bench.request", "bench")
    passes, busy, first_pass_end = 0, 0.0, 0
    while passes == 0 or (time.perf_counter() - start < seconds and len(tracer) < MAX_SPANS):
        b, f = one_pass(execute)
        passes += 1
        busy += b
        failed += f
        if passes == 1:
            first_pass_end = len(tracer)
    tracer.uninstall()
    while ref_passes == 1 or time.perf_counter() - start < seconds:
        b, f = one_pass(w.execute)
        ref_passes += 1
        ref_busy += b
        failed += f
    per_layer = spans.derive(tracer, first_pass_end, len(reqs), passes)
    out_path = os.path.join(ROOT, ".bench_out", f"spans-{w.name}.bin")
    tracer.write(out_path, {"workload": w.name, "passes": passes,
                            "pass_requests": len(reqs), "first_pass_end": first_pass_end})
    return {
        "attempted": len(reqs) * (passes + ref_passes),
        "failed": failed,
        "per_layer": per_layer,
        "untraced_req_per_s": len(reqs) * ref_passes / ref_busy,
        "traced_req_per_s": len(reqs) * passes / busy,
        "passes": passes,
        "untraced_passes": ref_passes,
        "pass_requests": len(reqs),
        "spans": len(tracer),
        "spans_file": os.path.relpath(out_path, ROOT),
    }


def main():
    workload = _arg("--workload")
    steinitz, warm_out = set_up(workload)
    setup_s = time.perf_counter() - _T0

    import json

    import hostspeed

    # Set-up is scaled like the timed requests, by the reference task run
    # right after it in the same process.
    setup = {"raw_setup_s": setup_s, "setup_s": setup_s * hostspeed.factor(
        [hostspeed.reference() for _ in range(SETUP_REFS)])}
    if "--setup-only" in sys.argv:
        print(json.dumps(setup))
        return
    import workloads as wl

    warmup_ok = workload != "verify-tower" or wl.sha256(warm_out) == wl.load_golden()["warmup"]
    w = wl.WORKLOADS[workload](steinitz, int(_arg("--seed")))
    seconds = float(_arg("--seconds"))
    if _arg("--trace", "0") == "1":
        result = traced_run(steinitz, w, wl.blocks(w, w.trace_blocks), seconds)
    else:
        result = timed_run(w, seconds)
    result.update(setup, warmup_ok=warmup_ok)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
