"""Span tracing around the library's public entry points, from outside.

The library is left untouched: :func:`install` replaces each entry point by a
wrapper in every ``steinitz`` module namespace that holds it (``morita``,
``tower`` and ``cli`` import ``mul``, ``scale`` and the rest by name), and
wraps selected methods on their classes.  A span is (name, parent, start,
end, size, raised), kept in flat arrays in memory and written out at the
end.  Self time is a span's duration minus the part its child spans cover;
within one thread children never overlap, so that is the sum of their
durations.
"""

from __future__ import annotations

import json
import os
import sys
from array import array
from time import perf_counter_ns


def _support(args, result):
    return max(len(a.exceptions) for a in args[:2])


#: (layer module, attribute, class or None, sizer).  The span is named
#: ``layer.attribute`` unless renamed in SPAN_NAMES; a sizer records the input
#: size (support length or matrix order) or, for enumerate, the members made.
ENTRY_POINTS = [
    ("primes", "is_prime", None, None),
    ("primes", "factorize", None, None),
    ("supernatural", "__post_init__", "SupernaturalNumber", None),
    ("supernatural", "from_natural", None, None),
    ("supernatural", "exponent_at", None, None),
    ("supernatural", "mul", None, _support),
    ("supernatural", "lcm", None, None),
    ("supernatural", "gcd", None, None),
    ("supernatural", "divides", None, None),
    ("supernatural", "is_locally_finite", None, None),
    ("supernatural", "is_natural", None, None),
    ("supernatural", "rationally_connected", None, _support),
    ("supernatural", "scale", None, None),
    *[("morita", f, None, None) for f in (
        "are_isomorphic", "morita_ratio", "are_morita_equivalent", "matrix_over",
        "tensor", "corner", "morita_witness", "proper_corner_compare",
        "decompose_matrix_factor")],
    ("morita", "enumerate_morita_class", None, lambda a, r: len(r)),
    ("tower", "__mul__", "MatrixStage", None),
    ("tower", "__post_init__", "IdempotentElement", None),
    ("tower", "apply", "CornerIsomorphism", None),
    ("tower", "lift", "CornerIsomorphism", None),
    ("tower", "exact_rank", None, lambda a, r: a[0].order),
    ("tower", "corner_isomorphism", None, lambda a, r: a[0].stage_order),
    *[("tower", f, None, None) for f in (
        "relative_rank", "embed", "kron", "random_idempotent",
        "corner_span_dimension", "is_full_idempotent", "verify_corner_scaling",
        "proper_corner_witness", "run_verification")],
    ("cli", "main", None, None),
    ("cli", "parse_steinitz", None, lambda a, r: len(r.exceptions)),
    ("cli", "format_steinitz", None, None),
]

SPAN_NAMES = {
    ("SupernaturalNumber", "__post_init__"): "supernatural.ctor",
    ("MatrixStage", "__mul__"): "tower.matmul",
    ("IdempotentElement", "__post_init__"): "tower.idempotent_check",
    ("CornerIsomorphism", "apply"): "tower.corner_map",
    ("CornerIsomorphism", "lift"): "tower.corner_map",
}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.layers: list[str] = []
        self.name_col = array("H")
        self.parent = array("i")
        self.start = array("q")
        self.end = array("q")
        self.size = array("i")
        self.raised = array("b")
        self._stack = [-1]
        self._patched: list[tuple[object, str, object]] = []

    def name_id(self, name: str, layer: str) -> int:
        if name not in self.names:
            self.names.append(name)
            self.layers.append(layer)
        return self.names.index(name)

    def wrap(self, fn, name: str, layer: str, sizer=None):
        nid = self.name_id(name, layer)
        stack = self._stack
        push_name, push_parent = self.name_col.append, self.parent.append
        push_start, push_end = self.start.append, self.end.append
        push_size, push_raised = self.size.append, self.raised.append
        ends, sizes, raised = self.end, self.size, self.raised
        now = perf_counter_ns

        def traced(*args, **kwargs):
            idx = len(ends)
            push_name(nid)
            push_parent(stack[-1])
            push_end(0)
            push_size(-1)
            push_raised(0)
            stack.append(idx)
            push_start(now())
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                ends[idx] = now()
                stack.pop()
                raised[idx] = 1
                raise
            ends[idx] = now()
            stack.pop()
            if sizer is not None:
                sizes[idx] = sizer(args, result)
            return result

        return traced

    def __len__(self) -> int:
        return len(self.end)

    def _patch(self, owner, attr: str, value) -> None:
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self, steinitz) -> None:
        """Wrap every entry point in ENTRY_POINTS wherever it is bound."""
        modules = [m for n, m in sys.modules.items()
                   if n == "steinitz" or n.startswith("steinitz.")]
        for layer, attr, cls_name, sizer in ENTRY_POINTS:
            mod = getattr(steinitz, layer)
            if cls_name is not None:
                cls = getattr(mod, cls_name)
                name = SPAN_NAMES[(cls_name, attr)]
                self._patch(cls, attr, self.wrap(cls.__dict__[attr], name, layer, sizer))
                continue
            original = getattr(mod, attr)
            wrapped = self.wrap(original, f"{layer}.{attr}", layer, sizer)
            for m in modules:
                for key, val in list(vars(m).items()):
                    if val is original:
                        self._patch(m, key, wrapped)

    def uninstall(self) -> None:
        """Put back every attribute that install replaced."""
        while self._patched:
            setattr(*self._patched.pop())

    def self_times(self) -> array:
        """Per-span self time in ns: duration minus child coverage."""
        start, end, parent = self.start, self.end, self.parent
        own = array("q", (e - s for s, e in zip(start, end)))
        for i, p in enumerate(parent):
            if p >= 0:
                own[p] -= end[i] - start[i]
        return own

    def write(self, path, meta: dict) -> None:
        """Header line (JSON) followed by the raw span columns."""
        header = dict(meta, names=self.names, count=len(self),
                      columns=["name:H", "parent:i", "start:q", "end:q",
                               "size:i", "raised:b"])
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "wb") as f:
            f.write(json.dumps(header).encode() + b"\n")
            for col in (self.name_col, self.parent, self.start, self.end,
                        self.size, self.raised):
                f.write(col.tobytes())


# --------------------------------------------------------------------------
# Per-layer metrics.  Each entry: name, unit, better, how it is derived, and
# the (end-to-end metric, workload) it is predicted to move.

K_BUCKETS = {"k10": (0, 31), "k100": (31, 316), "k1000": (316, 3162)}
RANK_BUCKETS = {"n24": (12, 24), "n48": (24, 48), "n96": (48, 96)}
CORNER_BUCKETS = {f"n{n}": (n - 1, n) for n in (8, 16, 24, 32)}

_SYM = "req_per_s, latency_p50_ms @ symbolic-wide"
_SMALL_P50 = "latency_p50_ms @ classify-small (also symbolic-wide; none on verify-tower)"
_ENUM = "latency_tail_ms, req_per_s @ classify-small"
_VERIFY = "req_per_s, latency_p50_ms, peak_rss_mb @ verify-tower"
_CORNER = "req_per_s @ corner-maps"


def _self(*spans):
    return ("self", spans)


def _buckets(span, buckets, target):
    return [(f"{span}.ms_per_call.{b}", "ms", "lower", ("per_call", span, lo, hi), target)
            for b, (lo, hi) in buckets.items()]


PER_LAYER = [
    ("cli.self_ms", "ms/req", "lower", ("layer", "cli"), _SMALL_P50),
    ("cli.main.self_ms", "ms/req", "lower", _self("cli.main"), _SMALL_P50),
    ("cli.parse_steinitz.calls", "calls/req", "lower", ("calls", "cli.parse_steinitz"), _SMALL_P50),
    ("cli.parse_steinitz.self_ms", "ms/req", "lower", _self("cli.parse_steinitz"), _SMALL_P50),
    *_buckets("cli.parse_steinitz", K_BUCKETS, _SYM),
    ("primes.self_ms", "ms/req", "lower", ("layer", "primes"), "req_per_s @ symbolic-wide"),
    ("primes.is_prime.calls", "calls/req", "lower", ("calls", "primes.is_prime"), "req_per_s @ symbolic-wide"),
    ("primes.is_prime.self_ms", "ms/req", "lower", _self("primes.is_prime"), "req_per_s @ symbolic-wide"),
    ("primes.factorize.calls", "calls/req", "lower", ("calls", "primes.factorize"), "latency_tail_ms @ classify-small"),
    ("primes.factorize.self_ms", "ms/req", "lower", _self("primes.factorize"), "latency_tail_ms @ classify-small"),
    ("supernatural.self_ms", "ms/req", "lower", ("layer", "supernatural"), _SYM),
    ("supernatural.ctor.calls", "calls/req", "lower", ("calls", "supernatural.ctor"), _SYM),
    ("supernatural.ctor.self_ms", "ms/req", "lower", _self("supernatural.ctor"), _SYM),
    ("supernatural.exponent_at.calls", "calls/req", "lower", ("calls", "supernatural.exponent_at"), _SYM),
    ("supernatural.construct.self_ms", "ms/req", "lower", _self(
        "supernatural.mul", "supernatural.lcm", "supernatural.gcd", "supernatural.scale",
        "supernatural.from_natural"), _SYM),
    ("supernatural.query.self_ms", "ms/req", "lower", _self(
        "supernatural.divides", "supernatural.rationally_connected",
        "supernatural.is_locally_finite", "supernatural.exponent_at"), _SYM),
    *_buckets("supernatural.mul", K_BUCKETS, _SYM),
    *_buckets("supernatural.rationally_connected", K_BUCKETS, _SYM),
    ("supernatural.scale.calls", "calls/req", "lower", ("calls", "supernatural.scale"), _ENUM),
    ("supernatural.scale.raised", "calls/req", "lower", ("raised", "supernatural.scale"), _ENUM),
    ("morita.self_ms", "ms/req", "lower", ("layer", "morita"), _ENUM),
    ("morita.enumerate_morita_class.self_ms", "ms/req", "lower",
     _self("morita.enumerate_morita_class"), _ENUM),
    ("morita.enumerate.yield_ratio", "ratio", "higher", ("yield",), _ENUM),
    ("tower.self_ms", "ms/req", "lower", ("layer", "tower"), _VERIFY),
    ("tower.random_idempotent.calls", "calls/req", "lower", ("calls", "tower.random_idempotent"), _VERIFY),
    ("tower.random_idempotent.self_ms", "ms/req", "lower", _self("tower.random_idempotent"), _VERIFY),
    ("tower.idempotent_check.self_ms", "ms/req", "lower", _self("tower.idempotent_check"), _VERIFY),
    ("tower.matmul.calls", "calls/req", "lower", ("calls", "tower.matmul"), _VERIFY),
    ("tower.matmul.self_ms", "ms/req", "lower", _self("tower.matmul"), _VERIFY),
    ("tower.exact_rank.self_ms", "ms/req", "lower", _self("tower.exact_rank"), _VERIFY),
    *_buckets("tower.exact_rank", RANK_BUCKETS, _VERIFY),
    ("tower.kron.self_ms", "ms/req", "lower", _self("tower.kron"), _VERIFY),
    ("tower.corner_isomorphism.self_ms", "ms/req", "lower", _self("tower.corner_isomorphism"), _CORNER),
    *_buckets("tower.corner_isomorphism", CORNER_BUCKETS, _CORNER),
    ("tower.corner_map.self_ms", "ms/req", "lower", _self("tower.corner_map"), _CORNER),
    ("tower.span.self_ms", "ms/req", "lower", _self(
        "tower.corner_span_dimension", "tower.is_full_idempotent"), _CORNER),
]

#: Metrics that must repeat exactly across traced runs with the same seed.
EXACT = [name for name, _, _, how, _ in PER_LAYER if how[0] in ("calls", "raised", "yield")]


def derive(tracer: Tracer, first_pass_end: int, pass_requests: int, passes: int) -> dict:
    """Per-layer metrics from the spans of ``passes`` identical traced passes.

    Counts come from the first pass only, so they do not depend on how many
    passes fit in the run; times are averaged over every pass.
    """
    names, layers = tracer.names, tracer.layers
    own = tracer.self_times()
    k = len(names)
    self_ns = [0] * k
    calls = [0] * k
    raised = [0] * k
    for i, nid in enumerate(tracer.name_col):
        self_ns[nid] += own[i]
        if i < first_pass_end:
            calls[nid] += 1
            raised[nid] += tracer.raised[i]
    index = {n: i for i, n in enumerate(names)}
    enum_id = index.get("morita.enumerate_morita_class", -1)
    scale_id = index.get("supernatural.scale", -1)
    produced = attempts = 0
    for i in range(first_pass_end):
        nid = tracer.name_col[i]
        if nid == enum_id:
            produced += max(tracer.size[i], 0)
        elif nid == scale_id and tracer.parent[i] >= 0 and \
                tracer.name_col[tracer.parent[i]] == enum_id:
            attempts += 1
    timed_requests = pass_requests * passes
    sized = {index[how[1]]: [] for _, _, _, how, _ in PER_LAYER
             if how[0] == "per_call" and how[1] in index}
    for i, nid in enumerate(tracer.name_col):
        if nid in sized:
            sized[nid].append((tracer.size[i], tracer.end[i] - tracer.start[i]))

    def per_call(span, lo, hi):
        durations = [d for size, d in sized.get(index.get(span), ()) if lo < size <= hi]
        return sum(durations) / len(durations) / 1e6 if durations else 0.0

    out = {}
    for name, unit, _, how, _ in PER_LAYER:
        kind = how[0]
        if kind == "self":
            v = sum(self_ns[index[s]] for s in how[1] if s in index) / timed_requests / 1e6
        elif kind == "layer":
            v = sum(t for t, layer in zip(self_ns, layers) if layer == how[1]) / timed_requests / 1e6
        elif kind == "calls":
            v = calls[index[how[1]]] / pass_requests if how[1] in index else 0.0
        elif kind == "raised":
            v = raised[index[how[1]]] / pass_requests if how[1] in index else 0.0
        elif kind == "yield":
            v = produced / attempts if attempts else 0.0
        else:
            v = per_call(*how[1:])
        out[name] = {"value": v, "unit": unit}
    return out
