"""Seeded request streams, their expected answers, and request execution.

Each workload makes requests block by block.  A block holds a fixed mix of
request kinds in shuffled order, so any run that covers whole blocks sends
the same mix whatever the seed; the seed only changes the concrete inputs.
Expected answers come from :mod:`oracle` (symbolic workloads) or from the
benchmark's own matrix products (``corner-maps``), computed while the block
is generated, outside the timed calls.
"""

from __future__ import annotations

import hashlib
import json
import random
from fractions import Fraction
from math import gcd as int_gcd
from pathlib import Path
from time import perf_counter

import oracle
from capture import call_cli
from oracle import INF

GOLDEN_PATH = Path(__file__).with_name("golden_verify.json")
#: Workload seed whose verify replies are pinned by sha256 in GOLDEN_PATH.
DEFAULT_SEED = 0


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}:{seed}")


# --------------------------------------------------------------------------
# verify-tower


def load_golden() -> dict:
    return json.loads(GOLDEN_PATH.read_text())


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def verify_reply_ok(code, out: str) -> bool:
    return code == 0 and bool(out) and all(
        line.startswith("PASS") for line in out.splitlines()
    )


class VerifyTower:
    name = "verify-tower"
    trace_blocks = 6

    def __init__(self, steinitz, seed: int):
        self.cli = steinitz.cli
        self.rng = _rng(self.name, seed)
        # Reply hashes checked in request order: the recorded ones for
        # DEFAULT_SEED, none for any other seed.
        self.golden = load_golden()["seed0"] if seed == DEFAULT_SEED else []
        self.index = 0

    def block(self) -> list:
        sv = self.rng.randrange(2**32)
        golden = self.golden[self.index] if self.index < len(self.golden) else None
        self.index += 1
        argv = ["verify", "--seed", str(sv), "--max-order", "96", "--trials", "20"]
        return [(argv, golden)]

    def execute(self, req):
        argv, golden = req
        elapsed, code, out, _ = call_cli(self.cli, argv)
        ok = verify_reply_ok(code, out) and (golden is None or sha256(out) == golden)
        return elapsed, ok


# --------------------------------------------------------------------------
# corner-maps


def _int_matmul(a, b):
    cols = list(zip(*b))
    return [[sum(x * y for x, y in zip(row, col)) for col in cols] for row in a]


def _as_ints(m):
    """Entries of a MatrixStage as int rows, or None if any is non-integral."""
    if any(x.denominator != 1 for row in m.entries for x in row):
        return None
    return [[x.numerator for x in row] for row in m.entries]


def _product_is_identity(a, b_ints) -> bool:
    """a (rational MatrixStage) times b (int rows) equals I, row by row."""
    cols = list(zip(*b_ints))
    for i, row in enumerate(a.entries):
        den = 1
        for x in row:
            den = den * x.denominator // int_gcd(den, x.denominator)
        scaled = [x.numerator * (den // x.denominator) for x in row]
        for j, col in enumerate(cols):
            if sum(x * y for x, y in zip(scaled, col)) != (den if i == j else 0):
                return False
    return True


class CornerMaps:
    name = "corner-maps"
    orders = (8, 16, 24, 32)
    trace_blocks = 1

    def __init__(self, steinitz, seed: int):
        self.tower = steinitz.tower
        self.rng = _rng(self.name, seed)
        self.phase = self.rng.random()

    def block(self) -> list:
        """Three requests; each maps corners at every order, then checks a span.

        The cost of one corner map varies tenfold with the rank and with the
        seeded idempotent, and a run holds only a few hundred of them, so
        the median and the tail of single maps moved by a fifth from seed to
        seed.  A request that maps one corner at each order has a cost that
        varies far less.  Each order takes one rank from each third of
        1..n-1 across the block's three requests, at an offset within the
        third that steps by the golden ratio from block to block (from a
        seeded start), so every run covers the ranks evenly.
        """
        rng = self.rng
        self.phase = (self.phase + 0.6180339887498949) % 1.0
        reqs = []
        for third in range(3):
            parts = []
            for n in self.orders:
                r = 1 + int((third + self.phase) * (n - 1) / 3)
                x = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]
                parts.append(("iso", n, r, rng.randrange(2**32), self.tower.MatrixStage(x)))
            n = rng.randint(3, 6)
            parts.append(("span", n, 1 + int(self.phase * n), rng.randrange(2**32), None))
            reqs.append(parts)
        rng.shuffle(reqs)
        return reqs

    def execute(self, req):
        elapsed, ok = 0.0, True
        for part in req:
            part_elapsed, part_ok = self._part(part)
            elapsed += part_elapsed
            ok = ok and part_ok
        return elapsed, ok

    def _part(self, part):
        """One corner map or span check: (library time, reply correct)."""
        kind, n, r, seed, x = part
        t = self.tower
        t0 = perf_counter()
        try:
            e = t.random_idempotent(n, r, seed)
            if kind == "iso":
                iso = t.corner_isomorphism(e)
                y = e.matrix * x * e.matrix
                back = iso.lift(iso.apply(y))
                unit = iso.apply(e.matrix)
            else:
                dim = t.corner_span_dimension(e)
                full = t.is_full_idempotent(e)
        except Exception:
            return perf_counter() - t0, False
        elapsed = perf_counter() - t0

        ints = _as_ints(e.matrix)
        ok = (
            ints is not None
            and _int_matmul(ints, ints) == ints
            and sum(ints[i][i] for i in range(n)) == r
        )
        if kind == "span":
            return elapsed, ok and dim == r * r and full is True
        basis = _as_ints(iso.from_diagonal)
        ok = (
            ok
            and back.entries == y.entries
            and unit.entries
            == tuple(tuple(int(i == j) for j in range(r)) for i in range(r))
            and basis is not None
            and _product_is_identity(iso.to_diagonal, basis)
        )
        return elapsed, ok


# --------------------------------------------------------------------------
# symbolic-wide and classify-small: in-process CLI against the oracle

BUILD_COMMANDS = ("mul", "lcm", "gcd", "corner", "decompose")
QUERY_COMMANDS = ("divides", "iso", "morita", "ratio", "witness", "compare")
COMMANDS = ("parse",) + BUILD_COMMANDS + QUERY_COMMANDS + ("locally-finite",)


def _decision(flag: bool):
    return (0, "YES") if flag else (1, "NO")


class _Symbolic:
    """Generates one CLI request per (command, size) with its expected reply."""

    def __init__(self, steinitz, seed: int, pool: list[int]):
        self.cli = steinitz.cli
        self.rng = _rng(self.name, seed)
        self.pool = pool

    # -- values --------------------------------------------------------

    def _exps(self, primes, default):
        rng = self.rng
        choices = [e for e in range(0, 6) if e != default]
        exps = {}
        for p in primes:
            if default != INF and rng.random() < 0.2:
                exps[p] = INF
            else:
                exps[p] = rng.choice(choices)
        return exps

    def value(self, k: int, default=None):
        """A value on k random primes; the default exponent is random unless given."""
        if default is None:
            default = self.rng.choice((0, 0, 1, INF))
        return oracle.value(default, self._exps(self.rng.sample(self.pool, k), default))

    def overlapping(self, a, k: int):
        """A value of support size k sharing about half its primes with a."""
        rng = self.rng
        mine = list(a[1])
        keep = rng.sample(mine, min(len(mine), k // 2 + k % 2))
        fresh = [p for p in rng.sample(self.pool, min(len(self.pool), 3 * k)) if p not in a[1]]
        default = rng.choice((0, 0, 1, INF))
        return oracle.value(default, self._exps(keep + fresh[: k - len(keep)], default))

    def connected(self, a):
        """a with a few finite exponents moved: Morita equivalent to a."""
        rng = self.rng
        candidates = [p for p in rng.sample(self.pool, 24) if oracle.exp_at(a, p) != INF]
        exps = dict(a[1])
        for p in candidates[: rng.randint(1, 6)]:
            exps[p] = max(0, oracle.exp_at(a, p) + rng.choice((-2, -1, 1, 2)))
        return oracle.value(a[0], exps)

    def disconnected(self, a):
        """a with one finite exponent made infinite, or the default moved."""
        finite = [p for p, e in a[1].items() if e != INF]
        exps = dict(a[1])
        if finite and a[0] != INF:
            exps[self.rng.choice(finite)] = INF
            return oracle.value(a[0], exps)
        return oracle.value(1 if a[0] == 0 else 0, exps)

    def text(self, v) -> str:
        order = list(v[1])
        self.rng.shuffle(order)
        return oracle.text(v, order, spaced=self.rng.random() < 0.3)

    def _divisor(self, a, max_terms: int = 3) -> int:
        """A natural number dividing a, built from primes of positive exponent."""
        rng = self.rng
        n = 1
        for p in rng.sample(self.pool, min(len(self.pool), 12)):
            e = oracle.exp_at(a, p)
            if e >= 1:
                n *= p ** (1 if e == INF else rng.randint(1, min(e, 2)))
                max_terms -= 1
                if not max_terms:
                    break
        return n

    def _coprime_small(self, n: int) -> int:
        """A product of small primes below n that shares no factor with n."""
        m = 1
        for p in self.rng.sample(oracle.SMALL_PRIMES[:25], 4):
            if n % p and m * p < n:
                m *= p
        return m

    # -- requests: (argv, expected exit, expected stdout or None) ------

    def request(self, command: str, k: int):
        rng = self.rng
        a = self.value(k)
        if command == "parse":
            return ["parse", self.text(a)], 0, oracle.fmt(a)
        if command in ("mul", "lcm", "gcd"):
            b = self.overlapping(a, k)
            result = getattr(oracle, command)(a, b)
            return [command, self.text(a), self.text(b)], 0, oracle.fmt(result)
        if command == "divides":
            if rng.random() < 0.5:
                b = oracle.mul(a, self.value(max(1, k // 10)))
            else:
                b = self.overlapping(a, k)
            code, out = _decision(oracle.divides(a, b))
            return ["divides", self.text(a), self.text(b)], code, out
        if command == "iso":
            b = a if rng.random() < 0.5 else self.connected(a)
            code, out = _decision(oracle.fmt(a) == oracle.fmt(b))
            return ["iso", self.text(a), self.text(b)], code, out
        if command in ("morita", "ratio", "witness", "compare"):
            b = self.connected(a) if rng.random() < 0.7 else self.disconnected(a)
            argv = [command, self.text(a), self.text(b)]
            if command == "compare":
                q = oracle.ratio(b, a)
                if q is None:
                    return argv, 1, "INCOMPARABLE"
                return argv, 0, "LESS" if q < 1 else "EQUAL" if q == 1 else "GREATER"
            q = oracle.ratio(a, b)
            if q is None:
                return argv, 1, "NO"
            if command == "morita":
                return argv, 0, f"YES ratio={q}"
            if command == "ratio":
                return argv, 0, str(q)
            return argv, 0, f"YES k={q.numerator} l={q.denominator} ratio={q}"
        if command == "corner":
            n = self._divisor(a)
            r = Fraction(self._coprime_small(n), n)
            return ["corner", self.text(a), str(r)], 0, oracle.fmt(oracle.scale(a, r))
        if command == "decompose":
            n = self._divisor(a)
            return (["decompose", self.text(a), str(n)], 0,
                    oracle.fmt(oracle.scale(a, Fraction(1, n))))
        if command == "locally-finite":
            code, out = _decision(oracle.locally_finite(a))
            return ["locally-finite", self.text(a)], code, out
        raise ValueError(command)

    def execute(self, req):
        argv, exp_code, exp_out = req
        elapsed, code, out, err = call_cli(self.cli, argv)
        if exp_code == 2:
            ok = code == 2 and out == "" and err.startswith("error:")
        else:
            ok = code == exp_code and out == exp_out + "\n"
        return elapsed, ok


class SymbolicWide(_Symbolic):
    name = "symbolic-wide"
    sizes = (10, 100, 1000)
    trace_blocks = 1

    def __init__(self, steinitz, seed: int):
        super().__init__(steinitz, seed, oracle.SMALL_PRIMES[:4000])

    def block(self) -> list:
        reqs = [self.request(c, k) for k in self.sizes for c in COMMANDS]
        self.rng.shuffle(reqs)
        return reqs


#: Templates whose correct reply is exit 2 with an ``error:`` line.
_MALFORMED = ("2^", "*3", "2^^3", "3**5", "2^x", "rest", "rest^1*rest^2",
              "3^2*3", "2^-1", "(3)", "2 3", "1^2", "2^inf^2")


class ClassifySmall(_Symbolic):
    name = "classify-small"
    trace_blocks = 2

    def __init__(self, steinitz, seed: int):
        super().__init__(steinitz, seed, oracle.SMALL_PRIMES[:25])
        self.semiprime_factors = (
            oracle.primes_between(900_000, 1_000_000),
            oracle.primes_between(1_000_000, 1_100_000),
        )

    def _semiprime(self):
        p, q = (self.rng.choice(f) for f in self.semiprime_factors)
        return p * q, {p * q: {p: 1, q: 1}}

    def enumerate_request(self, low: int, high: int):
        rng = self.rng
        a = self.value(rng.randint(1, 3), 0)
        bound = rng.randint(low, high)
        lines = [oracle.fmt(v) for v in oracle.enumerate_class(a, bound)]
        return ["enumerate", self.text(a), str(bound)], 0, "\n".join(lines)

    def semiprime_request(self, command: str):
        a = self.value(self.rng.randint(1, 4), 1)
        n, known = self._semiprime()
        if command == "decompose":
            return (["decompose", self.text(a), str(n)], 0,
                    oracle.fmt(oracle.scale(a, Fraction(1, n), known)))
        r = Fraction(self._coprime_small(n), n)
        return ["corner", self.text(a), str(r)], 0, oracle.fmt(oracle.scale(a, r, known))

    def error_request(self, kind: str):
        rng = self.rng
        a = self.value(rng.randint(1, 4), 0)
        if kind == "not-prime":
            bad = f"{rng.choice((4, 6, 9, 15, 49, 91))}^{rng.randint(1, 3)}"
            command = rng.choice(("parse", "mul", "iso", "locally-finite"))
            args = [f"{self.text(a)}*{bad}"]
            if command in ("mul", "iso"):
                args.append(self.text(a))
            return [command] + args, 2, None
        if kind == "unrealizable":
            absent = [p for p in self.pool if oracle.exp_at(a, p) == 0]
            p = rng.choice(absent)
            if rng.random() < 0.5:
                return ["corner", self.text(a), f"1/{p}"], 2, None
            return ["decompose", self.text(a), str(p)], 2, None
        return ["parse", f"{self.text(a)}*{rng.choice(_MALFORMED)}"], 2, None

    def block(self) -> list:
        rng = self.rng
        reqs = [self.request(c, rng.randint(1, 8)) for c in COMMANDS * 2]
        reqs += [self.enumerate_request(40, 60), self.enumerate_request(100, 120)]
        reqs += [self.semiprime_request(c) for c in ("decompose", "corner")]
        reqs += [self.error_request(k) for k in ("not-prime", "unrealizable", "malformed")]
        rng.shuffle(reqs)
        return reqs


WORKLOADS = {w.name: w for w in (VerifyTower, CornerMaps, SymbolicWide, ClassifySmall)}


def blocks(workload, count: int) -> list:
    """The first ``count`` blocks of the workload's request stream."""
    return [req for _ in range(count) for req in workload.block()]
