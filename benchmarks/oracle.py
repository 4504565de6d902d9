"""Independent reference arithmetic for the symbolic workloads.

A value is ``(default, {prime: exponent})`` with exponents ints or ``INF``.
Nothing here imports ``steinitz``: the expected answer of every symbolic
request is derived from these dict-of-exponents rules and this module's own
canonical formatter, so a defect in the library's arithmetic, parser or
printer shows up as a failed request instead of being reproduced by the
oracle.  ``INF`` is a float only as an absorbing sentinel; every finite
exponent stays an int.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd as int_gcd
from math import inf as INF


def primes_between(lo: int, hi: int) -> list[int]:
    """Primes p with lo <= p < hi, by a segmented sieve of Eratosthenes."""
    hi = max(hi, 2)
    root = int(hi**0.5) + 1
    base = bytearray([1]) * (root + 1)
    base[0:2] = b"\x00\x00"
    for p in range(2, int(root**0.5) + 1):
        if base[p]:
            base[p * p :: p] = bytearray(len(base[p * p :: p]))
    lo = max(lo, 2)
    seg = bytearray([1]) * (hi - lo)
    for p in range(2, root + 1):
        if base[p]:
            start = max(p * p, (lo + p - 1) // p * p)
            seg[start - lo :: p] = bytearray(len(seg[start - lo :: p]))
    return [lo + i for i, flag in enumerate(seg) if flag]


SMALL_PRIMES = primes_between(2, 1 << 16)


def factor(n: int, known: dict[int, dict[int, int]] | None = None) -> dict[int, int]:
    """Factor n by trial division; ``known`` short-cuts generated semiprimes."""
    if known and n in known:
        return dict(known[n])
    out: dict[int, int] = {}
    for p in SMALL_PRIMES:
        if p * p > n:
            break
        while n % p == 0:
            n //= p
            out[p] = out.get(p, 0) + 1
    if n > 1:
        if n >= SMALL_PRIMES[-1] ** 2:
            raise ValueError(f"oracle cannot factor {n} without a hint")
        out[n] = out.get(n, 0) + 1
    return out


def value(default, exps: dict[int, object]):
    """Canonical value: entries equal to the default are dropped."""
    return (default, {p: e for p, e in exps.items() if e != default})


def exp_at(v, p: int):
    return v[1].get(p, v[0])


def _pointwise(op, values):
    default = values[0][0]
    for v in values[1:]:
        default = op(default, v[0])
    support = set().union(*(v[1] for v in values))
    exps = {}
    for p in support:
        e = exp_at(values[0], p)
        for v in values[1:]:
            e = op(e, exp_at(v, p))
        exps[p] = e
    return value(default, exps)


def mul(*values):
    return _pointwise(lambda a, b: a + b, values)


def lcm(*values):
    return _pointwise(max, values)


def gcd(*values):
    return _pointwise(min, values)


def divides(s, t) -> bool:
    if s[0] > t[0]:
        return False
    return all(exp_at(s, p) <= exp_at(t, p) for p in set(s[1]) | set(t[1]))


def locally_finite(s) -> bool:
    return s[0] != INF and INF not in s[1].values()


def ratio(s, t) -> Fraction | None:
    """q with t = q * s, or None when s and t are not rationally connected."""
    if s[0] != t[0]:
        return None
    num = den = 1
    for p in set(s[1]) | set(t[1]):
        a, b = exp_at(s, p), exp_at(t, p)
        if a == b:
            continue
        if a == INF or b == INF:
            return None
        if b > a:
            num *= p ** (b - a)
        else:
            den *= p ** (a - b)
    return Fraction(num, den)


def scale(s, q: Fraction, known=None):
    """q * s exponentwise; ValueError when an exponent would go negative."""
    adjust = factor(q.numerator, known)
    for p, e in factor(q.denominator, known).items():
        adjust[p] = adjust.get(p, 0) - e
    exps = dict(s[1])
    for p, delta in adjust.items():
        e = exp_at(s, p)
        if e != INF:
            if e + delta < 0:
                raise ValueError(f"{q} does not scale prime {p}: {e}{delta:+d}")
            e += delta
        exps[p] = e
    return value(s[0], exps)


def enumerate_class(s, bound: int) -> list:
    """Distinct q * s for reduced q = m/n, m, n <= bound, in (n, m) order."""
    factors = [None] + [factor(k) for k in range(1, bound + 1)]
    out, seen = [], set()
    for n in range(1, bound + 1):
        for m in range(1, bound + 1):
            if int_gcd(m, n) != 1:
                continue
            exps = dict(s[1])
            ok = True
            for p, e in factors[n].items():
                have = exp_at(s, p)
                if have != INF:
                    if have < e:
                        ok = False
                        break
                    exps[p] = have - e
            if not ok:
                continue
            for p, e in factors[m].items():
                exps[p] = exps.get(p, s[0]) + e
            v = value(s[0], exps)
            key = fmt(v)
            if key not in seen:
                seen.add(key)
                out.append(v)
    return out


def _fmt_exp(e) -> str:
    return "inf" if e == INF else str(e)


def fmt(v) -> str:
    """Canonical text: primes ascending, ^1 omitted, rest^d last unless d=0."""
    parts = []
    for p in sorted(v[1]):
        e = v[1][p]
        parts.append(str(p) if e == 1 else f"{p}^{_fmt_exp(e)}")
    if v[0] != 0:
        parts.append(f"rest^{_fmt_exp(v[0])}")
    return "*".join(parts) if parts else "1"


def text(v, order: list[int], spaced: bool) -> str:
    """Non-canonical input text for v: primes in ``order``, ^1 spelled out."""
    terms = [f"{p}^{_fmt_exp(exp_at(v, p))}" for p in order]
    if v[0] != 0 or not terms:
        terms.append(f"rest^{_fmt_exp(v[0])}")
    return (" * " if spaced else "*").join(terms)
