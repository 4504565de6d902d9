"""Finite matrix-tower grounding for the symbolic calculus.

Everything here is exact: square matrices over the rational field, unital
block-diagonal embeddings along a divisibility chain of orders, and seeded
random idempotents.  A stage keeps each entry as given: an ``int`` stays an
``int`` and a ``Fraction`` stays a ``Fraction`` (floats and bools raise
``TypeError``), so the integer matrices the verification builds never pay
for rational arithmetic.  Every stage is built one way, from a list of rows,
and each stored row is ``tuple(<list>)``, never ``tuple(<generator>)``: a
tuple grown from a generator is resized on the way and so never reuses a
freed tuple of its final size, yet it is kept for reuse when freed, and those
kept tuples raised the resident memory of verify runs.

One fraction-free elimination routine (``_echelon``) serves all the linear
algebra: ranks and span dimensions count its pivots, corner bases take its
pivot columns, and inverses come from its reduced form of [m | I].  The
verification entry points push an idempotent up a tower and compare the
observed corner data against the symbolic rank/corner laws, producing a
line-oriented report (``PASS|FAIL <check> stage=<n> expected=<v> got=<v>``)
with stable ordering.

No floating point is used anywhere in this module.
"""

from __future__ import annotations

import math
import operator
import random
from dataclasses import dataclass, replace
from fractions import Fraction
from itertools import chain
from typing import Iterable, Sequence

from .errors import (
    DenominatorDoesNotDivideError,
    InvalidArgumentError,
    NotADivisorError,
    SpanCapExceededError,
    ZeroIdempotentError,
    _check_positive_int,
)
from .supernatural import (
    INF,
    ONE,
    SupernaturalNumber,
    divides,
    from_natural,
    mul,
    read_rational,
    scale,
)

#: Default cap on stage orders for rank-based verification runs.
RANK_ORDER_CAP = 96
#: Default cap on stage orders for fullness span computations (n**4 blowup).
FULLNESS_ORDER_CAP = 6

_UNIMODULAR_ENTRY_BOUND = 3


def _is_exact(x) -> bool:
    return isinstance(x, (int, Fraction)) and not isinstance(x, bool)


@dataclass(frozen=True)
class MatrixStage:
    """A square matrix over the rational field, stored exactly as given."""

    entries: tuple[tuple[int | Fraction, ...], ...]

    def __post_init__(self):
        rows = tuple([tuple(row) for row in self.entries])
        n = len(rows)
        if n == 0 or any(len(row) != n for row in rows):
            raise ValueError("matrix must be square and nonempty")
        for row in rows:
            for x in row:
                if not _is_exact(x):
                    raise TypeError(f"matrix entries must be exact (int or Fraction), got {x!r}")
        object.__setattr__(self, "entries", rows)

    @property
    def order(self) -> int:
        return len(self.entries)

    @classmethod
    def identity(cls, n: int) -> MatrixStage:
        return cls.diagonal([1] * n)

    @classmethod
    def zero(cls, n: int) -> MatrixStage:
        return cls.diagonal([0] * n)

    @classmethod
    def diagonal(cls, values: Sequence) -> MatrixStage:
        n = len(values)
        rows = [[0] * n for _ in range(n)]
        for i, v in enumerate(values):
            rows[i][i] = v
        return cls(rows)

    @classmethod
    def rank_projector(cls, n: int, r: int) -> MatrixStage:
        """diag(1, .., 1, 0, .., 0) with r ones."""
        if not 0 <= r <= n:
            raise ValueError(f"projector rank must satisfy 0 <= r <= n, got r={r}, n={n}")
        return cls.diagonal([1] * r + [0] * (n - r))

    def trace(self) -> int | Fraction:
        return sum(self.entries[i][i] for i in range(self.order))

    def _entrywise(self, other, op, what: str):
        if not isinstance(other, MatrixStage):
            return NotImplemented
        if self.order != other.order:
            raise ValueError(f"order mismatch in matrix {what}")
        return MatrixStage(
            [list(map(op, r1, r2)) for r1, r2 in zip(self.entries, other.entries)]
        )

    def __add__(self, other):
        return self._entrywise(other, operator.add, "addition")

    def __sub__(self, other):
        return self._entrywise(other, operator.sub, "subtraction")

    def __mul__(self, other):
        if isinstance(other, MatrixStage):
            if self.order != other.order:
                raise ValueError("order mismatch in matrix product")
            return MatrixStage(_matmul_rows(self.entries, other.entries))
        if _is_exact(other):
            return MatrixStage([[x * other for x in row] for row in self.entries])
        return NotImplemented

    def __rmul__(self, other):
        if _is_exact(other):
            return self * other
        return NotImplemented


def _matmul_rows(a: Sequence[Sequence], b: Sequence[Sequence]) -> list[list]:
    """Row-list matrix product, skipping zero entries (helps block matrices)."""
    n = len(a)
    out = [[0] * n for _ in range(n)]
    for i in range(n):
        arow = a[i]
        orow = out[i]
        for k in range(n):
            aik = arow[k]
            if not aik:
                continue
            brow = b[k]
            for j in range(n):
                bkj = brow[j]
                if bkj:
                    orow[j] = orow[j] + aik * bkj
    return out


def _strip_content(row: list[int]) -> list[int]:
    """Divide an integer row by the gcd of its entries, in place (same size)."""
    g = 0
    for x in row:
        if x:
            g = math.gcd(g, x)
    if g > 1:
        row[:] = [x // g for x in row]
    return row


def _primitive_int_row(row: Sequence[int | Fraction]) -> list[int] | None:
    """Scale a row of ints and Fractions to coprime integers; None for the zero row."""
    denom_lcm = 1
    for x in row:
        if x:
            denom_lcm = denom_lcm * x.denominator // math.gcd(denom_lcm, x.denominator)
    ints = [x.numerator * (denom_lcm // x.denominator) for x in row]
    if not any(ints):
        return None
    return _strip_content(ints[:])


def _echelon(
    rows: Iterable[Sequence[int | Fraction]], reduced: bool = False
) -> tuple[list[list[int]], list[int]]:
    """Fraction-free row echelon form over the rationals, and its pivot columns.

    The one elimination routine behind rank, column bases and inverses.
    Rows are rescaled to primitive integer vectors (row space unchanged),
    then eliminated by cross-multiplication with per-row content stripping
    to control coefficient growth.  Rows with a zero in the pivot column are
    left untouched, so block structure costs nothing.  With ``reduced`` each
    pivot column is also cleared above its pivot, so the pivot block is
    diagonal (its entries need not be 1).

    Stored rows are exact-size lists (slices and concatenations, divided in
    place), not over-allocated comprehension results: for [m | I] at order
    32 those pass CPython's 512-byte small-object limit, and kept for the
    whole elimination they raised the peak resident size of corner maps.

    Returns the nonzero echelon rows, one per pivot, and the pivot columns in
    increasing order: their number is the rank, and they index the first
    maximal independent set of columns.
    """
    work: list[list[int]] = []
    width = 0
    for row in rows:
        width = len(row)
        ints = _primitive_int_row(row)
        if ints is not None:
            work.append(ints)
    nrows = len(work)
    pivots: list[int] = []
    rank = 0
    for c in range(width):
        piv = None
        for i in range(rank, nrows):
            if work[i][c]:
                piv = i
                break
        if piv is None:
            continue
        work[rank], work[piv] = work[piv], work[rank]
        prow = work[rank]
        pval = prow[c]
        for i in range(rank + 1, nrows):
            row = work[i]
            v = row[c]
            if v:
                # Rows below the pivot are zero before column c.
                work[i] = _strip_content(
                    row[:c] + [pval * row[k] - v * prow[k] for k in range(c, width)]
                )
        if reduced:
            for i in range(rank):
                row = work[i]
                v = row[c]
                if v:
                    # Rows above are not zero before column c; the pivot row is.
                    work[i] = _strip_content(
                        [pval * x for x in row[:c]]
                        + [pval * row[k] - v * prow[k] for k in range(c, width)]
                    )
        pivots.append(c)
        rank += 1
        if rank == nrows or rank == width:
            break
    return work[:rank], pivots


def exact_rank(a: MatrixStage) -> int:
    """Rank of a over the rational field, computed exactly."""
    return len(_echelon(a.entries)[1])


def relative_rank(a: MatrixStage) -> Fraction:
    """rank(a) / order(a), reduced; invariant under unital embeddings."""
    return Fraction(exact_rank(a), a.order)


def embed(a: MatrixStage, k: int) -> MatrixStage:
    """Unital block-diagonal embedding: k diagonal copies of a.

    This is the fixed embedding convention M_n -> M_{nk}; it maps the
    identity to the identity and is an algebra homomorphism.
    """
    _check_positive_int(k, "multiplicity")
    return kron(MatrixStage.identity(k), a)


def kron(a: MatrixStage, b: MatrixStage) -> MatrixStage:
    """Kronecker (tensor) product; order multiplies, rank multiplies."""
    n, m = a.order, b.order
    ae, be = a.entries, b.entries
    out = []
    for i1 in range(n):
        for i2 in range(m):
            row = []
            for j1 in range(n):
                x = ae[i1][j1]
                if x:
                    row.extend([x * y for y in be[i2]])
                else:
                    row.extend([0] * m)
            out.append(row)
    return MatrixStage(out)


@dataclass(frozen=True)
class IdempotentElement:
    """An exact idempotent e (e*e = e) at a single matrix stage."""

    matrix: MatrixStage
    rank: int

    def __post_init__(self):
        if self.matrix * self.matrix != self.matrix:
            raise ValueError("matrix is not idempotent")
        if not 0 <= self.rank <= self.stage_order:
            raise ValueError("rank out of range")

    @property
    def stage_order(self) -> int:
        return self.matrix.order

    @property
    def relative_rank(self) -> Fraction:
        return Fraction(self.rank, self.stage_order)

    @classmethod
    def from_matrix(cls, matrix: MatrixStage) -> IdempotentElement:
        return cls(matrix, exact_rank(matrix))


def _unimodular(n: int, rng: random.Random):
    """Seeded integer matrix with det +-1, entries in [-3, 3], plus inverse.

    Built from elementary shears and sign-swaps, each applied only when the
    entry bound survives, with the inverse tracked by the matching column
    operations.  Exact integer inverses keep conjugation growth bounded.
    """
    mat = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    inv = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    if n > 1:
        for _ in range(6 * n):
            if rng.randrange(4) == 3:
                i, j = rng.sample(range(n), 2)
                mat[i], mat[j] = mat[j], mat[i]
                mat[i] = [-x for x in mat[i]]
                for row in inv:
                    row[i], row[j] = row[j], row[i]
                    row[i] = -row[i]
            else:
                i, j = rng.sample(range(n), 2)
                c = rng.choice((-2, -1, 1, 2))
                new_row = [mat[j][k] + c * mat[i][k] for k in range(n)]
                if all(abs(x) <= _UNIMODULAR_ENTRY_BOUND for x in new_row):
                    mat[j] = new_row
                    for row in inv:
                        row[i] -= c * row[j]
    p = MatrixStage(mat)
    p_inv = MatrixStage(inv)
    if p * p_inv != MatrixStage.identity(n):
        raise RuntimeError("unimodular bookkeeping failed")
    return p, p_inv


def random_idempotent(n: int, r: int, seed: int) -> IdempotentElement:
    """Seeded random idempotent of exact rank r in M_n.

    Conjugates diag(1,..,1,0,..,0) by a seeded unimodular integer matrix,
    so the result is exactly idempotent with integer entries and is
    reproducible per seed.
    """
    _check_positive_int(n, "order")
    if isinstance(r, bool) or not isinstance(r, int) or not 0 <= r <= n:
        raise ValueError(f"rank must satisfy 0 <= r <= {n}, got {r!r}")
    rng = random.Random(seed)
    p, p_inv = _unimodular(n, rng)
    e = p * MatrixStage.rank_projector(n, r) * p_inv
    return IdempotentElement(e, r)


@dataclass(frozen=True)
class CornerIsomorphism:
    """Explicit isomorphism data between e M_n e and M_r.

    ``to_diagonal`` conjugates e to diag(1,..,1,0,..,0); ``apply`` sends a
    corner element to its leading r x r block in that basis, ``lift`` is
    the inverse map.
    """

    rank: int
    to_diagonal: MatrixStage
    from_diagonal: MatrixStage

    @property
    def order(self) -> int:
        return self.to_diagonal.order

    def apply(self, x: MatrixStage) -> MatrixStage:
        if x.order != self.order:
            raise ValueError("element order does not match the stage order")
        y = self.to_diagonal * x * self.from_diagonal
        r = self.rank
        return MatrixStage([row[:r] for row in y.entries[:r]])

    def lift(self, y: MatrixStage) -> MatrixStage:
        if y.order != self.rank:
            raise ValueError("element order does not match the corner rank")
        n, r = self.order, self.rank
        pad = [0] * (n - r)
        padded = MatrixStage([list(row) + pad for row in y.entries] + [[0] * n] * (n - r))
        return self.from_diagonal * padded * self.to_diagonal


def corner_isomorphism(e: IdempotentElement) -> CornerIsomorphism:
    """Change of basis splitting e into image plus kernel.

    The image columns of e and the image columns of 1-e together form a
    basis; in that basis e becomes diag(1,..,1,0,..,0) and cutting the
    leading r x r block is an algebra isomorphism e M_n e -> M_r.
    """
    if e.rank == 0:
        raise ZeroIdempotentError("the zero idempotent cuts out the zero corner")
    n, r = e.stage_order, e.rank
    ident = MatrixStage.identity(n)
    ent, comp = e.matrix.entries, (ident - e.matrix).entries
    # The pivot columns of an echelon form are the first maximal
    # independent set of columns.
    image = _echelon(ent)[1]
    complement = _echelon(comp)[1]
    if len(image) != r or len(complement) != n - r:
        raise RuntimeError("idempotent splitting produced unexpected dimensions")
    basis = MatrixStage(
        [[row[j] for j in image] + [crow[j] for j in complement] for row, crow in zip(ent, comp)]
    )
    # Reduced echelon form of [basis | I] is [D | D * basis^-1], D diagonal.
    rows, pivots = _echelon(
        (row + irow for row, irow in zip(basis.entries, ident.entries)), reduced=True
    )
    if pivots[-1] >= n:
        raise ValueError("matrix is singular")
    to_diag = MatrixStage(
        [[Fraction(x, row[i]) if x else 0 for x in row[n:]] for i, row in enumerate(rows)]
    )
    if to_diag * e.matrix * basis != MatrixStage.rank_projector(n, r):
        raise RuntimeError("change of basis failed to diagonalize the idempotent")
    return CornerIsomorphism(rank=r, to_diagonal=to_diag, from_diagonal=basis)


def corner_span_dimension(e: IdempotentElement | MatrixStage) -> int:
    """Dimension of e M_n e, from the spanning set {e E_ij e} by brute force."""
    m = e.matrix if isinstance(e, IdempotentElement) else e
    ent = m.entries
    # e E_ij e = (column i of e) (row j of e), flattened row-major.
    rows = ([c * x for c in col for x in rj] for col in zip(*ent) for rj in ent)
    return len(_echelon(rows)[1])


def is_full_idempotent(e: IdempotentElement, cap: int = FULLNESS_ORDER_CAP) -> bool:
    """Whether the two-sided span {x e y : x, y matrix units} is all of M_n.

    In a simple matrix algebra this holds exactly when e is nonzero; the
    check here computes the span anyway.  Orders above ``cap`` raise
    SpanCapExceededError (the span computation is n**4 in the order).
    """
    n = e.stage_order
    if n > cap:
        raise SpanCapExceededError(f"order {n} exceeds the fullness span cap {cap}")
    ent = e.matrix.entries

    def rows():
        # E_ij e E_kl = e[j][k] E_il; the zero ones add nothing to the span.
        for i in range(n):
            for j in range(n):
                for k in range(n):
                    v = ent[j][k]
                    if v:
                        for l in range(n):
                            vec = [0] * (n * n)
                            vec[i * n + l] = v
                            yield vec

    return len(_echelon(rows())[1]) == n * n


@dataclass(frozen=True)
class Tower:
    """A finite divisibility chain of matrix orders n_1 | n_2 | ... | n_t."""

    orders: tuple[int, ...]

    def __post_init__(self):
        orders = tuple(self.orders)
        if not orders:
            raise ValueError("a tower needs at least one stage")
        for n in orders:
            _check_positive_int(n, "stage order")
        for a, b in zip(orders, orders[1:]):
            if b % a:
                raise ValueError(f"orders must form a divisibility chain: {a} does not divide {b}")
        object.__setattr__(self, "orders", orders)

    @property
    def multiplicities(self) -> tuple[int, ...]:
        return tuple([b // a for a, b in zip(self.orders, self.orders[1:])])

    @property
    def top_order(self) -> int:
        return self.orders[-1]


@dataclass(frozen=True)
class CheckLine:
    """One verification check, rendered as a stable one-line record."""

    name: str
    stage: int
    expected: str
    got: str
    passed: bool

    def render(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"{status} {self.name} stage={self.stage} expected={self.expected} got={self.got}"


@dataclass(frozen=True)
class VerificationReport:
    checks: tuple[CheckLine, ...]

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def render(self) -> str:
        return "\n".join(c.render() for c in self.checks)

    def prefixed(self, prefix: str) -> VerificationReport:
        return VerificationReport(
            tuple([replace(c, name=f"{prefix}.{c.name}") for c in self.checks])
        )

    @staticmethod
    def merge(reports: Iterable[VerificationReport]) -> VerificationReport:
        return VerificationReport(tuple(chain.from_iterable(r.checks for r in reports)))


def _fmt(value) -> str:
    if value is True:
        return "YES"
    if value is False:
        return "NO"
    return str(value)


def _check(name: str, stage: int, expected, got) -> CheckLine:
    return CheckLine(name, stage, _fmt(expected), _fmt(got), expected == got)


def verify_corner_scaling(
    descriptor_st: SupernaturalNumber,
    tower: Tower,
    r: Fraction | int | str,
    seed: int,
    rank_order_cap: int = RANK_ORDER_CAP,
) -> VerificationReport:
    """Ground the corner scaling law st(eAe) = r(e) * st(A) on one tower.

    Builds a seeded idempotent of relative rank r at the first stage,
    pushes it up the tower by block-diagonal embedding, and checks at every
    stage that the relative rank is unchanged and the corner order equals
    r * n_i; finally the lcm of the observed corner orders is compared with
    the symbolic scaling of the tower lcm and checked to divide the scaled
    descriptor.
    """
    r = read_rational(r, "relative rank", at_most_one=True)
    first = tower.orders[0]
    if first % r.denominator:
        raise DenominatorDoesNotDivideError(
            f"rank denominator {r.denominator} does not divide the first stage order {first}"
        )
    top = tower.top_order
    if top > rank_order_cap:
        raise ValueError(f"top stage order {top} exceeds the rank cap {rank_order_cap}")
    if not divides(from_natural(top), descriptor_st):
        raise NotADivisorError(
            f"tower lcm {top} does not divide the descriptor {descriptor_st}"
        )

    checks: list[CheckLine] = []
    element = random_idempotent(first, int(r * first), seed)
    stage_matrix = element.matrix
    observed: list[int] = []
    for idx, order in enumerate(tower.orders):
        if idx:
            stage_matrix = embed(stage_matrix, tower.multiplicities[idx - 1])
        rank = exact_rank(stage_matrix)
        observed.append(rank)
        checks.append(_check("relative-rank", order, r, Fraction(rank, order)))
        checks.append(_check("corner-order", order, int(r * order), rank))
    observed_lcm = math.lcm(*observed)
    checks.append(
        _check(
            "corner-order-lcm",
            top,
            scale(from_natural(top), r),
            from_natural(observed_lcm),
        )
    )
    corner_st = scale(descriptor_st, r)
    checks.append(
        _check(
            "corner-divides-steinitz",
            top,
            True,
            divides(from_natural(observed_lcm), corner_st),
        )
    )
    return VerificationReport(tuple(checks))


def proper_corner_witness(m: int, n: int, stage_order: int) -> VerificationReport:
    """Ground the diag(1,..,1,0,..,0) corner construction for m/n < 1.

    Realizes one stage of the split-off factor C as M_{stage_order}, builds
    e with m leading ones inside M_n(C), and checks the relative rank m/n,
    the corner order m * stage_order, and the symbolic identity
    corner(M_n(C), m/n) = M_m(C).
    """
    for label, v in (("m", m), ("n", n), ("stage order", stage_order)):
        _check_positive_int(v, label)
    if m >= n:
        raise ValueError(f"the corner must be proper: need m < n, got m={m}, n={n}")
    if math.gcd(m, n) != 1:
        raise ValueError(f"m and n must be relatively prime, got m={m}, n={n}")

    c = stage_order
    e_mat = kron(MatrixStage.rank_projector(n, m), MatrixStage.identity(c))
    order = n * c
    rank = exact_rank(e_mat)
    checks = [
        _check("idempotent", order, True, e_mat * e_mat == e_mat),
        _check("corner-order", order, m * c, rank),
        _check("relative-rank", order, Fraction(m, n), Fraction(rank, order)),
    ]
    base = from_natural(c)
    lhs = scale(mul(from_natural(n), base), Fraction(m, n))
    rhs = mul(from_natural(m), base)
    checks.append(_check("symbolic-corner", order, rhs, lhs))
    return VerificationReport(tuple(checks))


def sample_tower(
    rng: random.Random,
    max_first: int = 24,
    max_depth: int = 3,
    max_multiplicity: int = 4,
    max_order: int = RANK_ORDER_CAP,
) -> Tower:
    """Draw a random divisibility chain within the given caps."""
    first = rng.randint(2, max(2, min(max_first, max_order)))
    orders = [first]
    for _ in range(rng.randint(1, max_depth) - 1):
        k = rng.randint(2, max_multiplicity)
        if orders[-1] * k > max_order:
            break
        orders.append(orders[-1] * k)
    return Tower(tuple(orders))


def sample_relative_rank(rng: random.Random, first_order: int) -> Fraction:
    """Draw an admissible relative rank: denominator divides the first order."""
    divisors = [d for d in range(1, first_order + 1) if first_order % d == 0]
    den = rng.choice(divisors)
    num = rng.randint(1, den)
    return Fraction(num, den)


_EXTRA_PATTERNS = (
    ONE,
    SupernaturalNumber(0, {2: INF}),
    SupernaturalNumber(0, {3: INF, 5: 2}),
    SupernaturalNumber(1),
    SupernaturalNumber(0, {2: 4, 7: 1}),
)


def run_verification(
    seed: int, max_order: int = RANK_ORDER_CAP, trials: int = 20
) -> VerificationReport:
    """Run the seeded tower suites and merge their reports by trial index.

    Three suites: corner scaling along random towers, proper-corner
    witnesses for random coprime pairs, and corner span dimension plus
    fullness for random idempotents.  Deterministic for a fixed seed.
    """
    if max_order < 2:
        raise InvalidArgumentError(f"max order must be at least 2, got {max_order}")
    if trials < 1:
        raise InvalidArgumentError(f"need at least one trial, got {trials}")
    rng = random.Random(seed)
    reports: list[VerificationReport] = []
    for t in range(trials):
        tower = sample_tower(rng, max_order=max_order)
        r = sample_relative_rank(rng, tower.orders[0])
        extra = rng.choice(_EXTRA_PATTERNS)
        st = mul(from_natural(tower.top_order), extra)
        rep = verify_corner_scaling(
            st, tower, r, seed=rng.randrange(2**32), rank_order_cap=max_order
        )
        reports.append(rep.prefixed(f"corner-tower.t{t:02d}"))
    side_trials = max(1, trials // 4)
    for t in range(side_trials):
        n = rng.randint(2, 8)
        m = rng.randint(1, n - 1)
        while math.gcd(m, n) != 1:
            m = rng.randint(1, n - 1)
        c = rng.randint(1, 6)
        reports.append(proper_corner_witness(m, n, c).prefixed(f"proper-corner.t{t:02d}"))
    for t in range(side_trials):
        n = rng.randint(2, FULLNESS_ORDER_CAP)
        rk = rng.randint(1, n)
        e = random_idempotent(n, rk, rng.randrange(2**32))
        checks = (
            _check("corner-dimension", n, rk * rk, corner_span_dimension(e)),
            _check("fullness", n, rk > 0, is_full_idempotent(e)),
        )
        reports.append(VerificationReport(checks).prefixed(f"corner-span.t{t:02d}"))
    return VerificationReport.merge(reports)
