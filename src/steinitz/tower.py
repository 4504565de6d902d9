"""Finite matrix-tower grounding for the symbolic calculus.

Everything here is exact: square matrices over the rational field, unital
block-diagonal embeddings along a divisibility chain of orders, and seeded
random idempotents.  A stage keeps each entry as given: an ``int`` stays an
``int`` and a ``Fraction`` stays a ``Fraction`` (any other entry, bools too, raises
``ArgumentTypeError``), so the integer matrices the verification builds never pay
for rational arithmetic.  A stage is built one of two ways.  The public
``MatrixStage(rows)`` validates: it checks that the rows are square and every
entry exact (``diagonal`` checks its n values).  The private
``MatrixStage._trusted(rows)`` skips those checks; it serves every stage this
module computes from exact stages and exact scalars (products, sums,
Kronecker products, seeded idempotents, corner bases and maps), whose entries
are exact by construction.  Either way each stored row is ``tuple(<list>)``,
never ``tuple(<generator>)``: a tuple grown from a generator is resized on
the way and so never reuses a freed tuple of its final size, yet it is kept
for reuse when freed, and those kept tuples raised the resident memory of
verify runs.  The builders that take an order (``identity``, ``zero``,
``rank_projector``, ``diagonal``, ``random_idempotent``) and ``embed``/``kron``
refuse an order or rank that is not an ``int`` (or is a ``bool``), and an order
above ``MAX_STAGE_ORDER``, before allocating anything.  The caps
(``MAX_STAGE_ORDER``, ``SPAN_ORDER_CAP``, ``MAX_TRIALS``) are module constants
that no call can move; ``RANK_ORDER_CAP`` and ``FULLNESS_ORDER_CAP`` are
verify's draw bounds.  ``IdempotentElement(matrix)`` proves e*e = e and reads
its rank off the trace, the rank of an idempotent over the rationals.  A seeded
e = B C, with B = P[:, :r] and C = P^-1[:r, :] for a seeded unimodular P, is
certified instead by C B = I_r (e*e = B (C B) C = e, tr e = r): ``_certified``.

One fraction-free elimination routine (``_echelon``) serves all the linear
algebra: ranks and span dimensions count its pivots, corner bases take its
pivot columns, and their inverses its reduced rows (e = B C, C B = I).  The
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
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import accumulate, chain, compress, count, groupby, islice
from typing import Iterable, Sequence

from .errors import (
    ArgumentTypeError,
    DenominatorDoesNotDivideError,
    InvalidArgumentError,
    NotADivisorError,
    SpanCapExceededError,
    ZeroIdempotentError,
    _check_int,
    _check_positive_int,
    _is_exact,
    _shown,
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

#: Default largest tower order verify draws (``run_verification``, ``sample_tower``,
#: ``--max-order``): a draw bound, not a cap.
RANK_ORDER_CAP = 96
#: Largest order verify's corner-span suite draws.
FULLNESS_ORDER_CAP = 6
#: Largest order ``corner_span_dimension`` takes: it eliminates n**2 rows of
#: width n**2, which takes up to about 40 ms at n = 12 and grows about as n**6.
SPAN_ORDER_CAP = 12
#: Most trials one verification run accepts: 500 take about 0.5 s at max order 96.
MAX_TRIALS = 500
#: Largest first order, number of stages and multiplicity ``sample_tower`` draws.
_MAX_FIRST, _MAX_DEPTH, _MAX_MULTIPLICITY = 24, 3, 4
#: Largest order a stage may be asked for or made with: the largest top stage
#: ``sample_tower`` can draw.
MAX_STAGE_ORDER = _MAX_FIRST * _MAX_MULTIPLICITY ** (_MAX_DEPTH - 1)

_UNIMODULAR_ENTRY_BOUND = 3
_SHEAR_FACTORS = (-2, -1, 1, 2)
_INT_ONLY = {int}


def _check_exact(values: Iterable) -> None:
    for x in values:
        if not _is_exact(x):
            raise ArgumentTypeError(f"matrix entries must be exact (int or Fraction), got {x!r}")


@dataclass(frozen=True)
class MatrixStage:
    """A square matrix over the rational field, stored exactly as given."""

    entries: tuple[tuple[int | Fraction, ...], ...]

    def __post_init__(self):
        rows = tuple([tuple(row) for row in self.entries])
        n = len(rows)
        if n == 0 or any(len(row) != n for row in rows):
            raise InvalidArgumentError("matrix must be square and nonempty")
        _check_exact(chain.from_iterable(rows))
        object.__setattr__(self, "entries", rows)

    @classmethod
    def _trusted(cls, rows: Iterable[Sequence[int | Fraction]]) -> MatrixStage:
        """A stage from square, nonempty rows of exact entries, without the checks.

        Only for rows this module computed from exact stages and exact
        scalars, which are exact again; anything from outside goes through
        ``MatrixStage(rows)``.  Each stored row is still ``tuple(<list>)``.
        """
        stage = object.__new__(cls)
        object.__setattr__(stage, "entries", tuple([tuple(row) for row in rows]))
        return stage

    @property
    def order(self) -> int:
        return len(self.entries)

    @classmethod
    def identity(cls, n: int) -> MatrixStage:
        _check_stage_order(n)
        return cls.diagonal([1] * n)

    @classmethod
    def zero(cls, n: int) -> MatrixStage:
        _check_stage_order(n)
        return cls.diagonal([0] * n)

    @classmethod
    def diagonal(cls, values: Sequence) -> MatrixStage:
        """The diagonal stage of the given exact values; only those n values are checked."""
        n = len(values)
        _check_stage_order(n)
        if n == 0:
            raise InvalidArgumentError("matrix must be square and nonempty")
        _check_exact(values)
        return cls._trusted([[v if i == j else 0 for j in range(n)] for i, v in enumerate(values)])

    @classmethod
    def rank_projector(cls, n: int, r: int) -> MatrixStage:
        """diag(1, .., 1, 0, .., 0) with r ones."""
        _check_stage_order(n)
        _check_int(r, "projector rank")
        if not 0 <= r <= n:
            got = f"got r={_shown(r)}, n={_shown(n)}"
            raise InvalidArgumentError(f"projector rank must satisfy 0 <= r <= n, {got}")
        return cls.diagonal([1] * r + [0] * (n - r))

    def trace(self) -> int | Fraction:
        return sum(self.entries[i][i] for i in range(self.order))

    def _entrywise(self, other, op, what: str):
        if not isinstance(other, MatrixStage):
            return NotImplemented
        if self.order != other.order:
            raise InvalidArgumentError(f"order mismatch in matrix {what}")
        return MatrixStage._trusted(
            [list(map(op, r1, r2)) for r1, r2 in zip(self.entries, other.entries)]
        )

    def __add__(self, other):
        return self._entrywise(other, operator.add, "addition")

    def __sub__(self, other):
        return self._entrywise(other, operator.sub, "subtraction")

    def __mul__(self, other):
        if isinstance(other, MatrixStage):
            if self.order != other.order:
                raise InvalidArgumentError("order mismatch in matrix product")
            return MatrixStage._trusted(_matmul_rows(self.entries, other.entries))
        if _is_exact(other):
            return MatrixStage._trusted([[x * other for x in row] for row in self.entries])
        return NotImplemented

    # A scalar on the left: exact scalars commute with every entry.
    __rmul__ = __mul__


def _check_stage_order(n: int) -> None:
    """Refuse a non-int order, or one above MAX_STAGE_ORDER, before allocating."""
    _check_int(n, "stage order")
    if n > MAX_STAGE_ORDER:
        raise InvalidArgumentError(f"stage order {_shown(n)} exceeds the cap {MAX_STAGE_ORDER}")


def _matmul_rows(a: Sequence[Sequence], b: Sequence[Sequence]) -> list[list]:
    """Row-list product of an m x k and a k x n factor, walking only nonzero entries.

    The nonzero columns of each row of b are listed once, so each product is one
    nonzero a[i][k] times one nonzero b[k][j]; an entry no product reaches stays int 0.
    """
    n = len(b[0])
    support = [list(compress(range(n), brow)) for brow in b]
    out = [[0] * n for _ in range(len(a))]
    for arow, orow in zip(a, out):
        for aik, brow, cols in zip(arow, b, support):
            if aik:
                for j in cols:
                    orow[j] = orow[j] + aik * brow[j]
    return out


def _strip_content(row: list[int]) -> list[int]:
    """Divide an integer row by the gcd of its entries, in place (same size).

    One ``math.gcd(*row)`` call takes the content in C; zeros leave the gcd
    as it is, and the zero row has content 0 and stays as it is.
    """
    g = math.gcd(*row)
    if g > 1:
        row[:] = [x // g for x in row]
    return row


def _primitive_int_row(row: Sequence[int | Fraction]) -> list[int] | None:
    """Scale a row of ints and Fractions to coprime integers; None for the zero row.

    A row of plain ints, which is every row of an integer stage, is copied
    as it is with ``list(row)``: the type test runs in C, and no entry
    pays for a denominator.  Other rows go through ``_cleared_row``.  Either
    way the result is a fresh list.
    """
    ints = list(row) if set(map(type, row)) <= _INT_ONLY else _cleared_row(row)
    if not any(ints):
        return None
    return _strip_content(ints)


def _cleared_row(row: Sequence[int | Fraction]) -> list[int]:
    """A row of ints and Fractions times the lcm of its denominators, as a list of ints."""
    denom_lcm = 1
    for x in row:
        if x:
            denom_lcm = denom_lcm * x.denominator // math.gcd(denom_lcm, x.denominator)
    return [x.numerator * (denom_lcm // x.denominator) for x in row]


def _echelon(
    rows: Iterable[Sequence[int | Fraction]], reduced: bool = False
) -> tuple[list[list[int]], list[int]]:
    """Fraction-free row echelon form over the rationals, and its pivot columns.

    The one elimination routine behind rank, column bases and inverses.
    Rows are rescaled to primitive integer vectors (row space unchanged),
    then eliminated by cross-multiplication with per-row content stripping
    to control coefficient growth, in one pass per pivot over the rows below
    it, and with ``reduced`` over the rows above it too, so the pivot block is
    diagonal (its entries need not be 1).  Each update reads only its own row
    and the pivot row, which the pass leaves as it is.  Rows with a zero in the
    pivot column are skipped, but every pivot visits every row: ``exact_rank`` splits blocks.

    Eliminated rows are stored as exact-size lists (slices and
    concatenations, divided in place), not over-allocated comprehension
    results: the spare capacity of wide rows, kept for the whole elimination,
    raised the peak resident size of corner maps.

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
        ptail = prow[c:]
        for i in range(0 if reduced else rank + 1, nrows):
            row = work[i]
            v = row[c]
            if v and i != rank:
                # The pivot row is zero before column c, and so is a row below it; a row
                # above is not, and its head is scaled by pval.
                head = row[:c] if i > rank else [pval * x for x in row[:c]]
                work[i] = _strip_content(head + [pval * x - v * y for x, y in zip(row[c:], ptail)])
        pivots.append(c)
        rank += 1
        if rank == nrows or rank == width:
            break
    return work[:rank], pivots


def exact_rank(a: MatrixStage) -> int:
    """Rank of a over the rational field, computed exactly, one diagonal block at a time.

    A cut at t, where every row above t ends before column t and every row from t
    on starts at t or later, splits off a diagonal block; a dense stage is one block.
    Each distinct block is eliminated once per call and its rank counted once per copy,
    such as the k copies in ``embed(e, k)``.
    """
    return _exact_rank(a, {})


def _exact_rank(a: MatrixStage, known: dict[tuple, int]) -> int:
    """``exact_rank``, reading and filling ``known``, a map from block rows to rank.

    Equal blocks have equal rank (equal int and ``Fraction`` values hash equal), so
    ``verify_corner_scaling`` shares one map across a tower, whose stages repeat blocks.
    """
    rows, n = a.entries, a.order
    firsts = [next(compress(count(), row), n) for row in rows]
    lasts = [next(compress(count(n - 1, -1), reversed(row)), -1) for row in rows]
    reach = list(accumulate(lasts, max))
    floor = list(accumulate(reversed(firsts), min))[::-1]
    cuts = [0, *[t for t in range(1, n) if reach[t - 1] < t <= floor[t]], n]
    blocks = (tuple([row[s:t] for row in rows[s:t]]) for s, t in zip(cuts, cuts[1:]))
    rank = 0
    # A run is counted, not listed: a list would hold every copy of its block at once.
    for block, run in groupby(blocks):
        if block not in known:
            known[block] = len(_echelon(block)[1])
        rank += sum(1 for _ in run) * known[block]
    return rank


def relative_rank(a: MatrixStage) -> Fraction:
    """rank(a) / order(a), reduced; invariant under unital embeddings."""
    return Fraction(exact_rank(a), a.order)


def embed(a: MatrixStage, k: int) -> MatrixStage:
    """Unital block-diagonal embedding: k diagonal copies of a.

    This is the fixed embedding convention M_n -> M_{nk}; it maps the
    identity to the identity and is an algebra homomorphism.
    """
    _check_positive_int(k, "multiplicity")
    _check_stage_order(a.order * k)
    return kron(MatrixStage.identity(k), a)


def kron(a: MatrixStage, b: MatrixStage) -> MatrixStage:
    """Kronecker (tensor) product; order multiplies, rank multiplies.

    A zero entry of a extends a row by one shared run of m int zeros.
    """
    n, m = a.order, b.order
    _check_stage_order(n * m)
    zeros = (0,) * m
    out = []
    for arow in a.entries:
        for brow in b.entries:
            row = []
            for x in arow:
                row.extend([x * y for y in brow] if x else zeros)
            out.append(row)
    return MatrixStage._trusted(out)


@dataclass(frozen=True)
class IdempotentElement:
    """An exact idempotent e at one matrix stage; the public constructor proves e*e = e.

    Its ``rank`` is read off the matrix: over the rationals the rank of an
    idempotent is its trace, so no elimination is run.
    """

    matrix: MatrixStage
    rank: int = field(init=False)

    def __post_init__(self):
        if self.matrix * self.matrix != self.matrix:
            raise InvalidArgumentError("matrix is not idempotent")
        object.__setattr__(self, "rank", int(self.matrix.trace()))

    @classmethod
    def _certified(cls, matrix: MatrixStage, rank: int) -> IdempotentElement:
        """e = B C with C B = I_r checked, so e*e = B (C B) C = e and tr e = r: no proof runs."""
        element = object.__new__(cls)
        object.__setattr__(element, "matrix", matrix)
        object.__setattr__(element, "rank", rank)
        return element

    @property
    def stage_order(self) -> int:
        return self.matrix.order

    @property
    def relative_rank(self) -> Fraction:
        return Fraction(self.rank, self.stage_order)


def _below(bits, m: int) -> int:
    """A draw from [0, m) as ``random.Random._randbelow_with_getrandbits`` makes it.

    ``bits`` is a bound ``getrandbits``: draw ``m.bit_length()`` bits and
    draw again while the result is m or more.
    """
    k = m.bit_length()
    r = bits(k)
    while r >= m:
        r = bits(k)
    return r


def _packed_masks(n: int) -> tuple[int, int, int, int]:
    """``(ones, over, under, high)`` for n fields in [-9, 9] packed as q = sum of x * 256**i.

    No field exceeds the bound iff ``not (q + over) & high``, none is below -bound iff
    ``(q + under) & high == high``: each field plus 127 - bound or 128 + bound is a byte.
    """
    ones = ((1 << 8 * n) - 1) // 255
    bound = _UNIMODULAR_ENTRY_BOUND
    return ones, (127 - bound) * ones, (128 + bound) * ones, 0x80 * ones


def _unimodular(n: int, rng: random.Random) -> tuple[list[list[int]], list[list[int]]]:
    """Rows of a seeded integer matrix with det +-1, entries in [-3, 3], and of its inverse.

    Built from elementary shears and sign-swaps, each applied only when the
    entry bound survives, with the inverse tracked by the matching column
    operations.  Exact integer inverses keep conjugation growth bounded.

    Each row of the matrix is packed into one int, the sum of x * 256**i, so a shear
    is one int sum, a sign-swap one negation and the bound test two masks
    (``_packed_masks``).  The inverse is kept transposed, so each of its column
    operations is one row operation: a swap and negation, or one comprehension.

    The draws read ``rng.getrandbits`` directly, through ``_below``: a
    sign-swap is ``_below(bits, 4) == 3``, a shear factor indexes the four
    factors by ``_below(bits, 4)``, and the pair of distinct rows is
    ``i = _below(bits, n)`` and ``j = _below(bits, n - 1)``, with n - 1 in
    place of i, which is uniform over the ordered pairs.
    """
    mat = [1 << 8 * i for i in range(n)]
    inv_t = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    bound = _UNIMODULAR_ENTRY_BOUND
    ones, over, under, high = _packed_masks(n)
    if n > 1:
        bits = rng.getrandbits
        for _ in range(6 * n):
            swap = _below(bits, 4) == 3
            i = _below(bits, n)
            j = _below(bits, n - 1)
            if j == i:
                j = n - 1
            if swap:
                mat[i], mat[j] = -mat[j], mat[i]
                inv_t[i], inv_t[j] = inv_t[j], inv_t[i]
                inv_t[i] = [-x for x in inv_t[i]]
            else:
                c = _SHEAR_FACTORS[_below(bits, 4)]
                new_row = mat[j] + c * mat[i]
                if not (new_row + over) & high and (new_row + under) & high == high:
                    mat[j] = new_row
                    inv_t[i] = [x - c * y for x, y in zip(inv_t[i], inv_t[j])]
    rows = [[x - bound for x in (row + bound * ones).to_bytes(n, "little")] for row in mat]
    return rows, [[col[k] for col in inv_t] for k in range(n)]


def random_idempotent(n: int, r: int, seed: int) -> IdempotentElement:
    """Seeded random idempotent of exact rank r in M_n.

    Conjugates diag(1,..,1,0,..,0) by a seeded unimodular integer matrix P,
    as the one product e = B C of B = P[:, :r] and C = P^-1[:r, :], certified
    by C B = I_r (a ``RuntimeError`` if not), the proof that it is exactly
    idempotent (no e*e is formed); it has integer entries and is reproducible per int seed.
    """
    _check_positive_int(n, "order")
    _check_stage_order(n)
    _check_int(r, "rank")
    if not 0 <= r <= n:
        raise InvalidArgumentError(f"rank must satisfy 0 <= r <= {_shown(n)}, got {_shown(r)}")
    _check_int(seed, "seed")
    if not r:
        return IdempotentElement(MatrixStage.zero(n))
    p, p_inv = _unimodular(n, random.Random(seed))
    b, c = [row[:r] for row in p], p_inv[:r]
    if _matmul_rows(c, b) != [[int(i == j) for j in range(r)] for i in range(r)]:
        raise RuntimeError("seeded idempotent factors fail C B = I_r")
    return IdempotentElement._certified(MatrixStage._trusted(_matmul_rows(b, c)), r)


@dataclass(frozen=True)
class CornerIsomorphism:
    """Explicit isomorphism data between e M_n e and M_r.

    ``to_diagonal`` conjugates e to diag(1,..,1,0,..,0).  Its first r rows C and
    the first r columns B of ``from_diagonal`` factor e = B C with C B = I_r, so
    ``apply`` is x -> C x B (x's leading r x r block) and ``lift`` is y -> B y C.
    """

    rank: int
    to_diagonal: MatrixStage
    from_diagonal: MatrixStage

    @property
    def order(self) -> int:
        return self.to_diagonal.order

    def apply(self, x: MatrixStage) -> MatrixStage:
        if x.order != self.order:
            raise InvalidArgumentError("element order does not match the stage order")
        cx = _matmul_rows(self.to_diagonal.entries[: self.rank], x.entries)
        return MatrixStage._trusted(_matmul_rows(cx, self._columns()))

    def lift(self, y: MatrixStage) -> MatrixStage:
        if y.order != self.rank:
            raise InvalidArgumentError("element order does not match the corner rank")
        by = _matmul_rows(self._columns(), y.entries)
        return MatrixStage._trusted(_matmul_rows(by, self.to_diagonal.entries[: self.rank]))

    def _columns(self) -> list[list]:
        """B, the first r columns of ``from_diagonal``, as lists: tuple slices raised peak RSS."""
        return [list(islice(row, self.rank)) for row in self.from_diagonal.entries]


def corner_isomorphism(e: IdempotentElement) -> CornerIsomorphism:
    """Change of basis splitting e into image plus kernel.

    The image columns of e and the image columns of 1-e together form a
    basis; in that basis e becomes diag(1,..,1,0,..,0) and cutting the
    leading r x r block is an algebra isomorphism e M_n e -> M_r.

    The same eliminations give the inverse.  A row of C, e's reduced echelon
    rows over their pivots, combines rows of e, so C e = C; with e B = B for
    e's pivot columns B, C B = I_r and C (1 - e) = 0.  Likewise for 1 - e and
    its own C, so the two stacked are the inverse of the basis, the one product
    checked: e times the basis is [B | 0], so the inverse diagonalizes e.
    """
    if e.rank == 0:
        raise ZeroIdempotentError("the zero idempotent cuts out the zero corner")
    n, r = e.stage_order, e.rank
    ent, comp = e.matrix.entries, (MatrixStage.identity(n) - e.matrix).entries
    # The pivot columns of an echelon form are the first maximal
    # independent set of columns.
    rows, image = _echelon(ent, reduced=True)
    crows, complement = _echelon(comp, reduced=True)
    if len(image) != r or len(complement) != n - r:
        raise RuntimeError("idempotent splitting produced unexpected dimensions")
    basis = MatrixStage._trusted(
        [[row[j] for j in image] + [crow[j] for j in complement] for row, crow in zip(ent, comp)]
    )
    pivoted = zip(rows + crows, image + complement)
    to_diag = MatrixStage._trusted(
        [[Fraction(x, row[c]) if x else 0 for x in row] for row, c in pivoted]
    )
    if to_diag * basis != MatrixStage.identity(n):
        raise RuntimeError("change of basis failed to invert")
    return CornerIsomorphism(rank=r, to_diagonal=to_diag, from_diagonal=basis)


def corner_span_dimension(e: IdempotentElement | MatrixStage) -> int:
    """Dimension of e M_n e, from the spanning set {e E_ij e} by brute force.

    Orders above ``SPAN_ORDER_CAP`` raise SpanCapExceededError before any row
    is built (the span computation is n**4 in the order).
    """
    m = e.matrix if isinstance(e, IdempotentElement) else e
    if m.order > SPAN_ORDER_CAP:
        raise SpanCapExceededError(
            f"order {m.order} exceeds the corner span cap {SPAN_ORDER_CAP}"
        )
    ent = m.entries
    # e E_ij e = (column i of e) (row j of e), flattened row-major.
    rows = ([c * x for c in col for x in rj] for col in zip(*ent) for rj in ent)
    return len(_echelon(rows)[1])


def is_full_idempotent(e: IdempotentElement) -> bool:
    """Whether the two-sided span {x e y : x, y matrix units} is all of M_n.

    E_ij e E_kl = e[j][k] E_il, so one nonzero entry e[j][k] puts every
    matrix unit E_il in the span, and e = 0 spans nothing: the span is M_n
    exactly when e has a nonzero entry.
    """
    return any(map(any, e.matrix.entries))


@dataclass(frozen=True)
class Tower:
    """A finite divisibility chain of matrix orders n_1 | n_2 | ... | n_t."""

    orders: tuple[int, ...]

    def __post_init__(self):
        orders = tuple(self.orders)
        if not orders:
            raise InvalidArgumentError("a tower needs at least one stage")
        for n in orders:
            _check_positive_int(n, "stage order")
        for a, b in zip(orders, orders[1:]):
            if b % a:
                got = f"{_shown(a)} does not divide {_shown(b)}"
                raise InvalidArgumentError(f"orders must form a divisibility chain: {got}")
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
        checks = [
            CheckLine(f"{prefix}.{c.name}", c.stage, c.expected, c.got, c.passed)
            for c in self.checks
        ]
        return VerificationReport(tuple(checks))

    @staticmethod
    def merge(reports: Iterable[VerificationReport]) -> VerificationReport:
        return VerificationReport(tuple(chain.from_iterable(r.checks for r in reports)))


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "YES" if value else "NO"
    return str(value)


def _check(name: str, stage: int, expected, got) -> CheckLine:
    return CheckLine(name, stage, _fmt(expected), _fmt(got), expected == got)


def verify_corner_scaling(
    descriptor_st: SupernaturalNumber,
    tower: Tower,
    r: Fraction | int | str,
    seed: int,
) -> VerificationReport:
    """Ground the corner scaling law st(eAe) = r(e) * st(A) on one tower.

    Builds a seeded idempotent of relative rank r at the first stage,
    pushes it up the tower by block-diagonal embedding, and checks at every
    stage that the relative rank is unchanged and the corner order equals
    r * n_i; finally the lcm of the observed corner orders is compared with
    the symbolic scaling of the tower lcm and checked to divide the scaled
    descriptor.  A top order above ``MAX_STAGE_ORDER`` is refused before any
    stage is built.
    """
    r = read_rational(r, "relative rank", at_most_one=True)
    first = tower.orders[0]
    if first % r.denominator:
        raise DenominatorDoesNotDivideError(
            f"rank denominator {r.denominator} does not divide "
            f"the first stage order {_shown(first)}"
        )
    top = tower.top_order
    _check_stage_order(top)
    if not divides(from_natural(top), descriptor_st):
        raise NotADivisorError(
            f"tower lcm {_shown(top)} does not divide the descriptor {descriptor_st}"
        )

    checks: list[CheckLine] = []
    element = random_idempotent(first, int(r * first), seed)
    stage_matrix = element.matrix
    observed: list[int] = []
    known: dict[tuple, int] = {}
    for idx, order in enumerate(tower.orders):
        if idx:
            stage_matrix = embed(stage_matrix, tower.multiplicities[idx - 1])
        rank = _exact_rank(stage_matrix, known)
        observed.append(rank)
        checks.append(_check("relative-rank", order, r, Fraction(rank, order)))
        checks.append(_check("corner-order", order, int(r * order), rank))
    observed_st = from_natural(math.lcm(*observed))
    checks.append(_check("corner-order-lcm", top, scale(from_natural(top), r), observed_st))
    corner_st = scale(descriptor_st, r)
    checks.append(_check("corner-divides-steinitz", top, True, divides(observed_st, corner_st)))
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
    got = f"got m={_shown(m)}, n={_shown(n)}"
    if m >= n:
        raise InvalidArgumentError(f"the corner must be proper: need m < n, {got}")
    if math.gcd(m, n) != 1:
        raise InvalidArgumentError(f"m and n must be relatively prime, {got}")

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


def sample_tower(rng: random.Random, max_order: int = RANK_ORDER_CAP) -> Tower:
    """Draw a random divisibility chain within the module's limits and max_order."""
    first = rng.randint(2, max(2, min(_MAX_FIRST, max_order)))
    orders = [first]
    for _ in range(rng.randint(1, _MAX_DEPTH) - 1):
        k = rng.randint(2, _MAX_MULTIPLICITY)
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
    _check_int(seed, "seed")
    _check_int(max_order, "max order")
    _check_int(trials, "trials")
    if max_order < 2:
        raise InvalidArgumentError(f"max order must be at least 2, got {_shown(max_order)}")
    if trials < 1:
        raise InvalidArgumentError(f"need at least one trial, got {_shown(trials)}")
    if trials > MAX_TRIALS:
        raise InvalidArgumentError(f"need at most {MAX_TRIALS} trials, got {_shown(trials)}")
    rng = random.Random(seed)
    reports: list[VerificationReport] = []
    for t in range(trials):
        tower = sample_tower(rng, max_order=max_order)
        r = sample_relative_rank(rng, tower.orders[0])
        extra = rng.choice(_EXTRA_PATTERNS)
        st = mul(from_natural(tower.top_order), extra)
        rep = verify_corner_scaling(st, tower, r, seed=rng.randrange(2**32))
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
