"""Exact integer matrix algebra.

``smith_normal_form`` is the only function that reduces a matrix; the
determinantal divisors and the counting/enumeration of solutions of
homogeneous systems modulo any r >= 2 are read from its result, the
divisors and the column transform Q.  No reader needs the row transform,
so the reduction does not keep one.  The brute-force minors
(``oracles.minor_gcd``) are the oracle for the divisors.  Plain Python
integers throughout, so nothing ever overflows.
"""

import os
from math import gcd, prod
from typing import Iterable, NamedTuple

from ._frozen import Frozen

DEFAULT_ENUM_CAP = 10**6
ENUM_CAP_ENV = "KREPS_ENUM_CAP"


class EnumerationCapExceeded(RuntimeError):
    """Raised when a solution enumeration would exceed the configured cap."""


class IntMatrix(Frozen):
    """A rectangular integer matrix with explicit shape.  Immutable,
    compared and hashed by its fields."""

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, rows: int, cols: int, entries: tuple[tuple[int, ...], ...]) -> None:
        if len(entries) != rows:
            raise ValueError("row count mismatch")
        for row in entries:
            if len(row) != cols:
                raise ValueError("matrix is not rectangular")
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "cols", cols)
        object.__setattr__(self, "entries", entries)

    @classmethod
    def from_rows(cls, rows: Iterable[Iterable[int]], cols: int | None = None) -> "IntMatrix":
        grid = tuple(tuple(int(x) for x in row) for row in rows)
        if cols is None:
            if not grid:
                raise ValueError("column count required for an empty matrix")
            cols = len(grid[0])
        return cls(len(grid), cols, grid)


def _bareiss(a: list[list[int]]) -> int:
    """The determinant of the square matrix with rows a, by fraction-free
    (Bareiss) elimination in place, which overwrites a."""
    n = len(a)
    sign, prev = 1, 1
    for k in range(n - 1):
        if not a[k][k]:
            i = next((i for i in range(k + 1, n) if a[i][k]), None)
            if i is None:
                return 0
            a[k], a[i] = a[i], a[k]
            sign = -sign
        ak = a[k]
        piv = ak[k]
        for ai in a[k + 1 :]:
            x = ai[k]
            for j in range(k + 1, n):
                ai[j] = (ai[j] * piv - x * ak[j]) // prev
        prev = piv
    return sign * a[n - 1][n - 1] if n else 1


def int_det(m: IntMatrix) -> int:
    """Exact determinant by fraction-free (Bareiss) elimination."""
    if m.rows != m.cols:
        raise ValueError("determinant requires a square matrix")
    return _bareiss([list(row) for row in m.entries])


class SNFResult(NamedTuple):
    """The Smith normal form of A: the divisors, positive and each dividing
    the next, and a unimodular Q such that P A Q = diag(divisors) for
    some unimodular P, which is not kept.  So column j of A Q is
    divisors[j] times column j of P^-1 for j < rank, and zero past the rank."""

    divisors: tuple[int, ...]
    Q: IntMatrix

    @property
    def rank(self) -> int:
        return len(self.divisors)

    @property
    def cols(self) -> int:
        return self.Q.rows


def _min_abs_nonzero(m: list[list[int]], k: int) -> tuple[int, int] | None:
    best = None
    best_val = 0
    for i in range(k, len(m)):
        row = m[i]
        for j in range(k, len(row)):
            v = row[j]
            if v and (best is None or abs(v) < best_val):
                best = (i, j)
                best_val = abs(v)
                if best_val == 1:
                    return best
    return best


def smith_normal_form(a: IntMatrix) -> SNFResult:
    """Smith normal form with its column transform.

    Pivots are chosen as the nonzero entry of minimal absolute value in
    the remaining block, which keeps intermediate entries small.  Q is
    kept by columns.  Once column k is clear below the pivot, a column
    operation changes only row k of A: one entry, plus one column of Q.
    A unit pivot divides everything, so it skips the divisibility scan.
    The output is deterministic for a fixed input.
    """
    rows, cols = a.rows, a.cols
    m = [list(row) for row in a.entries]
    q = [[int(i == j) for i in range(cols)] for j in range(cols)]
    k = 0
    # each pass pivots once; k moves on when the pass leaves no remainder
    while k < min(rows, cols) and (pivot := _min_abs_nonzero(m, k)) is not None:
        i0, j0 = pivot
        if i0 != k:
            m[k], m[i0] = m[i0], m[k]
        if j0 != k:
            for row in m:
                row[k], row[j0] = row[j0], row[k]
            q[k], q[j0] = q[j0], q[k]
        mk = m[k]
        if mk[k] < 0:
            mk = m[k] = [-x for x in mk]
        piv = mk[k]
        dirty = False
        for i in range(k + 1, rows):
            x = m[i][k]
            if x:
                f = x // piv
                if f:
                    m[i] = [u - f * v for u, v in zip(m[i], mk)]
                dirty = dirty or x != f * piv
        if not dirty:
            qk = q[k]
            for j in range(k + 1, cols):
                x = mk[j]
                if x:
                    f = x // piv
                    if f:
                        mk[j] = x - f * piv
                        q[j] = [u - f * v for u, v in zip(q[j], qk)]
                    dirty = dirty or mk[j] != 0
        if not dirty and piv != 1:
            # the pivot must divide the rest of the block for the divisor chain
            bad = next((i for i in range(k + 1, rows) if any(x % piv for x in m[i][k + 1 :])), None)
            if bad is not None:
                m[k] = [u + v for u, v in zip(mk, m[bad])]
                dirty = True
        if not dirty:
            k += 1

    divisors = tuple(m[i][i] for i in range(k))
    return SNFResult(divisors=divisors, Q=IntMatrix(cols, cols, tuple(zip(*q))))


def determinantal_divisor(snf: SNFResult, k: int) -> int:
    """gcd of all k x k minors of the reduced matrix A, 0 <= k <= cols: the
    product of the first k invariant factors, 1 for k = 0, and 0 if every
    k-minor vanishes or A has fewer than k rows."""
    if k < 0 or k > snf.cols:
        raise ValueError("minor size out of range")
    if k > snf.rank:
        return 0
    return prod(snf.divisors[:k])


def solution_count_mod(snf: SNFResult, r: int) -> int:
    """Number of x in (Z/r)^cols with A x == 0 (mod r), A the reduced matrix."""
    if r < 2:
        raise ValueError("modulus must be at least 2")
    count = r ** (snf.cols - snf.rank)
    for d in snf.divisors:
        count *= gcd(d, r)
    return count


def _count_text(count: int, noun: str) -> str:
    """``"{count} {noun}"``, or ``"a 1,046-digit number of {noun}"`` once
    the count has more than 20 digits, which also keeps ``str`` off ints
    past its 4,300-digit limit."""
    if count < 10**20:
        return f"{count} {noun}"
    digits = int((count.bit_length() - 1) * 0.30102999566398120) + 1
    digits += count >= 10**digits
    return f"a {digits:,}-digit number of {noun}"


def _enum_cap() -> int:
    """The most solutions or candidates an enumeration may produce: 10**6,
    or the value of KREPS_ENUM_CAP; ValueError naming the variable when
    that is not a non-negative decimal integer."""
    value = os.environ.get(ENUM_CAP_ENV, str(DEFAULT_ENUM_CAP))
    if not (value.isascii() and value.isdigit()):
        raise ValueError(f"{ENUM_CAP_ENV} must be a non-negative decimal integer, not {value!r}")
    return int(value)


def solution_columns_mod(snf: SNFResult, r: int) -> list[list[int]]:
    """All x in (Z/r)^cols with A x == 0 (mod r), without duplicates and in
    no promised order, as one list per coordinate: solution j is the j-th
    entry of each list.  With no columns there is one solution, the empty
    vector, and no list.

    Solutions are Q x' where the pivot coordinates of x' run over the
    multiples of r/gcd(d_i, r) and the free coordinates run over all
    residues.  So the solution group is generated by one step-scaled
    column of Q per nontrivial divisor or free column, and the solutions
    are the sums of the generators' multiples.  Each generator extends the
    coordinate lists by one comprehension that adds its multiples to the
    sums so far, so no solution is built as a tuple.  Raises
    EnumerationCapExceeded if the solution count exceeds the cap
    (``_enum_cap``)."""
    total = solution_count_mod(snf, r)
    limit = _enum_cap()
    if total > limit:
        raise EnumerationCapExceeded(f"{_count_text(total, 'solutions')} exceed the cap of {limit}")
    generators = [(r // gcd(d, r), gcd(d, r)) for d in snf.divisors]
    generators += [(1, r)] * (snf.cols - snf.rank)
    columns = [[0] for _ in range(snf.cols)]
    count = 1
    for column, (step, order) in zip(zip(*snf.Q.entries), generators):
        if order == 1:
            continue
        multiples = range(order)
        scaled = [step * q % r for q in column]
        if count == 1:
            columns = [[c * k % r for k in multiples] for c in scaled]
        else:
            columns = [
                [(x + c * k) % r for k in multiples for x in sums] for sums, c in zip(columns, scaled)
            ]
        count *= order
    return columns
