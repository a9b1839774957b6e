"""Exact arithmetic in the ring of integer Laurent polynomials Z[t, 1/t].

Polynomials are sparse maps from integer exponents to arbitrary-precision
integer coefficients; no floats or rationals appear anywhere.  Matrices
over the ring are thin immutable grids used for Alexander-type matrices.
The dense Z[t] helpers serve the elimination of
``presentations.alexander_poly``; the gcd and the determinants by
subset expansion are oracles (``kreps.oracles``).
"""

from typing import Iterable, Mapping, Sequence

from ._frozen import Frozen


class LaurentPoly:
    """A Laurent polynomial with integer coefficients.

    Immutable.  Zero coefficients are never stored; the zero polynomial
    has an empty coefficient map.
    """

    __slots__ = ("_coeffs",)

    def __init__(self, coeffs: Mapping[int, int] | None = None):
        clean: dict[int, int] = {}
        if coeffs:
            for exp, c in coeffs.items():
                if c:
                    clean[int(exp)] = int(c)
        object.__setattr__(self, "_coeffs", clean)

    @classmethod
    def _of(cls, clean: dict[int, int]) -> "LaurentPoly":
        """Wrap ``clean`` without copying it.  The caller guarantees that it
        maps ints to nonzero ints and that nothing else keeps it."""
        f = object.__new__(cls)
        object.__setattr__(f, "_coeffs", clean)
        return f

    # -- constructors ------------------------------------------------

    @classmethod
    def zero(cls) -> "LaurentPoly":
        return cls()

    @classmethod
    def one(cls) -> "LaurentPoly":
        return cls({0: 1})

    @classmethod
    def term(cls, coeff: int, exp: int = 0) -> "LaurentPoly":
        return cls({exp: coeff})

    @classmethod
    def t(cls, exp: int = 1) -> "LaurentPoly":
        return cls({exp: 1})

    # -- structure ---------------------------------------------------

    @property
    def coeffs(self) -> dict[int, int]:
        return dict(self._coeffs)

    def terms(self) -> list[tuple[int, int]]:
        """(exponent, coefficient) pairs in ascending exponent order."""
        return sorted(self._coeffs.items())

    def coeff(self, exp: int) -> int:
        return self._coeffs.get(exp, 0)

    @property
    def is_zero(self) -> bool:
        return not self._coeffs

    @property
    def min_exp(self) -> int:
        if not self._coeffs:
            raise ValueError("zero polynomial has no degree bounds")
        return min(self._coeffs)

    @property
    def max_exp(self) -> int:
        if not self._coeffs:
            raise ValueError("zero polynomial has no degree bounds")
        return max(self._coeffs)

    # -- ring operations ----------------------------------------------

    def __add__(self, other: "LaurentPoly") -> "LaurentPoly":
        out = dict(self._coeffs)
        for e, c in other._coeffs.items():
            c = out.get(e, 0) + c
            if c:
                out[e] = c
            else:
                del out[e]
        return LaurentPoly._of(out)

    def __neg__(self) -> "LaurentPoly":
        return LaurentPoly._of({e: -c for e, c in self._coeffs.items()})

    def __sub__(self, other: "LaurentPoly") -> "LaurentPoly":
        out = dict(self._coeffs)
        for e, c in other._coeffs.items():
            c = out.get(e, 0) - c
            if c:
                out[e] = c
            else:
                del out[e]
        return LaurentPoly._of(out)

    def __mul__(self, other: "LaurentPoly") -> "LaurentPoly":
        out: dict[int, int] = {}
        for e1, c1 in self._coeffs.items():
            for e2, c2 in other._coeffs.items():
                e = e1 + e2
                c = out.get(e, 0) + c1 * c2
                if c:
                    out[e] = c
                else:
                    del out[e]
        return LaurentPoly._of(out)

    def __pow__(self, n: int) -> "LaurentPoly":
        if n < 0:
            raise ValueError("negative powers are not defined for polynomials")
        result = LaurentPoly.one()
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def shifted(self, k: int) -> "LaurentPoly":
        """Multiply by t^k."""
        return LaurentPoly._of({e + k: c for e, c in self._coeffs.items()})

    def evaluate(self, v: int) -> int:
        """Value at t = v, only for v in {1, -1} (so 1/t stays integral)."""
        if v == 1:
            return sum(self._coeffs.values())
        if v == -1:
            return sum(c if e % 2 == 0 else -c for e, c in self._coeffs.items())
        raise ValueError("Laurent polynomials are integer-valued only at t = 1 or t = -1")

    # -- comparisons ---------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self._coeffs == other._coeffs

    def __hash__(self) -> int:
        return hash(frozenset(self._coeffs.items()))

    def __bool__(self) -> bool:
        return bool(self._coeffs)

    def __repr__(self) -> str:
        return f"LaurentPoly({poly_str(self)!r})"

    def __str__(self) -> str:
        return poly_str(self)


def poly_str(f: LaurentPoly) -> str:
    """Render with terms in ascending exponent, e.g. ``1 - t + t^2``.

    Negative exponents print as ``t^-2``.
    """
    if f.is_zero:
        return "0"
    parts: list[str] = []
    for e, c in f.terms():
        mag = abs(c)
        if e == 0:
            body = str(mag)
        else:
            var = "t" if e == 1 else f"t^{e}"
            body = var if mag == 1 else f"{mag}*{var}"
        if not parts:
            parts.append(body if c > 0 else f"-{body}")
        else:
            parts.append(f"+ {body}" if c > 0 else f"- {body}")
    return " ".join(parts)


def normalize_unit(f: LaurentPoly) -> LaurentPoly:
    """Canonical representative of f up to units (signs and powers of t).

    Shifts the lowest exponent to 0 and makes the lowest-degree
    coefficient positive, in one pass over the terms.
    """
    coeffs = f._coeffs
    if not coeffs:
        raise ValueError("the zero polynomial has no unit normalization")
    low = min(coeffs)
    sign = -1 if coeffs[low] < 0 else 1
    return LaurentPoly._of({e - low: sign * c for e, c in coeffs.items()})


# -- dense Z[t] helpers (for alexander_poly and the oracles) ---------------


def _dense(f: LaurentPoly) -> tuple[int, list[int]]:
    """(offset, coefficients) with coefficients[0] the t^offset term."""
    if f.is_zero:
        return 0, []
    lo, hi = f.min_exp, f.max_exp
    return lo, [f.coeff(e) for e in range(lo, hi + 1)]


def _from_dense(offset: int, cs: Sequence[int]) -> LaurentPoly:
    return LaurentPoly._of({offset + i: c for i, c in enumerate(cs) if c})


def _trim(cs: list[int]) -> list[int]:
    while cs and cs[-1] == 0:
        cs.pop()
    return cs


# -- matrices over the Laurent ring ---------------------------------------


class LaurentMatrix(Frozen):
    """A rectangular matrix over Z[t, 1/t].  Rows and columns are explicit
    so that empty matrices (0 x m) keep their shape.  Immutable, compared
    and hashed by its fields."""

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, rows: int, cols: int, entries: tuple[tuple[LaurentPoly, ...], ...]) -> None:
        if len(entries) != rows:
            raise ValueError("row count mismatch")
        for row in entries:
            if len(row) != cols:
                raise ValueError("matrix is not rectangular")
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "cols", cols)
        object.__setattr__(self, "entries", entries)

    @classmethod
    def from_rows(cls, rows: Iterable[Iterable[LaurentPoly]], cols: int | None = None) -> "LaurentMatrix":
        grid = tuple(tuple(row) for row in rows)
        if cols is None:
            if not grid:
                raise ValueError("column count required for an empty matrix")
            cols = len(grid[0])
        return cls(len(grid), cols, grid)

    @classmethod
    def identity(cls, n: int) -> "LaurentMatrix":
        one, zero = LaurentPoly.one(), LaurentPoly.zero()
        return cls(n, n, tuple(tuple(one if i == j else zero for j in range(n)) for i in range(n)))

    def __matmul__(self, other: "LaurentMatrix") -> "LaurentMatrix":
        if self.cols != other.rows:
            raise ValueError("shape mismatch in matrix product")
        grid = []
        for i in range(self.rows):
            row = []
            for j in range(other.cols):
                acc = LaurentPoly.zero()
                for k in range(self.cols):
                    acc = acc + self.entries[i][k] * other.entries[k][j]
                row.append(acc)
            grid.append(tuple(row))
        return LaurentMatrix(self.rows, other.cols, tuple(grid))

    def __sub__(self, other: "LaurentMatrix") -> "LaurentMatrix":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("shape mismatch in matrix difference")
        return LaurentMatrix(
            self.rows,
            self.cols,
            tuple(
                tuple(self.entries[i][j] - other.entries[i][j] for j in range(self.cols))
                for i in range(self.rows)
            ),
        )

    def evaluate(self, v: int) -> list[list[int]]:
        """Integer matrix of values at t = v, for v in {1, -1}."""
        return [[p.evaluate(v) for p in row] for row in self.entries]

    def without_zero_rows(self) -> "LaurentMatrix":
        return LaurentMatrix.from_rows([row for row in self.entries if any(row)], cols=self.cols)

    def submatrix(self, row_idx: Sequence[int], col_idx: Sequence[int]) -> "LaurentMatrix":
        grid = tuple(tuple(self.entries[i][j] for j in col_idx) for i in row_idx)
        return LaurentMatrix(len(row_idx), len(col_idx), grid)
