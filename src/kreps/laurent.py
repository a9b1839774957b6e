"""Exact arithmetic in the ring of integer Laurent polynomials Z[t, 1/t].

A polynomial is t^low times a tuple of arbitrary-precision integer
coefficients with no zero at either end, the one format that the packed
kernel, the surface elimination and the oracles' gcd and division read
and write; no floats or rationals appear anywhere.  Matrices over the
ring are thin immutable grids used for Alexander-type matrices.  The gcd
and the determinants by subset expansion are oracles (``kreps.oracles``).
"""

from typing import Iterable, Mapping

from ._frozen import Frozen


def _integral(x) -> int:
    """x as an int; ValueError when int() would change its value."""
    n = int(x)
    if n != x:
        raise ValueError(f"{x!r} is not an integer")
    return n


class LaurentPoly(Frozen):
    """A Laurent polynomial with integer coefficients, t^low (c_0 + c_1 t +
    ... + c_d t^d) with c_0 and c_d nonzero, stored as low and (c_0, ...,
    c_d); the zero polynomial is low 0 with no coefficients.  Immutable,
    compared and hashed by that pair."""

    __slots__ = ("_low", "_cs")

    def __init__(self, coeffs: Mapping[int, int] | None = None):
        clean = {_integral(e): _integral(c) for e, c in (coeffs or {}).items()}
        clean = {e: c for e, c in clean.items() if c}
        low = min(clean, default=0)
        span = range(low, max(clean, default=-1) + 1)
        object.__setattr__(self, "_low", low)
        object.__setattr__(self, "_cs", tuple(clean.get(e, 0) for e in span))

    @classmethod
    def from_dense(cls, low: int, coefficients: Iterable[int]) -> "LaurentPoly":
        """t^low times sum c_i t^i, the zeros at either end dropped."""
        cs = tuple(coefficients)
        end = len(cs)
        while end and not cs[end - 1]:
            end -= 1
        start = 0
        while start < end and not cs[start]:
            start += 1
        f = object.__new__(cls)
        object.__setattr__(f, "_low", low + start if end else 0)
        object.__setattr__(f, "_cs", cs[start:end])
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
    def dense(self) -> tuple[int, tuple[int, ...]]:
        """(low, coefficients), the coefficients those of t^low, t^(low+1),
        ..., with nonzero ends; (0, ()) for zero."""
        return self._low, self._cs

    def terms(self) -> list[tuple[int, int]]:
        """(exponent, coefficient) pairs in ascending exponent order."""
        return [(e, c) for e, c in enumerate(self._cs, self._low) if c]

    # -- ring operations ----------------------------------------------

    def _plus(self, other: "LaurentPoly", sign: int) -> "LaurentPoly":
        """self + sign * other."""
        if not self._cs:
            return other if sign > 0 else -other
        if not other._cs:
            return self
        low = min(self._low, other._low)
        out = [0] * (self._low - low) + list(self._cs)
        out += [0] * (other._low + len(other._cs) - low - len(out))
        for i, c in enumerate(other._cs, other._low - low):
            out[i] += sign * c
        return LaurentPoly.from_dense(low, out)

    def __add__(self, other: "LaurentPoly") -> "LaurentPoly":
        return self._plus(other, 1)

    def __sub__(self, other: "LaurentPoly") -> "LaurentPoly":
        return self._plus(other, -1)

    def __neg__(self) -> "LaurentPoly":
        return LaurentPoly.from_dense(self._low, [-c for c in self._cs])

    def __mul__(self, other: "LaurentPoly") -> "LaurentPoly":
        if not self._cs or not other._cs:
            return LaurentPoly.zero()
        out = [0] * (len(self._cs) + len(other._cs) - 1)
        for i, x in enumerate(self._cs):
            if x:
                for j, y in enumerate(other._cs, i):
                    out[j] += x * y
        return LaurentPoly.from_dense(self._low + other._low, out)

    def evaluate(self, v: int) -> int:
        """Value at t = v, only for v in {1, -1} (so 1/t stays integral)."""
        if v == 1:
            return sum(self._cs)
        if v == -1:
            value = sum(self._cs[::2]) - sum(self._cs[1::2])
            return -value if self._low % 2 else value
        raise ValueError("Laurent polynomials are integer-valued only at t = 1 or t = -1")

    def __bool__(self) -> bool:
        return bool(self._cs)

    def __reduce__(self) -> tuple:
        return LaurentPoly.from_dense, self.dense

    def __repr__(self) -> str:
        return f"LaurentPoly({poly_str(self)!r})"

    def __str__(self) -> str:
        return poly_str(self)


def poly_str(f: LaurentPoly) -> str:
    """Render with terms in ascending exponent, e.g. ``1 - t + t^2``.

    Negative exponents print as ``t^-2``.
    """
    if not f:
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
    """Canonical representative of f up to units (signs and powers of t):
    the lowest exponent shifted to 0 and the lowest coefficient positive."""
    _, cs = f.dense
    if not cs:
        raise ValueError("the zero polynomial has no unit normalization")
    return LaurentPoly.from_dense(0, cs if cs[0] > 0 else [-c for c in cs])


# -- the list helper of the Z[t] eliminations and divisions ----------------


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

    # The product and the ring operations it needs stay here, not in
    # kreps.oracles: the perfbench tracer wraps LaurentMatrix.__matmul__ by
    # name, oracles.coloring_matrix and oracles.laurent_det use +, -, * and
    # truthiness, and alexander_poly multiplies its pivots.
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

    def evaluate(self, v: int) -> list[list[int]]:
        """Integer matrix of values at t = v, for v in {1, -1}."""
        return [[p.evaluate(v) for p in row] for row in self.entries]
