"""Alexander matrices of braid closures and of the surface knots built
from commuting braid pairs, the crossing matrix of the closure diagram,
and a reduced-Burau cross-check.

Matrix conventions:

* A presentation has generators t_1..t_m, each weighted by a power of t
  under abelianization (weight exponent 1 everywhere in this package).
* The Alexander matrix has one row per relator and one column per
  generator; entry (i, j) is the abelianized free derivative of relator
  i by generator j.  Row sums vanish identically because every relator
  has weighted exponent sum zero.
* Production builds it from the braid by one Burau rule per letter
  (``alexander_matrix``).  Free-word presentations and Fox calculus
  (``fox_matrix``) are the oracle that the tests and ``kreps verify``
  check it against.
* Reports read everything at t = -1 from one reduction, ``coloring_form``.
* A knot's polynomial is one minor (``knot_poly``); a surface's is the
  gcd of the minors that avoid the base column (``alexander_poly``).
* The closure diagram of a braid has one arc per maximal over-segment;
  arcs are numbered 1..m.  At a crossing the over arc j transforms the
  incoming under arc i into the outgoing under arc k, and the crossing
  matrix row is t*x + (1-t)*x_j - x_out, where the roles of i and k as
  "x" and "x_out" follow the crossing sign (positive: i is transformed
  into k; negative: the other way around).  At t = -1 both readings give
  the same row, 2*over - in - out.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .braids import (
    BraidWord,
    FreeWord,
    artin_act,
    braids_commute,
    closure_component_count,
)
from .intlinalg import IntMatrix, SNFResult, smith_normal_form
from .laurent import (
    LaurentMatrix,
    LaurentPoly,
    exact_div,
    laurent_det,
    laurent_minor_gcd,
    normalize_unit,
)


@dataclass(frozen=True)
class Presentation:
    """A finite presentation whose abelianization is infinite cyclic."""

    generators: int
    relators: tuple[FreeWord, ...]
    weights: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.generators < 1:
            raise ValueError("a presentation needs at least one generator")
        if len(self.weights) != self.generators:
            raise ValueError("one weight exponent per generator is required")
        for rel in self.relators:
            if rel.rank != self.generators:
                raise ValueError("relator rank does not match the generator count")
            if rel.weighted_exponent_sum(self.weights) != 0:
                raise ValueError(
                    "relator has nonzero weighted exponent sum; "
                    "it cannot hold in a group with infinite cyclic abelianization"
                )


@dataclass(frozen=True)
class Crossing:
    """One crossing: the over arc, the incoming and outgoing under arcs,
    and the sign of the crossing."""

    over: int
    under_in: int
    under_out: int
    sign: int


@dataclass(frozen=True)
class ClosureDiagram:
    arc_count: int
    crossings: tuple[Crossing, ...]


def closure_presentation(a: BraidWord) -> Presentation:
    """Presentation of the closure's group: t_i = (image of t_i under a).

    Relators that reduce to the empty word are dropped.
    """
    n = a.strands
    relators = []
    for i in range(1, n + 1):
        gen = FreeWord.generator(n, i)
        rel = gen * artin_act(a, gen).inverse()
        if not rel.is_identity:
            relators.append(rel)
    return Presentation(n, tuple(relators), (1,) * n)


def torus_covering_presentation(a: BraidWord, b: BraidWord) -> Presentation:
    """Presentation of the group of the genus-one surface knot spanned by
    the commuting pair (a, b): both monodromies fix every meridian.
    """
    if a.strands != b.strands:
        raise ValueError("strand count mismatch")
    if not braids_commute(a, b):
        raise ValueError("basis braids must commute")
    if closure_component_count(a) != 1:
        raise ValueError("the closure of the first braid must be a knot")
    relators = closure_presentation(a).relators + closure_presentation(b).relators
    return Presentation(a.strands, relators, (1,) * a.strands)


def fox_derivative_abelianized(r: FreeWord, j: int, weights: Sequence[int]) -> LaurentPoly:
    """Abelianized free derivative of r by generator j.

    Walks the word once: a positive occurrence of j contributes the
    weighted prefix monomial, a negative one contributes minus the
    prefix times the inverse weight of j.
    """
    if j < 1 or j > r.rank:
        raise ValueError("generator index out of range")
    coeffs: dict[int, int] = {}
    prefix = 0
    for letter in r.letters:
        g = abs(letter)
        w = weights[g - 1]
        if g == j:
            if letter > 0:
                exp = prefix
                coeffs[exp] = coeffs.get(exp, 0) + 1
            else:
                exp = prefix - w
                coeffs[exp] = coeffs.get(exp, 0) - 1
        prefix += w if letter > 0 else -w
    return LaurentPoly(coeffs)


def fox_matrix(p: Presentation) -> LaurentMatrix:
    """Rows are relators, columns are generators."""
    grid = tuple(
        tuple(fox_derivative_abelianized(rel, j, p.weights) for j in range(1, p.generators + 1))
        for rel in p.relators
    )
    return LaurentMatrix(len(p.relators), p.generators, grid)


def alexander_matrix(*braids: BraidWord) -> LaurentMatrix:
    """Nonzero rows of I - J(w) for each braid w given, in order: equal to
    ``fox_matrix`` of the closure or torus-covering presentation, zero rows
    dropped.  J(w), the abelianized Fox Jacobian of the automorphism of w,
    is the product of its unreduced Burau letter matrices (Birman 1974,
    section 3); from the identity, each letter, first to last, updates:

        +i:  row_i <- (1-t) row_i + t row_{i+1},  row_{i+1} <- old row_i
        -i:  row_i <- row_{i+1},  row_{i+1} <- t^-1 row_i + (1-t^-1) row_{i+1}
    """
    if len({word.strands for word in braids}) != 1:
        raise ValueError("one or more braids on the same number of strands are required")
    n = braids[0].strands
    identity = LaurentMatrix.identity(n)
    shifted_sum = LaurentPoly.shifted_sum
    rows = []
    for word in braids:
        jac = [list(row) for row in identity.entries]
        for letter in word.letters:
            i = abs(letter) - 1
            top, bottom = jac[i], jac[i + 1]
            if letter > 0:
                jac[i] = [shifted_sum((1, 0, x), (-1, 1, x), (1, 1, y)) for x, y in zip(top, bottom)]
                jac[i + 1] = top
            else:
                jac[i] = bottom
                jac[i + 1] = [shifted_sum((1, 0, y), (1, -1, x), (-1, -1, y)) for x, y in zip(top, bottom)]
        rows.extend((identity - LaurentMatrix.from_rows(jac, cols=n)).without_zero_rows().entries)
    return LaurentMatrix.from_rows(rows, cols=n)


def closure_diagram(a: BraidWord) -> ClosureDiagram:
    """Arcs and crossings of the standard closure diagram of a.

    Walking down the braid, each crossing ends the under strand's arc and
    starts a fresh one; closing up identifies the label left on each slot
    with the arc that started there.  Positive generators cross the left
    strand over the right.
    """
    if len(a.letters) < 1:
        raise ValueError("the diagram needs at least one crossing")
    n = a.strands
    labels = list(range(n))
    next_label = n
    raw: list[tuple[int, int, int, int]] = []
    for letter in a.letters:
        i = abs(letter) - 1
        if letter > 0:
            over, under = labels[i], labels[i + 1]
            fresh = next_label
            next_label += 1
            labels[i], labels[i + 1] = fresh, over
        else:
            over, under = labels[i + 1], labels[i]
            fresh = next_label
            next_label += 1
            labels[i], labels[i + 1] = over, fresh
        raw.append((over, under, fresh, 1 if letter > 0 else -1))

    parent = list(range(next_label))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(x: int, y: int) -> None:
        rx, ry = find(x), find(y)
        if rx != ry:
            parent[ry] = rx

    for slot in range(n):
        union(slot, labels[slot])

    roots = sorted({find(x) for x in range(next_label)})
    arc_of = {root: idx + 1 for idx, root in enumerate(roots)}
    crossings = tuple(
        Crossing(
            over=arc_of[find(over)],
            under_in=arc_of[find(under)],
            under_out=arc_of[find(fresh)],
            sign=sign,
        )
        for over, under, fresh, sign in raw
    )
    return ClosureDiagram(len(roots), crossings)


def coloring_matrix(d: ClosureDiagram) -> LaurentMatrix:
    """One row per crossing of the relation t*x_in + (1-t)*x_over - x_out,
    with entries accumulated when arcs coincide.  On negative crossings
    the under arcs trade places, which changes nothing at t = -1.
    """
    t = LaurentPoly.t()
    one = LaurentPoly.one()
    rows = []
    for c in d.crossings:
        row = [LaurentPoly.zero()] * d.arc_count
        src, dst = (c.under_in, c.under_out) if c.sign > 0 else (c.under_out, c.under_in)
        row[src - 1] = row[src - 1] + t
        row[c.over - 1] = row[c.over - 1] + (one - t)
        row[dst - 1] = row[dst - 1] - one
        rows.append(tuple(row))
    return LaurentMatrix(len(d.crossings), d.arc_count, tuple(rows))


def burau_alexander(a: BraidWord) -> LaurentPoly:
    """Alexander polynomial of the knot closure via the reduced Burau
    matrix: det(I - B) * (1 - t) / (1 - t^n), normalized.

    This route never touches free derivatives, so it serves as an
    independent check on the presentation route.  The division is exact
    whenever the closure is a knot; a non-exact division means a bug.

    B starts at the identity, and each letter right-multiplies it by a
    reduced Burau matrix that differs from the identity only in column k
    (columns 0 and n are zero):

        +k:  col_k <- -t col_k + t col_{k-1} + col_{k+1}
        -k:  col_k <- -t^-1 col_k + col_{k-1} + t^-1 col_{k+1}
    """
    if closure_component_count(a) != 1:
        raise ValueError("the closure is not a knot")
    n = a.strands
    if n == 1:
        return LaurentPoly.one()
    size = n - 1
    identity = LaurentMatrix.identity(size)
    cols = [list(col) for col in identity.entries]  # B[i][k] = cols[k][i]
    zeros = [LaurentPoly.zero()] * size
    shifted_sum = LaurentPoly.shifted_sum
    for letter in a.letters:
        k = abs(letter) - 1
        left, right = (1, 0) if letter > 0 else (0, -1)
        lower = cols[k - 1] if k > 0 else zeros
        upper = cols[k + 1] if k + 1 < size else zeros
        cols[k] = [
            shifted_sum((-1, left + right, x), (1, left, y), (1, right, z))
            for x, y, z in zip(cols[k], lower, upper)
        ]
    char = laurent_det(identity - LaurentMatrix.from_rows(zip(*cols), cols=size))
    numerator = char * (LaurentPoly.one() - LaurentPoly.t())
    denominator = LaurentPoly.one() - LaurentPoly.t(n)
    return normalize_unit(exact_div(numerator, denominator))


def knot_poly(m: LaurentMatrix) -> LaurentPoly:
    """Normalized Alexander polynomial of a knot from its Alexander matrix
    (``alexander_matrix`` of one braid): the minor on rows 0..cols-2 with
    the base (last) column deleted, or 1 if cols == 1.  One minor is enough:

    * The rows of M sum to zero, so every (cols-1)-minor equals, up to
      sign, the one on the same rows that avoids the base column.
    * The braid fixes x_1...x_n, so sum_i t^(i-1) (I - J(a))_i = 0.  The
      coefficients are units, so any row is a ring combination of the
      others, and any cols-1 rows span the row module.
    * A knot's matrix has rank cols-1, so ``alexander_matrix`` dropped at
      most one zero row, and the rows left still satisfy that relation.

    Hence every minor that avoids the base column is an associate of Delta.
    """
    if m.cols < 1:
        raise ValueError("the matrix needs at least one column")
    if m.rows < m.cols - 1:
        raise ValueError("a knot's Alexander matrix has at least cols-1 rows")
    base_free = range(m.cols - 1)
    return normalize_unit(laurent_det(m.submatrix(base_free, base_free)))


def alexander_poly(m: LaurentMatrix) -> LaurentPoly:
    """Normalized gcd of all (cols-1)-minors of a matrix with m >= 1 columns:
    1 if cols == 1, 0 when there are too few rows or every minor vanishes.

    The rows of M sum to zero, so each minor equals, up to sign, one on the
    same rows that avoids the base (last) column; only those are taken, one
    per row subset, with ``laurent_minor_gcd``'s early exit at a unit.
    """
    if m.cols < 1:
        raise ValueError("the matrix needs at least one column")
    base_free = range(m.cols - 1)
    return laurent_minor_gcd(m.submatrix(range(m.rows), base_free), m.cols - 1)


def coloring_form(m: LaurentMatrix) -> SNFResult:
    """Smith normal form of M(-1) with the base (last) column deleted, from
    which reports read the determinant, coloring counts and classes.

    * The rows of M sum to zero, so each (cols-1)-minor equals, up to
      sign, the one on the same rows that avoids the base column: the top
      divisor ``determinantal_divisor(form, form.cols)`` is the determinant.
    * Every coloring is a base-pinned coloring plus a constant, so the
      form's solutions modulo r are the condition-O colorings with the base
      dropped, and the total count is r times theirs.
    """
    if m.cols < 1:
        raise ValueError("the matrix needs at least one column")
    at_minus_one = IntMatrix.from_rows(m.evaluate(-1), cols=m.cols)
    return smith_normal_form(at_minus_one.column_deleted(m.cols - 1))
