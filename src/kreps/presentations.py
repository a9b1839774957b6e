"""Alexander matrices of braid closures and of the surface knots built
from commuting braid pairs, their polynomials, the reduced-Burau
cross-check, and the coloring form that reports read at t = -1.

Matrix conventions:

* The Alexander matrix has one row per strand of each braid and one
  column per meridian t_1..t_n; row i of a braid w is row i of I - J(w),
  the abelianized Fox derivatives of the relator t_i (w(t_i))^-1.  Row
  sums vanish identically, because every relator has exponent sum zero.
* ``alexander_matrix`` builds it from the braid by one Burau rule per
  letter.  Free-word presentations and Fox calculus
  (``oracles.fox_matrix``) are the oracle that the tests and ``kreps
  verify`` check it against.
* A knot's polynomial is one minor (``knot_poly``), checked by the
  reduced Burau route (``burau_alexander``); a surface's is the gcd of
  the minors that avoid the base column, read from one fraction-free
  elimination of those columns over Z[t] (``alexander_poly``).  The gcd
  of every minor by subset expansion (``oracles.laurent_minor_gcd``) is
  the oracle for both.
* Reports read everything at t = -1 from one reduction, ``coloring_form``.

``alexander_matrix``, ``knot_poly`` and ``burau_alexander`` run the Burau
rules on packed integers (Kronecker substitution; Harvey, J. Symbolic
Comput. 44, 2009), not on Laurent polynomials, and ``coloring_form`` runs
them at t = -1:

* A matrix of Laurent polynomials t^-N f_ij, each f_ij in Z[t], is kept
  as the integers f_ij(T) at T = 2^k, with one power N for the whole
  matrix, the number of negative letters of the word, and for each row or
  column a bound b on the sum of the l1 norms of its f_ij.  The walk
  starts from T^N times the identity, so that every t^-1 of a rule is an
  exact right shift by k bits, and each letter is a few integer additions
  and shifts per entry.
* Every coefficient of every f_ij is below b in absolute value.  While b
  < 2^(k-1), each value has one expansion in balanced base-T digits,
  which gives the f_ij back exactly.
* The bounds follow the letter rules on absolute values, and the rules
  keep them below 2^(k-2).  When a letter would break that, every vector
  is unpacked, its bound is reset to its actual norm, and all are
  repacked with k the bit length of the largest norm plus a fixed
  headroom.  Without the re-sizing k would have to grow like L log2(3)
  bits for a word of L letters, and every value with it.
* A determinant of packed rows is one integer determinant, with each row
  first divided by the largest power of T that divides it, which changes
  the determinant by a power of t alone, and the rows repacked if needed
  so that T/4 exceeds the product of their bounds, which bounds every
  coefficient of the determinant.  The Burau route divides it by 1 - t^n
  as one integer divmod at that width.  Both routes unpack the result once
  and hand it to ``normalize_unit``.
"""

from math import gcd, prod
from typing import Sequence

from .braids import BraidWord, closure_component_count
from .intlinalg import IntMatrix, SNFResult, _bareiss, determinantal_divisor, smith_normal_form
from .laurent import LaurentMatrix, LaurentPoly, _trim, normalize_unit

# -- packed-integer kernel ----------------------------------------------------

_HEADROOM = 64  # bits above the largest norm after a re-size; a multiple of 8


def _width(bound: int) -> int:
    """The least digit width k, a multiple of 8, with bound < 2^(k-2)."""
    return (bound.bit_length() + 9) // 8 * 8


def _halves(count: int, k: int) -> int:
    """The sum of 2^(k-1) T^e over e < count, for T = 2^k."""
    return int.from_bytes((bytes(k // 8 - 1) + b"\x80") * count, "little")


def _pack(cs: Sequence[int], k: int) -> int:
    """f(2^k) for f = sum c_e t^e, every |c_e| < 2^(k-1).  Each c_e + 2^(k-1)
    is one unsigned base-2^k digit."""
    step, half = k // 8, 1 << (k - 1)
    raw = b"".join((c + half).to_bytes(step, "little") for c in cs)
    return int.from_bytes(raw, "little") - _halves(len(cs), k)


def _unpack(v: int, k: int) -> list[int]:
    """Coefficients c_0, c_1, ... (no trailing zeros) of the f in Z[t] with
    f(2^k) = v and every |c_e| < 2^(k-1): the digits of v + sum 2^(k-1) T^e,
    each minus 2^(k-1)."""
    step, half = k // 8, 1 << (k - 1)
    count = v.bit_length() // k + 2
    raw = (v + _halves(count, k)).to_bytes(count * step, "little")
    out = [int.from_bytes(raw[at : at + step], "little") - half for at in range(0, len(raw), step)]
    while out and not out[-1]:
        out.pop()
    return out


def _zero_digits(values: list[int], k: int) -> int:
    """The largest e such that T^e, T = 2^k, divides every value packed at
    2^k, or 0 if all are zero.  A value's lowest set bit lies in its lowest
    nonzero balanced digit, so e is read from the OR of the lowest set bits."""
    low = 0
    for v in values:
        low |= v & -v
    return ((low & -low).bit_length() - 1) // k if low else 0


def _rewiden(vectors: list[list[int]], k: int) -> tuple[int, list[list[int]], list[int]]:
    """Unpack vectors packed at 2^k and repack them with _HEADROOM bits
    above the largest l1 norm: (new k, vectors, norms).  Every digit keeps
    its position; the e digits below the lowest nonzero one of all values
    are shifted out before the unpacking and back in after it."""
    e = _zero_digits([v for vec in vectors for v in vec], k)
    polys = [[_unpack(v >> e * k, k) for v in vec] for vec in vectors]
    norms = [sum(sum(map(abs, cs)) for cs in vec) for vec in polys]
    k = _width(max(norms)) + _HEADROOM
    return k, [[_pack(cs, k) << e * k for cs in vec] for vec in polys], norms


def _identity(n: int, power: int) -> tuple[int, list[list[int]], int, list[int]]:
    """The rows of T^power times the n x n identity, packed: (k, values,
    power, bounds)."""
    k = _width(1) + _HEADROOM
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        rows[i][i] = 1 << k * power
    return k, rows, power, [1] * n


def _jacobian_rows(word: BraidWord) -> tuple[int, list[list[int]], int, list[int]]:
    """Rows of J(word), packed: (k, values, N, bounds), every row carrying
    t^-N for N the number of negative letters.  The letter rules of
    ``alexander_matrix``, with t^-1 an exact right shift:

        +i:  r_i <- r_i + T (r_{i+1} - r_i),  r_{i+1} <- r_i
        -i:  r_i <- r_{i+1},  r_{i+1} <- r_{i+1} + (r_i - r_{i+1}) / T

    with the bounds (2 b_i + b_{i+1}, b_i) and (b_{i+1}, b_i + 2 b_{i+1}).
    Each value is T^N times its Laurent entry, whose least exponent is at
    least -m after m negative letters, so before the next one every value
    is a multiple of T^(N-m) with N - m >= 1 and the division is exact.
    """
    k, rows, power, bounds = _identity(word.strands, sum(x < 0 for x in word.letters))
    limit = 1 << (k - 2)
    for letter in word.letters:
        i = abs(letter) - 1
        j = i + 1
        if max(bounds[i], bounds[j]) * 3 >= limit:
            k, rows, bounds = _rewiden(rows, k)
            limit = 1 << (k - 2)
        top, bottom = rows[i], rows[j]
        b, c = bounds[i], bounds[j]
        if letter > 0:
            rows[i], rows[j] = [x + ((y - x) << k) for x, y in zip(top, bottom)], top
            bounds[i], bounds[j] = 2 * b + c, b
        else:
            rows[i], rows[j] = bottom, [y + ((x - y) >> k) for x, y in zip(top, bottom)]
            bounds[i], bounds[j] = c, b + 2 * c
    return k, rows, power, bounds


def _burau_columns(word: BraidWord) -> tuple[int, list[list[int]], int, list[int]]:
    """Columns of the reduced Burau matrix of word, packed: (k, values, N,
    bounds), every column carrying t^-N for N the number of negative
    letters.  The letter rules of ``burau_alexander``, with t^-1 an exact
    right shift as in ``_jacobian_rows`` and c_k <- c_{k-1} + c_k + c_{k+1}
    on the bounds (columns 0 and n are zero):

        +k:  c_k <- T (c_{k-1} - c_k) + c_{k+1}
        -k:  c_k <- c_{k-1} + (c_{k+1} - c_k) / T
    """
    size = word.strands - 1
    k, cols, power, bounds = _identity(size, sum(x < 0 for x in word.letters))
    zero = [0] * size
    cols, bounds = [zero, *cols, zero], [0, *bounds, 0]
    limit = 1 << (k - 2)
    for letter in word.letters:
        c = abs(letter)
        bound = bounds[c - 1] + bounds[c] + bounds[c + 1]
        if bound >= limit:
            k, cols, bounds = _rewiden(cols, k)
            limit = 1 << (k - 2)
            bound = bounds[c - 1] + bounds[c] + bounds[c + 1]
        lower, mid, upper = cols[c - 1], cols[c], cols[c + 1]
        if letter > 0:
            cols[c] = [((y - x) << k) + z for x, y, z in zip(mid, lower, upper)]
        else:
            cols[c] = [y + ((z - x) >> k) for x, y, z in zip(mid, lower, upper)]
        bounds[c] = bound
    return k, cols[1:-1], power, bounds[1:-1]


def _minus_identity(
    packed: tuple[int, list[list[int]], int, list[int]],
) -> tuple[int, list[list[int]], int, list[int]]:
    """Vector i of A - I from vector i of A, in place, packed: (k, values,
    power, bounds); det(A - I) = +-det(I - A), and I - A is its negative."""
    k, vectors, power, bounds = packed
    unit = 1 << k * power
    for i, vec in enumerate(vectors):
        vec[i] -= unit
    return k, vectors, power, [b + 1 for b in bounds]


def _lowest_terms(vectors: list[list[int]], k: int) -> list[list[int]]:
    """Each vector packed at 2^k divided by the largest power of t that
    divides all its values; a determinant changes by a power of t alone."""
    out = []
    for vec in vectors:
        shift = _zero_digits(vec, k) * k
        out.append([v >> shift for v in vec])
    return out


def _packed_int_det(rows: list[list[int]], bounds: Sequence[int], k: int) -> tuple[int, int]:
    """(det, k'): the determinant of the square matrix of polynomials packed
    as rows at 2^k, row i of l1 norm at most bounds[i], packed at 2^k'.

    The l1 norm of a product is at most the product of the l1 norms, so
    the l1 norm of the determinant, a signed sum of products with one entry
    from each row, is at most prod(bounds); the rows are first repacked
    to k' = ``_width(prod(bounds))`` when k is narrower, which keeps every
    coefficient below 2^(k'-2).  ``_bareiss`` overwrites the rows."""
    wide = _width(prod(bounds))
    if wide > k:
        rows = [[_pack(_unpack(v, k), wide) for v in row] for row in rows]
        k = wide
    return _bareiss(rows), k


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

    The columns are packed (``_burau_columns``) and divided by their
    largest powers of t (``_lowest_terms``), so det(B - I) = +-det(I - B)
    = t^-s c(t) for some s, c(T) is one integer determinant of them, and
    the division is one integer divmod at T = 2^k, unpacked once and put in
    unit-normal form (``normalize_unit``, which drops the sign and the
    power of t):

    * Let P = prod(bounds).  ``_packed_int_det`` gives ||c||_1 <= P and a
      width with P < 2^(k-2), so f = c (1 - t) has ||f||_1 <= 2P < 2^(k-1).
    * If f = (1 - t^n) q, then f_i = q_i - q_(i-n), so q_i is the sum of
      f_j over j <= i with j = i (mod n): a partial sum of the numerator's
      coefficients, and |q_i| <= ||f||_1 < 2^(k-1).  Then f(T) = (1 -
      T^n) q(T) with q(T) in balanced base-T digits, so the integer
      quotient unpacks to q exactly.
    * Otherwise f = (1 - t^n) q + r with r != 0 of degree below n, each r_i
      a sum of f_j over one residue class mod n, so |r_i| < 2^(k-1) <= T/2
      and 0 < |r(T)| < T^n - 1 = |1 - T^n|: the integer division leaves
      a nonzero remainder, which raises.
    """
    if closure_component_count(a) != 1:
        raise ValueError("the closure is not a knot")
    n = a.strands
    if n == 1:
        return LaurentPoly.one()
    k, cols, _, bounds = _minus_identity(_burau_columns(a))
    char, k = _packed_int_det(_lowest_terms(cols, k), bounds, k)
    quotient, remainder = divmod(char - (char << k), 1 - (1 << k * n))
    if remainder:
        raise ValueError("non-exact polynomial division")
    return normalize_unit(LaurentPoly.from_dense(0, _unpack(quotient, k)))


def alexander_matrix(*braids: BraidWord) -> LaurentMatrix:
    """Nonzero rows of I - J(w) for each braid w given, in order: equal to
    ``oracles.fox_matrix`` of the closure or torus-covering presentation,
    zero rows dropped.  J(w), the abelianized Fox Jacobian of the automorphism of w,
    is the product of its unreduced Burau letter matrices (Birman 1974,
    section 3); from the identity, each letter, first to last, updates:

        +i:  row_i <- (1-t) row_i + t row_{i+1},  row_{i+1} <- old row_i
        -i:  row_i <- row_{i+1},  row_{i+1} <- t^-1 row_i + (1-t^-1) row_{i+1}

    The rows are packed (``_jacobian_rows``) and each value is unpacked
    once, straight into ``LaurentPoly.from_dense``; a packed value is 0
    exactly when its polynomial is.
    """
    if len({word.strands for word in braids}) != 1:
        raise ValueError("one or more braids on the same number of strands are required")
    rows = []
    for word in braids:
        k, vectors, power, _ = _minus_identity(_jacobian_rows(word))
        rows.extend(
            [LaurentPoly.from_dense(-power, _unpack(-v, k)) for v in vec] for vec in vectors if any(vec)
        )
    return LaurentMatrix.from_rows(rows, cols=braids[0].strands)


def knot_poly(a: BraidWord) -> LaurentPoly:
    """Normalized Alexander polynomial of a knot closure: the minor of its
    Alexander matrix (``alexander_matrix(a)``) on the first cols-1 rows
    with the base (last) column deleted, or 1 for one strand.  One minor is
    enough:

    * The rows of M sum to zero, so every (cols-1)-minor equals, up to
      sign, the one on the same rows that avoids the base column.
    * The braid fixes x_1...x_n, so sum_i t^(i-1) (I - J(a))_i = 0.  The
      coefficients are units, so any row is a ring combination of the
      others, and any cols-1 rows span the row module.
    * At t = 1, row i of I - J(a) is e_i - e_pi(i) for the closure
      permutation pi, an n-cycle, so no row is zero and M has all n rows.

    Hence every minor that avoids the base column is an associate of Delta.
    The rows are packed (``_jacobian_rows``), and the minor of J - I, which
    is +-1 times that of I - J, is one integer determinant of them, each
    divided first by its largest power of t (``_lowest_terms``), unpacked
    once and put in unit-normal form (``normalize_unit``).
    """
    if closure_component_count(a) != 1:
        raise ValueError("the closure is not a knot")
    n = a.strands
    if n == 1:
        return LaurentPoly.one()
    k, rows, power, bounds = _jacobian_rows(a)
    minor = [row[:-1] for row in rows[: n - 1]]
    k, minor, _, bounds = _minus_identity((k, minor, power, bounds[: n - 1]))
    det, k = _packed_int_det(_lowest_terms(minor, k), bounds, k)
    return normalize_unit(LaurentPoly.from_dense(0, _unpack(det, k)))


def _reduce(row: list[list[int]], pivot: list[list[int]], j: int) -> list[list[int]]:
    """a row - b t^s pivot, which cancels the top term of row[j], divided
    by its integer content and by the largest power of t that divides it;
    pivot[j] is nonzero and of no higher degree than row[j]."""
    top, lead = row[j][-1], pivot[j][-1]
    g = gcd(top, lead)
    a, b = lead // g, top // g
    s = len(row[j]) - len(pivot[j])
    out = []
    for x, y in zip(row, pivot):
        z = [a * c for c in x] + [0] * (len(y) + s - len(x))
        for e, c in enumerate(y, s):
            z[e] -= b * c
        out.append(_trim(z))
    g = gcd(*[c for z in out for c in z])
    low = min((next(e for e, c in enumerate(z) if c) for z in out if z), default=0)
    return [[c // g for c in z[low:]] for z in out]


def alexander_poly(m: LaurentMatrix) -> LaurentPoly:
    """Normalized gcd of all (cols-1)-minors of a matrix with m >= 1 columns:
    1 if cols == 1, 0 when there are too few rows or every minor vanishes.
    ValueError when the gcd is nonzero and the base-free M(1) has a
    maximal-minor gcd other than 1, which a knot or a connected surface
    never gives.

    * The rows of M sum to zero, so each minor equals, up to sign, one on
      the same rows that avoids the base (last) column; only those count.
    * The rows, as Z[t] coefficient lists read from each entry's ``dense``
      pair, their lowest power of t shifted to t^0, are eliminated column
      by column: the row of least degree in the column is the pivot, every
      other row nonzero there is reduced against it (``_reduce``), and the
      pivot is chosen again until one row is left.  Each step is
      invertible over Q[t, 1/t], so the gcd of the maximal minors over
      Q[t, 1/t] is the product of the pivots (the Hermite form; Kannan and
      Bachem, SIAM J. Comput. 8, 1979), and 0 if a column finds no row.
    * The gcd over Z[t, 1/t] evaluates at t = 1 to a divisor of every
      maximal minor of the base-free M(1).  When their gcd is 1, the gcd
      has content 1, so by Gauss's lemma it is the primitive part of the
      product.  For a knot or a connected surface M(1) stacks the rows
      e_i - e_pi(i) of a connected strand graph, and some such minor is +-1.
    """
    if m.cols < 1:
        raise ValueError("the matrix needs at least one column")
    n = m.cols - 1
    rows = []
    for entries in m.entries:
        dense = [p.dense for p in entries[:n]]
        low = min((e for e, cs in dense if cs), default=None)
        if low is not None:
            rows.append([(0,) * (e - low) + cs if cs else cs for e, cs in dense])
    poly = LaurentPoly.one()
    for j in range(n):
        live = [row for row in rows if row[j]]
        rows = [row for row in rows if not row[j]]
        if not live:
            return LaurentPoly.zero()
        while len(live) > 1:
            pivot = min(live, key=lambda row: len(row[j]))
            reduced = [_reduce(row, pivot, j) for row in live if row is not pivot]
            live = [pivot, *(row for row in reduced if row[j])]
            rows.extend(row for row in reduced if not row[j])
        g = gcd(*live[0][j])
        poly = poly * LaurentPoly.from_dense(0, [c // g for c in live[0][j]])
    at_one = IntMatrix.from_rows([row[:n] for row in m.evaluate(1)], cols=n)
    divisor = determinantal_divisor(smith_normal_form(at_one), n)
    if divisor != 1:
        raise ValueError(f"the base-free matrix at t = 1 has maximal-minor gcd {divisor}, not 1")
    return normalize_unit(poly)


def _jacobian_at_minus_one(word: BraidWord) -> list[list[int]]:
    """Rows of J(word) at t = -1 = t^-1, by the letter rules of
    ``alexander_matrix``:

        +i:  r_i <- 2 r_i - r_{i+1},  r_{i+1} <- r_i
        -i:  r_i <- r_{i+1},  r_{i+1} <- 2 r_{i+1} - r_i
    """
    n = word.strands
    rows = [[int(i == j) for j in range(n)] for i in range(n)]
    for letter in word.letters:
        i = abs(letter) - 1
        top, bottom = rows[i], rows[i + 1]
        if letter > 0:
            rows[i], rows[i + 1] = [2 * x - y for x, y in zip(top, bottom)], top
        else:
            rows[i], rows[i + 1] = bottom, [2 * y - x for x, y in zip(top, bottom)]
    return rows


def coloring_form(*braids: BraidWord) -> SNFResult:
    """Smith normal form of M(-1) with the base (last) column deleted, for
    M = ``alexander_matrix(*braids)``, from which reports read the
    determinant, coloring counts and classes.

    * The rows of M sum to zero, so each (cols-1)-minor equals, up to
      sign, the one on the same rows that avoids the base column: the top
      divisor ``determinantal_divisor(form, form.cols)`` is the determinant.
    * Every coloring is a base-pinned coloring plus a constant, so the
      form's solutions modulo r are the condition-O colorings with the base
      dropped, and the total count is r times theirs.

    M(-1) comes from the letter rules at t = -1 (``_jacobian_at_minus_one``),
    and every row that vanishes there is dropped, including those of M that
    vanish only at t = -1.  A zero row changes no divisor, no solution and
    no column transform.  The rows reduced are those of J(-1) - I, the
    negatives of M's, whose form has the same divisors and whose Q serves
    M(-1) as well.
    """
    if len({word.strands for word in braids}) != 1:
        raise ValueError("one or more braids on the same number of strands are required")
    n = braids[0].strands
    rows = []
    for word in braids:
        for i, row in enumerate(_jacobian_at_minus_one(word)):
            relator = row[:-1]
            if i < n - 1:
                relator[i] -= 1
            if any(relator):
                rows.append(tuple(relator))
    return smith_normal_form(IntMatrix(len(rows), n - 1, tuple(rows)))
