"""Oracles: slower, independent routes to the numbers that reports compute,
and the ``kreps verify`` sweep that checks the two against each other.

No report calls anything here.  Production keeps one route to each answer
(the Burau rules and the one Smith normal form of the coloring form); the
routes here reach the same numbers another way:

* the braid action on the free group of the punctured disk
  (``artin_act``), compared on every generator (``free_words_commute``),
  for commutation;
* free-word presentations of the closure and of the torus-covering
  surface knot, and their Fox matrices (``fox_matrix``), for the Alexander
  matrix;
* the crossing matrix of the closure diagram (``coloring_matrix``), for
  the elementary ideals at t = -1;
* exhaustive arc colorings of the diagram (``diagram_census_brute``), for
  the coloring censuses;
* the gcd of all k x k minors (``minor_gcd``), for the determinantal
  divisors;
* binary dihedral images evaluated on the free-word relators
  (``verify_representation``, ``is_irreducible``), for the classes;
* the solutions modulo r as tuples (``enumerate_solutions_mod``), for
  the solution counts and the nondegenerate colorings;
* the class list by a scan for each solution's first nonzero color
  (``scan_rep_classes``), for the choice of representatives;
* exact division in the Laurent ring (``exact_div``), for the Burau
  route's division by 1 - t^n, which production does as one integer
  ``divmod``;
* the gcd of all k x k minors over the Laurent ring
  (``laurent_minor_gcd``), each minor a signed subset expansion
  (``laurent_det``) folded in by pseudo-remainders (``poly_gcd``), for the
  Alexander polynomials, which production reads from one minor of a knot
  and from one elimination of a surface's matrix.

``braid_mismatch``, ``long_word_mismatch``, ``matrix_mismatch``,
``class_mismatch`` and ``pair_mismatch`` each run every check on one
input and return a description of the first failure, or None.
``verify_report`` runs them over a seeded sweep of random knot braids
(``random_knot_braid``) and matrices; the acceptance tests
call them on their own seeds.

Conventions:

* Free-group words are sequences of signed generator indices in 1..rank,
  always kept freely reduced.  A braid acts on the free group of the
  n-punctured disk by

      +i:  t_i -> t_i t_{i+1} t_i^-1,   t_{i+1} -> t_i
      -i:  t_i -> t_{i+1},              t_{i+1} -> t_{i+1}^-1 t_i t_{i+1}

  and a word acts by composing letter actions so that
  ``act(ab, w) == act(a, act(b, w))``.  This order makes the braid
  relations hold letter for letter (a property test pins it down).
* A presentation has generators t_1..t_m, each a meridian that
  abelianization sends to t.  Its Fox matrix has one row per relator and
  one column per generator; entry (i, j) is the abelianized free
  derivative of relator i by generator j.  Row sums vanish identically
  because every relator has exponent sum zero.
* The closure diagram of a braid has one arc per maximal over-segment;
  arcs are numbered 1..m.  At a crossing the over arc j transforms the
  incoming under arc i into the outgoing under arc k, and the crossing
  matrix row is t*x + (1-t)*x_j - x_out, where the roles of i and k as
  "x" and "x_out" follow the crossing sign (positive: i is transformed
  into k; negative: the other way around).  At t = -1 both readings give
  the same row, 2*over - in - out.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import combinations, product
from math import gcd, prod
from typing import Any, Iterable, Sequence

from .braids import (
    BraidWord,
    braids_commute,
    closure_component_count,
    full_twist,
    parse_braid,
)
from .colorings import ColoringCensus, coloring_census, generated_subgroup, surface_coloring_census
from .intlinalg import (
    IntMatrix,
    SNFResult,
    determinantal_divisor,
    int_det,
    smith_normal_form,
    solution_columns_mod,
    solution_count_mod,
)
from .laurent import LaurentMatrix, LaurentPoly, _trim, normalize_unit, poly_str
from .metabelian import BinaryDihedralElt, RepClass, bd_inv, bd_mul, enumerate_rep_classes
from .presentations import alexander_matrix, alexander_poly, burau_alexander, coloring_form, knot_poly

# -- the free group and the braid action on it ----------------------------------


def _reduce_into(out: list[int], letters: Iterable[int]) -> None:
    for x in letters:
        if out and out[-1] == -x:
            out.pop()
        else:
            out.append(x)


def free_reduce(letters: Iterable[int]) -> tuple[int, ...]:
    out: list[int] = []
    _reduce_into(out, letters)
    return tuple(out)


@dataclass(frozen=True)
class FreeWord:
    """A freely reduced word in free-group generators 1..rank.

    The constructor reduces its input, so every instance is reduced.
    """

    rank: int
    letters: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.rank < 1:
            raise ValueError("free group rank must be at least 1")
        reduced = free_reduce(int(x) for x in self.letters)
        for letter in reduced:
            if letter == 0 or abs(letter) > self.rank:
                raise ValueError(f"generator {letter} out of range for rank {self.rank}")
        object.__setattr__(self, "letters", reduced)

    @classmethod
    def generator(cls, rank: int, i: int) -> "FreeWord":
        return cls(rank, (i,))

    @property
    def is_identity(self) -> bool:
        return not self.letters

    def __mul__(self, other: "FreeWord") -> "FreeWord":
        if self.rank != other.rank:
            raise ValueError("rank mismatch")
        return FreeWord(self.rank, self.letters + other.letters)

    def inverse(self) -> "FreeWord":
        return FreeWord(self.rank, tuple(-x for x in reversed(self.letters)))

    def exponent_sum(self) -> int:
        return sum(1 if x > 0 else -1 for x in self.letters)


def _letter_image(braid_letter: int, free_letter: int) -> tuple[int, ...]:
    i = abs(braid_letter)
    g = abs(free_letter)
    if braid_letter > 0:
        if g == i:
            img: tuple[int, ...] = (i, i + 1, -i)
        elif g == i + 1:
            img = (i,)
        else:
            img = (g,)
    else:
        if g == i:
            img = (i + 1,)
        elif g == i + 1:
            img = (-(i + 1), i, i + 1)
        else:
            img = (g,)
    if free_letter < 0:
        img = tuple(-x for x in reversed(img))
    return img


def artin_act(a: BraidWord, w: FreeWord) -> FreeWord:
    """Image of the free word w under the automorphism attached to a.

    Reduction is applied eagerly after every letter substitution to keep
    intermediate words short.
    """
    if w.rank != a.strands:
        raise ValueError("free word rank must equal the braid's strand count")
    letters = list(w.letters)
    for braid_letter in reversed(a.letters):
        out: list[int] = []
        for free_letter in letters:
            _reduce_into(out, _letter_image(braid_letter, free_letter))
        letters = out
    return FreeWord(a.strands, tuple(letters))


def free_words_commute(a: BraidWord, b: BraidWord) -> bool:
    """Whether ab = ba in the braid group, the oracle for
    ``braids.braids_commute``.

    Decided by comparing the automorphism images of every generator,
    which is exact because the action on the free group is faithful.  The
    images grow exponentially with the words.
    """
    if a.strands != b.strands:
        raise ValueError("strand count mismatch")
    ab, ba = a * b, b * a
    for i in range(1, a.strands + 1):
        gen = FreeWord.generator(a.strands, i)
        if artin_act(ab, gen) != artin_act(ba, gen):
            return False
    return True


# -- free-word presentations and Fox calculus ---------------------------------


@dataclass(frozen=True)
class Presentation:
    """A finite presentation whose abelianization is infinite cyclic, every
    generator a meridian sent to t."""

    generators: int
    relators: tuple[FreeWord, ...]

    def __post_init__(self) -> None:
        if self.generators < 1:
            raise ValueError("a presentation needs at least one generator")
        for rel in self.relators:
            if rel.rank != self.generators:
                raise ValueError("relator rank does not match the generator count")
            if rel.exponent_sum() != 0:
                raise ValueError(
                    "relator has nonzero exponent sum; "
                    "it cannot hold in a group with infinite cyclic abelianization"
                )


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
    return Presentation(n, tuple(relators))


def torus_covering_presentation(a: BraidWord, b: BraidWord) -> Presentation:
    """Presentation of the group of the genus-one surface knot spanned by
    the commuting pair (a, b): both monodromies fix every meridian.
    """
    if a.strands != b.strands:
        raise ValueError("strand count mismatch")
    if not free_words_commute(a, b):
        raise ValueError("basis braids must commute")
    if closure_component_count(a) != 1:
        raise ValueError("the closure of the first braid must be a knot")
    relators = closure_presentation(a).relators + closure_presentation(b).relators
    return Presentation(a.strands, relators)


def fox_derivative_abelianized(r: FreeWord, j: int) -> LaurentPoly:
    """Abelianized free derivative of r by generator j, every generator
    sent to t.

    Walks the word once: a positive occurrence of j contributes the
    prefix monomial, a negative one contributes minus the prefix times
    t^-1.
    """
    if j < 1 or j > r.rank:
        raise ValueError("generator index out of range")
    coeffs: dict[int, int] = {}
    prefix = 0
    for letter in r.letters:
        if letter == j:
            coeffs[prefix] = coeffs.get(prefix, 0) + 1
        elif letter == -j:
            coeffs[prefix - 1] = coeffs.get(prefix - 1, 0) - 1
        prefix += 1 if letter > 0 else -1
    return LaurentPoly(coeffs)


def fox_matrix(p: Presentation) -> LaurentMatrix:
    """Rows are relators, columns are generators."""
    grid = tuple(
        tuple(fox_derivative_abelianized(rel, j) for j in range(1, p.generators + 1))
        for rel in p.relators
    )
    return LaurentMatrix(len(p.relators), p.generators, grid)


# -- the closure diagram --------------------------------------------------------


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


def diagram_census_brute(d: ClosureDiagram, r: int) -> ColoringCensus:
    """Exhaustive census of arc colorings of a closure diagram.

    Walks arcs in order, depth first on an explicit stack rather than by
    recursion, checking each crossing as soon as all three of its arcs are
    colored; branches that already violate a crossing are abandoned.
    """
    if r < 2:
        raise ValueError("modulus must be at least 2")
    m = d.arc_count
    checks_at: list[list[Crossing]] = [[] for _ in range(m + 1)]
    for c in d.crossings:
        depth = max(c.over, c.under_in, c.under_out)
        checks_at[depth].append(c)

    total = 0
    cond = 0
    nondeg = False
    colors = [0] * (m + 1)  # 1-based
    next_value = [0] * (m + 1)  # the stack: next color to try at each arc
    arc = 1
    while arc >= 1:
        if arc > m:
            total += 1
            if colors[m] == 0:
                cond += 1
                if not nondeg and generated_subgroup(colors[1:], r) == 1:
                    nondeg = True
            arc -= 1
            continue
        value = next_value[arc]
        if value == r:
            next_value[arc] = 0
            arc -= 1
            continue
        next_value[arc] = value + 1
        colors[arc] = value
        for c in checks_at[arc]:
            if (2 * colors[c.over] - colors[c.under_in] - colors[c.under_out]) % r:
                break
        else:
            arc += 1
    return ColoringCensus(modulus=r, total=total, nondegenerate=nondeg, condition_o=cond)


# -- Laurent division and the all-minors gcd ------------------------------------------


def exact_div(f: LaurentPoly, g: LaurentPoly) -> LaurentPoly:
    """Exact quotient f / g in the Laurent ring; raises if not divisible."""
    if not g:
        raise ZeroDivisionError("division by the zero polynomial")
    if not f:
        return LaurentPoly.zero()
    fo, fc = f.dense
    go, gc = g.dense
    if len(fc) < len(gc):
        raise ValueError("non-exact polynomial division")
    q = [0] * (len(fc) - len(gc) + 1)
    r = list(fc)
    while len(_trim(r)) >= len(gc) and r:
        lr, lg = r[-1], gc[-1]
        if lr % lg != 0:
            raise ValueError("non-exact polynomial division")
        k = len(r) - len(gc)
        q[k] = lr // lg
        for i, c in enumerate(gc):
            r[k + i] -= q[k] * c
        _trim(r)
    if _trim(r):
        raise ValueError("non-exact polynomial division")
    return LaurentPoly.from_dense(fo - go, q)


def _primitive(cs: Sequence[int]) -> list[int]:
    g = gcd(*cs)
    if g <= 1:
        return _trim(list(cs))
    return _trim([c // g for c in cs])


def _prem(f: Sequence[int], g: Sequence[int]) -> list[int]:
    """Pseudo-remainder of f by g over Z[t]: a power of lc(g) times f, mod g.

    Only used up to content, so the extra unit-content factors are harmless.
    """
    r = list(f)
    dg = len(g) - 1
    lg = g[-1]
    while len(r) - 1 >= dg and r:
        lr = r[-1]
        shift = len(r) - 1 - dg
        r = [lg * c for c in r]
        for i, gc in enumerate(g):
            r[shift + i] -= lr * gc
        _trim(r)
    return r


def poly_gcd(f: LaurentPoly, g: LaurentPoly) -> LaurentPoly:
    """gcd in Z[t, 1/t] up to unit, returned in unit-normal form.

    Both arguments are first shifted into Z[t] (units are absorbed), then
    reduced by content/primitive-part splitting with pseudo-remainders.
    gcd(0, 0) = 0.
    """
    if not f and not g:
        return LaurentPoly.zero()
    if not f:
        return normalize_unit(g)
    if not g:
        return normalize_unit(f)
    _, fc = f.dense
    _, gc = g.dense
    c = gcd(*fc, *gc)
    a, b = _primitive(fc), _primitive(gc)
    if len(a) < len(b):
        a, b = b, a
    while b:
        r = _prem(a, b)
        a, b = b, _primitive(r)
    return normalize_unit(LaurentPoly.from_dense(0, [c * x for x in a]))


def laurent_det(m: LaurentMatrix) -> LaurentPoly:
    """Determinant by signed column-subset expansion (division-free)."""
    if m.rows != m.cols:
        raise ValueError("determinant requires a square matrix")
    n = m.rows
    if n == 0:
        return LaurentPoly.one()
    states: dict[int, LaurentPoly] = {0: LaurentPoly.one()}
    for row in m.entries:
        picks = [(j + 1, 1 << j, entry) for j, entry in enumerate(row) if entry]
        nxt: dict[int, LaurentPoly] = {}
        for mask, acc in states.items():
            for above, bit, entry in picks:
                if mask & bit:
                    continue
                contrib = acc * entry
                key = mask | bit
                prev = nxt.get(key)
                # parity of inversions introduced by picking this column now
                if (mask >> above).bit_count() % 2:
                    nxt[key] = -contrib if prev is None else prev - contrib
                else:
                    nxt[key] = contrib if prev is None else prev + contrib
        states = nxt
        if not states:
            return LaurentPoly.zero()
    return states.get((1 << n) - 1, LaurentPoly.zero())


def laurent_minor_gcd(m: LaurentMatrix, size: int) -> LaurentPoly:
    """Normalized gcd of all size x size minors; 0 if all vanish, 1 for size 0.

    Stops early once the running gcd is a unit.
    """
    if size == 0:
        return LaurentPoly.one()
    if size > m.rows or size > m.cols:
        return LaurentPoly.zero()
    one = LaurentPoly.one()
    g = LaurentPoly.zero()
    for rsel in combinations(range(m.rows), size):
        for csel in combinations(range(m.cols), size):
            minor = [[m.entries[i][j] for j in csel] for i in rsel]
            d = laurent_det(LaurentMatrix.from_rows(minor, cols=size))
            if not d:
                continue
            g = poly_gcd(g, d)
            if g == one:
                return g
    return g


# -- divisors and representations -------------------------------------------------


def minor_gcd(a: IntMatrix, k: int) -> int:
    """Determinantal divisor by direct minor enumeration, independent of
    the Smith normal form route."""
    if k < 0 or k > min(a.rows, a.cols):
        raise ValueError("minor size out of range")
    if k == 0:
        return 1
    g = 0
    for rsel in combinations(range(a.rows), k):
        for csel in combinations(range(a.cols), k):
            sub = IntMatrix.from_rows(
                [[a.entries[i][j] for j in csel] for i in rsel], cols=k
            )
            g = gcd(g, int_det(sub))
            if g == 1:
                return 1
    return g


def _evaluate_relator(
    relator: FreeWord, assignment: Sequence[BinaryDihedralElt], m: int
) -> BinaryDihedralElt:
    acc = BinaryDihedralElt.identity(m)
    for letter in relator.letters:
        img = assignment[abs(letter) - 1]
        acc = bd_mul(acc, img if letter > 0 else bd_inv(img))
    return acc


def verify_representation(
    p: Presentation, assignment: Sequence[BinaryDihedralElt]
) -> bool:
    """True iff every relator evaluates to the identity, exactly."""
    if len(assignment) != p.generators:
        raise ValueError("one image per generator is required")
    moduli = {elt.modulus for elt in assignment}
    if len(moduli) > 1:
        raise ValueError("mixed moduli in the assignment")
    m = (moduli.pop() if moduli else 6) // 2
    return all(_evaluate_relator(rel, assignment, m).is_identity for rel in p.relators)


def is_irreducible(assignment: Sequence[BinaryDihedralElt]) -> bool:
    """True iff two reflection angles differ modulo m.

    R(a) and R(b) share an eigenvector exactly when a == b (mod m), so an
    all-reflection image is reducible only when every angle agrees there.
    """
    if not assignment:
        raise ValueError("empty assignment")
    if any(elt.kind != "R" for elt in assignment):
        raise ValueError("irreducibility test expects antidiagonal images only")
    m = assignment[0].modulus // 2
    first = assignment[0].angle % m
    return any(elt.angle % m != first for elt in assignment[1:])


def enumerate_solutions_mod(snf: SNFResult, r: int) -> list[tuple[int, ...]]:
    """The solutions of ``intlinalg.solution_columns_mod`` as tuples, zipped
    from its coordinate lists; with no columns the one solution is ``()``.
    Raises EnumerationCapExceeded as ``solution_columns_mod``."""
    columns = solution_columns_mod(snf, r)
    return list(zip(*columns)) if columns else [()]


def scan_rep_classes(form: SNFResult) -> list[RepClass]:
    """The classes of ``metabelian.enumerate_rep_classes``, one solution
    tuple at a time: each nonzero solution modulo det is kept when its
    first nonzero color c has c <= det // 2 (the smaller of c and -c, as
    det is odd), the kept ones are sorted, and each color is lifted to its
    even representative modulo 2 det."""
    det = determinantal_divisor(form, form.cols)
    if det < 1 or det % 2 == 0:
        raise ValueError("expected a positive odd determinant")
    if det == 1:
        return []
    half = det // 2
    chosen = []
    for sol in enumerate_solutions_mod(form, det):
        for c in sol:
            if c:
                if c <= half:
                    chosen.append(sol)
                break
    chosen.sort()
    return [
        RepClass(det, free + (0,), tuple([c if c % 2 == 0 else c + det for c in free]) + (0,))
        for free in chosen
    ]


# -- cross-checks, one input each ---------------------------------------------------


def class_mismatch(form: SNFResult) -> str | None:
    """``enumerate_rep_classes`` against ``scan_rep_classes`` on one form
    with a positive odd determinant; returns a description of the first
    failure, or None."""
    got, expected = enumerate_rep_classes(form), scan_rep_classes(form)
    if got == expected:
        return None
    det = determinantal_divisor(form, form.cols)
    if len(got) != len(expected):
        return f"{len(got)} classes mod {det}, the scan finds {len(expected)}"
    index = next(i for i, (x, y) in enumerate(zip(got, expected)) if x != y)
    return f"class {index} mod {det} is {tuple(got[index])}, the scan gives {tuple(expected[index])}"


def _snf_at_minus_one(m: LaurentMatrix) -> SNFResult:
    """Smith normal form of the whole matrix at t = -1, base column kept."""
    return smith_normal_form(IntMatrix.from_rows(m.evaluate(-1), cols=m.cols))


def _census_text(census: ColoringCensus) -> str:
    """total/condition_o, and "nondegenerate" when it is."""
    text = f"{census.total}/{census.condition_o}"
    return text + " nondegenerate" if census.nondegenerate else text


def braid_mismatch(a: BraidWord) -> str | None:
    """Every cross-check on the knot closure of a; returns a description
    of the first failure, or None."""
    matrix = alexander_matrix(a)
    presentation = closure_presentation(a)
    fox = fox_matrix(presentation)
    if matrix != LaurentMatrix.from_rows([row for row in fox.entries if any(row)], cols=fox.cols):
        return "burau-built matrix != fox matrix of the free-word presentation"
    form = coloring_form(a)
    poly = knot_poly(a)
    det = determinantal_divisor(form, form.cols)
    routes = {
        "base-column gcd": alexander_poly(matrix),
        "all-minors gcd": laurent_minor_gcd(matrix, matrix.cols - 1),
        "reduced burau": burau_alexander(a),
    }
    for route, other in routes.items():
        if other != poly:
            return f"knot minor {poly_str(poly)} != {route} {poly_str(other)}"
    if det != abs(poly.evaluate(-1)):
        return f"determinant {det} != |poly(-1)|"
    mismatch = class_mismatch(form)
    if mismatch is not None:
        return mismatch
    for rc in enumerate_rep_classes(form):
        if not verify_representation(presentation, rc.assignment):
            return f"class of coloring {rc.coloring} fails a free-word relator"
        if not is_irreducible(rc.assignment):
            return f"class of coloring {rc.coloring} is reducible"
    full = _snf_at_minus_one(matrix)
    if det != determinantal_divisor(full, matrix.cols - 1):
        return f"form determinant {det} != divisor of the full matrix"
    diagram = closure_diagram(a)
    cmatrix = coloring_matrix(diagram)
    c_snf = _snf_at_minus_one(cmatrix)
    for back in range(1, min(matrix.cols, cmatrix.cols) + 1):
        lhs = determinantal_divisor(full, matrix.cols - back)
        rhs = determinantal_divisor(c_snf, cmatrix.cols - back)
        if lhs != rhs:
            return f"divisor mismatch at depth {back}: {lhs} != {rhs}"
    for r in range(2, 8):
        algebraic = coloring_census(form, r)
        transported = surface_coloring_census(a, BraidWord.identity(a.strands), r)
        brute = diagram_census_brute(diagram, r)
        if not (
            algebraic.total == transported.total == brute.total
            and algebraic.condition_o == transported.condition_o == brute.condition_o
            and algebraic.nondegenerate == transported.nondegenerate == brute.nondegenerate
        ):
            return (
                f"census mismatch at r={r}: matrix {_census_text(algebraic)}, "
                f"transport {_census_text(transported)}, diagram {_census_text(brute)}"
            )
    return None


# knot words long enough that the packed Burau rules re-size their digits,
# which the short random braids of the sweep never do
LONG_WORDS = (("1^101", 2), (" ".join(["1 -2"] * 61), 3), ("1^61 2 3 4 5", 6))


def long_word_mismatch(a: BraidWord) -> str | None:
    """The packed routes against the all-minors gcd; returns a description
    of the first failure, or None."""
    matrix = alexander_matrix(a)
    expected = laurent_minor_gcd(matrix, matrix.cols - 1)
    for route, poly in (("knot minor", knot_poly(a)), ("reduced burau", burau_alexander(a))):
        if poly != expected:
            return f"{route} {poly_str(poly)} != all-minors gcd {poly_str(expected)}"
    form = coloring_form(a)
    det = determinantal_divisor(form, form.cols)
    if det != abs(expected.evaluate(-1)):
        return f"determinant {det} != |all-minors gcd(-1)|"
    return None


def minimize_braid(a: BraidWord) -> BraidWord:
    """Greedily drop letters while ``braid_mismatch`` still finds one."""
    current = a
    improved = True
    while improved and len(current.letters) > 1:
        improved = False
        for i in range(len(current.letters)):
            candidate = BraidWord(
                current.strands, current.letters[:i] + current.letters[i + 1 :]
            )
            if closure_component_count(candidate) != 1 or not candidate.letters:
                continue
            if braid_mismatch(candidate) is not None:
                current = candidate
                improved = True
                break
    return current


def random_knot_braid(rng: random.Random, max_strands: int, max_len: int) -> BraidWord:
    """A random word on 2..max_strands strands, 1..max_len letters, with knot closure."""
    while True:
        n = rng.randint(2, max_strands)
        length = rng.randint(1, max_len)
        letters = tuple(rng.choice((1, -1)) * rng.randint(1, n - 1) for _ in range(length))
        a = BraidWord(n, letters)
        if closure_component_count(a) == 1:
            return a


def random_int_matrix(rng: random.Random) -> IntMatrix:
    """A matrix of 1..4 rows and 1..4 columns with entries in -9..9."""
    rows = rng.randint(1, 4)
    cols = rng.randint(1, 4)
    return IntMatrix.from_rows(
        [[rng.randint(-9, 9) for _ in range(cols)] for _ in range(rows)], cols=cols
    )


# the odd factors by which each invariant factor of random_odd_det_matrix
# grows from the last: 1 repeats a factor, which makes the group non-cyclic
_ODD_STEPS = (1, 1, 3, 3, 5, 7, 9, 11)
# the largest determinant random_odd_det_matrix draws
_ODD_DET_BOUND = 3**6


def random_odd_det_matrix(rng: random.Random) -> IntMatrix:
    """A matrix of 1..4 columns and up to two more rows with full column
    rank and an odd determinant of at most 3^6: a chain of odd invariant
    factors, cyclic, non-cyclic, prime or composite, on the diagonal,
    hidden by up to six random unimodular row and six column operations."""
    while True:
        cols = rng.randint(1, 4)
        divisors = [rng.choice(_ODD_STEPS)]
        while len(divisors) < cols:
            divisors.append(divisors[-1] * rng.choice(_ODD_STEPS))
        if prod(divisors) <= _ODD_DET_BOUND:
            break
    rows = cols + rng.randint(0, 2)
    grid = [[divisors[i] if i == j else 0 for j in range(cols)] for i in range(rows)]
    for _ in range(6):
        f = rng.choice((-2, -1, 1, 2))
        if rows > 1:
            i, k = rng.sample(range(rows), 2)
            grid[i] = [x + f * y for x, y in zip(grid[i], grid[k])]
        if cols > 1:
            j, k = rng.sample(range(cols), 2)
            for row in grid:
                row[j] += f * row[k]
    return IntMatrix.from_rows(grid, cols=cols)


# the most candidate vectors r^cols that matrix_mismatch searches exhaustively
_BRUTE_CANDIDATES = 12**4


def matrix_mismatch(a: IntMatrix, moduli: Iterable[int]) -> str | None:
    """The Smith normal form of a against its definition and the brute-force
    minors, and its solution count and enumeration modulo each r in moduli
    against exhaustive search (skipped when r^cols exceeds 12^4); returns
    a description of the first failure, or None."""
    snf = smith_normal_form(a)
    # some unimodular P has P A Q = diag(d) exactly when Q is unimodular,
    # column j of A Q is d_j u_j below the rank and zero past it, and
    # u_1..u_rank extend to a basis of Z^rows: their maximal minors have gcd 1
    rank = snf.rank
    if rank > min(a.rows, a.cols) or min(snf.divisors, default=1) < 1:
        return "divisors out of range"
    if snf.Q.rows != a.cols or abs(int_det(snf.Q)) != 1:
        return "column transform Q is not unimodular"
    columns = list(zip(*(a @ snf.Q).entries))
    if any(any(column) for column in columns[rank:]) or any(
        x % d for column, d in zip(columns, snf.divisors) for x in column
    ):
        return "A Q is not the diagonal form times a row transform"
    basis = [[columns[j][i] // snf.divisors[j] for j in range(rank)] for i in range(a.rows)]
    if minor_gcd(IntMatrix.from_rows(basis, cols=rank), rank) != 1:
        return "the columns of A Q do not extend to a basis"
    for i in range(rank - 1):
        if snf.divisors[i + 1] % snf.divisors[i]:
            return "divisor chain broken"
    for k in range(min(a.rows, a.cols) + 1):
        if determinantal_divisor(snf, k) != minor_gcd(a, k):
            return f"divisor {k} disagrees with brute-force minors"
    for r in moduli:
        if r**a.cols > _BRUTE_CANDIDATES:
            continue
        brute = [
            x for x in product(range(r), repeat=a.cols) if all(v % r == 0 for v in a.apply(list(x)))
        ]
        count = solution_count_mod(snf, r)
        if count != len(brute):
            return f"solution count mod {r}: {count} != brute {len(brute)}"
        if sorted(enumerate_solutions_mod(snf, r)) != sorted(brute):
            return f"solution enumeration mod {r} differs from brute force"
    return None


def pair_mismatch(a: BraidWord, b: BraidWord) -> str | None:
    """Every cross-check on the surface knot of the commuting pair (a, b);
    returns a description of the first failure, or None."""
    if braids_commute(a, b) != free_words_commute(a, b):
        return "Dynnikov and free-word commutation checks differ"
    matrix = alexander_matrix(a, b)
    fox = fox_matrix(torus_covering_presentation(a, b))
    if matrix != LaurentMatrix.from_rows([row for row in fox.entries if any(row)], cols=fox.cols):
        return "burau-built and fox matrices differ"
    if alexander_poly(matrix) != laurent_minor_gcd(matrix, matrix.cols - 1):
        return "base-column and all-minors gcds differ"
    form = coloring_form(a, b)
    det = determinantal_divisor(form, form.cols)
    if det != determinantal_divisor(_snf_at_minus_one(matrix), matrix.cols - 1):
        return f"form determinant {det} != full divisor"
    if det % 2 == 0:
        return f"even surface determinant {det}"
    return None


# -- the verify sweep ------------------------------------------------------------------


def verify_report(
    seed: int, trials: int, max_strands: int, max_len: int
) -> tuple[dict[str, Any], str | None]:
    """The ``kreps verify`` report and its failure, or None: ``trials``
    random knot braids, then the long words, random integer matrices,
    random braids paired with full-twist powers and the class lists of
    random odd-determinant matrices, all from one seeded stream.  A
    failing braid is minimized before it is reported."""
    rng = random.Random(seed)
    failure: str | None = None
    braids_checked = 0
    for _ in range(trials):
        a = random_knot_braid(rng, max_strands, max_len)
        if braid_mismatch(a) is not None:
            small = minimize_braid(a)
            failure = f"braid {small} on {small.strands} strands: {braid_mismatch(small)}"
            break
        braids_checked += 1

    if failure is None:
        for text, strands in LONG_WORDS:
            mismatch = long_word_mismatch(parse_braid(text, strands))
            if mismatch is not None:
                failure = f"long braid {text} on {strands} strands: {mismatch}"
                break

    matrices_checked = 0
    if failure is None:
        for _ in range(max(trials * 5, 100)):
            m = random_int_matrix(rng)
            mismatch = matrix_mismatch(m, (rng.randint(2, 12),))
            if mismatch is not None:
                failure = f"matrix {m.entries}: {mismatch}"
                break
            matrices_checked += 1

    pairs_checked = 0
    if failure is None:
        for _ in range(max(trials // 2, 25)):
            a = random_knot_braid(rng, max_strands, max_len)
            b = full_twist(a.strands) ** rng.randint(0, 2)
            mismatch = pair_mismatch(a, b)
            if mismatch is not None:
                failure = f"{mismatch} for a={a}, twist power"
                break
            pairs_checked += 1

    forms_checked = 0
    if failure is None:
        for _ in range(max(trials // 2, 25)):
            m = random_odd_det_matrix(rng)
            mismatch = class_mismatch(smith_normal_form(m))
            if mismatch is not None:
                failure = f"matrix {m.entries}: {mismatch}"
                break
            forms_checked += 1

    report = {
        "input": {
            "kind": "verify",
            "seed": seed,
            "trials": trials,
            "max_strands": max_strands,
            "max_len": max_len,
        },
        "braids_checked": braids_checked,
        "matrices_checked": matrices_checked,
        "commuting_pairs_checked": pairs_checked,
        "class_forms_checked": forms_checked,
        "failure": failure,
        "passed": failure is None,
    }
    return report, failure
