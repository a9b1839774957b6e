"""Fox colorings of braid closures and of torus-covering surface knots.

A coloring modulo r assigns residues to arcs (diagram picture) or to the
braid-top meridians (presentation picture) so that every crossing
satisfies 2*over - in - out == 0 (mod r).  Two independent routes here
compute the same censuses:

* solution counting on the coloring form (``presentations.coloring_form``),
  with no enumeration,
* fixed points of pushing colors through the braid crossing by crossing.

Exhaustive enumeration of arc colors on the closure diagram is a third,
kept as an oracle (``oracles.diagram_census_brute``).

Constant colorings always satisfy the constraints, so census totals are
a multiple of r, and fixing the base (last) arc or generator to color 0
kills exactly that translation symmetry.
"""

from itertools import product, repeat
from math import gcd
from operator import mul
from typing import Iterable, NamedTuple, Sequence

from .braids import BraidWord
from .intlinalg import EnumerationCapExceeded, SNFResult, solution_count_mod, _count_text, _enum_cap


class ColoringCensus(NamedTuple):
    """Counting summary of the colorings of one object modulo r.

    ``condition_o`` counts colorings with the base arc or generator
    colored 0; it is total / r whenever the constraints are homogeneous.
    """

    modulus: int
    total: int
    nondegenerate: bool
    condition_o: int


def generated_subgroup(colors: Iterable[int], p: int) -> int:
    """The divisor d of p such that the colors generate the index-d
    subgroup of Z/p under the quandle operation (after translating one
    color to 0).  d == 1 means the colors generate everything.
    """
    colors = list(colors)
    if not colors:
        raise ValueError("at least one color is required")
    base = colors[0]
    g = p
    for c in colors[1:]:
        g = gcd(g, c - base)
    return gcd(g, p) if g else p


def coloring_census(form: SNFResult, r: int) -> ColoringCensus:
    """Census of the solutions of M(-1) x == 0 modulo r, read from the
    coloring form of M (``presentations.coloring_form``) with no
    enumeration.

    Every coloring is a condition-O one plus a constant, so the total is
    r times the condition-O count.  Translating a coloring preserves what
    its colors generate, so some coloring is nondegenerate exactly when
    some condition-O one has colors with gcd 1 with r.  The condition-O
    solutions are Q x', where coordinate j of x' runs over the multiples
    of r / gcd(d_j, r), or over all residues past the rank, and Q is
    invertible modulo every prime q dividing r.  So for each such q some
    solution avoids 0 mod q exactly when some coordinate of x' runs over
    all residues mod q: a free column, or a divisor that the full power of
    q in r divides.  The divisors form a chain, so the last one is the
    most divisible: a nondegenerate coloring exists exactly when the form
    has a free column or r divides its last divisor.
    """
    count = solution_count_mod(form, r)
    nondeg = form.cols > form.rank or (form.rank >= 1 and form.divisors[-1] % r == 0)
    return ColoringCensus(modulus=r, total=r * count, nondegenerate=nondeg, condition_o=count)


def is_p_colorable(form: SNFResult, p: int) -> bool:
    """Whether some coloring modulo p generates all of Z/p, read from the
    form as in ``coloring_census``."""
    return coloring_census(form, p).nondegenerate


def dihedral_transport(a: BraidWord, colors: Sequence[int], r: int) -> tuple[int, ...]:
    """Push strand-top colors down through the braid, crossing by crossing.

    A coloring of the closure corresponds exactly to a fixed point of
    this map.
    """
    if len(colors) != a.strands:
        raise ValueError("one color per strand is required")
    if r < 2:
        raise ValueError("modulus must be at least 2")
    state = [c % r for c in colors]
    for letter in a.letters:
        i = abs(letter) - 1
        if letter > 0:
            over, under = state[i], state[i + 1]
            state[i], state[i + 1] = (2 * over - under) % r, over
        else:
            over, under = state[i + 1], state[i]
            state[i], state[i + 1] = over, (2 * over - under) % r
    return tuple(state)


def surface_coloring_census(a: BraidWord, b: BraidWord, r: int) -> ColoringCensus:
    """Census of colorings of the surface knot spanned by (a, b): tuples
    fixed by the transport of both basis braids, found by exhaustive
    search over (Z/r)^n.

    The pair must commute, and the census does not check it:
    ``cli.surface_report`` has run ``braids_commute`` before any census,
    and ``oracles.braid_mismatch`` passes the identity as b.
    """
    if r < 2:
        raise ValueError("modulus must be at least 2")
    n = a.strands
    if r**n > _enum_cap():
        raise EnumerationCapExceeded(f"{_count_text(r**n, 'candidate colorings')} exceed the cap")
    total = 0
    cond = 0
    nondeg = False
    for colors in product(range(r), repeat=n):
        if dihedral_transport(a, colors, r) != colors:
            continue
        if dihedral_transport(b, colors, r) != colors:
            continue
        total += 1
        if colors[-1] == 0:
            cond += 1
            if not nondeg and generated_subgroup(colors, r) == 1:
                nondeg = True
    return ColoringCensus(modulus=r, total=total, nondegenerate=nondeg, condition_o=cond)


class ProfileRow(NamedTuple):
    """One row of a colorability profile: the modulus r and the number of
    colorings mod r with the base generator colored 0."""

    r: int
    condition_o: int

    @property
    def total(self) -> int:
        """The number of all colorings mod r, one per translate."""
        return self.r * self.condition_o


def colorability_profile(form: SNFResult, r_max: int) -> list[ProfileRow]:
    """Condition-O coloring counts of the coloring form for r = 2..r_max.

    The count mod r is r^(free columns) times gcd(d, r) for each divisor
    d (``solution_count_mod``), so every r is read at once: one power per
    r, then one gcd per r for each divisor other than 1.  The form agrees
    with the transport census (a separately tested invariant);
    only-p-colorable objects have profile values in {1, count at p}.
    """
    if r_max < 2:
        raise ValueError("r_max must be at least 2")
    rs = range(2, r_max + 1)
    counts = list(map(pow, rs, repeat(form.cols - form.rank)))
    for d in form.divisors:
        if d != 1:
            counts = list(map(mul, counts, map(gcd, repeat(d), rs)))
    # tuple.__new__ builds each row without the NamedTuple's Python-level __new__
    return list(map(tuple.__new__, repeat(ProfileRow), zip(rs, counts)))
