import random
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kreps.braids import BraidWord, full_twist, parse_braid
from kreps.colorings import (
    ColoringCensus,
    colorability_profile,
    coloring_census,
    dihedral_transport,
    generated_subgroup,
    is_p_colorable,
    surface_coloring_census,
)
from kreps.intlinalg import IntMatrix, determinantal_divisor, smith_normal_form
from kreps.oracles import (
    closure_diagram,
    coloring_matrix,
    diagram_census_brute,
    enumerate_solutions_mod,
    random_knot_braid,
)
from kreps.presentations import coloring_form

TREFOIL = parse_braid("1^3", 2)


def diagram_form(d):
    """The coloring form of a diagram: the crossing matrix at t = -1 with
    the last column deleted, reduced."""
    m = coloring_matrix(d)
    rows = [row[:-1] for row in m.evaluate(-1)]
    return smith_normal_form(IntMatrix.from_rows(rows, cols=m.cols - 1))


# -- the quandle operation ------------------------------------------------
#
# a crossing sends the under color x to x * y = 2y - x, y the over color;
# the transport applies it once per letter


def crossing(letter, under, over, p):
    """The colors below one crossing of strands 1 and 2: the over strand
    keeps its color, the under strand takes under * over."""
    top = (over, under) if letter > 0 else (under, over)
    return dihedral_transport(BraidWord(2, (letter,)), top, p)


def test_dihedral_op_idempotent():
    for p in (2, 3, 7):
        for x in range(p):
            for letter in (1, -1):
                assert crossing(letter, x, x, p) == (x, x)


def test_dihedral_op_value():
    assert crossing(1, 0, 1, 3) == (2, 1)
    assert crossing(-1, 0, 1, 3) == (1, 2)


def test_dihedral_op_right_invertible():
    for p in (3, 4, 5):
        for y in range(p):
            for z in range(p):
                for letter in (1, -1):
                    out = 0 if letter > 0 else 1
                    candidates = [x for x in range(p) if crossing(letter, x, y, p)[out] == z]
                    assert len(candidates) == 1
                    assert candidates[0] == (2 * y - z) % p


# -- subgroup generation ---------------------------------------------------


def quandle_closure(colors, p):
    """Brute-force closure of a color set under x*y = 2y - x."""
    seen = set(c % p for c in colors)
    frontier = True
    while frontier:
        frontier = False
        for x in list(seen):
            for y in list(seen):
                z = (2 * y - x) % p
                if z not in seen:
                    seen.add(z)
                    frontier = True
    return seen


def test_generated_subgroup_examples():
    assert generated_subgroup({0, 2}, 4) == 2
    assert generated_subgroup({0, 1}, 5) == 1
    assert generated_subgroup({5}, 7) == 7


def test_generated_subgroup_matches_quandle_closure():
    rng = random.Random(41)
    for p in range(2, 31):
        for _ in range(8):
            colors = {rng.randrange(p) for _ in range(rng.randint(1, 4))}
            d = generated_subgroup(colors, p)
            assert p % d == 0
            base = min(colors)
            translated = {(c - base) % p for c in colors}
            closure = quandle_closure(translated, p)
            assert closure == {x for x in range(p) if x % d == 0}, (colors, p, d)


# -- censuses on matrices -----------------------------------------------------


def test_trefoil_census_mod_3():
    census = coloring_census(coloring_form(TREFOIL), 3)
    assert census.total == 9
    assert census.condition_o == 3
    assert census.nondegenerate


def test_trefoil_census_mod_5():
    census = coloring_census(coloring_form(TREFOIL), 5)
    assert census.total == 5
    assert not census.nondegenerate


def test_unknot_census():
    form = diagram_form(closure_diagram(parse_braid("1", 2)))
    for r in (2, 3, 7):
        census = coloring_census(form, r)
        assert census.total == r
        assert census.condition_o == 1
        assert not census.nondegenerate


def test_is_p_colorable():
    assert is_p_colorable(coloring_form(TREFOIL), 3)
    assert not is_p_colorable(coloring_form(TREFOIL), 5)


@st.composite
def forms_with_divisors(draw):
    """The Smith normal form of U diag(d) V: a chain d of 0..3 divisors,
    zero (free) columns among them, hidden by row and column operations."""
    cols = draw(st.integers(0, 3))
    divisors = []
    for _ in range(cols):
        step = draw(st.sampled_from((0, 1, 1, 2, 3, 4, 5, 6, 9)))
        divisors.append(step * (divisors[-1] if divisors else 1))
    rows = cols + draw(st.integers(0, 2))
    grid = [[divisors[i] if i == j else 0 for j in range(cols)] for i in range(rows)]
    for i, k, f in draw(st.lists(st.tuples(st.integers(0, 5), st.integers(0, 5), st.sampled_from((-2, -1, 1, 2))), max_size=8)):
        if rows and i % rows != k % rows:
            grid[i % rows] = [x + f * y for x, y in zip(grid[i % rows], grid[k % rows])]
        if cols and i % cols != k % cols:
            for row in grid:
                row[i % cols] += f * row[k % cols]
    return smith_normal_form(IntMatrix.from_rows(grid, cols=cols))


@settings(max_examples=300, deadline=None)
@given(forms_with_divisors(), st.integers(2, 39))
def test_census_read_from_the_form_matches_the_enumeration(form, r):
    # a pinned solution is nondegenerate when its colors and r have gcd 1
    pinned = [sol + (0,) for sol in enumerate_solutions_mod(form, r)]
    census = coloring_census(form, r)
    assert census.condition_o == len(pinned)
    assert census.total == r * len(pinned)
    assert census.nondegenerate == any(generated_subgroup(sol, r) == 1 for sol in pinned)
    assert is_p_colorable(form, r) == census.nondegenerate


def test_colorable_implies_determinant_divisible():
    rng = random.Random(42)
    for _ in range(20):
        a = random_knot_braid(rng, 4, 7)
        form = coloring_form(a)
        det = determinantal_divisor(form, form.cols)
        for p in (2, 3, 5, 7):
            if is_p_colorable(form, p):
                assert det % p == 0


# -- transport ----------------------------------------------------------------


def test_transport_identity_braid():
    assert dihedral_transport(BraidWord.identity(3), (0, 1, 2), 5) == (0, 1, 2)


def test_transport_single_crossing():
    # positive crossing: left strand crosses over; the under strand's new
    # color is 2*over - under
    assert dihedral_transport(parse_braid("1", 2), (0, 1), 3) == (2, 0)
    assert dihedral_transport(parse_braid("-1", 2), (0, 1), 5) == (1, 2)


def test_transport_trefoil_fixed_point():
    assert dihedral_transport(TREFOIL, (0, 1), 3) == (0, 1)


def test_transport_length_mismatch():
    with pytest.raises(ValueError):
        dihedral_transport(TREFOIL, (0, 1, 2), 3)


def test_transport_fixed_points_match_matrix_solutions():
    rng = random.Random(43)
    for _ in range(20):
        a = random_knot_braid(rng, max_strands=3, max_len=6)
        form = coloring_form(a)
        for r in (2, 3, 5):
            fixed = sum(
                1
                for colors in product(range(r), repeat=a.strands)
                if dihedral_transport(a, colors, r) == colors
            )
            assert fixed == coloring_census(form, r).total


# -- surface censuses -----------------------------------------------------------


def test_surface_census_family_examples():
    a, b = TREFOIL, parse_braid("1^6", 2)
    census = surface_coloring_census(a, b, 3)
    assert census.total == 9
    assert census.condition_o == 3
    assert census.nondegenerate
    census2 = surface_coloring_census(a, b, 2)
    assert census2.total == 2


def test_surface_census_with_identity_matches_closure():
    rng = random.Random(44)
    for _ in range(10):
        a = random_knot_braid(rng, max_strands=3, max_len=6)
        e = BraidWord.identity(a.strands)
        form = coloring_form(a)
        for r in (2, 3, 5):
            surf = surface_coloring_census(a, e, r)
            alg = coloring_census(form, r)
            assert (surf.total, surf.condition_o) == (alg.total, alg.condition_o)


def test_census_consistency_random_twisted_pairs():
    rng = random.Random(45)
    for _ in range(12):
        a = random_knot_braid(rng, max_strands=3, max_len=6)
        b = full_twist(a.strands) ** rng.randint(0, 2)
        form = coloring_form(a, b)
        for r in range(2, 13):
            surf = surface_coloring_census(a, b, r)
            alg = coloring_census(form, r)
            assert (surf.total, surf.condition_o) == (alg.total, alg.condition_o)
            assert surf.total == r * surf.condition_o


# -- profiles ----------------------------------------------------------------------


def test_profile_family_two_strands():
    a, b = TREFOIL, parse_braid("1^6", 2)
    for r, cond in colorability_profile(coloring_form(a, b), 12):
        assert cond == (3 if r % 3 == 0 else 1)


def test_profile_unknot():
    a = parse_braid("1", 2)
    for _, cond in colorability_profile(coloring_form(a), 10):
        assert cond == 1


def test_profile_trefoil():
    a = TREFOIL
    for r, cond in colorability_profile(coloring_form(a), 12):
        assert cond == (3 if r % 3 == 0 else 1)


def test_profile_prime_power_counts():
    # for odd primes p, the base-fixed count is a power of p
    rng = random.Random(46)
    for _ in range(10):
        a = random_knot_braid(rng, max_strands=3, max_len=6)
        profile = dict(colorability_profile(coloring_form(a), 7))
        for p in (3, 5, 7):
            count = profile[p]
            while count % p == 0:
                count //= p
            assert count == 1


# -- structural facts --------------------------------------------------------------


def test_nontrivial_coloring_induces_nondegenerate_divisor_coloring():
    rng = random.Random(47)
    found = 0
    for _ in range(40):
        a = random_knot_braid(rng, max_strands=3, max_len=7)
        for r in range(2, 13):
            fixed = [
                colors
                for colors in product(range(r), repeat=a.strands)
                if dihedral_transport(a, colors, r) == colors
            ]
            for colors in fixed:
                if len(set(colors)) <= 1:
                    continue
                found += 1
                base = colors[0]
                translated = [(c - base) % r for c in colors]
                d = generated_subgroup(translated, r)
                assert 0 < d < r
                q = r // d
                assert q > 1
                induced = tuple((c // d) % q for c in translated)
                assert dihedral_transport(a, induced, q) == induced
                assert generated_subgroup(induced, q) == 1
    assert found > 0


def test_diagram_brute_force_census_agrees():
    rng = random.Random(48)
    for _ in range(15):
        a = random_knot_braid(rng, max_strands=4, max_len=7)
        d = closure_diagram(a)
        form = diagram_form(d)
        for r in (2, 3, 5, 7):
            brute = diagram_census_brute(d, r)
            alg = coloring_census(form, r)
            assert brute.total == alg.total
            assert brute.condition_o == alg.condition_o
            assert brute.nondegenerate == alg.nondegenerate


def test_diagram_brute_force_census_on_a_deep_diagram():
    # 1501 arcs, deeper than the default recursion limit
    a = parse_braid("1^1501", 2)
    d = closure_diagram(a)
    assert d.arc_count == 1501
    assert diagram_census_brute(d, 3) == coloring_census(coloring_form(a), 3)


def test_census_dataclass_translation_invariant():
    census = ColoringCensus(modulus=3, total=9, nondegenerate=True, condition_o=3)
    assert census.total == census.modulus * census.condition_o
