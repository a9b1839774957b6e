import random

import pytest

from kreps.braids import BraidWord, full_twist, parse_braid, prime_twist_family
from kreps.intlinalg import (
    IntMatrix,
    determinantal_divisor,
    smith_normal_form,
    solution_count_mod,
)
from kreps.laurent import LaurentMatrix, LaurentPoly, normalize_unit
from kreps.oracles import (
    ClosureDiagram,
    Crossing,
    FreeWord,
    Presentation,
    closure_diagram,
    closure_presentation,
    coloring_matrix,
    enumerate_solutions_mod,
    exact_div,
    fox_derivative_abelianized,
    fox_matrix,
    laurent_det,
    laurent_minor_gcd,
    random_knot_braid,
    torus_covering_presentation,
)
from kreps.presentations import (
    alexander_matrix,
    alexander_poly,
    burau_alexander,
    coloring_form,
    knot_poly,
)

TREFOIL = parse_braid("1^3", 2)
FIGURE_EIGHT = parse_braid("1 -2 1 -2", 3)
CINQUEFOIL = parse_braid("1^5", 2)
GRANNY = parse_braid("1^3 2^3", 3)

TREFOIL_POLY = LaurentPoly({0: 1, 1: -1, 2: 1})
FIGURE_EIGHT_POLY = LaurentPoly({0: 1, 1: -3, 2: 1})


def determinant(*braids):
    form = coloring_form(*braids)
    return determinantal_divisor(form, form.cols)


def full_snf(m):
    return smith_normal_form(IntMatrix.from_rows(m.evaluate(-1), cols=m.cols))


def matrix_determinant(m):
    return determinantal_divisor(full_snf(m), m.cols - 1)


# -- presentations -----------------------------------------------------------


def test_trivial_braid_presentation_has_no_relators():
    pres = closure_presentation(BraidWord.identity(1))
    assert pres.generators == 1
    assert pres.relators == ()


def test_single_crossing_relators():
    pres = closure_presentation(parse_braid("1", 2))
    words = {rel.letters for rel in pres.relators}
    assert words == {(1, 1, -2, -1), (2, -1)}


def test_trefoil_relator_words():
    pres = closure_presentation(TREFOIL)
    words = {rel.letters for rel in pres.relators}
    # t1 * image(t1)^-1 with image t1 t2 t1 t2 t1^-1 t2^-1 t1^-1
    assert (1, 1, 2, 1, -2, -1, -2, -1) in words


def test_relators_have_zero_weighted_sum():
    rng = random.Random(31)
    for _ in range(25):
        a = random_knot_braid(rng, 4, 8)
        pres = closure_presentation(a)
        for rel in pres.relators:
            assert rel.exponent_sum() == 0


def test_presentation_refuses_nonzero_exponent_sum():
    bad = FreeWord(2, (1,))
    with pytest.raises(ValueError):
        Presentation(2, (bad,))


def test_torus_presentation_requires_commuting():
    with pytest.raises(ValueError):
        torus_covering_presentation(parse_braid("1 2", 3), parse_braid("1", 3))


def test_torus_presentation_requires_knot():
    with pytest.raises(ValueError):
        torus_covering_presentation(parse_braid("1^2", 2), BraidWord.identity(2))


def test_torus_presentation_with_identity_matches_closure():
    rng = random.Random(32)
    for _ in range(15):
        a = random_knot_braid(rng, 4, 8)
        closure = closure_presentation(a)
        spun = torus_covering_presentation(a, BraidWord.identity(a.strands))
        det_closure = matrix_determinant(fox_matrix(closure))
        det_spun = matrix_determinant(fox_matrix(spun))
        assert det_closure == det_spun


# -- free differentiation -----------------------------------------------------


def test_fox_derivative_commutator():
    r = FreeWord(2, (1, 2, -1, -2))
    assert fox_derivative_abelianized(r, 1) == LaurentPoly({0: 1, 1: -1})


def test_fox_derivative_power():
    r = FreeWord(1, (1, 1, 1))
    assert fox_derivative_abelianized(r, 1) == LaurentPoly({0: 1, 1: 1, 2: 1})


def test_fox_derivative_other_generator():
    r = FreeWord(2, (2,))
    assert fox_derivative_abelianized(r, 1) == LaurentPoly.zero()
    with pytest.raises(ValueError):
        fox_derivative_abelianized(r, 3)


def test_fox_derivative_inverse_letter():
    # d(x^-1)/dx = -x^-1 abelianizes to -1/t; the second occurrence of t1
    # sits after the prefix t1^-1 t2 of weight 0
    word = FreeWord(2, (-1, 2, 1))
    assert fox_derivative_abelianized(word, 1) == LaurentPoly({-1: -1, 0: 1})


# -- Alexander matrices --------------------------------------------------------


def test_unknot_matrix_is_empty():
    matrix = alexander_matrix(BraidWord.identity(1))
    assert matrix.rows == 0 and matrix.cols == 1
    assert (alexander_poly(matrix), determinant(BraidWord.identity(1))) == (LaurentPoly.one(), 1)


def test_trefoil_ideal_data():
    matrix = alexander_matrix(TREFOIL)
    assert alexander_poly(matrix) == TREFOIL_POLY
    assert determinant(TREFOIL) == 3
    assert matrix.evaluate(-1) == [[-3, 3], [-3, 3]]


def test_matrix_rows_sum_to_zero():
    rng = random.Random(33)
    for _ in range(20):
        a = random_knot_braid(rng, 4, 8)
        matrix = alexander_matrix(a)
        for row in matrix.entries:
            total = LaurentPoly.zero()
            for entry in row:
                total = total + entry
            assert not total


def _fox_rows(p):
    m = fox_matrix(p)
    return LaurentMatrix.from_rows([row for row in m.entries if any(row)], cols=m.cols)


def test_burau_built_matrix_equals_fox_matrix():
    # the production route against the free-word oracle, zero rows dropped
    rng = random.Random(39)
    for _ in range(200):
        a = random_knot_braid(rng, 5, 12)
        assert alexander_matrix(a) == _fox_rows(closure_presentation(a)), f"braid {a}"
    for _ in range(40):
        a = random_knot_braid(rng, 4, 6)
        for b in [full_twist(a.strands) ** k for k in (-1, 1, 2)] + [a**2]:
            expected = _fox_rows(torus_covering_presentation(a, b))
            assert alexander_matrix(a, b) == expected, f"pair {a} / {b}"


def coloring_form_cases(rng):
    cases = [(random_knot_braid(rng, 6, 12),) for _ in range(200)]
    for _ in range(40):
        a = random_knot_braid(rng, 4, 6)
        twist = full_twist(a.strands)
        for b in (twist**-1, twist, twist**2, a**2, BraidWord.identity(a.strands)):
            cases.append((a, b))
    # links whose I - J has a nonzero row that vanishes at t = -1
    for text in ("1 2 1 1 -2 1 2 2 1 1", "-1 -2 -1 -2 -1 -2 -2 -1 -1 -2"):
        cases.append((parse_braid(text, 3),))
    return cases


def test_coloring_form_matches_full_matrix():
    # the one reduction reports read against the whole of M(-1)
    for braids in coloring_form_cases(random.Random(40)):
        m = alexander_matrix(*braids)
        form, full = coloring_form(*braids), full_snf(m)
        assert form.cols == m.cols - 1
        assert determinantal_divisor(form, m.cols - 1) == determinantal_divisor(full, m.cols - 1)
        for r in range(2, 21):
            assert r * solution_count_mod(form, r) == solution_count_mod(full, r), (braids, r)


def test_coloring_form_reads_like_the_alexander_matrix_at_minus_one():
    # what reports read, the divisors and the base-pinned solutions, from
    # the full M(-1); the form drops every row that vanishes at t = -1, so
    # its row transform P may differ from that of M(-1)
    rng = random.Random(43)
    for braids in coloring_form_cases(rng):
        m = alexander_matrix(*braids)
        form, full = coloring_form(*braids), full_snf(m)
        assert (form.cols, form.divisors) == (m.cols - 1, full.divisors), braids
        for r in range(2, 21):
            pinned = [sol[:-1] for sol in enumerate_solutions_mod(full, r) if not sol[-1]]
            assert sorted(enumerate_solutions_mod(form, r)) == sorted(pinned), (braids, r)


def test_knot_minor_and_base_column_gcd_match_all_minors():
    # the production routes against the all-minors oracle
    rng = random.Random(41)
    for _ in range(200):
        a = random_knot_braid(rng, 7, 14)
        m = alexander_matrix(a)
        expected = laurent_minor_gcd(m, m.cols - 1)
        assert knot_poly(a) == expected, f"braid {a}"
        assert alexander_poly(m) == expected, f"braid {a}"
    # family members, then random knots with central and non-central partners
    pairs = [prime_twist_family(n, p, [1] * (n - 1)) for n, p in ((5, 3), (5, 5), (6, 3))]
    for _ in range(40):
        a = random_knot_braid(rng, 5, 6)
        twist = full_twist(a.strands)
        partners = (twist**-1, twist, twist**2, a**2, a**3, twist**2 * a, twist**-2 * a**2)
        pairs += [(a, b) for b in (*partners, BraidWord.identity(a.strands))]
    for a, b in pairs:
        m = alexander_matrix(a, b)
        assert alexander_poly(m) == laurent_minor_gcd(m, m.cols - 1), f"pair {a} / {b}"


def test_knot_poly_edge_cases():
    assert knot_poly(BraidWord.identity(1)) == LaurentPoly.one()
    assert knot_poly(parse_braid("1", 2)) == LaurentPoly.one()
    assert knot_poly(FIGURE_EIGHT) == FIGURE_EIGHT_POLY
    links = (parse_braid("1^2", 2), BraidWord.identity(3), parse_braid("1 2 1 1 -2 1 2 2 1 1", 3))
    for link in links:
        with pytest.raises(ValueError):
            knot_poly(link)


def test_burau_built_matrix_rejects_bad_input():
    with pytest.raises(ValueError):
        alexander_matrix()
    with pytest.raises(ValueError):
        alexander_matrix(TREFOIL, BraidWord.identity(3))


def test_ideal_data_edge_cases():
    zero = LaurentPoly.zero()
    too_few = LaurentMatrix.from_rows([[LaurentPoly.one(), zero, zero]], cols=3)
    assert (alexander_poly(too_few), matrix_determinant(too_few)) == (zero, 0)
    single = LaurentMatrix(0, 1, ())
    assert (alexander_poly(single), matrix_determinant(single)) == (LaurentPoly.one(), 1)
    # the elimination finds the gcd up to its content, so it refuses a
    # matrix whose base-free part at t = 1 has minors with gcd 2
    content_two = LaurentMatrix.from_rows([[LaurentPoly.term(2), LaurentPoly.term(-2)]])
    with pytest.raises(ValueError):
        alexander_poly(content_two)
    assert laurent_minor_gcd(content_two, 1) == LaurentPoly.term(2)
    with pytest.raises(ValueError):
        alexander_poly(LaurentMatrix(0, 0, ()))
    with pytest.raises(ValueError):
        coloring_form()
    with pytest.raises(ValueError):
        coloring_form(TREFOIL, BraidWord.identity(3))


# -- closure diagrams ----------------------------------------------------------


def test_trefoil_diagram_shape():
    d = closure_diagram(TREFOIL)
    assert d.arc_count == 3
    assert len(d.crossings) == 3


def test_one_crossing_unknot_diagram():
    d = closure_diagram(parse_braid("1", 2))
    assert d.arc_count == 1
    assert len(d.crossings) == 1
    c = d.crossings[0]
    assert c.over == c.under_in == c.under_out == 1


def test_figure_eight_diagram_shape():
    d = closure_diagram(FIGURE_EIGHT)
    assert d.arc_count == 4
    assert len(d.crossings) == 4


def test_diagram_needs_a_crossing():
    with pytest.raises(ValueError):
        closure_diagram(BraidWord.identity(2))


def test_knot_diagram_underpass_incidence():
    rng = random.Random(34)
    for _ in range(25):
        a = random_knot_braid(rng, 4, 8)
        d = closure_diagram(a)
        incoming = sorted(c.under_in for c in d.crossings)
        outgoing = sorted(c.under_out for c in d.crossings)
        assert incoming == list(range(1, d.arc_count + 1))
        assert outgoing == list(range(1, d.arc_count + 1))


# -- coloring matrices -----------------------------------------------------------


def test_coloring_matrix_degenerate_rows():
    one = LaurentPoly.one()
    # over arc equals incoming under arc
    d = ClosureDiagram(2, (Crossing(over=1, under_in=1, under_out=2, sign=1),))
    row = coloring_matrix(d).entries[0]
    assert row == (one, -one)
    # fully degenerate crossing gives the zero row
    d = ClosureDiagram(1, (Crossing(over=1, under_in=1, under_out=1, sign=1),))
    assert coloring_matrix(d).entries[0] == (LaurentPoly.zero(),)


def test_trefoil_coloring_matrix_divisor():
    d = closure_diagram(TREFOIL)
    matrix = coloring_matrix(d)
    assert determinantal_divisor(full_snf(matrix), matrix.cols - 1) == 3


def test_coloring_matrix_ideal_matches_alexander_polynomial():
    # ideal-level equivalence with the presentation route, not just at t = -1
    for braid, expected in ((TREFOIL, TREFOIL_POLY), (FIGURE_EIGHT, FIGURE_EIGHT_POLY)):
        matrix = coloring_matrix(closure_diagram(braid))
        gcd_poly = laurent_minor_gcd(matrix, matrix.cols - 1)
        assert gcd_poly == expected


# -- reduced Burau oracle ----------------------------------------------------------


def test_burau_closed_forms():
    assert burau_alexander(TREFOIL) == TREFOIL_POLY
    assert burau_alexander(parse_braid("1", 2)) == LaurentPoly.one()
    assert burau_alexander(FIGURE_EIGHT) == FIGURE_EIGHT_POLY
    assert burau_alexander(CINQUEFOIL) == LaurentPoly({0: 1, 1: -1, 2: 1, 3: -1, 4: 1})


def test_torus_knot_closed_forms():
    # (t^pq - 1)(t - 1) / ((t^p - 1)(t^q - 1)) evaluated by hand
    t34 = parse_braid("1 2 1 2 1 2 1 2", 3)
    expected = LaurentPoly({0: 1, 1: -1, 3: 1, 5: -1, 6: 1})
    assert burau_alexander(t34) == expected
    assert alexander_poly(alexander_matrix(t34)) == expected
    assert determinant(t34) == 3

    t27 = parse_braid("1^7", 2)
    assert burau_alexander(t27) == LaurentPoly(
        {0: 1, 1: -1, 2: 1, 3: -1, 4: 1, 5: -1, 6: 1}
    )


def test_burau_rejects_links():
    with pytest.raises(ValueError):
        burau_alexander(parse_braid("1^2", 2))


def _identity_grid(size):
    return [[LaurentPoly.one() if i == j else LaurentPoly.zero() for j in range(size)] for i in range(size)]


def _reduced_burau_letter(letter, n):
    size = n - 1
    k = abs(letter) - 1
    t = LaurentPoly.t()
    grid = _identity_grid(size)
    if letter > 0:
        grid[k][k] = LaurentPoly.term(-1, 1)
        if k > 0:
            grid[k - 1][k] = t
        if k + 1 < size:
            grid[k + 1][k] = LaurentPoly.one()
    else:
        grid[k][k] = LaurentPoly.term(-1, -1)
        if k > 0:
            grid[k - 1][k] = LaurentPoly.one()
        if k + 1 < size:
            grid[k + 1][k] = LaurentPoly.t(-1)
    return LaurentMatrix(size, size, tuple(tuple(row) for row in grid))


def _dense_burau_alexander(a):
    n = a.strands
    identity = _identity_grid(n - 1)
    burau = LaurentMatrix.from_rows(identity, cols=n - 1)
    for letter in a.letters:
        burau = burau @ _reduced_burau_letter(letter, n)
    difference = [[x - y for x, y in zip(*rows)] for rows in zip(identity, burau.entries)]
    char = laurent_det(LaurentMatrix.from_rows(difference, cols=n - 1))
    numerator = char * (LaurentPoly.one() - LaurentPoly.t())
    return normalize_unit(exact_div(numerator, LaurentPoly.one() - LaurentPoly.t(n)))


def test_sparse_burau_matches_dense_product():
    rng = random.Random(36)
    for _ in range(100):
        a = random_knot_braid(rng, 7, 14)
        assert burau_alexander(a) == _dense_burau_alexander(a), f"braid {a}"


def test_burau_matches_fox_route():
    rng = random.Random(35)
    for _ in range(40):
        a = random_knot_braid(rng, 4, 8)
        matrix = fox_matrix(closure_presentation(a))
        poly, det = alexander_poly(matrix), matrix_determinant(matrix)
        oracle = burau_alexander(a)
        assert normalize_unit(poly) == oracle, f"braid {a}"
        assert det == abs(oracle.evaluate(-1))


# -- headline determinants ----------------------------------------------------------


def test_classical_determinants():
    for braid, expected_det in (
        (TREFOIL, 3),
        (FIGURE_EIGHT, 5),
        (CINQUEFOIL, 5),
        (GRANNY, 9),
    ):
        det = determinant(braid)
        assert det == expected_det


def test_surface_determinants():
    a, b = TREFOIL, parse_braid("1^6", 2)
    assert determinant(a, b) == 3

    c, tau2 = GRANNY, full_twist(3) ** 2
    assert determinant(c, tau2) == 9


def test_surface_determinant_is_odd():
    rng = random.Random(36)
    for _ in range(20):
        a = random_knot_braid(rng, 4, 8)
        b = full_twist(a.strands) ** rng.randint(0, 2)
        assert determinant(a, b) % 2 == 1


def test_diagram_vs_presentation_divisors():
    rng = random.Random(37)
    for _ in range(30):
        a = random_knot_braid(rng, 4, 8)
        pres_matrix = alexander_matrix(a)
        diag_matrix = coloring_matrix(closure_diagram(a))
        pres_snf, diag_snf = full_snf(pres_matrix), full_snf(diag_matrix)
        for back in range(1, min(pres_matrix.cols, diag_matrix.cols) + 1):
            assert determinantal_divisor(
                pres_snf, pres_matrix.cols - back
            ) == determinantal_divisor(diag_snf, diag_matrix.cols - back)
