"""Acceptance suite.

Each test covers one headline guarantee, prints one PASS line when it
holds (run with ``pytest -s`` to see them), and pins exact values; there
are no tolerances anywhere because every quantity is an integer or an
exact polynomial.
"""

import random
import time
from itertools import product

import pytest

from kreps.braids import (
    BraidWord,
    full_twist,
    parse_braid,
    prime_twist_family,
    random_knot_braid,
)
from kreps.colorings import (
    colorability_profile,
    coloring_census,
    diagram_census_brute,
    is_p_colorable,
    surface_coloring_census,
)
from kreps.intlinalg import (
    IntMatrix,
    determinantal_divisor,
    enumerate_solutions_mod,
    minor_gcd,
    smith_normal_form,
    solution_count_mod,
)
from kreps.laurent import normalize_unit
from kreps.metabelian import (
    count_from_colorings,
    count_irreducible_metabelian,
    enumerate_rep_classes,
    is_irreducible,
    verify_representation,
)
from kreps.presentations import (
    alexander_matrix,
    alexander_poly,
    burau_alexander,
    closure_diagram,
    closure_presentation,
    coloring_form,
    coloring_matrix,
    torus_covering_presentation,
)

FAMILY_CASES = (
    # (n, p, m, expected rep count, expected colorings mod p)
    (2, 3, 0, 1, 9),
    (2, 3, 1, 1, 9),
    (2, 5, 1, 2, 25),
    (3, 3, 1, 4, 27),
)

CLASSICAL_CASES = (
    # (name, braid text, strands, determinant, class count)
    ("trefoil", "1^3", 2, 3, 1),
    ("figure-eight", "1 -2 1 -2", 3, 5, 2),
    ("cinquefoil", "1^5", 2, 5, 2),
    ("granny", "1^3 2^3", 3, 9, 4),
)


def family_pair(n, p, m):
    return prime_twist_family(n, p, (1,) * (n - 1), None, m)


def family_form(n, p, m):
    c, b = family_pair(n, p, m)
    return c, b, coloring_form(c, b)


def determinant(form):
    return determinantal_divisor(form, form.cols)


def full_snf(matrix):
    return smith_normal_form(IntMatrix.from_rows(matrix.evaluate(-1), cols=matrix.cols))


def test_criterion_1_family_counts():
    for n, p, m, expected_reps, expected_colorings in FAMILY_CASES:
        start = time.monotonic()
        c, b, form = family_form(n, p, m)
        det = determinant(form)
        classes = enumerate_rep_classes(form)
        assert count_irreducible_metabelian(det) == expected_reps, (n, p, m)
        assert len(classes) == expected_reps, (n, p, m)
        assert expected_reps == (p ** (n - 1) - 1) // 2
        census = surface_coloring_census(c, b, p)
        assert census.total == expected_colorings == p**n, (n, p, m)
        elapsed = time.monotonic() - start
        assert elapsed < 10.0, f"case {(n, p, m)} took {elapsed:.1f}s"
    print("ACCEPTANCE 1 (family rep counts and coloring totals): PASS")


def test_criterion_2_classical_sanity():
    for name, text, strands, expected_det, expected_classes in CLASSICAL_CASES:
        a = parse_braid(text, strands)
        form = coloring_form(a)
        det = determinant(form)
        assert det == expected_det, name
        classes = enumerate_rep_classes(form)
        assert len(classes) == expected_classes, name
        # brute-force coloring oracle: base-fixed colorings modulo det
        # number exactly det, and only the trivial one exists at primes
        # not dividing det
        diagram = closure_diagram(a)
        brute = diagram_census_brute(diagram, det)
        assert brute.condition_o == det, name
        assert brute.total == det * det, name
        for q in (3, 5, 7):
            if det % q:
                assert diagram_census_brute(diagram, q).condition_o == 1, name
    print("ACCEPTANCE 2 (classical knots: determinants and class counts): PASS")


def test_criterion_3_determinant_colorability_rule():
    exercised = 0
    for n, p, m, expected_reps, _ in FAMILY_CASES:
        c, b, form = family_form(n, p, m)
        surface_det = determinant(form)
        base_det = determinant(coloring_form(c))
        assert base_det == p ** (n - 1), (n, p, m)
        assert surface_det == base_det, (n, p, m)
        assert expected_reps == (base_det - 1) // 2, (n, p, m)
        hypothesis = is_p_colorable(form, base_det)
        if hypothesis:
            exercised += 1
            assert len(enumerate_rep_classes(form)) == (base_det - 1) // 2
        if n == 2:
            # prime determinant: the colorability hypothesis genuinely holds
            assert hypothesis, (n, p, m)
        else:
            # composite determinant: every mod-9 coloring of this surface has
            # colors differing by multiples of 3 (granny-knot phenomenon), so
            # the determinant-colorability hypothesis is vacuous here while
            # the count conclusion still holds
            assert is_p_colorable(form, p)
            assert not hypothesis, (n, p, m)
    assert exercised == 3
    print(
        "ACCEPTANCE 3 (determinant-colorability count rule): PASS "
        "(hypothesis holds and is exercised on the prime-determinant members; "
        "vacuous for the composite-determinant member)"
    )


@pytest.mark.xfail(
    strict=True,
    reason=(
        "stated blanket claim is false for the (n=3, p=3) member: its "
        "determinant is 9 but all mod-9 colorings are degenerate (colors "
        "differ by multiples of 3), so the surface is not 9-colorable; "
        "the determinant equality and the count rule hold regardless"
    ),
)
def test_criterion_3_literal_blanket_colorability():
    for n, p, m, _, _ in FAMILY_CASES:
        _, _, form = family_form(n, p, m)
        assert is_p_colorable(form, p ** (n - 1)), (n, p, m)


def test_criterion_4_only_p_colorability_rule():
    for n, p, m, expected_reps, expected_colorings in FAMILY_CASES:
        c, b, form = family_form(n, p, m)
        profile = colorability_profile(form, 4 * p)
        base_count = p ** (n - 1)
        for r, cond in profile:
            assert cond in (1, base_count), (n, p, m, r, cond)
            assert cond == (base_count if r % p == 0 else 1), (n, p, m, r)
        census = surface_coloring_census(c, b, p)
        assert census.total == expected_colorings
        assert count_from_colorings(census.total, p) == expected_reps, (n, p, m)
    print("ACCEPTANCE 4 (only-p colorability profile and coloring count rule): PASS")


def test_criterion_5_oracle_equivalence_sweep():
    rng = random.Random(20260810)
    start = time.monotonic()
    for trial in range(100):
        a = random_knot_braid(rng, 4, 8)
        pres_matrix, form = alexander_matrix(a), coloring_form(a)
        poly, det = alexander_poly(pres_matrix), determinant(form)
        oracle = burau_alexander(a)
        assert normalize_unit(poly) == oracle, f"trial {trial}: {a}"
        assert det == abs(oracle.evaluate(-1)), f"trial {trial}: {a}"

        diagram = closure_diagram(a)
        diag_matrix = coloring_matrix(diagram)
        pres_snf, diag_snf = full_snf(pres_matrix), full_snf(diag_matrix)
        for back in range(1, min(pres_matrix.cols, diag_matrix.cols) + 1):
            lhs = determinantal_divisor(pres_snf, pres_matrix.cols - back)
            rhs = determinantal_divisor(diag_snf, diag_matrix.cols - back)
            assert lhs == rhs, f"trial {trial}: {a} depth {back}"

        identity = BraidWord.identity(a.strands)
        for r in range(2, 8):
            algebraic = coloring_census(form, r)
            transported = surface_coloring_census(a, identity, r)
            brute = diagram_census_brute(diagram, r)
            assert (
                algebraic.total == transported.total == brute.total
            ), f"trial {trial}: {a} mod {r}"
            assert (
                algebraic.condition_o == transported.condition_o == brute.condition_o
            ), f"trial {trial}: {a} mod {r}"
    elapsed = time.monotonic() - start
    assert elapsed < 60.0, f"sweep took {elapsed:.1f}s"
    print(f"ACCEPTANCE 5 (oracle equivalence, 100 braids in {elapsed:.1f}s): PASS")


def test_criterion_6_representation_validity():
    # classes come from the braid-built matrix and are verified on the
    # free-word relators of the independent presentation
    cases = []
    for n, p, m, _, _ in FAMILY_CASES:
        c, b, form = family_form(n, p, m)
        cases.append((form, torus_covering_presentation(c, b)))
    for _, text, strands, _, _ in CLASSICAL_CASES:
        a = parse_braid(text, strands)
        cases.append((coloring_form(a), closure_presentation(a)))
    for form, pres in cases:
        det = determinant(form)
        classes = enumerate_rep_classes(form)
        assert len(classes) == (det - 1) // 2
        for rc in classes:
            assert verify_representation(pres, rc.assignment)
            assert is_irreducible(rc.assignment)
    print("ACCEPTANCE 6 (every enumerated class verifies exactly and is irreducible): PASS")


def test_criterion_7_integer_linear_algebra_battery():
    rng = random.Random(77)
    exhaustive_checked = 0
    for trial in range(500):
        rows = rng.randint(1, 4)
        cols = rng.randint(1, 4)
        a = IntMatrix.from_rows(
            [[rng.randint(-9, 9) for _ in range(cols)] for _ in range(rows)],
            cols=cols,
        )
        snf = smith_normal_form(a)
        diag = snf.P @ a @ snf.Q
        for i in range(diag.rows):
            for j in range(diag.cols):
                expected = snf.divisors[i] if i == j and i < snf.rank else 0
                assert diag.entries[i][j] == expected, f"trial {trial}"
        for i in range(snf.rank - 1):
            assert snf.divisors[i + 1] % snf.divisors[i] == 0, f"trial {trial}"
        for k in range(min(rows, cols) + 1):
            assert determinantal_divisor(snf, k) == minor_gcd(a, k), f"trial {trial}"

        moduli = range(2, 13) if cols <= 3 else (rng.randint(2, 12),)
        for r in moduli:
            exhaustive_checked += 1
            brute = [
                x
                for x in product(range(r), repeat=cols)
                if all(v % r == 0 for v in a.apply(list(x)))
            ]
            assert solution_count_mod(snf, r) == len(brute), f"trial {trial} mod {r}"
            assert sorted(enumerate_solutions_mod(snf, r)) == sorted(brute), (
                f"trial {trial} mod {r}"
            )
    assert exhaustive_checked >= 500
    print(
        f"ACCEPTANCE 7 (500 matrices: SNF exact, divisor chain, brute-force minors, "
        f"{exhaustive_checked} exhaustive solution checks): PASS"
    )


def test_criterion_8_surface_determinant_parity():
    rng = random.Random(88)
    for trial in range(50):
        a = random_knot_braid(rng, 4, 8)
        b = full_twist(a.strands) ** rng.randint(0, 3)
        det = determinant(coloring_form(a, b))
        assert det % 2 == 1, f"trial {trial}: {a} with twist {b}"
    print("ACCEPTANCE 8 (surface determinants are odd on 50 twisted pairs): PASS")
