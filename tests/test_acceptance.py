"""Acceptance suite.

Each test covers one headline guarantee, prints one PASS line when it
holds (run with ``pytest -s`` to see them), and pins exact values; there
are no tolerances anywhere because every quantity is an integer or an
exact polynomial.
"""

import random
import time

import pytest

from kreps.braids import (
    full_twist,
    parse_braid,
    prime_twist_family,
)
from kreps.colorings import (
    colorability_profile,
    is_p_colorable,
    surface_coloring_census,
)
from kreps.intlinalg import determinantal_divisor
from kreps.metabelian import (
    count_from_colorings,
    count_irreducible_metabelian,
    enumerate_rep_classes,
)
from kreps.oracles import (
    braid_mismatch,
    closure_diagram,
    closure_presentation,
    diagram_census_brute,
    is_irreducible,
    matrix_mismatch,
    pair_mismatch,
    random_int_matrix,
    random_knot_braid,
    torus_covering_presentation,
    verify_representation,
)
from kreps.presentations import coloring_form

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
    # every check of kreps verify on one knot: the braid-built matrix against
    # Fox calculus, the knot minor against the base-column and all-minors
    # gcds and the reduced Burau route, the classes on the free-word
    # relators, the divisors against the diagram's crossing matrix, and
    # three census routes for r = 2..7
    rng = random.Random(20260810)
    start = time.monotonic()
    for trial in range(100):
        a = random_knot_braid(rng, 4, 8)
        assert braid_mismatch(a) is None, f"trial {trial}: {a}"
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
    # the Smith normal form against P A Q, the divisor chain and the
    # brute-force minors, and the solutions modulo r against exhaustive
    # search, which at most 4 columns and r <= 12 never skips
    rng = random.Random(77)
    exhaustive_checked = 0
    for trial in range(500):
        a = random_int_matrix(rng)
        moduli = range(2, 13) if a.cols <= 3 else (rng.randint(2, 12),)
        assert matrix_mismatch(a, moduli) is None, f"trial {trial}: {a.entries}"
        exhaustive_checked += len(moduli)
    assert exhaustive_checked >= 500
    print(
        f"ACCEPTANCE 7 (500 matrices: SNF exact, divisor chain, brute-force minors, "
        f"{exhaustive_checked} exhaustive solution checks): PASS"
    )


def test_criterion_8_surface_determinant_parity():
    # every check of kreps verify on one twisted pair: the braid-built
    # matrix against Fox calculus, the base-column gcd against all minors,
    # the form's determinant against the whole matrix, and its parity
    rng = random.Random(88)
    for trial in range(50):
        a = random_knot_braid(rng, 4, 8)
        b = full_twist(a.strands) ** rng.randint(0, 3)
        assert pair_mismatch(a, b) is None, f"trial {trial}: {a} with twist {b}"
    print("ACCEPTANCE 8 (surface determinants are odd on 50 twisted pairs): PASS")
