import importlib.util
import random
from itertools import product
from math import gcd, prod
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kreps.braids import full_twist, parse_braid, prime_twist_family
from kreps.intlinalg import IntMatrix, determinantal_divisor, smith_normal_form
from kreps.metabelian import (
    BinaryDihedralElt,
    RepClass,
    bd_inv,
    bd_mul,
    count_from_colorings,
    count_irreducible_metabelian,
    enumerate_rep_classes,
)
from kreps.oracles import (
    FreeWord,
    Presentation,
    class_mismatch,
    closure_presentation,
    is_irreducible,
    random_odd_det_matrix,
    scan_rep_classes,
    torus_covering_presentation,
    verify_representation,
)
from kreps.presentations import coloring_form

D = BinaryDihedralElt.d
R = BinaryDihedralElt.r

TREFOIL = parse_braid("1^3", 2)


def wirtinger_trefoil():
    """Three-arc presentation with conjugation relators; colorings are the
    classic (c1, c2, c3) with 2*c_over == c_in + c_out (mod 3)."""
    rels = (
        FreeWord(3, (2, 1, -2, -3)),  # x2 x1 x2^-1 = x3
        FreeWord(3, (3, 2, -3, -1)),  # x3 x2 x3^-1 = x1
        FreeWord(3, (1, 3, -1, -2)),  # x1 x3 x1^-1 = x2
    )
    return Presentation(3, rels)


# -- group law -------------------------------------------------------------


def test_multiplication_table():
    m = 3
    assert bd_mul(D(m, 1), D(m, 2)) == D(m, 3)
    assert bd_mul(D(m, 1), R(m, 2)) == R(m, 3)
    assert bd_mul(R(m, 2), D(m, 1)) == R(m, 1)
    assert bd_mul(R(m, 4), R(m, 1)) == D(m, 4 - 1 + 3)


def test_reflection_squares_to_minus_identity():
    for m in (3, 5, 7):
        for k in range(2 * m):
            assert bd_mul(R(m, k), R(m, k)) == D(m, m)


def test_conjugation_is_dihedral():
    for m in (3, 5):
        for a in range(2 * m):
            for b in range(2 * m):
                conj = bd_mul(bd_mul(R(m, a), R(m, b)), bd_inv(R(m, a)))
                assert conj == R(m, 2 * a - b)


def test_inverses():
    for m in (3, 5):
        for k in range(2 * m):
            assert bd_mul(D(m, k), bd_inv(D(m, k))).is_identity
            assert bd_mul(R(m, k), bd_inv(R(m, k))).is_identity


def test_group_has_order_4m():
    for m in (3, 5):
        elements = {D(m, 0)}
        gens = [D(m, 1), R(m, 0)]
        frontier = True
        while frontier:
            frontier = False
            for x in list(elements):
                for g in gens:
                    y = bd_mul(x, g)
                    if y not in elements:
                        elements.add(y)
                        frontier = True
        assert len(elements) == 4 * m


def test_associativity_random():
    rng = random.Random(51)
    m = 5
    pool = [D(m, k) for k in range(2 * m)] + [R(m, k) for k in range(2 * m)]
    for _ in range(200):
        x, y, z = rng.choice(pool), rng.choice(pool), rng.choice(pool)
        assert bd_mul(bd_mul(x, y), z) == bd_mul(x, bd_mul(y, z))


def test_modulus_validation():
    with pytest.raises(ValueError):
        BinaryDihedralElt(5, "D", 0)  # odd modulus
    with pytest.raises(ValueError):
        BinaryDihedralElt(8, "D", 0)  # 2m with m even
    with pytest.raises(ValueError):
        bd_mul(D(3, 0), D(5, 0))


# -- counting formulas --------------------------------------------------------


def test_count_from_determinant():
    assert count_irreducible_metabelian(3) == 1
    assert count_irreducible_metabelian(1) == 0
    assert count_irreducible_metabelian(9) == 4
    with pytest.raises(ValueError):
        count_irreducible_metabelian(4)
    with pytest.raises(ValueError):
        count_irreducible_metabelian(-3)


def test_count_from_colorings():
    assert count_from_colorings(9, 3) == 1
    assert count_from_colorings(27, 3) == 4
    assert count_from_colorings(5, 5) == 0
    with pytest.raises(ValueError):
        count_from_colorings(10, 3)


# -- representations -----------------------------------------------------------


def lifted(coloring, m):
    """Generator i -> R(k_i), k_i the even lift of color i modulo 2m: the
    assignment a class reads from its angles."""
    return tuple(R(m, c % m if c % m % 2 == 0 else c % m + m) for c in coloring)


def test_build_representation_trefoil_wirtinger():
    pres = wirtinger_trefoil()
    assignment = lifted((0, 1, 2), 3)
    assert assignment == (R(3, 0), R(3, 4), R(3, 2))
    assert verify_representation(pres, assignment)
    assert is_irreducible(assignment)


def test_build_representation_trivial_coloring_is_reducible():
    pres = wirtinger_trefoil()
    assignment = lifted((0, 0, 0), 3)
    assert assignment == (R(3, 0), R(3, 0), R(3, 0))
    assert verify_representation(pres, assignment)
    assert not is_irreducible(assignment)


def test_build_representation_rejects_non_colorings():
    pres = wirtinger_trefoil()
    # the lift of a vector that is no coloring fails a relator
    assert not verify_representation(pres, lifted((0, 1, 1), 3))
    with pytest.raises(ValueError):
        lifted((0, 1, 2), 4)  # even modulus


def test_verify_rejects_perturbed_assignment():
    pres = wirtinger_trefoil()
    assignment = lifted((0, 1, 2), 3)
    perturbed = (assignment[0], R(3, assignment[1].angle + 1), assignment[2])
    assert not verify_representation(pres, perturbed)


def test_verify_empty_relator_list():
    pres = Presentation(2, ())
    assert verify_representation(pres, (R(3, 0), R(3, 2)))


def test_is_irreducible_cases():
    assert is_irreducible((R(3, 0), R(3, 4), R(3, 2)))
    assert not is_irreducible((R(3, 2), R(3, 2)))
    # angles 0 and 3 agree mod 3: the same reflection up to sign
    assert not is_irreducible((R(3, 0), R(3, 3)))
    with pytest.raises(ValueError):
        is_irreducible((D(3, 1), R(3, 0)))


def test_negation_pairing_by_conjugation():
    for m in (3, 5, 9):
        for k in range(2 * m):
            lhs = bd_mul(bd_mul(R(m, 0), R(m, k)), bd_inv(R(m, 0)))
            assert lhs == R(m, -k)


# -- class enumeration -----------------------------------------------------------


def test_trefoil_classes():
    pres = closure_presentation(TREFOIL)
    classes = enumerate_rep_classes(coloring_form(TREFOIL))
    assert len(classes) == 1
    rc = classes[0]
    assert rc.modulus == 3
    assert rc.coloring[-1] == 0
    assert verify_representation(pres, rc.assignment)
    assert is_irreducible(rc.assignment)


def test_unknot_has_no_classes():
    assert enumerate_rep_classes(coloring_form(parse_braid("1", 2))) == []


def test_surface_family_classes():
    c, b = parse_braid("1^3 2^3", 3), full_twist(3) ** 2
    pres = torus_covering_presentation(c, b)
    classes = enumerate_rep_classes(coloring_form(c, b))
    assert len(classes) == 4
    for rc in classes:
        assert verify_representation(pres, rc.assignment)
        assert is_irreducible(rc.assignment)
        assert rc.coloring[-1] == 0


def test_classes_are_distinct_up_to_negation():
    classes = enumerate_rep_classes(coloring_form(parse_braid("1^5", 2)))
    assert len(classes) == 2
    seen = set()
    for rc in classes:
        neg = tuple((-v) % rc.modulus for v in rc.coloring)
        assert rc.coloring not in seen and neg not in seen
        seen.add(rc.coloring)
        seen.add(neg)


def test_representation_angles_are_even():
    for rc in enumerate_rep_classes(coloring_form(parse_braid("1 -2 1 -2", 3))):
        for elt in rc.assignment:
            assert elt.kind == "R"
            assert elt.angle % 2 == 0


def test_four_strand_family_counts():
    from kreps.braids import prime_twist_family

    c, b = prime_twist_family(4, 3, (1, 1, 1), None, 1)
    pres = torus_covering_presentation(c, b)
    form = coloring_form(c, b)
    det = determinantal_divisor(form, form.cols)
    assert det == 27
    classes = enumerate_rep_classes(form)
    assert len(classes) == 13
    for rc in classes:
        assert verify_representation(pres, rc.assignment)
        assert is_irreducible(rc.assignment)


def test_negative_twist_power_family():
    from kreps.braids import prime_twist_family

    c, b = prime_twist_family(3, 3, (1, 1), None, -1)
    form = coloring_form(c, b)
    det = determinantal_divisor(form, form.cols)
    assert det == 9
    assert len(enumerate_rep_classes(form)) == 4


def test_five_strand_family_counts():
    from kreps.braids import prime_twist_family
    from kreps.colorings import surface_coloring_census

    c, b = prime_twist_family(5, 3, (1, 1, 1, 1), None, 1)
    form = coloring_form(c, b)
    det = determinantal_divisor(form, form.cols)
    assert det == 81
    assert len(enumerate_rep_classes(form)) == 40
    assert surface_coloring_census(c, b, 3).total == 243


# -- the class list against the construction it replaced ------------------------


def reference_classes(form):
    """Every solution modulo det as Q x', the base pinned to 0, min(c, -c)
    kept, and each color lifted through BinaryDihedralElt.r."""
    det = determinantal_divisor(form, form.cols)
    if det == 1:
        return []
    ranges = [range(0, det, det // gcd(d, det)) for d in form.divisors]
    ranges += [range(det)] * (form.cols - form.rank)
    chosen = set()
    for xprime in product(*ranges):
        sol = tuple(sum(q * x for q, x in zip(row, xprime)) % det for row in form.Q.entries)
        sol += (0,)
        if any(sol):
            chosen.add(min(sol, tuple(-v % det for v in sol)))
    out = []
    for coloring in sorted(chosen):
        assignment = tuple(R(det, c if c % 2 == 0 else c + det) for c in coloring)
        out.append((det, coloring, tuple(elt.angle for elt in assignment), assignment))
    return out


def benchmark_braids(workload):
    path = Path(__file__).resolve().parents[1] / "perfbench" / "inputs.py"
    spec = importlib.util.spec_from_file_location("perfbench_inputs", path)
    inputs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(inputs)
    return [parse_braid(argv[1], int(argv[3])) for argv in inputs.make_inputs(workload, 0)]


@pytest.mark.parametrize("workload", ["knots", "table"])
def test_classes_match_the_reference_on_benchmark_knots(workload):
    for a in benchmark_braids(workload):
        form = coloring_form(a)
        got = [(rc.modulus, rc.coloring, rc.angles, rc.assignment) for rc in enumerate_rep_classes(form)]
        assert got == reference_classes(form), str(a)


def test_classes_match_the_reference_on_family_surfaces():
    pairs = [
        (parse_braid("1^3 2^3", 3), full_twist(3) ** 2),
        prime_twist_family(4, 3, (1, 1, 1), None, 1),
        prime_twist_family(3, 3, (1, 1), None, -1),
        prime_twist_family(5, 3, (1, 1, 1, 1), None, 1),
    ]
    for c, b in pairs:
        form = coloring_form(c, b)
        got = [(rc.modulus, rc.coloring, rc.angles, rc.assignment) for rc in enumerate_rep_classes(form)]
        assert got == reference_classes(form), (str(c), str(b))


# -- the class list against the scan it replaced -------------------------------


def test_rep_class_is_a_named_tuple():
    rc = enumerate_rep_classes(coloring_form(TREFOIL))[0]
    assert isinstance(rc, tuple) and type(rc) is RepClass
    assert rc == (3, (1, 0), (4, 0))
    assert rc._replace(modulus=5).modulus == 5
    assert rc.assignment == (R(3, 4), R(3, 0))


@st.composite
def odd_det_forms(draw):
    """The Smith form of U diag(d) V for a chain d of odd invariant factors
    whose product is at most 3^7, with up to two zero rows, and random
    unimodular U and V: prime, composite and non-cyclic determinants."""
    cols = draw(st.integers(1, 4))
    divisors = [draw(st.sampled_from((1, 3, 5, 7, 9, 15)))]
    for _ in range(cols - 1):
        step = draw(st.sampled_from((1, 1, 3, 5)))
        divisors.append(divisors[-1] * step)
    if prod(divisors) > 3**7:
        divisors = [1] * (cols - 1) + [divisors[0]]
    rows = cols + draw(st.integers(0, 2))
    grid = [[divisors[i] if i == j else 0 for j in range(cols)] for i in range(rows)]
    for _ in range(draw(st.integers(0, 8))):
        f = draw(st.sampled_from((-2, -1, 1, 2)))
        if rows > 1:
            i, k = draw(st.permutations(range(rows)))[:2]
            grid[i] = [x + f * y for x, y in zip(grid[i], grid[k])]
        if cols > 1:
            j, k = draw(st.permutations(range(cols)))[:2]
            for row in grid:
                row[j] += f * row[k]
    return smith_normal_form(IntMatrix.from_rows(grid, cols=cols))


@settings(max_examples=300, deadline=None)
@given(odd_det_forms())
def test_classes_match_the_scan_on_odd_determinant_forms(form):
    det = determinantal_divisor(form, form.cols)
    classes = enumerate_rep_classes(form)
    assert classes == scan_rep_classes(form)
    assert len(classes) == (det - 1) // 2
    assert all(type(rc) is RepClass for rc in classes)
    assert class_mismatch(form) is None


def test_classes_match_the_scan_on_non_cyclic_and_composite_groups():
    for divisors in ((3, 3), (3, 9), (1, 3, 3), (3, 3, 3), (5, 15), (15,), (45,), (3, 3, 9)):
        grid = [[d if i == j else 0 for j in range(len(divisors))] for i, d in enumerate(divisors)]
        form = smith_normal_form(IntMatrix.from_rows(grid))
        classes = enumerate_rep_classes(form)
        assert classes == scan_rep_classes(form), divisors
        assert len(classes) == len(set(classes)) == (prod(divisors) - 1) // 2


def test_random_odd_det_matrices_cover_every_kind_of_group():
    rng = random.Random(0)
    kinds = set()
    for _ in range(200):
        form = smith_normal_form(random_odd_det_matrix(rng))
        det = determinantal_divisor(form, form.cols)
        assert det % 2 == 1 and det <= 3**6 and form.rank == form.cols
        nontrivial = [d for d in form.divisors if d > 1]
        prime = det > 1 and all(det % p for p in range(2, det))
        kinds.add("one" if det == 1 else "non-cyclic" if len(nontrivial) > 1 else "prime" if prime else "composite")
    assert kinds == {"one", "non-cyclic", "prime", "composite"}


def test_class_mismatch_reports_a_wrong_choice(monkeypatch):
    import kreps.oracles as oracles

    form = coloring_form(parse_braid("1^5", 2))
    assert class_mismatch(form) is None
    right = enumerate_rep_classes(form)
    monkeypatch.setattr(oracles, "enumerate_rep_classes", lambda f: right[:1])
    assert class_mismatch(form) == "1 classes mod 5, the scan finds 2"
    wrong = [right[0], right[1]._replace(coloring=(4, 0))]
    monkeypatch.setattr(oracles, "enumerate_rep_classes", lambda f: wrong)
    assert class_mismatch(form) == "class 1 mod 5 is (5, (4, 0), (2, 0)), the scan gives (5, (2, 0), (2, 0))"


def test_braid_mismatch_enumerates_the_classes_once(monkeypatch):
    import kreps.oracles as oracles

    calls = []
    enumerate_classes = oracles.enumerate_rep_classes
    monkeypatch.setattr(oracles, "enumerate_rep_classes", lambda form: calls.append(form) or enumerate_classes(form))
    assert oracles.braid_mismatch(parse_braid("1 1 1 1 1", 2)) is None
    assert len(calls) == 1
