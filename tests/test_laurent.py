import random
from itertools import permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kreps.laurent import LaurentMatrix, LaurentPoly, normalize_unit, poly_str
from kreps.oracles import exact_div, laurent_det, laurent_minor_gcd, poly_gcd


def random_poly(rng, max_terms=4, max_exp=4, max_coeff=6):
    coeffs = {}
    for _ in range(rng.randint(0, max_terms)):
        coeffs[rng.randint(-max_exp, max_exp)] = rng.randint(-max_coeff, max_coeff)
    return LaurentPoly(coeffs)


t = LaurentPoly.t()
one = LaurentPoly.one()


def test_basic_ring_identities():
    assert t + (-t) == LaurentPoly.zero()
    assert (one - t) * (one + t) == one - t * t
    assert LaurentPoly.t(-1) * t == one


def test_evaluation():
    trefoil = LaurentPoly({0: 1, 1: -1, 2: 1})
    assert trefoil.evaluate(-1) == 3
    assert trefoil.evaluate(1) == 1
    assert LaurentPoly.zero().evaluate(-1) == 0
    assert LaurentPoly.t(-3).evaluate(-1) == -1
    with pytest.raises(ValueError):
        trefoil.evaluate(2)


def test_evaluation_is_ring_hom():
    rng = random.Random(1)
    for _ in range(100):
        f, g = random_poly(rng), random_poly(rng)
        for v in (1, -1):
            assert (f + g).evaluate(v) == f.evaluate(v) + g.evaluate(v)
            assert (f * g).evaluate(v) == f.evaluate(v) * g.evaluate(v)


def test_normalize_unit_examples():
    messy = LaurentPoly({-1: -1, 0: 1, 1: -1})  # -1/t + 1 - t
    assert normalize_unit(messy) == LaurentPoly({0: 1, 1: -1, 2: 1})
    assert normalize_unit(LaurentPoly.term(5)) == LaurentPoly.term(5)
    assert normalize_unit(LaurentPoly.t(7)) == one
    with pytest.raises(ValueError):
        normalize_unit(LaurentPoly.zero())


def test_normalize_unit_is_idempotent_and_unit_invariant():
    rng = random.Random(2)
    for _ in range(100):
        f = random_poly(rng)
        if not f:
            continue
        norm = normalize_unit(f)
        assert normalize_unit(norm) == norm
        unit = LaurentPoly.term(rng.choice((1, -1)), rng.randint(-3, 3))
        assert normalize_unit(f * unit) == norm


def test_gcd_examples():
    f = one - t * t
    g = one - t
    assert poly_gcd(f, g) == normalize_unit(one - t)
    assert poly_gcd(f, LaurentPoly.zero()) == normalize_unit(f)
    assert poly_gcd(LaurentPoly.zero(), LaurentPoly.zero()) == LaurentPoly.zero()
    # t is a unit, so gcd(2, t) is a unit times 1
    assert poly_gcd(LaurentPoly.term(2), t) == one
    assert poly_gcd(LaurentPoly.term(4), LaurentPoly.term(6, 3)) == LaurentPoly.term(2)


def test_gcd_divides_both_arguments():
    rng = random.Random(3)
    for _ in range(60):
        f, g = random_poly(rng), random_poly(rng)
        d = poly_gcd(f, g)
        if not d:
            assert not f and not g
            continue
        exact_div(f, d)
        exact_div(g, d)


def test_gcd_recovers_common_factor():
    rng = random.Random(4)
    for _ in range(60):
        common = random_poly(rng)
        if not common:
            continue
        f = common * random_poly(rng)
        g = common * random_poly(rng)
        d = poly_gcd(f, g)
        if not d:
            assert not f and not g
            continue
        # the common factor divides the gcd
        exact_div(d, normalize_unit(common))


def test_exact_div():
    assert exact_div(one - t * t, one + t) == one - t
    assert exact_div(LaurentPoly.zero(), one + t) == LaurentPoly.zero()
    with pytest.raises(ValueError):
        exact_div(one - t * t * t, one + t)
    with pytest.raises(ZeroDivisionError):
        exact_div(one, LaurentPoly.zero())


def test_poly_str():
    assert poly_str(LaurentPoly({0: 1, 1: -1, 2: 1})) == "1 - t + t^2"
    assert poly_str(LaurentPoly({-2: 1, 0: -2})) == "t^-2 - 2"
    assert poly_str(LaurentPoly.zero()) == "0"
    assert poly_str(LaurentPoly({1: 3})) == "3*t"


def test_matrix_shapes_and_det():
    m = LaurentMatrix.from_rows([[one, t], [LaurentPoly.zero(), LaurentPoly.term(-1, 1)]])
    assert laurent_det(m) == LaurentPoly.term(-1, 1)
    empty = LaurentMatrix(0, 3, ())
    assert empty.cols == 3
    with pytest.raises(ValueError):
        LaurentMatrix(1, 2, ((one,),))


def test_det_matches_cofactor_expansion():
    rng = random.Random(5)
    for _ in range(25):
        n = rng.randint(1, 3)
        grid = [[random_poly(rng, 2, 2, 3) for _ in range(n)] for _ in range(n)]
        m = LaurentMatrix.from_rows(grid)

        def cofactor(rows, cols):
            if not rows:
                return one
            acc = LaurentPoly.zero()
            i = rows[0]
            for pos, j in enumerate(cols):
                minor = cofactor(rows[1:], cols[:pos] + cols[pos + 1 :])
                term = grid[i][j] * minor
                acc = acc + (term if pos % 2 == 0 else -term)
            return acc

        assert laurent_det(m) == cofactor(tuple(range(n)), tuple(range(n)))


def test_gcd_matches_sympy_when_available():
    sympy = pytest.importorskip("sympy")
    x = sympy.symbols("x")
    rng = random.Random(505)
    for _ in range(300):
        f, g = random_poly(rng), random_poly(rng)
        mine = poly_gcd(f, g)

        def shifted(p):
            if not p:
                return sympy.Integer(0)
            lo = p.dense[0]
            return sum(c * x ** (e - lo) for e, c in p.terms())

        sf, sg = shifted(f), shifted(g)
        if sf == 0 and sg == 0:
            assert not mine
            continue
        ref = sympy.gcd(sympy.Poly(sf, x), sympy.Poly(sg, x))
        coeffs = {e[0]: int(c) for e, c in sympy.Poly(ref, x).terms()}
        assert mine == normalize_unit(LaurentPoly(coeffs)), (str(f), str(g))


def test_minor_gcd():
    m = LaurentMatrix.from_rows([[t, -t], [-(one), one]])
    assert laurent_minor_gcd(m, 1) == one
    diag = LaurentMatrix.from_rows(
        [[one - t, LaurentPoly.zero()], [LaurentPoly.zero(), one - t]]
    )
    assert laurent_minor_gcd(diag, 1) == normalize_unit(one - t)
    assert laurent_minor_gcd(diag, 0) == one
    assert laurent_minor_gcd(diag, 3) == LaurentPoly.zero()


# -- the kernel against a plain-dict reference -----------------------------
#
# Equality and hashing read the stored pair (low, coefficients), so every
# result must store it with no zero at either end, and zero as (0, ()).

coeff_maps = st.dictionaries(st.integers(-5, 5), st.integers(-4, 4), max_size=5)
polys = coeff_maps.map(LaurentPoly)


def ref_clean(d):
    return {e: c for e, c in d.items() if c}


def ref_shifted_sum(parts):
    out = {}
    for sign, shift, f in parts:
        for e, c in f.items():
            out[e + shift] = out.get(e + shift, 0) + sign * c
    return ref_clean(out)


def ref_mul(f, g):
    out = {}
    for e1, c1 in f.items():
        for e2, c2 in g.items():
            out[e1 + e2] = out.get(e1 + e2, 0) + c1 * c2
    return ref_clean(out)


def stored(f):
    low, cs = f.dense
    assert type(low) is int and type(cs) is tuple and all(type(c) is int for c in cs)
    assert (cs[0] and cs[-1]) if cs else low == 0
    return dict(f.terms())


@settings(deadline=None)
@given(coeff_maps)
def test_constructor_coerces_and_drops_zeros(d):
    f = LaurentPoly({float(e): float(c) for e, c in d.items()})
    assert stored(f) == ref_clean(d)
    # a value that int() would change is refused, not truncated to a zero
    # coefficient or onto another term's exponent
    for bad in ({0: 0.5}, {1: 2, 1.7: 3}, {0.5: 1}, {**d, 0: -0.25}):
        with pytest.raises(ValueError):
            LaurentPoly(bad)


@settings(deadline=None)
@given(coeff_maps, st.integers(-6, 6), st.integers(0, 3), st.integers(0, 3))
def test_from_dense_stores_what_the_mapping_constructor_does(d, low, before, after):
    # the terms of d moved to start at t^low, as a list padded with zeros
    clean = ref_clean(d)
    first = min(clean, default=0)
    span = [clean.get(e, 0) for e in range(first, max(clean, default=-1) + 1)]
    moved = {e - first + low: c for e, c in clean.items()}
    f = LaurentPoly(moved)
    g = LaurentPoly.from_dense(low - before, [0] * before + span + [0] * after)
    assert g == f and hash(g) == hash(f) and stored(g) == moved
    assert g.dense == f.dense == ((low, tuple(span)) if clean else (0, ()))
    assert g.evaluate(-1) == sum(c if e % 2 == 0 else -c for e, c in moved.items())


@settings(deadline=None)
@given(polys, polys, st.integers(-4, 4))
def test_ring_operations_match_dict_reference(f, g, k):
    a, b = dict(f.terms()), dict(g.terms())
    assert stored(f + g) == ref_shifted_sum([(1, 0, a), (1, 0, b)])
    assert stored(f - g) == ref_shifted_sum([(1, 0, a), (-1, 0, b)])
    assert stored(-f) == ref_shifted_sum([(-1, 0, a)])
    assert stored(f * g) == ref_mul(a, b)
    assert stored(f * LaurentPoly.t(k)) == ref_shifted_sum([(1, k, a)])
    assert f - f == LaurentPoly.zero() and f + (-f) == LaurentPoly.zero()
    round_trip = (f + g) - g
    assert round_trip == f
    assert hash(round_trip) == hash(f) and poly_str(round_trip) == poly_str(f)


def ref_det(grid):
    n = len(grid)
    total = {}
    for perm in permutations(range(n)):
        inversions = sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n))
        prod = {0: 1}
        for i, j in enumerate(perm):
            prod = ref_mul(prod, dict(grid[i][j].terms()))
        total = ref_shifted_sum([(1, 0, total), (-1 if inversions % 2 else 1, 0, prod)])
    return total


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 5).flatmap(
    lambda n: st.lists(st.lists(polys, min_size=n, max_size=n), min_size=n, max_size=n)))
def test_det_matches_permutation_sum(grid):
    m = LaurentMatrix(len(grid), len(grid), tuple(tuple(row) for row in grid))
    assert stored(laurent_det(m)) == ref_det(grid)
