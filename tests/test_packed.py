"""The packed-integer kernel of the Burau rules: Laurent polynomials kept
as their values at t = 2^k, checked against the Laurent-polynomial routes."""

import contextlib
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import kreps.presentations as presentations
from kreps.braids import (
    BraidWord,
    closure_component_count,
    full_twist,
    parse_braid,
)
from kreps.intlinalg import IntMatrix, smith_normal_form
from kreps.laurent import LaurentMatrix, LaurentPoly, normalize_unit
from kreps.oracles import (
    LONG_WORDS,
    enumerate_solutions_mod,
    exact_div,
    laurent_det,
    laurent_minor_gcd,
    random_knot_braid,
)
from kreps.presentations import (
    _burau_columns,
    _jacobian_rows,
    _minus_identity,
    _pack,
    _packed_int_det,
    _unpack,
    _width,
    alexander_matrix,
    alexander_poly,
    burau_alexander,
    coloring_form,
    knot_poly,
)

t = LaurentPoly.t()
one = LaurentPoly.one()


def unpacked(packed):
    """The vectors of a packed (k, values, power, bounds) as Laurent
    polynomials, after checking that each bound covers its vector's norm and
    stays within 2^(k-2), which the letter rules keep."""
    k, vectors, power, bounds = packed
    out = []
    for vec, bound in zip(vectors, bounds):
        polys = [LaurentPoly.from_dense(-power, _unpack(v, k)) for v in vec]
        assert sum(abs(c) for f in polys for c in f.dense[1]) <= bound <= 1 << (k - 2)
        out.append(polys)
    return out


def words(max_strands, max_len):
    return st.integers(2, max_strands).flatmap(
        lambda n: st.lists(
            st.integers(1, n - 1).flatmap(lambda g: st.sampled_from((g, -g))), max_size=max_len
        ).map(lambda letters: BraidWord(n, tuple(letters)))
    )


@contextlib.contextmanager
def headroom(narrow):
    """A narrow headroom re-sizes every few letters, at widths close to the
    norms."""
    with pytest.MonkeyPatch.context() as mp:
        if narrow:
            mp.setattr(presentations, "_HEADROOM", 8)
        yield


# -- packing ---------------------------------------------------------------


@settings(deadline=None)
@given(
    st.integers(1, 10).flatmap(
        lambda step: st.tuples(
            st.just(8 * step),
            st.lists(st.integers(-(1 << (8 * step - 1)), (1 << (8 * step - 1)) - 1), max_size=10),
            st.integers(-6, 6),
        )
    )
)
def test_pack_and_unpack_give_the_polynomial_back(case):
    k, cs, power = case
    f = LaurentPoly({e - power: c for e, c in enumerate(cs)})
    v = _pack(cs, k)
    assert v == sum(c * 2 ** (k * e) for e, c in enumerate(cs))
    assert LaurentPoly.from_dense(-power, _unpack(v, k)) == f
    while cs and not cs[-1]:
        cs.pop()
    assert _unpack(v, k) == cs


def test_pack_edge_digits():
    for k in (8, 16, 72):
        low, high = -(1 << (k - 1)), (1 << (k - 1)) - 1
        for cs in ([], [0], [low], [high], [0, 0, low], [high, low, high], [low, 0, 0, -1]):
            trimmed = list(cs)
            while trimmed and not trimmed[-1]:
                trimmed.pop()
            assert _unpack(_pack(cs, k), k) == trimmed, (k, cs)


def test_width_is_the_least_byte_multiple_above_the_bound():
    for k in (8, 16, 72, 136):
        assert _width((1 << (k - 2)) - 1) == k
        assert _width(1 << (k - 2)) == k + 8
    assert _width(0) == _width(1) == 8


# -- the letter rules ------------------------------------------------------------


def laurent_jacobian_rows(word):
    """The rows of J(word) by the Laurent rule of ``alexander_matrix``."""
    n = word.strands
    zero = LaurentPoly.zero()
    rows = [[one if i == j else zero for j in range(n)] for i in range(n)]
    for letter in word.letters:
        i = abs(letter) - 1
        top, bottom = rows[i], rows[i + 1]
        if letter > 0:
            # (1-t) x + t y
            rows[i] = [x + (y - x) * t for x, y in zip(top, bottom)]
            rows[i + 1] = top
        else:
            # t^-1 x + (1-t^-1) y
            rows[i] = bottom
            rows[i + 1] = [y + (x - y) * LaurentPoly.t(-1) for x, y in zip(top, bottom)]
    return rows


def laurent_alexander_matrix(*braids):
    """The nonzero rows of I - J(w) for each w, by the Laurent rule."""
    rows = []
    for word in braids:
        for i, row in enumerate(laurent_jacobian_rows(word)):
            relator = [(one if i == j else LaurentPoly.zero()) - x for j, x in enumerate(row)]
            if any(relator):
                rows.append(tuple(relator))
    return LaurentMatrix.from_rows(rows, cols=braids[0].strands)


@settings(max_examples=80, deadline=None)
@given(words(5, 30), st.booleans())
def test_packed_rows_and_alexander_matrix_match_the_laurent_rule_after_every_letter(word, narrow):
    with headroom(narrow):
        for end in range(len(word.letters) + 1):
            prefix = BraidWord(word.strands, word.letters[:end])
            assert unpacked(_jacobian_rows(prefix)) == laurent_jacobian_rows(prefix), prefix
            assert alexander_matrix(prefix) == laurent_alexander_matrix(prefix), prefix


def test_alexander_matrix_matches_the_laurent_rule_on_words_that_resize():
    initial = _width(1) + presentations._HEADROOM
    # Delta^800, the full twist being Delta^2
    pair = (parse_braid("1 2", 3), full_twist(3) ** 400)
    knots = [parse_braid(text, strands) for text, strands in LONG_WORDS]
    for braids in [pair] + [(a,) for a in knots]:
        assert max(_jacobian_rows(w)[0] for w in braids) > initial, braids
        assert alexander_matrix(*braids) == laurent_alexander_matrix(*braids), braids
    m = alexander_matrix(*pair)
    assert alexander_poly(m) == laurent_minor_gcd(m, m.cols - 1)


def laurent_burau_columns(word):
    """The reduced Burau columns by the Laurent rule of ``burau_alexander``."""
    size = word.strands - 1
    zero = LaurentPoly.zero()
    cols = [[one if i == j else zero for i in range(size)] for j in range(size)]
    for letter in word.letters:
        k = abs(letter) - 1
        lower = cols[k - 1] if k > 0 else [zero] * size
        upper = cols[k + 1] if k + 1 < size else [zero] * size
        if letter > 0:
            cols[k] = [-(t * x) + t * y + z for x, y, z in zip(cols[k], lower, upper)]
        else:
            inv = LaurentPoly.t(-1)
            cols[k] = [-(inv * x) + y + inv * z for x, y, z in zip(cols[k], lower, upper)]
    return cols


@settings(max_examples=80, deadline=None)
@given(words(6, 30), st.booleans())
def test_packed_columns_match_the_laurent_rule_after_every_letter(word, narrow):
    with headroom(narrow):
        for end in range(len(word.letters) + 1):
            prefix = BraidWord(word.strands, word.letters[:end])
            assert unpacked(_burau_columns(prefix)) == laurent_burau_columns(prefix), prefix


# -- determinants ------------------------------------------------------------------


def _dense(f):
    low, cs = f.dense
    return [0] * low + list(cs)


def packed_det(rows, powers, bounds, k):
    """The determinant of packed rows, row i carrying t^-powers[i], as a
    Laurent polynomial: ``_packed_int_det`` unpacked at the width it gives."""
    det, k = _packed_int_det(rows, bounds, k)
    return LaurentPoly.from_dense(-sum(powers), _unpack(det, k))

small_polys = st.dictionaries(st.integers(-3, 3), st.integers(-40, 40), max_size=3).map(LaurentPoly)
square_grids = st.integers(0, 4).flatmap(
    lambda n: st.lists(st.lists(small_polys, min_size=n, max_size=n), min_size=n, max_size=n)
)


@settings(max_examples=150, deadline=None)
@given(square_grids)
def test_packed_det_matches_laurent_det_with_tight_bounds(grid):
    # each bound is the row's exact norm, the least valid one
    n = len(grid)
    powers = [max((-f.dense[0] for f in row if f), default=0) for row in grid]
    bounds = [sum(abs(c) for f in row for c in f.dense[1]) for row in grid]
    k = _width(max(bounds, default=1))
    rows = [[_pack(_dense(f * LaurentPoly.t(p)), k) for f in row] for row, p in zip(grid, powers)]
    expected = laurent_det(LaurentMatrix(n, n, tuple(map(tuple, grid))))
    assert packed_det(rows, powers, bounds, k) == expected


def test_packed_det_of_monomials_reaches_the_bound():
    # a diagonal of monomials makes the determinant reach the product of the bounds
    c = (1 << 40) - 1
    for size in (1, 2, 3):
        diagonal = [LaurentPoly.term(-c if i == 0 else c, i) for i in range(size)]
        k = _width(c)
        rows = [[_pack(_dense(f), k) if i == j else 0 for j in range(size)]
                for i, f in enumerate(diagonal)]
        expected = LaurentPoly.term(-(c**size), size * (size - 1) // 2)
        assert packed_det(rows, [0] * size, [c] * size, k) == expected


# -- the packed routes on long words ------------------------------------------------


def assert_form_reads_the_full_matrix(form, m):
    """What reports read from the form, its divisors and its base-pinned
    solutions modulo r, against the whole of M(-1)."""
    full = smith_normal_form(IntMatrix.from_rows(m.evaluate(-1), cols=m.cols))
    assert (form.cols, form.divisors) == (m.cols - 1, full.divisors)
    for r in range(2, 21):
        pinned = [sol[:-1] for sol in enumerate_solutions_mod(full, r) if not sol[-1]]
        assert sorted(enumerate_solutions_mod(form, r)) == sorted(pinned), r


def laurent_minor(a):
    m = alexander_matrix(a)
    base_free = [row[:-1] for row in m.entries[: m.cols - 1]]
    return normalize_unit(laurent_det(LaurentMatrix.from_rows(base_free, cols=m.cols - 1)))


def resizes(a):
    initial = _width(1) + presentations._HEADROOM
    return _jacobian_rows(a)[0] > initial and (a.strands == 2 or _burau_columns(a)[0] > initial)


def random_knot_word(rng, strands, length):
    # an n-cycle has sign (-1)^(n-1), so the length must have that parity
    assert (length - strands + 1) % 2 == 0
    while True:
        letters = tuple(rng.choice((1, -1)) * rng.randint(1, strands - 1) for _ in range(length))
        word = BraidWord(strands, letters)
        if closure_component_count(word) == 1:
            return word


def long_knot_words():
    """Knot words that re-size the packed rules at the default headroom (on
    two strands the one reduced Burau entry is a monomial, which never does)."""
    rng = random.Random(44)
    out = [parse_braid("1^401", 2), parse_braid("-1^401", 2), parse_braid(" ".join(["1 -2"] * 100), 3)]
    out += [random_knot_word(rng, 3, 150) for _ in range(4)]
    out += [random_knot_word(rng, 6, 201) for _ in range(2)]
    out += [random_knot_word(rng, 4, 201)]
    return out


def test_packed_routes_match_the_laurent_minor_on_long_words():
    for a in long_knot_words():
        assert resizes(a), a
        expected = laurent_minor(a)
        assert knot_poly(a) == expected, a
        assert burau_alexander(a) == expected, a
        assert_form_reads_the_full_matrix(coloring_form(a), alexander_matrix(a))


def test_packed_routes_match_the_laurent_minor_with_narrow_headroom():
    rng = random.Random(45)
    short = [random_knot_braid(rng, 6, 40) for _ in range(40)]
    # 81 letters re-size 6-strand words only at a narrow headroom
    long = [random_knot_word(rng, 6, 81) for _ in range(6)]
    with headroom(narrow=True):
        assert all(resizes(a) for a in long)
        for a in short + long:
            expected = laurent_minor(a)
            assert knot_poly(a) == expected, a
            assert burau_alexander(a) == expected, a


# -- the Burau division ------------------------------------------------------------


def laurent_burau_alexander(a):
    """det(I - B) (1 - t) / (1 - t^n), normalized, by the Laurent rule and
    ``exact_div``."""
    n = a.strands
    cols = laurent_burau_columns(a)
    grid = [[(one if i == j else LaurentPoly.zero()) - cols[j][i] for j in range(n - 1)]
            for i in range(n - 1)]
    char = laurent_det(LaurentMatrix(n - 1, n - 1, tuple(map(tuple, grid))))
    return normalize_unit(exact_div(char * (one - t), one - LaurentPoly.t(n)))


knot_words = words(7, 24).filter(lambda a: closure_component_count(a) == 1)


@settings(max_examples=150, deadline=None)
@given(knot_words, st.booleans())
def test_burau_division_matches_the_laurent_rule(a, narrow):
    with headroom(narrow):
        assert burau_alexander(a) == laurent_burau_alexander(a), a


def test_burau_division_matches_the_laurent_rule_on_words_that_resize():
    for text, strands in LONG_WORDS:
        a = parse_braid(text, strands)
        assert burau_alexander(a) == laurent_burau_alexander(a), a


@settings(max_examples=300, deadline=None)
@given(
    st.integers(2, 6),
    st.lists(st.integers(-60, 60), max_size=10),
    st.booleans(),
    st.integers(0, 3),
)
def test_burau_division_raises_exactly_when_the_laurent_division_does(n, cs, divisible, power):
    # a polynomial as det(I - B), with the width the determinant would get;
    # the division is exact when it is a multiple of 1 + t + ... + t^(n-1)
    if divisible:
        cs = [sum(cs[e - i] for i in range(n) if 0 <= e - i < len(cs)) for e in range(len(cs) + n - 1)]
    c = LaurentPoly({e - power: v for e, v in enumerate(cs)})
    k = _width(max(sum(map(abs, cs)), 1))
    knot = BraidWord(n, tuple(range(1, n)))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(presentations, "_packed_int_det", lambda cols, bounds, width: (_pack(cs, k), k))
        mp.setattr(presentations, "_minus_identity", lambda packed: (8, [], [power], []))
        try:
            expected = normalize_unit(exact_div(c * (one - t), one - LaurentPoly.t(n)))
        except ValueError:
            with pytest.raises(ValueError):
                burau_alexander(knot)
        else:
            assert burau_alexander(knot) == expected
