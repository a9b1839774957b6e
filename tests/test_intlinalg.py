import random
import re
from itertools import product
from math import gcd, prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kreps.colorings import colorability_profile
from kreps.intlinalg import (
    EnumerationCapExceeded,
    IntMatrix,
    SNFResult,
    determinantal_divisor,
    solution_columns_mod,
    int_det,
    smith_normal_form,
    solution_count_mod,
)
from kreps.oracles import enumerate_solutions_mod, matrix_mismatch, minor_gcd


def random_matrix(rng, max_dim=4, bound=9):
    rows = rng.randint(1, max_dim)
    cols = rng.randint(1, max_dim)
    return IntMatrix.from_rows(
        [[rng.randint(-bound, bound) for _ in range(cols)] for _ in range(rows)],
        cols=cols,
    )


def snf_of(rows, cols=None):
    return smith_normal_form(IntMatrix.from_rows(rows, cols=cols))


def brute_solutions(a, r):
    out = []
    for x in product(range(r), repeat=a.cols):
        if all(sum(c * v for c, v in zip(row, x)) % r == 0 for row in a.entries):
            out.append(x)
    return out


def matmul(a, b):
    return IntMatrix.from_rows(
        [[sum(x * y for x, y in zip(row, column)) for column in zip(*b.entries)] for row in a.entries], cols=b.cols
    )


def snf_holds(a, snf):
    """Whether some unimodular P has P A Q = diag(divisors): exactly when Q
    is unimodular, the columns of A Q past the rank are zero, column j
    below the rank is d_j u_j, and u_1..u_rank extend to a basis of
    Z^rows, that is, their maximal minors have gcd 1."""
    rank = snf.rank
    if snf.cols != a.cols or rank > min(a.rows, a.cols) or abs(int_det(snf.Q)) != 1:
        return False
    if any(d <= 0 for d in snf.divisors):
        return False
    columns = [list(column) for column in zip(*matmul(a, snf.Q).entries)]
    if any(x != 0 for column in columns[rank:] for x in column):
        return False
    if any(x % d for column, d in zip(columns, snf.divisors) for x in column):
        return False
    basis = [[columns[j][i] // snf.divisors[j] for j in range(rank)] for i in range(a.rows)]
    return minor_gcd(IntMatrix.from_rows(basis, cols=rank), rank) == 1


def check_snf(a):
    snf = smith_normal_form(a)
    assert snf_holds(a, snf)
    for i in range(snf.rank - 1):
        assert snf.divisors[i + 1] % snf.divisors[i] == 0
    return snf


def test_snf_check_refuses_wrong_forms(monkeypatch):
    import kreps.oracles as oracles

    identity = IntMatrix.from_rows([[1, 0], [0, 1]])
    swap = IntMatrix.from_rows([[0, 1], [1, 0]])
    wrong = (
        # a column of A Q that is not a multiple of its divisor
        (IntMatrix.from_rows([[2, 0], [0, 3]]), SNFResult((1, 6), identity)),
        # a divisor that reaches only a proper sublattice: 2 = 1 * 2, but no
        # unimodular P sends 2 to 1
        (IntMatrix.from_rows([[2]]), SNFResult((1,), IntMatrix.from_rows([[1]]))),
        (IntMatrix.from_rows([[2, 0], [0, 4]]), SNFResult((1, 4), identity)),
        # a nonzero column past the rank
        (IntMatrix.from_rows([[0, 5]]), SNFResult((), swap)),
        # a Q that is not unimodular
        (IntMatrix.from_rows([[1, 0], [0, 1]]), SNFResult((1, 1), IntMatrix.from_rows([[1, 0], [0, 2]]))),
        # a negative divisor and a rank above the shape
        (IntMatrix.from_rows([[1]]), SNFResult((-1,), IntMatrix.from_rows([[-1]]))),
        (IntMatrix.from_rows([[1]]), SNFResult((1, 1), IntMatrix.from_rows([[1]]))),
    )
    for a, fake in wrong:
        assert smith_normal_form(a) != fake
        assert not snf_holds(a, fake), a.entries
        monkeypatch.setattr(oracles, "smith_normal_form", lambda m, fake=fake: fake)
        assert oracles.matrix_mismatch(a, ()) is not None, a.entries
    # the same column transforms with the divisors they do give pass
    for a, snf in (
        (IntMatrix.from_rows([[2, 0], [0, 4]]), SNFResult((2, 4), identity)),
        (IntMatrix.from_rows([[0, 5]]), SNFResult((5,), swap)),
    ):
        assert snf_holds(a, snf)
        monkeypatch.setattr(oracles, "smith_normal_form", lambda m, snf=snf: snf)
        assert oracles.matrix_mismatch(a, ()) is None


def test_snf_examples():
    snf = check_snf(IntMatrix.from_rows([[2, 0], [0, 3]]))
    assert snf.divisors == (1, 6)
    # non-unit pivots that divide nothing else, and a zero row and column
    assert check_snf(IntMatrix.from_rows([[2, 0, 0], [0, 0, 0], [0, 0, 3]])).divisors == (1, 6)
    assert check_snf(IntMatrix.from_rows([[4, 6], [6, 9], [2, 3]])).divisors == (1,)
    assert check_snf(IntMatrix.from_rows([[2, 4], [6, 8]])).divisors == (2, 4)

    snf = check_snf(IntMatrix.from_rows([[0, 0, 0], [0, 0, 0]], cols=3))
    assert snf.divisors == ()
    assert snf.rank == 0

    snf = check_snf(IntMatrix.from_rows([[3]]))
    assert snf.divisors == (3,)


def test_snf_is_deterministic():
    a = IntMatrix.from_rows([[6, 4, 2], [2, 8, 4]])
    first = smith_normal_form(a)
    second = smith_normal_form(a)
    assert first == second


def test_determinantal_divisor_examples():
    assert determinantal_divisor(snf_of([[2, 0], [0, 3]]), 2) == 6
    assert determinantal_divisor(snf_of([[2, 0], [0, 4]]), 1) == 2
    assert determinantal_divisor(snf_of([[2, 0], [0, 4]]), 0) == 1
    # more columns than rows: there are no 2-minors, so their gcd is 0
    assert determinantal_divisor(snf_of([[1, 0, 0]]), 2) == 0
    with pytest.raises(ValueError):
        determinantal_divisor(snf_of([[1]]), 2)


def test_divisors_match_brute_minors():
    rng = random.Random(20)
    for _ in range(100):
        a = random_matrix(rng, 3, 6)
        for k in range(min(a.rows, a.cols) + 1):
            assert determinantal_divisor(smith_normal_form(a), k) == minor_gcd(a, k)


def test_solution_count_examples():
    assert solution_count_mod(snf_of([[3]]), 3) == 3
    assert solution_count_mod(snf_of([[0, 0]]), 5) == 25
    assert solution_count_mod(snf_of([[1, 0], [0, 1]]), 7) == 1
    with pytest.raises(ValueError):
        solution_count_mod(snf_of([[1]]), 1)


def test_enumeration_examples():
    assert sorted(enumerate_solutions_mod(snf_of([[3]]), 3)) == [(0,), (1,), (2,)]
    assert sorted(enumerate_solutions_mod(snf_of([[2]]), 4)) == [(0,), (2,)]
    sols = enumerate_solutions_mod(snf_of([[1, 2], [2, 4]]), 6)
    assert (0, 0) in sols
    assert len(sols) == len(set(sols)) == solution_count_mod(snf_of([[1, 2], [2, 4]]), 6)


def test_solution_columns_are_the_enumeration_by_coordinate(monkeypatch):
    rng = random.Random(24)
    for _ in range(60):
        snf = smith_normal_form(random_matrix(rng, 3, 9))
        r = rng.randint(2, 12)
        columns = solution_columns_mod(snf, r)
        assert len(columns) == snf.cols
        assert list(zip(*columns)) == enumerate_solutions_mod(snf, r)
    empty = snf_of([[]], cols=0)
    assert solution_columns_mod(empty, 5) == []
    assert enumerate_solutions_mod(empty, 5) == [()]
    # a first generator of order 1 leaves the zero solution
    assert solution_columns_mod(snf_of([[1, 0], [0, 1]]), 7) == [[0], [0]]
    monkeypatch.setenv("KREPS_ENUM_CAP", "10")
    with pytest.raises(EnumerationCapExceeded):
        solution_columns_mod(snf_of([[0, 0, 0, 0]], cols=4), 100)


def test_enumeration_cap(monkeypatch):
    zero = snf_of([[0, 0, 0, 0]], cols=4)
    monkeypatch.setenv("KREPS_ENUM_CAP", "10")
    with pytest.raises(EnumerationCapExceeded):
        enumerate_solutions_mod(zero, 100)


def test_cap_message_gives_a_large_count_by_its_digits(monkeypatch):
    from kreps.intlinalg import _count_text

    for count in (0, 7, 10**20 - 1):
        assert _count_text(count, "solutions") == f"{count} solutions"
    for digits in (21, 22, 1046, 4300, 5000):
        for count in (10 ** (digits - 1), 10**digits - 1, 3 * 10 ** (digits - 1) + 1):
            assert _count_text(count, "solutions") == f"a {digits:,}-digit number of solutions", count
    monkeypatch.setenv("KREPS_ENUM_CAP", "10")
    with pytest.raises(EnumerationCapExceeded, match="a 61-digit number of solutions exceed the cap of 10"):
        enumerate_solutions_mod(snf_of([[0, 0, 0]], cols=3), 10**20)


def test_enumeration_cap_env(monkeypatch):
    zero = snf_of([[0, 0]], cols=2)
    monkeypatch.setenv("KREPS_ENUM_CAP", "3")
    with pytest.raises(EnumerationCapExceeded):
        enumerate_solutions_mod(zero, 2)
    monkeypatch.setenv("KREPS_ENUM_CAP", "1000")
    assert len(enumerate_solutions_mod(zero, 2)) == 4
    monkeypatch.setenv("KREPS_ENUM_CAP", "0")
    with pytest.raises(EnumerationCapExceeded):
        enumerate_solutions_mod(zero, 2)


@pytest.mark.parametrize("value", ["abc", "1e6", "-1", "", " 5", "+5", "1_000", "4.0", "\u0663"])
def test_enumeration_cap_env_refuses_all_but_decimal_digits(monkeypatch, value):
    monkeypatch.setenv("KREPS_ENUM_CAP", value)
    message = f"^KREPS_ENUM_CAP must be a non-negative decimal integer, not {re.escape(repr(value))}$"
    with pytest.raises(ValueError, match=message):
        enumerate_solutions_mod(snf_of([[0, 0]], cols=2), 2)


def test_random_battery_counts_and_enumeration():
    rng = random.Random(21)
    for _ in range(120):
        a = random_matrix(rng, 3, 9)
        r = rng.randint(2, 12)
        brute = brute_solutions(a, r)
        snf = smith_normal_form(a)
        assert solution_count_mod(snf, r) == len(brute)
        assert sorted(enumerate_solutions_mod(snf, r)) == sorted(brute)


def unimodular(rng, n):
    """A random product of elementary integer row operations."""
    m = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(3 * n):
        i, j = rng.sample(range(n), 2) if n > 1 else (0, 0)
        if i != j:
            f = rng.randint(-2, 2)
            m[i] = [x + f * y for x, y in zip(m[i], m[j])]
    return IntMatrix.from_rows(m, cols=n)


def test_enumeration_matches_brute_force_on_non_cyclic_groups():
    # A = U diag(d) V has divisors d, so the solutions modulo r form
    # a sum of cyclic groups of orders gcd(d_i, r), plus r for each
    # zero (free) column; the moduli share only some factors with d
    rng = random.Random(23)
    shapes = [(3, 3), (3, 9), (2, 6), (1, 3, 3), (3, 3, 0), (5, 0), (2, 4, 0, 0), (9,)]
    non_cyclic = 0
    for _ in range(60):
        d = rng.choice(shapes)
        rows = len(d) + rng.randint(0, 1)
        diag = IntMatrix.from_rows(
            [[d[i] if i == j else 0 for j in range(len(d))] for i in range(rows)], cols=len(d)
        )
        a = matmul(matmul(unimodular(rng, rows), diag), unimodular(rng, len(d)))
        r = rng.choice([2, 3, 4, 6, 9, 10, 12])
        snf = smith_normal_form(a)
        enumerated = enumerate_solutions_mod(snf, r)
        assert len(enumerated) == len(set(enumerated)) == solution_count_mod(snf, r)
        assert sorted(enumerated) == sorted(brute_solutions(a, r)), (a.entries, r)
        # the profile reads every r at once from the same divisors
        assert colorability_profile(snf, 13) == [(r, solution_count_mod(snf, r)) for r in range(2, 14)]
        orders = [gcd(x, r) for x in d]
        non_cyclic += sum(g > 1 for g in orders) >= 2
    assert non_cyclic >= 10


def test_random_battery_snf():
    rng = random.Random(22)
    for _ in range(150):
        check_snf(random_matrix(rng))


@st.composite
def snf_matrices(draw):
    """A matrix with 0-6 rows and 1-6 columns, entries from a pool that is
    sometimes free of units (so every pivot is 2 or more), and sometimes a
    zero row and a zero column."""
    rows, cols = draw(st.integers(0, 6)), draw(st.integers(1, 6))
    pool = draw(st.sampled_from([range(-3, 4), (0, 0, 2, -2, 3, -3, 4, 6, -6, 9)]))
    grid = [[draw(st.sampled_from(pool)) for _ in range(cols)] for _ in range(rows)]
    if rows and draw(st.booleans()):
        grid[draw(st.integers(0, rows - 1))] = [0] * cols
        j = draw(st.integers(0, cols - 1))
        for row in grid:
            row[j] = 0
    return IntMatrix.from_rows(grid, cols=cols)


@settings(max_examples=200, deadline=None)
@given(snf_matrices())
def test_snf_passes_the_matrix_oracle(a):
    assert matrix_mismatch(a, (2, 3, 4, 6)) is None, a.entries


def test_int_det_matches_permutation_expansion():
    rng = random.Random(23)
    for _ in range(50):
        n = rng.randint(1, 3)
        grid = [[rng.randint(-5, 5) for _ in range(n)] for _ in range(n)]
        m = IntMatrix.from_rows(grid)

        def expand(rows, cols):
            if not rows:
                return 1
            total = 0
            i = rows[0]
            for pos, j in enumerate(cols):
                sub = expand(rows[1:], cols[:pos] + cols[pos + 1 :])
                term = grid[i][j] * sub
                total += term if pos % 2 == 0 else -term
            return total

        assert int_det(m) == expand(tuple(range(n)), tuple(range(n)))


def test_divisor_products_from_snf():
    a = IntMatrix.from_rows([[2, 4, 4], [-6, 6, 12], [10, 4, 16]])
    snf = check_snf(a)
    for k in range(1, snf.rank + 1):
        assert determinantal_divisor(snf, k) == prod(snf.divisors[:k])
