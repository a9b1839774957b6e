import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kreps.braids import (
    MAX_BRAID_LETTERS,
    BraidWord,
    _dynnikov,
    braids_commute,
    closure_component_count,
    full_twist,
    is_odd_prime,
    parse_braid,
    prime_twist_family,
)
from kreps.oracles import FreeWord, artin_act, free_words_commute, random_knot_braid


def random_braid(rng, max_strands=4, max_len=8, min_len=0):
    n = rng.randint(2, max_strands)
    length = rng.randint(min_len, max_len)
    letters = tuple(rng.choice((1, -1)) * rng.randint(1, n - 1) for _ in range(length))
    return BraidWord(n, letters)


def random_word(rng, rank, max_len=6):
    letters = tuple(
        rng.choice((1, -1)) * rng.randint(1, rank) for _ in range(rng.randint(0, max_len))
    )
    return FreeWord(rank, letters)


# -- parsing ------------------------------------------------------------


def test_parse_expands_runs():
    assert parse_braid("1 1 1", 2) == parse_braid("1^3", 2)
    # \d matches every Unicode decimal digit, as the plain-token path must
    assert parse_braid("+1^2 \u0661 -\u0661^\u0662", 2).letters == (1, 1, 1, -1, -1)
    assert parse_braid("1^3", 2).letters == (1, 1, 1)
    assert parse_braid("1 -2 1^2", 3).letters == (1, -2, 1, 1)


def test_parse_empty_is_identity():
    assert parse_braid("", 3) == BraidWord.identity(3)
    assert parse_braid("   ", 3).letters == ()


def test_parse_rejects_bad_tokens():
    with pytest.raises(ValueError):
        parse_braid("3", 3)  # generators of B_3 are 1..2
    with pytest.raises(ValueError, match="out of range"):
        parse_braid("-0", 2)
    # int() reads "1_0" as 10 and str.isdigit() accepts "²", but neither is a token
    for token in ("1_0", "1\u00b2", "+-1", "1^", "^2", "1^2^3", "1^+2"):
        with pytest.raises(ValueError, match="malformed"):
            parse_braid(token, 12)
    with pytest.raises(ValueError):
        parse_braid("0", 2)
    with pytest.raises(ValueError):
        parse_braid("1^0", 2)
    with pytest.raises(ValueError):
        parse_braid("1^-2", 2)
    with pytest.raises(ValueError):
        parse_braid("sigma", 2)


def test_is_odd_prime_matches_trial_division():
    def trial(p):
        return p > 2 and p % 2 == 1 and all(p % d for d in range(3, int(p**0.5) + 1, 2))

    assert [p for p in range(20_000) if is_odd_prime(p)] == [p for p in range(20_000) if trial(p)]
    # strong pseudoprimes to the first prime bases; the last passes bases 2
    # to 37, and only base 41 catches it
    for n in (2047, 1373653, 25326001, 3215031751, 2152302898747, 3474749660383,
              341550071728321, 3825123056546413051, 318665857834031151167461):
        assert not is_odd_prime(n), n
    # at and past the bound below which the 13 bases prove primality
    assert not is_odd_prime(3317044064679887385961981)
    assert not is_odd_prime(2**89 - 1)


def test_parse_bounds_run_expansion():
    # the bound is checked before a run is expanded, so a huge exponent
    # fails at once instead of allocating its letters
    assert len(parse_braid(f"1^{MAX_BRAID_LETTERS}", 2).letters) == MAX_BRAID_LETTERS
    for text in ("1^1000000000", f"1 -1^{MAX_BRAID_LETTERS}", f"1^{MAX_BRAID_LETTERS} 1"):
        with pytest.raises(ValueError, match="exceeds"):
            parse_braid(text, 2)


def test_parse_bounds_strand_count():
    # a knot closure on n strands needs n - 1 letters, so no word within
    # the letter cap can close to a knot on more strands than this
    assert parse_braid("", MAX_BRAID_LETTERS + 1).strands == MAX_BRAID_LETTERS + 1
    with pytest.raises(ValueError, match="strands"):
        parse_braid("", MAX_BRAID_LETTERS + 2)


@st.composite
def braid_tokens(draw):
    """A token [sign]index[^exp][junk] and the letters it stands for, or
    None where parse_braid must reject it."""
    sign = draw(st.sampled_from(["", "+", "-"]))
    index = draw(st.integers(0, 7))
    exp = draw(st.one_of(st.none(), st.integers(-2, 9)))
    junk = draw(st.sampled_from(["", "", "", "x", "^", "^^2", ".", "1-", "_0", "\u00b2"]))
    # the index in ASCII or in Arabic-Indic digits, which \d also matches
    digits = draw(st.sampled_from(["0123456789", "\u0660\u0661\u0662\u0663\u0664\u0665\u0666\u0667\u0668\u0669"]))
    text = f"{sign}{digits[index]}" + ("" if exp is None else f"^{exp}") + junk
    if junk or (exp is not None and exp < 1):
        return text, None
    return text, [-index if sign == "-" else index] * (1 if exp is None else exp)


@settings(deadline=None)
@given(
    st.integers(-1, 6),
    st.lists(st.tuples(braid_tokens(), st.sampled_from([" ", "  ", "\t", "\n"])), max_size=6),
)
def test_parse_braid_matches_a_token_reference(strands, tokens):
    text = "".join(token + space for (token, _), space in tokens)
    meanings = [meaning for (_, meaning), _ in tokens]
    letters = [x for meaning in meanings if meaning is not None for x in meaning]
    valid = (
        strands >= 1
        and None not in meanings
        and all(1 <= abs(x) <= strands - 1 for x in letters)
    )
    if valid:
        assert parse_braid(text, strands) == BraidWord(strands, tuple(letters))
    else:
        with pytest.raises(ValueError):
            parse_braid(text, strands)


# -- closure components ------------------------------------------------------


def random_braid_on(rng, n, max_len=6):
    length = rng.randint(0, max_len)
    return BraidWord(n, tuple(rng.choice((1, -1)) * rng.randint(1, n - 1) for _ in range(length)))


def letter_permutation_cycles(a):
    """The cycles of the closure permutation, each letter swapping two
    slots: an independent reference for the component count."""
    image = list(range(a.strands))
    for letter in a.letters:
        i = abs(letter) - 1
        image[i], image[i + 1] = image[i + 1], image[i]
    cycles, seen = 0, set()
    for start in range(a.strands):
        if start not in seen:
            cycles += 1
            at = start
            while at not in seen:
                seen.add(at)
                at = image[at]
    return cycles


def test_component_counts():
    assert closure_component_count(parse_braid("1^3", 2)) == 1
    assert closure_component_count(BraidWord.identity(3)) == 3
    assert closure_component_count(parse_braid("1^2", 2)) == 2


@settings(max_examples=300, deadline=None)
@given(
    st.integers(1, 9).flatmap(
        lambda n: st.lists(
            st.integers(1, max(n - 1, 1)).flatmap(lambda g: st.sampled_from((g, -g))),
            max_size=20 if n > 1 else 0,
        ).map(lambda letters: BraidWord(n, tuple(letters)))
    )
)
def test_component_count_is_the_cycle_count_of_the_permutation(a):
    assert closure_component_count(a) == letter_permutation_cycles(a)


# -- the free-group action, an oracle ----------------------------------------


def test_generator_action_images():
    t1 = FreeWord.generator(2, 1)
    t2 = FreeWord.generator(2, 2)
    assert artin_act(parse_braid("1", 2), t1).letters == (1, 2, -1)
    assert artin_act(parse_braid("1", 2), t2).letters == (1,)
    assert artin_act(parse_braid("-1", 2), t1).letters == (2,)
    assert artin_act(parse_braid("-1", 2), t2).letters == (-2, 1, 2)


def test_inverse_braid_undoes_action():
    rng = random.Random(5)
    for _ in range(30):
        a = random_braid(rng, min_len=1)
        w = random_word(rng, a.strands)
        assert artin_act(a * a.inverse(), w) == w
        assert artin_act(a.inverse(), artin_act(a, w)) == w


def test_action_is_homomorphic_on_words():
    rng = random.Random(6)
    for _ in range(30):
        a = random_braid(rng, min_len=1)
        u = random_word(rng, a.strands)
        v = random_word(rng, a.strands)
        assert artin_act(a, u * v) == artin_act(a, u) * artin_act(a, v)
        assert artin_act(a, u.inverse()) == artin_act(a, u).inverse()


def exponent_sum(w):
    return sum(1 if x > 0 else -1 for x in w.letters)


def test_action_preserves_exponent_sum():
    rng = random.Random(7)
    for _ in range(40):
        a = random_braid(rng, min_len=1)
        w = random_word(rng, a.strands)
        assert exponent_sum(artin_act(a, w)) == exponent_sum(w)


def test_braid_relations_under_action():
    for n in (3, 4):
        for i in range(1, n - 1):
            lhs = BraidWord(n, (i, i + 1, i))
            rhs = BraidWord(n, (i + 1, i, i + 1))
            for j in range(1, n + 1):
                gen = FreeWord.generator(n, j)
                assert artin_act(lhs, gen) == artin_act(rhs, gen)
    # distant generators commute
    for j in range(1, 5):
        gen = FreeWord.generator(4, j)
        assert artin_act(BraidWord(4, (1, 3)), gen) == artin_act(BraidWord(4, (3, 1)), gen)


def test_action_composition_order():
    rng = random.Random(8)
    for _ in range(30):
        n = rng.randint(2, 4)
        a = random_braid_on(rng, n, 5)
        b = random_braid_on(rng, n, 5)
        w = random_word(rng, n)
        assert artin_act(a * b, w) == artin_act(a, artin_act(b, w))


def test_action_rank_mismatch():
    with pytest.raises(ValueError):
        artin_act(parse_braid("1", 2), FreeWord.generator(3, 1))


# -- commutation -----------------------------------------------------------


def test_random_knot_braids_are_seeded_knots():
    draws = [random_knot_braid(random.Random(5), 4, 8) for _ in range(2)]
    assert draws[0] == draws[1]
    rng = random.Random(6)
    for _ in range(50):
        a = random_knot_braid(rng, 3, 5)
        assert 2 <= a.strands <= 3 and 1 <= len(a) <= 5
        assert closure_component_count(a) == 1


def test_braid_commutes_with_itself():
    rng = random.Random(9)
    for _ in range(10):
        a = random_braid(rng)
        assert braids_commute(a, a)


def test_adjacent_generators_do_not_commute():
    assert not braids_commute(parse_braid("1", 3), parse_braid("2", 3))


def test_full_twist_is_central():
    rng = random.Random(10)
    for _ in range(20):
        a = random_braid(rng)
        assert braids_commute(a, full_twist(a.strands))


@st.composite
def equal_words(draw):
    """Two words of one braid: a random word with, at one place, one side
    of a relation inserted into the first and the other side into the
    second.  The relations are a letter and its inverse against nothing,
    the braid relation and the far commutation, each with either sign."""
    n = draw(st.integers(2, 6))
    letter = st.integers(1, n - 1).flatmap(lambda g: st.sampled_from((g, -g)))
    word = draw(st.lists(letter, max_size=12))
    at = draw(st.integers(0, len(word)))
    i = draw(st.integers(1, n - 1))
    s = draw(st.sampled_from((1, -1)))
    kinds = ["inverse"] + ["braid"] * (n > 2) + ["far"] * (n > 3)
    kind = draw(st.sampled_from(kinds))
    if kind == "inverse":
        lhs, rhs = (s * i, -s * i), ()
    elif kind == "braid":
        i = min(i, n - 2)
        lhs, rhs = (s * i, s * (i + 1), s * i), (s * (i + 1), s * i, s * (i + 1))
    else:
        i = min(i, n - 3)
        j = draw(st.integers(i + 2, n - 1))
        t = draw(st.sampled_from((1, -1)))
        lhs, rhs = (s * i, t * j), (t * j, s * i)
    return BraidWord(n, (*word[:at], *lhs, *word[at:])), BraidWord(n, (*word[:at], *rhs, *word[at:]))


@settings(max_examples=500, deadline=None)
@given(equal_words())
def test_equal_words_have_equal_dynnikov_coordinates(pair):
    assert _dynnikov(pair[0]) == _dynnikov(pair[1])


def half_twist(n):
    """The Garside braid (s_1 ... s_{n-1})(s_1 ... s_{n-2}) ... (s_1),
    whose square is the full twist and which conjugates s_i to s_{n-i}."""
    return BraidWord(n, tuple(g for top in range(n - 1, 0, -1) for g in range(1, top + 1)))


def test_dynnikov_coordinates_tell_apart_braids_the_free_group_tells_apart():
    for n in range(2, 6):
        identity = _dynnikov(BraidWord.identity(n))
        assert identity == (0, 1) * n
        # the full twist is central but not trivial
        assert _dynnikov(full_twist(n)) != identity
        assert _dynnikov(half_twist(n) ** 2) == _dynnikov(full_twist(n))
        for i in range(1, n):
            assert _dynnikov(BraidWord(n, (i,))) != identity
            assert _dynnikov(BraidWord(n, (i,))) != _dynnikov(BraidWord(n, (-i,)))


def test_commutation_matches_the_free_word_oracle_on_seeded_pairs():
    rng = random.Random(13)
    kinds = {True: 0, False: 0}
    for trial in range(240):
        a = random_braid(rng, max_strands=4, max_len=4, min_len=1)
        n = a.strands
        kind = trial % 4
        if kind == 0:
            b, a = a ** rng.randint(-3, 3), a ** rng.randint(1, 2)
        elif kind == 1:
            b = full_twist(n) ** rng.choice((-1, 1)) * a ** rng.randint(-2, 2)
        elif kind == 2:
            b = half_twist(n) ** rng.randint(-2, 3)
        else:
            b = random_braid_on(rng, n, 4)
        expected = free_words_commute(a, b)
        assert braids_commute(a, b) == expected, (a, b)
        kinds[expected] += 1
    assert min(kinds.values()) >= 40, kinds


def test_full_twist_words():
    assert full_twist(2).letters == (1, 1)
    assert full_twist(3).letters == (1, 2) * 3
    assert len(full_twist(3)) == 6
    with pytest.raises(ValueError):
        full_twist(1)


# -- the prime-power family -------------------------------------------------


def test_family_two_strands():
    c, b = prime_twist_family(2, 3, (1,), None, 1)
    assert c == parse_braid("1^3", 2)
    assert b == parse_braid("1^6", 2)  # l = p = 3 for even n


def test_family_three_strands():
    c, b = prime_twist_family(3, 3, (1, 1), None, 1)
    assert c == parse_braid("1^3 2^3", 3)
    assert b == full_twist(3) ** 2  # l = 2 for odd n


def test_family_zeroth_power():
    _, b = prime_twist_family(2, 3, (1,), None, 0)
    assert b == BraidWord.identity(2)


def test_family_guarantees():
    rng = random.Random(12)
    for _ in range(15):
        n = rng.randint(2, 4)
        p = rng.choice((3, 5, 7))
        signs = tuple(rng.choice((1, -1)) for _ in range(n - 1))
        perm = list(range(1, n))
        rng.shuffle(perm)
        m = rng.randint(-2, 2)
        c, b = prime_twist_family(n, p, signs, perm, m)
        assert closure_component_count(c) == 1
        assert braids_commute(c, b)


def test_family_rejects_bad_input():
    with pytest.raises(ValueError):
        prime_twist_family(2, 4, (1,), None, 1)  # even p
    with pytest.raises(ValueError):
        prime_twist_family(2, 9, (1,), None, 1)  # odd composite
    with pytest.raises(ValueError):
        prime_twist_family(3, 3, (1,), None, 1)  # wrong sign count
    with pytest.raises(ValueError):
        prime_twist_family(3, 3, (1, 1), (1, 3), 1)  # not a permutation of 1..2
    with pytest.raises(ValueError):
        prime_twist_family(1, 3, (), None, 1)


# -- free words --------------------------------------------------------------


def test_free_word_reduction():
    assert FreeWord(2, (1, -1)).is_identity
    assert FreeWord(2, (1, 2, -2, -1)).is_identity
    assert FreeWord(2, (1, 2, -2, 1)).letters == (1, 1)
