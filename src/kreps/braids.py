"""Braid words, the component count of their closures, and commutation
by Dynnikov coordinates.

Conventions, fixed once for the whole package:

* A braid word on n strands is a sequence of signed generator indices;
  the letter ``+i`` is the standard generator swapping strands i, i+1
  with the left strand crossing over, and ``-i`` is its inverse.
* Every braid action that a report runs is a per-letter rule on a
  fixed-size integer vector: the Dynnikov coordinates here, the Burau
  rows in ``presentations`` and the color transport in ``colorings``.
  The action on the free group of the punctured disk, with its
  conventions, is an oracle in ``oracles``.
* The closure permutation sends a strand's starting slot to its ending
  slot; slots are numbered 0..n-1 internally.
"""

from typing import Sequence

from ._frozen import Frozen


class BraidWord(Frozen):
    """A word in the braid generators on ``strands`` strands.

    Immutable, compared and hashed by its fields."""

    __slots__ = ("strands", "letters")

    def __init__(self, strands: int, letters: Sequence[int]) -> None:
        if strands < 1:
            raise ValueError("a braid needs at least one strand")
        letters = tuple(map(int, letters))
        if letters and (0 in letters or max(letters) >= strands or min(letters) <= -strands):
            bad = next(x for x in letters if x == 0 or abs(x) >= strands)
            raise ValueError(f"generator index {bad} out of range for {strands} strands")
        object.__setattr__(self, "strands", strands)
        object.__setattr__(self, "letters", letters)

    @classmethod
    def identity(cls, strands: int) -> "BraidWord":
        return cls(strands, ())

    def __len__(self) -> int:
        return len(self.letters)

    def __mul__(self, other: "BraidWord") -> "BraidWord":
        if self.strands != other.strands:
            raise ValueError("cannot concatenate braids with different strand counts")
        return BraidWord(self.strands, self.letters + other.letters)

    def inverse(self) -> "BraidWord":
        return BraidWord(self.strands, tuple(-x for x in reversed(self.letters)))

    def __pow__(self, n: int) -> "BraidWord":
        if n == 0:
            return BraidWord.identity(self.strands)
        base = self if n > 0 else self.inverse()
        return BraidWord(self.strands, base.letters * abs(n))

    def __str__(self) -> str:
        return " ".join(map(str, self.letters)) if self.letters else "(empty)"


MAX_BRAID_LETTERS = 10_000


def parse_braid(text: str, strands: int) -> BraidWord:
    """Parse whitespace-separated tokens ``±i`` or ``±i^e`` into a braid word.

    Runs are expanded, so ``"1^3"`` equals ``"1 1 1"``, up to
    MAX_BRAID_LETTERS letters in all; the empty string is the identity braid.
    At most MAX_BRAID_LETTERS + 1 strands are accepted, the most a knot
    closure of that many letters can have.
    """
    if strands < 1:
        raise ValueError("a braid needs at least one strand")
    if strands > MAX_BRAID_LETTERS + 1:
        raise ValueError(f"a braid may have at most {MAX_BRAID_LETTERS + 1} strands")
    letters: list[int] = []
    for token in text.split():
        # an optional sign and a decimal string, then optionally ^ and a decimal
        # string; str.isdecimal refuses the "_", "²" and signs that int() or
        # str.isdigit would let through
        base, caret, power = token.partition("^")
        signed = base.isdecimal() or (base[1:].isdecimal() and base[0] in "+-")
        if not signed or (caret and not power.isdecimal()):
            raise ValueError(f"malformed braid token {token!r}")
        letter, exp = int(base), int(power) if caret else 1
        if letter == 0 or abs(letter) > strands - 1:
            raise ValueError(f"generator index {letter} out of range for {strands} strands")
        if exp <= 0:
            raise ValueError(f"exponent must be positive in token {token!r}")
        if len(letters) + exp > MAX_BRAID_LETTERS:
            raise ValueError(f"the braid word exceeds {MAX_BRAID_LETTERS} letters")
        letters.extend([letter] * exp)
    return BraidWord(strands, tuple(letters))


def closure_component_count(a: BraidWord) -> int:
    """Number of components of the braid closure, the cycles of its
    permutation, counted in one walk that marks each visited slot; 1
    means a knot."""
    slots = list(range(a.strands))
    for letter in a.letters:
        i = abs(letter) - 1
        slots[i], slots[i + 1] = slots[i + 1], slots[i]
    count = 0
    for start in range(a.strands):
        if slots[start] >= 0:
            count += 1
            at = start
            while slots[at] >= 0:
                slots[at], at = -1, slots[at]
    return count


def _dynnikov(word: BraidWord) -> tuple[int, ...]:
    """The Dynnikov coordinates (a_1, b_1, ..., a_n, b_n) of the image of
    the curve diagram (0, 1, ..., 0, 1) under the braid word, letter by
    letter.

    The word acts on the disk with n + 2 punctures through sigma_i ->
    sigma_{i+1}, so every letter takes the middle rule on the pairs i and
    i + 1, and the full twist of n strands acts nontrivially.  With x+ =
    max(x, 0) and x- = min(x, 0), +i sends (a, b, c, d) = (a_i, b_i,
    a_{i+1}, b_{i+1}) to (a + b+ + (d+ - e)+, d - e+, c + d- + (b- + e)-,
    b + e+) with e = a - b- - c + d+, and -i to (a - b+ - (d+ + e)+, d +
    e-, c - d- - (b- - e)-, b - e-) with e = a + b- - c - d+.
    """
    coords = [0, 1] * word.strands
    for letter in word.letters:
        k = 2 * abs(letter) - 2
        a, b, c, d = coords[k : k + 4]
        bm, bp, dm, dp = min(b, 0), max(b, 0), min(d, 0), max(d, 0)
        if letter > 0:
            e = a - bm - c + dp
            coords[k : k + 4] = a + bp + max(dp - e, 0), d - max(e, 0), c + dm + min(bm + e, 0), b + max(e, 0)
        else:
            e = a + bm - c - dp
            coords[k : k + 4] = a - bp - max(dp + e, 0), d + min(e, 0), c - dm - min(bm - e, 0), b - min(e, 0)
    return tuple(coords)


def braids_commute(a: BraidWord, b: BraidWord) -> bool:
    """Whether ab = ba in the braid group.

    Decided by comparing the Dynnikov coordinates of ab and ba
    (``_dynnikov``), which is exact because the action is faithful on the
    embedded braid group (Dynnikov, Russian Math. Surveys 57, 2002;
    Dehornoy, Dynnikov, Rolfsen and Wiest, Ordering Braids, 2008, ch.
    12).  The bit lengths of the coordinates grow at most linearly with
    the word, so the cost is polynomial in the word lengths.
    ``oracles.free_words_commute`` decides the same by the action on the
    free group.
    """
    if a.strands != b.strands:
        raise ValueError("strand count mismatch")
    return _dynnikov(a * b) == _dynnikov(b * a)


def full_twist(n: int) -> BraidWord:
    """The central full twist (s_1 s_2 ... s_{n-1})^n."""
    if n < 2:
        raise ValueError("the full twist needs at least two strands")
    return BraidWord(n, tuple(range(1, n)) * n)


# Miller-Rabin to the first 13 prime bases is exact below _MR_EXACT_BELOW
# (Sorenson and Webster, Math. Comp. 86, 2017)
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_EXACT_BELOW = 3317044064679887385961981


def is_odd_prime(p: int) -> bool:
    """Whether p is an odd prime, by Miller-Rabin to the bases ``_MR_BASES``;
    False for every p >= ``_MR_EXACT_BELOW``, where the test would not be a
    proof."""
    if p < 3 or p % 2 == 0 or p >= _MR_EXACT_BELOW:
        return False
    if p in _MR_BASES:
        return True
    d, s = p - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for b in _MR_BASES:
        x = pow(b, d, p)
        if x == 1 or x == p - 1:
            continue
        for _ in range(s - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            return False
    return True


def prime_twist_family(
    n: int,
    p: int,
    signs: Sequence[int],
    perm: Sequence[int] | None = None,
    m: int = 1,
) -> tuple[BraidWord, BraidWord]:
    """Commuting pair (c, b) with knot closure of c.

    c runs through each generator once, in the order given by ``perm``
    (a permutation of 1..n-1, identity by default), raised to the power
    ``sign * p``; its closure is a connected sum of (2, +-p) torus knots.
    b is the full twist to the power l*m, where l is 2 for odd n and p
    for even n.  The full twist is central, so the pair always commutes.
    Either word longer than MAX_BRAID_LETTERS is rejected before any is
    built, as ``parse_braid`` rejects it.
    """
    if n < 2:
        raise ValueError("the family needs at least two strands")
    l = 2 if n % 2 == 1 else p
    if max((n - 1) * abs(p), n * (n - 1) * abs(l * m)) > MAX_BRAID_LETTERS:
        raise ValueError(f"a braid word of the family exceeds {MAX_BRAID_LETTERS} letters")
    if not is_odd_prime(p):
        raise ValueError("p must be an odd prime")
    signs = tuple(int(s) for s in signs)
    if len(signs) != n - 1 or any(s not in (1, -1) for s in signs):
        raise ValueError("signs must be a list of +-1 of length n-1")
    if perm is None:
        order = tuple(range(1, n))
    else:
        order = tuple(int(x) for x in perm)
        if sorted(order) != list(range(1, n)):
            raise ValueError("perm must be a permutation of 1..n-1")
    letters: list[int] = []
    for sign, gen in zip(signs, order):
        letters.extend([sign * gen] * p)
    c = BraidWord(n, tuple(letters))
    b = full_twist(n) ** (l * m)
    return c, b
