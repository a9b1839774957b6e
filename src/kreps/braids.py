"""Braid words, the component count of their closures, and the
punctured-disk action.

Conventions, fixed once for the whole package:

* A braid word on n strands is a sequence of signed generator indices;
  the letter ``+i`` is the standard generator swapping strands i, i+1
  with the left strand crossing over, and ``-i`` is its inverse.
* Free-group words are sequences of signed generator indices in 1..rank,
  always kept freely reduced.
* The action of a generator on the free group of the n-punctured disk:

      +i:  t_i -> t_i t_{i+1} t_i^-1,   t_{i+1} -> t_i
      -i:  t_i -> t_{i+1},              t_{i+1} -> t_{i+1}^-1 t_i t_{i+1}

  and a word acts by composing letter actions so that
  ``act(ab, w) == act(a, act(b, w))``.  This order makes the braid
  relations hold letter-for-letter (a property test pins it down).
* The closure permutation sends a strand's starting slot to its ending
  slot; slots are numbered 0..n-1 internally.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass
from typing import Iterable, Sequence


@dataclass(frozen=True)
class BraidWord:
    """A word in the braid generators on ``strands`` strands."""

    strands: int
    letters: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.strands < 1:
            raise ValueError("a braid needs at least one strand")
        object.__setattr__(self, "letters", tuple(int(x) for x in self.letters))
        for letter in self.letters:
            if letter == 0 or abs(letter) > self.strands - 1:
                raise ValueError(
                    f"generator index {letter} out of range for {self.strands} strands"
                )

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
        return " ".join(str(x) for x in self.letters) if self.letters else "(empty)"


_TOKEN = re.compile(r"([+-]?\d+)(?:\^(\d+))?")
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
        match = _TOKEN.fullmatch(token)
        if match is None:
            raise ValueError(f"malformed braid token {token!r}")
        letter = int(match.group(1))
        if letter == 0 or abs(letter) > strands - 1:
            raise ValueError(
                f"generator index {letter} out of range for {strands} strands"
            )
        exp = 1
        if match.group(2) is not None:
            exp = int(match.group(2))
            if exp <= 0:
                raise ValueError(f"exponent must be positive in token {token!r}")
        if len(letters) + exp > MAX_BRAID_LETTERS:
            raise ValueError(f"the braid word exceeds {MAX_BRAID_LETTERS} letters")
        letters.extend([letter] * exp)
    return BraidWord(strands, tuple(letters))


def _reduce_into(out: list[int], letters: Iterable[int]) -> None:
    for x in letters:
        if out and out[-1] == -x:
            out.pop()
        else:
            out.append(x)


def free_reduce(letters: Iterable[int]) -> tuple[int, ...]:
    out: list[int] = []
    _reduce_into(out, letters)
    return tuple(out)


@dataclass(frozen=True)
class FreeWord:
    """A freely reduced word in free-group generators 1..rank.

    The constructor reduces its input, so every instance is reduced.
    """

    rank: int
    letters: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.rank < 1:
            raise ValueError("free group rank must be at least 1")
        reduced = free_reduce(int(x) for x in self.letters)
        for letter in reduced:
            if letter == 0 or abs(letter) > self.rank:
                raise ValueError(f"generator {letter} out of range for rank {self.rank}")
        object.__setattr__(self, "letters", reduced)

    @classmethod
    def identity(cls, rank: int) -> "FreeWord":
        return cls(rank, ())

    @classmethod
    def generator(cls, rank: int, i: int) -> "FreeWord":
        return cls(rank, (i,))

    @property
    def is_identity(self) -> bool:
        return not self.letters

    def __len__(self) -> int:
        return len(self.letters)

    def __mul__(self, other: "FreeWord") -> "FreeWord":
        if self.rank != other.rank:
            raise ValueError("rank mismatch")
        return FreeWord(self.rank, self.letters + other.letters)

    def inverse(self) -> "FreeWord":
        return FreeWord(self.rank, tuple(-x for x in reversed(self.letters)))

    def weighted_exponent_sum(self, weights: Sequence[int]) -> int:
        total = 0
        for x in self.letters:
            w = weights[abs(x) - 1]
            total += w if x > 0 else -w
        return total

    def __str__(self) -> str:
        if not self.letters:
            return "1"
        parts = []
        for x in self.letters:
            parts.append(f"t{abs(x)}" if x > 0 else f"t{abs(x)}^-1")
        return " ".join(parts)


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


def random_knot_braid(rng: random.Random, max_strands: int, max_len: int) -> BraidWord:
    """A random word on 2..max_strands strands, 1..max_len letters, with knot closure."""
    while True:
        n = rng.randint(2, max_strands)
        length = rng.randint(1, max_len)
        letters = tuple(rng.choice((1, -1)) * rng.randint(1, n - 1) for _ in range(length))
        a = BraidWord(n, letters)
        if closure_component_count(a) == 1:
            return a


def _letter_image(braid_letter: int, free_letter: int) -> tuple[int, ...]:
    i = abs(braid_letter)
    g = abs(free_letter)
    if braid_letter > 0:
        if g == i:
            img: tuple[int, ...] = (i, i + 1, -i)
        elif g == i + 1:
            img = (i,)
        else:
            img = (g,)
    else:
        if g == i:
            img = (i + 1,)
        elif g == i + 1:
            img = (-(i + 1), i, i + 1)
        else:
            img = (g,)
    if free_letter < 0:
        img = tuple(-x for x in reversed(img))
    return img


def artin_act(a: BraidWord, w: FreeWord) -> FreeWord:
    """Image of the free word w under the automorphism attached to a.

    Reduction is applied eagerly after every letter substitution to keep
    intermediate words short.
    """
    if w.rank != a.strands:
        raise ValueError("free word rank must equal the braid's strand count")
    letters = list(w.letters)
    for braid_letter in reversed(a.letters):
        out: list[int] = []
        for free_letter in letters:
            _reduce_into(out, _letter_image(braid_letter, free_letter))
        letters = out
    return FreeWord(a.strands, tuple(letters))


def braids_commute(a: BraidWord, b: BraidWord) -> bool:
    """Whether ab = ba in the braid group.

    Decided by comparing the automorphism images of every generator,
    which is exact because the action on the free group is faithful.
    """
    if a.strands != b.strands:
        raise ValueError("strand count mismatch")
    ab, ba = a * b, b * a
    for i in range(1, a.strands + 1):
        gen = FreeWord.generator(a.strands, i)
        if artin_act(ab, gen) != artin_act(ba, gen):
            return False
    return True


def full_twist(n: int) -> BraidWord:
    """The central full twist (s_1 s_2 ... s_{n-1})^n."""
    if n < 2:
        raise ValueError("the full twist needs at least two strands")
    return BraidWord(n, tuple(range(1, n)) * n)


def is_odd_prime(p: int) -> bool:
    if p < 3 or p % 2 == 0:
        return False
    d = 3
    while d * d <= p:
        if p % d == 0:
            return False
        d += 2
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
