"""Seeded argv generators for the benchmark workloads.

Every workload is a fixed list of ``kreps`` argv lists drawn from
``random.Random(f"{workload}:{seed}")``, so one seed always gives the
same inputs.  Inputs are never filtered on how the program fares with
them.

The cost of a homogeneous braid word grows exponentially with how often
it switches generator (its syllable count), with sign alternation and
with uneven syllable lengths, so a plain random draw makes the cost of
`knots` swing by a third from seed to seed.  Homogeneous words are
therefore stratified: every size class, sign pattern and quantile band
of the syllable count of random words gets an equal share, the syllable
lengths are as even as a knot allows, and the seed draws the order of
the lengths and the generator of each syllable.  Mixed-sign words, for
`table` and the power pairs, are drawn letter by letter.

Words are redrawn until their closure is a knot (its permutation is one
cycle), so no input is a link.  That test does not use kreps, so a change
to the program cannot change the inputs.
"""

from __future__ import annotations

import itertools
import math
import random

WORKLOADS = ("knots", "table", "surfaces")

# `knots`: homogeneous words, (strands, letters) classes in equal shares.
KNOT_CLASSES = ((3, 8), (3, 10), (3, 12), (4, 9), (4, 11), (4, 13))
KNOTS_PER_CLASS = 64
KNOTS_RMAX = 12

# `table`: random words on 3..6 strands with n..2n+2 letters.
TABLE_STRANDS = (3, 4, 5, 6)
TABLE_PER_STRANDS = 120
TABLE_RMAX = 40

# `surfaces`: every family member once, plus full-twist and power pairs.
FAMILY_MEMBERS = tuple(
    (n, p, m) for n in (3, 4, 5) for p in ((3,) if n == 5 else (3, 5, 7)) for m in (1, 2)
)
# (strands, letters, count).  A 10-letter surface's census runs over p^3
# colorings for each odd prime p of its determinant, which can exceed 50;
# more of them would swing the workload's cost from seed to seed.
TWIST_CLASSES = ((3, 6, 16), (3, 8, 16), (3, 10, 8))
PAIR_CLASSES = ((3, 4), (3, 6), (4, 5))
PAIRS_PER_CLASS = 128
SURFACE_RMAX = 12

# draws per multiset of syllable lengths before trying the next: some
# admit no knot, e.g. seven syllables of two letters, whose permutation is
# the identity
_DRAWS_PER_SHAPE = 50


def is_knot(strands: int, word: list[int]) -> bool:
    """Whether the closure of the braid word has one component."""
    image = list(range(strands))
    for letter in word:
        i = abs(letter) - 1
        image[i], image[i + 1] = image[i + 1], image[i]
    seen, slot = 1, image[0]
    while slot != 0:
        seen += 1
        slot = image[slot]
    return seen == strands


def _syllable_quantile(strands: int, length: int, u: float) -> int:
    """The u-quantile of the syllable count of a uniform random word.

    Each letter after the first switches generator with probability
    (n-2)/(n-1), so the count is 1 + Binomial(length-1, (n-2)/(n-1)).
    A knot needs all n-1 generators, hence at least n-1 syllables.
    """
    p = (strands - 2) / (strands - 1)
    trials = length - 1
    acc = 0.0
    for switches in range(trials + 1):
        acc += math.comb(trials, switches) * p**switches * (1 - p) ** (trials - switches)
        if acc >= u:
            break
    return max(strands - 1, 1 + switches)


def _syllable_lengths(length: int, syllables: int):
    """Multisets of syllable lengths summing to ``length``, most even first."""
    q, r = divmod(length, syllables)
    even = [q + 1] * r + [q] * (syllables - r)
    for shift in range(q):
        yield [even[0] + shift] + even[1:-1] + [even[-1] - shift]


def _syllable_word(rng: random.Random, strands: int, length: int, syllables: int, signs) -> list[int]:
    """A knot word with the given syllable count and syllable lengths as
    even as a knot allows; failing that, the same with the nearest count
    that has one, the side of the median first.  The seed draws the
    order of the lengths and the generator of each syllable; ``signs``
    gives one sign per generator."""
    median = _syllable_quantile(strands, length, 0.5)
    counts = sorted(range(strands - 1, length + 1),
                    key=lambda c: (abs(c - syllables), (c - syllables) * (median - syllables) < 0))
    for count in counts:
        for lengths in _syllable_lengths(length, count):
            # the permutation is the product of the odd syllables'
            # transpositions: an n-cycle needs n-1 of them, or more of the
            # same parity
            odd = sum(e % 2 for e in lengths)
            if odd < strands - 1 or (odd - strands + 1) % 2:
                continue
            for _ in range(_DRAWS_PER_SHAPE):
                gens = [rng.randint(1, strands - 1)]
                while len(gens) < count:
                    g = rng.randint(1, strands - 1)
                    if g != gens[-1]:
                        gens.append(g)
                rng.shuffle(lengths)
                word = []
                for g, e in zip(gens, lengths):
                    word.extend([signs[g - 1] * g] * e)
                if is_knot(strands, word):
                    return word
    raise RuntimeError(f"no knot word of {length} letters on {strands} strands")


def _homogeneous_words(rng: random.Random, strands: int, length: int, count: int) -> list[list[int]]:
    """``count`` homogeneous knot words of one size class.

    Slot j takes sign pattern j mod P and, as its syllable count, the
    midpoint quantile of the (j div P)-th of count/P equal bands of the
    random-word distribution.
    """
    patterns = list(itertools.product((1, -1), repeat=strands - 1))
    bands = math.ceil(count / len(patterns))
    words = []
    for j in range(count):
        u = (j // len(patterns) + 0.5) / bands
        syllables = _syllable_quantile(strands, length, u)
        words.append(_syllable_word(rng, strands, length, syllables, patterns[j % len(patterns)]))
    return words


def _random_words(rng: random.Random, strands: int, length: int, count: int) -> list[list[int]]:
    """``count`` knot words of one size class with letters drawn uniformly."""
    words = []
    while len(words) < count:
        word = [rng.choice((1, -1)) * rng.randint(1, strands - 1) for _ in range(length)]
        if is_knot(strands, word):
            words.append(word)
    return words


def _text(word: list[int]) -> str:
    return " ".join(str(x) for x in word)


def _knots(rng: random.Random) -> list[list[str]]:
    out = []
    for strands, length in KNOT_CLASSES:
        for word in _homogeneous_words(rng, strands, length, KNOTS_PER_CLASS):
            out.append(["knot", _text(word), "-n", str(strands), "--rmax", str(KNOTS_RMAX)])
    return out


def _table(rng: random.Random) -> list[list[str]]:
    out = []
    for strands in TABLE_STRANDS:
        # an n-cycle is a product of n-1 transpositions, so the letter
        # count of a knot braid has the parity of n-1
        lengths = [k for k in range(strands, 2 * strands + 3) if k % 2 == (strands - 1) % 2]
        per_length = TABLE_PER_STRANDS // len(lengths)
        for length in lengths:
            for word in _random_words(rng, strands, length, per_length):
                out.append(["knot", _text(word), "-n", str(strands), "--rmax", str(TABLE_RMAX)])
    return out


def _family(rng: random.Random) -> list[list[str]]:
    """Each family member once, with random signs and generator order.

    A monotone order (ascending or descending) makes the commutation
    check about twice as slow as any other, as does m = 2 against m = 1.
    So that no seed piles monotone orders onto the m = 2 members, the
    m = 1 members draw a monotone order and the m = 2 members another one,
    where the strand count leaves any.
    """
    out = []
    for n, p, m in FAMILY_MEMBERS:
        ascending = tuple(range(1, n))
        monotone = [ascending, ascending[::-1]]
        others = [perm for perm in itertools.permutations(ascending) if perm not in monotone]
        perm = ",".join(map(str, rng.choice(monotone if m == 1 or not others else others)))
        signs = ",".join(rng.choice("+-") for _ in range(n - 1))
        # `--signs -+` would be read as an option, so the value is attached
        out.append(["family", str(n), str(p), str(m), f"--signs={signs}", f"--perm={perm}"])
    return out


def _surfaces(rng: random.Random) -> list[list[str]]:
    out = _family(rng)
    for strands, length, count in TWIST_CLASSES:
        words = _homogeneous_words(rng, strands, length, count)
        # the twist power alternates between the syllable-count bands, so
        # every sign pattern gets both powers
        for j, word in enumerate(words):
            power = 1 + (j // 2 ** (strands - 1)) % 2
            out.append(
                ["surface", _text(word), "-n", str(strands), "--fulltwist", str(power),
                 "--rmax", str(SURFACE_RMAX)]
            )
    for strands, length in PAIR_CLASSES:
        for word in _random_words(rng, strands, length, PAIRS_PER_CLASS):
            out.append(
                ["surface", _text(word), _text(word + word), "-n", str(strands),
                 "--rmax", str(SURFACE_RMAX)]
            )
    return out


_GENERATORS = {"knots": _knots, "table": _table, "surfaces": _surfaces}


def make_inputs(workload: str, seed: int) -> list[list[str]]:
    """The argv lists of one workload for one seed, without ``--json``."""
    if workload not in _GENERATORS:
        raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
    return _GENERATORS[workload](random.Random(f"{workload}:{seed}"))
