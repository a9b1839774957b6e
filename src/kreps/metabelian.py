"""Irreducible metabelian SU(2) representations, realized exactly in the
binary dihedral subgroup.

With z = exp(i*pi/m) for odd m, the binary dihedral group of order 4m
consists of the SU(2) matrices

    D(k) = [[z^k, 0], [0, z^-k]]      (diagonal rotations)
    R(k) = [[0, z^k], [-z^-k, 0]]     (antidiagonal reflections)

with k taken modulo 2m.  The multiplication table closes over the angle
bookkeeping alone, so no complex numbers are ever needed:

    D(a) D(b) = D(a+b)      D(a) R(b) = R(a+b)
    R(a) D(b) = R(a-b)      R(a) R(b) = D(a-b+m)

In particular R(k)^2 = D(m) = -I, R(k)^-1 = R(k+m), and conjugation acts
by the dihedral rule R(a) R(b) R(a)^-1 = R(2a - b).

A coloring c modulo m of the Alexander matrix, which production builds
from the braid by the Burau rule, lifts to the representation sending
meridian i to R(k_i), where k_i is the even representative of c_i modulo
2m.  Every relator has zero exponent sum, which forces the residual sign
D(0)/D(m) to be trivial, so the lifted assignment satisfies all relators
exactly.  The oracles ``oracles.verify_representation`` and
``oracles.is_irreducible`` check that on free-word relators.

``enumerate_rep_classes`` keeps each class as a ``RepClass`` record, a
NamedTuple of the modulus, the coloring and the even lifts as plain ints,
and builds the assignment only when it is read.  It works on the
solutions one coordinate list at a time (``intlinalg.solution_columns_mod``)
and sorts the classes by coloring itself, since the enumeration promises
no order.
"""

from bisect import bisect_left
from itertools import chain, repeat
from typing import NamedTuple

from ._frozen import Frozen
from .braids import is_odd_prime
from .intlinalg import SNFResult, determinantal_divisor, solution_columns_mod


class BinaryDihedralElt(Frozen):
    """D(angle) or R(angle) in the binary dihedral group of order 2*modulus.

    ``modulus`` is 2m for the odd parameter m >= 3; ``kind`` is "D" for
    diagonal and "R" for antidiagonal elements.  The angle is kept modulo
    the modulus.  Immutable, compared and hashed by its fields.
    """

    __slots__ = ("modulus", "kind", "angle")

    def __init__(self, modulus: int, kind: str, angle: int) -> None:
        if modulus < 6 or modulus % 2 or (modulus // 2) % 2 == 0:
            raise ValueError("modulus must be 2m for an odd m >= 3")
        if kind not in ("D", "R"):
            raise ValueError("kind must be 'D' or 'R'")
        object.__setattr__(self, "modulus", modulus)
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "angle", angle % modulus)

    @classmethod
    def d(cls, m: int, k: int) -> "BinaryDihedralElt":
        return cls(2 * m, "D", k)

    @classmethod
    def r(cls, m: int, k: int) -> "BinaryDihedralElt":
        return cls(2 * m, "R", k)

    @classmethod
    def identity(cls, m: int) -> "BinaryDihedralElt":
        return cls(2 * m, "D", 0)

    @property
    def is_identity(self) -> bool:
        return self.kind == "D" and self.angle == 0

    def __str__(self) -> str:
        return f"{self.kind}({self.angle}) mod {self.modulus}"


def bd_mul(x: BinaryDihedralElt, y: BinaryDihedralElt) -> BinaryDihedralElt:
    if x.modulus != y.modulus:
        raise ValueError("modulus mismatch")
    n = x.modulus
    m = n // 2
    if x.kind == "D" and y.kind == "D":
        return BinaryDihedralElt(n, "D", x.angle + y.angle)
    if x.kind == "D" and y.kind == "R":
        return BinaryDihedralElt(n, "R", x.angle + y.angle)
    if x.kind == "R" and y.kind == "D":
        return BinaryDihedralElt(n, "R", x.angle - y.angle)
    return BinaryDihedralElt(n, "D", x.angle - y.angle + m)


def bd_inv(x: BinaryDihedralElt) -> BinaryDihedralElt:
    if x.kind == "D":
        return BinaryDihedralElt(x.modulus, "D", -x.angle)
    return BinaryDihedralElt(x.modulus, "R", x.angle + x.modulus // 2)


def count_irreducible_metabelian(det: int) -> int:
    """(det - 1) / 2: the class count as a function of the determinant."""
    if det < 1 or det % 2 == 0:
        raise ValueError(
            "determinant must be a positive odd integer; an even value "
            "signals an upstream bug"
        )
    return (det - 1) // 2


def count_from_colorings(col_p: int, p: int) -> int:
    """(|colorings| - p) / (2p): the class count for only-p-colorable
    objects, from the size of the mod-p coloring space."""
    if not is_odd_prime(p):
        raise ValueError("p must be an odd prime")
    if col_p % p:
        raise ValueError("the coloring count must be divisible by p")
    if (col_p - p) % (2 * p):
        raise ValueError("coloring count is incompatible with the pairing")
    return (col_p - p) // (2 * p)


class RepClass(NamedTuple):
    """One conjugacy class: the defining coloring (base generator pinned
    to 0) and the even lifts of its colors modulo 2 * modulus, the angles
    of the exact binary dihedral assignment.  A list of classes is in
    whatever order its producer gives; ``enumerate_rep_classes`` sorts by
    coloring."""

    modulus: int
    coloring: tuple[int, ...]
    angles: tuple[int, ...]

    @property
    def assignment(self) -> tuple[BinaryDihedralElt, ...]:
        """Generator i -> R(angles[i]), built on each read."""
        return tuple([BinaryDihedralElt.r(self.modulus, k) for k in self.angles])


def enumerate_rep_classes(form: SNFResult) -> list[RepClass]:
    """All conjugacy classes of irreducible metabelian SU(2) representations,
    sorted by coloring.

    The determinant and the colorings modulo it with the last generator
    pinned to 0 are read from the coloring form of the Alexander matrix
    (``presentations.coloring_form``); the zero solution is reducible and
    dropped, and c, -c give conjugate representations, so representatives
    keep the lexicographically smaller of the pair: (det - 1) / 2 classes.
    As det is odd, those are the solutions whose first nonzero color is at
    most det // 2.

    The solutions arrive one list per coordinate
    (``intlinalg.solution_columns_mod``) and are zipped and sorted once.
    In sorted order, the solutions whose first nonzero color is color j
    and at most det // 2 form one slice, found by two bisections, and the
    slices for later j come first; so the choice takes two bisections per
    leading zero instead of a scan of each solution.
    The colors are lifted to angles one coordinate at a time, and the
    records are built by one ``map``.  ``oracles.scan_rep_classes`` keeps
    the rule this replaced, a scan of each solution, as its check.
    """
    det = determinantal_divisor(form, form.cols)
    if det < 1 or det % 2 == 0:
        raise ValueError("expected a positive odd determinant")
    if det == 1:
        return []
    columns = solution_columns_mod(form, det)
    if len(columns[0]) != det:
        raise RuntimeError(
            f"expected {det} base-pinned colorings, found {len(columns[0])}"
        )
    # the pinned base color rides along as a column of zeros
    solutions = sorted(zip(*columns, [0] * det))
    half = det // 2
    slices = []
    zeros: tuple[int, ...] = ()
    end = det  # solutions[:end] are those whose first len(zeros) colors are 0
    while end > 1:
        start = bisect_left(solutions, zeros + (1,), 0, end)
        slices.append(solutions[start : bisect_left(solutions, zeros + (half + 1,), start, end)])
        zeros += (0,)
        end = start
    chosen = list(chain.from_iterable(reversed(slices)))
    # the even representative modulo 2 det of each color modulo det
    lift = list(range(det))
    lift[1::2] = range(det + 1, 2 * det, 2)
    angles = zip(*[map(lift.__getitem__, colors) for colors in zip(*chosen)])
    # tuple.__new__ builds each record without the NamedTuple's Python-level __new__
    return list(map(tuple.__new__, repeat(RepClass), zip(repeat(det), chosen, angles)))
