"""Exact invariants of braid-closure knots and of the genus-one surface
knots spanned by commuting braid pairs: Alexander matrices and
determinants, Fox coloring censuses, and irreducible metabelian SU(2)
representation classes, all in integer arithmetic.

Each name is imported from the module that defines it, not from here.
The routes that cross-check the numbers, and the ``kreps verify`` sweep,
live in ``kreps.oracles``, which no report imports.

All values are immutable and all operations are pure functions, so the
whole API is safe to call concurrently.  The record types, ``LaurentPoly``
and those of ``kreps.oracles`` among them, are NamedTuples or ``__slots__``
classes on ``_frozen.Frozen``, which refuses assignment.  None is a
dataclass, so importing the package loads no more of the standard library
than a report runs.
"""

__version__ = "0.1.0"
