"""Exact invariants of braid-closure knots and of the genus-one surface
knots spanned by commuting braid pairs: Alexander matrices and
determinants, Fox coloring censuses, and irreducible metabelian SU(2)
representation classes, all in integer arithmetic.

The slower, independent routes that cross-check these numbers, and the
``kreps verify`` sweep, live in ``kreps.oracles``; no report uses them,
so they are imported from there and not exported here.

All values are immutable and all operations are pure functions, so the
whole API is safe to call concurrently.  The record types, ``LaurentPoly``
and those of ``kreps.oracles`` among them, are NamedTuples or ``__slots__``
classes on ``_frozen.Frozen``, which refuses assignment.  None is a
dataclass, so importing the package loads no more of the standard library
than a report runs.
"""

from .braids import (
    BraidWord,
    braids_commute,
    closure_component_count,
    full_twist,
    parse_braid,
    prime_twist_family,
)
from .colorings import (
    ColoringCensus,
    ProfileRow,
    colorability_profile,
    coloring_census,
    dihedral_transport,
    generated_subgroup,
    is_p_colorable,
    surface_coloring_census,
)
from .intlinalg import (
    EnumerationCapExceeded,
    IntMatrix,
    SNFResult,
    determinantal_divisor,
    int_det,
    smith_normal_form,
    solution_columns_mod,
    solution_count_mod,
)
from .laurent import (
    LaurentMatrix,
    LaurentPoly,
    normalize_unit,
    poly_str,
)
from .metabelian import (
    BinaryDihedralElt,
    RepClass,
    bd_inv,
    bd_mul,
    count_from_colorings,
    count_irreducible_metabelian,
    enumerate_rep_classes,
)
from .presentations import (
    alexander_matrix,
    alexander_poly,
    burau_alexander,
    coloring_form,
    knot_poly,
)

__version__ = "0.1.0"
