"""Exact invariants of braid-closure knots and of the genus-one surface
knots spanned by commuting braid pairs: Alexander matrices and
determinants, Fox coloring censuses, and irreducible metabelian SU(2)
representation classes, all in integer arithmetic.

All values are immutable and all operations are pure functions, so the
whole API is safe to call concurrently.
"""

from .braids import (
    BraidWord,
    FreeWord,
    Permutation,
    artin_act,
    braids_commute,
    closure_component_count,
    closure_permutation,
    full_twist,
    parse_braid,
    prime_twist_family,
    random_knot_braid,
)
from .colorings import (
    Coloring,
    ColoringCensus,
    ProfileRow,
    colorability_profile,
    coloring_census,
    diagram_census_brute,
    dihedral_op,
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
    enumerate_solutions_mod,
    int_det,
    minor_gcd,
    smith_normal_form,
    solution_count_mod,
)
from .laurent import (
    LaurentMatrix,
    LaurentPoly,
    exact_div,
    laurent_det,
    laurent_minor_gcd,
    normalize_unit,
    poly_gcd,
    poly_str,
)
from .metabelian import (
    BinaryDihedralElt,
    RepClass,
    bd_inv,
    bd_mul,
    build_representation,
    count_from_colorings,
    count_irreducible_metabelian,
    enumerate_rep_classes,
    is_irreducible,
    verify_representation,
)
from .presentations import (
    ClosureDiagram,
    Crossing,
    Presentation,
    alexander_matrix,
    alexander_poly,
    burau_alexander,
    closure_diagram,
    closure_presentation,
    coloring_form,
    coloring_matrix,
    fox_derivative_abelianized,
    fox_matrix,
    knot_poly,
    torus_covering_presentation,
)

__version__ = "0.1.0"
