"""Multigraded regularity toolkit for products of projective spaces.

Exact F_p arithmetic over the multigraded coordinate ring, Groebner
bases and syzygies for submodules of free modules, minimal free
resolutions and Betti tables, truncation functors, the staircase
region calculus, regularity via quasilinear truncations, and an
independent local-cohomology oracle.
"""

from .cohomology import (
    CohomologyTable,
    check_regularity_by_definition,
    line_bundle_cohomology,
    local_cohomology_box,
    structure_sheaf_local_cohomology,
)
from .errors import (
    BoxTooSmall,
    InhomogeneousError,
    MultiregError,
    NotSaturatedError,
    ParseError,
    RingMismatchError,
)
from .groebner import (
    GroebnerBasis,
    buchberger,
    colon,
    colon_by_ideal,
    factor_ideals,
    ideal_matrix,
    intersect_submodules,
    normal_form,
    saturate,
    submodules_equal,
    syzygies,
)
from .parser import JobSpec, parse_input, poly_from_string
from .pieces import hilbert_function
from .regions import (
    Region,
    betti_bound_L,
    betti_bound_Q,
    region_L,
    region_Q,
    region_intersect,
    region_subset,
    region_union,
)
from .regularity import (
    LinearityVerdict,
    ci_regularity,
    classify_resolution,
    is_d_regular,
    module_is_saturated_at_zero,
    multigraded_regularity,
    truncation_region,
    verify_ci_hypotheses,
)
from .resolution import (
    BettiTable,
    FreeComplex,
    betti,
    free_resolution,
    is_minimal_complex,
    koszul_complex,
    minimalize,
)
from .ringcore import (
    FreeModuleSpec,
    MatrixOverS,
    Monomial,
    MultiDegree,
    Poly,
    Presentation,
    RingSpec,
    Vector,
    monomials_of_degree,
)
from .truncation import truncate_free, truncate_module

__version__ = "0.1.0"
