"""formcone: exact associated-graded (form ring) computations.

A small computer-algebra library for the q-adic world of a quotient ring:
sparse exact polynomials over QQ or F_p, Groebner bases for ideals and free
submodules, colon/saturation/elimination calculus in presented quotient
rings, Rees and associated-graded presentations, Hilbert functions, Koszul
grade and depth, and a Cohen-Macaulayness check for the associated graded
module driven by stabilized colon intersections, cross-verified by two
independent exact routes.

Values (polynomials, ideals, records, reports) are immutable after
construction.  Contexts, ideals and graded presentations memoise in place
(bases, filtration powers, a presentation's quotients and annihilators, the
criterion's level chains), and a context and those derived from it share
``base``'s caches, so scan one such family from one thread: two threads
extending one chain can append the same step twice, shifting every later flag.
"""

from .criterion import (
    CertificateStep,
    CriterionParams,
    CriterionReport,
    DefectRecord,
    EquivalenceResult,
    InvarianceResult,
    ScanResult,
    cohen_macaulay_report,
    defect_at,
    defect_regularity_equivalence,
    defect_scan,
    find_regular_lift,
    grade_by_recursion,
    radical_invariance_check,
    regular_form_exists,
    squared_system,
    system_images,
)
from .errors import (
    BudgetExceededError,
    ConsistencyError,
    DegenerateSystemError,
    FormconeError,
    InfiniteComponentError,
    ParseError,
    RingMismatchError,
    ValidationError,
)
from .filtration import (
    FiltrationContext,
    GradedQuotientPresentation,
    SystemElement,
)
from .graded import (
    GradedElement,
    GradeReport,
    KoszulWitness,
    RegularityResult,
    colon_chain_regularity,
    depth,
    graded_dim,
    hilbert_function,
    is_regular_element,
    is_system_of_parameters,
    koszul_grade,
)
from .groebner import (
    FreeModuleElement,
    GroebnerBasis,
    buchberger,
    normal_form,
    syzygy_basis,
)
from .ideals import PresentedIdeal
from .rings import (
    DEGREVLEX,
    LEX,
    QQ,
    FieldSpec,
    MonomialOrder,
    OrderKind,
    Polynomial,
    PolynomialRing,
    block_order,
    parse_polynomial,
    weighted_order,
)
from .session import SessionSpec, parse_session

__version__ = "0.1.0"
