"""Exact dimension polynomials for linear PDE and partial difference systems.

The package measures how strongly a linear system constrains its unknowns:
the dimension polynomial counts, for each order r, the values (Taylor
coefficients or grid samples) still free after imposing the system and all
its shifts.  Smaller polynomial = stronger system, which gives an exact way
to rank difference schemes against each other and against the PDE they
discretize.

Everything is computed over exact coefficient fields (Q or univariate
rational functions Q(a)) via Groebner bases in free modules over the
operator ring.
"""

from .builtin_systems import BUILTIN_NAMES, builtin_scheme, builtin_system
from .coefficients import (
    CoefficientError,
    PoleError,
    RationalFunction,
    coeff_str,
    evaluate,
    inverse,
    parameter_symbol,
)
from .dimension import (
    OracleBudgetExceeded,
    PolyQ,
    Staircase,
    ValidationRecord,
    binomial_poly,
    compare_strength,
    dimension_polynomial,
    expand_binomial_basis,
    free_module_polynomial,
    free_term_count_oracle,
    free_term_counts,
    poly_str,
    parse_poly,
    staircase_from_basis,
    to_binomial_basis,
    validate_polynomial,
)
from .dsl import DslError, parse_coefficient, parse_system, render_element, render_system
from .freemodule import (
    Element,
    Presentation,
    Term,
    TermOrder,
    apply_monomial,
    combine,
    divides,
    quotient,
    term_order,
)
from .groebner import (
    MAX_PAIRS_FORMED,
    CompletionBudgetExceeded,
    autoreduce,
    buchberger,
    is_groebner_basis,
    normal_form,
    reduce_element,
    s_polynomial,
)
from .inversive import (
    embed_element,
    embed_presentation,
    project_element,
    saturation_relations,
    sigma_operator_names,
)
from .pipeline import compare_reports, compute_strength, report_from_json, report_to_json, report_to_text
from .schemes import (
    SchemeSpec,
    discretize,
    forward_scheme,
    named_scheme,
    rule_spec,
    stencil_image,
    symmetric_scheme,
    symmetric_space_forward_time,
)

__version__ = "0.1.0"
