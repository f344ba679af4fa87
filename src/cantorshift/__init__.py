"""Exact digit expansions, shift operators, generalized Salem functions, and
Lebesgue-measure experiments for shift-defined set families.

Everything is immutable and pure; all arithmetic on digit data is exact
rational arithmetic.
"""

from .expansions import (
    BaseSpec,
    Cylinder,
    DigitExpansion,
    Tail,
    cylinder_interval,
    dual_representation,
    expansion_of,
    format_base,
    format_expansion,
    parse_base,
    parse_expansion,
    parse_rational,
    same_stream,
    value_of,
)
from .shifts import (
    PartialSums,
    alternating_shift_value,
    alternating_value,
    compose_two,
    delete_positions,
    generalized_shift,
    generalized_shift_value,
    make_schedule,
    original_positions,
    partial_sums,
    prefix_sum,
    shift,
    shift_n,
)
from .salem import (
    ContinuityResult,
    DistributionSpec,
    IndexSequence,
    Monotonicity,
    SalemFunction,
    WeightSet,
    chain_expansion,
    chain_value,
    classify_monotonicity,
    continuity_at,
    cylinder_increment,
    distribution_function,
    evaluate,
    first_terms,
    format_function_spec,
    increment_endpoints,
    increment_product,
    increment_via_evaluate,
    integral_closed_form,
    parse_function_spec,
    residual,
    value_at,
)
from .measure import (
    BudgetExceededError,
    Branch,
    FamilyKind,
    MonteCarloResult,
    PiecewiseLinearMap,
    ScanRow,
    SetFamilySpec,
    comparison_measure,
    gk_scan,
    monte_carlo_measure,
    plm_generalized_chain,
    plm_iter_shift,
    plm_single_deletion,
    rows_to_csv,
    sublevel_measure,
    sublevel_set,
)

__version__ = "0.1.0"
