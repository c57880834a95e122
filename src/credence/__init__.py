"""Toolkit for grading likelihood assessments over propositional
statements, constructing subjective state-space models that reproduce
them, identifying which entailments (plain or theory-relative) an agent
respects, and testing rationalizability under general likelihood
appraisals."""

from .assessment import (
    Assessment,
    AxiomReport,
    Bet,
    bet_value,
    check_a,
    check_e,
    check_i,
    check_ie,
    check_nt,
    check_s_i,
)
from .construct import (
    BuildError,
    BuildOutcome,
    build_additive_sound,
    build_belief_lift,
    build_canonical_sound,
    build_interval_additive,
    build_product_model,
)
from .errors import InternalError
from .games import (
    Strategy,
    layer_decompose,
    pointwise_undominated,
    rationalizable,
    t_bullet,
    t_circ,
    transported_vector,
    verify_integral_equality,
)
from .identify import largest_subtheory, subtheory_via_certainty, understood_implications
from .logic import FALSE, TRUE, Formula, Language, Theory, unparse
from .model import (
    SubjectiveModel,
    choquet,
    classify_lambda,
    classify_truth,
    inverse_mobius,
    mobius,
    represents,
)

__all__ = [
    "Assessment", "AxiomReport", "Bet", "bet_value",
    "check_a", "check_e", "check_i", "check_ie", "check_nt", "check_s_i",
    "BuildError", "BuildOutcome",
    "build_additive_sound", "build_belief_lift", "build_canonical_sound",
    "build_interval_additive", "build_product_model",
    "InternalError",
    "Strategy", "layer_decompose", "pointwise_undominated",
    "rationalizable", "t_bullet", "t_circ", "transported_vector", "verify_integral_equality",
    "largest_subtheory", "subtheory_via_certainty", "understood_implications",
    "FALSE", "TRUE", "Formula", "Language", "Theory", "unparse",
    "SubjectiveModel", "choquet", "classify_lambda", "classify_truth",
    "inverse_mobius", "mobius", "represents",
]
