"""Toolkit for grading likelihood assessments over propositional
statements, constructing subjective state-space models that reproduce
them, identifying which entailments (plain or theory-relative) an agent
respects, and testing rationalizability under general likelihood
appraisals.

Importing the package loads none of its modules: each name in
``__all__`` is imported from its home module on first use (PEP 562), so
a program that uses only some layers loads only those."""

from importlib import import_module

# the home module of each exported name
_HOMES = {
    "assessment": [
        "Assessment", "AxiomReport", "Bet", "bet_value",
        "check_a", "check_e", "check_i", "check_ie", "check_nt", "check_s_i",
    ],
    "construct": [
        "BuildError", "BuildOutcome",
        "build_additive_sound", "build_belief_lift", "build_canonical_sound",
        "build_interval_additive", "build_product_model",
    ],
    "errors": ["InputError", "InternalError"],
    "games": [
        "Strategy", "layer_decompose", "pointwise_undominated",
        "rationalizable", "t_bullet", "t_circ", "transported_vector", "verify_integral_equality",
    ],
    "identify": ["largest_subtheory", "subtheory_via_certainty", "understood_implications"],
    "logic": ["FALSE", "TRUE", "Formula", "Language", "Theory", "unparse"],
    "model": [
        "SubjectiveModel", "choquet", "classify_lambda", "classify_truth",
        "inverse_mobius", "mobius", "represents",
    ],
}
_HOME = {name: module for module, names in _HOMES.items() for name in names}

__all__ = list(_HOME)


def __getattr__(name):
    module = _HOME.get(name)
    if module is None:  # a submodule not imported yet, or no such name
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
