"""Finite branching space-time models and the GHZ no-common-cause result.

The package splits into a generic layer and a scenario layer.  The
generic layer holds causal models and histories (``model``), events,
spreads and consistency grading (``events``), the model document
(``document``), and the screening common-cause checker, its search and
the determinism levels (``common_cause``); it imports no scenario.  The
scenario layer is ``ghz``, the three-station parity setup with its
53-point realization and its three no-go results (value assignments,
contextual assignments and the exhaustive common-cause refutation), and
``quantum``, an exact quantum cross-check of the parity rule.

Names load on first use.  ``import bstghz`` imports none of these
modules; the first lookup of an exported name, or of a module by name
(``bstghz.document``), imports the module that defines it, and the value
is then kept in the package's globals, so later lookups are plain
attribute reads.  ``_EXPORTS`` lists what each module exports.  Modules
load through ``__import__``, the path of an ``import`` statement, so
``python -X importtime`` lists them like any other import.
"""

import sys as _sys

__version__ = "0.1.0"

_EXPORTS = {
    "errors": (
        "BadFlag",
        "BstError",
        "CycleDetected",
        "EmptyModel",
        "InvalidSpread",
        "MisclassifiedEvent",
        "NotEigenstate",
        "NotInconsistencyType",
        "ParseError",
        "PreconditionFailed",
        "SameHistory",
        "UnknownPoint",
        "UnknownReference",
    ),
    "model": (
        "CausalModel",
        "History",
        "ValidationReport",
        "build_model",
        "check_density",
        "check_infima_suprema",
        "check_prior_choice",
        "choice_points",
        "compute_histories",
        "is_chain",
    ),
    "events": (
        "Event",
        "EventClassification",
        "GradeReport",
        "NSpread",
        "OutcomeVector",
        "Spread",
        "classify_event",
        "consistency_grade",
        "is_consistent",
        "is_spacelike",
        "validate_spread",
    ),
    "common_cause": (
        "CommonCauseReport",
        "LevelReport",
        "atomic_spreads",
        "build_toy_decay",
        "check_common_cause",
        "classify_determinism",
        "search_common_causes",
        "toy_decay_document",
    ),
    "ghz": (
        "THEOREM_CONTEXTS",
        "CandidateProfile",
        "GhzVector",
        "ReductioTrace",
        "RefutationResult",
        "build_abstract_structure",
        "build_concrete_model",
        "contextual_assignment_search",
        "ghz_document",
        "nspread_name",
        "parity_consistent",
        "refute_joint_common_cause",
        "value_assignment_search",
    ),
    "quantum": (
        "DiscrepancyReport",
        "EigencheckResult",
        "ObservableSpec",
        "compare_with_stipulation",
        "ghz_state",
        "omega_eigencheck",
        "outcome_probability",
    ),
    "document": (
        "ModelDocument",
        "dump_document",
        "load_document",
        "resolve_document",
    ),
}

_ORIGIN = {name: module for module, names in _EXPORTS.items() for name in names}

# the modules are public names too, so ``from bstghz import *`` binds them
__all__ = [*_ORIGIN, *_EXPORTS]


def _load(module):
    name = f"{__name__}.{module}"
    __import__(name)
    return _sys.modules[name]


def __getattr__(name):
    if name in _EXPORTS:
        # importing a submodule binds it in these globals
        return _load(name)
    if name not in _ORIGIN:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(_load(_ORIGIN[name]), name)
    return value


def __dir__():
    return sorted({*globals(), *__all__})
