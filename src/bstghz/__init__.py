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
"""

from .errors import (
    BadFlag,
    BstError,
    CycleDetected,
    EmptyModel,
    InvalidSpread,
    MisclassifiedEvent,
    NotEigenstate,
    NotInconsistencyType,
    ParseError,
    PreconditionFailed,
    SameHistory,
    UnknownPoint,
    UnknownReference,
)
from .model import (
    CausalModel,
    History,
    ValidationReport,
    build_model,
    check_density,
    check_infima_suprema,
    check_prior_choice,
    choice_points,
    compute_histories,
    is_chain,
)
from .events import (
    Event,
    EventClassification,
    GradeReport,
    NSpread,
    OutcomeVector,
    Spread,
    classify_event,
    consistency_grade,
    is_consistent,
    is_spacelike,
    validate_spread,
)
from .common_cause import (
    CommonCauseReport,
    LevelReport,
    atomic_spreads,
    build_toy_decay,
    check_common_cause,
    classify_determinism,
    search_common_causes,
    toy_decay_document,
)
from .ghz import (
    THEOREM_CONTEXTS,
    CandidateProfile,
    GhzVector,
    ReductioTrace,
    RefutationResult,
    build_abstract_structure,
    build_concrete_model,
    contextual_assignment_search,
    ghz_document,
    nspread_name,
    parity_consistent,
    refute_joint_common_cause,
    value_assignment_search,
)
from .quantum import (
    DiscrepancyReport,
    EigencheckResult,
    ObservableSpec,
    compare_with_stipulation,
    ghz_state,
    omega_eigencheck,
    outcome_probability,
)
from .document import (
    ModelDocument,
    dump_document,
    load_document,
    resolve_document,
)

__version__ = "0.1.0"
