"""Finite branching space-time models and the GHZ no-common-cause result.

The package splits into a generic layer (causal models, histories,
events, spreads, consistency grading) and a scenario layer (the
three-station parity setup, its 53-point realization, the common-cause
checker and the exhaustive refutation, and an exact quantum cross-check).
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
    enumerate_outcome_vectors,
    is_consistent,
    is_spacelike,
    validate_spread,
)
from .ghz import (
    THEOREM_CONTEXTS,
    GhzStructure,
    GhzVector,
    build_abstract_structure,
    build_concrete_model,
    contextual_assignment_search,
    ghz_document,
    parity_consistent,
    value_assignment_search,
)
from .common_cause import (
    CandidateProfile,
    CommonCauseReport,
    LevelReport,
    ReductioTrace,
    RefutationResult,
    atomic_spreads,
    build_toy_decay,
    check_common_cause,
    classify_determinism,
    refute_joint_common_cause,
    search_common_causes,
    toy_decay_document,
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
