"""Screening common causes: the checker, the search, and the refutation.

``check_common_cause`` tests the three *necessary* conditions for a
spread sigma to count as a common cause of an inconsistent outcome
vector c of a space-like, 1-consistent n-spread:

* cc1 (causal priority): the initial of sigma strictly precedes every
  point of every outcome of every spread of the n-spread;
* cc2 (consistency): each outcome of sigma is consistent with the set of
  initials of the n-spread;
* cc3 (screening): each outcome of sigma is inconsistent with at least
  one single term of c.

Passing all three does not *establish* a common cause, which is why the
interesting direction is the refutation.  ``refute_joint_common_cause``
works over candidate profiles: a profile assigns to each of the twelve
GHZ outcome events a flag saying whether some hypothetical common cause
outcome is consistent with it.  Conditions cc2 (plus the equivalences
relating spread initials to their outcomes) force, per measurement
context, some parity consistent vector whose three terms are all flagged
consistent; condition cc3 forbids any parity inconsistent vector from
being fully flagged.  cc1 is deliberately unused: the refutation does
not need causal priority.  Exhausting all 2^12 profiles with zero
survivors closes every case at once, and a step-by-step reductio trace
replays the classic derivation for the xxx/xxy/xyy/xyx family.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

from .document import ModelDocument, model_document
from .errors import InvalidSpread, NotInconsistencyType, PreconditionFailed
from .events import (
    Event,
    NSpread,
    OutcomeVector,
    Spread,
    consistency_grade,
    is_consistent,
    is_spacelike,
    validate_spread,
    _require_valid,
)
from .ghz import (
    ALL_CONTEXTS,
    OUTCOME_EVENT_ORDER,
    SIGNS,
    STATIONS,
    Context,
    GhzStructure,
    GhzVector,
    consistent_vectors,
    context_label,
    inconsistent_vectors,
    outcome_name,
    parity_consistent,
    stable_name,
)
from .model import CausalModel, build_model


@dataclass(frozen=True)
class ConditionResult:
    passed: bool
    witnesses: tuple[str, ...] = ()


@dataclass(frozen=True)
class CommonCauseReport:
    """Verdict of the three screening conditions for one vector."""

    vector: tuple[str, ...]
    cc1: ConditionResult
    cc2: ConditionResult
    cc3: ConditionResult

    @property
    def passed(self) -> bool:
        return self.cc1.passed and self.cc2.passed and self.cc3.passed


def _require_cc_preconditions(model: CausalModel, ns: NSpread) -> None:
    _require_valid(model, ns)
    if not is_spacelike(model, ns):
        raise PreconditionFailed("the n-spread is not space-like")
    if not consistency_grade(model, ns).one_consistent:
        raise PreconditionFailed("the n-spread is not 1-consistent")


def _require_vector_of(ns: NSpread, vector: OutcomeVector) -> None:
    if len(vector.terms) != len(ns.spreads):
        raise ValueError(
            f"vector has {len(vector.terms)} terms for "
            f"{len(ns.spreads)} spreads"
        )
    for term, spread in zip(vector.terms, ns.spreads):
        if term not in spread.outcomes:
            raise ValueError(
                f"{term.name!r} is not an outcome of the spread at "
                f"{spread.initial.name!r}"
            )


def _cc_conditions(
    model: CausalModel,
    sigma: Spread,
    ns: NSpread,
    vector: OutcomeVector,
) -> CommonCauseReport:
    cc1_witnesses: list[str] = []
    for s in ns.spreads:
        for o in s.outcomes:
            for pi in sorted(sigma.initial.members):
                for po in sorted(o.members):
                    if not model.lt(pi, po):
                        cc1_witnesses.append(
                            f"{pi} is not strictly below {po} "
                            f"(outcome {o.name})"
                        )
    cc2_witnesses = [
        f"{o.name} is not consistent with the initials"
        for o in sigma.outcomes
        if not is_consistent(model, ns.initials, (o,))
    ]
    cc3_witnesses: list[str] = []
    cc3_ok = True
    for o in sigma.outcomes:
        screen = next(
            (
                t
                for t in vector.terms
                if not is_consistent(model, (), (o, t))
            ),
            None,
        )
        if screen is None:
            cc3_ok = False
            cc3_witnesses.append(
                f"{o.name} is consistent with every term of the vector"
            )
        else:
            cc3_witnesses.append(f"{o.name} is inconsistent with {screen.name}")
    return CommonCauseReport(
        vector=vector.names,
        cc1=ConditionResult(not cc1_witnesses, tuple(cc1_witnesses)),
        cc2=ConditionResult(not cc2_witnesses, tuple(cc2_witnesses)),
        cc3=ConditionResult(cc3_ok, tuple(cc3_witnesses)),
    )


def check_common_cause(
    model: CausalModel,
    sigma: Spread,
    ns: NSpread,
    vector: OutcomeVector,
) -> CommonCauseReport:
    """Test cc1..cc3 for sigma against an inconsistent vector of ns.

    Raises :class:`InvalidSpread` for malformed spreads,
    :class:`PreconditionFailed` when the n-spread is not space-like and
    1-consistent, and :class:`NotInconsistencyType` when the vector is
    consistent (nothing then calls for a common cause).
    """
    report = validate_spread(model, sigma)
    if not report.ok:
        raise InvalidSpread(
            f"candidate spread at {sigma.initial.name!r} is invalid: "
            + "; ".join(report.violations)
        )
    _require_cc_preconditions(model, ns)
    _require_vector_of(ns, vector)
    if is_consistent(model, (), vector.terms):
        raise NotInconsistencyType(
            f"vector {vector.label()} is consistent; the screening "
            "conditions apply to inconsistent vectors only"
        )
    return _cc_conditions(model, sigma, ns, vector)


def atomic_spreads(model: CausalModel) -> tuple[Spread, ...]:
    """Candidate spreads carved out of the model's own branching.

    One candidate per non-maximal point: the point as singleton initial,
    its covers as singleton outcomes.  Candidates failing the spread
    conditions (for instance when two covers share a history) are
    dropped.
    """
    out: list[Spread] = []
    for p in model.points:
        cov = model.covers(p)
        if not cov:
            continue
        spread = Spread(
            initial=Event(name=p, members=frozenset({p})),
            outcomes=tuple(
                Event(name=q, members=frozenset({q})) for q in cov
            ),
        )
        if validate_spread(model, spread).ok:
            out.append(spread)
    return tuple(out)


@dataclass(frozen=True)
class CommonCauseSearch:
    candidates_considered: int
    passing: tuple[Spread, ...]
    vacuous: bool
    notes: tuple[str, ...] = ()


def search_common_causes(
    model: CausalModel,
    ns_list: Sequence[NSpread],
    vectors: Sequence[OutcomeVector],
) -> CommonCauseSearch:
    """Scan atomic candidate spreads for one passing cc1..cc3 everywhere.

    ``vectors[k]`` must be an inconsistent outcome vector of
    ``ns_list[k]``; a candidate passes only if it meets all three
    conditions for every listed pair.  An empty target list makes the
    search vacuous, which the result flags.
    """
    if len(ns_list) != len(vectors):
        raise ValueError("ns_list and vectors must pair up one to one")
    distinct: list[NSpread] = []
    for ns in ns_list:
        if not any(ns is seen or ns == seen for seen in distinct):
            distinct.append(ns)
    for ns in distinct:
        _require_cc_preconditions(model, ns)
    for ns, v in zip(ns_list, vectors):
        _require_vector_of(ns, v)
        if is_consistent(model, (), v.terms):
            raise PreconditionFailed(
                f"vector {v.label()} is consistent; only inconsistent "
                "vectors call for a common cause"
            )
    candidates = atomic_spreads(model)
    passing = tuple(
        cand
        for cand in candidates
        if all(
            _cc_conditions(model, cand, ns, v).passed
            for ns, v in zip(ns_list, vectors)
        )
    )
    vacuous = not ns_list
    notes = (
        ("no target vectors were supplied; every candidate passes vacuously",)
        if vacuous
        else ()
    )
    return CommonCauseSearch(
        candidates_considered=len(candidates),
        passing=passing,
        vacuous=vacuous,
        notes=notes,
    )


# -- exhaustive profile refutation ----------------------------------------


@dataclass(frozen=True)
class CandidateProfile:
    """Flags, per GHZ outcome event, of consistency with a hypothetical
    common cause outcome; aligned with ``OUTCOME_EVENT_ORDER``."""

    flags: tuple[bool, ...]

    def __post_init__(self) -> None:
        if len(self.flags) != len(OUTCOME_EVENT_ORDER):
            raise ValueError(
                f"profile needs {len(OUTCOME_EVENT_ORDER)} flags"
            )

    def as_dict(self) -> dict[str, bool]:
        return dict(zip(OUTCOME_EVENT_ORDER, self.flags))

    def consistent_events(self) -> tuple[str, ...]:
        return tuple(
            n for n, f in zip(OUTCOME_EVENT_ORDER, self.flags) if f
        )


def surviving_profiles(
    event_names: Sequence[str],
    groups: Sequence[tuple[Sequence[tuple[str, ...]], Sequence[tuple[str, ...]]]],
) -> list[tuple[bool, ...]]:
    """Profiles over the given events surviving all constraint groups.

    Each group is (consistent vectors, inconsistent vectors), a vector
    being a tuple of event names.  A profile survives when, per group,
    some consistent vector has all terms flagged and no inconsistent
    vector does.  Survivors come back sorted lexicographically (False
    before True, first event most significant).
    """
    index = {n: k for k, n in enumerate(event_names)}

    def mask(vector: tuple[str, ...]) -> int:
        m = 0
        for n in vector:
            m |= 1 << index[n]
        return m

    compiled = [
        ([mask(v) for v in cons], [mask(v) for v in inc])
        for cons, inc in groups
    ]
    survivors = []
    for m in range(1 << len(event_names)):
        ok = all(
            any(m & cm == cm for cm in cons)
            and not any(m & im == im for im in inc)
            for cons, inc in compiled
        )
        if ok:
            survivors.append(
                tuple(bool(m >> k & 1) for k in range(len(event_names)))
            )
    survivors.sort()
    return survivors


def profile_satisfies_constraints(
    profile: CandidateProfile, contexts: Sequence[Context]
) -> bool:
    """Plain re-check of the two survival conditions, without bit tricks."""
    flags = profile.as_dict()
    for ctx in contexts:
        if not any(
            all(flags[n] for n in v.outcome_names)
            for v in consistent_vectors(ctx)
        ):
            return False
        if any(
            all(flags[n] for n in v.outcome_names)
            for v in inconsistent_vectors(ctx)
        ):
            return False
    return True


@dataclass(frozen=True)
class TraceStep:
    rule: str  # "cc2-existence" | "cc3-screening" | "contradiction"
    context: str
    detail: str
    conclusion: str


@dataclass(frozen=True)
class ReductioTrace:
    """A step-by-step derivation of the contradiction, when one linear
    derivation exists; ``complete`` is False when the refutation rests on
    the exhaustive profile search alone."""

    steps: tuple[TraceStep, ...]
    complete: bool
    note: str = ""


class _Derivation:
    """Records facts of the form 'the candidate outcome is (in)consistent
    with outcome event e' and the justified steps deriving them."""

    def __init__(self, contexts: Sequence[Context]):
        self.contexts = list(contexts)
        self.facts: dict[str, bool] = {}
        self.steps: list[TraceStep] = []

    def start(self, vector: GhzVector) -> None:
        if vector.context not in self.contexts or not parity_consistent(vector):
            raise RuntimeError("start vector must be consistent and listed")
        for n in vector.outcome_names:
            self.facts[n] = True
        names = ", ".join(vector.outcome_names)
        self.steps.append(
            TraceStep(
                rule="cc2-existence",
                context=context_label(vector.context),
                detail=f"consistent vector {vector.label()}",
                conclusion=(
                    "the candidate outcome is consistent with each of "
                    + names
                ),
            )
        )

    def screen(self, vector: GhzVector) -> str:
        if vector.context not in self.contexts or parity_consistent(vector):
            raise RuntimeError("screening needs a listed inconsistent vector")
        names = vector.outcome_names
        unknown = [n for n in names if n not in self.facts]
        if len(unknown) != 1 or not all(
            self.facts[n] for n in names if n not in unknown
        ):
            raise RuntimeError(f"screening step not forced for {vector.label()}")
        target = unknown[0]
        self.facts[target] = False
        self.steps.append(
            TraceStep(
                rule="cc3-screening",
                context=context_label(vector.context),
                detail=f"inconsistent vector {vector.label()}",
                conclusion=f"the candidate outcome is inconsistent with {target}",
            )
        )
        return target

    def _context_with(self, station: int, axis: str) -> Context:
        for ctx in self.contexts:
            if ctx[station - 1] == axis:
                return ctx
        raise RuntimeError(f"no listed context measures {axis} at {station}")

    def settle(self, station: int, axis: str) -> str:
        ctx = self._context_with(station, axis)
        names = [outcome_name(station, axis, s) for s in SIGNS]
        false = [n for n in names if self.facts.get(n) is False]
        open_ = [n for n in names if n not in self.facts]
        if len(false) != 1 or len(open_) != 1:
            raise RuntimeError(
                f"settling {stable_name(station, axis)} is not forced"
            )
        target = open_[0]
        self.facts[target] = True
        self.steps.append(
            TraceStep(
                rule="cc2-existence",
                context=context_label(ctx),
                detail=(
                    f"stable initial {stable_name(station, axis)} branches "
                    f"to {names[0]} or {names[1]}"
                ),
                conclusion=f"the candidate outcome is consistent with {target}",
            )
        )
        return target

    def contradiction(self, station: int, axis: str) -> ReductioTrace:
        ctx = self._context_with(station, axis)
        names = [outcome_name(station, axis, s) for s in SIGNS]
        if not all(self.facts.get(n) is False for n in names):
            raise RuntimeError("contradiction step not reached")
        self.steps.append(
            TraceStep(
                rule="contradiction",
                context=context_label(ctx),
                detail=f"stable event {stable_name(station, axis)}",
                conclusion=(
                    f"the candidate outcome is inconsistent with both "
                    f"{names[0]} and {names[1]}, although consistency with "
                    f"{stable_name(station, axis)} requires one of them"
                ),
            )
        )
        return ReductioTrace(steps=tuple(self.steps), complete=True)


def _canonical_trace(contexts: Sequence[Context]) -> ReductioTrace | None:
    """The fixed derivation for the xxx/xxy/xyy/xyx family.

    Every step is validated against the parity facts as it is replayed;
    the persuasive start vector is x+1, x-2, x+3.
    """
    needed = {
        ("x", "x", "x"),
        ("x", "x", "y"),
        ("x", "y", "y"),
        ("x", "y", "x"),
    }
    if not needed <= set(contexts):
        return None
    d = _Derivation(contexts)
    d.start(GhzVector(context=("x", "x", "x"), signs=(1, -1, 1)))
    d.screen(GhzVector(context=("x", "x", "y"), signs=(1, -1, 1)))
    d.settle(3, "y")
    d.screen(GhzVector(context=("x", "y", "y"), signs=(1, 1, -1)))
    d.screen(GhzVector(context=("x", "y", "x"), signs=(1, -1, 1)))
    return d.contradiction(2, "y")


def _propagated_trace(contexts: Sequence[Context]) -> ReductioTrace | None:
    """Forward chaining fallback for other context families.

    Starts from each consistent vector of the first listed context in
    turn and applies forced screening / settling steps until a
    contradiction or a fixpoint.  Returns None when no start closes
    without case splitting.
    """
    stations_axes: list[tuple[int, str]] = []
    for ctx in contexts:
        for i in STATIONS:
            if (i, ctx[i - 1]) not in stations_axes:
                stations_axes.append((i, ctx[i - 1]))

    for start in consistent_vectors(contexts[0]):
        d = _Derivation(contexts)
        d.start(start)
        while True:
            progressed = False
            for ctx in contexts:
                for v in inconsistent_vectors(ctx):
                    names = v.outcome_names
                    known = [d.facts.get(n) for n in names]
                    if all(k is True for k in known):
                        d.steps.append(
                            TraceStep(
                                rule="contradiction",
                                context=context_label(ctx),
                                detail=f"inconsistent vector {v.label()}",
                                conclusion=(
                                    "every term of an inconsistent vector "
                                    "came out consistent"
                                ),
                            )
                        )
                        return ReductioTrace(
                            steps=tuple(d.steps), complete=True
                        )
                    unknown = [n for n in names if n not in d.facts]
                    if len(unknown) == 1 and all(
                        d.facts[n] for n in names if n not in unknown
                    ):
                        d.screen(v)
                        progressed = True
            for station, axis in stations_axes:
                names = [outcome_name(station, axis, s) for s in SIGNS]
                vals = [d.facts.get(n) for n in names]
                if vals.count(False) == 2:
                    return d.contradiction(station, axis)
                if vals.count(False) == 1 and vals.count(None) == 1:
                    d.settle(station, axis)
                    progressed = True
            if not progressed:
                break
    return None


@dataclass(frozen=True)
class RefutationResult:
    contexts: tuple[Context, ...]
    profile_count: int
    survivors: tuple[CandidateProfile, ...]
    witness: CandidateProfile | None
    trace: ReductioTrace | None
    notes: tuple[str, ...] = ()


def refute_joint_common_cause(
    structure: GhzStructure, contexts: Iterable[Context]
) -> RefutationResult:
    """Exhaust all candidate profiles against the listed contexts.

    Zero survivors means no assignment of consistency flags to the twelve
    outcome events respects both the existence of a fully consistent
    parity vector per context (from cc2) and the screening of every
    inconsistent vector (from cc3); causal priority (cc1) is never used.
    A nonzero count is *not* evidence for a common cause, since only
    necessary conditions are encoded; the result says so.
    """
    ctx_list: list[Context] = []
    for ctx in contexts:
        if ctx not in ALL_CONTEXTS:
            raise ValueError(f"unknown context: {ctx!r}")
        if ctx not in ctx_list:
            ctx_list.append(ctx)
    for name in OUTCOME_EVENT_ORDER:
        if name not in structure.events:
            raise ValueError(f"structure lacks outcome event {name!r}")

    groups = [
        (
            [v.outcome_names for v in consistent_vectors(ctx)],
            [v.outcome_names for v in inconsistent_vectors(ctx)],
        )
        for ctx in ctx_list
    ]
    flags = surviving_profiles(OUTCOME_EVENT_ORDER, groups)
    survivors = tuple(CandidateProfile(flags=f) for f in flags)

    notes: list[str] = []
    trace: ReductioTrace | None = None
    if not ctx_list:
        notes.append("no contexts listed; every profile survives vacuously")
    if survivors:
        notes.append(
            "surviving profiles satisfy necessary conditions only; they do "
            "not establish that a common cause exists"
        )
    else:
        trace = _canonical_trace(ctx_list) or _propagated_trace(ctx_list)
        if trace is None:
            trace = ReductioTrace(
                steps=(),
                complete=False,
                note=(
                    "no single-branch derivation closes for this family; "
                    "the refutation rests on the exhaustive profile search"
                ),
            )
        notes.append(
            "every profile violates the existence or screening constraints"
        )
    return RefutationResult(
        contexts=tuple(ctx_list),
        profile_count=2 ** len(OUTCOME_EVENT_ORDER),
        survivors=survivors,
        witness=survivors[0] if survivors else None,
        trace=trace,
        notes=tuple(notes),
    )


# -- determinism levels ---------------------------------------------------


@dataclass(frozen=True)
class LevelReport:
    """Indeterminism classification of a model.

    ``level`` is "I" (a single history, hence no branching at all) or
    "indeterministic".  ``level3_evidence`` is set when some supplied
    n-spread exhibits inconsistent outcome vectors that no atomic spread
    of the model screens; that is evidence of correlations without a
    common cause in this model, never a proof that none could exist.
    """

    level: str
    history_count: int
    level3_evidence: bool
    notes: tuple[str, ...] = ()


def classify_determinism(
    model: CausalModel, nspreads: Sequence[NSpread] = ()
) -> LevelReport:
    count = len(model.histories)
    if count == 1:
        return LevelReport(
            level="I",
            history_count=1,
            level3_evidence=False,
            notes=("a single history leaves nothing undetermined",),
        )
    notes: list[str] = []
    evidence = False
    for ns in nspreads:
        _require_cc_preconditions(model, ns)
        inconsistent = consistency_grade(model, ns).inconsistent_vectors
        if not inconsistent:
            notes.append(
                f"n-spread at {ns.spreads[0].initial.name}: no inconsistent "
                "vectors"
            )
            continue
        found = search_common_causes(
            model, [ns] * len(inconsistent), list(inconsistent)
        )
        if found.passing:
            names = ", ".join(s.initial.name for s in found.passing)
            notes.append(
                f"n-spread at {ns.spreads[0].initial.name}: screened by "
                f"atomic spreads at {names}"
            )
        else:
            evidence = True
            notes.append(
                f"n-spread at {ns.spreads[0].initial.name}: "
                f"{len(inconsistent)} inconsistent vectors, no screening "
                "atomic spread"
            )
    if evidence:
        notes.append(
            "evidence only: the absence of a screening spread in this "
            "model does not prove that none could exist"
        )
    return LevelReport(
        level="indeterministic",
        history_count=count,
        level3_evidence=evidence,
        notes=tuple(notes),
    )


# -- a small positive control ---------------------------------------------


@dataclass(frozen=True)
class ToyDecayScenario:
    """Two anticorrelated stations fed by one decay point.

    The decay point d branches to d- and d+; d+ forces station a to read
    + and station b to read -, and d- the reverse.  The equal-sign
    vectors are inconsistent, and the decay spread passes cc1..cc3 for
    both of them, which makes this the positive control for the checker.
    """

    model: CausalModel
    events: Mapping[str, Event]
    decay_spread: Spread
    station_nspread: NSpread
    inconsistent: tuple[OutcomeVector, ...]


def build_toy_decay() -> ToyDecayScenario:
    points = ["d", "d-", "d+", "a", "a-", "a+", "b", "b-", "b+", "m1", "m2"]
    pairs = [
        ("d", "d-"),
        ("d", "d+"),
        ("a", "a-"),
        ("a", "a+"),
        ("b", "b-"),
        ("b", "b+"),
        ("d+", "a+"),
        ("d+", "b-"),
        ("d-", "a-"),
        ("d-", "b+"),
        ("a+", "m1"),
        ("b-", "m1"),
        ("a-", "m2"),
        ("b+", "m2"),
    ]
    model = build_model(points, pairs)
    events = {
        n: Event(name=n, members=frozenset({n}))
        for n in points
        if n not in ("m1", "m2")
    }
    sigma_a = Spread(
        initial=events["a"], outcomes=(events["a-"], events["a+"])
    )
    sigma_b = Spread(
        initial=events["b"], outcomes=(events["b-"], events["b+"])
    )
    sigma_d = Spread(
        initial=events["d"], outcomes=(events["d-"], events["d+"])
    )
    ns = NSpread(spreads=(sigma_a, sigma_b))
    inconsistent = (
        OutcomeVector(terms=(events["a-"], events["b-"])),
        OutcomeVector(terms=(events["a+"], events["b+"])),
    )
    return ToyDecayScenario(
        model=model,
        events=events,
        decay_spread=sigma_d,
        station_nspread=ns,
        inconsistent=inconsistent,
    )


def toy_decay_document() -> ModelDocument:
    """The anticorrelated decay scenario as a document."""
    toy = build_toy_decay()
    a, b = toy.station_nspread.spreads
    return model_document(
        toy.model,
        toy.events,
        {"sigma_a": a, "sigma_b": b, "sigma_d": toy.decay_spread},
        {"Sigma_ab": toy.station_nspread},
    )
