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

Each condition's verdict is one mask test on the model's bitsets, shared
by the checker and the search: cc1 asks whether the outcome points of
the n-spread lie inside the points above sigma's initial, cc2 and cc3
AND history masks.  Witness lines are worded only for a report: cc1 and
cc2 when the condition fails, cc3 per outcome of sigma.  The search
(``search_common_causes``) reads the verdicts alone, on masks memoised
per model for the atomic candidates and per n-spread once its
preconditions pass.

Passing all three does not *establish* a common cause, which is why the
interesting direction is the refutation.  ``refute_joint_common_cause``
works over candidate profiles: a profile assigns to each of the twelve
GHZ outcome events a flag saying whether some hypothetical common cause
outcome is consistent with it.  Conditions cc2 (plus the equivalences
relating spread initials to their outcomes) force, per measurement
context, some parity consistent vector whose three terms are all flagged
consistent; condition cc3 forbids any parity inconsistent vector from
being fully flagged.  cc1 is deliberately unused: the refutation does
not need causal priority.

One propagation engine over the twelve flags (unit propagation with
case splits, after Davis, Logemann and Loveland) finds the survivors
and, when there are none, derives the contradiction.
Its contradictions, on a full profile exactly the survival conditions,
are an inconsistent vector with every term flagged consistent (cc3) and
a measured station/axis with both outcomes flagged inconsistent (cc2
through its stable initial); its forced steps are screening and
settling (see ``_close``).  Branching on the lowest open flag,
"inconsistent" first, lists the survivors in lexicographic order.  A
refuted family gets a derivation from the same search: it starts from a
consistent vector of the first listed context, records one
justification per derived fact, and prints the facts each contradiction
rests on.  The paper's start x+1, x-2, x+3 is preferred, so the
xxx/xxy/xyy/xyx family replays Mermin's derivation step for step.
"""

from __future__ import annotations

import functools
import operator
from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping, Sequence

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
    _history_masks,
    _not_below,
    _one_consistent,
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
    stable_name,
)
from .model import CausalModel, bit_indices, build_model


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


def _nspread_masks(model: CausalModel, ns: NSpread) -> tuple[int, int]:
    """The points of every outcome of ``ns``, and the histories that
    contain all of its initials."""
    pts = model.mask(
        p for s in ns.spreads for o in s.outcomes for p in o.members
    )
    hist = functools.reduce(
        operator.and_,
        (_history_masks(model, e, "initial")[0] for e in ns.initials),
    )
    return pts, hist


def _require_cc_preconditions(
    model: CausalModel, ns: NSpread
) -> tuple[int, int]:
    """Check that ``ns`` is space-like and 1-consistent; return its masks.

    A pass is memoised on the model, keyed by the n-spread, as
    :func:`_nspread_masks`; a failing n-spread raises on every call.
    """
    key = (_require_cc_preconditions, ns)
    masks = model.memo.get(key)
    if masks is None:
        if not is_spacelike(model, ns):
            raise PreconditionFailed("the n-spread is not space-like")
        # is_spacelike validated the spreads and found the initials consistent
        if not _one_consistent(model, ns):
            raise PreconditionFailed("the n-spread is not 1-consistent")
        masks = model.memo[key] = _nspread_masks(model, ns)
    return masks


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


def _above(model: CausalModel, event: Event) -> int:
    """The points strictly above every point of ``event``."""
    return functools.reduce(
        operator.and_,
        (model.up[i] for i in bit_indices(model.mask(event.members))),
    )


def _overlaps(
    model: CausalModel, events: Iterable[Event]
) -> tuple[int, ...]:
    """Per event, the histories overlapping it."""
    return tuple(_history_masks(model, e, "outcome")[1] for e in events)


# The three screening conditions as mask tests.  ``above`` and ``outs`` are
# the candidate's (``_above``, ``_overlaps`` of its outcomes), ``pts`` and
# ``hist`` the n-spread's (``_nspread_masks``), ``terms`` the vector's
# ``_overlaps``.


def _cc1(above: int, pts: int) -> bool:
    return pts & ~above == 0


def _cc2(hist: int, outs: tuple[int, ...]) -> bool:
    return all(hist & m for m in outs)


def _cc3(outs: tuple[int, ...], terms: tuple[int, ...]) -> bool:
    return all(any(not m & t for t in terms) for m in outs)


def _cc_conditions(
    model: CausalModel,
    sigma: Spread,
    ns: NSpread,
    vector: OutcomeVector,
) -> CommonCauseReport:
    """The report of cc1..cc3: verdicts from the mask tests, cc1 and cc2
    witnesses worded only on a failure, a cc3 line per candidate outcome."""
    pts, hist = _nspread_masks(model, ns)
    outs = _overlaps(model, sigma.outcomes)
    terms = _overlaps(model, vector.terms)
    cc1_ok = _cc1(_above(model, sigma.initial), pts)
    cc1_witnesses = () if cc1_ok else tuple(
        f"{p} is not strictly below {q} (outcome {o.name})"
        for s in ns.spreads
        for o in s.outcomes
        for p, q in _not_below(model, sigma.initial, o)
    )
    cc2_ok = _cc2(hist, outs)
    cc2_witnesses = () if cc2_ok else tuple(
        f"{o.name} is not consistent with the initials"
        for o, m in zip(sigma.outcomes, outs)
        if not hist & m
    )
    cc3_witnesses = []
    for o, m in zip(sigma.outcomes, outs):
        screen = next(
            (t for t, tm in zip(vector.terms, terms) if not m & tm), None
        )
        cc3_witnesses.append(
            f"{o.name} is consistent with every term of the vector"
            if screen is None
            else f"{o.name} is inconsistent with {screen.name}"
        )
    return CommonCauseReport(
        vector=vector.names,
        cc1=ConditionResult(cc1_ok, cc1_witnesses),
        cc2=ConditionResult(cc2_ok, cc2_witnesses),
        cc3=ConditionResult(_cc3(outs, terms), tuple(cc3_witnesses)),
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
    dropped.  The candidates depend on the model alone and are memoised
    on it.
    """
    memo = model.memo
    if atomic_spreads in memo:
        return memo[atomic_spreads]
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
    memo[atomic_spreads] = tuple(out)
    return memo[atomic_spreads]


@dataclass(frozen=True)
class CommonCauseSearch:
    candidates_considered: int
    passing: tuple[Spread, ...]
    vacuous: bool
    notes: tuple[str, ...] = ()


def _candidate_masks(
    model: CausalModel,
) -> tuple[tuple[int, tuple[int, ...]], ...]:
    """Per atomic candidate, ``_above`` of its initial and ``_overlaps`` of
    its outcomes; memoised on the model like the candidates."""
    memo = model.memo
    if _candidate_masks not in memo:
        memo[_candidate_masks] = tuple(
            (_above(model, s.initial), _overlaps(model, s.outcomes))
            for s in atomic_spreads(model)
        )
    return memo[_candidate_masks]


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

    The verdicts are the mask tests ``_cc1``, ``_cc2`` and ``_cc3`` that
    ``check_common_cause`` reports from, on the masks of each distinct
    n-spread (told apart by identity) and each distinct vector; no
    witness is worded.  A candidate stops at its first failing test.
    """
    if len(ns_list) != len(vectors):
        raise ValueError("ns_list and vectors must pair up one to one")
    distinct = {id(ns): ns for ns in ns_list}
    masks = [_require_cc_preconditions(model, ns) for ns in distinct.values()]
    targets = set()
    for ns, v in zip(ns_list, vectors):
        _require_vector_of(ns, v)
        terms = _overlaps(model, v.terms)
        if functools.reduce(operator.and_, terms):
            raise PreconditionFailed(
                f"vector {v.label()} is consistent; only inconsistent "
                "vectors call for a common cause"
            )
        targets.add(terms)
    pts = functools.reduce(operator.or_, (p for p, _ in masks), 0)
    hists = {h for _, h in masks}
    candidates = atomic_spreads(model)
    passing = tuple(
        cand
        for cand, (above, outs) in zip(candidates, _candidate_masks(model))
        if _cc1(above, pts)
        and all(_cc2(h, outs) for h in hists)
        and all(_cc3(outs, terms) for terms in targets)
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


@dataclass(frozen=True)
class TraceStep:
    # "cc2-existence" | "cc3-screening" | "case-split" | "contradiction"
    rule: str
    context: str
    detail: str
    conclusion: str


@dataclass(frozen=True)
class ReductioTrace:
    """The derivation of the contradiction.  A ``case-split`` step opens a
    branch that runs to its own ``contradiction``; the other case of the
    same flag follows it."""

    steps: tuple[TraceStep, ...]
    complete: bool


@dataclass(frozen=True, eq=False)
class _Fact:
    """A trace step and the facts it was derived from."""

    step: TraceStep
    premises: tuple[_Fact, ...] = ()


# The paper's start, x+1, x-2, x+3: preferred whenever it is a candidate.
_PREFERRED_START = GhzVector(context=("x", "x", "x"), signs=(1, -1, 1))
_BIT = {n: 1 << k for k, n in enumerate(OUTCOME_EVENT_ORDER)}
_ALL_FLAGS = (1 << len(OUTCOME_EVENT_ORDER)) - 1
_IS = "the candidate outcome is "
# Compiled rules: a screen per inconsistent vector of a listed context,
# (context, detail, term mask); a stable per measured station/axis in order
# of first appearance, (first context measuring it, its name, minus bit,
# plus bit).
_Screen = tuple[str, str, int]
_Stable = tuple[str, str, int, int]


def _name(bit: int) -> str:
    return OUTCOME_EVENT_ORDER[bit.bit_length() - 1]


def _fact(
    why: dict[int, _Fact], mask: int, rule: str, ctx: str, *text: str
) -> _Fact:
    """A step whose premises are the facts of the flags in ``mask``."""
    premises = tuple(why[b] for b in _BIT.values() if mask & b)
    return _Fact(TraceStep(rule, ctx, *text), premises)


def _compile(
    contexts: Sequence[Context],
) -> tuple[list[_Screen], list[_Stable]]:
    screens = [
        (
            context_label(ctx),
            f"inconsistent vector {v.label()}",
            sum(_BIT[n] for n in v.outcome_names),
        )
        for ctx in contexts
        for v in inconsistent_vectors(ctx)
    ]
    stables: dict[str, _Stable] = {}
    for ctx in contexts:
        for i, a in zip(STATIONS, ctx):
            name = stable_name(i, a)
            lo, hi = (_BIT[outcome_name(i, a, s)] for s in SIGNS)
            stables.setdefault(name, (context_label(ctx), name, lo, hi))
    return screens, list(stables.values())


def _close(
    screens: list[_Screen],
    stables: list[_Stable],
    t: int,
    f: int,
    why: dict[int, _Fact] | None = None,
) -> tuple[int, int, _Fact | bool]:
    """Saturate t (flagged consistent) and f (flagged inconsistent).

    Contradictions are checked first.  Otherwise one forced step is taken
    and the scan restarts: screening (an inconsistent vector with all
    terms but one in t puts the last in f), else settling (a station/axis
    with one outcome in f puts the other in t).  Returns the flags and the
    contradiction, False if none; with ``why``, each derived flag's fact
    is recorded there and the contradiction comes back as a fact.
    """
    while True:
        for ctx, detail, m in screens:
            if t & m == m:
                return t, f, why is None or _fact(
                    why, m, "contradiction", ctx, detail,
                    "every term of an inconsistent vector came out "
                    "consistent",
                )
        for ctx, stable, lo, hi in stables:
            if f & lo and f & hi:
                return t, f, why is None or _fact(
                    why, lo | hi, "contradiction", ctx,
                    f"stable event {stable}",
                    f"{_IS}inconsistent with both {_name(lo)} and "
                    f"{_name(hi)}, although consistency with {stable} "
                    "requires one of them",
                )
        for ctx, detail, m in screens:
            rest = m & ~t
            if rest & (rest - 1) == 0 and not rest & f:
                f |= rest
                if why is not None:
                    why[rest] = _fact(
                        why, m & ~rest, "cc3-screening", ctx, detail,
                        f"{_IS}inconsistent with {_name(rest)}",
                    )
                break
        else:
            for ctx, stable, lo, hi in stables:
                settled = (lo | hi) & ~f
                if settled != lo | hi and not t & settled:
                    t |= settled
                    if why is not None:
                        why[settled] = _fact(
                            why, (lo | hi) & f, "cc2-existence", ctx,
                            f"stable initial {stable} branches to {_name(lo)} "
                            f"or {_name(hi)}",
                            f"{_IS}consistent with {_name(settled)}",
                        )
                    break
            else:
                return t, f, False


def _survivors(
    screens: list[_Screen], stables: list[_Stable], t: int = 0, f: int = 0
) -> Iterator[int]:
    """The surviving full masks t in lexicographic order (False before
    True, first event most significant): branch on the lowest open flag,
    "inconsistent" first."""
    t, f, clash = _close(screens, stables, t, f)
    if clash:
        return
    open_ = _ALL_FLAGS & ~(t | f)
    if not open_:
        yield t
        return
    bit = open_ & -open_
    yield from _survivors(screens, stables, t, f | bit)
    yield from _survivors(screens, stables, t | bit, f)


def _derive(
    screens: list[_Screen],
    stables: list[_Stable],
    t: int,
    f: int,
    why: dict[int, _Fact],
) -> _Fact | tuple:
    """A closed proof: the contradiction, or, when saturation stalls, the
    (case, proof) pairs of a split on the lowest open measured flag,
    "inconsistent" first.  On a refuted family every branch closes."""
    t, f, clash = _close(screens, stables, t, f, why)
    if clash:
        return clash
    open_ = sum(lo | hi for *_, lo, hi in stables) & ~(t | f)
    bit = open_ & -open_
    ctx = next(ctx for ctx, _, lo, hi in stables if (lo | hi) & bit)
    cases = []
    for kind, t_bit, f_bit in ("inconsistent", 0, bit), ("consistent", bit, 0):
        case = _fact(
            why, 0, "case-split", ctx, f"case split on {_name(bit)}",
            f"suppose {_IS}{kind} with {_name(bit)}",
        )
        sub = {**why, bit: case}
        proof = _derive(screens, stables, t | t_bit, f | f_bit, sub)
        cases.append((case, proof))
    return tuple(cases)


def _render(proof: _Fact | tuple, shown: set[_Fact]) -> list[_Fact]:
    """Lay a proof out as the facts not yet shown that it rests on, each
    after its premises, premises visited last first; a split lays out each
    case and then its branch."""
    if isinstance(proof, tuple):
        return [
            fact
            for case, branch in proof
            for fact in [case] + _render(branch, shown | {case})
        ]
    out: list[_Fact] = []

    def visit(fact: _Fact) -> None:
        if fact not in shown and fact not in out:
            for premise in reversed(fact.premises):
                visit(premise)
            out.append(fact)

    visit(proof)
    return out


def _derivation(
    contexts: Sequence[Context], screens: list[_Screen], stables: list[_Stable]
) -> ReductioTrace:
    """Derive the contradiction from a consistent vector of the first
    listed context, the paper's start when it is one."""
    candidates = consistent_vectors(contexts[0])
    preferred = _PREFERRED_START in candidates
    start = _PREFERRED_START if preferred else candidates[0]
    fact = _fact(
        {}, 0, "cc2-existence", context_label(start.context),
        f"consistent vector {start.label()}",
        f"{_IS}consistent with each of " + ", ".join(start.outcome_names),
    )
    why = {_BIT[n]: fact for n in start.outcome_names}
    proof = _derive(screens, stables, sum(why), 0, why)
    steps = [fact] + _render(proof, {fact})
    return ReductioTrace(steps=tuple(n.step for n in steps), complete=True)


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

    screens, stables = _compile(ctx_list)
    survivors = tuple(
        CandidateProfile(
            flags=tuple(bool(t & b) for b in _BIT.values())
        )
        for t in _survivors(screens, stables)
    )

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
        trace = _derivation(ctx_list, screens, stables)
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
