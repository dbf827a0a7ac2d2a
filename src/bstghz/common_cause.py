"""Screening common causes: the checker, the search, and determinism levels.

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
cc2 when the condition fails, cc3 per outcome of sigma.  The cc1
witnesses come from the point masks of the n-spread's outcomes, kept
with its screening masks, by the walk that words condition (i) of a
spread (``events._precedence_gaps``): no outcome's mask is built again
per check.  The search (``search_common_causes``) reads the verdicts
alone.  Its masks are memoised per model: the atomic candidates' once,
and each n-spread's once its preconditions pass.  Those extend the
n-spread's record in ``events``, whose per-outcome maps give the checker
and the search a vector's term masks by one lookup per term, once per
check.

Passing all three does not *establish* a common cause, which is why the
interesting direction is the refutation; the GHZ scenario's, which needs
no model, is ``bstghz.ghz.refute_joint_common_cause``.
``classify_determinism`` grades a model's indeterminism from the search,
as evidence only.  ``toy_decay_document`` declares a two-station
positive control for the checker, and ``build_toy_decay`` resolves it.
"""

from __future__ import annotations

import functools
import operator
from typing import Iterable, Sequence

from .document import ModelDocument, SpreadDoc, resolve_document
from .errors import NotInconsistencyType, PreconditionFailed
from .events import (
    Event,
    NSpread,
    OutcomeVector,
    Spread,
    consistency_grade,
    is_spacelike,
    validate_spread,
    _above,
    _history_masks,
    _nspread_record,
    _precedence_gaps,
    _one_consistent,
    _require_valid,
)
from .model import CausalModel, _Record


class ConditionResult(_Record):
    __slots__ = ("passed", "witnesses")

    # Three per verdict, 4.5 per ghz-checkcc operation, and this __init__
    # is about 0.25 us a call faster than the shared one (BENCH_26.json).
    def __init__(self, passed: bool, witnesses: tuple[str, ...] = ()) -> None:
        object.__setattr__(self, "passed", passed)
        object.__setattr__(self, "witnesses", witnesses)


class CommonCauseReport(_Record):
    """Verdict of the three screening conditions for one vector."""

    __slots__ = ("vector", "cc1", "cc2", "cc3")

    @property
    def passed(self) -> bool:
        return self.cc1.passed and self.cc2.passed and self.cc3.passed


# The screening masks of an n-spread: the points of every outcome, the
# histories containing all of its initials, per spread a map from each
# outcome to its overlapping histories, and each outcome with its own
# point mask, in spread and outcome order.
_CCMasks = tuple[
    int, int, tuple[dict[Event, int], ...], tuple[tuple[Event, int], ...]
]


def _require_cc_preconditions(model: CausalModel, ns: NSpread) -> _CCMasks:
    """Check that ``ns`` is space-like and 1-consistent; return its
    screening masks, the histories and the outcome maps read from its
    record.

    A pass is memoised on the model, keyed by the n-spread; a failing
    n-spread raises on every call.
    """
    key = (_require_cc_preconditions, ns)
    masks = model.memo.get(key)
    if masks is None:
        if not is_spacelike(model, ns):
            raise PreconditionFailed("the n-spread is not space-like")
        # is_spacelike validated the spreads and found the initials consistent
        if not _one_consistent(model, ns):
            raise PreconditionFailed("the n-spread is not 1-consistent")
        hist, _, by_outcome = _nspread_record(model, ns)
        points = tuple(
            (o, model.mask(o.members)) for s in ns.spreads for o in s.outcomes
        )
        pts = functools.reduce(operator.or_, (m for _, m in points))
        masks = model.memo[key] = (pts, hist, by_outcome, points)
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


def _term_masks(
    ns: NSpread,
    vector: OutcomeVector,
    by_outcome: tuple[dict[Event, int], ...],
) -> tuple[int, ...]:
    """Per term of ``vector``, the histories overlapping it, looked up in
    ``by_outcome``, the n-spread's outcome maps.

    A vector of the wrong length or with a term that is no outcome of its
    spread raises the ``ValueError`` of :func:`_require_vector_of`.
    """
    if len(vector.terms) == len(by_outcome):
        try:
            return tuple(map(operator.getitem, by_outcome, vector.terms))
        except KeyError:
            pass
    _require_vector_of(ns, vector)
    raise RuntimeError(
        f"internal error: no mask for a term of vector {vector.label()}"
    )


def _overlaps(
    model: CausalModel, events: Iterable[Event]
) -> tuple[int, ...]:
    """Per event, the histories overlapping it."""
    return tuple(_history_masks(model, e, "outcome")[1] for e in events)


# The screening conditions as mask tests.  ``outs`` is the candidate's
# (``_overlaps`` of its outcomes), ``hist`` the n-spread's (from
# ``_require_cc_preconditions``), ``terms`` the vector's ``_term_masks``.
# cc1 is the test ``pts & ~above == 0`` on the n-spread's outcome points
# and the points above the candidate's initial, written out where it is
# asked.


def _cc2(hist: int, outs: tuple[int, ...]) -> bool:
    return all(hist & m for m in outs)


def _cc3(outs: tuple[int, ...], terms: tuple[int, ...]) -> bool:
    return all(any(not m & t for t in terms) for m in outs)


def _cc_conditions(
    model: CausalModel,
    sigma: Spread,
    vector: OutcomeVector,
    masks: _CCMasks,
    terms: tuple[int, ...],
) -> CommonCauseReport:
    """The report of cc1..cc3: verdicts from the mask tests, cc1 and cc2
    witnesses worded only on a failure, a cc3 line per candidate outcome
    from the walk that also gives cc3's verdict.  ``masks`` are the
    n-spread's, as :func:`_require_cc_preconditions` returns them, and
    ``terms`` the vector's ``_term_masks``.

    The cc1 witnesses are read off the n-spread's per-outcome point masks
    by :func:`events._precedence_gaps`, so no outcome's mask is built per
    check: by outcome in spread order, then by initial point, then by
    outcome point.
    """
    pts, hist, _, points = masks
    outs = _overlaps(model, sigma.outcomes)
    above = _above(model, sigma.initial)
    cc1_ok = pts & ~above == 0
    cc1_witnesses = () if cc1_ok else tuple(
        f"{p} is not strictly below {q} (outcome {o.name})"
        for o, p, q in _precedence_gaps(model, sigma.initial, points, above)
    )
    cc2_ok = _cc2(hist, outs)
    cc2_witnesses = () if cc2_ok else tuple(
        f"{o.name} is not consistent with the initials"
        for o, m in zip(sigma.outcomes, outs)
        if not hist & m
    )
    cc3_ok = True
    cc3_witnesses = []
    for o, m in zip(sigma.outcomes, outs):
        for t, tm in zip(vector.terms, terms):
            if not m & tm:
                cc3_witnesses.append(f"{o.name} is inconsistent with {t.name}")
                break
        else:
            cc3_ok = False
            cc3_witnesses.append(
                f"{o.name} is consistent with every term of the vector"
            )
    return CommonCauseReport(
        vector.names,
        ConditionResult(cc1_ok, cc1_witnesses),
        ConditionResult(cc2_ok, cc2_witnesses),
        ConditionResult(cc3_ok, tuple(cc3_witnesses)),
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
    _require_valid(model, (sigma,), "candidate spread")
    masks = _require_cc_preconditions(model, ns)
    terms = _term_masks(ns, vector, masks[2])
    if functools.reduce(operator.and_, terms):
        raise NotInconsistencyType(
            f"vector {vector.label()} is consistent; the screening "
            "conditions apply to inconsistent vectors only"
        )
    return _cc_conditions(model, sigma, vector, masks, terms)


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


class CommonCauseSearch(_Record):
    __slots__ = ("candidates_considered", "passing", "vacuous", "notes")
    _defaults = {"notes": ()}


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

    The verdicts are the mask tests that ``check_common_cause`` reports
    from (cc1 inline, ``_cc2``, and ``_cc3``, the checker's cc3 walk
    without its lines), on the masks of each distinct
    n-spread (told apart by identity) and each distinct vector, whose
    term masks are looked up in its n-spread's record; no witness is
    worded.  A candidate stops at its first failing test.
    """
    if len(ns_list) != len(vectors):
        raise ValueError("ns_list and vectors must pair up one to one")
    distinct = {id(ns): ns for ns in ns_list}
    masks = {
        key: _require_cc_preconditions(model, ns)
        for key, ns in distinct.items()
    }
    targets = set()
    for ns, v in zip(ns_list, vectors):
        terms = _term_masks(ns, v, masks[id(ns)][2])
        if functools.reduce(operator.and_, terms):
            raise PreconditionFailed(
                f"vector {v.label()} is consistent; only inconsistent "
                "vectors call for a common cause"
            )
        targets.add(terms)
    pts = functools.reduce(operator.or_, (m[0] for m in masks.values()), 0)
    hists = {m[1] for m in masks.values()}
    candidates = atomic_spreads(model)
    passing = tuple(
        cand
        for cand, (above, outs) in zip(candidates, _candidate_masks(model))
        if not pts & ~above
        and all(_cc2(h, outs) for h in hists)
        and all(_cc3(outs, terms) for terms in targets)
    )
    vacuous = not ns_list
    notes = (
        ("no target vectors were supplied; every candidate passes vacuously",)
        if vacuous
        else ()
    )
    return CommonCauseSearch(len(candidates), passing, vacuous, notes)


# -- determinism levels ---------------------------------------------------


class LevelReport(_Record):
    """Indeterminism classification of a model.

    ``level`` is "I" (a single history, hence no branching at all) or
    "indeterministic".  ``level3_evidence`` is set when some supplied
    n-spread exhibits inconsistent outcome vectors that no atomic spread
    of the model screens; that is evidence of correlations without a
    common cause in this model, never a proof that none could exist.
    """

    __slots__ = ("level", "history_count", "level3_evidence", "notes")
    _defaults = {"notes": ()}


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


class ToyDecayScenario(_Record):
    """Two anticorrelated stations fed by one decay point.

    The decay point d branches to d- and d+; d+ forces station a to read
    + and station b to read -, and d- the reverse.  The equal-sign
    vectors are inconsistent, and the decay spread passes cc1..cc3 for
    both of them, which makes this the positive control for the checker.
    """

    __slots__ = (
        "model", "events", "decay_spread", "station_nspread", "inconsistent"
    )


def toy_decay_document() -> ModelDocument:
    """The anticorrelated decay scenario as a document."""
    named = ("a", "a+", "a-", "b", "b+", "b-", "d", "d+", "d-")
    return ModelDocument(
        points=named + ("m1", "m2"),
        order=(
            ("a", "a+"), ("a", "a-"), ("a+", "m1"), ("a-", "m2"),
            ("b", "b+"), ("b", "b-"), ("b+", "m2"), ("b-", "m1"),
            ("d", "d+"), ("d", "d-"),
            ("d+", "a+"), ("d+", "b-"), ("d-", "a-"), ("d-", "b+"),
        ),
        events={n: (n,) for n in named},
        spreads={
            "sigma_a": SpreadDoc("a", ("a-", "a+")),
            "sigma_b": SpreadDoc("b", ("b-", "b+")),
            "sigma_d": SpreadDoc("d", ("d-", "d+")),
        },
        nspreads={"Sigma_ab": ("sigma_a", "sigma_b")},
    )


def build_toy_decay() -> ToyDecayScenario:
    """The scenario resolved from :func:`toy_decay_document`."""
    resolved = resolve_document(toy_decay_document())
    events = resolved.events
    return ToyDecayScenario(
        model=resolved.model,
        events=events,
        decay_spread=resolved.spreads["sigma_d"],
        station_nspread=resolved.nspreads["Sigma_ab"],
        inconsistent=tuple(
            OutcomeVector(terms=(events[f"a{s}"], events[f"b{s}"]))
            for s in "-+"
        ),
    )
