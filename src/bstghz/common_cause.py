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

Each condition's verdict is one mask test on the model's bitsets, and
the checker and the search run the same tests (``pts & ~above == 0``,
``_cc2`` and ``_cc3``): cc1 asks whether the outcome points of the
n-spread lie inside the points above sigma's initial, cc2 and cc3 AND
history masks.  Sigma's masks, the points above its initial and its
outcomes' overlapping masks, are its spread's entry, which validating
the spread wrote; the n-spread's come from its record in ``events``.
A report's witnesses are worded on demand: each condition's are a plain
tuple of lines, worded once, on first read, by the call its
:class:`ConditionResult` holds until then; a passing cc1 or cc2 has
``()``, cc3 a line per outcome of sigma.  The cc1 witnesses come from
the point masks of the n-spread's outcomes, which its screening masks
keep, by the walk that words condition (i) of a spread
(``events._precedence_gaps``): wording them builds no point mask.
Each n-spread's screening masks are memoised once its preconditions
pass.  Those extend the n-spread's record in ``events`` with its
outcomes' point masks and per spread a map from outcome to overlapping
mask, which gives the checker and the search a vector's term masks by
one lookup per term, once per check.

The search (``search_common_causes``) reads the verdicts alone, each
atomic candidate's masks from its spread's entry.  An atomic
candidate's initial is one point, so cc1 holds for it exactly when that
point lies below every outcome point of the n-spreads: the search ANDs
the ``down`` masks of those points into the mask of the candidates'
initials, point by point until no bit is left, and runs cc2 and cc3
only on the candidates left.  On the GHZ model none is left after two
or three points, so cc1 costs a few ANDs however many candidates there
are.

Against every inconsistent vector of an n-spread the search lists none
(``_search_every_vector``, which ``check-cc --search`` and
``classify_determinism`` use).  Their number is the product size less
the consistent ranks, both from the n-spread's record.  For an outcome
of a candidate with overlapping mask m, let B_m hold per spread the
outcomes whose masks meet m: cc3 fails for that outcome exactly when
B_m holds an inconsistent vector, that is, when B_m holds more vectors
than the box walk (``events._box_ranks``) finds consistent.  So the
work grows with the spreads and the histories, not with the product.

Passing all three does not *establish* a common cause, which is why the
interesting direction is the refutation; the GHZ scenario's, which needs
no model, is ``bstghz.ghz.refute_joint_common_cause``.
``classify_determinism`` grades a model's indeterminism from the search,
as evidence only.  ``toy_decay_document`` declares a two-station
positive control for the checker, and ``build_toy_decay`` resolves it.
"""

from __future__ import annotations

import functools
import math
import operator
from typing import Callable, Iterable, Sequence

from .document import ModelDocument, SpreadDoc, resolve_document
from .errors import NotInconsistencyType, PreconditionFailed
from .events import (
    Event,
    NSpread,
    OutcomeVector,
    Spread,
    is_spacelike,
    validate_spread,
    _box_ranks,
    _event_masks,
    _nspread_record,
    _precedence_gaps,
    _require_valid,
)
from .model import CausalModel, _Record, bit_indices


class ConditionResult(_Record):
    """The verdict of one screening condition, with its witness lines as a
    tuple: ``()`` for a passing cc1 or cc2.

    The checker gives it, in place of the lines, the call that words
    them: a partial application of one of the module's line functions to
    the events and masks of the check.  The first read of ``witnesses``
    words the lines once and keeps their tuple in the call's place, so
    the model and masks go; a sequence of lines reads back as its tuple.
    Its fields are ``passed`` and ``witnesses``, so it equals, hashes,
    prints, pickles and copies with its lines worded, and a pickled
    report carries no model.
    """

    __slots__ = ("passed", "_witnesses")
    _fields = ("passed", "witnesses")

    # The shared __init__ sets fields through their slots, and witnesses is
    # a property over the _witnesses slot.  Up to three per check; setting
    # the slots directly was also about 0.18 us a call faster than the
    # shared __init__, 0.39 against 0.57 us (timeit, best of 7, three
    # rounds; BENCH_33.json).
    def __init__(
        self,
        passed: bool,
        witnesses: Sequence[str] | Callable[[], list[str]] = (),
    ) -> None:
        object.__setattr__(self, "passed", passed)
        object.__setattr__(self, "_witnesses", witnesses)

    @property
    def witnesses(self) -> tuple[str, ...]:
        lines = self._witnesses
        if lines.__class__ is not tuple:
            lines = tuple(lines() if callable(lines) else lines)
            object.__setattr__(self, "_witnesses", lines)
        return lines


# A passing cc1 or cc2 has no witness; the record is immutable, so every
# report shares this one.
_PASSED = ConditionResult(True)


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
    screening masks, built from its record in ``events`` and its
    outcomes' event records.

    A pass is memoised on the model, keyed by the n-spread; a failing
    n-spread raises on every call.
    """
    key = (_require_cc_preconditions, ns)
    masks = model.memo.get(key)
    if masks is None:
        if not is_spacelike(model, ns):
            raise PreconditionFailed("the n-spread is not space-like")
        # is_spacelike validated the spreads and found the initials consistent
        hist, outs, _, _, one = _nspread_record(model, ns)
        if not one:
            raise PreconditionFailed("the n-spread is not 1-consistent")
        by_outcome = tuple(
            dict(zip(s.outcomes, ms)) for s, ms in zip(ns.spreads, outs)
        )
        points = tuple(
            (o, _event_masks(model, o, "outcome")[0])
            for s in ns.spreads
            for o in s.outcomes
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


# The screening conditions as mask tests.  ``outs`` is the candidate's
# (its outcomes' overlapping masks, from its spread's entry), ``hist``
# the n-spread's (from ``_require_cc_preconditions``), ``terms`` the
# vector's ``_term_masks``.  cc1 is the test ``pts & ~above == 0`` on the
# n-spread's outcome points and the points above the candidate's initial,
# written out where it is asked.  cc2 and cc3 are plain loops: every check
# runs both, and a loop is faster than the same test written with all()
# over generators (with two outcomes and three terms, 0.20 against 1.04
# us for cc3 and 0.14 against 0.40 us for cc2; timeit, best of 7).


def _cc2(hist: int, outs: tuple[int, ...]) -> bool:
    for m in outs:
        if not hist & m:
            return False
    return True


def _cc3(outs: tuple[int, ...], terms: tuple[int, ...]) -> bool:
    for m in outs:
        for t in terms:
            if not m & t:
                break
        else:
            return False
    return True


def _cc1_lines(
    model: CausalModel,
    initial: Event,
    points: tuple[tuple[Event, int], ...],
    above: int,
) -> list[str]:
    return [
        f"{p} is not strictly below {q} (outcome {o.name})"
        for o, p, q in _precedence_gaps(model, initial, points, above)
    ]


def _cc2_lines(
    outcomes: tuple[Event, ...], outs: tuple[int, ...], hist: int
) -> list[str]:
    return [
        f"{o.name} is not consistent with the initials"
        for o, m in zip(outcomes, outs)
        if not hist & m
    ]


def _cc3_lines(
    outcomes: tuple[Event, ...],
    outs: tuple[int, ...],
    vector: OutcomeVector,
    terms: tuple[int, ...],
) -> list[str]:
    lines = []
    for o, m in zip(outcomes, outs):
        for t, tm in zip(vector.terms, terms):
            if not m & tm:
                lines.append(f"{o.name} is inconsistent with {t.name}")
                break
        else:
            lines.append(
                f"{o.name} is consistent with every term of the vector"
            )
    return lines


def _cc_conditions(
    model: CausalModel,
    sigma: Spread,
    entry: tuple[int, tuple[int, ...]],
    vector: OutcomeVector,
    masks: _CCMasks,
    terms: tuple[int, ...],
) -> CommonCauseReport:
    """The report of cc1..cc3: each verdict from the mask test the search
    runs (``pts & ~above == 0``, :func:`_cc2` and :func:`_cc3`), the
    witnesses as a wording call that :class:`ConditionResult` makes on
    first read: for cc1 and cc2 only on a failure, for cc3 a line per
    candidate outcome.  ``entry`` is sigma's spread entry, ``masks`` the
    n-spread's, as :func:`_require_cc_preconditions` returns them, and
    ``terms`` the vector's ``_term_masks``.

    The cc1 witnesses are read off the n-spread's per-outcome point masks
    by :func:`events._precedence_gaps`, so no outcome's mask is built per
    check: by outcome in spread order, then by initial point, then by
    outcome point.
    """
    pts, hist, _, points = masks
    above, outs = entry
    outcomes = sigma.outcomes
    word = functools.partial
    return CommonCauseReport(
        vector.names,
        _PASSED if pts & ~above == 0 else ConditionResult(
            False, word(_cc1_lines, model, sigma.initial, points, above)
        ),
        _PASSED if _cc2(hist, outs) else ConditionResult(
            False, word(_cc2_lines, outcomes, outs, hist)
        ),
        ConditionResult(
            _cc3(outs, terms), word(_cc3_lines, outcomes, outs, vector, terms)
        ),
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
    return _cc_conditions(
        model, sigma, model.memo[sigma], vector, masks, terms
    )


def atomic_spreads(model: CausalModel) -> tuple[Spread, ...]:
    """Candidate spreads carved out of the model's own branching.

    One candidate per non-maximal point: the point as singleton initial,
    its covers as singleton outcomes.  Candidates failing the spread
    conditions (for instance when two covers share a history) are
    dropped.  The candidates depend on the model alone and are memoised
    on it, with what :func:`_scan` reads: the mask of their initial
    points, and a map from each such point to its candidate and its
    outcomes' masks.
    """
    memo = model.memo
    if atomic_spreads in memo:
        return memo[atomic_spreads][0]
    out: list[Spread] = []
    initials = 0
    at = {}
    for i, p in enumerate(model.points):
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
            # for the scan: the candidate by its initial point, with its
            # outcomes' masks from the entry that validating it wrote
            initials |= 1 << i
            at[i] = spread, memo[spread][1]
    memo[atomic_spreads] = tuple(out), initials, at
    return memo[atomic_spreads][0]


class CommonCauseSearch(_Record):
    __slots__ = ("candidates_considered", "passing", "vacuous", "notes")
    _defaults = {"notes": ()}


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

    The verdicts are those of the mask tests that ``check_common_cause``
    takes its verdicts from (cc1 by :func:`_scan`'s walk, which answers
    ``pts & ~above == 0`` for every atomic candidate at once, ``_cc2``
    and ``_cc3``), on the masks of each distinct n-spread (told apart by
    identity) and each distinct vector, whose term masks are looked up in
    its n-spread's record; no witness is built.
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
    return _scan(
        model,
        masks.values(),
        lambda outs: all(_cc3(outs, terms) for terms in targets),
        not ns_list,
    )


def _scan(
    model: CausalModel,
    masks: Iterable[_CCMasks],
    cc3: Callable[[tuple[int, ...]], bool],
    vacuous: bool,
) -> CommonCauseSearch:
    """The atomic candidates passing cc1 and cc2 for the n-spreads whose
    screening ``masks`` are given, and ``cc3`` on their outcomes' masks.

    An atomic candidate's initial is one point, so it passes cc1 exactly
    when that point lies below every outcome point of the n-spreads: the
    candidates passing cc1 are the bits of :func:`atomic_spreads`'
    initials left by ANDing the ``down`` mask of each outcome point, a
    walk that stops once no bit is left (on the GHZ model, after two or
    three points).  cc2 and ``cc3`` run only on the candidates left, whose
    outcomes' masks are read from their spreads' entries.  ``vacuous``
    marks a search without targets and adds its note.
    """
    masks = list(masks)
    pts = functools.reduce(operator.or_, (m[0] for m in masks), 0)
    hists = {m[1] for m in masks}
    atomic_spreads(model)
    candidates, left, at = model.memo[atomic_spreads]
    down = model.down
    while pts and left:
        low = pts & -pts
        left &= down[low.bit_length() - 1]
        pts ^= low
    passing = []
    for i in bit_indices(left):
        cand, outs = at[i]
        if all(_cc2(h, outs) for h in hists) and cc3(outs):
            passing.append(cand)
    notes = (
        ("no target vectors were supplied; every candidate passes vacuously",)
        if vacuous
        else ()
    )
    return CommonCauseSearch(
        len(candidates), tuple(passing), vacuous, notes
    )


def _search_every_vector(
    model: CausalModel, nspreads: Iterable[NSpread]
) -> tuple[int, CommonCauseSearch]:
    """The number of inconsistent vectors of the listed n-spreads, and
    the search with every one of them as a target, neither listing them.

    Each n-spread must pass the preconditions.  Its inconsistent count is
    its product size less its consistent ranks, both from its record in
    ``events``.  One with no inconsistent vector adds no condition, and
    with none at all the search is vacuous, as
    :func:`search_common_causes` is on an empty target list.  A candidate
    outcome with overlapping mask m fails cc3 against some target of an
    n-spread exactly when the box of the outcomes meeting m holds more
    vectors than :func:`events._box_ranks` finds consistent.
    """
    full = (1 << len(model.histories)) - 1
    total = 0
    listed = {}
    for ns in nspreads:
        masks = _require_cc_preconditions(model, ns)
        _, outs, count, ranks, _ = _nspread_record(model, ns)
        if count > len(ranks):
            listed[ns] = masks, outs
        total += count - len(ranks)

    def cc3(cand: tuple[int, ...]) -> bool:
        for m in cand:
            for _, outs in listed.values():
                box = [[t for t in ms if t & m] for ms in outs]
                if math.prod(map(len, box)) > len(_box_ranks(box, full)):
                    return False
        return True

    return total, _scan(
        model, (masks for masks, _ in listed.values()), cc3, not total
    )


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
        inconsistent, found = _search_every_vector(model, (ns,))
        if not inconsistent:
            notes.append(
                f"n-spread at {ns.spreads[0].initial.name}: no inconsistent "
                "vectors"
            )
            continue
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
                f"{inconsistent} inconsistent vectors, no screening "
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
