"""Events, spreads, and the graded notions of consistency.

An event is a named nonempty set of point events.  The roles matter:

* an *initial* event is a nonempty upper bounded chain, and a history is
  said to realize it only by containing it entirely;
* an *outcome* event is a nonempty lower bounded chain, and a history
  realizes it by merely overlapping it;
* a *stable* event is both, and additionally lies inside every history it
  overlaps, so "begins to occur" and "occurs" coincide for it.

A spread couples one initial event to a family of mutually exclusive
outcome events: the initial strictly precedes every outcome pointwise,
every history containing the initial overlaps some outcome, and no
history overlaps two distinct outcomes.  An n-spread is an ordered tuple
of spreads; its outcome vectors (one outcome per spread, enumerated
lexicographically in declared order) are the joint results one can ask
consistency questions about.  Consistency itself is existential: some
history realizes everything at once.

In a finite model every nonempty chain has a least and a greatest
member, so it is lower bounded by the one and upper bounded by the other:
an event is an initial, and an outcome, exactly when it is a chain.

Everything here is integer arithmetic on the model's bitsets.  An event
is a chain when every member's ``up | down | self`` mask holds all the
members, and one event strictly precedes another when the other's mask
lies inside the AND of ``up`` over the first one's members; a point p
fails to strictly precede the members of the other where its mask
leaves ``up[p]``.  Consistency queries read the per-point history
masks: the AND of an event's member masks holds the histories containing
it in full, which realize it as an initial, and the OR the histories
overlapping it, which realize it as an outcome.  A query is consistent
when the AND of its events' masks is nonzero, and an event is stable
when its AND equals its OR.  A one-point event is a chain and skips the
check; a larger event's chain check runs once per model.  Each event's
two history masks are memoised on the model, and so is each spread's
validation (``validate_spread`` records a pass, which ``_require_valid``
reads) and each n-spread's record of masks (``_nspread_record``:
the AND of its initials' containing masks, its outcomes' overlapping
masks, and per spread a map from outcome to mask); only passes are kept,
so a misclassified event or an invalid spread raises every time.
Violations are worded only after a mask test has failed.  Precedence
failures are named by one walk (``_precedence_gaps``) that spread
validation and the common-cause checker share: it skips an outcome whose
mask lies above the initial and names, per point p of the initial, the
outcome's bits outside ``up[p]``.

Grading an n-spread reads its record and makes no consistency query:
the AND of its initials' containing masks decides minimal and
1-consistency (the space-like test reads the same AND), and its
consistent outcome vectors are found by extending prefixes spread by
spread, keeping a prefix only while the AND of its outcomes' overlapping
masks is nonzero.  No history overlaps two outcomes of one spread, so
the live prefixes of each length have disjoint masks and number at most
the model's histories; only the list of inconsistent vectors, the
product minus those, grows with the product.

``Event``, ``Spread`` and ``NSpread`` are memo keys, so each hashes its
fields once, at construction, into a private slot.  The hash stays out
of the pickled state: a record is pickled as its constructor call and
hashes afresh where it is loaded.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from typing import Iterable, Iterator

from .errors import InvalidSpread, MisclassifiedEvent
from .model import (
    CausalModel,
    PointEventId,
    ValidationReport,
    bit_indices,
    is_chain,
    _Record,
)


class Event(_Record):
    """A named, nonempty set of point events."""

    __slots__ = ("name", "members", "_hash")

    def __init__(self, name: str, members: frozenset[PointEventId]) -> None:
        if not name:
            raise ValueError("event name must be nonempty")
        if not members:
            raise ValueError(f"event {name!r} has no members")
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "members", members)
        object.__setattr__(self, "_hash", hash((name, members)))

    def __hash__(self) -> int:
        return self._hash


class EventClassification(_Record):
    __slots__ = ("is_initial", "is_outcome", "is_stable")


class Spread(_Record):
    """One initial event branching into mutually exclusive outcome events.

    ``outcomes`` is a tuple because the declared order fixes how outcome
    vectors are enumerated.
    """

    __slots__ = ("initial", "outcomes", "_hash")

    def __init__(self, initial: Event, outcomes: tuple[Event, ...]) -> None:
        if not outcomes:
            raise ValueError(
                f"spread at {initial.name!r} needs at least one outcome"
            )
        names = [o.name for o in outcomes]
        if len(set(names)) != len(names):
            raise ValueError(
                f"spread at {initial.name!r} repeats an outcome name"
            )
        object.__setattr__(self, "initial", initial)
        object.__setattr__(self, "outcomes", outcomes)
        object.__setattr__(self, "_hash", hash((initial, outcomes)))

    def __hash__(self) -> int:
        return self._hash


class NSpread(_Record):
    """An ordered tuple of spreads treated as one joint arrangement."""

    __slots__ = ("spreads", "_hash")

    def __init__(self, spreads: tuple[Spread, ...]) -> None:
        if not spreads:
            raise ValueError("an n-spread needs at least one spread")
        object.__setattr__(self, "spreads", spreads)
        object.__setattr__(self, "_hash", hash((spreads,)))

    def __hash__(self) -> int:
        return self._hash

    @property
    def initials(self) -> tuple[Event, ...]:
        return tuple(s.initial for s in self.spreads)


class OutcomeVector(_Record):
    """One outcome event per spread of an n-spread, in spread order."""

    __slots__ = ("terms",)

    # The grade builds one per inconsistent vector, 9 per ghz-checkcc
    # operation, and this __init__ is about 0.3 us a call faster than the
    # shared one (BENCH_26.json).
    def __init__(self, terms: tuple[Event, ...]) -> None:
        object.__setattr__(self, "terms", terms)

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(t.name for t in self.terms)

    def label(self) -> str:
        return ",".join(self.names)


class GradeReport(_Record):
    """Consistency grading of an n-spread.

    ``minimal``: the initials alone are consistent.  ``one_consistent``:
    additionally each single outcome of each spread is consistent with the
    initials.  ``maximal``: every outcome vector is consistent.
    """

    __slots__ = (
        "minimal",
        "one_consistent",
        "maximal",
        "vector_count",
        "inconsistent_vectors",
    )


def classify_event(model: CausalModel, event: Event) -> EventClassification:
    """Classify an event as initial / outcome / stable in the model.

    A finite chain is bounded above and below by its own greatest and
    least members, so an event is an initial and an outcome exactly when
    it is a chain; it is stable when, besides, every history overlapping
    it contains it.
    """
    try:
        contain, overlap = _history_masks(model, event, "initial")
    except MisclassifiedEvent:
        return EventClassification(False, False, False)
    return EventClassification(
        is_initial=True, is_outcome=True, is_stable=contain == overlap
    )


def _history_masks(
    model: CausalModel, event: Event, role: str
) -> tuple[int, int]:
    """The histories containing ``event`` and those overlapping it.

    The first mask realizes the event as an initial, the second as an
    outcome.  A one-point event is a chain, so only a larger one is
    checked, once per model: the masks are memoised on the model, keyed by
    the members, only after the check passed, so a misclassified event or
    an unknown point raises on every call.  ``role`` words the
    :class:`MisclassifiedEvent` message.
    """
    memo = model.memo
    if event.members in memo:
        return memo[event.members]
    if len(event.members) > 1 and not is_chain(model, event.members):
        raise MisclassifiedEvent(f"{event.name!r} is not an {role} event")
    try:
        bits = [model.history_bits[p] for p in event.members]
    except KeyError:
        model.mask(event.members)  # raises UnknownPoint
        raise
    masks = (
        functools.reduce(operator.and_, bits),
        functools.reduce(operator.or_, bits),
    )
    memo[event.members] = masks
    return masks


def _above(model: CausalModel, event: Event) -> int:
    """The points strictly above every point of ``event``."""
    return functools.reduce(
        operator.and_,
        (model.up[i] for i in bit_indices(model.mask(event.members))),
    )


def _precedence_gaps(
    model: CausalModel,
    initial: Event,
    outcomes: Iterable[tuple[Event, int]],
    above: int,
) -> Iterator[tuple[Event, PointEventId, PointEventId]]:
    """The triples (o, p, q) of an outcome o, a point p of ``initial`` and
    a point q of o that p does not strictly precede.

    ``outcomes`` pairs each outcome with its point mask and ``above`` is
    :func:`_above` of the initial.  An outcome inside ``above`` is skipped
    unwalked; for each other, every point p of the initial names the bits
    of the outcome's mask outside ``up[p]``.  The triples come by outcome
    in the given order, then by p and by q, both sorted.
    """
    lower = bit_indices(model.mask(initial.members))
    for o, om in outcomes:
        if om & ~above:
            for i in lower:
                for j in bit_indices(om & ~model.up[i]):
                    yield o, model.points[i], model.points[j]


def is_consistent(
    model: CausalModel,
    initials: Iterable[Event] = (),
    outcomes: Iterable[Event] = (),
) -> bool:
    """True when one history contains every initial and overlaps every
    outcome.

    The asymmetry is deliberate: initials must happen in full, outcomes
    need only have begun.
    """
    acc = (1 << len(model.histories)) - 1
    for e in initials:
        acc &= _history_masks(model, e, "initial")[0]
    for e in outcomes:
        acc &= _history_masks(model, e, "outcome")[1]
    return acc != 0


def validate_spread(model: CausalModel, spread: Spread) -> ValidationReport:
    """Check the three defining conditions of a spread.

    (i) every point of the initial strictly precedes every point of every
    outcome; (ii) every history containing the initial overlaps some
    outcome; (iii) no history overlaps two distinct outcomes.  Failures
    are reported, not raised; a pass is recorded on the model, so
    :func:`_require_valid` does not validate the spread again.
    """
    name = f"spread {spread.initial.name}"
    try:
        initial = _history_masks(model, spread.initial, "initial")[0]
        masks = [
            _history_masks(model, o, "outcome")[1] for o in spread.outcomes
        ]
    except MisclassifiedEvent as exc:
        return ValidationReport(
            check=name, status="fail", violations=(str(exc),)
        )

    # (i) is one test, that the outcome points lie above the initial; its
    # failing pairs are worded only when it fails
    violations = []
    above = _above(model, spread.initial)
    outcome_points = model.mask(p for o in spread.outcomes for p in o.members)
    if outcome_points & ~above:
        violations = [
            f"(i) initial point {p} does not strictly precede {q} of "
            f"outcome {o.name}"
            for o, p, q in _precedence_gaps(
                model,
                spread.initial,
                ((o, model.mask(o.members)) for o in spread.outcomes),
                above,
            )
        ]
    # histories overlapping some outcome, and overlapping two or more
    some = twice = 0
    for m in masks:
        twice |= some & m
        some |= m
    bad = (initial & ~some) | twice
    for k in bit_indices(bad):
        h = model.histories[k]
        if initial >> k & 1 and not some >> k & 1:
            violations.append(
                f"(ii) history {h.top} contains the initial but "
                f"overlaps no outcome"
            )
        hit = [o.name for o, m in zip(spread.outcomes, masks) if m >> k & 1]
        if len(hit) > 1:
            violations.append(
                f"(iii) history {h.top} overlaps outcomes {', '.join(hit)}"
            )
    if not violations:
        model.memo[_require_valid, spread] = True
    return ValidationReport(
        name, "fail" if violations else "pass", tuple(violations), ()
    )


def _require_valid(
    model: CausalModel, spreads: Iterable[Spread], noun: str = "spread"
) -> None:
    """Raise :class:`InvalidSpread` at the first invalid spread.  A pass
    is memoised on the model, keyed by the spread, by
    :func:`validate_spread` itself, so a spread validated before is not
    validated again; a failure is not kept and raises on every call."""
    for s in spreads:
        if (_require_valid, s) in model.memo:
            continue
        report = validate_spread(model, s)
        if not report.ok:
            raise InvalidSpread(
                f"{noun} at {s.initial.name!r} is invalid: "
                + "; ".join(report.violations)
            )


def _nspread_record(
    model: CausalModel, ns: NSpread
) -> tuple[int, tuple[tuple[int, ...], ...], tuple[dict[Event, int], ...]]:
    """The n-spread's history masks: the histories containing every
    initial, per spread the histories overlapping each of its outcomes in
    declared order, and per spread a map from each outcome to that mask.

    Read from the masks :func:`_history_masks` memoises, and memoised on
    the model, keyed by the n-spread, once every one of them was read
    without raising: an n-spread with a misclassified event raises on
    every call.  The maps turn an outcome vector into its terms' masks
    with one lookup per term.
    """
    memo = model.memo
    record = memo.get(ns)
    if record is None:
        hist = functools.reduce(
            operator.and_,
            (
                _history_masks(model, s.initial, "initial")[0]
                for s in ns.spreads
            ),
        )
        outs = tuple(
            tuple(_history_masks(model, o, "outcome")[1] for o in s.outcomes)
            for s in ns.spreads
        )
        by_outcome = tuple(
            dict(zip(s.outcomes, ms)) for s, ms in zip(ns.spreads, outs)
        )
        record = memo[ns] = (hist, outs, by_outcome)
    return record


def _one_consistent(model: CausalModel, ns: NSpread) -> bool:
    """Each outcome of each spread is consistent with all the initials."""
    hist, outs, _ = _nspread_record(model, ns)
    return all(hist & m for ms in outs for m in ms)


def consistency_grade(model: CausalModel, ns: NSpread) -> GradeReport:
    """Grade an n-spread: minimal, 1-consistent, maximally consistent.

    Raises :class:`InvalidSpread` when a constituent spread fails
    validation.  The grade is read off the history masks: the initials
    are consistent when the AND of their containing masks is nonzero, and
    an outcome with them when its overlapping mask meets that AND.  The
    consistent vectors are the prefixes, extended one spread at a time,
    whose overlapping masks keep a nonzero AND; each is held as its
    lexicographic rank, and ``inconsistent_vectors`` lists the other
    ranks of the product in order.  The implication chain maximal =>
    1-consistent => minimal is checked on every grading; a break is a bug
    and raises ``RuntimeError``, also under ``python -O``.
    """
    _require_valid(model, ns.spreads)
    hist, outs, _ = _nspread_record(model, ns)
    minimal = hist != 0
    one = minimal and all(hist & m for ms in outs for m in ms)
    # rank of each consistent prefix -> the histories realizing it
    live = {0: (1 << len(model.histories)) - 1}
    for ms in outs:
        live = {
            rank * len(ms) + j: acc & m
            for rank, acc in live.items()
            for j, m in enumerate(ms)
            if acc & m
        }
    count = math.prod(len(ms) for ms in outs)
    inconsistent = tuple(
        OutcomeVector(terms=combo)
        for rank, combo in enumerate(
            itertools.product(*[s.outcomes for s in ns.spreads])
        )
        if rank not in live
    )
    maximal = not inconsistent
    if (maximal and not one) or (one and not minimal):
        raise RuntimeError(
            "internal error: consistency grade breaks the implication chain "
            f"maximal => 1-consistent => minimal ({maximal}, {one}, {minimal})"
        )
    return GradeReport(minimal, one, maximal, count, inconsistent)


def is_spacelike(model: CausalModel, ns: NSpread) -> bool:
    """Minimally consistent, with no initial preceding a foreign outcome.

    The second clause: no point of the initial of one spread strictly
    precedes any point of any outcome of a *different* spread of the
    n-spread.  The first clause reads the AND of the initials'
    containing masks from the n-spread's record.
    """
    _require_valid(model, ns.spreads)
    if not _nspread_record(model, ns)[0]:
        return False
    initials = [model.mask(s.initial.members) for s in ns.spreads]
    # per spread, the points strictly below some point of some outcome
    preceding = [
        functools.reduce(
            operator.or_,
            (
                model.down[model.index[p]]
                for o in s.outcomes
                for p in o.members
            ),
        )
        for s in ns.spreads
    ]
    return not any(
        ini & preceding[j]
        for i, ini in enumerate(initials)
        for j in range(len(preceding))
        if i != j
    )
