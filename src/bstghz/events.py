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

Everything here is integer arithmetic on the model's bitsets.  Order
questions read the model's point masks: an event is a chain when every
member's ``up | down | self`` mask holds all the members, it is upper
(lower) bounded when the AND of its members' ``up | self`` (``down |
self``) masks is nonzero, and a spread's initial precedes an outcome
when the initial's mask lies inside the AND of the outcome members'
``down`` masks.  Consistency queries read the per-point history masks:
an initial's history mask is the AND of its members' masks (the
histories containing it in full), an outcome's the OR (the histories
overlapping it), a query is consistent when the AND of its events'
masks is nonzero, and an event is stable when its AND equals its OR.
Each event's role check runs once per model and is memoised on the
model with the event's history mask; only passed checks are kept, so a
misclassified event raises every time.  Violations are worded only
after a mask test has failed.
"""

from __future__ import annotations

import functools
import itertools
import operator
from dataclasses import dataclass
from typing import Iterable

from .errors import InvalidSpread, MisclassifiedEvent
from .model import (
    CausalModel,
    PointEventId,
    ValidationReport,
    bit_indices,
    is_chain,
)


@dataclass(frozen=True)
class Event:
    """A named, nonempty set of point events."""

    name: str
    members: frozenset[PointEventId]

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("event name must be nonempty")
        if not self.members:
            raise ValueError(f"event {self.name!r} has no members")


@dataclass(frozen=True)
class EventClassification:
    is_initial: bool
    is_outcome: bool
    is_stable: bool


@dataclass(frozen=True)
class Spread:
    """One initial event branching into mutually exclusive outcome events.

    ``outcomes`` is a tuple because the declared order fixes how outcome
    vectors are enumerated.
    """

    initial: Event
    outcomes: tuple[Event, ...]

    def __post_init__(self) -> None:
        if not self.outcomes:
            raise ValueError(
                f"spread at {self.initial.name!r} needs at least one outcome"
            )
        names = [o.name for o in self.outcomes]
        if len(set(names)) != len(names):
            raise ValueError(
                f"spread at {self.initial.name!r} repeats an outcome name"
            )


@dataclass(frozen=True)
class NSpread:
    """An ordered tuple of spreads treated as one joint arrangement."""

    spreads: tuple[Spread, ...]

    def __post_init__(self) -> None:
        if not self.spreads:
            raise ValueError("an n-spread needs at least one spread")

    @property
    def initials(self) -> tuple[Event, ...]:
        return tuple(s.initial for s in self.spreads)


@dataclass(frozen=True)
class OutcomeVector:
    """One outcome event per spread of an n-spread, in spread order."""

    terms: tuple[Event, ...]

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(t.name for t in self.terms)

    def label(self) -> str:
        return ",".join(self.names)


@dataclass(frozen=True)
class GradeReport:
    """Consistency grading of an n-spread.

    ``minimal``: the initials alone are consistent.  ``one_consistent``:
    additionally each single outcome of each spread is consistent with the
    initials.  ``maximal``: every outcome vector is consistent.
    """

    minimal: bool
    one_consistent: bool
    maximal: bool
    vector_count: int
    inconsistent_vectors: tuple[OutcomeVector, ...]


def classify_event(model: CausalModel, event: Event) -> EventClassification:
    """Classify an event as initial / outcome / stable in the model."""
    members = model.mask(event.members)
    chain = is_chain(model, event.members)
    initial = chain and _upper_bounded(model, members)
    outcome = chain and _lower_bounded(model, members)
    stable = False
    if initial and outcome:
        bits = [model.history_bits[p] for p in event.members]
        stable = functools.reduce(operator.and_, bits) == functools.reduce(
            operator.or_, bits
        )
    return EventClassification(
        is_initial=initial, is_outcome=outcome, is_stable=stable
    )


def _upper_bounded(model: CausalModel, members: int) -> bool:
    """Some point lies at or above every member of the mask."""
    common = -1
    for i in bit_indices(members):
        common &= model.up[i] | 1 << i
    return common != 0


def _lower_bounded(model: CausalModel, members: int) -> bool:
    """Some point lies at or below every member of the mask."""
    common = -1
    for i in bit_indices(members):
        common &= model.down[i] | 1 << i
    return common != 0


def _strictly_below(
    model: CausalModel, members: frozenset[PointEventId]
) -> int:
    """The points strictly below every one of ``members``, as a mask."""
    common = -1
    for p in members:
        common &= model.down[model.index[p]]
    return common


def _role_mask(model: CausalModel, event: Event, role: str) -> int:
    """The histories realizing ``event`` in ``role``, as a bitmask.

    ``role`` is ``"initial"`` (histories containing every member) or
    ``"outcome"`` (histories containing some member).  The role check
    runs once per model: a mask is memoised on the model, keyed by the
    members and the role, only after the check passed, so a misclassified
    event or an unknown point raises on every call.
    """
    key = (event.members, role)
    memo = model.memo
    if key in memo:
        return memo[key]
    members = model.mask(event.members)
    bounded = _upper_bounded if role == "initial" else _lower_bounded
    if not (is_chain(model, event.members) and bounded(model, members)):
        raise MisclassifiedEvent(f"{event.name!r} is not an {role} event")
    combine = operator.and_ if role == "initial" else operator.or_
    mask = functools.reduce(
        combine, (model.history_bits[p] for p in event.members)
    )
    memo[key] = mask
    return mask


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
        acc &= _role_mask(model, e, "initial")
    for e in outcomes:
        acc &= _role_mask(model, e, "outcome")
    return acc != 0


def validate_spread(model: CausalModel, spread: Spread) -> ValidationReport:
    """Check the three defining conditions of a spread.

    (i) every point of the initial strictly precedes every point of every
    outcome; (ii) every history containing the initial overlaps some
    outcome; (iii) no history overlaps two distinct outcomes.  Failures
    are reported, not raised.
    """
    name = f"spread {spread.initial.name}"
    violations: list[str] = []

    try:
        initial = _role_mask(model, spread.initial, "initial")
        masks = [_role_mask(model, o, "outcome") for o in spread.outcomes]
    except MisclassifiedEvent as exc:
        return ValidationReport(
            check=name, status="fail", violations=(str(exc),)
        )

    before = model.mask(spread.initial.members)
    for o in spread.outcomes:
        if not before & ~_strictly_below(model, o.members):
            continue
        for pi in sorted(spread.initial.members):
            for po in sorted(o.members):
                if not model.lt(pi, po):
                    violations.append(
                        f"(i) initial point {pi} does not strictly precede "
                        f"{po} of outcome {o.name}"
                    )
    # histories overlapping some outcome, and overlapping two or more
    some = twice = 0
    for m in masks:
        twice |= some & m
        some |= m
    bad = (initial & ~some) | twice
    for k, h in enumerate(model.histories):
        if not bad >> k & 1:
            continue
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
    return ValidationReport(
        check=name,
        status="fail" if violations else "pass",
        violations=tuple(violations),
    )


def _require_valid(model: CausalModel, ns: NSpread) -> None:
    for s in ns.spreads:
        report = validate_spread(model, s)
        if not report.ok:
            raise InvalidSpread(
                f"spread at {s.initial.name!r} is invalid: "
                + "; ".join(report.violations)
            )


def enumerate_outcome_vectors(ns: NSpread) -> tuple[OutcomeVector, ...]:
    """All outcome vectors, lexicographic in the declared outcome orders."""
    return tuple(
        OutcomeVector(terms=combo)
        for combo in itertools.product(*[s.outcomes for s in ns.spreads])
    )


def consistency_grade(model: CausalModel, ns: NSpread) -> GradeReport:
    """Grade an n-spread: minimal, 1-consistent, maximally consistent.

    Raises :class:`InvalidSpread` when a constituent spread fails
    validation.  The implication chain maximal => 1-consistent => minimal
    is checked on every grading; a break is a bug and raises
    ``RuntimeError``, also under ``python -O``.
    """
    _require_valid(model, ns)
    initials = list(ns.initials)
    minimal = is_consistent(model, initials, ())
    one = minimal and all(
        is_consistent(model, initials, (o,))
        for s in ns.spreads
        for o in s.outcomes
    )
    vectors = enumerate_outcome_vectors(ns)
    inconsistent = tuple(
        v for v in vectors if not is_consistent(model, (), v.terms)
    )
    maximal = not inconsistent
    if (maximal and not one) or (one and not minimal):
        raise RuntimeError(
            "internal error: consistency grade breaks the implication chain "
            f"maximal => 1-consistent => minimal ({maximal}, {one}, {minimal})"
        )
    return GradeReport(
        minimal=minimal,
        one_consistent=one,
        maximal=maximal,
        vector_count=len(vectors),
        inconsistent_vectors=inconsistent,
    )


def is_spacelike(model: CausalModel, ns: NSpread) -> bool:
    """Minimally consistent, with no initial preceding a foreign outcome.

    The second clause: no point of the initial of one spread strictly
    precedes any point of any outcome of a *different* spread of the
    n-spread.
    """
    _require_valid(model, ns)
    if not is_consistent(model, ns.initials, ()):
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
