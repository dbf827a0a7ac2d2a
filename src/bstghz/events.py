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
when its AND equals its OR.  Each event's record, memoised on the model
by ``_event_masks``, holds its point mask, its containing mask and its
overlapping mask, and every reader of an event's masks reads it; a
one-point event is a chain and takes one index lookup, and a larger
event's chain check runs on its point mask, once per model.  A
spread's entry, keyed by the spread and written by ``validate_spread``
on a pass, holds the points above its initial and its outcomes'
overlapping masks.  An n-spread's record (``_nspread_record``), written
once its spreads pass, holds the AND of its initials' containing masks,
its spreads' outcome masks, taken from their entries, the size of its
product, the ranks of its consistent vectors and its 1-consistency bit;
the common-cause layer adds what only it reads.
Violations are worded only after a mask test has failed.  Precedence
failures are named by one walk (``_precedence_gaps``) that spread
validation and the common-cause checker share: it skips an outcome whose
mask lies above the initial and names, per point p of the initial, the
outcome's bits outside ``up[p]``.

Grading an n-spread reads its record and makes no consistency query
and no walk: the AND of its initials' containing masks decides minimal
consistency (the space-like test reads the same AND), the record's bit
1-consistency, and the consistent ranks maximal consistency.  Those
ranks are found once, when the record is written, by the box walk
(``_box_ranks``) on the box of all outcomes.  A box gives one set of
outcomes per spread; the walk extends prefixes spread by spread, keeping
a prefix only while the AND of its outcomes' overlapping masks is
nonzero.  No history overlaps two outcomes of one spread, so the live
prefixes of each length have disjoint masks and number at most the
model's histories, and a box holds an inconsistent vector exactly when
its size exceeds its consistent count.  A vector is its mixed-radix
rank, so the grade's inconsistent vectors are a lazy sequence over the
ranks that are not consistent (``InconsistentVectors``), whose length
is a subtraction: nothing in the grade grows with the product.

``Event``, ``Spread`` and ``NSpread`` are memo keys, so each hashes its
fields once, at construction, into a private slot.  ``Event`` and
``Spread`` also compare that hash before their fields: an atomic
candidate and a declared spread over the same points are equal but
distinct objects, so a lookup by the one finds the other's entry only
after an equality test, which then costs one field compare per level
instead of building every field tuple.  The hash stays out
of the pickled state: a record is pickled as its constructor call and
hashes afresh where it is loaded.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from typing import Iterable, Iterator, Sequence

from .errors import InvalidSpread, MisclassifiedEvent
from .model import (
    CausalModel,
    PointEventId,
    ValidationReport,
    bit_indices,
    _is_chain_mask,
    _LazyTuple,
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
        put_name, put_members = self._setters
        put_name(self, name)
        put_members(self, members)
        self._put_hash(self, hash((name, members)))

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (
            self._hash == other._hash  # type: ignore[attr-defined]
            and self.name == other.name  # type: ignore[attr-defined]
            and self.members == other.members  # type: ignore[attr-defined]
        )


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
        put_initial, put_outcomes = self._setters
        put_initial(self, initial)
        put_outcomes(self, outcomes)
        self._put_hash(self, hash((initial, outcomes)))

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (
            self._hash == other._hash  # type: ignore[attr-defined]
            and self.initial == other.initial  # type: ignore[attr-defined]
            and self.outcomes == other.outcomes  # type: ignore[attr-defined]
        )


class NSpread(_Record):
    """An ordered tuple of spreads treated as one joint arrangement."""

    __slots__ = ("spreads", "_hash")

    def __init__(self, spreads: tuple[Spread, ...]) -> None:
        if not spreads:
            raise ValueError("an n-spread needs at least one spread")
        self._setters[0](self, spreads)
        self._put_hash(self, hash((spreads,)))

    def __hash__(self) -> int:
        return self._hash

    @property
    def initials(self) -> tuple[Event, ...]:
        return tuple(s.initial for s in self.spreads)


class OutcomeVector(_Record):
    """One outcome event per spread of an n-spread, in spread order."""

    __slots__ = ("terms",)

    # Reading a grade's inconsistent vectors builds one per vector: with
    # the vector it checks, 9 per ghz-checkcc operation.  This __init__ is
    # about 0.24 us a call faster than the shared one, 0.25 against 0.49
    # us (timeit, best of 7, three rounds; BENCH_33.json).
    def __init__(self, terms: tuple[Event, ...]) -> None:
        object.__setattr__(self, "terms", terms)

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(t.name for t in self.terms)

    def label(self) -> str:
        return ",".join(self.names)


class InconsistentVectors(_LazyTuple):
    """The inconsistent outcome vectors of an n-spread, in lexicographic
    order, as a read-only sequence that builds a vector only when one is
    read.

    It holds the n-spread, the size of its product and the increasing
    ranks of its consistent vectors, from the n-spread's record; its
    items are the vectors of the other ranks.  Its length is the product
    size less the consistent count and its truth whether that is
    nonzero, so neither builds a vector.  Iteration walks the product in
    rank order past the consistent ranks.  An index finds the i-th rank
    outside the consistent ones by one pass over them and unranks it as a
    mixed-radix number, by ``divmod`` with each spread's outcome count,
    last spread first (Knuth, TAOCP 4A, 7.2.1.1).  The rest of its
    reading as the tuple of its vectors is :class:`model._LazyTuple`'s.
    """

    __slots__ = ("_nspread", "_count", "_ranks")

    def __init__(
        self, nspread: NSpread, count: int, ranks: tuple[int, ...]
    ) -> None:
        object.__setattr__(self, "_nspread", nspread)
        object.__setattr__(self, "_count", count)
        object.__setattr__(self, "_ranks", ranks)

    def __len__(self) -> int:
        return self._count - len(self._ranks)

    def __bool__(self) -> bool:
        return self._count != len(self._ranks)

    def __iter__(self) -> Iterator[OutcomeVector]:
        ranks = iter(self._ranks)
        skip = next(ranks, None)
        outcomes = [s.outcomes for s in self._nspread.spreads]
        for rank, terms in enumerate(itertools.product(*outcomes)):
            if rank == skip:
                skip = next(ranks, None)
            else:
                yield OutcomeVector(terms)

    def _item(self, i: int) -> OutcomeVector:
        rank = i
        for consistent in self._ranks:
            if consistent > rank:
                break
            rank += 1
        terms = []
        for s in reversed(self._nspread.spreads):
            rank, j = divmod(rank, len(s.outcomes))
            terms.append(s.outcomes[j])
        terms.reverse()
        return OutcomeVector(tuple(terms))


class GradeReport(_Record):
    """Consistency grading of an n-spread.

    ``minimal``: the initials alone are consistent.  ``one_consistent``:
    additionally each single outcome of each spread is consistent with the
    initials.  ``maximal``: every outcome vector is consistent.
    ``vector_count`` is the size of the product, exactly, and
    ``inconsistent_vectors`` the vectors that are not consistent, as an
    :class:`InconsistentVectors` sequence when the grade built it.
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
        _, contain, overlap = _event_masks(model, event, "initial")
    except MisclassifiedEvent:
        return EventClassification(False, False, False)
    return EventClassification(
        is_initial=True, is_outcome=True, is_stable=contain == overlap
    )


def _event_masks(
    model: CausalModel, event: Event, role: str
) -> tuple[int, int, int]:
    """The event's record: its points, the histories containing it and
    those overlapping it, as masks.

    The second mask realizes the event as an initial, the third as an
    outcome.  A one-point event is a chain and is read off its point's
    index and history mask; a larger one is checked on its point mask,
    once per model.  The record is memoised on the model, keyed by the
    members, only after the check passed, so a misclassified event or an
    unknown point raises on every call.  ``role`` words the
    :class:`MisclassifiedEvent` message.
    """
    members = event.members
    record = model.memo.get(members)
    if record is None:
        if len(members) == 1:
            (p,) = members
            i = model.index.get(p)
            if i is None:
                model.mask(members)  # raises UnknownPoint
            h = model.history_bits[p]
            record = (1 << i, h, h)
        else:
            points = model.mask(members)
            if not _is_chain_mask(model, points):
                raise MisclassifiedEvent(
                    f"{event.name!r} is not an {role} event"
                )
            bits = [model.history_bits[p] for p in members]
            record = (
                points,
                functools.reduce(operator.and_, bits),
                functools.reduce(operator.or_, bits),
            )
        model.memo[members] = record
    return record


def _above(model: CausalModel, event: Event) -> int:
    """The points strictly above every point of the initial ``event``;
    for a one-point initial, that point's ``up`` mask."""
    points = _event_masks(model, event, "initial")[0]
    if not points & (points - 1):
        return model.up[points.bit_length() - 1]
    lower = bit_indices(points)
    return functools.reduce(operator.and_, (model.up[i] for i in lower))


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
    lower = bit_indices(_event_masks(model, initial, "initial")[0])
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
        acc &= _event_masks(model, e, "initial")[1]
    for e in outcomes:
        acc &= _event_masks(model, e, "outcome")[2]
    return acc != 0


def validate_spread(model: CausalModel, spread: Spread) -> ValidationReport:
    """Check the three defining conditions of a spread.

    (i) every point of the initial strictly precedes every point of every
    outcome; (ii) every history containing the initial overlaps some
    outcome; (iii) no history overlaps two distinct outcomes.  Failures
    are reported, not raised; a pass writes the spread's entry, the
    points strictly above its initial and the histories overlapping each
    outcome in declared order, so :func:`_require_valid` does not
    validate the spread again.
    """
    name = f"spread {spread.initial.name}"
    try:
        initial = _event_masks(model, spread.initial, "initial")[1]
        records = [_event_masks(model, o, "outcome") for o in spread.outcomes]
    except MisclassifiedEvent as exc:
        return ValidationReport(
            check=name, status="fail", violations=(str(exc),)
        )

    # (i) is one test, that the outcome points lie above the initial; its
    # failing pairs are worded only when it fails
    violations = []
    above = _above(model, spread.initial)
    if functools.reduce(operator.or_, (r[0] for r in records)) & ~above:
        violations = [
            f"(i) initial point {p} does not strictly precede {q} of "
            f"outcome {o.name}"
            for o, p, q in _precedence_gaps(
                model,
                spread.initial,
                ((o, r[0]) for o, r in zip(spread.outcomes, records)),
                above,
            )
        ]
    # histories overlapping some outcome, and overlapping two or more
    masks = tuple([r[2] for r in records])
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
        model.memo[spread] = (above, masks)
    return ValidationReport(
        name, "fail" if violations else "pass", tuple(violations), ()
    )


def _require_valid(
    model: CausalModel, spreads: Iterable[Spread], noun: str = "spread"
) -> None:
    """Raise :class:`InvalidSpread` at the first invalid spread; a spread
    with an entry passed :func:`validate_spread` and is not validated
    again."""
    memo = model.memo
    for s in spreads:
        if s in memo:
            continue
        report = validate_spread(model, s)
        if not report.ok:
            raise InvalidSpread(
                f"{noun} at {s.initial.name!r} is invalid: "
                + "; ".join(report.violations)
            )


def _nspread_record(
    model: CausalModel, ns: NSpread
) -> tuple[int, tuple[tuple[int, ...], ...], int, tuple[int, ...], bool]:
    """The n-spread's record: the histories containing every initial; per
    spread the histories overlapping each of its outcomes in declared
    order, from its spreads' entries; the size of its product; the ranks
    of its consistent vectors, in increasing order (:func:`_box_ranks` on
    the box of all outcomes); and whether it is 1-consistent, that is,
    whether that AND is nonzero and meets every overlapping mask.

    Validates the spreads on a miss, so an invalid one raises
    :class:`InvalidSpread`, and memoises the record on the model, keyed
    by the n-spread.
    """
    memo = model.memo
    record = memo.get(ns)
    if record is None:
        _require_valid(model, ns.spreads)
        hist = functools.reduce(
            operator.and_,
            (_event_masks(model, s.initial, "initial")[1] for s in ns.spreads),
        )
        outs = tuple([memo[s][1] for s in ns.spreads])
        record = memo[ns] = (
            hist,
            outs,
            math.prod(map(len, outs)),
            tuple(_box_ranks(outs, (1 << len(model.histories)) - 1)),
            hist != 0 and all(hist & m for ms in outs for m in ms),
        )
    return record


def _box_ranks(outs: Sequence[Sequence[int]], start: int) -> list[int]:
    """The lexicographic ranks, in increasing order, of the consistent
    vectors of the box ``outs``.

    ``outs`` gives per spread the overlapping masks of the box's
    outcomes, and a vector is consistent when the AND of ``start`` and
    its terms' masks is nonzero.  The walk keeps a flat list of live
    ``(rank, acc)`` prefixes, extended one spread at a time in rank
    order; when the masks of each spread are disjoint, as a valid
    spread's are, it holds at most one prefix per history.
    """
    live = [(0, start)]
    for ms in outs:
        n = len(ms)
        extended = []
        for rank, acc in live:
            rank *= n
            for m in ms:
                if both := acc & m:
                    extended.append((rank, both))
                rank += 1
        live = extended
    return [rank for rank, _ in live]


def consistency_grade(model: CausalModel, ns: NSpread) -> GradeReport:
    """Grade an n-spread: minimal, 1-consistent, maximally consistent.

    Raises :class:`InvalidSpread` when a constituent spread fails
    validation.  The grade is read off the n-spread's record
    (:func:`_nspread_record`), so a repeated grade walks nothing: the
    initials are consistent when the AND of their containing masks is
    nonzero, the record holds the 1-consistency bit, and the n-spread is
    maximally consistent when its consistent ranks number its product.
    ``inconsistent_vectors`` is the :class:`InconsistentVectors` sequence
    of the other ranks, which builds no vector until it is read.  The
    implication chain maximal => 1-consistent => minimal is checked on
    every grading; a break is a bug and raises ``RuntimeError``, also
    under ``python -O``.
    """
    hist, _, count, ranks, one = _nspread_record(model, ns)
    minimal = hist != 0
    maximal = count == len(ranks)
    if (maximal and not one) or (one and not minimal):
        raise RuntimeError(
            "internal error: consistency grade breaks the implication chain "
            f"maximal => 1-consistent => minimal ({maximal}, {one}, {minimal})"
        )
    return GradeReport(
        minimal, one, maximal, count, InconsistentVectors(ns, count, ranks)
    )


def is_spacelike(model: CausalModel, ns: NSpread) -> bool:
    """Minimally consistent, with no initial preceding a foreign outcome.

    The second clause: no point of the initial of one spread strictly
    precedes any point of any outcome of a *different* spread of the
    n-spread.  The first clause reads the AND of the initials'
    containing masks from the n-spread's record, which validates its
    spreads (:class:`InvalidSpread`).
    """
    if not _nspread_record(model, ns)[0]:
        return False
    initials = [
        _event_masks(model, s.initial, "initial")[0] for s in ns.spreads
    ]
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
