"""Finite causal models: a strict partial order on point events.

A model is a nonempty finite set of point events together with a strict
(irreflexive, transitive) order.  Histories are the maximal directed
subsets of the model: a set of points is directed when any two of its
members have a common upper bound *within the set*.  In a finite model
every maximal directed subset is automatically downward closed and is the
down-closure of a unique maximal point, so ``compute_histories`` simply
takes the principal down-set of each maximal point.  The test suite
re-verifies that characterization against a brute-force enumeration of
directed subsets.

Consistency questions are answered from one cached bitmask per point,
``history_bits``: bit k is set when ``histories[k]`` contains the point.
It is built once, lazily, like the histories.  ``role_masks`` is the
event layer's memo of passed role checks, so it lives and dies with the
model.

The postulate checks (`check_prior_choice`, `check_infima_suprema`,
`check_density`) return reports instead of raising: a malformed *input*
raises, a *failed property* is data.  The infima/suprema postulate holds
in every finite model (a finite chain's least and greatest members are
its bounds), so its check reports a pass without scanning; density fails
in every nontrivial finite order and is reported as waived.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Mapping

from .errors import CycleDetected, EmptyModel, SameHistory, UnknownPoint

PointEventId = str


@dataclass(frozen=True)
class History:
    """A maximal directed subset of a model, identified by its top point."""

    top: PointEventId
    members: frozenset[PointEventId]


@dataclass(frozen=True)
class ValidationReport:
    """Outcome of one structural check.

    ``status`` is ``"pass"``, ``"fail"`` or ``"waived"``; a waived check is
    one whose property cannot hold in the finite setting and is reported
    rather than enforced.  ``violations`` carries one line per failure (or
    the witness for a waiver), ``notes`` carries commentary.
    """

    check: str
    status: str
    violations: tuple[str, ...] = ()
    notes: tuple[str, ...] = ()

    @property
    def ok(self) -> bool:
        return self.status != "fail"


@dataclass(frozen=True, eq=False)
class CausalModel:
    """A finite strict partial order over named point events.

    ``points`` is sorted; ``below[p]`` is the set of strict predecessors of
    ``p`` under the full transitive relation (not just the supplied pairs).
    Instances are built through :func:`build_model` and treated as
    immutable; identity comparison is intentional.
    """

    points: tuple[PointEventId, ...]
    below: Mapping[PointEventId, frozenset[PointEventId]]
    above: Mapping[PointEventId, frozenset[PointEventId]]

    # -- order primitives -------------------------------------------------

    def lt(self, a: PointEventId, b: PointEventId) -> bool:
        """Strictly below."""
        return a in self.below[b]

    def le(self, a: PointEventId, b: PointEventId) -> bool:
        return a == b or a in self.below[b]

    def comparable(self, a: PointEventId, b: PointEventId) -> bool:
        return a == b or self.lt(a, b) or self.lt(b, a)

    def down_closure(self, p: PointEventId) -> frozenset[PointEventId]:
        """All points at or below ``p``."""
        return self.below[p] | {p}

    def require_points(self, pts: Iterable[PointEventId]) -> None:
        for p in pts:
            if p not in self.below:
                raise UnknownPoint(f"unknown point id: {p!r}")

    def covers(self, p: PointEventId) -> tuple[PointEventId, ...]:
        """Immediate successors of ``p``: q > p with nothing in between.

        Those are the points above ``p`` that lie above no other point
        above ``p``.
        """
        ups = self.above[p]
        out = set(ups)
        for r in ups:
            out -= self.above[r]
        return tuple(sorted(out))

    def maximal_points(self) -> tuple[PointEventId, ...]:
        return tuple(p for p in self.points if not self.above[p])

    def maximal_in(self, subset: frozenset[PointEventId]) -> frozenset[PointEventId]:
        """Members of ``subset`` with no strictly greater member in it."""
        return frozenset(p for p in subset if not (self.above[p] & subset))

    # -- histories --------------------------------------------------------

    @cached_property
    def histories(self) -> tuple[History, ...]:
        """Maximal directed subsets, as principal down-sets of maxima."""
        return tuple(
            History(top=m, members=self.down_closure(m))
            for m in self.maximal_points()
        )

    @cached_property
    def history_bits(self) -> Mapping[PointEventId, int]:
        """Per point, the histories containing it as a bitmask.

        Bit k stands for ``histories[k]``.  Consistency queries are
        answered from these masks by integer arithmetic.
        """
        bits = dict.fromkeys(self.points, 0)
        for k, h in enumerate(self.histories):
            for p in h.members:
                bits[p] |= 1 << k
        return bits

    @cached_property
    def role_masks(self) -> dict[tuple[frozenset[PointEventId], str], int]:
        """Memo of the event layer, filled by ``events``.

        Maps (event members, role) to the history mask of the event in
        that role, for role checks that passed in this model.
        """
        return {}

    def order_pairs(self) -> tuple[tuple[PointEventId, PointEventId], ...]:
        """The full strict relation as sorted (lower, upper) pairs."""
        return tuple(
            (a, b) for b in self.points for a in sorted(self.below[b])
        )


def build_model(
    points: Iterable[PointEventId],
    order_pairs: Iterable[tuple[PointEventId, PointEventId]],
) -> CausalModel:
    """Construct a model from point ids and generating order pairs.

    The supplied pairs may be any generating set; the transitive closure is
    computed here.  Raises :class:`EmptyModel`, :class:`UnknownPoint` for a
    pair mentioning an undeclared id, :class:`CycleDetected` when the
    closure would put a point below itself, and ``ValueError`` for
    duplicate or empty point labels.
    """
    pts = list(points)
    if not pts:
        raise EmptyModel("a model needs at least one point event")
    seen: set[PointEventId] = set()
    for p in pts:
        if not isinstance(p, str) or not p:
            raise ValueError(f"point ids must be nonempty strings, got {p!r}")
        if p in seen:
            raise ValueError(f"duplicate point id: {p!r}")
        seen.add(p)

    succ: dict[PointEventId, set[PointEventId]] = {p: set() for p in pts}
    for a, b in order_pairs:
        if a not in succ:
            raise UnknownPoint(f"unknown point id in order pair: {a!r}")
        if b not in succ:
            raise UnknownPoint(f"unknown point id in order pair: {b!r}")
        succ[a].add(b)

    above: dict[PointEventId, frozenset[PointEventId]] = {}
    for p in pts:
        reached: set[PointEventId] = set()
        stack = list(succ[p])
        while stack:
            q = stack.pop()
            if q in reached:
                continue
            reached.add(q)
            stack.extend(succ[q])
        if p in reached:
            raise CycleDetected(f"ordering cycle through point {p!r}")
        above[p] = frozenset(reached)

    below: dict[PointEventId, set[PointEventId]] = {p: set() for p in pts}
    for p, ups in above.items():
        for q in ups:
            below[q].add(p)

    return CausalModel(
        points=tuple(sorted(pts)),
        below={p: frozenset(s) for p, s in below.items()},
        above=above,
    )


def is_chain(model: CausalModel, pts: Iterable[PointEventId]) -> bool:
    """True when the given nonempty points are pairwise comparable."""
    members = list(dict.fromkeys(pts))
    if not members:
        raise ValueError("a chain must be nonempty")
    model.require_points(members)
    return all(
        model.comparable(a, b)
        for i, a in enumerate(members)
        for b in members[i + 1 :]
    )


def compute_histories(model: CausalModel) -> tuple[History, ...]:
    """All histories of the model (cached on the model)."""
    return model.histories


def _require_history(model: CausalModel, h: History) -> None:
    if h not in model.histories:
        raise ValueError(f"not a history of this model: {h.top!r}")


def choice_points(
    model: CausalModel, h1: History, h2: History
) -> frozenset[PointEventId]:
    """Maximal elements of the intersection of two distinct histories.

    The intersection may be empty (disjoint histories), in which case the
    result is empty.  Passing the same history twice raises
    :class:`SameHistory`.
    """
    _require_history(model, h1)
    _require_history(model, h2)
    if h1.members == h2.members:
        raise SameHistory(f"histories coincide at top {h1.top!r}")
    return model.maximal_in(h1.members & h2.members)


def check_prior_choice(model: CausalModel) -> ValidationReport:
    """Check that branching is always located at a choice point.

    For each ordered pair of distinct histories h1, h2 and each point e in
    h1 but not h2 there must be a choice point of the pair strictly below
    e.  Every finite chain in h1 - h2 has a minimum, so checking single
    points covers all chains.
    """
    violations: list[str] = []
    hs = model.histories
    for h1 in hs:
        for h2 in hs:
            if h1.members == h2.members:
                continue
            cps = model.maximal_in(h1.members & h2.members)
            for e in sorted(h1.members - h2.members):
                if not any(model.lt(c, e) for c in cps):
                    violations.append(
                        f"no choice point below {e} for history pair "
                        f"({h1.top}, {h2.top})"
                    )
    status = "fail" if violations else "pass"
    return ValidationReport(
        check="prior-choice",
        status=status,
        violations=tuple(violations),
        notes=(
            "finite chains have minima, so single points stand in for all "
            "chains in the difference of two histories",
        ),
    )


def check_infima_suprema(model: CausalModel) -> ValidationReport:
    """Report on infima and suprema of chains.

    The postulate asks that lower bounded chains have infima and upper
    bounded chains have suprema in every history containing them.  In a
    finite model every nonempty chain has a least and a greatest member:
    the least is its infimum, and the greatest lies in every history that
    contains the chain and is its supremum there.  So the postulate holds
    in every model, and the report is ``"pass"`` without a scan; ``model``
    is taken only to keep the signature of the other checks.
    """
    return ValidationReport(
        check="infima-suprema",
        status="pass",
        notes=(
            "finite chains have a least and a greatest member, which are "
            "their infimum and their supremum in every history containing "
            "them; the postulate holds in every finite model",
        ),
    )


def check_density(model: CausalModel) -> ValidationReport:
    """Report on order density (between any two ordered points lies a third).

    No nontrivial finite order is dense, so any model with at least one
    ordered pair gets status ``"waived"`` together with a witness gap.  A
    model whose order relation is empty is vacuously dense and passes.
    """
    gaps = [(a, b) for a in model.points for b in model.covers(a)]
    if not gaps:
        return ValidationReport(
            check="density",
            status="pass",
            notes=("order relation is empty; density holds vacuously",),
        )
    a, b = min(gaps)
    return ValidationReport(
        check="density",
        status="waived",
        violations=(f"no point strictly between {a} and {b}",),
        notes=(
            f"finite models with a nonempty order are never dense; "
            f"{len(gaps)} immediate gaps in total",
        ),
    )
