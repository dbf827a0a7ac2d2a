"""The three-station GHZ measurement scenario as spreads over a finite model.

Three stations each choose one of two measurement axes (x or y) and then
register one of two signs (- or +).  Station i therefore carries one
initial event ``Ii``, two stable axis events ``xi`` and ``yi``, and four
outcome events ``x-i x+i y-i y+i``.  The stipulated correlation is a pure
parity rule on joint outcomes: a triple of signs under a context of axes
is consistent exactly when

* the context mixes both axes and the number of minus signs is even, or
* the context is unmixed (xxx or yyy) and the number of minus signs is odd.

``build_concrete_model`` realizes the rule inside an explicit 53-point
causal model whose histories are in bijection with the 32 parity
consistent joint outcomes, so the abstract stipulation and history-based
consistency can be checked against each other.

The two brute-force searches at the bottom mechanize the obstruction to
pre-assigned values: no global assignment of signs to the six
station/axis pairs satisfies the four product constraints at once, while
per-context assignments (nothing shared between contexts) satisfy them
comfortably.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Mapping, Sequence

from .document import ModelDocument, model_document
from .events import Event, NSpread, Spread
from .model import CausalModel, build_model

STATIONS = (1, 2, 3)
AXES = ("x", "y")
SIGNS = (-1, 1)  # declared order: minus before plus

Context = tuple[str, str, str]
SignVector = tuple[int, int, int]

ALL_CONTEXTS: tuple[Context, ...] = tuple(
    itertools.product(AXES, repeat=3)  # type: ignore[arg-type]
)

# The four contexts whose product constraints jointly rule out preassigned
# values: the three one-x rotations with target +1 and xxx with target -1.
OMEGA_CONSTRAINTS: tuple[tuple[Context, int], ...] = (
    (("x", "y", "y"), 1),
    (("y", "x", "y"), 1),
    (("y", "y", "x"), 1),
    (("x", "x", "x"), -1),
)

# Context family used by the joint common cause refutation.
THEOREM_CONTEXTS: tuple[Context, ...] = (
    ("x", "x", "x"),
    ("x", "x", "y"),
    ("x", "y", "y"),
    ("x", "y", "x"),
)


def sign_char(s: int) -> str:
    return "+" if s > 0 else "-"


def context_label(ctx: Context) -> str:
    return "".join(ctx)


def signs_label(signs: SignVector) -> str:
    return "".join(sign_char(s) for s in signs)


def parse_context(label: str) -> Context:
    from .errors import BadFlag

    if len(label) != 3 or any(c not in AXES for c in label):
        raise BadFlag(f"not an axis context: {label!r} (want e.g. 'xxy')")
    return (label[0], label[1], label[2])


def initial_name(i: int) -> str:
    return f"I{i}"


def stable_name(i: int, axis: str) -> str:
    return f"{axis}{i}"


def outcome_name(i: int, axis: str, sign: int) -> str:
    return f"{axis}{sign_char(sign)}{i}"


@dataclass(frozen=True)
class GhzVector:
    """A joint outcome: an axis context plus one sign per station."""

    context: Context
    signs: SignVector

    def __post_init__(self) -> None:
        if len(self.context) != 3 or any(a not in AXES for a in self.context):
            raise ValueError(f"bad context: {self.context!r}")
        if len(self.signs) != 3 or any(s not in SIGNS for s in self.signs):
            raise ValueError(f"bad signs: {self.signs!r}")

    @property
    def outcome_names(self) -> tuple[str, str, str]:
        return tuple(
            outcome_name(i, a, s)
            for i, a, s in zip(STATIONS, self.context, self.signs)
        )  # type: ignore[return-value]

    def label(self) -> str:
        return f"{context_label(self.context)}:{signs_label(self.signs)}"


def parity_consistent(vector: GhzVector) -> bool:
    """The stipulated correlation rule, as a pure function of the labels."""
    mixed = len(set(vector.context)) > 1
    minuses = sum(1 for s in vector.signs if s < 0)
    return minuses % 2 == 0 if mixed else minuses % 2 == 1


def context_vectors(ctx: Context) -> tuple[GhzVector, ...]:
    """The eight joint outcomes of a context, lexicographic with - first."""
    return tuple(
        GhzVector(context=ctx, signs=signs)
        for signs in itertools.product(SIGNS, repeat=3)
    )


def consistent_vectors(ctx: Context) -> tuple[GhzVector, ...]:
    return tuple(v for v in context_vectors(ctx) if parity_consistent(v))


def inconsistent_vectors(ctx: Context) -> tuple[GhzVector, ...]:
    return tuple(v for v in context_vectors(ctx) if not parity_consistent(v))


# Canonical enumeration order for the twelve outcome events.
OUTCOME_EVENT_ORDER: tuple[str, ...] = tuple(
    outcome_name(i, a, s) for i in STATIONS for a in AXES for s in SIGNS
)


@dataclass(frozen=True)
class GhzStructure:
    """The named events, spreads, and n-spreads of the scenario.

    All events are singletons over like-named points, so the same
    structure describes both the abstract parity scenario and its
    realization from :func:`build_concrete_model`.
    """

    events: Mapping[str, Event]
    spreads: Mapping[str, Spread]
    nspreads: Mapping[str, NSpread]

    def initial(self, i: int) -> Event:
        return self.events[initial_name(i)]

    def stable(self, i: int, axis: str) -> Event:
        return self.events[stable_name(i, axis)]

    def outcome(self, i: int, axis: str, sign: int) -> Event:
        return self.events[outcome_name(i, axis, sign)]

    def outcome_events(self) -> tuple[Event, ...]:
        return tuple(self.events[n] for n in OUTCOME_EVENT_ORDER)

    def context_nspread(self, ctx: Context) -> NSpread:
        return self.nspreads[f"Sigma_{context_label(ctx)}"]

    def vector_events(self, vector: GhzVector) -> tuple[Event, Event, Event]:
        a, b, c = (self.events[n] for n in vector.outcome_names)
        return (a, b, c)


def build_abstract_structure() -> GhzStructure:
    """Events and spreads of the scenario, independent of any model."""
    events: dict[str, Event] = {}

    def ev(name: str) -> Event:
        events[name] = Event(name=name, members=frozenset({name}))
        return events[name]

    for i in STATIONS:
        ev(initial_name(i))
        for a in AXES:
            ev(stable_name(i, a))
            for s in SIGNS:
                ev(outcome_name(i, a, s))

    spreads: dict[str, Spread] = {}
    for i in STATIONS:
        spreads[f"sigma_{i}"] = Spread(
            initial=events[initial_name(i)],
            outcomes=tuple(events[stable_name(i, a)] for a in AXES),
        )
        for a in AXES:
            spreads[f"sigma_{a}_{i}"] = Spread(
                initial=events[stable_name(i, a)],
                outcomes=tuple(events[outcome_name(i, a, s)] for s in SIGNS),
            )
        spreads[f"sigma_star_{i}"] = Spread(
            initial=events[initial_name(i)],
            outcomes=tuple(
                events[outcome_name(i, a, s)] for a in AXES for s in SIGNS
            ),
        )

    nspreads: dict[str, NSpread] = {
        "Sigma_123": NSpread(
            spreads=tuple(spreads[f"sigma_{i}"] for i in STATIONS)
        ),
        "Sigma_star_123": NSpread(
            spreads=tuple(spreads[f"sigma_star_{i}"] for i in STATIONS)
        ),
    }
    for ctx in ALL_CONTEXTS:
        nspreads[f"Sigma_{context_label(ctx)}"] = NSpread(
            spreads=tuple(
                spreads[f"sigma_{a}_{i}"] for i, a in zip(STATIONS, ctx)
            )
        )
    return GhzStructure(events=events, spreads=spreads, nspreads=nspreads)


def terminal_name(vector: GhzVector) -> str:
    return f"t:{context_label(vector.context)}:{signs_label(vector.signs)}"


def build_concrete_model() -> tuple[CausalModel, GhzStructure]:
    """An explicit 53-point model realizing the parity rule.

    Per station: an initial point below two axis points, each below its
    two sign points (7 points, 21 total).  On top, one terminal point per
    parity consistent joint outcome (32 more), above exactly the three
    matching sign points.  Histories are then exactly the down-closures of
    the terminals, so history-based consistency of joint outcomes agrees
    with :func:`parity_consistent` by construction.
    """
    structure = build_abstract_structure()
    points: list[str] = []
    pairs: list[tuple[str, str]] = []

    for i in STATIONS:
        ini = initial_name(i)
        points.append(ini)
        for a in AXES:
            ax = stable_name(i, a)
            points.append(ax)
            pairs.append((ini, ax))
            for s in SIGNS:
                out = outcome_name(i, a, s)
                points.append(out)
                pairs.append((ax, out))

    for ctx in ALL_CONTEXTS:
        for v in consistent_vectors(ctx):
            t = terminal_name(v)
            points.append(t)
            for out in v.outcome_names:
                pairs.append((out, t))

    return build_model(points, pairs), structure


def ghz_document() -> ModelDocument:
    """The concrete GHZ realization as a document."""
    model, structure = build_concrete_model()
    return model_document(
        model, structure.events, structure.spreads, structure.nspreads
    )


# -- brute-force sign assignment searches ---------------------------------


@dataclass(frozen=True)
class ValueSearchResult:
    """Outcome of the global sign assignment search.

    An assignment gives one sign per (station, axis) pair, the same sign
    regardless of which context it is read in.  ``witnesses`` lists every
    satisfying assignment in lexicographic order.
    """

    constraints: tuple[tuple[Context, int], ...]
    total: int
    satisfying: int
    witnesses: tuple[tuple[int, ...], ...]

    @staticmethod
    def assignment_keys() -> tuple[tuple[int, str], ...]:
        return tuple((i, a) for i in STATIONS for a in AXES)


def value_assignment_search(
    constraints: Sequence[tuple[Context, int]] = OMEGA_CONSTRAINTS,
) -> ValueSearchResult:
    """Count sign assignments meeting every product constraint.

    Each constraint demands that the product of the three signs the
    assignment gives to (station i, context axis at i) equals the target.
    """
    keys = ValueSearchResult.assignment_keys()
    witnesses = []
    for signs in itertools.product(SIGNS, repeat=len(keys)):
        value = dict(zip(keys, signs))
        ok = all(
            value[(1, ctx[0])] * value[(2, ctx[1])] * value[(3, ctx[2])]
            == target
            for ctx, target in constraints
        )
        if ok:
            witnesses.append(signs)
    return ValueSearchResult(
        constraints=tuple((ctx, t) for ctx, t in constraints),
        total=2 ** len(keys),
        satisfying=len(witnesses),
        witnesses=tuple(witnesses),
    )


@dataclass(frozen=True)
class ContextualSearchResult:
    """Outcome of the per-context sign assignment search.

    Here each constrained context gets its own independent triple of
    signs; nothing forces two contexts to agree on a shared station/axis
    pair.  ``witness`` is the lexicographically least satisfying choice,
    as a tuple of sign triples in constraint order.
    """

    constraints: tuple[tuple[Context, int], ...]
    total: int
    satisfying: int
    witness: tuple[SignVector, ...] | None


def contextual_assignment_search(
    constraints: Sequence[tuple[Context, int]] = OMEGA_CONSTRAINTS,
) -> ContextualSearchResult:
    """Count joint choices of per-context sign triples meeting the targets."""
    count = 0
    witness: tuple[SignVector, ...] | None = None
    triples = tuple(itertools.product(SIGNS, repeat=3))
    for combo in itertools.product(triples, repeat=len(constraints)):
        ok = all(
            t[0] * t[1] * t[2] == target
            for t, (_, target) in zip(combo, constraints)
        )
        if ok:
            count += 1
            if witness is None:
                witness = combo  # type: ignore[assignment]
    return ContextualSearchResult(
        constraints=tuple((ctx, t) for ctx, t in constraints),
        total=len(triples) ** len(constraints),
        satisfying=count,
        witness=witness,
    )
