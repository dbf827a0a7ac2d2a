"""The three-station GHZ measurement scenario as spreads over a finite model.

Three stations each choose one of two measurement axes (x or y) and then
register one of two signs (- or +).  Station i therefore carries one
initial event ``Ii``, two stable axis events ``xi`` and ``yi``, and four
outcome events ``x-i x+i y-i y+i``.  The stipulated correlation is a pure
parity rule on joint outcomes: a triple of signs under a context of axes
is consistent exactly when

* the context mixes both axes and the number of minus signs is even, or
* the context is unmixed (xxx or yyy) and the number of minus signs is odd.

``ghz_document`` realizes the rule as the document of an explicit
53-point causal model whose histories are in bijection with the 32
parity consistent joint outcomes, and ``build_concrete_model`` resolves
it like any other document, so the abstract stipulation and
history-based consistency can be checked against each other.  Callers
get the document's ``ResolvedModel`` and look names up in it as in any
other, a context's n-spread under ``nspread_name``.

Three no-go results follow.  Two sign assignment searches mechanize the
obstruction to pre-assigned values: the AND of the profile sets of the
four product constraints holds none of the 64 global assignments of signs
to the six station/axis pairs, while per-context assignments (nothing
shared between contexts) meet them comfortably, 4 of the 8 sign triples
per constraint, which is counted in closed form.

The third refutes a joint screening common cause, in the sense of the
conditions cc1..cc3 of ``bstghz.common_cause``.
``refute_joint_common_cause`` works over candidate profiles: a profile
assigns to each of the twelve outcome events a flag saying whether some
hypothetical common cause outcome is consistent with it.  Condition cc2
(plus the equivalences relating spread initials to their outcomes)
forces, per measurement context, some parity consistent vector whose
three terms are all flagged consistent; condition cc3 forbids any parity
inconsistent vector from being fully flagged.  cc1 is deliberately
unused: the refutation does not need causal priority.

A profile survives a context when it meets the context's survival
conditions: each station/axis measured has an outcome flagged consistent
(cc2 through its stable initial), and no inconsistent vector has every
term flagged consistent (cc3).  A station/axis measured in two contexts
gives the same condition in both, so a profile survives a family exactly
when it survives each of its contexts.  Each context's conditions leave
four settings of the six flags it measures, one per consistent vector;
with the other six flags free they make the context's profile set, one
bit per profile, built once.  A family's survivors are the AND of its
contexts' sets.  Masks give the first outcome event the most significant
bit, so the set read lowest bit first is in the lexicographic order of
the profiles.  A result holds that AND as a ``ProfileSet`` and reads it
out only on demand: the survivor count is its bit count and the witness
its lowest bit, and iterating it lists the profiles in that order.

Only a refuted family's derivation searches.  One propagation engine
over the twelve flags (unit propagation with case splits, after Davis,
Logemann and Loveland) derives the contradiction.  Its contradictions,
on a full profile exactly the violated survival conditions, are a fully
flagged inconsistent vector and a measured station/axis with both
outcomes flagged inconsistent; its forced steps are screening and
settling (see ``_close``).  Each context's rules are plain masks read
off ``inconsistent_vectors``, so the parity rule is stated only in
``parity_consistent``.  A trace step is formatted when a derivation first
reaches it and shared by every later derivation.  A closure looks for
contradictions among every rule once, on entry, and after that only
among the rules the last step touched.  The derivation starts from a
consistent vector of the first listed context, records per derived flag
one fact, its step and the mask of the flags it rests on, splits on the
first open measured event when saturation stalls, and lays out the facts
each contradiction rests on as it is reached.  The paper's start x+1,
x-2, x+3 is preferred, so the xxx/xxy/xyy/xyx family replays Mermin's
derivation step for step.
"""

from __future__ import annotations

import functools
import itertools
import re
from collections.abc import Iterable, Iterator, Sequence
from math import prod
from typing import Any

from .document import (
    ModelDocument,
    ResolvedModel,
    SpreadDoc,
    resolve_document,
)
from .errors import BadFlag
from .model import CausalModel, _LazyTuple, _Record

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


def _require_known(ctx: Context) -> None:
    if ctx not in ALL_CONTEXTS:
        raise ValueError(f"unknown context: {ctx!r}")


def parse_context(label: str) -> Context:
    if len(label) != 3 or any(c not in AXES for c in label):
        raise BadFlag(f"not an axis context: {label!r} (want e.g. 'xxy')")
    return (label[0], label[1], label[2])


def initial_name(i: int) -> str:
    return f"I{i}"


def stable_name(i: int, axis: str) -> str:
    return f"{axis}{i}"


def outcome_name(i: int, axis: str, sign: int) -> str:
    return f"{axis}{sign_char(sign)}{i}"


class GhzVector(_Record):
    """A joint outcome: an axis context plus one sign per station."""

    __slots__ = ("context", "signs")

    def __init__(self, context: Context, signs: SignVector) -> None:
        if len(context) != 3 or any(a not in AXES for a in context):
            raise ValueError(f"bad context: {context!r}")
        if len(signs) != 3 or any(s not in SIGNS for s in signs):
            raise ValueError(f"bad signs: {signs!r}")
        object.__setattr__(self, "context", context)
        object.__setattr__(self, "signs", signs)

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


def nspread_name(ctx: Context) -> str:
    return f"Sigma_{context_label(ctx)}"


def terminal_name(vector: GhzVector) -> str:
    return f"t:{context_label(vector.context)}:{signs_label(vector.signs)}"


def ghz_document() -> ModelDocument:
    """The concrete GHZ realization as a document: 53 points, 32 histories.

    Per station, the initial is covered by its two axis points, each
    covered by its two sign points; each spread names singleton events
    over like-named points, and the star spread joins the initial to all
    four signs.  On top, one terminal point per parity consistent joint
    outcome (32 of them) covers exactly its three sign points.  Histories
    are then exactly the down-closures of the terminals, so history-based
    consistency of joint outcomes agrees with :func:`parity_consistent`
    by construction.  Points, pairs and sections are sorted.
    """
    spreads: dict[str, SpreadDoc] = {}
    order: list[tuple[str, str]] = []
    for i in STATIONS:
        axes = tuple(stable_name(i, a) for a in AXES)
        spreads[f"sigma_{i}"] = SpreadDoc(initial_name(i), axes)
        order += [(initial_name(i), x) for x in axes]
        for a, x in zip(AXES, axes):
            signs = tuple(outcome_name(i, a, s) for s in SIGNS)
            spreads[f"sigma_{a}_{i}"] = SpreadDoc(x, signs)
            order += [(x, o) for o in signs]
        spreads[f"sigma_star_{i}"] = SpreadDoc(
            initial_name(i),
            tuple(outcome_name(i, a, s) for a in AXES for s in SIGNS),
        )
    names = sorted(
        {n for s in spreads.values() for n in (s.initial, *s.outcomes)}
    )
    terminals = []
    for ctx in ALL_CONTEXTS:
        for v in consistent_vectors(ctx):
            terminals.append(terminal_name(v))
            order += [(o, terminals[-1]) for o in v.outcome_names]

    nspreads = {
        "Sigma_123": tuple(f"sigma_{i}" for i in STATIONS),
        "Sigma_star_123": tuple(f"sigma_star_{i}" for i in STATIONS),
    }
    for ctx in ALL_CONTEXTS:
        nspreads[nspread_name(ctx)] = tuple(
            f"sigma_{a}_{i}" for i, a in zip(STATIONS, ctx)
        )
    return ModelDocument(
        points=tuple(sorted(names + terminals)),
        order=tuple(sorted(order)),
        events={n: (n,) for n in names},
        spreads=dict(sorted(spreads.items())),
        nspreads=dict(sorted(nspreads.items())),
    )


def build_concrete_model() -> tuple[CausalModel, ResolvedModel]:
    """The model of :func:`ghz_document` and the document resolved over it.

    Every event is a singleton over a like-named point, so the resolved
    events, spreads and n-spreads describe both the abstract parity
    scenario and its realization in the model.
    """
    resolved = resolve_document(ghz_document())
    return resolved.model, resolved


def build_abstract_structure() -> ResolvedModel:
    """:func:`ghz_document` resolved: its events, spreads and n-spreads,
    looked up by name (``nspread_name`` for a context's n-spread)."""
    return resolve_document(ghz_document())


# -- sign assignment searches ---------------------------------------------


class ValueSearchResult(_Record):
    """Outcome of the global sign assignment search.

    An assignment gives one sign per (station, axis) pair, the same sign
    regardless of which context it is read in.  ``witnesses`` lists every
    satisfying assignment in lexicographic order.
    """

    __slots__ = ("constraints", "total", "satisfying", "witnesses")

    @staticmethod
    def assignment_keys() -> tuple[tuple[int, str], ...]:
        return tuple((i, a) for i in STATIONS for a in AXES)


@functools.cache
def _context_products(
    ctx: Context,
) -> tuple[int, tuple[tuple[int, int], ...]]:
    """The flags ``ctx`` measures, and per vector of ``ctx`` its sign
    product and its terms' flag mask, read off :func:`context_vectors`."""
    vectors = context_vectors(ctx)
    return sum(_PAIR[_BIT[n]] for n in vectors[0].outcome_names), tuple(
        (prod(v.signs), sum(_BIT[n] for n in v.outcome_names))
        for v in vectors
    )


def value_assignment_search(
    constraints: Iterable[tuple[Context, int]] = OMEGA_CONSTRAINTS,
) -> ValueSearchResult:
    """Count sign assignments meeting every product constraint.

    Each constraint demands that the product of the three signs the
    assignment gives to (station i, context axis at i) equals the target.
    The satisfying ones, as the outcome flags of their signs, are the
    :func:`_common` masks of a row per constraint, its context's vectors
    with the target product, and one per station/axis, either outcome
    alone.  A minus sign's flag is the higher, so masks fall as signs rise.
    """
    constraints = tuple((ctx, t) for ctx, t in constraints)
    rows = []
    for ctx, target in constraints:
        _require_known(ctx)
        measured, vectors = _context_products(ctx)
        rows.append((measured, [m for p, m in vectors if p == target]))
    keys = ValueSearchResult.assignment_keys()
    plus = [_BIT[outcome_name(i, a, 1)] for i, a in keys]
    rows += [(_PAIR[b], (_PAIR[b] ^ b, b)) for b in plus]
    masks = _common(_profile_set(*row) for row in rows)
    witnesses = tuple(
        tuple(SIGNS[bool(m & b)] for b in plus) for m in reversed(masks)
    )
    return ValueSearchResult(
        constraints=constraints,
        total=2 ** len(keys),
        satisfying=len(witnesses),
        witnesses=witnesses,
    )


class ContextualSearchResult(_Record):
    """Outcome of the per-context sign assignment search.

    Here each constrained context gets its own independent triple of
    signs; nothing forces two contexts to agree on a shared station/axis
    pair.  ``witness`` is the lexicographically least satisfying choice,
    as a tuple of sign triples in constraint order.
    """

    __slots__ = ("constraints", "total", "satisfying", "witness")


def contextual_assignment_search(
    constraints: Iterable[tuple[Context, int]] = OMEGA_CONSTRAINTS,
) -> ContextualSearchResult:
    """Count joint choices of per-context sign triples meeting the targets.

    The constraints are independent, and a target of +1 or -1 admits 4 of
    the 8 triples, the least of them (-1, -1, target); any other target
    admits none.
    """
    constraints = tuple((ctx, t) for ctx, t in constraints)
    for ctx, _ in constraints:
        _require_known(ctx)
    solvable = all(target in SIGNS for _, target in constraints)
    return ContextualSearchResult(
        constraints=constraints,
        total=8 ** len(constraints),
        satisfying=4 ** len(constraints) if solvable else 0,
        witness=(
            tuple((-1, -1, SIGNS[t > 0]) for _, t in constraints)
            if solvable
            else None
        ),
    )


# -- exhaustive profile refutation ----------------------------------------


class CandidateProfile(_Record):
    """Flags, per GHZ outcome event, of consistency with a hypothetical
    common cause outcome; aligned with ``OUTCOME_EVENT_ORDER``."""

    __slots__ = ("flags",)

    def __init__(self, flags: tuple[bool, ...]) -> None:
        if len(flags) != len(OUTCOME_EVENT_ORDER):
            raise ValueError(
                f"profile needs {len(OUTCOME_EVENT_ORDER)} flags"
            )
        object.__setattr__(self, "flags", flags)

    def as_dict(self) -> dict[str, bool]:
        return dict(zip(OUTCOME_EVENT_ORDER, self.flags))

    def consistent_events(self) -> tuple[str, ...]:
        return tuple(
            n for n, f in zip(OUTCOME_EVENT_ORDER, self.flags) if f
        )


class TraceStep(_Record):
    # rule: "cc2-existence" | "cc3-screening" | "case-split" | "contradiction"
    __slots__ = ("rule", "context", "detail", "conclusion")

    def as_dict(self) -> dict[str, str]:
        """The fields by name, for the JSON report."""
        return {f: getattr(self, f) for f in self._fields}


class ReductioTrace(_Record):
    """The derivation of the contradiction from one cc2 start, a
    consistent vector of the first listed context: the paper's x+1, x-2,
    x+3 when it is one, else the first.  The other starts are covered by
    the exhaustive zero-survivor count, not by the trace.  A
    ``case-split`` step opens a branch that runs to its own
    ``contradiction``; the other case of the same flag follows it.
    ``complete`` means every branch of this one derivation closes."""

    __slots__ = ("steps", "complete")


# The paper's start, x+1, x-2, x+3: preferred whenever it is a candidate.
_PREFERRED_START = GhzVector(context=("x", "x", "x"), signs=(1, -1, 1))
# The first event gets the most significant bit, so integer order on masks
# is the lexicographic order on profiles, False before True.
_BIT = {
    n: 1 << len(OUTCOME_EVENT_ORDER) - 1 - k
    for k, n in enumerate(OUTCOME_EVENT_ORDER)
}
_ALL_FLAGS = (1 << len(OUTCOME_EVENT_ORDER)) - 1
_ALL_PROFILES = (1 << _ALL_FLAGS + 1) - 1  # bit t: the profile with mask t
# Per flag, the outcome mask of its station/axis.
_PAIR = {
    _BIT[outcome_name(i, a, s)]: _BIT[outcome_name(i, a, -1)]
    | _BIT[outcome_name(i, a, 1)]
    for i, a, s in itertools.product(STATIONS, AXES, SIGNS)
}
_IS = "the candidate outcome is "
# Rules, read off the parity rule.  A screen per inconsistent vector of a
# listed context: (context label, detail, term mask).  A stable per
# measured station/axis: (context label, stable name, minus bit, plus
# bit).  A family keeps each stable as first listed, keyed by its outcome
# mask.  The trace steps a rule can produce are built by the cached
# builders below when a derivation first reaches them.  A fact, per flag
# in ``why``: a step and its premise mask, the flags whose facts it uses.
_Screen = tuple[str, str, int]
_Stable = tuple[str, str, int, int]
_Why = dict[int, tuple[TraceStep, int]]


def _name(bit: int) -> str:
    return OUTCOME_EVENT_ORDER[-bit.bit_length()]


@functools.cache
def _context_rules(
    ctx: Context,
) -> tuple[tuple[_Screen, ...], tuple[_Stable, ...]]:
    """One context's rules: a screen per parity inconsistent vector, a
    stable per measured station/axis."""
    label = context_label(ctx)
    screens = tuple(
        (
            label,
            f"inconsistent vector {v.label()}",
            sum(_BIT[n] for n in v.outcome_names),
        )
        for v in inconsistent_vectors(ctx)
    )
    stables = []
    for i, a in zip(STATIONS, ctx):
        lo, hi = (_BIT[outcome_name(i, a, s)] for s in SIGNS)
        stables.append((label, stable_name(i, a), lo, hi))
    return screens, tuple(stables)


@functools.cache
def _screening(label: str, detail: str, bit: int) -> TraceStep:
    """The cc3 step putting ``bit`` in f, by the screen (label, detail)."""
    return TraceStep(
        "cc3-screening", label, detail, f"{_IS}inconsistent with {_name(bit)}"
    )


@functools.cache
def _settling(stable: _Stable, bit: int) -> TraceStep:
    """The cc2 step putting ``bit``, an outcome of ``stable``, in t."""
    label, name, lo, hi = stable
    return TraceStep(
        "cc2-existence", label,
        f"stable initial {name} branches to {_name(lo)} or {_name(hi)}",
        f"{_IS}consistent with {_name(bit)}",
    )


@functools.cache
def _both_inconsistent(stable: _Stable) -> TraceStep:
    """The contradiction of ``stable`` with both outcomes in f."""
    label, name, lo, hi = stable
    return TraceStep(
        "contradiction", label, f"stable event {name}",
        f"{_IS}inconsistent with both {_name(lo)} and {_name(hi)}, although "
        f"consistency with {name} requires one of them",
    )


def _compile(
    contexts: Sequence[Context],
) -> tuple[list[_Screen], dict[int, _Stable]]:
    """The family's rules: every context's screens, and each stable as
    first listed, keyed by its outcome mask."""
    screens: list[_Screen] = []
    stables: dict[int, _Stable] = {}
    for ctx in contexts:
        ctx_screens, ctx_stables = _context_rules(ctx)
        screens += ctx_screens
        for stable in ctx_stables:
            stables.setdefault(stable[2] | stable[3], stable)
    return screens, stables


def _close(
    screens: list[_Screen],
    stables: dict[int, _Stable],
    t: int,
    f: int,
    why: _Why,
) -> tuple[int, int, tuple[TraceStep, int] | bool]:
    """Saturate t (flagged consistent) and f (flagged inconsistent),
    given disjoint.

    Contradictions are looked for among every rule once, on entry, and
    after that only where the last step can make one.  Forced steps are
    taken in the order a full rescan after every step would take them:
    screening first (an inconsistent vector with all terms but one in t
    puts the last in f), else settling (a station/axis with one outcome
    in f puts the other in t).  Screening only adds to f, and that forces
    no screen, so one sweep over the screens takes every screening due in
    rule order; a settling is taken only when a sweep ends, and the next
    sweep starts over.  Only screening can then make a contradiction, at
    the stable holding its flag: a screen lacking just a settled flag
    would have screened that flag first.  Each derived flag's fact is
    recorded in ``why`` as its step and its premise mask, the flags the
    step rests on, whose own facts ``why`` holds; its step is built when
    a derivation first reaches it and shared after that.  Returns the
    flags and the contradiction's fact, False if none.
    """
    for label, detail, m in screens:
        if t & m == m:
            clash = "every term of an inconsistent vector came out consistent"
            return t, f, (TraceStep("contradiction", label, detail, clash), m)
    for pair, stable in stables.items():
        if f & pair == pair:
            return t, f, (_both_inconsistent(stable), pair)
    while True:
        for label, detail, m in screens:
            if m & f:
                continue  # a term is already inconsistent
            rest = m & ~t
            if rest & (rest - 1) == 0:
                f |= rest
                why[rest] = (_screening(label, detail, rest), m & ~rest)
                pair = _PAIR[rest]
                if f & pair == pair:
                    return t, f, (_both_inconsistent(stables[pair]), pair)
        for pair, stable in stables.items():
            settled = pair & ~f
            if settled != pair and not t & settled:
                t |= settled
                why[settled] = (_settling(stable, settled), pair & f)
                break
        else:
            return t, f, False


def _context_settings(ctx: Context) -> tuple[int, tuple[int, ...]]:
    """One context's measured flags, and the settings of them that meet
    its survival conditions: every stable has an outcome flagged
    consistent, and no screen has all its terms flagged.  A profile
    survives the context exactly when it sets the measured flags as one
    of these; the other six flags are free."""
    screens, stables = _context_rules(ctx)
    # a stable's flagged outcomes: the minus one, the plus one, or both;
    # both fail a parity screen, but not in a context with no screens
    flagged = itertools.product(*((lo, hi, lo | hi) for *_, lo, hi in stables))
    return sum(lo | hi for *_, lo, hi in stables), tuple(
        t for t in map(sum, flagged) if not any(t & m == m for *_, m in screens)
    )


def _profile_set(measured: int, settings: Iterable[int]) -> int:
    """The profiles setting the ``measured`` flags as one of the distinct
    ``settings``, as a set: bit t is the profile with flag mask t.  The set
    is built by one shift per free flag.  It has 2^12 bits because the
    scenario has 12 flags; with n stations it would have 2^(4n), so ROADMAP
    item 6 must decide families by elimination, not by these sets."""
    profiles = sum(1 << s for s in settings)
    free = _ALL_FLAGS & ~measured
    while free:
        bit = free & -free
        profiles |= profiles << bit
        free ^= bit
    return profiles


@functools.cache
def _context_profiles(ctx: Context) -> int:
    """The profiles surviving ``ctx``, as a :func:`_profile_set`."""
    return _profile_set(*_context_settings(ctx))


def _common(sets: Iterable[int]) -> list[int]:
    """The masks of the profiles in every one of ``sets``, in increasing
    order: their AND, read lowest bit first, by one scan of its binary
    digits when more than 32 are set, else bit by bit."""
    profiles = _ALL_PROFILES
    for s in sets:
        profiles &= s
    if profiles.bit_count() > 32:
        return [m.start() for m in re.finditer("1", bin(profiles)[:1:-1])]
    masks, t = [], -1
    while profiles:
        step = (profiles & -profiles).bit_length()
        masks.append(t := t + step)
        profiles >>= step
    return masks


@functools.cache
def _profile(t: int) -> CandidateProfile:
    return CandidateProfile(flags=tuple(bool(t & b) for b in _BIT.values()))


# Per step of a bisection over the 2^12 profiles: the width of the half it
# keeps, and the mask of the lower half.
_HALVES = tuple(
    (1 << k, (1 << (1 << k)) - 1)
    for k in reversed(range(len(OUTCOME_EVENT_ORDER)))
)


class ProfileSet(_LazyTuple):
    """A profile set as a read-only sequence of its profiles, read out
    only on demand.

    It holds the set alone, bit t the profile with flag mask t.  Its
    length is the set's bit count and its truth whether any bit is set.
    Iteration reads the set out by :func:`_common`, lowest bit first, so
    in profile order, and an index selects its set bit by bisection on
    bit counts.  ``in``, ``index`` and ``count`` read a profile's flag
    mask t and test bit t; the profile's index is the count of set bits
    below it.  The bits determine the profiles, so it equals another
    profile set exactly when their bits are equal.  The rest of its
    reading as the tuple of its profiles is :class:`model._LazyTuple`'s,
    and its state is its bits.
    """

    __slots__ = ("_bits",)

    def __init__(self, bits: int) -> None:
        object.__setattr__(self, "_bits", bits)

    def __len__(self) -> int:
        return self._bits.bit_count()

    def __eq__(self, other: object) -> bool:
        if isinstance(other, ProfileSet):
            return self._bits == other._bits
        return _LazyTuple.__eq__(self, other)

    __hash__ = _LazyTuple.__hash__

    def __iter__(self) -> Iterator[CandidateProfile]:
        return map(_profile, _common((self._bits,)))

    def _item(self, i: int) -> CandidateProfile:
        # keep the half of the remaining bits that holds the i-th set bit
        bits, t = self._bits, 0
        for half, low in _HALVES:
            below = (bits & low).bit_count()
            if i >= below:
                i -= below
                bits >>= half
                t += half
        return _profile(t)

    def _find(self, value: Any) -> int | None:
        if value.__class__ is not CandidateProfile:
            return None
        t = sum(b for f, b in zip(value.flags, _BIT.values()) if f)
        if not self._bits >> t & 1 or _profile(t) != value:
            return None
        return (self._bits & (1 << t) - 1).bit_count()


@functools.cache
def _case_steps(label: str, bit: int) -> tuple[TraceStep, TraceStep]:
    """The two cases of a split on ``bit``, "inconsistent" first."""
    return tuple(
        TraceStep(
            "case-split", label, f"case split on {_name(bit)}",
            f"suppose {_IS}{kind} with {_name(bit)}",
        )
        for kind in ("inconsistent", "consistent")
    )  # type: ignore[return-value]


def _visit(
    fact: tuple[TraceStep, int], why: _Why, shown: set[int],
    steps: list[TraceStep],
) -> None:
    """Append to ``steps`` the step of ``fact`` after those of its
    premises, each after its own, leaving out the facts whose ids are in
    ``shown`` and adding the ids of those it visits.  Premises are the
    facts ``why`` holds for the premise mask's flags, lowest bit first.  A
    module-level function, not a closure over ``steps``, so a derivation
    leaves no reference cycle behind."""
    step, mask = fact
    while mask:
        bit = mask & -mask
        if id(why[bit]) not in shown:
            shown.add(id(why[bit]))
            _visit(why[bit], why, shown, steps)
        mask ^= bit
    steps.append(step)


def _derive(
    screens: list[_Screen],
    stables: dict[int, _Stable],
    t: int,
    f: int,
    why: _Why,
    shown: frozenset[int],
) -> list[TraceStep]:
    """The steps of a closed derivation, less the facts with ids in ``shown``.

    On a contradiction: the steps of the facts it rests on, each after
    its premises, premises visited lowest bit first, each fact once.
    When saturation stalls: a split on the first open measured event,
    each case ("inconsistent" first) followed by the steps of its branch.
    On a refuted family every branch closes.
    """
    t, f, clash = _close(screens, stables, t, f, why)
    steps: list[TraceStep] = []
    if clash:
        _visit(clash, why, set(shown), steps)
        return steps
    open_ = sum(stables) & ~(t | f)
    bit = 1 << open_.bit_length() - 1
    label = next(stable[0] for pair, stable in stables.items() if pair & bit)
    for step, t_bit, f_bit in zip(_case_steps(label, bit), (0, bit), (bit, 0)):
        case = (step, 0)
        steps.append(step)
        steps += _derive(
            screens, stables, t | t_bit, f | f_bit, {**why, bit: case},
            shown | {id(case)},
        )
    return steps


@functools.cache
def _start(ctx: Context) -> tuple[TraceStep, tuple[int, ...]]:
    """The start of a derivation from ``ctx``, its step and its flags: the
    paper's vector when it is a consistent vector of ``ctx``, else the
    first one."""
    candidates = consistent_vectors(ctx)
    v = _PREFERRED_START if _PREFERRED_START in candidates else candidates[0]
    step = TraceStep(
        "cc2-existence", context_label(ctx), f"consistent vector {v.label()}",
        f"{_IS}consistent with each of " + ", ".join(v.outcome_names),
    )
    return step, tuple(_BIT[n] for n in v.outcome_names)


def _derivation(
    contexts: Sequence[Context],
    screens: list[_Screen],
    stables: dict[int, _Stable],
) -> ReductioTrace:
    """Derive the contradiction from a consistent vector of the first
    listed context, the paper's start when it is one."""
    step, flags = _start(contexts[0])
    fact = (step, 0)
    why = dict.fromkeys(flags, fact)
    shown = frozenset({id(fact)})
    steps = _derive(screens, stables, sum(flags), 0, why, shown)
    return ReductioTrace((step, *steps), True)


class RefutationResult(_Record):
    """Outcome of the profile refutation of a context family.

    ``survivors`` is a :class:`ProfileSet`, the AND of the contexts'
    profile sets read out only on demand: ``len`` is a bit count, and
    iterating it lists the surviving profiles in lexicographic order.  It
    equals the tuple of those profiles, so ``survivors == ()`` exactly
    when the family is refuted.  ``witness`` is the first survivor, or
    None; ``trace`` is the derivation of a refuted family, else None.
    """

    __slots__ = (
        "contexts", "profile_count", "survivors", "witness", "trace", "notes"
    )
    _defaults = {"notes": ()}


def refute_joint_common_cause(
    structure: ResolvedModel, contexts: Iterable[Context]
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
        _require_known(ctx)
        if ctx not in ctx_list:
            ctx_list.append(ctx)
    for name in OUTCOME_EVENT_ORDER:
        if name not in structure.events:
            raise ValueError(f"structure lacks outcome event {name!r}")

    profiles = _ALL_PROFILES
    for ctx in ctx_list:
        profiles &= _context_profiles(ctx)

    notes: list[str] = []
    trace: ReductioTrace | None = None
    if not ctx_list:
        notes.append("no contexts listed; every profile survives vacuously")
    if profiles:
        notes.append(
            "surviving profiles satisfy necessary conditions only; they do "
            "not establish that a common cause exists"
        )
    else:
        trace = _derivation(ctx_list, *_compile(ctx_list))
        notes.append(
            "every profile violates the existence or screening constraints"
        )
    return RefutationResult(
        tuple(ctx_list),
        2 ** len(OUTCOME_EVENT_ORDER),
        ProfileSet(profiles),
        _profile((profiles & -profiles).bit_length() - 1) if profiles else None,
        trace,
        tuple(notes),
    )
