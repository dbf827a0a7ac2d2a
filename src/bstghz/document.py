"""JSON model documents: load, dump, and resolve into live objects.

A document carries five sections: ``points`` (ids), ``order`` (generating
pairs, lower first), ``events`` (name to member points), ``spreads``
(name to initial event name plus ordered outcome event names) and
``nspreads`` (name to ordered spread names), plus a ``version`` tag.
Dumps are canonical (sorted keys, two-space indent, trailing newline) so
identical documents serialize to identical bytes.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Mapping

from .errors import ParseError, UnknownReference
from .events import Event, NSpread, Spread
from .model import CausalModel, build_model

SCHEMA_VERSION = 1


@dataclass(frozen=True)
class SpreadDoc:
    initial: str
    outcomes: tuple[str, ...]


@dataclass(frozen=True)
class ModelDocument:
    points: tuple[str, ...]
    order: tuple[tuple[str, str], ...]
    events: Mapping[str, tuple[str, ...]]
    spreads: Mapping[str, SpreadDoc]
    nspreads: Mapping[str, tuple[str, ...]]
    version: int = SCHEMA_VERSION


@dataclass(frozen=True)
class ResolvedModel:
    model: CausalModel
    events: Mapping[str, Event]
    spreads: Mapping[str, Spread]
    nspreads: Mapping[str, NSpread]


def _expect(condition: bool, message: str) -> None:
    if not condition:
        raise ParseError(message)


def _string_list(raw: Any, where: str) -> tuple[str, ...]:
    _expect(isinstance(raw, list), f"{where} must be a list")
    for item in raw:
        _expect(isinstance(item, str), f"{where} must contain strings")
    return tuple(raw)


def _unique_keys(pairs: list[tuple[str, Any]]) -> dict[str, Any]:
    obj: dict[str, Any] = {}
    for key, value in pairs:
        _expect(key not in obj, f"duplicate key: {key!r}")
        obj[key] = value
    return obj


def parse_document(text: str) -> ModelDocument:
    try:
        raw = json.loads(text, object_pairs_hook=_unique_keys)
    except json.JSONDecodeError as exc:
        raise ParseError(f"not valid JSON: {exc}") from exc
    _expect(isinstance(raw, dict), "document must be a JSON object")
    for key in ("version", "points", "order", "events", "spreads", "nspreads"):
        _expect(key in raw, f"missing field: {key}")
    version = raw["version"]
    _expect(
        type(version) is int and version == SCHEMA_VERSION,
        "unsupported document version",
    )

    points = _string_list(raw["points"], "points")

    _expect(isinstance(raw["order"], list), "order must be a list")
    order = []
    for pair in raw["order"]:
        _expect(
            isinstance(pair, list) and len(pair) == 2,
            "order entries must be [lower, upper] pairs",
        )
        a, b = pair
        _expect(
            isinstance(a, str) and isinstance(b, str),
            "order entries must name points",
        )
        order.append((a, b))

    _expect(isinstance(raw["events"], dict), "events must be an object")
    events: dict[str, tuple[str, ...]] = {}
    for name, members in raw["events"].items():
        listed = _string_list(members, f"event {name!r}")
        seen: set[str] = set()
        for p in listed:
            _expect(p not in seen, f"event {name!r} lists {p!r} twice")
            seen.add(p)
        events[name] = listed

    _expect(isinstance(raw["spreads"], dict), "spreads must be an object")
    spreads = {}
    for name, body in raw["spreads"].items():
        _expect(isinstance(body, dict), f"spread {name!r} must be an object")
        _expect(
            "initial" in body and "outcomes" in body,
            f"spread {name!r} needs initial and outcomes",
        )
        _expect(
            isinstance(body["initial"], str),
            f"spread {name!r}: initial must name an event",
        )
        spreads[name] = SpreadDoc(
            initial=body["initial"],
            outcomes=_string_list(
                body["outcomes"], f"spread {name!r} outcomes"
            ),
        )

    _expect(isinstance(raw["nspreads"], dict), "nspreads must be an object")
    nspreads = {
        name: _string_list(body, f"nspread {name!r}")
        for name, body in raw["nspreads"].items()
    }

    return ModelDocument(
        points=points,
        order=tuple(order),
        events=events,
        spreads=spreads,
        nspreads=nspreads,
    )


def load_document(path: str | Path) -> ModelDocument:
    return parse_document(Path(path).read_text(encoding="utf-8"))


def dump_document(doc: ModelDocument) -> str:
    payload = {
        "version": doc.version,
        "points": list(doc.points),
        "order": [list(pair) for pair in doc.order],
        "events": {n: list(m) for n, m in doc.events.items()},
        "spreads": {
            n: {"initial": s.initial, "outcomes": list(s.outcomes)}
            for n, s in doc.spreads.items()
        },
        "nspreads": {n: list(v) for n, v in doc.nspreads.items()},
    }
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def resolve_document(doc: ModelDocument) -> ResolvedModel:
    """Build the model and look up every cross reference.

    Raises :class:`UnknownReference` when an event names an undeclared
    point, a spread an undeclared event, or an n-spread an undeclared
    spread; model construction errors propagate as themselves.
    """
    model = build_model(doc.points, doc.order)
    declared = set(doc.points)
    events: dict[str, Event] = {}
    for name, members in doc.events.items():
        for p in members:
            if p not in declared:
                raise UnknownReference(
                    f"event {name!r} references undeclared point {p!r}"
                )
        events[name] = Event(name=name, members=frozenset(members))

    spreads: dict[str, Spread] = {}
    for name, body in doc.spreads.items():
        if body.initial not in events:
            raise UnknownReference(
                f"spread {name!r} references undeclared event "
                f"{body.initial!r}"
            )
        outcome_events = []
        for o in body.outcomes:
            if o not in events:
                raise UnknownReference(
                    f"spread {name!r} references undeclared event {o!r}"
                )
            outcome_events.append(events[o])
        spreads[name] = Spread(
            initial=events[body.initial], outcomes=tuple(outcome_events)
        )

    nspreads: dict[str, NSpread] = {}
    for name, members in doc.nspreads.items():
        parts = []
        for s in members:
            if s not in spreads:
                raise UnknownReference(
                    f"nspread {name!r} references undeclared spread {s!r}"
                )
            parts.append(spreads[s])
        nspreads[name] = NSpread(spreads=tuple(parts))

    return ResolvedModel(
        model=model, events=events, spreads=spreads, nspreads=nspreads
    )


def model_document(
    model: CausalModel,
    events: Mapping[str, Event],
    spreads: Mapping[str, Spread],
    nspreads: Mapping[str, NSpread],
) -> ModelDocument:
    """A document for a live model and its named structure.

    The order is given by the model's cover pairs.  Spreads name their
    events, and n-spreads name their spreads by the first key of
    ``spreads`` holding an equal spread.  Sections are sorted by name.
    """

    def spread_name(spread: Spread) -> str:
        for name, s in spreads.items():
            if s is spread or s == spread:
                return name
        raise KeyError(spread.initial.name)

    return ModelDocument(
        points=model.points,
        order=tuple((p, q) for p in model.points for q in model.covers(p)),
        events={
            name: tuple(sorted(ev.members))
            for name, ev in sorted(events.items())
        },
        spreads={
            name: SpreadDoc(
                initial=s.initial.name,
                outcomes=tuple(o.name for o in s.outcomes),
            )
            for name, s in sorted(spreads.items())
        },
        nspreads={
            name: tuple(spread_name(s) for s in ns.spreads)
            for name, ns in sorted(nspreads.items())
        },
    )
