"""JSON model documents: load, dump, and resolve into live objects.

A document carries five sections: ``points`` (ids), ``order`` (generating
pairs, lower first), ``events`` (name to member points), ``spreads``
(name to initial event name plus ordered outcome event names) and
``nspreads`` (name to ordered spread names), plus a ``version`` tag.
Dumps are canonical (sorted keys, two-space indent, trailing newline) so
identical documents serialize to identical bytes.

Parsing and resolving check the document in document order and report
the first offender; each check words its message only when it fails.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Iterable, Mapping

from .errors import ParseError, UnknownReference
from .events import Event, NSpread, Spread
from .model import build_model, _Record

SCHEMA_VERSION = 1


class SpreadDoc(_Record):
    __slots__ = ("initial", "outcomes")


class ModelDocument(_Record):
    __slots__ = ("points", "order", "events", "spreads", "nspreads", "version")
    _defaults = {"version": SCHEMA_VERSION}


class ResolvedModel(_Record):
    __slots__ = ("model", "events", "spreads", "nspreads")


def _string_list(raw: Any, where: str, *names: str) -> tuple[str, ...]:
    """``raw`` as strings; the error names it ``where.format(*names)``."""
    if not isinstance(raw, list):
        raise ParseError(f"{where.format(*names)} must be a list")
    if not all(isinstance(item, str) for item in raw):
        raise ParseError(f"{where.format(*names)} must contain strings")
    return tuple(raw)


def _object(raw: Any, where: str, *names: str) -> dict[str, Any]:
    if not isinstance(raw, dict):
        raise ParseError(f"{where.format(*names)} must be an object")
    return raw


def _first_repeat(items: Iterable[str]) -> str:
    seen: set[str] = set()
    for item in items:
        if item in seen:
            return item
        seen.add(item)
    raise AssertionError("no repeated item")


def _unique_keys(pairs: list[tuple[str, Any]]) -> dict[str, Any]:
    obj = dict(pairs)
    if len(obj) < len(pairs):
        repeat = _first_repeat(key for key, _ in pairs)
        raise ParseError(f"duplicate key: {repeat!r}")
    return obj


def parse_document(text: str) -> ModelDocument:
    try:
        raw = json.loads(text, object_pairs_hook=_unique_keys)
    except (json.JSONDecodeError, RecursionError) as exc:
        raise ParseError(f"not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ParseError("document must be a JSON object")
    for key in ("version", "points", "order", "events", "spreads", "nspreads"):
        if key not in raw:
            raise ParseError(f"missing field: {key}")
    version = raw["version"]
    if type(version) is not int or version != SCHEMA_VERSION:
        raise ParseError("unsupported document version")

    points = _string_list(raw["points"], "points")

    if not isinstance(raw["order"], list):
        raise ParseError("order must be a list")
    order = []
    for pair in raw["order"]:
        if not isinstance(pair, list) or len(pair) != 2:
            raise ParseError("order entries must be [lower, upper] pairs")
        a, b = pair
        if not isinstance(a, str) or not isinstance(b, str):
            raise ParseError("order entries must name points")
        order.append((a, b))

    events: dict[str, tuple[str, ...]] = {}
    for name, members in _object(raw["events"], "events").items():
        listed = _string_list(members, "event {!r}", name)
        if len(set(listed)) < len(listed):
            repeat = _first_repeat(listed)
            raise ParseError(f"event {name!r} lists {repeat!r} twice")
        events[name] = listed

    spreads = {}
    for name, body in _object(raw["spreads"], "spreads").items():
        _object(body, "spread {!r}", name)
        if "initial" not in body or "outcomes" not in body:
            raise ParseError(f"spread {name!r} needs initial and outcomes")
        if not isinstance(body["initial"], str):
            raise ParseError(f"spread {name!r}: initial must name an event")
        outcomes = _string_list(body["outcomes"], "spread {!r} outcomes", name)
        spreads[name] = SpreadDoc(body["initial"], outcomes)

    nspreads = {
        name: _string_list(body, "nspread {!r}", name)
        for name, body in _object(raw["nspreads"], "nspreads").items()
    }

    return ModelDocument(
        points, tuple(order), events, spreads, nspreads, SCHEMA_VERSION
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


def _check_references(
    names: Iterable[str],
    table: Mapping[str, Any],
    owner: str,
    name: str,
    kind: str,
) -> None:
    for n in names:
        if n not in table:
            raise UnknownReference(
                f"{owner} {name!r} references undeclared {kind} {n!r}"
            )


def resolve_document(doc: ModelDocument) -> ResolvedModel:
    """Build the model and look up every cross reference.

    Raises :class:`UnknownReference` when an event names an undeclared
    point, a spread an undeclared event, or an n-spread an undeclared
    spread; model construction errors propagate as themselves.
    """
    model = build_model(doc.points, doc.order)
    events: dict[str, Event] = {}
    for name, members in doc.events.items():
        _check_references(members, model.index, "event", name, "point")
        events[name] = Event(name=name, members=frozenset(members))

    spreads: dict[str, Spread] = {}
    for name, body in doc.spreads.items():
        _check_references((body.initial,), events, "spread", name, "event")
        _check_references(body.outcomes, events, "spread", name, "event")
        spreads[name] = Spread(
            initial=events[body.initial],
            outcomes=tuple(map(events.__getitem__, body.outcomes)),
        )

    nspreads: dict[str, NSpread] = {}
    for name, members in doc.nspreads.items():
        _check_references(members, spreads, "nspread", name, "spread")
        nspreads[name] = NSpread(tuple(map(spreads.__getitem__, members)))

    return ResolvedModel(model, events, spreads, nspreads)

