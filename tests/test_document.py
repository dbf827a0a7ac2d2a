"""Document schema: parse, dump, resolve, and the canned documents."""

import codecs
import json
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from bstghz.common_cause import toy_decay_document
from bstghz.document import (
    SCHEMA_VERSION,
    ModelDocument,
    SpreadDoc,
    dump_document,
    load_document,
    parse_document,
    resolve_document,
)
from bstghz.errors import (
    BstError,
    CycleDetected,
    EmptyModel,
    ParseError,
    UnknownPoint,
    UnknownReference,
)
from bstghz.ghz import ghz_document

from .oracles import (
    TOY_DECAY_PAIRS,
    TOY_DECAY_POINTS,
    reference_covers,
    reference_ghz_order,
    reference_ghz_spreads,
)

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def small_doc():
    return ModelDocument(
        points=("d", "d-", "d+"),
        order=(("d", "d-"), ("d", "d+")),
        events={
            "d": ("d",),
            "minus": ("d-",),
            "plus": ("d+",),
        },
        spreads={
            "sigma": SpreadDoc(initial="d", outcomes=("minus", "plus"))
        },
        nspreads={"Sigma": ("sigma",)},
    )


class TestRoundTrip:
    def test_parse_inverts_dump(self):
        for doc in (small_doc(), toy_decay_document(), ghz_document()):
            assert parse_document(dump_document(doc)) == doc

    def test_dump_is_canonical(self):
        text = dump_document(ghz_document())
        assert text == dump_document(ghz_document())
        assert text.endswith("\n")
        keys = list(json.loads(text))
        assert keys == sorted(keys)

    def test_load_document(self, tmp_path):
        path = tmp_path / "m.json"
        path.write_text(dump_document(small_doc()), encoding="utf-8")
        assert load_document(path) == small_doc()
        assert load_document(str(path)) == small_doc()
        # a leading byte order mark is dropped, though parse_document
        # refuses a str that starts with one (ERROR_CASES)
        fixture = Path(__file__).parents[1] / "fixtures" / "toy_decay.json"
        path.write_bytes(codecs.BOM_UTF8 + fixture.read_bytes())
        assert load_document(path) == load_document(fixture)


class TestParseErrors:
    def test_invalid_json(self):
        with pytest.raises(ParseError, match="not valid JSON"):
            parse_document("{nope")

    @pytest.mark.parametrize(
        "text",
        ["[" * 1000, "[" * 1000 + "]" * 1000],
        ids=["unterminated", "balanced"],
    )
    def test_nesting_past_the_decoder(self, text):
        with pytest.raises(ParseError, match="^not valid JSON: "):
            parse_document(text)

    def test_not_an_object(self):
        with pytest.raises(ParseError, match="JSON object"):
            parse_document("[1, 2]")

    def test_missing_field(self):
        raw = json.loads(dump_document(small_doc()))
        del raw["spreads"]
        with pytest.raises(ParseError, match="missing field: spreads"):
            parse_document(json.dumps(raw))

    def test_wrong_version(self):
        raw = json.loads(dump_document(small_doc()))
        raw["version"] = SCHEMA_VERSION + 1
        with pytest.raises(ParseError, match="version"):
            parse_document(json.dumps(raw))

    def test_boolean_version(self):
        raw = json.loads(dump_document(small_doc()))
        raw["version"] = True
        with pytest.raises(ParseError, match="version"):
            parse_document(json.dumps(raw))

    def test_duplicate_top_level_key(self):
        text = dump_document(small_doc()).replace(
            '"points": [', '"points": ["a"],\n  "points": [', 1
        )
        with pytest.raises(ParseError, match="duplicate key: 'points'"):
            parse_document(text)

    def test_duplicate_nested_key(self):
        text = dump_document(small_doc()).replace(
            '"d": [', '"plus": ["d"],\n    "d": [', 1
        )
        with pytest.raises(ParseError, match="duplicate key: 'plus'"):
            parse_document(text)

    def test_duplicate_event_member(self):
        raw = json.loads(dump_document(small_doc()))
        raw["events"]["d"] = ["d", "d"]
        with pytest.raises(ParseError, match="event 'd' lists 'd' twice"):
            parse_document(json.dumps(raw))

    def test_malformed_order_pair(self):
        raw = json.loads(dump_document(small_doc()))
        raw["order"] = [["d"]]
        with pytest.raises(ParseError, match="lower, upper"):
            parse_document(json.dumps(raw))

    def test_non_string_points(self):
        raw = json.loads(dump_document(small_doc()))
        raw["points"] = ["d", 3]
        with pytest.raises(ParseError, match="strings"):
            parse_document(json.dumps(raw))

    def test_spread_missing_outcomes(self):
        raw = json.loads(dump_document(small_doc()))
        raw["spreads"]["sigma"] = {"initial": "d"}
        with pytest.raises(ParseError, match="initial and outcomes"):
            parse_document(json.dumps(raw))


_DROP = object()


def _text(**fields):
    """``small_doc`` as JSON with ``fields`` replaced, or dropped."""
    raw = {**json.loads(dump_document(small_doc())), **fields}
    return json.dumps({k: v for k, v in raw.items() if v is not _DROP})


def _spread(body):
    return _text(spreads={"s": body}, nspreads={})


# One minimal malformed document per message, with the whole text it must
# raise.  Where a document has two faults, the first in document order is
# the one reported.
ERROR_CASES = [
    pytest.param(
        "{nope",
        ParseError,
        "not valid JSON: Expecting property name enclosed in double quotes:"
        " line 1 column 2 (char 1)",
        id="invalid-json",
    ),
    pytest.param(
        "\ufeff{}",
        ParseError,
        "not valid JSON: Unexpected UTF-8 BOM (decode using utf-8-sig):"
        " line 1 column 1 (char 0)",
        id="byte-order-mark",
    ),
    pytest.param(
        '{"a": 1, "b": 2, "a": 3, "b": 4}',
        ParseError,
        "duplicate key: 'a'",
        id="duplicate-key-repeated-first",
    ),
    pytest.param(
        '{"a": 1, "b": 2, "b": 3, "a": 4}',
        ParseError,
        "duplicate key: 'b'",
        id="duplicate-key-repeated-second",
    ),
    pytest.param(
        '[{"x": 1, "x": 2}]',
        ParseError,
        "duplicate key: 'x'",
        id="duplicate-key-before-shape",
    ),
    pytest.param(
        "[1, 2]", ParseError, "document must be a JSON object", id="array"
    ),
    pytest.param(
        _text(version=_DROP),
        ParseError,
        "missing field: version",
        id="missing-version",
    ),
    pytest.param(
        _text(nspreads=_DROP, points=_DROP),
        ParseError,
        "missing field: points",
        id="missing-two-fields",
    ),
    pytest.param(
        _text(version=2),
        ParseError,
        "unsupported document version",
        id="version-2",
    ),
    pytest.param(
        _text(version=True),
        ParseError,
        "unsupported document version",
        id="version-true",
    ),
    pytest.param(
        _text(version="1"),
        ParseError,
        "unsupported document version",
        id="version-string",
    ),
    pytest.param(
        _text(points="d"), ParseError, "points must be a list", id="points"
    ),
    pytest.param(
        _text(points=["d", 3]),
        ParseError,
        "points must contain strings",
        id="points-item",
    ),
    pytest.param(
        _text(order={}), ParseError, "order must be a list", id="order"
    ),
    pytest.param(
        _text(order=[["d"]]),
        ParseError,
        "order entries must be [lower, upper] pairs",
        id="order-short-pair",
    ),
    pytest.param(
        _text(order=["dd"]),
        ParseError,
        "order entries must be [lower, upper] pairs",
        id="order-string-pair",
    ),
    pytest.param(
        _text(order=[["d", "d-"], ["d", 1]]),
        ParseError,
        "order entries must name points",
        id="order-item",
    ),
    pytest.param(
        _text(order=[["d", 1], ["d"]]),
        ParseError,
        "order entries must name points",
        id="order-item-before-short-pair",
    ),
    pytest.param(
        _text(order=[["d"], ["d", 1]]),
        ParseError,
        "order entries must be [lower, upper] pairs",
        id="order-short-pair-before-item",
    ),
    pytest.param(
        _text(events=[]), ParseError, "events must be an object", id="events"
    ),
    pytest.param(
        _text(events={"d": "d"}),
        ParseError,
        "event 'd' must be a list",
        id="event",
    ),
    pytest.param(
        _text(events={"d": ["d", None]}),
        ParseError,
        "event 'd' must contain strings",
        id="event-item",
    ),
    pytest.param(
        _text(events={"e": ["d", "d+", "d+", "d"]}),
        ParseError,
        "event 'e' lists 'd+' twice",
        id="event-repeated-member",
    ),
    pytest.param(
        _text(spreads=[]),
        ParseError,
        "spreads must be an object",
        id="spreads",
    ),
    pytest.param(
        _spread([]), ParseError, "spread 's' must be an object", id="spread"
    ),
    pytest.param(
        _spread({"initial": "d"}),
        ParseError,
        "spread 's' needs initial and outcomes",
        id="spread-no-outcomes",
    ),
    pytest.param(
        _spread({"outcomes": []}),
        ParseError,
        "spread 's' needs initial and outcomes",
        id="spread-no-initial",
    ),
    pytest.param(
        _spread({"initial": 1, "outcomes": []}),
        ParseError,
        "spread 's': initial must name an event",
        id="spread-initial",
    ),
    pytest.param(
        _spread({"initial": "d", "outcomes": "plus"}),
        ParseError,
        "spread 's' outcomes must be a list",
        id="spread-outcomes",
    ),
    pytest.param(
        _spread({"initial": "d", "outcomes": ["plus", 0]}),
        ParseError,
        "spread 's' outcomes must contain strings",
        id="spread-outcomes-item",
    ),
    pytest.param(
        _text(nspreads=[]),
        ParseError,
        "nspreads must be an object",
        id="nspreads",
    ),
    pytest.param(
        _text(nspreads={"N": "sigma"}),
        ParseError,
        "nspread 'N' must be a list",
        id="nspread",
    ),
    pytest.param(
        _text(nspreads={"N": ["sigma", {}]}),
        ParseError,
        "nspread 'N' must contain strings",
        id="nspread-item",
    ),
    pytest.param(
        _text(points=[]),
        EmptyModel,
        "a model needs at least one point event",
        id="no-points",
    ),
    pytest.param(
        _text(points=["d", "", "d", "d-", "d+"]),
        ValueError,
        "point ids must be nonempty strings, got ''",
        id="points-blank-before-repeat",
    ),
    pytest.param(
        _text(points=["d", "d", "", "d-", "d+"]),
        ValueError,
        "duplicate point id: 'd'",
        id="points-repeat-before-blank",
    ),
    pytest.param(
        _text(order=[["d", "d-"], ["zz", "yy"]]),
        UnknownPoint,
        "unknown point id in order pair: 'zz'",
        id="order-two-undeclared-points",
    ),
    pytest.param(
        _text(order=[["d", "zz"]]),
        UnknownPoint,
        "unknown point id in order pair: 'zz'",
        id="order-undeclared-point",
    ),
    pytest.param(
        _text(order=[["d", "d-"], ["d-", "d"]]),
        CycleDetected,
        "ordering cycle through point 'd'",
        id="order-cycle",
    ),
    pytest.param(
        _text(events={"e": ["zz"]}),
        UnknownReference,
        "event 'e' references undeclared point 'zz'",
        id="event-one-undeclared-point",
    ),
    pytest.param(
        _text(events={"e": ["d", "zz", "yy"]}),
        UnknownReference,
        "event 'e' references undeclared point 'zz'",
        id="event-undeclared-point",
    ),
    pytest.param(
        _spread({"initial": "x1", "outcomes": ["x2"]}),
        UnknownReference,
        "spread 's' references undeclared event 'x1'",
        id="spread-undeclared-initial-first",
    ),
    pytest.param(
        _spread({"initial": "x1", "outcomes": ["plus", "zz"]}),
        UnknownReference,
        "spread 's' references undeclared event 'x1'",
        id="spread-undeclared-initial-and-outcome",
    ),
    pytest.param(
        _spread({"initial": "d", "outcomes": ["plus", "zz", "yy"]}),
        UnknownReference,
        "spread 's' references undeclared event 'zz'",
        id="spread-undeclared-outcome",
    ),
    pytest.param(
        _text(nspreads={"N": ["sigma", "zz", "yy"]}),
        UnknownReference,
        "nspread 'N' references undeclared spread 'zz'",
        id="nspread-undeclared-spread",
    ),
]


@pytest.mark.parametrize("text, error, message", ERROR_CASES)
def test_error_message_whole(text, error, message):
    with pytest.raises(error) as info:
        resolve_document(parse_document(text))
    assert type(info.value) is error
    assert str(info.value) == message


_TOY = json.loads((FIXTURES / "toy_decay.json").read_text(encoding="utf-8"))


def _children(node):
    if isinstance(node, dict):
        return node.items()
    return enumerate(node) if isinstance(node, list) else ()


def _node_paths(node, path=()):
    yield path
    for key, child in _children(node):
        yield from _node_paths(child, path + (key,))


def _names(node):
    if isinstance(node, str):
        yield node
    for key, child in _children(node):
        if isinstance(key, str):
            yield key
        yield from _names(child)


_JSON_VALUES = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.text(max_size=3)
    | st.sampled_from(sorted(set(_names(_TOY)))),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=3), children, max_size=4),
    max_leaves=8,
)


def _splice(node, path, value):
    if not path:
        return value
    copy = dict(node) if isinstance(node, dict) else list(node)
    copy[path[0]] = _splice(node[path[0]], path[1:], value)
    return copy


@settings(deadline=None)
@given(st.sampled_from(list(_node_paths(_TOY))), _JSON_VALUES)
def test_spliced_toy_document_resolves_or_raises_a_usage_error(path, value):
    """Any JSON value at any node of a valid document either loads or
    raises one of the types the command line maps to exit 2."""
    text = json.dumps(_splice(_TOY, path, value))
    try:
        resolve_document(parse_document(text))
    except (BstError, ValueError):
        pass


class TestResolve:
    def test_small_document(self):
        resolved = resolve_document(small_doc())
        assert len(resolved.model.points) == 3
        assert set(resolved.events) == {"d", "minus", "plus"}
        spread = resolved.spreads["sigma"]
        assert spread.initial.name == "d"
        assert [o.name for o in spread.outcomes] == ["minus", "plus"]
        assert resolved.nspreads["Sigma"].spreads == (spread,)

    def test_event_with_undeclared_point(self):
        doc = small_doc()
        bad = ModelDocument(
            points=doc.points,
            order=doc.order,
            events={**doc.events, "ghost": ("zz",)},
            spreads=doc.spreads,
            nspreads=doc.nspreads,
        )
        with pytest.raises(UnknownReference, match="undeclared point"):
            resolve_document(bad)

    def test_spread_with_undeclared_event(self):
        doc = small_doc()
        bad = ModelDocument(
            points=doc.points,
            order=doc.order,
            events=doc.events,
            spreads={"s": SpreadDoc(initial="zz", outcomes=("minus",))},
            nspreads={},
        )
        with pytest.raises(UnknownReference, match="undeclared event"):
            resolve_document(bad)

    def test_nspread_with_undeclared_spread(self):
        doc = small_doc()
        bad = ModelDocument(
            points=doc.points,
            order=doc.order,
            events=doc.events,
            spreads=doc.spreads,
            nspreads={"NS": ("zz",)},
        )
        with pytest.raises(UnknownReference, match="undeclared spread"):
            resolve_document(bad)


class TestCannedDocuments:
    def test_ghz_document_inventory(self):
        doc = ghz_document()
        assert len(doc.points) == 53
        assert len(doc.order) == 114  # cover pairs only
        assert len(doc.events) == 21
        assert len(doc.spreads) == 12
        assert len(doc.nspreads) == 10

    def test_ghz_document_resolves_to_the_concrete_model(self):
        # against the model written out by hand, closed over sets
        doc = ghz_document()
        points, covers = reference_ghz_order()
        assert doc.points == points
        assert doc.order == covers
        assert {
            name: (s.initial, s.outcomes) for name, s in doc.spreads.items()
        } == reference_ghz_spreads()
        assert len(resolve_document(doc).model.histories) == 32

    def test_toy_document_resolves(self):
        doc = toy_decay_document()
        points, covers = reference_covers(TOY_DECAY_POINTS, TOY_DECAY_PAIRS)
        assert doc.points == points
        assert doc.order == covers
        resolved = resolve_document(doc)
        assert set(resolved.nspreads) == {"Sigma_ab"}

    def test_checked_in_fixtures_are_current(self):
        ghz_text = (FIXTURES / "ghz_model.json").read_text(encoding="utf-8")
        toy_text = (FIXTURES / "toy_decay.json").read_text(encoding="utf-8")
        assert ghz_text == dump_document(ghz_document())
        assert toy_text == dump_document(toy_decay_document())
