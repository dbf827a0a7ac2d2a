"""Document schema: parse, dump, resolve, and the canned documents."""

import json
from pathlib import Path

import pytest

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
from bstghz.errors import ParseError, UnknownReference
from bstghz.ghz import ghz_document

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


class TestParseErrors:
    def test_invalid_json(self):
        with pytest.raises(ParseError, match="not valid JSON"):
            parse_document("{nope")

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

    def test_ghz_document_resolves_to_the_concrete_model(self, ghz_model):
        resolved = resolve_document(ghz_document())
        assert resolved.model.points == ghz_model.points
        assert resolved.model.order_pairs() == ghz_model.order_pairs()
        assert len(resolved.model.histories) == 32

    def test_toy_document_resolves(self, toy):
        resolved = resolve_document(toy_decay_document())
        assert resolved.model.points == toy.model.points
        assert resolved.model.order_pairs() == toy.model.order_pairs()
        assert set(resolved.nspreads) == {"Sigma_ab"}

    def test_checked_in_fixtures_are_current(self):
        ghz_text = (FIXTURES / "ghz_model.json").read_text(encoding="utf-8")
        toy_text = (FIXTURES / "toy_decay.json").read_text(encoding="utf-8")
        assert ghz_text == dump_document(ghz_document())
        assert toy_text == dump_document(toy_decay_document())
