#!/usr/bin/env python3
"""Regenerate the JSON documents shipped under fixtures/."""

from __future__ import annotations

from pathlib import Path

from bstghz.common_cause import toy_decay_document
from bstghz.document import dump_document
from bstghz.ghz import ghz_document

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def main() -> None:
    FIXTURES.mkdir(exist_ok=True)
    for name, doc in (
        ("ghz_model.json", ghz_document()),
        ("toy_decay.json", toy_decay_document()),
    ):
        path = FIXTURES / name
        path.write_text(dump_document(doc), encoding="utf-8")
        print(f"wrote {path}")


if __name__ == "__main__":
    main()
