"""Golden-file pin of the canonical serialization of catalog modules and entries.

Record ``catalog_entries.json`` again with ``PYTHONPATH=src python
tests/test_golden.py``, and only at a commit whose outputs are trusted.
"""

import contextlib
import io
import json
from pathlib import Path

from bredon import NormalFormModule, catalog_get, catalog_list
from bredon.cli import main
from bredon.serialize import canonical_dumps

ENTRIES = Path(__file__).parent / "golden" / "catalog_entries.json"
# label -> the canonical module string inside its pinned entry
GOLDEN = {
    label: canonical_dumps(json.loads(entry)["module"])
    for label, entry in json.loads(ENTRIES.read_text())["entries"].items()
}


def _entry(label):
    name, _, raw = label.partition("(")
    params = {}
    if raw:
        for item in raw.rstrip(")").split(","):
            key, value = item.split("=")
            params[key] = int(value)
    return catalog_get(name, **params)


def test_catalog_serializations_are_stable():
    for label, expected in GOLDEN.items():
        module = _entry(label).module
        assert canonical_dumps(module.to_json_dict()) == expected, label


def test_golden_strings_parse_back():
    for label, expected in GOLDEN.items():
        module = NormalFormModule.from_json_dict(json.loads(expected))
        assert module == _entry(label).module, label
        assert canonical_dumps(module.to_json_dict()) == expected, label


def catalog_entries() -> dict:
    """The ``catalog --format json`` stdout, and one full entry per family."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(["catalog", "--format", "json"]) == 0
    entries = {label: canonical_dumps(_entry(label).to_json_dict()) for label in GOLDEN}
    return {"listing": out.getvalue(), "entries": entries}


def test_catalog_listing_and_entries_are_stable():
    expected = json.loads(ENTRIES.read_text())
    assert {label.partition("(")[0] for label in expected["entries"]} == {
        item["name"] for item in catalog_list()
    }
    actual = catalog_entries()
    assert actual["listing"] == expected["listing"]
    for label, want in expected["entries"].items():
        assert actual["entries"][label] == want, label


if __name__ == "__main__":
    ENTRIES.write_text(json.dumps(catalog_entries(), indent=1, sort_keys=True) + "\n")
