"""Byte pin of every module verb's stdout and exit code, in both formats.

Record again with ``PYTHONPATH=src python tests/test_cli_golden.py``, and only
at a commit whose outputs are trusted.
"""

import contextlib
import io
import json
from pathlib import Path

from bredon.cli import main

GOLDEN = Path(__file__).parent / "golden" / "cli_outputs.json"

VERBS = (
    "show",
    "classify",
    "report",
    "fixed",
    "borel",
    "singular",
    "image",
    "rankpoly",
    "pd-check",
    "validate",
    "hodge",
)
ENTRIES = {
    "k3(b_star=4,chi=4)": ["--catalog", "k3", "--param", "b_star=4", "--param", "chi=4"],
    "curve(g=3,r=1)": ["--catalog", "curve", "--param", "g=3", "--param", "r=1"],
    "severi_brauer_1": ["--catalog", "severi_brauer_1"],
    "cubic_threefold_s3_rp3": ["--catalog", "cubic_threefold_s3_rp3"],
}
FORMATS = ("table", "json")


def outputs() -> dict:
    """``"verb entry format" -> {"code", "stdout"}`` for every case."""
    recorded = {}
    for verb in VERBS:
        for label, source in ENTRIES.items():
            for fmt in FORMATS:
                out = io.StringIO()
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                    code = main([verb, *source, "--format", fmt])
                recorded[f"{verb} {label} {fmt}"] = {"code": code, "stdout": out.getvalue()}
    return recorded


def test_cli_outputs_match_golden():
    expected = json.loads(GOLDEN.read_text())
    actual = outputs()
    assert sorted(actual) == sorted(expected)
    for case, want in expected.items():
        assert actual[case] == want, case


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(outputs(), indent=1, sort_keys=True) + "\n")
