"""Byte pin of every module verb's stdout and exit code, in both formats, of
``catalog``, ``solve`` and ``predict`` on the demo constraint files, and of
the ``--help`` text of the program and of every verb.

Record again with ``PYTHONPATH=src python tests/test_cli_golden.py``, and only
at a commit whose outputs are trusted.
"""

import contextlib
import io
import json
import os
from pathlib import Path

from bredon.cli import main

GOLDEN = Path(__file__).parent / "golden" / "cli_outputs.json"
DEMO_DATA = Path(__file__).resolve().parents[1] / "demos" / "data"

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
    "twisted_plane": ["--catalog", "twisted_plane"],
}
FORMATS = ("table", "json")
HELP = ((), ("catalog",), *((verb,) for verb in VERBS), ("solve",), ("predict",))


def _main(argv: list[str]) -> tuple[int, str]:
    """The exit code and stdout of one run; ``--help`` exits through SystemExit."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue()


def outputs() -> dict:
    """``"verb entry format"`` and ``"[verb] --help"`` -> ``{"code", "stdout"}``
    for every case.  Help text is rendered 200 columns wide, where argparse
    wraps no usage line and Pythons 3.10 to 3.13 print the same bytes."""
    recorded = {}
    for verb in VERBS:
        for label, source in ENTRIES.items():
            for fmt in FORMATS:
                code, out = _main([verb, *source, "--format", fmt])
                recorded[f"{verb} {label} {fmt}"] = {"code": code, "stdout": out}
    for fmt in FORMATS:
        code, out = _main(["catalog", "--format", fmt])
        recorded[f"catalog {fmt}"] = {"code": code, "stdout": out}
    for name in ("k3_s2s2.json", "cubic_s3_rp3.json"):
        constraints = ["--constraints", str(DEMO_DATA / name)]
        code, out = _main(["solve", *constraints])
        recorded[f"solve {name}"] = {"code": code, "stdout": out}
        for fmt in FORMATS:
            code, out = _main(["predict", *constraints, "--format", fmt])
            recorded[f"predict {name} {fmt}"] = {"code": code, "stdout": out}
    columns = os.environ.get("COLUMNS")
    os.environ["COLUMNS"] = "200"
    try:
        for verb in HELP:
            code, out = _main([*verb, "--help"])
            recorded[" ".join([*verb, "--help"])] = {"code": code, "stdout": out}
    finally:
        if columns is None:
            del os.environ["COLUMNS"]
        else:
            os.environ["COLUMNS"] = columns
    return recorded


def test_cli_outputs_match_golden():
    expected = json.loads(GOLDEN.read_text())
    actual = outputs()
    assert sorted(actual) == sorted(expected)
    for case, want in expected.items():
        assert actual[case] == want, case


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(outputs(), indent=1, sort_keys=True) + "\n")
