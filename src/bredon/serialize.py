"""Canonical JSON helpers shared by the file formats and the CLI.

All emitted JSON is deterministic: objects are built with a fixed key
order, arrays are canonically sorted by their producers, and the encoder
uses compact separators, so identical inputs yield byte-identical output.
"""

from __future__ import annotations

import json
from pathlib import Path

from .exceptions import ParseError

__all__ = ["canonical_dumps", "parse_json", "load_json_file"]


# json.dumps builds a new encoder on every call with non-default separators.
_ENCODE = json.JSONEncoder(separators=(",", ":"), ensure_ascii=True).encode


def canonical_dumps(data) -> str:
    return _ENCODE(data)


def parse_json(text: str, source: str = "<input>"):
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(
            f"{source}: invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}",
            line=exc.lineno,
            column=exc.colno,
        ) from exc


def load_json_file(path: str | Path):
    p = Path(path)
    try:
        text = p.read_text()
    except OSError as exc:
        raise ParseError(f"{p}: {exc.strerror or exc}") from exc
    return parse_json(text, source=str(p))
