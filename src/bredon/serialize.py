"""Canonical JSON helpers shared by the file formats and the CLI.

All emitted JSON is deterministic: objects are built with a fixed key
order, arrays are canonically sorted by their producers, and the encoder
uses compact separators, so identical inputs yield byte-identical output.
"""

from __future__ import annotations

import json
from pathlib import Path

from .exceptions import ParseError, SchemaError

__all__ = [
    "canonical_dumps", "parse_json", "load_json_file", "expect", "known_fields", "int_rows"
]

_KINDS = {int: "an integer", bool: "a boolean", list: "a list", str: "a string", dict: "an object"}


# json.dumps builds a new encoder on every call with non-default separators.
_ENCODE = json.JSONEncoder(separators=(",", ":"), ensure_ascii=True).encode


def canonical_dumps(data) -> str:
    return _ENCODE(data)


def parse_json(text: str | bytes, source: str = "<input>"):
    """The value of a JSON text, else ParseError naming ``source``.

    Bytes are decoded as UTF-8, JSON's encoding.  Only a syntax error names
    a line and column; text that is not UTF-8, nesting deeper than the
    interpreter's stack and an integer literal longer than its conversion
    limit (4,300 digits by default) are errors of the whole text.
    """
    try:
        return json.loads(text.decode("utf-8") if isinstance(text, bytes) else text)
    except json.JSONDecodeError as exc:
        raise ParseError(
            f"{source}: invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    except UnicodeDecodeError as exc:
        raise ParseError(f"{source}: not UTF-8 text: {exc.reason} at byte {exc.start}") from exc
    except RecursionError as exc:
        raise ParseError(f"{source}: JSON nested too deeply to read") from exc
    except ValueError as exc:  # an integer literal over the conversion limit
        raise ParseError(f"{source}: unreadable integer: {exc}") from exc


def load_json_file(path: str | Path):
    """The JSON value of a file read as UTF-8, else ParseError naming it."""
    p = Path(path)
    try:
        data = p.read_bytes()
    except OSError as exc:
        raise ParseError(f"{p}: {exc.strerror or exc}") from exc
    return parse_json(data, source=str(p))


def expect(value, kind, field: str, what: str | None = None, minimum: int | None = None):
    """``value`` if it is a ``kind`` of at least ``minimum``, else SchemaError.

    A bool is never an int.  ``what`` describes the expected value in the
    message, by default the name of ``kind``.
    """
    if (
        not isinstance(value, kind)
        or kind is int and isinstance(value, bool)
        or minimum is not None and value < minimum
    ):
        raise SchemaError(field, f"expected {what or _KINDS[kind]}")
    return value


def known_fields(data: dict, keys: tuple, field: str) -> None:
    """SchemaError on the first key of the object ``data`` not in ``keys``."""
    for key in data:
        if key not in keys:
            raise SchemaError(f"{field}.{key}", "unknown field")


def int_rows(value, field: str, shape: str, row_shape: str) -> list:
    """``value`` if it is a list of three-integer lists, else SchemaError."""
    expect(value, list, field, shape)
    for k, row in enumerate(value):
        if (
            not isinstance(row, list)
            or len(row) != 3
            or not all(isinstance(x, int) and not isinstance(x, bool) for x in row)
        ):
            raise SchemaError(f"{field}[{k}]", f"expected {row_shape}")
    return value
