"""Error types raised by the package.

Every exception carries a stable ``code`` string so that callers (and the
command-line frontend) can dispatch on the failure kind without parsing
messages.
"""

from __future__ import annotations

__all__ = [
    "BredonError",
    "ConstraintViolation",
    "NegativeMultiplicity",
    "InvalidShift",
    "NegativeExponent",
    "TorsionUnknown",
    "InternalInconsistency",
    "InfeasibleBounds",
    "SearchTooLarge",
    "UnknownName",
    "ParameterRange",
    "ParseError",
    "SchemaError",
]


class BredonError(Exception):
    """Base class for all package errors."""

    code = "ERROR"


class ConstraintViolation(BredonError):
    """A structural rule of a normal form was violated (e.g. p < q, or a
    non-integer entry)."""

    code = "CONSTRAINT_VIOLATION"


class NegativeMultiplicity(BredonError):
    """A summand multiplicity was zero or negative."""

    code = "NEGATIVE_MULTIPLICITY"


class InvalidShift(BredonError):
    """A suspension shift (p, q) failed p >= q >= 0."""

    code = "INVALID_SHIFT"


class NegativeExponent(BredonError):
    """A polynomial substitution produced a negative exponent."""

    code = "NEGATIVE_EXPONENT"


class TorsionUnknown(BredonError):
    """Torsion-freeness was required but not asserted by the caller."""

    code = "TORSION_UNKNOWN"


class InternalInconsistency(BredonError):
    """Two computation paths that must agree did not; indicates a bug."""

    code = "INTERNAL_INCONSISTENCY"


class InfeasibleBounds(BredonError):
    """Input lies outside a documented bound: constraint data outside the
    feasible degree window, or a rank lattice with more cells than a table
    prints."""

    code = "INFEASIBLE_BOUNDS"


class SearchTooLarge(BredonError):
    """The decomposition search needs more states than its fixed bound."""

    code = "SEARCH_TOO_LARGE"


class UnknownName(BredonError):
    """Catalog lookup with a name that is not registered."""

    code = "UNKNOWN_NAME"


class ParameterRange(BredonError):
    """Catalog parameters outside their documented range."""

    code = "PARAMETER_RANGE"


class ParseError(BredonError):
    """Input is unreadable or not valid JSON; for invalid JSON the message
    names the line and column."""

    code = "PARSE_ERROR"


class SchemaError(BredonError):
    """Parsed JSON does not match the expected schema; names the field."""

    code = "SCHEMA_ERROR"

    def __init__(self, field: str, message: str):
        super().__init__(f"{field}: {message}")
        self.field = field
