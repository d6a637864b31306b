"""Core normal-form algebra for bigraded C2-equivariant cohomology over F2.

The cohomology of a point is the bigraded ring M2: its positive cone is the
polynomial ring F2[rho, tau] with rho in bidegree (1, 1) and tau in (0, 1);
its negative cone consists of the classes theta/(rho^r tau^s) living in
bidegree (-r, -r-s-2), with every product of two negative-cone classes equal
to zero.  Every nonzero bidegree of M2 is one-dimensional over F2, so ring
elements are represented as single basis classes.

A module in normal form is a finite direct sum of shifted free summands
Sigma^{p,q} M2 and shifted antipodal-sphere summands Sigma^{r,0} A_n.  The
isomorphism type is exactly the pair of multiplicity maps over the two kinds
of keys, which is what :class:`NormalFormModule` stores.
"""

from __future__ import annotations

import itertools
from bisect import bisect_left
from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping, Sequence

from .exceptions import (
    ConstraintViolation,
    InvalidShift,
    NegativeExponent,
    NegativeMultiplicity,
    SchemaError,
)
from .serialize import expect, int_rows, known_fields

__all__ = [
    "M2Element",
    "ZERO",
    "ONE",
    "RHO",
    "TAU",
    "THETA",
    "m2_multiply",
    "m2_basis",
    "GradedDims",
    "UnivariatePolynomial",
    "BivariatePolynomial",
    "NormalFormModule",
    "make_module",
    "direct_sum",
    "suspend",
    "rank_polynomial",
]


# ---------------------------------------------------------------------------
# The point ring
# ---------------------------------------------------------------------------

_POS = "pos"
_NEG = "neg"
_ZERO = "zero"


@dataclass(frozen=True)
class M2Element:
    """A basis class of the point ring, or zero.

    ``pos(a, b)`` is the monomial rho^a tau^b; ``neg(r, s)`` is the divided
    class theta/(rho^r tau^s).  Coefficients are in F2, so there is nothing
    to store beyond the kind and the two exponents.
    """

    kind: str
    a: int = 0
    b: int = 0

    def __post_init__(self):
        if self.kind not in (_POS, _NEG, _ZERO):
            raise ValueError(f"unknown element kind {self.kind!r}")
        if self.kind != _ZERO and (self.a < 0 or self.b < 0):
            raise ValueError("exponents must be nonnegative")
        if self.kind == _ZERO and (self.a or self.b):
            raise ValueError("zero carries no exponents")

    @staticmethod
    def zero() -> "M2Element":
        return M2Element(_ZERO)

    @staticmethod
    def pos(a: int, b: int) -> "M2Element":
        return M2Element(_POS, a, b)

    @staticmethod
    def neg(r: int, s: int) -> "M2Element":
        return M2Element(_NEG, r, s)

    @property
    def is_zero(self) -> bool:
        return self.kind == _ZERO

    def bidegree(self) -> tuple[int, int] | None:
        """The (topological degree, weight) of the class; None for zero."""
        if self.kind == _POS:
            return (self.a, self.a + self.b)
        if self.kind == _NEG:
            return (-self.a, -self.a - self.b - 2)
        return None

    def __mul__(self, other: "M2Element") -> "M2Element":
        if not isinstance(other, M2Element):
            return NotImplemented
        if self.kind == _ZERO or other.kind == _ZERO:
            return ZERO
        if self.kind == _POS and other.kind == _POS:
            return M2Element.pos(self.a + other.a, self.b + other.b)
        if self.kind == _NEG and other.kind == _NEG:
            # theta^2 = 0 and division only deepens the negative cone.
            return ZERO
        pos, neg = (self, other) if self.kind == _POS else (other, self)
        if neg.a >= pos.a and neg.b >= pos.b:
            return M2Element.neg(neg.a - pos.a, neg.b - pos.b)
        return ZERO

    def __str__(self) -> str:
        if self.kind == _ZERO:
            return "0"
        if self.kind == _POS:
            parts = []
            if self.a:
                parts.append("rho" if self.a == 1 else f"rho^{self.a}")
            if self.b:
                parts.append("tau" if self.b == 1 else f"tau^{self.b}")
            return "*".join(parts) if parts else "1"
        denom = []
        if self.a:
            denom.append("rho" if self.a == 1 else f"rho^{self.a}")
        if self.b:
            denom.append("tau" if self.b == 1 else f"tau^{self.b}")
        if not denom:
            return "theta"
        return "theta/(" + "*".join(denom) + ")"


ZERO = M2Element.zero()
ONE = M2Element.pos(0, 0)
RHO = M2Element.pos(1, 0)
TAU = M2Element.pos(0, 1)
THETA = M2Element.neg(0, 0)


def m2_multiply(x: M2Element, y: M2Element) -> M2Element:
    """Product in the point ring."""
    return x * y


def m2_basis(max_exponent: int) -> Iterator[M2Element]:
    """All basis classes with both exponents bounded by ``max_exponent``."""
    for a, b in itertools.product(range(max_exponent + 1), repeat=2):
        yield M2Element.pos(a, b)
    for r, s in itertools.product(range(max_exponent + 1), repeat=2):
        yield M2Element.neg(r, s)


# ---------------------------------------------------------------------------
# Graded dimension counts and sparse polynomials
# ---------------------------------------------------------------------------


def merge_rows(rows: Iterable[Sequence], width: int) -> tuple:
    """Canonical rows: sorted by key, equal keys summed, zero sums dropped.

    Rows are ``(key, value)`` (width 2) or ``(a, b, value)`` (width 3), in any
    order, as tuples or lists; the result is a tuple of tuples.  Cost: one
    sort and one scan.
    """
    ordered = iter(sorted(map(tuple, rows)))
    # The current key's row, reused as it is; None once a duplicate has been
    # summed into the key, so that the row is rebuilt with the total.
    row = next(ordered, ())
    out = []
    if width == 2 and row:
        key, total = row
        for nxt in ordered:
            k, v = nxt
            if k == key:
                total += v
                row = None
                continue
            if total:
                out.append(row or (key, total))
            row, key, total = nxt, k, v
        if total:
            out.append(row or (key, total))
    elif row:
        a, b, total = row
        for nxt in ordered:
            x, y, v = nxt
            if x == a and y == b:
                total += v
                row = None
                continue
            if total:
                out.append(row or (a, b, total))
            row, a, b, total = nxt, x, y, v
        if total:
            out.append(row or (a, b, total))
    return tuple(out)


def row_value(rows: tuple, key: tuple) -> int:
    """The value stored under ``key`` in canonical rows, or 0."""
    i = bisect_left(rows, key)
    return rows[i][-1] if i < len(rows) and rows[i][:-1] == key else 0


def _clean_items(rows: Iterable[Sequence], width: int, what: str) -> tuple:
    rows = tuple(rows)
    for row in rows:
        if not isinstance(row[-1], int):
            raise ValueError(f"{what} values must be integers, got {row[-1]!r}")
    merged = merge_rows(rows, width)
    for row in merged:
        if row[-1] < 0:
            key = row[0] if width == 2 else row[:-1]
            raise ValueError(f"{what} at {key} is negative ({row[-1]})")
    return merged


@dataclass(frozen=True)
class GradedDims:
    """A finitely supported map degree -> positive dimension."""

    entries: tuple[tuple[int, int], ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "entries", _clean_items(self.entries, 2, "dimension"))

    @staticmethod
    def from_list(dims: Iterable[int]) -> "GradedDims":
        return GradedDims(tuple(enumerate(dims)))

    def get(self, degree: int) -> int:
        return row_value(self.entries, (degree,))

    def items(self) -> tuple[tuple[int, int], ...]:
        return self.entries

    def support(self) -> tuple[int, ...]:
        return tuple(d for d, _ in self.entries)

    def total(self) -> int:
        return sum(v for _, v in self.entries)

    def alternating_sum(self) -> int:
        return sum(v if d % 2 == 0 else -v for d, v in self.entries)

    def shift(self, offset: int) -> "GradedDims":
        return GradedDims(tuple((d + offset, v) for d, v in self.entries))

    def to_list(self, upper: int | None = None) -> list[int]:
        """Dense list of dimensions for degrees 0..upper (or the max degree)."""
        top = upper if upper is not None else (self.entries[-1][0] if self.entries else 0)
        dense = [0] * (top + 1)
        for d, v in self.entries:
            if 0 <= d <= top:
                dense[d] = v
        return dense

    def __add__(self, other: "GradedDims") -> "GradedDims":
        return GradedDims(self.entries + other.entries)

    def __bool__(self) -> bool:
        return bool(self.entries)


@dataclass(frozen=True)
class UnivariatePolynomial:
    """Sparse polynomial with nonnegative integer coefficients."""

    terms: tuple[tuple[int, int], ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "terms", _clean_items(self.terms, 2, "coefficient"))

    def coefficient(self, exponent: int) -> int:
        return row_value(self.terms, (exponent,))

    def evaluate(self, x: int) -> int:
        return sum(c * x**e for e, c in self.terms)

    def total(self) -> int:
        return self.evaluate(1)

    def alternating_sum(self) -> int:
        return self.evaluate(-1)

    def to_graded_dims(self) -> GradedDims:
        return GradedDims(self.terms)

    def __add__(self, other: "UnivariatePolynomial") -> "UnivariatePolynomial":
        return UnivariatePolynomial(self.terms + other.terms)

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for e, c in self.terms:
            coeff = "" if c == 1 and e != 0 else str(c)
            if e == 0:
                parts.append(str(c))
            elif e == 1:
                parts.append(f"{coeff}t")
            else:
                parts.append(f"{coeff}t^{e}")
        return " + ".join(parts)


@dataclass(frozen=True)
class BivariatePolynomial:
    """Sparse two-variable polynomial with nonnegative integer coefficients."""

    terms: tuple[tuple[int, int, int], ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "terms", _clean_items(self.terms, 3, "coefficient"))

    @staticmethod
    def from_mapping(mapping: Mapping[tuple[int, int], int]) -> "BivariatePolynomial":
        return BivariatePolynomial(tuple((i, j, c) for (i, j), c in mapping.items()))

    def coefficient(self, i: int, j: int) -> int:
        return row_value(self.terms, (i, j))

    def coefficients(self) -> dict[tuple[int, int], int]:
        return {(i, j): c for i, j, c in self.terms}

    def evaluate(self, u: int, v: int) -> int:
        return sum(c * u**i * v**j for i, j, c in self.terms)

    def shift(self, du: int, dv: int) -> "BivariatePolynomial":
        return BivariatePolynomial(tuple((i + du, j + dv, c) for i, j, c in self.terms))

    def substitute_powers(self, eu: int, ev: int) -> UnivariatePolynomial:
        """Collapse to one variable via u -> t^eu, v -> t^ev.

        Raises :class:`NegativeExponent` if any term lands in negative degree,
        which happens exactly when substituting v -> 1/t into a term with
        weight exceeding topological degree.
        """
        rows = []
        for i, j, c in self.terms:
            e = eu * i + ev * j
            if e < 0:
                raise NegativeExponent(
                    f"term u^{i} v^{j} maps to negative exponent {e}"
                )
            rows.append((e, c))
        return UnivariatePolynomial(tuple(rows))

    def __add__(self, other: "BivariatePolynomial") -> "BivariatePolynomial":
        return BivariatePolynomial(self.terms + other.terms)

    def to_json(self) -> list[list[int]]:
        return [[i, j, c] for i, j, c in self.terms]

    @staticmethod
    def from_json(data) -> "BivariatePolynomial":
        shape = "[p, q, coefficient]"
        row_shape = f"{shape} nonnegative integers"
        int_rows(data, 3, "hodge", f"a list of {shape} triples", row_shape)
        for k, row in enumerate(data):
            if min(row) < 0:
                raise SchemaError(f"hodge[{k}]", f"expected {row_shape}")
        return BivariatePolynomial(tuple(data))

    def __str__(self) -> str:
        if not self.terms:
            return "0"

        def mono(i: int, j: int, c: int) -> str:
            body = ""
            if i:
                body += "u" if i == 1 else f"u^{i}"
            if j:
                body += "v" if j == 1 else f"v^{j}"
            if not body:
                return str(c)
            return body if c == 1 else f"{c}{body}"

        return " + ".join(mono(i, j, c) for i, j, c in self.terms)


# ---------------------------------------------------------------------------
# Normal-form modules
# ---------------------------------------------------------------------------


_MODULE_KEYS = ("free", "antipodal")


@dataclass(frozen=True)
class NormalFormModule:
    """Two multiplicity maps: free summands at (p, q), antipodal at (r, n).

    Entries are stored canonically: sorted lexicographically, strictly
    positive multiplicities, duplicates merged.  Equality of modules is
    equality of the maps.
    """

    free: tuple[tuple[int, int, int], ...] = ()
    antipodal: tuple[tuple[int, int, int], ...] = ()

    def __post_init__(self):
        for part in ("free", "antipodal"):
            rows = tuple(getattr(self, part))
            for a, b, mult in rows:
                if mult <= 0:
                    raise NegativeMultiplicity(
                        f"{part} summand at ({a}, {b}) has multiplicity {mult}"
                    )
            object.__setattr__(self, part, merge_rows(rows, 3))

    # -- construction -------------------------------------------------------

    @staticmethod
    def zero() -> "NormalFormModule":
        return NormalFormModule((), ())

    # -- inspection ---------------------------------------------------------

    def free_map(self) -> dict[tuple[int, int], int]:
        return {(p, q): m for p, q, m in self.free}

    def antipodal_map(self) -> dict[tuple[int, int], int]:
        return {(r, n): m for r, n, m in self.antipodal}

    def free_rank(self, p: int, q: int) -> int:
        return row_value(self.free, (p, q))

    def antipodal_rank(self, r: int, n: int) -> int:
        return row_value(self.antipodal, (r, n))

    @property
    def total_free(self) -> int:
        """|I|: number of free summands, counted with multiplicity."""
        return sum(m for _, _, m in self.free)

    @property
    def total_antipodal(self) -> int:
        """|J|: number of antipodal summands, counted with multiplicity."""
        return sum(m for _, _, m in self.antipodal)

    @property
    def total_a0(self) -> int:
        """|J0|: antipodal summands of sphere dimension zero (free orbits)."""
        return sum(m for _, n, m in self.antipodal if n == 0)

    @property
    def total_a_plus(self) -> int:
        """|J+|: antipodal summands of positive sphere dimension."""
        return sum(m for _, n, m in self.antipodal if n > 0)

    @property
    def is_zero(self) -> bool:
        return not self.free and not self.antipodal

    def sort_key(self):
        return (self.free, self.antipodal)

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other: "NormalFormModule") -> "NormalFormModule":
        if not isinstance(other, NormalFormModule):
            return NotImplemented
        return NormalFormModule(self.free + other.free, self.antipodal + other.antipodal)

    def suspend(self, p: int, q: int) -> "NormalFormModule":
        """Shift by the representation sphere direction (p, q), p >= q >= 0.

        Antipodal summands only pick up the topological shift: a (p, q)
        suspension of A_n is isomorphic to the (p, 0) one.
        """
        if not (p >= q >= 0):
            raise InvalidShift(f"suspension by ({p}, {q}) requires p >= q >= 0")
        return NormalFormModule(
            tuple((pi + p, qi + q, m) for pi, qi, m in self.free),
            tuple((r + p, n, m) for r, n, m in self.antipodal),
        )

    # -- serialization ------------------------------------------------------

    def to_json_dict(self) -> dict:
        return {
            "free": [[p, q, m] for p, q, m in self.free],
            "antipodal": [[r, n, m] for r, n, m in self.antipodal],
        }

    @staticmethod
    def from_json_dict(data) -> "NormalFormModule":
        expect(data, dict, "module", "an object with 'free' and 'antipodal'")
        known_fields(data, _MODULE_KEYS, "module")
        shape, row_shape = "a list of triples", "three integers [a, b, mult]"
        free, antipodal = (
            int_rows(data.get(part, []), 3, f"module.{part}", shape, row_shape)
            for part in _MODULE_KEYS
        )
        return make_module(free, antipodal)

    def summands(self) -> list[str]:
        """Human-readable summand labels in canonical order."""
        out = []
        for p, q, m in self.free:
            label = f"M2[{p},{q}]"
            out.append(label if m == 1 else f"{label}^{m}")
        for r, n, m in self.antipodal:
            label = f"A{n}[{r}]"
            out.append(label if m == 1 else f"{label}^{m}")
        return out

    def __str__(self) -> str:
        return " + ".join(self.summands()) if not self.is_zero else "0"


def make_module(
    free: Iterable[tuple[int, int, int]] = (),
    antipodal: Iterable[tuple[int, int, int]] = (),
    cw: bool = True,
) -> NormalFormModule:
    """Build a module from (p, q, mult) and (r, n, mult) triples.

    Duplicate keys are merged by addition.  With ``cw`` set (the default) the
    bounds p >= q >= 0 and r, n >= 0 are enforced; pass ``cw=False`` only for
    intermediate bookkeeping values that never reach a topological operation.
    """
    module = NormalFormModule(tuple(free), tuple(antipodal))
    if cw:
        for p, q, _ in module.free:
            if not (p >= q >= 0):
                raise ConstraintViolation(
                    f"free summand at ({p}, {q}) violates p >= q >= 0"
                )
        for r, n, _ in module.antipodal:
            if r < 0 or n < 0:
                raise ConstraintViolation(
                    f"antipodal summand at ({r}, {n}) violates r, n >= 0"
                )
    return module


def direct_sum(*modules: NormalFormModule) -> NormalFormModule:
    """Pointwise sum of the multiplicity maps."""
    total = NormalFormModule.zero()
    for m in modules:
        total = total + m
    return total


def suspend(module: NormalFormModule, p: int, q: int) -> NormalFormModule:
    return module.suspend(p, q)


def rank_polynomial(module: NormalFormModule) -> BivariatePolynomial:
    """The generating polynomial of the free multiplicities, sum of m u^p v^q."""
    return BivariatePolynomial(module.free)
