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
        parts = "*".join(power(x, e) for x, e in (("rho", self.a), ("tau", self.b)) if e)
        if self.kind == _POS:
            return parts or "1"
        return f"theta/({parts})" if parts else "theta"


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


def merge_rows(rows: Iterable[Sequence]) -> tuple:
    """Canonical rows: sorted by key, equal keys summed, zero sums dropped.

    A row is its key followed by its value, ``row[:-1]`` and ``row[-1]``,
    as a tuple or a list, in any order; the result is a tuple of tuples.
    The caller makes every row the same length, as ``clean_rows`` and
    ``NormalFormModule`` do.  Cost: one sort and one scan.

    Every value type is built through it, except the walk's modules
    (``NormalFormModule._canonical``) and the localization sums
    (``GradedDims._canonical``).  So a ``bredon solve`` calls it only from
    the constraint reader and a cold search plan, and ``bredon report``
    about seven times per module.
    """
    out = []
    last = None
    for row in sorted(map(tuple, rows)):
        key = row[:-1]
        if key == last:
            out[-1] = (*key, out[-1][-1] + row[-1])
        else:
            out.append(row)
            last = key
    return tuple([row for row in out if row[-1]])


def row_value(rows: tuple, key: tuple) -> int:
    """The value stored under ``key`` in canonical rows, or 0."""
    i = bisect_left(rows, key)
    return rows[i][-1] if i < len(rows) and rows[i][:-1] == key else 0


def power(base: str, exponent: int) -> str:
    """``base`` raised to ``exponent`` in text: ``base^exponent``, or ``base`` at 1."""
    return base if exponent == 1 else f"{base}^{exponent}"


def clean_rows(rows: Iterable[Sequence], width: int, what: str) -> tuple:
    """Canonical rows of ``width`` exact ``int`` entries whose sums are >= 0.

    A row of another length is a ValueError, since ``merge_rows`` would read
    its last entry as the value of a wrong key.  A bool or a float anywhere
    in a row is a ValueError: its JSON could not be read back.  A negative
    sum after the merge is a ValueError too.
    """
    rows = tuple(rows)
    for row in rows:
        if len(row) != width:
            raise ValueError(f"{what} rows must have {width} entries, got {row!r}")
        for entry in row:
            if type(entry) is not int:
                raise ValueError(f"{what} rows must hold integers, got {row!r}")
    merged = merge_rows(rows)
    for row in merged:
        if row[-1] < 0:
            key = row[0] if width == 2 else row[:-1]
            raise ValueError(f"{what} at {key} is negative ({row[-1]})")
    return merged


@dataclass(frozen=True)
class GradedDims:
    """A finitely supported map degree -> positive dimension.

    ``GradedDims(...)``, ``from_list`` and every JSON reader pass their rows
    through ``clean_rows``; only :meth:`_canonical` skips it.
    """

    entries: tuple[tuple[int, int], ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "entries", clean_rows(self.entries, 2, "dimension"))

    @classmethod
    def _canonical(cls, entries: tuple[tuple[int, int], ...]) -> "GradedDims":
        """Wrap rows that are canonical by construction, without ``clean_rows``.

        The caller guarantees what ``clean_rows`` would check and make: a
        tuple of ``(int, int)`` rows, strictly increasing degrees and
        positive dimensions.  Only the summing helper of
        ``bredon.localization`` uses it, for sums of the multiplicities of a
        validated ``NormalFormModule`` keyed by distinct degrees.
        """
        dims = object.__new__(cls)
        object.__setattr__(dims, "entries", entries)
        return dims

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
        object.__setattr__(self, "terms", clean_rows(self.terms, 2, "coefficient"))

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
        return " + ".join(
            str(c) if e == 0 else ("" if c == 1 else str(c)) + power("t", e)
            for e, c in self.terms
        )


@dataclass(frozen=True)
class BivariatePolynomial:
    """Sparse two-variable polynomial with nonnegative integer coefficients."""

    terms: tuple[tuple[int, int, int], ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "terms", clean_rows(self.terms, 3, "coefficient"))

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
        int_rows(data, "hodge", f"a list of {shape} triples", row_shape)
        for k, row in enumerate(data):
            if min(row) < 0:
                raise SchemaError(f"hodge[{k}]", f"expected {row_shape}")
        return BivariatePolynomial(tuple(data))

    def __str__(self) -> str:
        if not self.terms:
            return "0"

        def mono(i: int, j: int, c: int) -> str:
            body = (power("u", i) if i else "") + (power("v", j) if j else "")
            if not body:
                return str(c)
            return body if c == 1 else f"{c}{body}"

        return " + ".join(mono(i, j, c) for i, j, c in self.terms)


# ---------------------------------------------------------------------------
# Normal-form modules
# ---------------------------------------------------------------------------


_MODULE_KEYS = ("free", "antipodal")


_ROW_TEXTS_MAX = 1024


class _RowTexts(dict):
    """Row -> its JSON text ``[a,b,m]``, formatted once per distinct row.

    Cleared before it would hold more than ``_ROW_TEXTS_MAX`` rows.
    """

    __slots__ = ()

    def __missing__(self, row):
        if len(self) >= _ROW_TEXTS_MAX:
            self.clear()
        text = self[row] = "[%d,%d,%d]" % row
        return text


_ROW_TEXTS = _RowTexts()
_row_text = _ROW_TEXTS.__getitem__


@dataclass(frozen=True)
class NormalFormModule:
    """Two multiplicity maps: free summands at (p, q), antipodal at (r, n).

    Entries are stored canonically: sorted lexicographically, strictly
    positive multiplicities, duplicates merged.  Every entry is an ``int``
    (a bool or a float is a :class:`ConstraintViolation`), so the module
    prints exactly as its JSON, and rows equal as keys print the same text
    (:meth:`to_json_text` relies on it).  Equality of modules is equality of
    the maps.

    ``NormalFormModule(...)``, ``make_module`` and every JSON reader check
    and merge their rows; only :meth:`_canonical` skips that, and the walk of
    ``bredon.solver.iter_decompositions`` is its only caller.
    """

    free: tuple[tuple[int, int, int], ...] = ()
    antipodal: tuple[tuple[int, int, int], ...] = ()

    def __post_init__(self):
        for part in ("free", "antipodal"):
            rows = tuple(getattr(self, part))
            for a, b, mult in rows:
                if not (int is type(a) is type(b) is type(mult)):
                    raise ConstraintViolation(
                        f"{part} summand ({a!r}, {b!r}, {mult!r}) has a non-integer entry"
                    )
                if mult <= 0:
                    raise NegativeMultiplicity(
                        f"{part} summand at ({a}, {b}) has multiplicity {mult}"
                    )
            object.__setattr__(self, part, merge_rows(rows))

    # -- construction -------------------------------------------------------

    @classmethod
    def _canonical(cls, free: tuple, antipodal: tuple) -> "NormalFormModule":
        """Wrap rows that are canonical by construction, without the checks.

        The caller guarantees what ``make_module`` would check and make: two
        tuples of ``(int, int, int)`` rows in strictly increasing key order,
        with multiplicities >= 1, within the CW bounds.
        """
        module = object.__new__(cls)
        object.__setattr__(module, "free", free)
        object.__setattr__(module, "antipodal", antipodal)
        return module

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
        """The module as a JSON object, for payloads that embed one."""
        return {
            "free": [[p, q, m] for p, q, m in self.free],
            "antipodal": [[r, n, m] for r, n, m in self.antipodal],
        }

    def to_json_text(self) -> str:
        """``canonical_dumps(self.to_json_dict())``, joined from row texts.

        The one producer of a top-level module line (``solve``, ``show
        --format json``).  Each row's text ``[a,b,m]`` comes from one
        process-wide table that formats a row the first time it is asked
        for and is cleared before it would hold more than 1,024 rows; a
        fiber of ``solve`` holds a few dozen distinct rows, so its lines
        join texts formatted once.  Rows that are equal as keys have the
        same text because every stored entry is an exact ``int``: a bool or
        a float compares equal to an ``int`` but prints otherwise, and
        ``__post_init__`` rejects both (the walk's trusted rows come from
        ``range``).
        """
        return '{"free":[%s],"antipodal":[%s]}' % (
            ",".join(map(_row_text, self.free)),
            ",".join(map(_row_text, self.antipodal)),
        )

    @staticmethod
    def from_json_dict(data) -> "NormalFormModule":
        expect(data, dict, "module", "an object with 'free' and 'antipodal'")
        known_fields(data, _MODULE_KEYS, "module")
        shape, row_shape = "a list of triples", "three integers [a, b, mult]"
        free, antipodal = (
            int_rows(data.get(part, []), f"module.{part}", shape, row_shape)
            for part in _MODULE_KEYS
        )
        return make_module(free, antipodal)

    def summands(self) -> list[str]:
        """Human-readable summand labels in canonical order."""
        return [power(f"M2[{p},{q}]", m) for p, q, m in self.free] + [
            power(f"A{n}[{r}]", m) for r, n, m in self.antipodal
        ]

    def __str__(self) -> str:
        return " + ".join(self.summands()) if not self.is_zero else "0"


def make_module(
    free: Iterable[tuple[int, int, int]] = (),
    antipodal: Iterable[tuple[int, int, int]] = (),
) -> NormalFormModule:
    """Build a module from (p, q, mult) and (r, n, mult) triples.

    Duplicate keys are merged by addition, and the CW bounds p >= q >= 0 and
    r, n >= 0 are checked; ``NormalFormModule(...)`` does not check them.
    """
    module = NormalFormModule(tuple(free), tuple(antipodal))
    for p, q, _ in module.free:
        if not (p >= q >= 0):
            raise ConstraintViolation(f"free summand at ({p}, {q}) violates p >= q >= 0")
    for r, n, _ in module.antipodal:
        if r < 0 or n < 0:
            raise ConstraintViolation(f"antipodal summand at ({r}, {n}) violates r, n >= 0")
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
