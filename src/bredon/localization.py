"""Derived invariants read off a normal form.

Each summand kind has a known image under the standard localizations and
forgetful maps, so every operation here is a per-summand bookkeeping rule:

* inverting rho kills antipodal summands and sends a free summand at (p, q)
  to one fixed-point cohomology class in degree p - q;
* inverting tau (Borel cohomology) sends a free summand at (p, q) to a free
  F2[z] on one generator in degree p (the weight q is forgotten) and an
  antipodal summand at (r, n) to the truncation F2[z]/(z^{n+1}) shifted by r;
* the underlying singular cohomology keeps one trivial line per free
  summand, one regular (swapped-basis) summand per antipodal 0-sphere, and a
  pair of trivial lines in degrees r and r + n for n > 0;
* the forgetful map hits exactly one line per summand, at its shift degree.

Poincare duality for a compact Real n-manifold mirrors the free multiplicity
map through (p, q) <-> (2n - p, n - q) and the antipodal one through
(s, t) <-> (2n - s - t, t); ``pd_symmetric`` and ``real_manifold_validate``
check those symmetries together with the positional bounds they force.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .algebra import (
    GradedDims,
    NormalFormModule,
    UnivariatePolynomial,
    int_rows,
    merge_rows,
    rank_polynomial,
    row_value,
)
from .exceptions import SchemaError

__all__ = [
    "C2GradedSpace",
    "BorelModule",
    "HomologyModule",
    "PdViolation",
    "PdReport",
    "ValidationFailure",
    "ValidationReport",
    "rho_localize",
    "fixed_poincare_polynomial",
    "tau_localize",
    "underlying_singular",
    "forgetful_image_dims",
    "homology_dual",
    "pd_symmetric",
    "real_manifold_validate",
]


# ---------------------------------------------------------------------------
# Result types
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class C2GradedSpace:
    """A graded F2-space with involution: trivial lines and regular summands.

    The involution fixes each trivial line pointwise and swaps the basis of
    each regular summand, so the dimension in degree d is
    trivial(d) + 2 * regular(d) and the fixed subspace has dimension
    trivial(d) + regular(d).
    """

    trivial: tuple[tuple[int, int], ...] = ()
    regular: tuple[tuple[int, int], ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "trivial", merge_rows(self.trivial, 2))
        object.__setattr__(self, "regular", merge_rows(self.regular, 2))

    def trivial_count(self, degree: int) -> int:
        return row_value(self.trivial, (degree,))

    def regular_count(self, degree: int) -> int:
        return row_value(self.regular, (degree,))

    def dimension(self, degree: int) -> int:
        return self.trivial_count(degree) + 2 * self.regular_count(degree)

    def dims(self) -> GradedDims:
        return GradedDims(self.trivial + tuple((d, 2 * c) for d, c in self.regular))

    def fixed_dims(self) -> GradedDims:
        """Dimensions of the involution-fixed subspace, degree by degree."""
        return GradedDims(self.trivial + self.regular)

    def total_dimension(self) -> int:
        return self.dims().total()

    def shift(self, offset: int) -> "C2GradedSpace":
        return C2GradedSpace(
            tuple((d + offset, c) for d, c in self.trivial),
            tuple((d + offset, c) for d, c in self.regular),
        )

    def to_json_dict(self) -> dict:
        return {
            "trivial": [[d, c] for d, c in self.trivial],
            "regular": [[d, c] for d, c in self.regular],
        }


@dataclass(frozen=True)
class BorelModule:
    """An F2[z]-module in normal form: free shifts plus shifted truncations.

    ``free`` counts copies of F2[z] on a generator in degree p; ``torsion``
    counts copies of F2[z]/(z^{n+1}) on a generator in degree r.
    """

    free: tuple[tuple[int, int], ...] = ()
    torsion: tuple[tuple[int, int, int], ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "free", merge_rows(self.free, 2))
        object.__setattr__(self, "torsion", merge_rows(self.torsion, 3))

    @property
    def torsion_orders(self) -> tuple[int, ...]:
        return tuple(n for _, n, _ in self.torsion)

    def shift(self, offset: int) -> "BorelModule":
        return BorelModule(
            tuple((p + offset, c) for p, c in self.free),
            tuple((r + offset, n, c) for r, n, c in self.torsion),
        )

    def to_json_dict(self) -> dict:
        return {
            "free": [[p, c] for p, c in self.free],
            "torsion": [[r, n, c] for r, n, c in self.torsion],
        }

    @staticmethod
    def from_json_dict(data, field_name: str = "borel") -> "BorelModule":
        if not isinstance(data, dict):
            raise SchemaError(field_name, "expected an object with 'free' and 'torsion'")
        free, torsion = (
            int_rows(
                data.get(name, []), w, f"{field_name}.{name}", "a list", f"{w} integers"
            )
            for name, w in (("free", 2), ("torsion", 3))
        )
        return BorelModule(tuple(free), tuple(torsion))

    def summands(self) -> list[str]:
        out = []
        for p, c in self.free:
            label = f"F2[z]({p})"
            out.append(label if c == 1 else f"{label}^{c}")
        for r, n, c in self.torsion:
            label = f"F2[z]/z^{n + 1}({r})"
            out.append(label if c == 1 else f"{label}^{c}")
        return out

    def __str__(self) -> str:
        return " + ".join(self.summands()) if (self.free or self.torsion) else "0"


@dataclass(frozen=True)
class HomologyModule:
    """A normal form read with the opposite (homological) grading.

    Keys mean the duals of the cohomological summands: a free key (p, q) is
    the opposite-graded free summand shifted by (p, q) and an antipodal key
    (s, t) is the opposite-graded t-sphere summand shifted by (s, 0).
    """

    free: tuple[tuple[int, int, int], ...] = ()
    antipodal: tuple[tuple[int, int, int], ...] = ()
    opposite_grading: bool = True

    def __post_init__(self):
        object.__setattr__(self, "free", merge_rows(self.free, 3))
        object.__setattr__(self, "antipodal", merge_rows(self.antipodal, 3))


@dataclass(frozen=True)
class PdViolation:
    """One multiplicity that disagrees with its Poincare mirror."""

    part: str  # "free" | "antipodal"
    key: tuple[int, int]
    mirror: tuple[int, int]
    count: int
    mirror_count: int

    def to_json_dict(self) -> dict:
        return {
            "part": self.part,
            "key": list(self.key),
            "mirror": list(self.mirror),
            "count": self.count,
            "mirror_count": self.mirror_count,
        }


@dataclass(frozen=True)
class PdReport:
    holds: bool
    violations: tuple[PdViolation, ...] = ()

    def to_json_dict(self) -> dict:
        return {
            "holds": self.holds,
            "violations": [v.to_json_dict() for v in self.violations],
        }


@dataclass(frozen=True)
class ValidationFailure:
    condition: str
    keys: tuple[tuple[int, int], ...] = ()
    detail: str = ""

    def to_json_dict(self) -> dict:
        return {
            "condition": self.condition,
            "keys": [list(k) for k in self.keys],
            "detail": self.detail,
        }


@dataclass(frozen=True)
class ValidationReport:
    passed: bool
    failures: tuple[ValidationFailure, ...] = ()
    pd: PdReport = field(default_factory=lambda: PdReport(True))

    def to_json_dict(self) -> dict:
        return {
            "passed": self.passed,
            "failures": [f.to_json_dict() for f in self.failures],
            "pd": self.pd.to_json_dict(),
        }


# ---------------------------------------------------------------------------
# Operations
# ---------------------------------------------------------------------------


def rho_localize(module: NormalFormModule) -> GradedDims:
    """Betti numbers of the fixed locus: count free summands by p - q.

    Antipodal summands are rho-torsion and contribute nothing.
    """
    return GradedDims(tuple((p - q, m) for p, q, m in module.free))


def fixed_poincare_polynomial(module: NormalFormModule) -> UnivariatePolynomial:
    """Fixed-locus Poincare polynomial via the substitution u -> t, v -> 1/t.

    This is deliberately computed through the rank polynomial rather than by
    direct counting, so that it can be cross-checked against
    :func:`rho_localize`.
    """
    return rank_polynomial(module).substitute_powers(1, -1)


def tau_localize(module: NormalFormModule) -> BorelModule:
    """Borel cohomology as an F2[z]-module; the weight of free keys is lost."""
    return BorelModule(
        tuple((p, m) for p, _, m in module.free),
        tuple(module.antipodal),
    )


def underlying_singular(module: NormalFormModule) -> C2GradedSpace:
    """Underlying singular cohomology with its involution."""
    trivial = [(p, m) for p, _, m in module.free]
    regular = []
    for r, n, m in module.antipodal:
        if n == 0:
            regular.append((r, m))
        else:
            trivial.append((r, m))
            trivial.append((r + n, m))
    return C2GradedSpace(tuple(trivial), tuple(regular))


def forgetful_image_dims(module: NormalFormModule) -> GradedDims:
    """Dimensions of the image of restriction to singular cohomology.

    Every summand contributes a single line concentrated at its shift
    degree; for a free orbit this line is the diagonal of the regular
    summand.
    """
    return GradedDims(
        tuple((p, m) for p, _, m in module.free)
        + tuple((r, m) for r, _, m in module.antipodal)
    )


def homology_dual(module: NormalFormModule) -> HomologyModule:
    """The homology normal form: free keys persist, antipodal keys shift.

    The dual of the n-sphere summand is the opposite-graded summand shifted
    by (n, 0), so key (r, n) becomes (r + n, n).
    """
    return HomologyModule(
        module.free,
        tuple((r + n, n, m) for r, n, m in module.antipodal),
    )


def pd_symmetric(module: NormalFormModule, dimension: int) -> PdReport:
    """Check the duality mirror symmetries of both multiplicity maps.

    A key whose mirrored multiplicity differs is reported once, from the
    side where the key is actually present.
    """
    violations = []
    free = module.free_map()
    for p, q, count in module.free:
        mirror = (2 * dimension - p, dimension - q)
        other = free.get(mirror, 0)
        if other != count:
            violations.append(PdViolation("free", (p, q), mirror, count, other))
    anti = module.antipodal_map()
    for s, t, count in module.antipodal:
        mirror = (2 * dimension - s - t, t)
        other = anti.get(mirror, 0)
        if other != count:
            violations.append(PdViolation("antipodal", (s, t), mirror, count, other))
    return PdReport(not violations, tuple(violations))


def real_manifold_validate(
    module: NormalFormModule,
    dimension: int,
    has_fixed_point: bool,
    connected: bool,
) -> ValidationReport:
    """All restrictions satisfied by a compact Real manifold of that dimension.

    Violations are collected exhaustively (one entry per failed condition,
    listing every offending key) rather than failing fast, so a single pass
    can drive both user-facing validation and search pruning.
    """
    n = dimension
    failures: list[ValidationFailure] = []

    bad = tuple((p, q) for p, q, _ in module.free if q > n)
    if bad:
        failures.append(
            ValidationFailure("free_weight_bound", bad, f"requires q <= {n}")
        )

    bad = tuple((r, t) for r, t, _ in module.antipodal if r + t > 2 * n)
    if bad:
        failures.append(
            ValidationFailure("antipodal_span_bound", bad, f"requires r + n <= {2 * n}")
        )

    if has_fixed_point:
        bad = tuple((r, t) for r, t, _ in module.antipodal if r <= 0)
        if bad:
            failures.append(
                ValidationFailure(
                    "antipodal_positive_shift", bad, "fixed point forces r > 0"
                )
            )
        bad = tuple((r, t) for r, t, _ in module.antipodal if r + t >= 2 * n)
        if bad:
            failures.append(
                ValidationFailure(
                    "antipodal_span_strict", bad, f"fixed point forces r + n < {2 * n}"
                )
            )
        if connected and (units := module.free_rank(0, 0)) != 1:
            failures.append(
                ValidationFailure(
                    "unit_rank",
                    ((0, 0),),
                    f"connected with a fixed point forces one free summand at "
                    f"(0, 0), found {units}",
                )
            )

    if connected:
        # underlying_singular(module).dimension(0): lines at p, and at r and r + n.
        b0 = sum(m for p, _, m in module.free if p == 0) + sum(
            m * ((r == 0) + (r + t == 0)) for r, t, m in module.antipodal
        )
        if b0 != 1:
            failures.append(
                ValidationFailure(
                    "connected_b0", (), f"degree-0 singular dimension is {b0}, not 1"
                )
            )

    pd = pd_symmetric(module, n)
    if not pd.holds:
        failures.append(
            ValidationFailure(
                "pd_symmetry",
                tuple(v.key for v in pd.violations),
                "multiplicity maps are not mirror-symmetric",
            )
        )

    return ValidationReport(not failures, tuple(failures), pd)
