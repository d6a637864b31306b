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
  pair of trivial lines in degrees r and r + n for n > 0; ``singular_betti``
  reads its Betti numbers, ``underlying_singular(m).dims()``, directly off
  the summands;
* the forgetful map hits exactly one line per summand, at its shift degree.

``singular_betti``, ``rho_localize`` and ``forgetful_image_dims`` sum their
lines degree by degree in one pass and hand the sums to ``_dims_of_sums``,
which wraps them without a second canonicalisation: sums of a validated
module's multiplicities under distinct degrees are canonical by
construction.

Poincare duality for a compact Real n-manifold mirrors the free multiplicity
map through (p, q) <-> (2n - p, n - q) and the antipodal one through
(s, t) <-> (2n - s - t, t); ``pd_symmetric`` and ``real_manifold_validate``
check those symmetries together with the positional bounds they force.
Each restriction is stated once, in the generator ``_manifold_failures``,
which reads each part once (one loop over the free rows and one over the
antipodal rows give every bound list, the unit rank and the degree-0
singular dimension) and yields the failures lazily in report order.  It has
two forms: ``real_manifold_validate``, behind ``bredon validate``, collects
every failure into its report, and the solver's re-check,
``_manifold_holds``, stops at the first failure and builds no report
objects.  The solver's plan reads its key box off the same generator, as
the positional failures of each orbit's one-copy module.
``pd_symmetric``, behind ``bredon pd-check``, reports every
mirror violation; it and both forms read the violations off
``_mirror_violations``.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass

from .algebra import (
    GradedDims,
    NormalFormModule,
    UnivariatePolynomial,
    clean_rows,
    power,
    rank_polynomial,
    row_value,
)

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
    "singular_betti",
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
        object.__setattr__(self, "trivial", clean_rows(self.trivial, 2, "count"))
        object.__setattr__(self, "regular", clean_rows(self.regular, 2, "count"))

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
        object.__setattr__(self, "free", clean_rows(self.free, 2, "count"))
        object.__setattr__(self, "torsion", clean_rows(self.torsion, 3, "count"))

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

    def summands(self) -> list[str]:
        return [power(f"F2[z]({p})", c) for p, c in self.free] + [
            power(f"F2[z]/z^{n + 1}({r})", c) for r, n, c in self.torsion
        ]

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
    opposite_grading = True  # a class constant, not a field

    def __post_init__(self):
        object.__setattr__(self, "free", clean_rows(self.free, 3, "multiplicity"))
        object.__setattr__(self, "antipodal", clean_rows(self.antipodal, 3, "multiplicity"))


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
    violations: tuple[PdViolation, ...] = ()

    @property
    def holds(self) -> bool:
        return not self.violations

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
    failures: tuple[ValidationFailure, ...]
    pd: PdReport

    @property
    def passed(self) -> bool:
        return not self.failures

    def to_json_dict(self) -> dict:
        return {
            "passed": self.passed,
            "failures": [f.to_json_dict() for f in self.failures],
            "pd": self.pd.to_json_dict(),
        }


# ---------------------------------------------------------------------------
# Operations
# ---------------------------------------------------------------------------


def _dims_of_sums(sums: dict[int, int]) -> GradedDims:
    """The ``GradedDims`` of a one-pass sum, degree -> total, over the rows of
    a module: the one place that skips ``clean_rows``.

    Such rows are canonical by construction: the degrees are ``int`` entries
    of a validated ``NormalFormModule`` (or sums of two), each total adds up
    positive multiplicities, and the dict keys are distinct, so the sorted
    items are strictly increasing.  ``GradedDims(...)``, ``from_list`` and
    the JSON readers still go through ``clean_rows``.
    """
    return GradedDims._canonical(tuple(sorted(sums.items())))


def rho_localize(module: NormalFormModule) -> GradedDims:
    """Betti numbers of the fixed locus: count free summands by p - q.

    Antipodal summands are rho-torsion and contribute nothing.
    """
    sums: dict[int, int] = {}
    get = sums.get
    for p, q, m in module.free:
        sums[p - q] = get(p - q, 0) + m
    return _dims_of_sums(sums)


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


def singular_betti(module: NormalFormModule) -> GradedDims:
    """Betti numbers of the underlying singular cohomology.

    Equal to ``underlying_singular(module).dims()``: a free summand at
    (p, q) gives a line in degree p, an antipodal 0-sphere at r a regular
    summand (two lines) in degree r, and an antipodal n-sphere at r, n > 0,
    a line in degree r and one in degree r + n.  The lines are summed degree
    by degree in one pass, and the sums, canonical by construction, become
    a ``GradedDims`` without a second canonicalisation (``_dims_of_sums``).
    """
    sums: dict[int, int] = {}
    get = sums.get
    for p, _, m in module.free:
        sums[p] = get(p, 0) + m
    for r, n, m in module.antipodal:
        if n:
            sums[r] = get(r, 0) + m
            sums[r + n] = get(r + n, 0) + m
        else:
            sums[r] = get(r, 0) + 2 * m
    return _dims_of_sums(sums)


def forgetful_image_dims(module: NormalFormModule) -> GradedDims:
    """Dimensions of the image of restriction to singular cohomology.

    Every summand contributes a single line concentrated at its shift
    degree; for a free orbit this line is the diagonal of the regular
    summand.
    """
    sums: dict[int, int] = {}
    get = sums.get
    for p, _, m in module.free:
        sums[p] = get(p, 0) + m
    for r, _, m in module.antipodal:
        sums[r] = get(r, 0) + m
    return _dims_of_sums(sums)


def homology_dual(module: NormalFormModule) -> HomologyModule:
    """The homology normal form: free keys persist, antipodal keys shift.

    The dual of the n-sphere summand is the opposite-graded summand shifted
    by (n, 0), so key (r, n) becomes (r + n, n).
    """
    return HomologyModule(
        module.free,
        tuple((r + n, n, m) for r, n, m in module.antipodal),
    )


def _mirror_violations(
    module: NormalFormModule, n: int
) -> list[tuple[str, tuple[int, int], tuple[int, int], int, int]]:
    """Each key whose multiplicity differs from its Poincare mirror's, as
    ``(part, key, mirror, count, mirror_count)``; empty when both maps are
    mirror-symmetric.

    A key is listed once, from the side where it is actually present.  The
    free mirror (p, q) -> (2n - p, n - q) reverses the canonical order, so a
    symmetric free part equals its mirrored rows read backwards; the
    antipodal mirror does not, so its mirrored rows are sorted.  The
    multiplicity maps are built only for a part that differs from its
    mirror.
    """
    violations = []
    free = module.free
    if free != tuple([(2 * n - p, n - q, m) for p, q, m in reversed(free)]):
        counts = module.free_map()
        for p, q, count in free:
            mirror = (2 * n - p, n - q)
            other = counts.get(mirror, 0)
            if other != count:
                violations.append(("free", (p, q), mirror, count, other))
    anti = module.antipodal
    if anti != tuple(sorted([(2 * n - s - t, t, m) for s, t, m in anti])):
        counts = module.antipodal_map()
        for s, t, count in anti:
            mirror = (2 * n - s - t, t)
            other = counts.get(mirror, 0)
            if other != count:
                violations.append(("antipodal", (s, t), mirror, count, other))
    return violations


def pd_symmetric(module: NormalFormModule, dimension: int) -> PdReport:
    """Check the duality mirror symmetries of both multiplicity maps.

    A key whose mirrored multiplicity differs is reported once, from the
    side where the key is actually present: free keys first, then
    antipodal keys, each part in canonical order.
    """
    return PdReport(tuple([PdViolation(*v) for v in _mirror_violations(module, dimension)]))


def _manifold_failures(
    module: NormalFormModule,
    n: int,
    has_fixed_point: bool,
    connected: bool,
) -> Iterator[tuple[str, tuple[tuple[int, int], ...], str]]:
    """Yield ``(condition, keys, detail)`` for each failed restriction on a
    compact Real n-manifold, in report order; the one statement of them.

    The generator is lazy: a caller that stops at the first failure skips
    the later conditions, the mirror violations, read last, among them.
    """
    top = 2 * n

    # One pass over the free rows: the weight-bound list, the unit rank at
    # (0, 0), and their lines in degree 0 of underlying_singular (one per
    # row at p = 0).
    bad = []
    b0 = units = 0
    for p, q, m in module.free:
        if q > n:
            bad.append((p, q))
        if p == 0:
            b0 += m
            if q == 0:
                units = m
    if bad:
        yield "free_weight_bound", tuple(bad), f"requires q <= {n}"

    # One pass over the antipodal rows: the three bound lists, and their
    # lines in degree 0 of underlying_singular (at r and at r + n; keys
    # outside the CW box can put either there).
    span, shift, strict = [], [], []
    for r, t, m in module.antipodal:
        end = r + t
        if end >= top:
            strict.append((r, t))
            if end > top:
                span.append((r, t))
        if r <= 0:
            shift.append((r, t))
            if r == 0:
                b0 += m
        if end == 0:
            b0 += m
    if span:
        yield "antipodal_span_bound", tuple(span), f"requires r + n <= {top}"

    if has_fixed_point:
        if shift:
            yield "antipodal_positive_shift", tuple(shift), "fixed point forces r > 0"
        if strict:
            yield "antipodal_span_strict", tuple(strict), f"fixed point forces r + n < {top}"
        if connected and units != 1:
            yield (
                "unit_rank",
                ((0, 0),),
                f"connected with a fixed point forces one free summand at "
                f"(0, 0), found {units}",
            )

    # b0 is underlying_singular(module).dimension(0)
    if connected and b0 != 1:
        yield "connected_b0", (), f"degree-0 singular dimension is {b0}, not 1"

    mirror_keys = tuple([v[1] for v in _mirror_violations(module, n)])
    if mirror_keys:
        yield "pd_symmetry", mirror_keys, "multiplicity maps are not mirror-symmetric"


def real_manifold_validate(
    module: NormalFormModule,
    dimension: int,
    has_fixed_point: bool,
    connected: bool,
) -> ValidationReport:
    """All restrictions satisfied by a compact Real manifold of that dimension.

    The exhaustive form, behind ``bredon validate``: every failed condition
    is collected, one entry each listing every offending key, together with
    the ``pd_symmetric`` report.  The solver's re-check uses the fail-fast
    form of the same conditions, ``_manifold_holds``, which builds no
    report objects.
    """
    pd = pd_symmetric(module, dimension)
    failures = _manifold_failures(module, dimension, has_fixed_point, connected)
    return ValidationReport(tuple([ValidationFailure(*f) for f in failures]), pd)


def _manifold_holds(
    module: NormalFormModule,
    dimension: int,
    has_fixed_point: bool,
    connected: bool,
) -> bool:
    """``real_manifold_validate(...).passed``, failing fast: it stops at the
    first failed condition of ``_manifold_failures`` and builds no report
    objects.  The solver's re-check uses it."""
    for _ in _manifold_failures(module, dimension, has_fixed_point, connected):
        return False
    return True
