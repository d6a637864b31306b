"""Maximal / Galois-Maximal classification and the associated ledgers.

A space is Maximal when the total Betti number of the fixed locus equals the
total Betti number of the ambient space, and Galois-Maximal when it equals
the total dimension of first group cohomology of the involution action.  On
normal forms both conditions reduce to the shape of the antipodal part:
Maximal means no antipodal summands at all, Galois-Maximal means only
0-sphere (free orbit) summands.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .algebra import BivariatePolynomial, GradedDims, NormalFormModule
from .exceptions import InternalInconsistency, TorsionUnknown
from .localization import BorelModule, C2GradedSpace, fixed_poincare_polynomial

__all__ = [
    "MaximalityClass",
    "SmithThomReport",
    "classify",
    "smith_thom_report",
    "group_cohomology_dims",
    "borel_classify",
    "hodge_expressive_check",
    "hodge_birank_check",
]


class MaximalityClass(Enum):
    """The trichotomy; the enum value doubles as the JSON code."""

    MAXIMAL = "M"
    GALOIS_MAXIMAL_ONLY = "GM"
    NEITHER = "NEITHER"

    @property
    def is_galois_maximal(self) -> bool:
        """Maximal spaces are in particular Galois-Maximal."""
        return self is not MaximalityClass.NEITHER


@dataclass(frozen=True)
class SmithThomReport:
    """The three totals of the Smith--Thom chain plus the resulting class."""

    fixed_total: int
    group_cohomology_total: int
    singular_total: int
    klass: MaximalityClass

    def to_json_dict(self) -> dict:
        return {
            "fixed": self.fixed_total,
            "group_cohomology": self.group_cohomology_total,
            "singular": self.singular_total,
            "class": self.klass.value,
        }


def classify(module: NormalFormModule) -> MaximalityClass:
    """Read the class off the antipodal multiplicity map."""
    if module.total_antipodal == 0:
        return MaximalityClass.MAXIMAL
    if module.total_a_plus == 0:
        return MaximalityClass.GALOIS_MAXIMAL_ONLY
    return MaximalityClass.NEITHER


def smith_thom_report(module: NormalFormModule) -> SmithThomReport:
    """Totals ledger: fixed = |I|, group cohomology = |I| + 2|J+|,
    singular = |I| + 2|J0| + 2|J+|.

    The class recomputed from the totals must agree with
    :func:`classify`; a mismatch raises and indicates a bug.
    """
    fixed = module.total_free
    group = fixed + 2 * module.total_a_plus
    singular = fixed + 2 * module.total_a0 + 2 * module.total_a_plus

    if fixed == singular:
        by_totals = MaximalityClass.MAXIMAL
    elif fixed == group:
        by_totals = MaximalityClass.GALOIS_MAXIMAL_ONLY
    else:
        by_totals = MaximalityClass.NEITHER

    direct = classify(module)
    if by_totals is not direct:
        raise InternalInconsistency(
            f"totals give {by_totals.value} but the antipodal shape gives {direct.value}"
        )
    return SmithThomReport(fixed, group, singular, direct)


def group_cohomology_dims(space: C2GradedSpace) -> GradedDims:
    """Dimensions of H^1 of the involution acting on each graded piece.

    Trivial lines contribute one dimension each; regular summands have no
    higher cohomology and contribute nothing.
    """
    return GradedDims(space.trivial)


def borel_classify(borel: BorelModule) -> MaximalityClass:
    """The same trichotomy read off the F2[z]-module normal form."""
    if not borel.torsion:
        return MaximalityClass.MAXIMAL
    if all(n == 0 for n in borel.torsion_orders):
        return MaximalityClass.GALOIS_MAXIMAL_ONLY
    return MaximalityClass.NEITHER


def hodge_expressive_check(
    module: NormalFormModule,
    hodge: BivariatePolynomial,
    torsion_free: bool | None,
) -> bool:
    """Whether the fixed-locus Poincare polynomial equals H(t, 1).

    Torsion-freeness of the integral cohomology cannot be detected from
    mod-2 data, so the caller must assert it explicitly.
    """
    if torsion_free is None:
        raise TorsionUnknown("torsion_free must be asserted by the caller")
    if not torsion_free:
        return False
    return hodge.substitute_powers(1, 0) == fixed_poincare_polynomial(module)


def hodge_birank_check(module: NormalFormModule, hodge: BivariatePolynomial) -> bool:
    """Whether the free rank at (p + q, q) matches the Hodge number at (p, q).

    This refines :func:`hodge_expressive_check`: summing over a row recovers
    the polynomial identity.
    """
    ranks = module.free_map()
    hodge_coeffs = hodge.coefficients()
    keys = {(p - q, q) for (p, q) in ranks} | set(hodge_coeffs)
    for p, q in keys:
        if p < 0 or q < 0:
            return False
        if ranks.get((p + q, q), 0) != hodge_coeffs.get((p, q), 0):
            return False
    return True
