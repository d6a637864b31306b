"""Exhaustive search for normal forms matching topological constraints.

Given Betti numbers of a space (and optionally of its fixed locus), plus
duality and surjectivity hypotheses, :func:`enumerate_decompositions` lists
every normal form consistent with the data.  Each summand uses units of the
singular Betti numbers: a free summand at (p, q) one unit in degree p (and
one fixed-locus unit in degree p - q), an antipodal 0-sphere at shift r two
units in degree r, a positive antipodal n-sphere one unit in degree r and
one in degree r + n.

**Orbit charging.**  Under Poincare duality the multiplicity maps are
mirror-symmetric, so the search picks a multiplicity for one representative
per mirror orbit, the least key of ``{key, mirror}``, and charges every unit
of the whole orbit at once; without duality every orbit is a single key.
Every orbit's units lie at or above its representative's degree, so the
search walks degrees 0..n under duality and 0..2n otherwise.  At each degree
the units still left there must be used up exactly, and the units charged
to higher degrees and to the fixed locus must stay within their budgets.
Keys the forgetful or class rules forbid are never offered.  A budget that
no later orbit can charge must already be spent.

**Memoized state DAG.**  Every exact-sum budget is one entry of a single
list: the singular Betti numbers of degrees 0..2n, then, when given, the
fixed-locus ones (fixed degree f at index 2n + 1 + f).  What can still
happen after degree d depends only on the key ``(d, budgets from index d
on)``.  Each key is expanded once; the memo keeps, per key, the choices at
its degree that lead to a completion, with the key they lead to, and drops
dead keys.  The modules are then read off the paths of that DAG.

**Exact-sum pruning.**  Within a degree, a bitset per orbit slot holds the
unit counts the later slots can absorb under upper-bound caps, and a
multiplicity is tried only when the rest can be absorbed.

Every module the search produces is re-checked through the public
localization and classification operations before it is returned, so the
output is sound by construction and the pruning only affects speed.  The
search is single-threaded; output is canonically sorted so it does not
depend on exploration order.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import lru_cache

from .algebra import GradedDims, NormalFormModule, make_module
from .classification import MaximalityClass, classify
from .exceptions import ConstraintViolation, InfeasibleBounds, SchemaError
from .localization import (
    forgetful_image_dims,
    real_manifold_validate,
    rho_localize,
    singular_betti,
)

__all__ = [
    "ConstraintSet",
    "MaximalityPrediction",
    "enumerate_decompositions",
    "satisfies_constraints",
    "krasnov_predict",
    "threefold_predict",
]


_CONSTRAINT_KEYS = ("n", "betti_total", "betti_fixed", "has_fixed_point", "connected",
                    "poincare_dual", "forgetful_onto_degrees", "class_filter")
_KIND_NAMES = {int: "a nonnegative integer", bool: "a boolean", list: "a list", str: "a string"}


@dataclass(frozen=True)
class ConstraintSet:
    """Topological data driving the decomposition search.

    ``betti_total`` are the mod-2 Betti numbers of the ambient space,
    supported in degrees 0..2n; ``betti_fixed``, when given, those of the
    fixed locus.  ``poincare_dual`` asserts the compact-Real-manifold mirror
    symmetries; ``forgetful_onto_degrees`` lists degrees where restriction
    to singular cohomology must be surjective.
    """

    dimension: int
    betti_total: GradedDims
    betti_fixed: GradedDims | None = None
    has_fixed_point: bool = False
    connected: bool = False
    poincare_dual: bool = False
    forgetful_onto_degrees: frozenset[int] | None = None
    class_filter: MaximalityClass | None = None

    def __post_init__(self):
        if self.dimension < 0:
            raise ConstraintViolation("dimension must be nonnegative")
        if self.forgetful_onto_degrees is not None:
            object.__setattr__(
                self, "forgetful_onto_degrees", frozenset(self.forgetful_onto_degrees)
            )
        if self.connected and self.betti_total.get(0) != 1:
            raise ConstraintViolation(
                "a connected space has degree-0 Betti number 1, got "
                f"{self.betti_total.get(0)}"
            )
        if (
            self.has_fixed_point
            and self.betti_fixed is not None
            and self.betti_fixed.total() == 0
        ):
            raise ConstraintViolation(
                "a nonempty fixed locus has positive total Betti number"
            )

    def to_json_dict(self) -> dict:
        top = max([2 * self.dimension] + list(self.betti_total.support()))
        fixed = None
        if self.betti_fixed is not None:
            upper = max([self.dimension] + list(self.betti_fixed.support()))
            fixed = self.betti_fixed.to_list(upper)
        return {
            "n": self.dimension,
            "betti_total": self.betti_total.to_list(top),
            "betti_fixed": fixed,
            "has_fixed_point": self.has_fixed_point,
            "connected": self.connected,
            "poincare_dual": self.poincare_dual,
            "forgetful_onto_degrees": (
                sorted(self.forgetful_onto_degrees)
                if self.forgetful_onto_degrees is not None
                else None
            ),
            "class_filter": self.class_filter.value if self.class_filter else None,
        }

    @staticmethod
    def from_json_dict(data, field: str = "constraints") -> "ConstraintSet":
        if not isinstance(data, dict):
            raise SchemaError(field, "expected an object")
        for key in data:
            if key not in _CONSTRAINT_KEYS:
                raise SchemaError(f"{field}.{key}", "unknown field")

        def require(key, kind, allow_none=False):
            if key not in data:
                if allow_none:
                    return None
                raise SchemaError(f"{field}.{key}", "missing required field")
            value = data[key]
            if value is None and allow_none:
                return None
            if not isinstance(value, kind) or kind is int and isinstance(value, bool):
                raise SchemaError(f"{field}.{key}", f"expected {_KIND_NAMES[kind]}")
            return value

        n = require("n", int)
        if n < 0:
            raise SchemaError(f"{field}.n", "expected a nonnegative integer")

        def betti_list(key, allow_none):
            value = require(key, list, allow_none=allow_none)
            if value is None:
                return None
            for i, entry in enumerate(value):
                if not isinstance(entry, int) or isinstance(entry, bool) or entry < 0:
                    raise SchemaError(f"{field}.{key}[{i}]", "expected a nonnegative integer")
            return GradedDims.from_list(value)

        total = betti_list("betti_total", allow_none=False)
        fixed = betti_list("betti_fixed", allow_none=True)

        def flag(key):
            return bool(require(key, bool, allow_none=True))

        forgetful = require("forgetful_onto_degrees", list, allow_none=True)
        if forgetful is not None:
            for i, entry in enumerate(forgetful):
                if not isinstance(entry, int) or isinstance(entry, bool):
                    raise SchemaError(
                        f"{field}.forgetful_onto_degrees[{i}]", "expected an integer"
                    )
            forgetful = frozenset(forgetful)

        class_code = require("class_filter", str, allow_none=True)
        try:
            class_filter = None if class_code is None else MaximalityClass.from_code(class_code)
        except SchemaError:
            raise SchemaError(f"{field}.class_filter", f"unknown class code {class_code!r}")

        return ConstraintSet(
            dimension=n,
            betti_total=total,
            betti_fixed=fixed,
            has_fixed_point=flag("has_fixed_point"),
            connected=flag("connected"),
            poincare_dual=flag("poincare_dual"),
            forgetful_onto_degrees=forgetful,
            class_filter=class_filter,
        )


def satisfies_constraints(cs: ConstraintSet, module: NormalFormModule) -> bool:
    """Re-check a module against every constraint via the public operations."""
    n = cs.dimension
    if singular_betti(module) != cs.betti_total:
        return False
    if cs.betti_fixed is not None and rho_localize(module) != cs.betti_fixed:
        return False
    if cs.poincare_dual:
        report = real_manifold_validate(module, n, cs.has_fixed_point, cs.connected)
        if not report.passed:
            return False
    if cs.forgetful_onto_degrees:
        image = forgetful_image_dims(module)
        for degree in cs.forgetful_onto_degrees:
            if image.get(degree) != cs.betti_total.get(degree):
                return False
    if cs.class_filter is not None and classify(module) is not cs.class_filter:
        return False
    return True


def enumerate_decompositions(cs: ConstraintSet) -> list[NormalFormModule]:
    """All normal forms consistent with the constraints, canonically sorted.

    Raises :class:`InfeasibleBounds` when ``betti_total`` is supported
    outside degrees 0..2n.  An empty list is a legitimate answer.
    """
    n = cs.dimension
    top = 2 * n
    for d, v in cs.betti_total.items():
        if d < 0 or d > top:
            raise InfeasibleBounds(
                f"betti_total has dimension {v} in degree {d}, outside [0, {top}]"
            )

    budget = cs.betti_total.to_list(top)
    if cs.betti_fixed is not None:
        if any(d < 0 or d > top for d in cs.betti_fixed.support()):
            return []  # no key in the box reaches those fixed degrees
        budget += cs.betti_fixed.to_list(top)

    table, closed = _search_plan(
        n, cs.poincare_dual, cs.has_fixed_point, cs.betti_fixed is not None,
        cs.forgetful_onto_degrees or frozenset(), cs.class_filter,
    )

    last = len(table) - 1
    # state key -> edges (free segment, antipodal segment, child key) that
    # lead to a completion; a dead state maps to [], the leaf's edge to None
    memo: dict[tuple, list] = {}

    def cap_of(slot, r):
        cost, charges, _, _ = slot
        cap = r // cost
        for e, k in charges:
            cap = min(cap, budget[e] // k)
        return cap

    def charge(slot, c):
        for e, k in slot[1]:
            budget[e] -= c * k

    def build(d):
        if any(budget[e] for e in closed[d]):
            return []
        if d > last:
            return [((), (), None)]
        total = budget[d]
        # slots that can take a copy, and reach[i]: the bitset of the sums
        # slots i.. can absorb under today's caps
        slots = [slot for slot in table[d] if cap_of(slot, total)]
        reach = [0] * len(slots) + [1]
        mask = (1 << (total + 1)) - 1
        for i in range(len(slots) - 1, -1, -1):
            cost, bits = slots[i][0], 0
            for c in range(cap_of(slots[i], total) + 1):
                bits |= reach[i + 1] << (c * cost)
            reach[i] = bits & mask
        edges: list = []
        if not reach[0] >> total & 1:
            return edges
        free_seg: list = []
        anti_seg: list = []

        def fill(i, r):
            if i == len(slots):
                child = (d + 1, tuple(budget[d + 1:]))
                alive = memo.get(child)
                if alive is None:
                    alive = memo[child] = build(d + 1)
                if alive:
                    edges.append((tuple(free_seg), tuple(anti_seg), child))
                return
            slot = slots[i]
            cost, _, free_keys, anti_keys = slot
            below = reach[i + 1]
            for c in range(cap_of(slot, r) + 1):
                rest = r - c * cost
                if not below >> rest & 1:
                    continue
                if c:
                    charge(slot, c)
                    free_seg.extend((p, q, c) for p, q in free_keys)
                    anti_seg.extend((s, t, c) for s, t in anti_keys)
                fill(i + 1, rest)
                if c:
                    charge(slot, -c)
                    del free_seg[len(free_seg) - len(free_keys):]
                    del anti_seg[len(anti_seg) - len(anti_keys):]

        fill(0, total)
        return edges

    root = (0, tuple(budget))
    memo[root] = build(0)
    results: list[NormalFormModule] = []

    def walk(key, free, anti):
        for free_seg, anti_seg, child in memo[key]:
            if child is not None:
                walk(child, free + free_seg, anti + anti_seg)
                continue
            module = make_module(free, anti)
            if satisfies_constraints(cs, module):
                results.append(module)

    walk(root, (), ())
    results.sort(key=lambda m: m.sort_key())
    return results


@lru_cache(maxsize=64)
def _search_plan(n, poincare_dual, has_fixed_point, fixed_given, forgetful, klass):
    """The orbit slots per degree, and the budgets closed at each degree.

    Budget indices are those of the search's budget vector: degree e of the
    singular Betti numbers at e, and, when ``fixed_given``, fixed degree f
    at 2n + 1 + f.  Degrees 0..last are walked, last = n under duality and
    2n otherwise.  A slot is ``(cost, charges, free_keys, antipodal_keys)``:
    the units one copy of the orbit uses at its own degree, the (budget
    index, units) pairs it charges elsewhere, and the keys it sets.  Keys
    the forgetful or class rules forbid are left out.  ``closed[d]`` lists
    the budgets that no slot at degree d or later charges.
    """
    top = 2 * n
    last = n if poincare_dual else top
    min_shift = 1 if has_fixed_point else 0
    span_cap = top - 1 if has_fixed_point else top

    def orbit(key, mirror):
        """The keys a representative stands for; None when it stands for none."""
        if not poincare_dual or mirror == key:
            return (key,)
        return (key, mirror) if key < mirror else None

    table = []
    for d in range(last + 1):
        members = []
        for q in range(min(d, n) + 1):
            keys = orbit((d, q), (top - d, n - q))
            if keys:
                members.append((keys, ()))
        if d >= min_shift and klass is not MaximalityClass.MAXIMAL:
            for t in range(span_cap - d + 1):
                keys = orbit((d, t), (top - d - t, t))
                if not keys or t and klass is MaximalityClass.GALOIS_MAXIMAL_ONLY:
                    continue
                if all(r + span not in forgetful for r, span in keys):
                    members.append(((), keys))
        slots = []
        for free_keys, anti_keys in members:
            # the budget index of every unit one copy of the orbit uses
            units = [p for p, _ in free_keys]
            for r, t in anti_keys:
                units += [r, r + t]
            if fixed_given:
                units += [top + 1 + p - q for p, q in free_keys]
            charges = tuple(Counter(e for e in units if e != d).items())
            slots.append((units.count(d), charges, free_keys, anti_keys))
        table.append(slots)

    size = 2 * (top + 1) if fixed_given else top + 1
    closed = []
    for d in range(last + 2):
        charged = {e for slots in table[d:] for slot in slots for e, _ in slot[1]}
        charged.update(e for e in range(d, last + 1) if table[e])
        closed.append([e for e in range(d, size) if e not in charged])
    return table, closed


@dataclass(frozen=True)
class MaximalityPrediction:
    """Outcome of a sufficiency criterion for Galois-maximality."""

    applicable: bool
    prediction: str | None = None  # "GM" when applicable

    def admits(self, klass: MaximalityClass) -> bool:
        """Whether a classification is consistent with the prediction."""
        if not self.applicable:
            return True
        return klass.is_galois_maximal

    def to_json_dict(self) -> dict:
        return {"applicable": self.applicable, "prediction": self.prediction}


def krasnov_predict(cs: ConstraintSet) -> MaximalityPrediction:
    """Surface criterion: a real point and no first cohomology force GM."""
    applicable = (
        cs.dimension == 2
        and cs.has_fixed_point
        and cs.poincare_dual
        and cs.betti_total.get(1) == 0
    )
    return MaximalityPrediction(applicable, "GM" if applicable else None)


def threefold_predict(cs: ConstraintSet) -> MaximalityPrediction:
    """Threefold criterion: additionally needs surjectivity in degree 4."""
    applicable = (
        cs.dimension == 3
        and cs.has_fixed_point
        and cs.poincare_dual
        and cs.betti_total.get(1) == 0
        and cs.forgetful_onto_degrees is not None
        and 4 in cs.forgetful_onto_degrees
    )
    return MaximalityPrediction(applicable, "GM" if applicable else None)
