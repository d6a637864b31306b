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
Keys the forgetful or class rules forbid are never offered.

**Slot-level memo.**  Every exact-sum budget is one entry of a single
list: the singular Betti numbers of degrees 0..2n, then, when given, the
fixed-locus ones (fixed degree f at index 2n + 1 + f).  The plan is built
from the data.  Budgets only go down, so an orbit representative becomes a
slot only when every budget it charges starts positive; degrees of Betti
number 0 have no slots, and the plan grows with the data rather than with
n.  The slots form one degree-ordered list.  What can still happen from
slot i on depends only on the state ``(i, budgets)``; each state is
expanded once, passing over slots whose budgets ran out earlier in the
search and trying every multiplicity they allow, and keeps the edges that
lead to a completion.  A budget must be spent once no later slot charges it
(``closing``), which is how each degree's units are used up exactly; every
slot uses units of its own degree, so once those are spent the search jumps
to the next degree.

Every module the search produces is re-checked through the public
localization and classification operations before it is returned, so the
output is sound by construction.  The search offers only keys in a box:
free weights q <= n and, with ``has_fixed_point``, antipodal shifts r >= 1
with r + t <= 2n - 1.  The re-check enforces these bounds only under
duality, so without it the box can leave out modules that meet the
constraints: n=1 ``[1,0,1]`` without flags omits ``M2[0,0] + M2[2,2]``, and
n=1 ``[2,1,0]`` with a fixed point omits ``M2[0,0] + A1[0]``.  Within the
box the pruning only affects speed.  The search is single-threaded; output
is canonically sorted so it does not depend on exploration order.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import lru_cache

from .algebra import GradedDims, NormalFormModule, make_module
from .classification import MaximalityClass, classify
from .exceptions import ConstraintViolation, InfeasibleBounds, SchemaError, SearchTooDeep
from .localization import (
    forgetful_image_dims,
    real_manifold_validate,
    rho_localize,
    singular_betti,
)
from .serialize import expect, known_fields

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


@dataclass(frozen=True)
class ConstraintSet:
    """Topological data driving the decomposition search.

    ``betti_total`` are the mod-2 Betti numbers of the ambient space and
    ``betti_fixed``, when given, those of the fixed locus; support of either
    outside degrees 0..2n raises :class:`InfeasibleBounds`.
    ``poincare_dual`` asserts the compact-Real-manifold mirror symmetries;
    without it the search answers only within its key box (module
    docstring).  ``forgetful_onto_degrees`` lists degrees where restriction
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
        top = 2 * self.dimension
        for name, dims in (("betti_total", self.betti_total), ("betti_fixed", self.betti_fixed)):
            for d, v in dims.items() if dims is not None else ():
                if d < 0 or d > top:
                    raise InfeasibleBounds(
                        f"{name} has dimension {v} in degree {d}, outside [0, {top}]"
                    )

    def to_json_dict(self) -> dict:
        fixed = self.betti_fixed
        if fixed is not None:
            fixed = fixed.to_list(max((self.dimension, *fixed.support())))
        return {
            "n": self.dimension,
            "betti_total": self.betti_total.to_list(2 * self.dimension),
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
    def from_json_dict(data) -> "ConstraintSet":
        field = "constraints"
        expect(data, dict, field)
        known_fields(data, _CONSTRAINT_KEYS, field)
        if "n" not in data:
            raise SchemaError(f"{field}.n", "missing required field")
        n = expect(data["n"], int, f"{field}.n", "a nonnegative integer", minimum=0)
        if "betti_total" not in data:
            raise SchemaError(f"{field}.betti_total", "missing required field")
        total = _betti_list(data["betti_total"], f"{field}.betti_total")
        fixed = data.get("betti_fixed")
        if fixed is not None:
            fixed = _betti_list(fixed, f"{field}.betti_fixed")
        forgetful = data.get("forgetful_onto_degrees")
        if forgetful is not None:
            at = f"{field}.forgetful_onto_degrees"
            expect(forgetful, list, at)
            forgetful = frozenset(expect(d, int, f"{at}[{i}]") for i, d in enumerate(forgetful))
        class_filter = data.get("class_filter")
        if class_filter is not None:
            expect(class_filter, str, f"{field}.class_filter")
            try:
                class_filter = MaximalityClass(class_filter)
            except ValueError:
                raise SchemaError(
                    f"{field}.class_filter", f"unknown class code {class_filter!r}"
                )
        flags = {
            key: data.get(key) is not None and expect(data[key], bool, f"{field}.{key}")
            for key in ("has_fixed_point", "connected", "poincare_dual")
        }
        return ConstraintSet(
            dimension=n,
            betti_total=total,
            betti_fixed=fixed,
            forgetful_onto_degrees=forgetful,
            class_filter=class_filter,
            **flags,
        )


def _betti_list(value, field: str) -> GradedDims:
    """The dimensions of a dense list of nonnegative integers, else SchemaError."""
    expect(value, list, field)
    for i, entry in enumerate(value):
        expect(entry, int, f"{field}[{i}]", "a nonnegative integer", minimum=0)
    return GradedDims.from_list(value)


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

    An empty list is a legitimate answer.  Raises :class:`SearchTooDeep` past
    the interpreter's recursion limit, which high dimensions (n = 50) reach.
    """
    n = cs.dimension
    budget = cs.betti_total.to_list(2 * n)
    if cs.betti_fixed is not None:
        budget += cs.betti_fixed.to_list(2 * n)

    slots, closing = _search_plan(
        n, tuple(b > 0 for b in budget), cs.poincare_dual, cs.has_fixed_point,
        cs.forgetful_onto_degrees or frozenset(), cs.class_filter,
    )

    # state (slot index, budgets) -> edges (free segment, antipodal segment,
    # child state) that lead to a completion; a completing edge has child None
    memo: dict[tuple, list] = {}

    def build(i):
        while True:  # pass over the slots whose budgets ran out on the way here
            if any(budget[e] for e in closing[i]):
                return []
            if i == len(slots):
                return [((), (), None)]
            charges, free_keys, anti_keys, after = slots[i]
            cap = min(budget[e] // k for e, k in charges)
            if cap:
                break
            i = i + 1 if budget[charges[0][0]] else after
        edges = []
        for c in range(cap + 1):
            if c:
                for e, k in charges:
                    budget[e] -= k
            # once its own degree is spent, no later slot of that degree fits
            nxt = i + 1 if budget[charges[0][0]] else after
            child = (nxt, tuple(budget))
            alive = memo.get(child)
            if alive is None:
                alive = memo[child] = build(nxt)
            if alive:
                free_seg = tuple((p, q, c) for p, q in free_keys) if c else ()
                anti_seg = tuple((s, t, c) for s, t in anti_keys) if c else ()
                edges.append((free_seg, anti_seg, child))
        for e, k in charges:
            budget[e] += cap * k
        return edges

    results: list[NormalFormModule] = []

    def walk(edges, free, anti):
        for free_seg, anti_seg, child in edges:
            if child is not None:
                walk(memo[child], free + free_seg, anti + anti_seg)
                continue
            module = make_module(free + free_seg, anti + anti_seg)
            if satisfies_constraints(cs, module):
                results.append(module)

    try:
        walk(build(0), (), ())
    except RecursionError:
        # one frame per state along a path: the depth grows with n
        raise SearchTooDeep(
            f"the search for n={n} nests deeper than the interpreter's recursion limit"
        ) from None
    results.sort(key=lambda m: m.sort_key())
    return results


@lru_cache(maxsize=64)
def _search_plan(n, positive, poincare_dual, has_fixed_point, forgetful, klass):
    """The orbit slots in degree order, and the budgets closing at each slot.

    ``positive[e]`` says whether entry e of the search's budget vector starts
    above 0: degree e of the singular Betti numbers at e, and, when the
    fixed locus is given (``positive`` is then twice as long), fixed degree f
    at 2n + 1 + f.  Orbit representatives of degrees 0..last are slots,
    last = n under duality and 2n otherwise, but only those whose every
    charged budget starts positive: budgets only go down, so no other could
    take a copy.  A slot is ``(charges, free_keys, antipodal_keys, after)``:
    the (budget index, units) pairs one copy of the orbit uses, starting with
    its own degree, the keys it sets, and the index of the first slot of the
    next degree.  Keys the forgetful or class rules forbid are left out.
    ``closing[i]`` lists the positive budgets that must be spent by slot i:
    those last charged at slot i - 1 or in the degree before slot i (the jump
    target of a spent degree), and, at i = 0, those no slot charges.
    """
    top = 2 * n
    last = n if poincare_dual else top
    min_shift = 1 if has_fixed_point else 0
    span_cap = top - 1 if has_fixed_point else top
    fixed_given = len(positive) > top + 1

    def orbit(key, mirror):
        """The keys a representative stands for; None when it stands for none."""
        if not poincare_dual or mirror == key:
            return (key,)
        return (key, mirror) if key < mirror else None

    slots = []
    for d in range(last + 1):
        if not positive[d]:  # every slot of degree d charges budget d
            continue
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
        kept = []
        for free_keys, anti_keys in members:
            # the budget index of every unit one copy of the orbit uses, its
            # own degree first
            units = [p for p, _ in free_keys]
            for r, t in anti_keys:
                units += [r, r + t]
            if fixed_given:
                units += [top + 1 + p - q for p, q in free_keys]
            if all(positive[e] for e in units):
                kept.append((tuple(Counter(units).items()), free_keys, anti_keys))
        after = len(slots) + len(kept)
        slots += [(*slot, after) for slot in kept]

    final = {e: {i + 1, slot[3]} for i, slot in enumerate(slots) for e, _ in slot[0]}
    closing = [[] for _ in range(len(slots) + 1)]
    for e in range(len(positive)):
        if positive[e]:
            for i in final.get(e, {0}):
                closing[i].append(e)
    return slots, closing


@dataclass(frozen=True)
class MaximalityPrediction:
    """Outcome of a sufficiency criterion for Galois-maximality."""

    applicable: bool

    @property
    def prediction(self) -> str | None:
        """``"GM"`` exactly when the criterion applies, else None."""
        return "GM" if self.applicable else None

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
    return MaximalityPrediction(applicable)


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
    return MaximalityPrediction(applicable)
