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
search walks degrees up to n under duality and up to 2n otherwise.  At each
degree the units still left there must be used up exactly, and the units
charged to higher degrees and to the fixed locus must stay within their
budgets.  Keys the forgetful or class rules forbid are never offered.

**Search DAG.**  Every exact-sum constraint is a named budget, and the
search holds only the budgets that start positive: the singular Betti
number of each degree the data names, the fixed-locus one of each fixed
degree it names when the fixed locus is given, and, under the class filters
GALOIS_MAXIMAL_ONLY and NEITHER, the class entry.  It starts at 1, meaning
the antipodal summand the class needs is still missing (any for
GALOIS_MAXIMAL_ONLY, which is offered only 0-spheres; one of positive
sphere dimension for NEITHER), and a copy of a summand of that kind clears
it to 0; it is not charged per copy and bounds no multiplicity.  MAXIMAL
needs no entry, since it is offered no antipodal key.  The plan is built
from the data and alone names and orders the budgets.  Budgets only go
down, so an orbit representative becomes a slot only when every budget it
charges is named; the plan, the budget list and every search state
therefore grow with the data rather than with n.  The slots form one
degree-ordered list.  What can still happen from slot i on depends only on
the state ``(i, budgets)``, and every edge leads to a later slot, so the
DAG is built level by level in slot order: each state is expanded once,
passing over slots whose budgets ran out earlier in the search and trying
every multiplicity they allow.  A sweep back over the levels then keeps the
edges that lead to a completion, and a walk over an explicit stack turns
each remaining path into a module.  Nothing recurses, so no answer depends
on the interpreter's stack.  One search holds at most ``_MAX_STATES``
(65,536) states and raises :class:`SearchTooLarge` when it would add one
more; the walk is not bounded, since few states can carry very many paths.
A budget must be spent once no later slot charges it (``closing``), which
is how each degree's units are used up exactly; every slot uses units of
its own degree, so once those are spent the search jumps to the next
degree.  A starting budget that is not a multiple of the gcd of the units
its slots charge it cannot be spent exactly, so
:func:`enumerate_decompositions` returns nothing for such data before it
searches.

Every module the search produces is re-checked through the public
localization and classification operations before it is returned, so the
output is sound by construction; on the exhaustive box sweeps of the tests
the re-check rejects none, under every class filter.  The search offers
only keys in a box: free weights q <= n and, with ``has_fixed_point``,
antipodal shifts r >= 1 with r + t <= 2n - 1.  The re-check enforces these
bounds only under duality, so without it the box can leave out modules
that meet the constraints: n=1 ``[1,0,1]`` without flags omits
``M2[0,0] + M2[2,2]``, and n=1 ``[2,1,0]`` with a fixed point omits
``M2[0,0] + A1[0]``.  Within the box the pruning only affects speed.  The
search is single-threaded; output is canonically sorted so it does not
depend on exploration order.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from math import gcd

from .algebra import GradedDims, NormalFormModule, make_module
from .classification import MaximalityClass, classify
from .exceptions import ConstraintViolation, InfeasibleBounds, SchemaError, SearchTooLarge
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


# The least sphere dimension t of the antipodal summand a class filter needs
# at least one of: any for GALOIS_MAXIMAL_ONLY (whose search offers only
# t = 0), a positive one for NEITHER.  MAXIMAL needs none and is offered no
# antipodal key.
_NEEDED_SPHERE = {MaximalityClass.GALOIS_MAXIMAL_ONLY: 0, MaximalityClass.NEITHER: 1}

# The most search states, (slot, budgets) pairs, one search may hold.
_MAX_STATES = 1 << 16


def enumerate_decompositions(cs: ConstraintSet) -> list[NormalFormModule]:
    """All normal forms consistent with the constraints, canonically sorted.

    The whole list is built and sorted before it is returned; ``bredon
    solve`` prints it afterwards, one ``to_json_text`` line per module.  An
    empty list is a legitimate answer.  Raises :class:`SearchTooLarge` when
    the search DAG would exceed ``_MAX_STATES`` states, whatever the call
    stack.  ``[1,0,1,...,1,0,1]`` with all three flags builds 60,126 states
    at n = 18 (and then walks more paths than can be listed) and raises at
    every even n >= 20 within about a second; odd n returns ``[]`` at once
    through the gcd rule.  Betti-only ``{0: 1, 2n: 1}`` has n + 7 states and
    returns its n + 2 modules at n = 20000.
    """
    n = cs.dimension
    betti = dict(cs.betti_total.items())
    fixed = None if cs.betti_fixed is None else dict(cs.betti_fixed.items())
    names, slots, closing, units = _orbit_plan(
        n, tuple(betti), None if fixed is None else tuple(fixed), cs.poincare_dual,
        cs.has_fixed_point, cs.forgetful_onto_degrees or frozenset(), cs.class_filter,
    )
    given = {"betti": betti, "fixed": fixed}
    # the class entry starts at 1: the summand the class needs is missing
    budget = [given[kind][d] if kind in given else 1 for kind, d in names]
    # A budget that is not a multiple of the gcd of its units is never spent
    # exactly.  Under duality this ends an odd middle Betti number of odd n
    # at once, since every orbit charges that degree two units.
    if any(budget[e] % k for e, k in units):
        return []

    # levels[i]: budgets -> edges out of state (i, budgets), first as
    # (multiplicity, free keys, antipodal keys, child edges), then, once
    # pruned, as (free segment, antipodal segment, child edges); a completing
    # edge has child None.  Every edge leads to a later slot, so the levels
    # are expanded in order.
    levels: list[dict[tuple, list]] = [{} for _ in range(len(slots) + 1)]
    levels[0][tuple(budget)] = root = []
    states = 1
    for i, level in enumerate(levels):
        for key, edges in level.items():
            budget, j = list(key), i
            while not any(budget[e] for e in closing[j]):
                if j == len(slots):
                    edges.append((0, (), (), None))
                    break
                charges, free_keys, anti_keys, clears, after = slots[j]
                cap = min(budget[e] // k for e, k in charges)
                if not cap:  # pass over a slot whose budgets ran out earlier
                    j = j + 1 if budget[charges[0][0]] else after
                    continue
                for c in range(cap + 1):  # c copies are charged to budget here
                    # once its own degree is spent, no later slot of that degree fits
                    target = levels[j + 1 if budget[charges[0][0]] else after]
                    child_key = tuple(budget)
                    child = target.get(child_key)
                    if child is None:
                        states += 1
                        if states > _MAX_STATES:
                            raise SearchTooLarge(
                                f"the search for n={n} needs more than {_MAX_STATES} states"
                            )
                        child = target[child_key] = []
                    edges.append((c, free_keys, anti_keys, child))
                    for e, k in charges:
                        budget[e] -= k
                    if clears:
                        budget[-1] = 0  # the class entry, which the plan names last
                break

    # keep only the edges that lead to a completion, later levels first, and
    # set their rows only then: most edges of a small search die
    for level in reversed(levels):
        for edges in level.values():
            if edges:
                edges[:] = [
                    (tuple((p, q, c) for p, q in free_keys) if c else (),
                     tuple((s, t, c) for s, t in anti_keys) if c else (), child)
                    for c, free_keys, anti_keys, child in edges if child is None or child
                ]

    # walk every path left, one module per completing edge
    results, stack = [], [(root, (), ())]
    while stack:
        edges, free, anti = stack.pop()
        for free_seg, anti_seg, child in edges:
            if child is not None:
                stack.append((child, free + free_seg, anti + anti_seg))
            elif satisfies_constraints(cs, module := make_module(free + free_seg, anti + anti_seg)):
                results.append(module)
    results.sort(key=NormalFormModule.sort_key)
    return results


@lru_cache(maxsize=64)
def _orbit_plan(n, betti, fixed, poincare_dual, has_fixed_point, forgetful, klass):
    """The budget names, the orbit slots in degree order, the budgets closing
    at each slot, and the gcd of the units the slots charge each budget.

    ``betti`` and ``fixed`` are the degrees where the singular and the
    fixed-locus Betti numbers are positive, ``fixed`` None when the fixed
    locus is not given.  The budgets are named ``("betti", d)``,
    ``("fixed", f)`` and, when the class filter needs an antipodal summand,
    ``("class", None)``, last; slots refer to a budget by its place in the
    names.  Orbit representatives of the Betti degrees up to n under duality
    (2n otherwise) are slots, but only those whose every charged budget is
    named: budgets only go down, so no other could take a copy.  With the
    fixed locus given, the free weights of degree d are d - f for its
    degrees f.  A slot is ``(charges, free_keys, antipodal_keys, clears,
    after)``: the (budget, units) pairs one copy of the orbit uses, starting
    with its own degree, the keys it sets, whether a copy of it clears the
    class entry (its keys are of the kind the class needs), and the index of
    the first slot of the next degree.  The class entry is not charged per
    copy and bounds no multiplicity.  Keys the forgetful or class rules
    forbid are left out.  ``closing[i]`` lists the budgets that must be
    spent by slot i: those last charged (or, for the class entry, cleared)
    at slot i - 1 or in the degree before slot i (the jump target of a spent
    degree), and, at i = 0, those no slot charges or clears.
    """
    top = 2 * n
    last = n if poincare_dual else top
    min_shift = 1 if has_fixed_point else 0
    span_cap = top - 1 if has_fixed_point else top
    needed = _NEEDED_SPHERE.get(klass)
    names = [("betti", d) for d in betti] + [("fixed", f) for f in fixed or ()]
    names += [("class", None)] if needed is not None else []
    index = {name: e for e, name in enumerate(names)}

    def orbit(key, mirror):
        """The keys a representative stands for; None when it stands for none."""
        if not poincare_dual or mirror == key:
            return (key,)
        return (key, mirror) if key < mirror else None

    slots = []
    for d in betti:  # every slot of degree d charges budget ("betti", d)
        if d > last:
            break
        weights = range(min(d, n) + 1)
        if fixed is not None:
            weights = [d - f for f in reversed(fixed) if d - f in weights]
        members = []
        for q in weights:
            keys = orbit((d, q), (top - d, n - q))
            if keys:
                members.append((keys, ()))
        if d >= min_shift and klass is not MaximalityClass.MAXIMAL:
            for t in (e - d for e in betti if d <= e <= span_cap):
                keys = orbit((d, t), (top - d - t, t))
                if not keys or t and klass is MaximalityClass.GALOIS_MAXIMAL_ONLY:
                    continue
                if all(r + span not in forgetful for r, span in keys):
                    members.append(((), keys))
        kept = []
        for free_keys, anti_keys in members:
            # the name of every unit one copy of the orbit uses, its own
            # degree first
            units = [("betti", p) for p, _ in free_keys]
            for r, t in anti_keys:
                units += [("betti", r), ("betti", r + t)]
            if fixed is not None:
                units += [("fixed", p - q) for p, q in free_keys]
            if all(u in index for u in units):
                clears = needed is not None and any(t >= needed for _, t in anti_keys)
                charges = tuple((index[u], k) for u, k in Counter(units).items())
                kept.append((charges, free_keys, anti_keys, clears))
        after = len(slots) + len(kept)
        slots += [(*slot, after) for slot in kept]

    final = {}
    gcds = {}
    for i, (charges, _, _, clears, after) in enumerate(slots):
        for e, k in charges:
            final[e] = {i + 1, after}
            gcds[e] = gcd(gcds.get(e, 0), k)
        if clears:
            final[index["class", None]] = {i + 1, after}
    closing = [[] for _ in range(len(slots) + 1)]
    for e in range(len(names)):
        for i in final.get(e, {0}):
            closing[i].append(e)
    return tuple(names), slots, closing, tuple(gcds.items())


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


def _criterion(cs: ConstraintSet, dimension: int, onto: tuple[int, ...] = ()) -> MaximalityPrediction:
    """A real point, duality and no first cohomology in this dimension, and
    surjectivity in every degree of ``onto``, force GM."""
    applicable = (
        cs.dimension == dimension
        and cs.has_fixed_point
        and cs.poincare_dual
        and cs.betti_total.get(1) == 0
        and all(d in (cs.forgetful_onto_degrees or ()) for d in onto)
    )
    return MaximalityPrediction(applicable)


def krasnov_predict(cs: ConstraintSet) -> MaximalityPrediction:
    """Surface criterion: a real point and no first cohomology force GM."""
    return _criterion(cs, 2)


def threefold_predict(cs: ConstraintSet) -> MaximalityPrediction:
    """Threefold criterion: additionally needs surjectivity in degree 4."""
    return _criterion(cs, 3, (4,))
