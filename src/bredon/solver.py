"""Exhaustive search for normal forms matching topological constraints.

Given Betti numbers of a space (and optionally of its fixed locus), plus
duality and surjectivity hypotheses, :func:`iter_decompositions` yields
every normal form consistent with the data, in canonical order, and
:func:`enumerate_decompositions` lists them.  Each summand uses units of the
singular Betti numbers: a free summand at (p, q) one unit in degree p (and
one fixed-locus unit in degree p - q), an antipodal 0-sphere at shift r two
units in degree r, a positive antipodal n-sphere one unit in degree r and
one in degree r + n.  The plan does not restate these rules: it reads them
off ``singular_betti`` and ``rho_localize`` of the module holding one copy
of each key of an orbit.

**Orbit charging.**  Under Poincare duality the multiplicity maps are
mirror-symmetric, so the search picks a multiplicity for one representative
per mirror orbit, the least key of ``{key, mirror}``, and charges every unit
of the whole orbit at once; without duality every orbit is a single key.
Every orbit's units lie at or above its representative's degree.  Under
duality a key above degree n is never the least key of its orbit, so every
representative lies at degree n or below, with no separate degree cut.  At
each degree the units still left there must be used up exactly, and the units
charged to higher degrees and to the fixed locus must stay within their
budgets.  An orbit's units, admissibility and class effect all come from
its one-copy module through the public operations, and this is exact:
every invariant the search constrains (singular and fixed-locus Betti
numbers, forgetful image, class) is additive over summands, where a sum's
class is the greatest class of its parts in the order M < GM < NEITHER.
So an orbit is offered only if its forgetful image equals its singular
Betti numbers in every forgetful degree (in each degree a summand's image
is at most its singular dimension) and its class is at most the filter.

**Search DAG.**  Every exact-sum constraint is a named budget, and the
search holds only the budgets that start positive: the singular Betti
number of each degree the data names, the fixed-locus one of each fixed
degree it names when the fixed locus is given, and, when the empty module
is not of the filter's class (GALOIS_MAXIMAL_ONLY and NEITHER), the class
entry.  It starts at 1, meaning no part of the filter's class is chosen
yet, and a copy of an orbit whose one-copy module is of that class clears
it to 0; it is not charged per copy and bounds no multiplicity.  The plan
is built from the data and alone names and orders the budgets.  Budgets
only go down, so an orbit representative becomes a slot only when every
budget it charges is named; the plan, the budget list and every search
state therefore grow with the data rather than with n.  The slots form one
list in two parts: every free orbit first, in degree order and then weight
order, then every antipodal orbit, in degree order and then
sphere-dimension order.  What can still happen from slot i on depends only
on the state ``(i, budgets)``, and every edge leads to a later slot, so the
DAG is built level by level in slot order: each state is expanded once,
passing over slots whose budgets ran out earlier in the search and trying
every multiplicity they allow.  A sweep back over the levels then marks
the states that lead to a completion: a state with no live edge for one
or more copies takes over its child for zero copies, so a dead state ends
empty.  A walk over an explicit stack turns each path through the live
states into a module.  Nothing recurses, so no answer depends on the
interpreter's stack.  One search holds at most ``_MAX_STATES`` (65,536)
states and raises :class:`SearchTooLarge` when it would add one more; the
walk is not bounded, since few states can carry very many paths.  A
budget must be spent once no later slot charges it (``closing``), which is
how each degree's units are used up exactly; every slot uses units of its
own degree, so once those are spent the search jumps to the next degree of
its part.  A starting budget that is not a multiple of the gcd of the
units its slots charge it cannot be spent exactly, so
:func:`iter_decompositions` yields nothing for such data before it
searches.

**Walk order.**  The walk yields the modules in canonical order
(``NormalFormModule.sort_key``: the free rows, then the antipodal rows,
each compared row by row, where a list that ends sorts first), so nothing
is sorted and ``bredon solve`` prints each module as soon as it passes the
re-check.  Within a part the slots come in key order, since an orbit's
representative is its least key, and a choice of c >= 1 copies at key k
sorts by (k, c).  At each state the walk gathers the choices c >= 1 along
the state's chain of 0-copy edges inside its part, in key order; the one
case that needs care is the chain's exit, the state where it leaves the
part.  A module through the exit, whose free rows end there, sorts
before one through a choice at key k unless a row set so far lies above
k.  So the walk puts the exit just after the last choice whose least row
lies below the highest free row set so far.  Rows lie above k only under
duality, from mirror keys.  No antipodal state has both an exit and a
choice: its exit is completion, which needs every budget spent, and a
choice needs budget left in its own degree.  So no other rows are
compared, and a state's order of choices depends only on the state and
the highest free row set so far.  Comparing an orbit's greatest row
instead of its least gives the same order: the mirror reverses order, so
every row set so far that lies above the least key is the mirror of an
earlier representative and lies above the orbit's mirror too.  The walk
reads the DAG's own end states: ``[end]`` completes and ``[]`` is dead.
Every visit pops one state with the rows set so far; at ``[end]`` it
builds the module and re-checks it, and at any other state it pushes the
choices and the exit, unless the exit is dead.  The price of this order
is a larger DAG: the free part is decided first, so each degree's budget
stays open until the antipodal slots (522 states for the Betti-only K3).

The walk builds each module without ``make_module``'s checks, from rows
that are canonical by construction once sorted (``_walk_module``).  Every
module the search produces is still re-checked through the public
localization and classification operations before it is returned, so the
output is sound by construction; on the exhaustive box sweeps of the tests
the re-check rejects none, under every class filter.  Under duality it
checks the manifold conditions in their fail-fast form, which stops at the
first failure and builds no report objects; ``bredon validate`` and
``bredon pd-check`` use the exhaustive form of the same conditions and
report every failure.

**The key box.**  The plan reads its box off the same conditions: it
offers an orbit only if its one-copy module fails none of them but the
mirror symmetry, with connectedness left out, and a one-copy mirror orbit
is mirror-symmetric by construction.  Under duality this is what the
re-check demands, so nothing is left out.  Without duality it is the box
of FORMATS.md ("solve"): free weights q <= n and, with
``has_fixed_point``, antipodal shifts r >= 1 with r + t <= 2n - 1.  The
re-check does not enforce these bounds without duality, so the box can
leave out modules that meet the constraints: n=1 ``[1,0,1]`` without flags
omits ``M2[0,0] + M2[2,2]``, and n=1 ``[2,1,0]`` with a fixed point omits
``M2[0,0] + A1[0]``.  Within the box the pruning only affects speed.  The
search is single-threaded.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import MISSING, dataclass, field, fields
from functools import lru_cache
from math import gcd

from .algebra import GradedDims, NormalFormModule
from .classification import MaximalityClass, classify
from .exceptions import ConstraintViolation, InfeasibleBounds, SchemaError, SearchTooLarge
from .localization import (
    _manifold_failures,
    _manifold_holds,
    forgetful_image_dims,
    rho_localize,
    singular_betti,
)
from .serialize import expect, known_fields

__all__ = [
    "ConstraintSet",
    "MaximalityPrediction",
    "enumerate_decompositions",
    "iter_decompositions",
    "satisfies_constraints",
    "krasnov_predict",
    "threefold_predict",
]


def _betti_list(value, at: str) -> GradedDims:
    """The dimensions of a dense list of nonnegative integers, else SchemaError."""
    expect(value, list, at)
    for i, entry in enumerate(value):
        expect(entry, int, f"{at}[{i}]", "a nonnegative integer", minimum=0)
    return GradedDims.from_list(value)


def _degrees(value, at: str) -> frozenset[int]:
    expect(value, list, at)
    return frozenset(expect(d, int, f"{at}[{i}]") for i, d in enumerate(value))


def _class_code(value, at: str) -> MaximalityClass:
    expect(value, str, at)
    try:
        return MaximalityClass(value)
    except ValueError:
        raise SchemaError(at, f"unknown class code {value!r}") from None


def _flag(value, at: str) -> bool:
    return expect(value, bool, at)


def _field(key: str, read, write=lambda cs, value: value, **default):
    """A constraint field stored under the JSON ``key``.  ``read(value, at)``
    parses a JSON value, raising SchemaError naming ``at``; ``write(cs,
    value)`` gives the JSON of a value that is not None."""
    return field(metadata={"key": key, "read": read, "write": write}, **default)


@dataclass(frozen=True)
class ConstraintSet:
    """Topological data driving the decomposition search.

    ``betti_total`` are the mod-2 Betti numbers of the ambient space and
    ``betti_fixed``, when given, those of the fixed locus; support of either
    outside degrees 0..2n raises :class:`InfeasibleBounds`.  When
    ``betti_fixed`` is given, ``has_fixed_point`` must say whether its total
    is positive, else :class:`ConstraintViolation`.
    ``poincare_dual`` asserts the compact-Real-manifold mirror symmetries;
    without it the search answers only within its key box (module
    docstring).  ``forgetful_onto_degrees`` lists degrees where restriction
    to singular cohomology must be surjective; one outside 0..2n raises
    :class:`InfeasibleBounds`.

    Each field is declared once, with its JSON key, reader and writer, and
    the file format is read and written by looping over the fields: a key
    is required exactly when its field has no default, and an absent or
    null optional key leaves the default.
    """

    dimension: int = _field(
        "n", lambda value, at: expect(value, int, at, "a nonnegative integer", minimum=0)
    )
    betti_total: GradedDims = _field(
        "betti_total", _betti_list, lambda cs, dims: dims.to_list(2 * cs.dimension)
    )
    betti_fixed: GradedDims | None = _field(
        "betti_fixed", _betti_list,
        lambda cs, dims: dims.to_list(max((cs.dimension, *dims.support()))), default=None,
    )
    has_fixed_point: bool = _field("has_fixed_point", _flag, default=False)
    connected: bool = _field("connected", _flag, default=False)
    poincare_dual: bool = _field("poincare_dual", _flag, default=False)
    forgetful_onto_degrees: frozenset[int] | None = _field(
        "forgetful_onto_degrees", _degrees, lambda cs, degrees: sorted(degrees), default=None
    )
    class_filter: MaximalityClass | None = _field(
        "class_filter", _class_code, lambda cs, klass: klass.value, default=None
    )

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
        top = 2 * self.dimension
        for name, dims in (("betti_total", self.betti_total), ("betti_fixed", self.betti_fixed)):
            for d, v in dims.items() if dims is not None else ():
                if d < 0 or d > top:
                    raise InfeasibleBounds(
                        f"{name} has dimension {v} in degree {d}, outside [0, {top}]"
                    )
        for d in sorted(self.forgetful_onto_degrees or ()):
            if d < 0 or d > top:
                raise InfeasibleBounds(
                    f"forgetful_onto_degrees names degree {d}, outside [0, {top}]"
                )
        fixed = self.betti_fixed
        if fixed is not None and self.has_fixed_point != (fixed.total() > 0):
            raise ConstraintViolation(
                f"has_fixed_point is {self.has_fixed_point} but betti_fixed totals "
                f"{fixed.total()}: a fixed locus is nonempty exactly when its total "
                "Betti number is positive"
            )

    def to_json_dict(self) -> dict:
        return {f.metadata["key"]: None if (value := getattr(self, f.name)) is None
                else f.metadata["write"](self, value) for f in fields(self)}

    @staticmethod
    def from_json_dict(data) -> "ConstraintSet":
        expect(data, dict, "constraints")
        specs = fields(ConstraintSet)
        known_fields(data, [f.metadata["key"] for f in specs], "constraints")
        given = {}
        for f in specs:
            key = f.metadata["key"]
            at = f"constraints.{key}"
            if key in data and (data[key] is not None or f.default is MISSING):
                given[f.name] = f.metadata["read"](data[key], at)
            elif f.default is MISSING:
                raise SchemaError(at, "missing required field")
        return ConstraintSet(**given)


def satisfies_constraints(cs: ConstraintSet, module: NormalFormModule) -> bool:
    """Re-check a module against every constraint via the public operations.

    The manifold conditions of duality are checked in their fail-fast form
    (``_manifold_holds``), which agrees with
    ``real_manifold_validate(...).passed`` but stops at the first failure
    and builds no report objects.
    """
    n = cs.dimension
    if singular_betti(module) != cs.betti_total:
        return False
    if cs.betti_fixed is not None and rho_localize(module) != cs.betti_fixed:
        return False
    if cs.poincare_dual and not _manifold_holds(module, n, cs.has_fixed_point, cs.connected):
        return False
    if cs.forgetful_onto_degrees:
        image = forgetful_image_dims(module)
        for degree in cs.forgetful_onto_degrees:
            if image.get(degree) != cs.betti_total.get(degree):
                return False
    if cs.class_filter is not None and classify(module) is not cs.class_filter:
        return False
    return True


# The most search states, (slot, budgets) pairs, one search may hold.
_MAX_STATES = 1 << 16


def enumerate_decompositions(cs: ConstraintSet) -> list[NormalFormModule]:
    """All normal forms consistent with the constraints, in canonical order:
    ``list(iter_decompositions(cs))``.  An empty list is a legitimate
    answer."""
    return list(iter_decompositions(cs))


def iter_decompositions(cs: ConstraintSet) -> Iterator[NormalFormModule]:
    """Yield every normal form consistent with the constraints, in canonical
    order, each as soon as it passes the re-check; ``bredon solve`` prints
    one ``to_json_text`` line per module as it comes.

    The whole search DAG is built before the first module, so
    :class:`SearchTooLarge`, raised when the DAG would exceed
    ``_MAX_STATES`` states whatever the call stack, comes before any module.
    Search states, root included: Betti-only K3 522, ``pd_n3`` 415,
    ``pd_n4_neither`` 359, Betti-only cubic 1,383.  ``projective_space(16)``
    with full data builds 18,533 states and yields 2,759 modules;
    ``projective_space(17)`` and ``(18)`` raise.  ``[1,0,1,...,1,0,1]``
    with all three flags builds 34,817 states at n = 12 and raises at every
    even n >= 14 within about half a second; odd n yields nothing at once
    through the gcd rule.  Betti-only ``{0: 1, 2n: 1}`` has 2n + 9 states
    and yields its n + 2 modules at n = 20000.
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
        return

    # levels[i]: budgets -> state (i, budgets), a list: [j, child for 0
    # copies, child for 1 copy, ...] when j is its first slot with room,
    # [end] when it completes, and [] when it is dead.  Every edge leads to
    # a later slot, so the levels are expanded in order.
    end = len(slots)
    levels: list[dict[tuple, list]] = [{} for _ in range(end + 1)]
    levels[0][tuple(budget)] = root = []
    states = 1
    for i, level in enumerate(levels):
        for key, state in level.items():
            budget, j = list(key), i
            left = budget.__getitem__
            while not any(map(left, closing[j])):
                if j == end:
                    state.append(end)
                    break
                charges, _, _, clears, after = slots[j]
                cap = min(budget[e] // k for e, k in charges)
                if not cap:  # pass over a slot whose budgets ran out earlier
                    j = j + 1 if budget[charges[0][0]] else after
                    continue
                state.append(j)
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
                    state.append(child)
                    for e, k in charges:
                        budget[e] -= k
                    if clears:
                        budget[-1] = 0  # the class entry, which the plan names last
                break

    # Later levels first, a state with no live edge for c >= 1 copies takes
    # the contents of its child for 0 copies, whose completions it shares:
    # so it ends empty when dead and as [end] when it can only complete.
    # No other state is touched.
    for level in reversed(levels):
        for state in level.values():
            if len(state) > 1 and not any(state[2:]):
                state[:] = state[1]

    # The walk, in canonical order (module docstring).  An entry is a state
    # and the free and antipodal rows set so far.  At [end] the path is
    # complete; at any other state the walk pushes the state's walk record,
    # built at its first visit: the choices last first, and the exit, unless
    # it is dead, just before the first choice whose least row lies below
    # the highest free row set so far.  Only a free state has both an exit
    # and a choice, so only free rows are compared.
    records = {}
    stack = [(root, (), ())] if root else []
    while stack:
        state, free, anti = stack.pop()
        if len(state) == 1:  # [end]: the path is complete
            if satisfies_constraints(cs, module := _walk_module(free, anti)):
                yield module
            continue
        if (record := records.get(id(state))) is None:
            record = records[id(state)] = _walk_record(state, slots)
        segments, leave = record
        high = max(free, default=()) if leave else ()
        for free_seg, anti_seg, child in segments:
            if leave and free_seg[0] < high:
                stack.append((leave, free, anti))
                leave = []
            stack.append((child, free + free_seg, anti + anti_seg))
        if leave:
            stack.append((leave, free, anti))


def _walk_module(free, anti):
    """The module of a complete path, built without ``make_module``'s checks.

    The walk's rows cannot fail them: the keys are ints from the Betti
    degrees and ``range``, copies are ints from ``range`` and >= 1, the
    plan's keys lie in the CW box, and orbits are disjoint, so no key
    repeats.  Only the order needs work: under duality a mirror row is
    appended with its representative.  The candidate-counting tests patch
    this one name.
    """
    return NormalFormModule._canonical(tuple(sorted(free)), tuple(sorted(anti)))


def _walk_record(state, slots):
    """The choices of a live state other than ``[end]``, as (segments, leave).

    Following the state's edges for 0 copies while they stay in its part
    (free or antipodal), each live edge for c >= 1 copies is one segment
    ``(free rows, antipodal rows, child)``, one of the row tuples empty and
    the other starting with the row of the slot's least key, and the child
    as the DAG holds it.  ``segments`` lists the segments in decreasing
    order, the order in which the walk pushes them.  ``leave`` is the state
    where the 0-copy chain leaves the part, as the DAG holds it: ``[]``
    when the chain dies, ``[end]`` when it completes, else a live state of
    the antipodal part.  An antipodal state whose chain completes has no
    segment: completion needs every budget spent, and a slot is offered
    only while budget is left in its own degree.
    """
    end = len(slots)
    segments = []
    j = state[0]
    free_part = bool(slots[j][1])
    while j < end and bool(slots[j][1]) is free_part:
        _, free_keys, anti_keys, _, _ = slots[j]
        for c in range(1, len(state) - 1):
            child = state[c + 1]
            if child:
                free_rows = tuple([(p, q, c) for p, q in free_keys])
                anti_rows = tuple([(r, t, c) for r, t in anti_keys])
                segments.append((free_rows, anti_rows, child))
        state = state[1]
        j = state[0] if state else end
    segments.reverse()
    return segments, state


@lru_cache(maxsize=64)
def _orbit_plan(n, betti, fixed, poincare_dual, has_fixed_point, forgetful, klass):
    """The budget names, the orbit slots, the budgets closing at each slot,
    and the gcd of the units the slots charge each budget.

    ``betti`` and ``fixed`` are the degrees where the singular and the
    fixed-locus Betti numbers are positive, ``fixed`` None when the fixed
    locus is not given.  The budgets are named ``("betti", d)``,
    ``("fixed", f)`` and, when the empty module is not of the filter's
    class, ``("class", None)``, last; slots refer to a budget by its place
    in the names.

    The candidate keys come from the CW box over the Betti degrees: at each
    Betti degree d, free keys of weight 0..d, or of weight d - f for each
    fixed degree f <= d when the fixed locus is given, and antipodal keys
    whose span ends at a Betti degree.  A candidate stands for its orbit
    (its mirror too, under duality) only when it is the orbit's least key.
    Right after its one-copy module ``one`` is built, the orbit is dropped
    unless every failure of ``_manifold_failures(one, n, has_fixed_point,
    False)`` is ``pd_symmetry``: the positional conditions of a compact
    Real n-manifold are the box (module docstring).

    Each candidate's rules are read off ``one``, the module holding one
    copy of each key of the orbit, through the public operations; this is
    exact because every invariant the search constrains is additive over
    summands.  Its units are ``singular_betti(one)`` and, with the fixed
    locus given, ``rho_localize(one)``, its own degree first since the
    representative is the least key.  It becomes a slot only if every unit
    names a budget (budgets only go down, so no other could take a copy),
    if ``forgetful_image_dims(one)`` equals ``singular_betti(one)`` in every
    forgetful degree (in each degree a summand's image is at most its
    singular dimension, so a sum is onto exactly when each part is), and if
    ``classify(one)`` is at most the filter in the order M < GM < NEITHER
    (a sum's class is the greatest class of its parts).  A copy clears the
    class entry when ``classify(one)`` is the filter's class.

    The free slots come first, in degree and then weight order, then the
    antipodal ones, in degree and then sphere-dimension order.  A slot is
    ``(charges, free_keys, antipodal_keys, clears, after)``: the (budget,
    units) pairs one copy of the orbit uses, starting with its own degree,
    the keys it sets, least first, whether a copy of it clears the class
    entry, and the index of the first slot of the next degree in its part.
    The class entry is not charged per copy and bounds no multiplicity.
    ``closing[i]`` lists the budgets that must be spent by slot i: those
    last charged (or, for the class entry, cleared) at slot i - 1 or in the
    degree before slot i (the jump target of a spent degree), and, at i = 0,
    those no slot charges or clears.
    """
    top = 2 * n
    classes = list(MaximalityClass)  # M < GM < NEITHER
    allowed = classes if klass is None else classes[: classes.index(klass) + 1]
    entry = klass is not None and classify(NormalFormModule.zero()) is not klass
    names = [("betti", d) for d in betti] + [("fixed", f) for f in fixed or ()]
    names += [("class", None)] if entry else []
    index = {name: e for e, name in enumerate(names)}

    def orbit(key, mirror):
        """The keys a representative stands for; None when it stands for none."""
        if not poincare_dual or mirror == key:
            return (key,)
        return (key, mirror) if key < mirror else None

    def free_orbits(d):
        weights = range(d + 1) if fixed is None else [d - f for f in reversed(fixed) if f <= d]
        for q in weights:
            keys = orbit((d, q), (top - d, n - q))
            if keys:
                yield keys, ()

    def antipodal_orbits(d):
        for t in (e - d for e in betti if e >= d):
            keys = orbit((d, t), (top - d - t, t))
            if keys:
                yield (), keys

    slots = []
    for orbits in (free_orbits, antipodal_orbits):  # the free part, then the antipodal one
        for d in betti:  # every slot of degree d charges budget ("betti", d)
            kept = []
            for free_keys, anti_keys in orbits(d):
                # one copy of each key of the orbit (docstring)
                one = NormalFormModule(tuple([(p, q, 1) for p, q in free_keys]),
                                       tuple([(r, t, 1) for r, t in anti_keys]))
                if any(condition != "pd_symmetry" for condition, _, _
                       in _manifold_failures(one, n, has_fixed_point, False)):
                    continue
                lines = singular_betti(one)
                units = [(("betti", e), k) for e, k in lines.items()]
                if fixed is not None:
                    units += [(("fixed", f), k) for f, k in rho_localize(one).items()]
                one_class = classify(one)
                if (all(u in index for u, _ in units) and one_class in allowed
                        and all(forgetful_image_dims(one).get(e) == lines.get(e)
                                for e in forgetful)):
                    charges = tuple([(index[u], k) for u, k in units])
                    kept.append((charges, free_keys, anti_keys, entry and one_class is klass))
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
