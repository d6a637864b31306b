"""Independent count of a solve fiber: a lattice count over the key box.

It shares no code with the package's solver and builds no module.  From
the unit model of the solver docstring and the key box of FORMATS.md
("solve") it counts the normal forms that meet a constraint set:

* each orbit of keys in the box is one item: under ``poincare_dual`` a key
  and its Poincare mirror, otherwise a single key, and an orbit whose
  mirror leaves the box is dropped;
* an item's unit vector runs over the degrees with a positive singular
  Betti number and, when the fixed locus is given, those with a positive
  fixed-locus Betti number; an item that charges any other degree is
  dropped, since that budget is zero;
* a forgetful degree d drops every item with an antipodal key (r, t) whose
  span ends there, r + t = d (``t = 0`` included), since its second line in
  degree d is not in the forgetful image;
* class filters work by subtraction: M counts the free items, GM the free
  and ``A0`` items minus the free ones, and NEITHER every item minus the
  free and ``A0`` ones.

An unbounded-knapsack pass over the lattice of budget vectors, of size
prod(b_d + 1), then counts the multisets of items that spend every budget
exactly.  Under duality the multisets of mirror orbits are exactly the
mirror-symmetric modules of the box, and in the box the other manifold
conditions follow from the Betti data, so no further check is needed.
"""

import itertools


def key_box(n, has_fixed_point):
    """The keys ``solve`` searches, as (free keys, antipodal keys):
    free (p, q) with 0 <= q <= p <= 2n and q <= n, and antipodal (r, t) with
    r, t >= 0 and r + t <= 2n, with ``has_fixed_point`` also r >= 1 and
    r + t <= 2n - 1."""
    top = 2 * n
    low, high = (1, top - 1) if has_fixed_point else (0, top)
    free = [(p, q) for p in range(top + 1) for q in range(min(p, n) + 1)]
    antipodal = [(r, t) for r in range(low, high + 1) for t in range(high - r + 1)]
    return free, antipodal


def _items(cs):
    """(kind, units) per item, kind "free", "A0" or "A+", units a dict from
    ("betti", d) or ("fixed", f) to the number of lines one copy adds."""
    n, top = cs.dimension, 2 * cs.dimension
    free, antipodal = key_box(n, cs.has_fixed_point)
    forgetful = cs.forgetful_onto_degrees or ()
    items = []
    for keys, mirror in ((free, lambda p, q: (top - p, n - q)),
                         (antipodal, lambda r, t: (top - r - t, t))):
        box, seen = set(keys), set()
        for key in keys:
            orbit = {key}
            if cs.poincare_dual:
                if mirror(*key) not in box:
                    continue
                orbit.add(mirror(*key))
            orbit = frozenset(orbit)
            if orbit in seen:
                continue
            seen.add(orbit)
            units = {}
            for a, b in orbit:
                lines = [("betti", a)]
                if keys is free:
                    if cs.betti_fixed is not None:
                        lines.append(("fixed", a - b))
                elif a + b in forgetful:
                    break
                else:
                    lines.append(("betti", a + b))
                for line in lines:
                    units[line] = units.get(line, 0) + 1
            else:
                kind = "free" if keys is free else "A0" if key[1] == 0 else "A+"
                items.append((kind, units))
    return items


def _knapsack(budget, items):
    """The number of multisets of the unit vectors ``items`` summing to
    ``budget`` exactly, every vector nonzero and nonnegative."""
    points = list(itertools.product(*[range(b + 1) for b in budget]))
    strides = [1] * len(budget)
    for i in reversed(range(len(budget) - 1)):
        strides[i] = strides[i + 1] * (budget[i + 1] + 1)
    ways = [0] * len(points)
    ways[0] = 1
    for units in items:
        shift = sum(u * s for u, s in zip(units, strides))
        for i in range(shift, len(points)):
            if all(x >= u for x, u in zip(points[i], units)):
                ways[i] += ways[i - shift]
    return ways[-1]


def lattice_count(cs):
    """The number of normal forms that meet ``cs``, by the lattice count."""
    given = [("betti", d, b) for d, b in cs.betti_total.items()]
    if cs.betti_fixed is not None:
        given += [("fixed", f, b) for f, b in cs.betti_fixed.items()]
    coordinates = [(kind, d) for kind, d, b in given if b > 0]
    budget = [b for _, _, b in given if b > 0]
    vectors = []
    for kind, units in _items(cs):
        if all(line in coordinates for line in units):
            vectors.append((kind, [units.get(c, 0) for c in coordinates]))

    def count(kinds):
        return _knapsack(budget, [units for kind, units in vectors if kind in kinds])

    klass = None if cs.class_filter is None else cs.class_filter.value
    if klass is None:
        return count({"free", "A0", "A+"})
    if klass == "M":
        return count({"free"})
    if klass == "GM":
        return count({"free", "A0"}) - count({"free"})
    return count({"free", "A0", "A+"}) - count({"free", "A0"})
