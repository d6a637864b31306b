import itertools
import random
from collections import Counter

import pytest

from bredon import (
    ConstraintSet,
    ConstraintViolation,
    GradedDims,
    InfeasibleBounds,
    MaximalityClass,
    SchemaError,
    SearchTooLarge,
    catalog_get,
    classify,
    enumerate_decompositions,
    krasnov_predict,
    rho_localize,
    satisfies_constraints,
    threefold_predict,
    underlying_singular,
)
from bredon import solver
from bredon.serialize import canonical_dumps
from bredon.solver import _orbit_plan

from bruteforce import brute_force_decompositions

M = MaximalityClass.MAXIMAL
GM = MaximalityClass.GALOIS_MAXIMAL_ONLY
NEITHER = MaximalityClass.NEITHER


def k3_constraints():
    return ConstraintSet(
        dimension=2,
        betti_total=GradedDims.from_list([1, 0, 22, 0, 1]),
        betti_fixed=GradedDims.from_list([2, 0, 2]),
        has_fixed_point=True,
        connected=True,
        poincare_dual=True,
    )


def cubic_constraints(forgetful=True):
    return ConstraintSet(
        dimension=3,
        betti_total=GradedDims.from_list([1, 0, 1, 10, 1, 0, 1]),
        betti_fixed=GradedDims.from_list([2, 1, 1, 2]),
        has_fixed_point=True,
        connected=True,
        poincare_dual=True,
        forgetful_onto_degrees=frozenset({4}) if forgetful else None,
    )


def test_k3_unique():
    solutions = enumerate_decompositions(k3_constraints())
    assert solutions == [catalog_get("k3", b_star=4, chi=4).module]


def test_k3_matches_brute_force():
    cs = k3_constraints()
    assert enumerate_decompositions(cs) == brute_force_decompositions(cs)


def test_k3_betti_fiber_matches_brute_force():
    """The Betti-only K3 fiber, where many search paths share states."""
    cs = ConstraintSet(
        dimension=2, betti_total=GradedDims.from_list([1, 0, 22, 0, 1])
    )
    solutions = enumerate_decompositions(cs)
    assert len(solutions) == 10146
    assert solutions == brute_force_decompositions(cs)


def _random_constraints(rng):
    n = rng.randint(1, 3)
    top = 2 * n
    connected = rng.random() < 0.6
    while True:
        betti = [rng.randint(0, 3) for _ in range(top + 1)]
        if connected:
            betti[0] = 1
        if rng.random() < 0.6:  # symmetrize so duality instances are nonvacuous
            for d in range(n + 1):
                betti[top - d] = betti[d]
        if 0 < sum(betti) <= 10:
            break
    has_fixed = rng.random() < 0.6
    betti_fixed = None
    if rng.random() < 0.4:
        betti_fixed = [rng.randint(0, 2) for _ in range(n + 1)]
        if has_fixed and sum(betti_fixed) == 0:
            betti_fixed[0] = 1
        betti_fixed = GradedDims.from_list(betti_fixed)
    forgetful = None
    if rng.random() < 0.3:
        forgetful = frozenset(
            d for d in range(top + 1) if rng.random() < 0.3
        ) or None
    class_filter = rng.choice([None, None, M, GM, NEITHER])
    return ConstraintSet(
        dimension=n,
        betti_total=GradedDims.from_list(betti),
        betti_fixed=betti_fixed,
        has_fixed_point=has_fixed,
        connected=connected,
        poincare_dual=rng.random() < 0.5,
        forgetful_onto_degrees=forgetful,
        class_filter=class_filter,
    )


def test_completeness_against_brute_force():
    rng = random.Random(424242)
    nonempty = 0
    for _ in range(60):
        cs = _random_constraints(rng)
        fast = enumerate_decompositions(cs)
        slow = brute_force_decompositions(cs)
        assert fast == slow, cs.to_json_dict()
        nonempty += bool(fast)
    assert nonempty >= 10  # the comparison must not be vacuous


def _box_constraints(boxes=((1, 3), (2, 2)), fixed_lists=(None,)):
    """Every constraint set of a small box, for the exhaustive sweeps.

    For each ``(n, entry cap)`` box: Betti entries up to the cap with total
    1..4; every fixed-locus Betti list of ``fixed_lists``; every duality and
    fixed-point flag, connectedness whenever b0 = 1; every class filter.
    Sets that ``ConstraintSet`` rejects are skipped.
    """
    for n, entry_cap in boxes:
        for betti in itertools.product(range(entry_cap + 1), repeat=2 * n + 1):
            if not 1 <= sum(betti) <= 4:
                continue
            for pd, fixed_point in itertools.product((False, True), repeat=2):
                for connected in (False, True) if betti[0] == 1 else (False,):
                    for fixed in fixed_lists:
                        for class_filter in (None, M, GM, NEITHER):
                            try:
                                cs = ConstraintSet(
                                    dimension=n,
                                    betti_total=GradedDims.from_list(betti),
                                    betti_fixed=(
                                        None if fixed is None
                                        else GradedDims.from_list(fixed)
                                    ),
                                    has_fixed_point=fixed_point,
                                    connected=connected,
                                    poincare_dual=pd,
                                    class_filter=class_filter,
                                )
                            except ConstraintViolation:
                                continue
                            yield cs


def _sweep_against_brute_force(constraint_sets):
    """(sets, nonempty sets), asserting the search equals the oracle on each."""
    cases = nonempty = 0
    for cs in constraint_sets:
        fast = enumerate_decompositions(cs)
        assert fast == brute_force_decompositions(cs), cs.to_json_dict()
        cases += 1
        nonempty += bool(fast)
    return cases, nonempty


def test_exhaustive_box_against_brute_force():
    assert _sweep_against_brute_force(_box_constraints()) == (2672, 1175)


def test_exhaustive_fixed_box_against_brute_force():
    """n = 1 with every fixed-locus Betti list [a, b], a, b <= 2."""
    fixed_lists = list(itertools.product(range(3), repeat=2))
    sets = _box_constraints(boxes=((1, 3),), fixed_lists=fixed_lists)
    assert _sweep_against_brute_force(sets) == (5576, 470)


def _count_candidates(monkeypatch):
    """The list that every module the search materializes appends to."""
    import bredon.solver

    made = []
    build = bredon.solver.make_module

    def counted(*rows):
        made.append(rows)
        return build(*rows)

    monkeypatch.setattr(bredon.solver, "make_module", counted)
    return made


def test_every_candidate_passes(monkeypatch):
    """The budgets make the search exact: under every class filter, every
    module it materializes passes the re-check, so no budget is left
    unchecked when the search jumps past a spent degree, and the class entry
    leaves no candidate of the wrong class."""
    made = _count_candidates(monkeypatch)
    fixed_lists = list(itertools.product(range(3), repeat=2))
    sets = itertools.chain(
        _box_constraints(), _box_constraints(boxes=((1, 3),), fixed_lists=fixed_lists)
    )
    candidates = Counter()
    checked = 0
    for cs in sets:
        made.clear()
        assert len(enumerate_decompositions(cs)) == len(made), cs.to_json_dict()
        candidates[cs.class_filter] += len(made)
        checked += 1
    assert checked == 8248
    assert candidates[GM] == 747 and candidates[NEITHER] == 1869


def test_neither_filter_builds_only_accepted_modules(monkeypatch):
    """The n = 4 duality set with class filter NEITHER materializes exactly
    the modules it returns."""
    made = _count_candidates(monkeypatch)
    cs = ConstraintSet(
        dimension=4,
        betti_total=GradedDims.from_list([1, 0, 3, 0, 14, 0, 3, 0, 1]),
        has_fixed_point=True,
        connected=True,
        poincare_dual=True,
        class_filter=NEITHER,
    )
    solutions = enumerate_decompositions(cs)
    assert len(made) == len(solutions) == 2503


def test_odd_middle_betti_number_ends_at_once():
    """Under duality every orbit charges the middle degree of odd n two
    units, so an odd middle Betti number ends the search before it starts."""
    import time

    n = 25
    cs = ConstraintSet(
        dimension=n,
        betti_total=GradedDims.from_list([1, 0] + [1] * (2 * n - 3) + [0, 1]),
        has_fixed_point=True,
        connected=True,
        poincare_dual=True,
    )
    start = time.perf_counter()
    assert enumerate_decompositions(cs) == []
    assert time.perf_counter() - start < 1.0
    names, _, _, units = _orbit_plan(
        n, cs.betti_total.support(), None, True, True, frozenset(), None
    )
    assert (names.index(("betti", n)), 2) in units and cs.betti_total.get(n) % 2


def _random_module_in_box(rng, n):
    """A random normal form inside the search box for dimension n."""
    from bredon import make_module

    top = 2 * n
    free = [(0, 0, 1)]
    for _ in range(rng.randint(0, 3)):
        p = rng.randint(0, top)
        q = rng.randint(0, min(p, n))
        free.append((p, q, rng.randint(1, 2)))
    antipodal = []
    for _ in range(rng.randint(0, 2)):
        r = rng.randint(1, max(1, top - 1))
        t = rng.randint(0, max(0, top - 1 - r))
        antipodal.append((r, t, rng.randint(1, 2)))
    return make_module(free, antipodal)


def test_solver_recovers_planted_modules():
    """Constraints derived from a module must lead the search back to it."""
    rng = random.Random(90125)
    for _ in range(40):
        n = rng.randint(1, 3)
        module = _random_module_in_box(rng, n)
        betti = underlying_singular(module).dims()
        if betti.total() > 14 or max(betti.support() or (0,)) > 2 * n:
            continue
        cs = ConstraintSet(
            dimension=n,
            betti_total=betti,
            betti_fixed=rho_localize(module),
            has_fixed_point=True,
        )
        solutions = enumerate_decompositions(cs)
        assert module in solutions
        assert solutions == brute_force_decompositions(cs)


def test_soundness_of_returned_modules():
    rng = random.Random(77)
    checked = 0
    for _ in range(25):
        cs = _random_constraints(rng)
        for m in enumerate_decompositions(cs):
            assert satisfies_constraints(cs, m)
            assert underlying_singular(m).dims() == cs.betti_total
            if cs.betti_fixed is not None:
                assert rho_localize(m) == cs.betti_fixed
            checked += 1
    assert checked > 0


def test_one_singular_computation_per_candidate(monkeypatch):
    """The re-check computes the singular Betti numbers once per candidate,
    through singular_betti, and never builds the whole singular space."""
    import sys

    import bredon.localization
    import bredon.solver

    counts = {"singular_betti": 0, "underlying_singular": 0, "candidates": 0}
    recheck = bredon.solver.satisfies_constraints

    def counted(name, fn):
        def wrapper(*args):
            counts[name] += 1
            return fn(*args)

        return wrapper

    for name in ("singular_betti", "underlying_singular"):
        original = getattr(bredon.localization, name)
        wrapper = counted(name, original)
        for key, namespace in list(sys.modules.items()):
            if key.partition(".")[0] == "bredon" and vars(namespace).get(name) is original:
                monkeypatch.setattr(namespace, name, wrapper)
    monkeypatch.setattr(bredon.solver, "satisfies_constraints", counted("candidates", recheck))
    cs = ConstraintSet(
        dimension=2,
        betti_total=GradedDims.from_list([1, 0, 6, 0, 1]),
        has_fixed_point=True,
        connected=True,
        poincare_dual=True,
    )
    enumerate_decompositions(cs)
    assert counts == {"singular_betti": 10, "underlying_singular": 0, "candidates": 10}


def test_first_candidate_is_fast(monkeypatch):
    """The search state is polynomial in the data, so the first candidate
    of a set with 89 M decompositions comes long before they are all built."""
    import time

    import bredon.solver

    class FirstCandidate(Exception):
        pass

    def stop(*args):
        raise FirstCandidate

    monkeypatch.setattr(bredon.solver, "make_module", stop)
    cs = ConstraintSet(dimension=3, betti_total=GradedDims.from_list([1, 0, 3, 20, 3, 0, 1]))
    start = time.perf_counter()
    with pytest.raises(FirstCandidate):
        enumerate_decompositions(cs)
    assert time.perf_counter() - start < 2.0


def test_determinism():
    cs = k3_constraints()
    first = enumerate_decompositions(cs)
    second = enumerate_decompositions(cs)
    assert first == second
    assert [canonical_dumps(m.to_json_dict()) for m in first] == [
        canonical_dumps(m.to_json_dict()) for m in second
    ]


def test_empty_result_is_not_an_error():
    cs = ConstraintSet(
        dimension=1,
        betti_total=GradedDims.from_list([0, 1, 0]),
        poincare_dual=True,
    )
    assert enumerate_decompositions(cs) == []


def test_infeasible_bounds():
    """Support outside degrees 0..2n is an input error, in either Betti list."""
    for total, fixed, message in (
        ([1, 0, 0, 5], None, "betti_total has dimension 5 in degree 3, outside [0, 2]"),
        ([1, 0, 1], [1, 0, 0, 1], "betti_fixed has dimension 1 in degree 3, outside [0, 2]"),
    ):
        with pytest.raises(InfeasibleBounds) as info:
            ConstraintSet(
                dimension=1,
                betti_total=GradedDims.from_list(total),
                betti_fixed=None if fixed is None else GradedDims.from_list(fixed),
            )
        assert str(info.value) == message


def test_search_too_large():
    """A search needing more states than the fixed bound is a documented
    input error, raised while the states are built."""
    n = 50
    cs = ConstraintSet(
        dimension=n,
        betti_total=GradedDims.from_list([1, 0] + [1] * (2 * n - 3) + [0, 1]),
        has_fixed_point=True,
        connected=True,
        poincare_dual=True,
    )
    with pytest.raises(SearchTooLarge) as info:
        enumerate_decompositions(cs)
    assert str(info.value) == "the search for n=50 needs more than 65536 states"


def test_long_empty_run_needs_no_deep_stack():
    """``{0: 1, 2n: 1}`` passes over 2n - 1 empty degrees; its n + 2 modules
    come back whatever the caller's stack depth."""
    cs = ConstraintSet(dimension=1000, betti_total=GradedDims(((0, 1), (2000, 1))))
    results = enumerate_decompositions(cs)
    assert len(results) == 1002

    def nested(depth):
        return enumerate_decompositions(cs) if depth == 0 else nested(depth - 1)

    assert nested(400) == results


def test_state_bound_counts_states_not_paths(monkeypatch):
    """n=2 ``[1,0,4,0,1]`` has 147 modules over 52 search states: the bound
    admits it at 52 states and refuses it at 51."""
    cs = ConstraintSet(dimension=2, betti_total=GradedDims.from_list([1, 0, 4, 0, 1]))
    monkeypatch.setattr(solver, "_MAX_STATES", 52)
    assert len(enumerate_decompositions(cs)) == 147
    monkeypatch.setattr(solver, "_MAX_STATES", 51)
    with pytest.raises(SearchTooLarge) as info:
        enumerate_decompositions(cs)
    assert str(info.value) == "the search for n=2 needs more than 51 states"


def test_plan_follows_the_data():
    """The plan names only the budgets that start positive, and only keys
    whose every charged budget is named become slots."""
    n = 300
    names, slots, closing, _ = _orbit_plan(n, (0,), None, False, False, frozenset(), None)
    # a point offers M2[0,0] and A0[0], not one slot per key of degrees 0..600
    assert names == (("betti", 0),)
    assert [(free, anti) for _, free, anti, *_ in slots] == [(((0, 0),), ()), ((), ((0, 0),))]
    assert closing == [[], [], [0]]
    cs = ConstraintSet(dimension=n, betti_total=GradedDims.from_list([1]))
    assert [m.to_json_dict() for m in enumerate_decompositions(cs)] == [
        {"free": [[0, 0, 1]], "antipodal": []}
    ]
    for cs in (k3_constraints(), cubic_constraints()):
        betti, fixed = cs.betti_total.support(), cs.betti_fixed.support()
        forgetful = cs.forgetful_onto_degrees or frozenset()
        names, slots, _, _ = _orbit_plan(cs.dimension, betti, fixed, True, True, forgetful, None)
        # one budget per degree the data names, and no other
        assert names == tuple([("betti", d) for d in betti] + [("fixed", f) for f in fixed])
        assert slots


def test_plan_cost_does_not_grow_with_n():
    """A point in dimension 200,000: the plan tries only antipodal spans
    whose end degree starts positive, so its cost follows the data."""
    import time

    n = 200_000
    cs = ConstraintSet(dimension=n, betti_total=GradedDims.from_list([1]))
    start = time.perf_counter()
    assert [str(m) for m in enumerate_decompositions(cs)] == ["M2[0,0]"]
    assert time.perf_counter() - start < 0.5
    assert len(_orbit_plan(n, (0,), None, False, False, frozenset(), None)[1]) == 2


@pytest.mark.parametrize("n, total, fixed, expected, bound", [
    # a point: one budget, whatever n is
    (10**6, {0: 1}, None, ["M2[0,0]"], 0.05),
    # two cells with full fixed data and no duality: four budgets
    (200_000, {0: 1, 400_000: 1}, {0: 1, 200_000: 1}, ["M2[0,0] + M2[400000,200000]"], 0.05),
    # Betti-only two cells: n + 1 free weights in the top degree
    (600, {0: 1, 1200: 1}, None,
     ["A1200[0]"] + [f"M2[0,0] + M2[1200,{q}]" for q in range(601)], None),
], ids=["point", "two_cells_fixed", "two_cells_betti_only"])
def test_search_cost_follows_the_data(n, total, fixed, expected, bound):
    """The search holds one budget per degree the data names, so data of
    fixed size is searched in time independent of n."""
    import time

    cs = ConstraintSet(
        dimension=n,
        betti_total=GradedDims(tuple(total.items())),
        betti_fixed=None if fixed is None else GradedDims(tuple(fixed.items())),
        has_fixed_point=fixed is not None,
    )
    start = time.perf_counter()
    assert [str(m) for m in enumerate_decompositions(cs)] == expected
    if bound is not None:
        assert time.perf_counter() - start < bound


def test_constraint_set_invariants():
    with pytest.raises(ConstraintViolation):
        ConstraintSet(
            dimension=1,
            betti_total=GradedDims.from_list([2, 0, 2]),
            connected=True,
        )
    with pytest.raises(ConstraintViolation):
        ConstraintSet(
            dimension=1,
            betti_total=GradedDims.from_list([1, 0, 1]),
            betti_fixed=GradedDims(),
            has_fixed_point=True,
        )
    with pytest.raises(ConstraintViolation):
        ConstraintSet(dimension=-1, betti_total=GradedDims.from_list([1]))


def test_json_round_trip():
    cs = cubic_constraints(forgetful=True)
    data = cs.to_json_dict()
    assert data["n"] == 3
    assert data["betti_total"] == [1, 0, 1, 10, 1, 0, 1]
    assert data["forgetful_onto_degrees"] == [4]
    again = ConstraintSet.from_json_dict(data)
    assert again == cs
    assert canonical_dumps(again.to_json_dict()) == canonical_dumps(data)


def test_k3_constraints_json():
    assert canonical_dumps(k3_constraints().to_json_dict()) == (
        '{"n":2,"betti_total":[1,0,22,0,1],"betti_fixed":[2,0,2],"has_fixed_point":true,'
        '"connected":true,"poincare_dual":true,"forgetful_onto_degrees":null,'
        '"class_filter":null}'
    )


@pytest.mark.parametrize("betti_fixed, written", [
    ([0, 0], [0, 0]),
    ([0, 0, 0], [0, 0]),
    ([1], [1, 0]),
    ([0, 0, 1], [0, 0, 1]),
])
def test_betti_fixed_json_length(betti_fixed, written):
    # The fixed list runs to degree max(n, top of its support), so an
    # empty fixed locus (a free involution) is written as n + 1 zeros.
    data = {"n": 1, "betti_total": [2, 0, 0], "betti_fixed": betti_fixed}
    cs = ConstraintSet.from_json_dict(data)
    assert cs.to_json_dict()["betti_fixed"] == written
    assert ConstraintSet.from_json_dict(cs.to_json_dict()) == cs


def _k3_json(**changes):
    data = k3_constraints().to_json_dict()
    data.update(changes)
    return data


@pytest.mark.parametrize("data, field, message", [
    (_k3_json(betti_total=None), "constraints.betti_total", "expected a list"),
    ({"n": 2}, "constraints.betti_total", "missing required field"),
    (_k3_json(n=True), "constraints.n", "expected a nonnegative integer"),
    (_k3_json(n=1.0), "constraints.n", "expected a nonnegative integer"),
    (_k3_json(n=-1), "constraints.n", "expected a nonnegative integer"),
    (_k3_json(connected=1), "constraints.connected", "expected a boolean"),
    (_k3_json(betti_total=[1, 0, "22", 0, 1]), "constraints.betti_total[2]",
     "expected a nonnegative integer"),
    (_k3_json(class_filter=""), "constraints.class_filter", "unknown class code ''"),
    (_k3_json(class_filter="X"), "constraints.class_filter", "unknown class code 'X'"),
    (_k3_json(class_filter=1), "constraints.class_filter", "expected a string"),
    (_k3_json(poincare_duel=True), "constraints.poincare_duel", "unknown field"),
    ([], "constraints", "expected an object"),
    (_k3_json(betti_fixed=[2, -1, 2]), "constraints.betti_fixed[1]",
     "expected a nonnegative integer"),
    (_k3_json(forgetful_onto_degrees=[4, 2.0]), "constraints.forgetful_onto_degrees[1]",
     "expected an integer"),
    (_k3_json(has_fixed_point="yes"), "constraints.has_fixed_point", "expected a boolean"),
    (_k3_json(n="2", betti_total="x"), "constraints.n", "expected a nonnegative integer"),
])
def test_invalid_constraint_files(data, field, message):
    with pytest.raises(SchemaError) as info:
        ConstraintSet.from_json_dict(data)
    assert info.value.field == field
    assert str(info.value) == f"{field}: {message}"


def test_predictors():
    k3 = k3_constraints()
    pred = krasnov_predict(k3)
    assert pred.applicable and pred.prediction == "GM"
    assert pred.admits(M) and pred.admits(GM) and not pred.admits(NEITHER)

    bumpy = ConstraintSet(
        dimension=2,
        betti_total=GradedDims.from_list([1, 2, 0, 2, 1]),
        has_fixed_point=True,
        connected=True,
        poincare_dual=True,
    )
    assert not krasnov_predict(bumpy).applicable
    assert not krasnov_predict(cubic_constraints()).applicable

    cubic = cubic_constraints(forgetful=True)
    assert threefold_predict(cubic).applicable
    assert not threefold_predict(cubic_constraints(forgetful=False)).applicable
    assert not threefold_predict(k3).applicable


def test_theorem_conformance_small():
    rng = random.Random(5150)
    found = 0
    for _ in range(40):
        b2 = rng.randint(0, 8)
        cs = ConstraintSet(
            dimension=2,
            betti_total=GradedDims.from_list([1, 0, b2, 0, 1]),
            has_fixed_point=True,
            connected=True,
            poincare_dual=True,
        )
        assert krasnov_predict(cs).applicable
        for m in enumerate_decompositions(cs):
            assert krasnov_predict(cs).admits(classify(m))
            found += 1
    assert found > 0
