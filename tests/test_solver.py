import itertools
import random

import pytest

from bredon import (
    ConstraintSet,
    ConstraintViolation,
    GradedDims,
    InfeasibleBounds,
    MaximalityClass,
    catalog_get,
    classify,
    enumerate_decompositions,
    krasnov_predict,
    rho_localize,
    satisfies_constraints,
    threefold_predict,
    underlying_singular,
)
from bredon.serialize import canonical_dumps

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


def _box_constraints():
    """Every constraint set of a small box, for the exhaustive sweep.

    Dimensions 1 and 2; Betti entries up to 3 (n = 1) or 2 (n = 2) with
    total 1..4; every duality and fixed-point flag, connectedness whenever
    b0 = 1; every class filter.
    """
    for n, entry_cap in ((1, 3), (2, 2)):
        for betti in itertools.product(range(entry_cap + 1), repeat=2 * n + 1):
            if not 1 <= sum(betti) <= 4:
                continue
            for pd, fixed_point in itertools.product((False, True), repeat=2):
                for connected in (False, True) if betti[0] == 1 else (False,):
                    for class_filter in (None, M, GM, NEITHER):
                        yield ConstraintSet(
                            dimension=n,
                            betti_total=GradedDims.from_list(betti),
                            has_fixed_point=fixed_point,
                            connected=connected,
                            poincare_dual=pd,
                            class_filter=class_filter,
                        )


def test_exhaustive_box_against_brute_force():
    cases = nonempty = 0
    for cs in _box_constraints():
        fast = enumerate_decompositions(cs)
        assert fast == brute_force_decompositions(cs), cs.to_json_dict()
        cases += 1
        nonempty += bool(fast)
    assert (cases, nonempty) == (2672, 1175)


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


def test_one_underlying_singular_per_candidate(monkeypatch):
    """The re-check computes singular cohomology once per candidate."""
    import bredon.localization
    import bredon.solver

    counts = {"singular": 0, "candidates": 0}
    singular = bredon.localization.underlying_singular
    recheck = bredon.solver.satisfies_constraints

    def counted_singular(module):
        counts["singular"] += 1
        return singular(module)

    def counted_recheck(cs, module):
        counts["candidates"] += 1
        return recheck(cs, module)

    for namespace in (bredon.localization, bredon.solver):
        monkeypatch.setattr(namespace, "underlying_singular", counted_singular)
    monkeypatch.setattr(bredon.solver, "satisfies_constraints", counted_recheck)
    cs = ConstraintSet(
        dimension=2,
        betti_total=GradedDims.from_list([1, 0, 6, 0, 1]),
        has_fixed_point=True,
        connected=True,
        poincare_dual=True,
    )
    enumerate_decompositions(cs)
    assert counts == {"singular": 10, "candidates": 10}


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
    cs = ConstraintSet(
        dimension=1,
        betti_total=GradedDims.from_list([1, 0, 0, 5]),
    )
    with pytest.raises(InfeasibleBounds):
        enumerate_decompositions(cs)


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
