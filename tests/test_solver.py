import hashlib
import itertools
import json
import random
from collections import Counter
from dataclasses import replace
from pathlib import Path

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
    forgetful_image_dims,
    krasnov_predict,
    make_module,
    real_manifold_validate,
    rho_localize,
    satisfies_constraints,
    threefold_predict,
    underlying_singular,
)
from bredon import solver
from bredon.serialize import canonical_dumps
from bredon.solver import _orbit_plan

from bruteforce import brute_force_decompositions, naive_fiber
from latticecount import lattice_count

M = MaximalityClass.MAXIMAL
GM = MaximalityClass.GALOIS_MAXIMAL_ONLY
NEITHER = MaximalityClass.NEITHER
ROOT = Path(__file__).resolve().parents[1]


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
        has_fixed = sum(betti_fixed) > 0  # the fixed list decides the flag
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


def _assert_strictly_sorted(modules, cs):
    """The walk yields canonical order itself: each sort key exceeds the last."""
    keys = [m.sort_key() for m in modules]
    assert all(a < b for a, b in zip(keys, keys[1:])), cs.to_json_dict()


def test_completeness_against_brute_force():
    rng = random.Random(424242)
    nonempty = 0
    for _ in range(60):
        cs = _random_constraints(rng)
        fast = enumerate_decompositions(cs)
        slow = brute_force_decompositions(cs)
        assert fast == slow, cs.to_json_dict()
        assert lattice_count(cs) == len(fast), cs.to_json_dict()
        _assert_strictly_sorted(fast, cs)
        nonempty += bool(fast)
    assert nonempty >= 10  # the comparison must not be vacuous


def _box_constraints(boxes=((1, 3), (2, 2)), fixed_lists=(None,), onto=False):
    """Every constraint set of a small box, for the exhaustive sweeps.

    For each ``(n, entry cap)`` box: Betti entries up to the cap with total
    1..4; every fixed-locus Betti list of ``fixed_lists``; every duality and
    fixed-point flag, connectedness whenever b0 = 1; every class filter;
    with ``onto``, every nonempty subset of the Betti support as the
    forgetful degrees, else none.  Sets that ``ConstraintSet`` rejects are
    skipped, among them every fixed-point flag that its fixed-locus list
    contradicts.
    """
    for n, entry_cap in boxes:
        for betti in itertools.product(range(entry_cap + 1), repeat=2 * n + 1):
            if not 1 <= sum(betti) <= 4:
                continue
            support = [d for d, b in enumerate(betti) if b]
            onto_lists = [
                frozenset(c) for size in range(1, len(support) + 1)
                for c in itertools.combinations(support, size)
            ] if onto else [None]
            for pd, fixed_point, connected, fixed, class_filter, onto_degrees in itertools.product(
                (False, True), (False, True), (False, True) if betti[0] == 1 else (False,),
                fixed_lists, (None, M, GM, NEITHER), onto_lists,
            ):
                try:
                    cs = ConstraintSet(
                        dimension=n,
                        betti_total=GradedDims.from_list(betti),
                        betti_fixed=None if fixed is None else GradedDims.from_list(fixed),
                        has_fixed_point=fixed_point,
                        connected=connected,
                        poincare_dual=pd,
                        forgetful_onto_degrees=onto_degrees,
                        class_filter=class_filter,
                    )
                except ConstraintViolation:
                    continue
                yield cs


def _sweep_against_brute_force(constraint_sets, made):
    """(sets, nonempty sets, candidates per class filter), asserting on each
    set that the search equals the oracle and the lattice count, yields its
    modules in strictly increasing canonical order, and materializes exactly
    the modules it returns: ``made`` is the ``_count_candidates`` list.

    That last check shows the budgets make the search exact under every
    class filter: no budget is left unchecked when the search jumps past a
    spent degree, and the class entry leaves no candidate of the wrong
    class."""
    cases = nonempty = 0
    candidates = Counter()
    for cs in constraint_sets:
        made.clear()
        fast = enumerate_decompositions(cs)
        assert len(made) == len(fast), cs.to_json_dict()
        assert fast == brute_force_decompositions(cs), cs.to_json_dict()
        assert lattice_count(cs) == len(fast), cs.to_json_dict()
        _assert_strictly_sorted(fast, cs)
        cases += 1
        nonempty += bool(fast)
        candidates[cs.class_filter] += len(made)
    return cases, nonempty, candidates


def _assert_trusted(module, rows):
    """A module the walk built without ``make_module``'s checks is the module
    ``make_module`` builds from the same rows, and its rows are canonical:
    tuples of int triples in strictly increasing key order, multiplicities
    at least 1."""
    assert module == make_module(*rows)
    for part in (module.free, module.antipodal):
        assert type(part) is tuple
        for row in part:
            assert type(row) is tuple and len(row) == 3
            assert all(type(entry) is int for entry in row) and row[2] >= 1
        assert all(a[:2] < b[:2] for a, b in zip(part, part[1:]))


def _count_candidates(monkeypatch):
    """The list that every module the search materializes appends to, as
    the rows the walk gathered.

    Each module is checked against ``make_module`` of those rows
    (``_assert_trusted``).  Each walk record is checked against the
    invariant the walk's order rests on: a state with an exit has no choice
    that sets antipodal rows (solver module docstring, "Walk order")."""
    import bredon.solver

    made = []
    build = bredon.solver._walk_module
    record = bredon.solver._walk_record

    def counted(*rows):
        made.append(rows)
        module = build(*rows)
        _assert_trusted(module, rows)
        return module

    def checked(state, slots):
        segments, leave = record(state, slots)
        assert not leave or not any(anti for _, anti, _ in segments)
        return segments, leave

    monkeypatch.setattr(bredon.solver, "_walk_module", counted)
    monkeypatch.setattr(bredon.solver, "_walk_record", checked)
    return made


def test_exhaustive_box_against_brute_force(monkeypatch):
    made = _count_candidates(monkeypatch)
    cases, nonempty, candidates = _sweep_against_brute_force(_box_constraints(), made)
    assert (cases, nonempty) == (2672, 1175)
    assert (candidates[GM], candidates[NEITHER]) == (675, 1769)


def test_exhaustive_fixed_box_against_brute_force(monkeypatch):
    """n = 1 with every fixed-locus Betti list [a, b], a, b <= 2, and the
    fixed-point flag that list decides."""
    made = _count_candidates(monkeypatch)
    fixed_lists = list(itertools.product(range(3), repeat=2))
    sets = _box_constraints(boxes=((1, 3),), fixed_lists=fixed_lists)
    cases, nonempty, candidates = _sweep_against_brute_force(sets, made)
    assert (cases, nonempty) == (2952, 202)
    assert (candidates[GM], candidates[NEITHER]) == (25, 33)


def test_exhaustive_forgetful_box_against_brute_force(monkeypatch):
    """n = 1 with every nonempty subset of the Betti support as the
    forgetful degrees: the plan's forgetful rule, read off each orbit's
    one-copy module, offers exactly the orbits whose every copy the
    re-check can accept, so the search equals the oracle and every module
    it materializes passes."""
    made = _count_candidates(monkeypatch)
    sets = _box_constraints(boxes=((1, 3),), onto=True)
    cases, nonempty, candidates = _sweep_against_brute_force(sets, made)
    assert (cases, nonempty, sum(candidates.values())) == (2096, 751, 3000)


@pytest.mark.parametrize("cs, count", [
    (ConstraintSet(dimension=2, betti_total=GradedDims.from_list([1, 0, 22, 0, 1])), 10146),
    (ConstraintSet.from_json_dict({"n": 3, "betti_total": [1, 1, 4, 12, 4, 1, 1],
                                   "has_fixed_point": True, "connected": True,
                                   "poincare_dual": True}), 9418),
    (ConstraintSet.from_json_dict({"n": 4, "betti_total": [1, 0, 3, 0, 14, 0, 3, 0, 1],
                                   "has_fixed_point": True, "connected": True,
                                   "poincare_dual": True, "class_filter": "NEITHER"}), 2503),
    (ConstraintSet(dimension=3, betti_total=GradedDims.from_list([1, 0, 1, 10, 1, 0, 1])), 130687),
    (k3_constraints(), 1),
    (cubic_constraints(), 3),
], ids=["k3_betti", "pd_n3", "pd_n4_neither", "cubic_betti", "k3_s2s2", "cubic_s3_rp3"])
def test_lattice_count_of_known_fibers(cs, count):
    """The lattice count gives the size of each benchmark and demo fiber,
    the Betti-only cubic (130,687 modules) included, without a search."""
    assert lattice_count(cs) == count


def test_betti_only_cubic_fiber_output():
    """The Betti-only cubic fiber, the largest the tests list: its 130,687
    modules and the sha256 of their ``bredon solve`` lines, one
    ``to_json_text`` line each, in the walk's canonical order."""
    cs = ConstraintSet(dimension=3, betti_total=GradedDims.from_list([1, 0, 1, 10, 1, 0, 1]))
    digest = hashlib.sha256()
    count = 0
    for module in solver.iter_decompositions(cs):
        digest.update((module.to_json_text() + "\n").encode())
        count += 1
    assert count == 130687
    assert digest.hexdigest() == "7900249acb30a87eb8e983b0ec36c3fc3ba88689a5993f051ac18547fbce157e"


# Without duality the re-check does not bound the keys, so each of these
# modules, which lies outside the search box, meets its constraint set.
_BOX_GAP = pytest.mark.parametrize("data, free, antipodal", [
    ({"n": 1, "betti_total": [1, 0, 1]}, [(0, 0, 1), (2, 2, 1)], []),
    ({"n": 1, "betti_total": [2, 1, 0], "has_fixed_point": True}, [(0, 0, 1)], [(0, 1, 1)]),
    ({"n": 2, "betti_total": [1, 0, 22, 0, 1]}, [(0, 0, 1), (2, 1, 22), (4, 4, 1)], []),
], ids=["sphere_2_2", "point_and_antipodal_circle", "k3_betti"])


@_BOX_GAP
def test_box_gap_modules_meet_the_constraints(data, free, antipodal):
    assert satisfies_constraints(ConstraintSet.from_json_dict(data), make_module(free, antipodal))


@pytest.mark.xfail(strict=True, reason="ROADMAP item 5: without duality the search "
                   "offers only the keys of its box")
@_BOX_GAP
def test_box_gap_modules_are_found(data, free, antipodal):
    cs = ConstraintSet.from_json_dict(data)
    assert make_module(free, antipodal) in enumerate_decompositions(cs)


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


@pytest.mark.parametrize("path", [
    *(ROOT / "benchmarks" / "data" / f"{name}.json" for name in ("k3_betti", "pd_n3", "pd_n4_neither")),
    *sorted((ROOT / "demos" / "data").glob("*.json")),
], ids=lambda path: path.stem)
def test_walk_builds_trusted_modules_on_benchmark_and_demo_sets(path, monkeypatch):
    """On the benchmark and demo sets, every module the walk builds without
    ``make_module``'s checks equals ``make_module`` of its rows and is
    canonical (``_assert_trusted``), and every one is returned."""
    made = _count_candidates(monkeypatch)
    cs = ConstraintSet.from_json_dict(json.loads(path.read_text()))
    solutions = enumerate_decompositions(cs)
    assert solutions and len(made) == len(solutions)


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


@pytest.mark.parametrize("data", [
    {"n": 0, "betti_total": []},
    {"n": 2, "betti_total": []},
    {"n": 2, "betti_total": [], "poincare_dual": True},
], ids=["n0", "n2", "n2_dual"])
def test_empty_betti_data_yields_the_zero_module(data):
    """Empty Betti data names no budget, so the first search state
    completes at once and the search yields exactly the zero module."""
    cs = ConstraintSet.from_json_dict(data)
    assert enumerate_decompositions(cs) == [make_module([], [])]


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


def _failed_conditions(cs, module):
    """The conditions of ``cs`` that ``module`` fails, in the order the
    re-check tests them, each decided here through the public operations."""
    n = cs.dimension
    image = forgetful_image_dims(module)
    passed = {
        "betti": underlying_singular(module).dims() == cs.betti_total,
        "fixed": rho_localize(module) == cs.betti_fixed,
        "manifold": real_manifold_validate(
            module, n, cs.has_fixed_point, cs.connected
        ).passed,
        "forgetful": all(
            image.get(d) == cs.betti_total.get(d) for d in cs.forgetful_onto_degrees
        ),
        "class": classify(module) is cs.class_filter,
    }
    return [condition for condition, ok in passed.items() if not ok]


@pytest.mark.parametrize("condition, n, betti, fixed, onto, klass, fiber", [
    ("betti", 2, [1, 0, 4, 0, 1], [2, 0, 2], 2, GM, [1, 0, 6, 0, 1]),
    ("fixed", 2, [1, 0, 2, 0, 1], [1, 0, 1], 2, M, [1, 0, 2, 0, 1]),
    ("manifold", 1, [1, 1, 1], [1, 2], 1, M, [1, 1, 1]),
    ("forgetful", 2, [1, 0, 2, 0, 1], [1, 0, 1], 2, GM, [1, 0, 2, 0, 1]),
    ("class", 2, [1, 0, 2, 0, 1], [1, 0, 1], 0, M, [1, 0, 2, 0, 1]),
], ids=["betti", "fixed", "manifold", "forgetful", "class"])
def test_recheck_rejects_each_failed_condition(condition, n, betti, fixed, onto, klass, fiber):
    """Every condition of the re-check can reject on its own: a module of the
    oracle's fiber that meets every other condition of the set, all of them
    given, and fails this one is refused."""
    cs = ConstraintSet(
        dimension=n,
        betti_total=GradedDims.from_list(betti),
        betti_fixed=GradedDims.from_list(fixed),
        has_fixed_point=True,
        connected=True,
        poincare_dual=True,
        forgetful_onto_degrees=frozenset({onto}),
        class_filter=klass,
    )
    modules = naive_fiber(n, fiber, True)
    module = next(m for m in modules if _failed_conditions(cs, m) == [condition])
    assert not satisfies_constraints(cs, module)
    # over the whole fiber it accepts exactly the modules that fail nothing
    for m in modules:
        assert satisfies_constraints(cs, m) == (not _failed_conditions(cs, m)), str(m)


def test_one_singular_computation_per_candidate(monkeypatch):
    """The re-check computes the singular Betti numbers once per candidate,
    through singular_betti, and never builds the whole singular space.

    The plan also reads each orbit's units off singular_betti, so it is
    built (and cached) before the counting starts: the count is then the
    same whether or not an earlier test built it."""
    import sys

    import bredon.localization
    import bredon.solver

    cs = ConstraintSet(
        dimension=2,
        betti_total=GradedDims.from_list([1, 0, 6, 0, 1]),
        has_fixed_point=True,
        connected=True,
        poincare_dual=True,
    )
    enumerate_decompositions(cs)
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
    enumerate_decompositions(cs)
    assert counts == {"singular_betti": 10, "underlying_singular": 0, "candidates": 10}


def test_recheck_builds_no_report_objects(monkeypatch):
    """The duality re-check fails fast through the shared conditions and
    builds no PdReport, ValidationReport or PdViolation per candidate."""
    import bredon.localization

    counts = Counter()
    for name in ("PdReport", "ValidationReport", "PdViolation"):
        cls = getattr(bredon.localization, name)

        def counted(self, *args, _init=cls.__init__, _name=name, **kwargs):
            counts[_name] += 1
            _init(self, *args, **kwargs)

        monkeypatch.setattr(cls, "__init__", counted)
    cs = ConstraintSet(
        dimension=2,
        betti_total=GradedDims.from_list([1, 0, 6, 0, 1]),
        has_fixed_point=True,
        connected=True,
        poincare_dual=True,
    )
    assert len(enumerate_decompositions(cs)) == 10
    assert counts == Counter()
    # the counters do see the exhaustive form
    real_manifold_validate(make_module([(0, 0, 2)]), 2, True, True)
    assert counts == Counter({"PdReport": 1, "ValidationReport": 1, "PdViolation": 1})


def test_first_candidate_is_fast(monkeypatch):
    """The search state is polynomial in the data, so the first candidate
    of a set with 89 M decompositions comes long before they are all built."""
    import time

    import bredon.solver

    class FirstCandidate(Exception):
        pass

    def stop(*args):
        raise FirstCandidate

    monkeypatch.setattr(bredon.solver, "_walk_module", stop)
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
    """n=2 ``[1,0,4,0,1]`` has 147 modules over 108 search states: the bound
    admits it at 108 states and refuses it at 107.  The other sets are
    admitted at their state count, root included, and refused one below it:
    the benchmark sets, the Betti-only cubic, ``[1,0,1,...,1,0,1]`` at
    n = 12 with all three flags, and Betti-only ``{0: 1, 2n: 1}`` at n = 5,
    which has 2n + 9 states."""
    cs = ConstraintSet(dimension=2, betti_total=GradedDims.from_list([1, 0, 4, 0, 1]))
    monkeypatch.setattr(solver, "_MAX_STATES", 108)
    assert len(enumerate_decompositions(cs)) == 147
    monkeypatch.setattr(solver, "_MAX_STATES", 107)
    with pytest.raises(SearchTooLarge) as info:
        enumerate_decompositions(cs)
    assert str(info.value) == "the search for n=2 needs more than 107 states"

    def data(name):
        path = ROOT / "benchmarks" / "data" / f"{name}.json"
        return ConstraintSet.from_json_dict(json.loads(path.read_text()))

    ladder = GradedDims.from_list([1, 0] + [1] * (2 * 12 - 3) + [0, 1])
    for cs, states in [
        (data("k3_betti"), 522),
        (data("pd_n3"), 415),
        (data("pd_n4_neither"), 359),
        (ConstraintSet(dimension=3, betti_total=GradedDims.from_list([1, 0, 1, 10, 1, 0, 1])), 1383),
        (ConstraintSet(dimension=12, betti_total=ladder, has_fixed_point=True,
                       connected=True, poincare_dual=True), 34817),
        (ConstraintSet(dimension=5, betti_total=GradedDims(((0, 1), (10, 1)))), 2 * 5 + 9),
    ]:
        monkeypatch.setattr(solver, "_MAX_STATES", states)
        assert next(solver.iter_decompositions(cs), None) is not None
        monkeypatch.setattr(solver, "_MAX_STATES", states - 1)
        with pytest.raises(SearchTooLarge) as info:
            next(solver.iter_decompositions(cs))
        assert str(info.value) == (
            f"the search for n={cs.dimension} needs more than {states - 1} states"
        )


def _full_data(entry):
    """The constraints a catalog entry's module gives, all of its data known."""
    module = entry.module
    return ConstraintSet(
        dimension=entry.dimension,
        betti_total=underlying_singular(module).dims(),
        betti_fixed=rho_localize(module),
        has_fixed_point=entry.has_fixed_point,
        connected=entry.connected,
        poincare_dual=entry.is_real_manifold,
    )


def test_projective_space_frontier():
    """Deciding the free part first leaves each degree's budget open until
    the antipodal slots: ``projective_space(16)`` with full data needs
    18,533 states and still returns its 2,759 modules, while
    ``projective_space(17)`` needs more than the bound."""
    entry = catalog_get("projective_space", n=16)
    found = enumerate_decompositions(_full_data(entry))
    assert len(found) == 2759 and entry.module in found
    with pytest.raises(SearchTooLarge) as info:
        enumerate_decompositions(_full_data(catalog_get("projective_space", n=17)))
    assert str(info.value) == "the search for n=17 needs more than 65536 states"


def test_iteration_yields_the_list_and_raises_before_any_module():
    """``iter_decompositions`` builds its whole DAG on the first ``next``, so
    a search that is too large yields no module before it raises."""
    cs = ConstraintSet(dimension=2, betti_total=GradedDims.from_list([1, 0, 12, 0, 1]))
    modules = solver.iter_decompositions(cs)
    assert next(modules) == enumerate_decompositions(cs)[0]
    assert [next(modules), *modules] == enumerate_decompositions(cs)[1:]
    too_large = solver.iter_decompositions(
        ConstraintSet(
            dimension=14,
            betti_total=GradedDims.from_list([1, 0] + [1] * 25 + [0, 1]),
            has_fixed_point=True,
            connected=True,
            poincare_dual=True,
        )
    )
    with pytest.raises(SearchTooLarge):
        next(too_large)


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
    # the K3 data with a nonempty fixed locus but without the fixed-point flag
    with pytest.raises(ConstraintViolation) as info:
        ConstraintSet(
            dimension=2,
            betti_total=GradedDims.from_list([1, 0, 22, 0, 1]),
            betti_fixed=GradedDims.from_list([2, 0, 2]),
            connected=True,
            poincare_dual=True,
        )
    assert str(info.value) == (
        "has_fixed_point is False but betti_fixed totals 4: a fixed locus is "
        "nonempty exactly when its total Betti number is positive"
    )


@pytest.mark.parametrize("degree", [44, 7, -4])
def test_forgetful_degrees_outside_the_window(degree):
    # such a degree would drop the surjectivity condition without a word:
    # the cubic's search returned its 5 Betti-and-fixed modules, not 3
    with pytest.raises(InfeasibleBounds) as info:
        replace(cubic_constraints(), forgetful_onto_degrees=frozenset({4, degree}))
    assert str(info.value) == (
        f"forgetful_onto_degrees names degree {degree}, outside [0, 6]"
    )
    assert len(enumerate_decompositions(
        replace(cubic_constraints(), forgetful_onto_degrees=frozenset({0, 4, 6}))
    )) == 3


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
    data = {"n": 1, "betti_total": [2, 0, 0], "betti_fixed": betti_fixed,
            "has_fixed_point": sum(betti_fixed) > 0}
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
    ({"betti_total": [1]}, "constraints.n", "missing required field"),
    (_k3_json(betti_total={"0": 1}), "constraints.betti_total", "expected a list"),
    (_k3_json(betti_total=[1, 0, 22, 0, -1]), "constraints.betti_total[4]",
     "expected a nonnegative integer"),
    (_k3_json(betti_fixed="2,0,2"), "constraints.betti_fixed", "expected a list"),
    (_k3_json(betti_fixed=[2, 0, True]), "constraints.betti_fixed[2]",
     "expected a nonnegative integer"),
    (_k3_json(poincare_dual=1), "constraints.poincare_dual", "expected a boolean"),
    (_k3_json(connected="true"), "constraints.connected", "expected a boolean"),
    (_k3_json(has_fixed_point=0), "constraints.has_fixed_point", "expected a boolean"),
    (_k3_json(forgetful_onto_degrees=4), "constraints.forgetful_onto_degrees",
     "expected a list"),
    (_k3_json(forgetful_onto_degrees=[True]), "constraints.forgetful_onto_degrees[0]",
     "expected an integer"),
    (_k3_json(class_filter=["GM"]), "constraints.class_filter", "expected a string"),
    (_k3_json(class_filter="gm"), "constraints.class_filter", "unknown class code 'gm'"),
    # of several faulty keys, the first in field order is reported
    (_k3_json(forgetful_onto_degrees="x", has_fixed_point="yes"),
     "constraints.has_fixed_point", "expected a boolean"),
])
def test_invalid_constraint_files(data, field, message):
    with pytest.raises(SchemaError) as info:
        ConstraintSet.from_json_dict(data)
    assert info.value.field == field
    assert str(info.value) == f"{field}: {message}"


def test_null_leaves_each_optional_field_at_its_default():
    data = {"n": 2, "betti_total": [1, 0, 22, 0, 1], "betti_fixed": None,
            "has_fixed_point": None, "connected": None, "poincare_dual": None,
            "forgetful_onto_degrees": None, "class_filter": None}
    bare = ConstraintSet(dimension=2, betti_total=GradedDims.from_list([1, 0, 22, 0, 1]))
    assert ConstraintSet.from_json_dict(data) == bare
    assert ConstraintSet.from_json_dict({"n": 2, "betti_total": [1, 0, 22, 0, 1]}) == bare
    assert bare.to_json_dict() == dict(data, has_fixed_point=False, connected=False,
                                       poincare_dual=False)


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
    # a criterion that does not apply predicts nothing and rules out no class
    silent = krasnov_predict(bumpy)
    assert silent.prediction is None
    assert all(silent.admits(klass) for klass in (M, GM, NEITHER))


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
