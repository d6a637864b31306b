import pytest
from hypothesis import given, strategies as st

from bredon import (
    BorelModule,
    GradedDims,
    catalog_get,
    fixed_poincare_polynomial,
    forgetful_image_dims,
    homology_dual,
    make_module,
    pd_symmetric,
    real_manifold_validate,
    rho_localize,
    suspend,
    tau_localize,
    underlying_singular,
)

free_entries = st.lists(
    st.tuples(st.integers(0, 6), st.integers(0, 6), st.integers(1, 4)).map(
        lambda t: (t[0] + t[1], t[1], t[2])
    ),
    max_size=5,
)
anti_entries = st.lists(
    st.tuples(st.integers(0, 6), st.integers(0, 5), st.integers(1, 4)), max_size=4
)
modules = st.builds(lambda f, a: make_module(f, a), free_entries, anti_entries)


# ---------------------------------------------------------------------------
# Fixed points
# ---------------------------------------------------------------------------


def test_rho_localize_examples():
    sphere = make_module([(3, 1, 1)])
    assert rho_localize(sphere).items() == ((2, 1),)
    sb1 = catalog_get("severi_brauer_1").module
    assert rho_localize(sb1).items() == ()
    k3 = catalog_get("k3", b_star=4, chi=4).module
    assert rho_localize(k3).items() == ((0, 2), (2, 2))


def test_fixed_poincare_examples():
    p2 = catalog_get("projective_space", n=2).module
    assert str(fixed_poincare_polynomial(p2)) == "1 + t + t^2"
    for g in range(4):
        for r in range(g + 1):
            curve = catalog_get("curve", g=g, r=r).module
            poly = fixed_poincare_polynomial(curve)
            assert poly.coefficient(0) == r + 1 and poly.coefficient(1) == r + 1
    a2 = catalog_get("severi_brauer_1").module
    assert fixed_poincare_polynomial(a2).terms == ()


def test_fixed_poincare_rejects_overweight_modules():
    from bredon import NegativeExponent

    lopsided = make_module([(1, 2, 1)], cw=False)
    with pytest.raises(NegativeExponent):
        fixed_poincare_polynomial(lopsided)


@given(modules)
def test_path_agreement(m):
    assert fixed_poincare_polynomial(m).to_graded_dims() == rho_localize(m)


# ---------------------------------------------------------------------------
# Borel cohomology
# ---------------------------------------------------------------------------


def test_tau_localize_examples():
    sphere = make_module([(3, 1, 1)])
    assert tau_localize(sphere) == BorelModule(((3, 1),), ())
    a_n = make_module([], [(2, 4, 1)])
    assert tau_localize(a_n) == BorelModule((), ((2, 4, 1),))
    k3 = catalog_get("k3", b_star=4, chi=4).module
    borel = tau_localize(k3)
    assert borel.free == ((0, 1), (2, 2), (4, 1))
    assert borel.torsion == ((2, 0, 10),)


# ---------------------------------------------------------------------------
# Underlying singular cohomology
# ---------------------------------------------------------------------------


def test_underlying_singular_examples():
    orbit = make_module([], [(1, 0, 1)])
    space = underlying_singular(orbit)
    assert space.regular == ((1, 1),) and space.trivial == ()
    assert space.total_dimension() == 2
    sb1 = underlying_singular(catalog_get("severi_brauer_1").module)
    assert sb1.trivial == ((0, 1), (2, 1)) and sb1.regular == ()
    elliptic = underlying_singular(catalog_get("elliptic_curve").module)
    assert elliptic.dims().to_list(2) == [1, 2, 1]
    assert elliptic.regular == ()


@given(modules)
def test_dimension_bookkeeping(m):
    total = underlying_singular(m).total_dimension()
    assert total == m.total_free + 2 * m.total_antipodal


# ---------------------------------------------------------------------------
# Forgetful image
# ---------------------------------------------------------------------------


def test_forgetful_examples():
    single = make_module([(2, 1, 1)])
    assert forgetful_image_dims(single).items() == ((2, 1),)
    for g in range(5):
        for r in range(g + 1):
            curve = catalog_get("curve", g=g, r=r).module
            dims = forgetful_image_dims(curve)
            assert dims.get(0) == 1 and dims.get(2) == 1
            assert dims.get(1) == g + r
    # a Maximal module surjects onto singular cohomology
    pn = catalog_get("projective_space", n=3).module
    assert forgetful_image_dims(pn) == underlying_singular(pn).dims()


@given(modules)
def test_forgetful_bounded_by_singular(m):
    image = forgetful_image_dims(m)
    dims = underlying_singular(m).dims()
    for d, v in image.items():
        assert v <= dims.get(d)


@given(modules)
def test_fixed_subspace_identity(m):
    image = forgetful_image_dims(m)
    fixed_subspace = underlying_singular(m).fixed_dims()
    assert (image == fixed_subspace) == (m.total_a_plus == 0)


@given(modules, st.integers(0, 3), st.integers(0, 3))
def test_suspension_equivariance(m, k, q):
    p = q + k
    s = suspend(m, p, q)
    assert rho_localize(s) == rho_localize(m).shift(p - q)
    assert tau_localize(s) == tau_localize(m).shift(p)
    assert underlying_singular(s).dims() == underlying_singular(m).dims().shift(p)
    assert forgetful_image_dims(s) == forgetful_image_dims(m).shift(p)


# ---------------------------------------------------------------------------
# Homology duals and duality symmetry
# ---------------------------------------------------------------------------


def test_homology_dual_keys():
    m2 = make_module([(0, 0, 1)])
    dual = homology_dual(m2)
    assert dual.free == ((0, 0, 1),) and dual.opposite_grading
    a_n = make_module([], [(3, 2, 1)])
    assert homology_dual(a_n).antipodal == ((5, 2, 1),)


def test_dual_key_pairing_arithmetic():
    # the forward transform applied twice shifts by 2n; with the grading flip
    # undone the pairing is an involution
    forward = lambda key: (key[0] + key[1], key[1])
    backward = lambda key: (key[0] - key[1], key[1])
    for r in range(5):
        for n in range(5):
            assert forward(forward((r, n))) == (r + 2 * n, n)
            assert backward(forward((r, n))) == (r, n)


def _pd_reindex(dual, n):
    free = sorted((2 * n - p, n - q, m) for p, q, m in dual.free)
    anti = sorted((2 * n - s, t, m) for s, t, m in dual.antipodal)
    return free, anti


@pytest.mark.parametrize(
    "name,params,n",
    [
        ("point", {}, 0),
        ("projective_space", {"n": 4}, 4),
        ("elliptic_curve", {}, 1),
        ("curve", {"g": 4, "r": 2}, 1),
        ("severi_brauer_1", {}, 1),
        ("severi_brauer_odd", {"k": 2}, 5),
        ("k3", {"b_star": 8, "chi": 0}, 2),
        ("cubic_threefold_s3_rp3", {}, 3),
    ],
)
def test_duality_reproduces_symmetric_modules(name, params, n):
    module = catalog_get(name, **params).module
    assert pd_symmetric(module, n).holds
    free, anti = _pd_reindex(homology_dual(module), n)
    assert free == sorted(module.free)
    assert anti == sorted(module.antipodal)


@given(
    st.integers(1, 3),
    st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3), st.integers(1, 3)), max_size=3),
    st.lists(st.tuples(st.integers(0, 4), st.integers(0, 3), st.integers(1, 3)), max_size=3),
)
def test_duality_on_symmetrized_random_modules(n, free_seed, anti_seed):
    # clamp the seeds into the key box for dimension n, then symmetrize:
    # a module plus its mirror is always mirror-symmetric
    free, anti = [], []
    for p, q, m in free_seed:
        p = min(p, 2 * n)
        q = min(q, p, n)
        if p - q <= n:  # mirror (2n-p, n-q) must also satisfy p' >= q'
            free.append((p, q, m))
            free.append((2 * n - p, n - q, m))
    for r, t, m in anti_seed:
        if r + t <= 2 * n:
            anti.append((r, t, m))
            anti.append((2 * n - r - t, t, m))
    module = make_module(free, anti)
    assert pd_symmetric(module, n).holds
    reindexed_free, reindexed_anti = _pd_reindex(homology_dual(module), n)
    assert reindexed_free == sorted(module.free)
    assert reindexed_anti == sorted(module.antipodal)


# ---------------------------------------------------------------------------
# Duality symmetry and manifold restrictions
# ---------------------------------------------------------------------------


def test_pd_symmetric_examples():
    k3 = catalog_get("k3", b_star=4, chi=4).module
    assert pd_symmetric(k3, 2).holds
    twisted = catalog_get("twisted_plane").module
    report = pd_symmetric(twisted, 1)
    assert not report.holds
    assert len(report.violations) == 1
    v = report.violations[0]
    assert (v.part, v.key, v.mirror, v.count, v.mirror_count) == (
        "free",
        (1, 1),
        (1, 0),
        1,
        0,
    )
    point = make_module([(0, 0, 1)])
    assert pd_symmetric(point, 0).holds


def test_real_manifold_validate_examples():
    k3 = catalog_get("k3", b_star=4, chi=4).module
    assert real_manifold_validate(k3, 2, True, True).passed

    with_orbit_at_zero = make_module([(0, 0, 1)], [(0, 0, 1)])
    report = real_manifold_validate(with_orbit_at_zero, 2, True, False)
    conditions = {f.condition for f in report.failures}
    assert "antipodal_positive_shift" in conditions

    heavy_weight = make_module([(2, 2, 1)])
    report = real_manifold_validate(heavy_weight, 1, False, False)
    assert any(
        f.condition == "free_weight_bound" and (2, 2) in f.keys
        for f in report.failures
    )


def test_real_manifold_validate_connected_checks():
    # connected with a fixed point forces exactly one unit at the origin
    doubled = make_module([(0, 0, 2), (4, 2, 2)])
    report = real_manifold_validate(doubled, 2, True, True)
    conditions = {f.condition for f in report.failures}
    assert "unit_rank" in conditions and "connected_b0" in conditions
    # connected without a fixed point is fine with b0 = 1 from an A_n
    sb1 = catalog_get("severi_brauer_1").module
    assert real_manifold_validate(sb1, 1, False, True).passed


def connected_b0_fails(module):
    report = real_manifold_validate(module, 4, False, True)
    return any(f.condition == "connected_b0" for f in report.failures)


def test_connected_b0_reads_underlying_singular_degree_zero(module_corpus):
    # cw=False keys with negative shifts: antipodal (-2, 2) puts a line in
    # degree 0 through r + n, and (2, -2) through r + n as well.
    frees = ([], [(0, 0, 1)], [(0, 1, 1)], [(-1, -2, 1)], [(0, 0, 1), (0, 3, 1)])
    antis = ([], [(-2, 2, 1)], [(2, -2, 1)], [(0, 0, 1)], [(-1, 1, 2)], [(0, -3, 1)])
    negative = [make_module(f, a, cw=False) for f in frees for a in antis]
    cases = [
        make_module([(0, 0, 1)], [(0, 0, 1)]),  # A0[0]: a regular summand at 0
        make_module([(0, 0, 2), (4, 2, 2)]),  # a doubled unit
    ]
    modules = list(module_corpus) + negative + cases
    assert any(underlying_singular(m).dimension(0) == 1 for m in negative)
    for m in modules:
        assert connected_b0_fails(m) == (underlying_singular(m).dimension(0) != 1)


def test_validation_exhaustive_not_fail_fast():
    bad = make_module([(0, 0, 2), (5, 4, 1)], [(0, 0, 1), (3, 4, 2)])
    report = real_manifold_validate(bad, 2, True, True)
    conditions = [f.condition for f in report.failures]
    # several independent conditions all reported in one pass
    assert len(conditions) >= 4
    assert len(set(conditions)) == len(conditions)


def test_graded_dims_helpers():
    dims = GradedDims(((0, 1), (2, 3)))
    assert dims.to_list() == [1, 0, 3]
    assert dims.to_list(4) == [1, 0, 3, 0, 0]
    assert dims.shift(2).items() == ((2, 1), (4, 3))
    assert GradedDims.from_list([0, 0, 5]).items() == ((2, 5),)
    assert dims.alternating_sum() == 4
