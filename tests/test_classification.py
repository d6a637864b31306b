import pytest
from hypothesis import given, strategies as st

from bredon import (
    BivariatePolynomial,
    BorelModule,
    MaximalityClass,
    NormalFormModule,
    TorsionUnknown,
    borel_classify,
    catalog_get,
    classify,
    group_cohomology_dims,
    hodge_birank_check,
    hodge_expressive_check,
    make_module,
    rank_polynomial,
    rho_localize,
    smith_thom_report,
    suspend,
    tau_localize,
    underlying_singular,
)

M = MaximalityClass.MAXIMAL
GM = MaximalityClass.GALOIS_MAXIMAL_ONLY
NEITHER = MaximalityClass.NEITHER

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


def test_classify_examples():
    assert classify(catalog_get("projective_space", n=4).module) is M
    assert classify(catalog_get("curve", g=3, r=1).module) is GM
    assert classify(catalog_get("severi_brauer_1").module) is NEITHER


def test_smith_thom_examples():
    k3 = catalog_get("k3", b_star=4, chi=4).module
    report = smith_thom_report(k3)
    assert (
        report.fixed_total,
        report.group_cohomology_total,
        report.singular_total,
    ) == (4, 4, 24)
    assert report.klass is GM

    sb1 = smith_thom_report(catalog_get("severi_brauer_1").module)
    assert (sb1.fixed_total, sb1.group_cohomology_total, sb1.singular_total) == (0, 2, 2)
    assert sb1.klass is NEITHER

    point = smith_thom_report(make_module([(0, 0, 1)]))
    assert (point.fixed_total, point.group_cohomology_total, point.singular_total) == (
        1,
        1,
        1,
    )
    assert point.klass is M
    assert point.to_json_dict() == {
        "fixed": 1,
        "group_cohomology": 1,
        "singular": 1,
        "class": "M",
    }


def test_group_cohomology_dims():
    from bredon import C2GradedSpace

    one_line = C2GradedSpace(((0, 1),), ())
    assert group_cohomology_dims(one_line).items() == ((0, 1),)
    one_orbit = C2GradedSpace((), ((3, 1),))
    assert group_cohomology_dims(one_orbit).items() == ()
    for g in range(4):
        for r in range(g + 1):
            curve = catalog_get("curve", g=g, r=r).module
            total = group_cohomology_dims(underlying_singular(curve)).total()
            assert total == 2 * r + 2
            assert total == rho_localize(curve).total()


def test_borel_classify_examples():
    assert borel_classify(BorelModule(((0, 1), (3, 2)), ())) is M
    assert borel_classify(BorelModule(((0, 1),), ((2, 0, 4),))) is GM
    assert borel_classify(BorelModule((), ((0, 2, 1),))) is NEITHER


@given(modules)
def test_borel_route_agrees(m):
    assert borel_classify(tau_localize(m)) is classify(m)


@given(modules)
def test_smith_thom_chain_and_totals(m):
    report = smith_thom_report(m)
    assert (
        report.fixed_total
        <= report.group_cohomology_total
        <= report.singular_total
    )
    singular = underlying_singular(m)
    assert rho_localize(m).total() == report.fixed_total
    assert singular.total_dimension() == report.singular_total
    assert (
        group_cohomology_dims(singular).total() == report.group_cohomology_total
    )


@given(modules, st.integers(0, 3), st.integers(0, 3))
def test_classify_suspension_invariant(m, k, q):
    assert classify(suspend(m, q + k, q)) is classify(m)


# ---------------------------------------------------------------------------
# Hodge expressivity
# ---------------------------------------------------------------------------

K3_HODGE = BivariatePolynomial(((0, 0, 1), (2, 0, 1), (0, 2, 1), (1, 1, 20), (2, 2, 1)))


def test_hodge_expressive_examples():
    he = catalog_get("k3_hodge_expressive").module
    assert hodge_expressive_check(he, K3_HODGE, True)
    spheres = catalog_get("k3", b_star=4, chi=4).module
    assert not hodge_expressive_check(spheres, K3_HODGE, True)
    point = make_module([(0, 0, 1)])
    assert hodge_expressive_check(point, BivariatePolynomial(((0, 0, 1),)), True)
    with pytest.raises(TorsionUnknown):
        hodge_expressive_check(point, K3_HODGE, None)
    assert not hodge_expressive_check(he, K3_HODGE, False)


def test_hodge_birank_examples():
    assert hodge_birank_check(catalog_get("k3_hodge_expressive").module, K3_HODGE)
    for n in range(5):
        entry = catalog_get("projective_space", n=n)
        assert hodge_birank_check(entry.module, entry.hodge_polynomial)
    elliptic = catalog_get("elliptic_curve")
    assert hodge_birank_check(elliptic.module, elliptic.hodge_polynomial)
    assert not hodge_birank_check(catalog_get("k3", b_star=4, chi=4).module, K3_HODGE)


@given(modules)
def test_birank_implies_expressive(m):
    # build the Hodge polynomial that matches the ranks exactly, when possible
    coeffs = {}
    for (p, q), mult in m.free_map().items():
        coeffs[(p - q, q)] = mult
    hodge = BivariatePolynomial.from_mapping(coeffs)
    if hodge_birank_check(m, hodge):
        assert hodge_expressive_check(m, hodge, True)


def test_internal_consistency_guard_unreachable(module_corpus):
    # the totals route and the shape route must never disagree
    for m in module_corpus[:300]:
        smith_thom_report(m)


def test_rank_polynomial_he_k3():
    he = catalog_get("k3_hodge_expressive").module
    assert str(rank_polynomial(he)) == "1 + u^2 + 20u^2v + u^2v^2 + u^4v^2"


def test_hodge_birank_rejects_a_free_key_above_the_diagonal():
    # (1, 2) has q > p, so no Hodge number (p - q, q) can match it
    assert not hodge_birank_check(NormalFormModule([(1, 2, 1)]), BivariatePolynomial())
