import itertools

import pytest
from hypothesis import given, strategies as st

from bredon import (
    ONE,
    RHO,
    TAU,
    THETA,
    ZERO,
    BivariatePolynomial,
    BorelModule,
    ConstraintViolation,
    InvalidShift,
    M2Element,
    NegativeExponent,
    NegativeMultiplicity,
    NormalFormModule,
    SchemaError,
    UnivariatePolynomial,
    direct_sum,
    m2_basis,
    m2_multiply,
    make_module,
    rank_polynomial,
    suspend,
)
from bredon.cli import render_rank_lattice
from bredon.serialize import canonical_dumps, parse_json

# ---------------------------------------------------------------------------
# Point ring
# ---------------------------------------------------------------------------


def test_stated_products():
    assert m2_multiply(TAU, THETA) == ZERO
    assert m2_multiply(RHO, THETA) == ZERO
    assert m2_multiply(THETA, THETA) == ZERO
    assert m2_multiply(M2Element.pos(2, 0), TAU) == M2Element.pos(2, 1)
    # rho * theta/(rho tau) = theta/tau
    assert m2_multiply(RHO, M2Element.neg(1, 1)) == M2Element.neg(0, 1)
    assert m2_multiply(M2Element.neg(1, 0), M2Element.neg(0, 1)) == ZERO


def test_bidegrees():
    assert ONE.bidegree() == (0, 0)
    assert RHO.bidegree() == (1, 1)
    assert TAU.bidegree() == (0, 1)
    assert THETA.bidegree() == (0, -2)
    assert M2Element.neg(2, 1).bidegree() == (-2, -5)
    assert ZERO.bidegree() is None


def test_unique_divisibility_small():
    for r, s, a, b in itertools.product(range(4), repeat=4):
        product = m2_multiply(M2Element.neg(r, s), M2Element.pos(a, b))
        if a <= r and b <= s:
            assert product == M2Element.neg(r - a, s - b)
        else:
            assert product == ZERO


def test_identity_and_zero_absorb():
    for x in m2_basis(3):
        assert x * ONE == x
        assert x * ZERO == ZERO


@given(st.integers(0, 8), st.integers(0, 8), st.integers(0, 8), st.integers(0, 8))
def test_positive_cone_degrees_add(a, b, c, d):
    x, y = M2Element.pos(a, b), M2Element.pos(c, d)
    (p1, q1), (p2, q2) = x.bidegree(), y.bidegree()
    assert (x * y).bidegree() == (p1 + p2, q1 + q2)


def test_str_rendering():
    assert str(ONE) == "1"
    assert str(RHO * RHO * TAU) == "rho^2*tau"
    assert str(THETA) == "theta"
    assert str(M2Element.neg(1, 2)) == "theta/(rho*tau^2)"
    assert str(ZERO) == "0"
    assert str(RHO) == "rho"
    assert str(M2Element.pos(0, 3)) == "tau^3"
    assert str(M2Element.neg(0, 1)) == "theta/(tau)"
    assert str(M2Element.neg(2, 0)) == "theta/(rho^2)"
    module = make_module([(0, 0, 2), (2, 1, 1)], [(2, 1, 3)])
    assert module.summands() == ["M2[0,0]^2", "M2[2,1]", "A1[2]^3"]
    assert str(module) == "M2[0,0]^2 + M2[2,1] + A1[2]^3"
    assert str(BorelModule(((0, 2),), ((1, 2, 1),))) == "F2[z](0)^2 + F2[z]/z^3(1)"
    assert render_rank_lattice(make_module([], [(0, 0, 1), (1, 2, 3)])) == (
        "(no free summands)\nantipodal: A0[0], A2[1]^3"
    )


# ---------------------------------------------------------------------------
# Module construction and canonical form
# ---------------------------------------------------------------------------

P2 = make_module([(0, 0, 1), (2, 1, 1), (4, 2, 1)])


def test_make_module_examples():
    assert P2.free == ((0, 0, 1), (2, 1, 1), (4, 2, 1))
    assert make_module().is_zero
    with pytest.raises(ConstraintViolation):
        make_module([(1, 2, 1)])
    # out-of-order and duplicated inputs canonicalize
    m = make_module([(2, 1, 1), (0, 0, 1), (2, 1, 2)])
    assert m.free == ((0, 0, 1), (2, 1, 3))


def test_make_module_errors():
    with pytest.raises(NegativeMultiplicity):
        make_module([(0, 0, 0)])
    with pytest.raises(NegativeMultiplicity):
        make_module([], [(1, 0, -2)])
    with pytest.raises(ConstraintViolation):
        make_module([], [(-1, 0, 1)])
    # the bare constructor builds keys outside the CW box
    m = NormalFormModule([(1, 2, 1)])
    assert m.free_rank(1, 2) == 1


@pytest.mark.parametrize(
    "free, antipodal",
    [
        ([(1, 0, 1.5)], []),  # float multiplicity, printed M2[1,0]^1.5 before
        ([(2.0, 0, 1)], []),  # float key
        ([(True, False, True)], []),  # bools, whose JSON from_json_dict rejects
        ([], [(1, 0, True)]),  # bool multiplicity
        ([], [(0, False, 2)]),  # bool key
        ([], [(1, 0, -1.5)]),  # a float is rejected before its sign is read
    ],
)
def test_entries_must_be_integers(free, antipodal):
    for build in (make_module, NormalFormModule):
        with pytest.raises(ConstraintViolation, match="non-integer entry"):
            build(free, antipodal)


def test_direct_sum():
    m2 = make_module([(0, 0, 1)])
    assert direct_sum(m2, m2).free == ((0, 0, 2),)
    left = make_module([(0, 0, 1), (1, 0, 1)])
    right = make_module([(1, 1, 1), (2, 1, 1)])
    elliptic = direct_sum(left, right)
    assert elliptic.free == ((0, 0, 1), (1, 0, 1), (1, 1, 1), (2, 1, 1))
    assert direct_sum(elliptic, NormalFormModule.zero()) == elliptic


def test_suspend():
    m2 = make_module([(0, 0, 1)])
    assert suspend(m2, 2, 1).free == ((2, 1, 1),)
    a2 = make_module([], [(0, 2, 1)])
    assert suspend(a2, 4, 0).antipodal == ((4, 2, 1),)
    # weight is dropped on antipodal summands
    assert suspend(a2, 4, 3).antipodal == ((4, 2, 1),)
    m = make_module([(3, 1, 2)], [(1, 0, 1)])
    assert suspend(m, 0, 0) == m
    with pytest.raises(InvalidShift):
        suspend(m, 1, 2)
    with pytest.raises(InvalidShift):
        m.suspend(2, -1)


def test_rank_polynomial_examples():
    poly = rank_polynomial(P2)
    assert poly.coefficients() == {(0, 0): 1, (2, 1): 1, (4, 2): 1}
    assert rank_polynomial(NormalFormModule.zero()).terms == ()
    he_k3 = make_module([(0, 0, 1), (2, 0, 1), (2, 1, 20), (2, 2, 1), (4, 2, 1)])
    assert rank_polynomial(he_k3).coefficients() == {
        (0, 0): 1,
        (2, 0): 1,
        (2, 1): 20,
        (2, 2): 1,
        (4, 2): 1,
    }


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


@given(modules, modules)
def test_rank_polynomial_additive(a, b):
    total = direct_sum(a, b)
    assert rank_polynomial(total) == rank_polynomial(a) + rank_polynomial(b)
    for key, mult in total.antipodal_map().items():
        assert mult == a.antipodal_rank(*key) + b.antipodal_rank(*key)


@given(modules, st.integers(0, 4), st.integers(0, 4))
def test_rank_polynomial_suspension(m, k, q):
    p = q + k
    assert rank_polynomial(suspend(m, p, q)) == rank_polynomial(m).shift(p, q)


@given(modules)
def test_canonical_form_idempotent(m):
    assert make_module(m.free, m.antipodal) == m


@given(modules)
def test_total_free_rank_is_evaluation_at_one(m):
    assert m.total_free == rank_polynomial(m).evaluate(1, 1)


# ---------------------------------------------------------------------------
# Polynomials
# ---------------------------------------------------------------------------


def test_substitute_powers():
    poly = rank_polynomial(P2)
    fixed = poly.substitute_powers(1, -1)
    assert fixed == UnivariatePolynomial(((0, 1), (1, 1), (2, 1)))
    assert poly.substitute_powers(1, 0).total() == 3
    bad = NormalFormModule([(1, 2, 1)])
    with pytest.raises(NegativeExponent):
        rank_polynomial(bad).substitute_powers(1, -1)


def test_polynomial_str():
    poly = BivariatePolynomial(((0, 0, 1), (2, 1, 20), (4, 2, 1)))
    assert str(poly) == "1 + 20u^2v + u^4v^2"
    assert str(UnivariatePolynomial(((0, 2), (2, 2)))) == "2 + 2t^2"
    assert str(UnivariatePolynomial(((1, 1),))) == "t"
    assert str(UnivariatePolynomial(((0, 1), (1, 1), (2, 3)))) == "1 + t + 3t^2"
    assert str(BivariatePolynomial(((1, 0, 1),))) == "u"
    assert str(BivariatePolynomial(((0, 2, 1),))) == "v^2"
    assert str(BivariatePolynomial(((1, 3, 2),))) == "2uv^3"
    assert str(BivariatePolynomial(((0, 0, 5),))) == "5"


def test_univariate_evaluations():
    poly = UnivariatePolynomial(((0, 2), (1, 20), (2, 2)))
    assert poly.total() == 24
    assert poly.alternating_sum() == -16
    assert poly.coefficient(1) == 20
    assert poly.coefficient(7) == 0


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------


def test_json_round_trip():
    m = make_module([(0, 0, 1), (2, 1, 3)], [(1, 0, 2), (2, 2, 1)])
    text = canonical_dumps(m.to_json_dict())
    assert text == '{"free":[[0,0,1],[2,1,3]],"antipodal":[[1,0,2],[2,2,1]]}'
    again = NormalFormModule.from_json_dict(parse_json(text))
    assert again == m
    assert canonical_dumps(again.to_json_dict()) == text


@pytest.mark.parametrize("kind, a, b, message", [
    ("mixed", 0, 0, "unknown element kind 'mixed'"),
    ("pos", -1, 0, "exponents must be nonnegative"),
    ("neg", 0, -2, "exponents must be nonnegative"),
    ("zero", 1, 0, "zero carries no exponents"),
])
def test_m2_element_guards(kind, a, b, message):
    with pytest.raises(ValueError) as info:
        M2Element(kind, a, b)
    assert str(info.value) == message


def test_json_schema_errors():
    with pytest.raises(SchemaError):
        NormalFormModule.from_json_dict([1, 2, 3])
    with pytest.raises(SchemaError):
        NormalFormModule.from_json_dict({"free": [[1, 2]]})
    with pytest.raises(SchemaError):
        NormalFormModule.from_json_dict({"free": [], "antipodal": [[0, 0, "x"]]})


def test_json_unknown_field():
    # a misspelled part is an error, not a module without that part
    with pytest.raises(SchemaError) as info:
        NormalFormModule.from_json_dict(
            {"free": [[0, 0, 1], [2, 1, 1]], "antipodel": [[1, 0, 3]]}
        )
    assert info.value.field == "module.antipodel"
    assert str(info.value) == "module.antipodel: unknown field"
