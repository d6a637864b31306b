"""Canonical construction of the value types against dict-based references.

Every value type stores its rows through one sort-then-scan merge.  The
references below are the dict-based merges that the value types used before
it; they are kept here, and only here, as the specification: construction
must give the same rows or raise the same exception class.
"""

import json
import time

import pytest
from hypothesis import given, strategies as st

from bredon import (
    BivariatePolynomial,
    BorelModule,
    C2GradedSpace,
    ConstraintSet,
    ConstraintViolation,
    GradedDims,
    HomologyModule,
    NegativeMultiplicity,
    NormalFormModule,
    UnivariatePolynomial,
    singular_betti,
    underlying_singular,
)
from bredon.serialize import canonical_dumps
from test_localization import negative_shift_modules

# ---------------------------------------------------------------------------
# Dict-based reference merges
# ---------------------------------------------------------------------------


def ref_clean_rows(rows, what):
    """Rows of exact ints (width 2 or 3), summed per key, no negative sum."""
    merged = {}
    for row in rows:
        if not all(type(x) is int for x in row):
            raise ValueError(f"{what} rows must hold integers, got {row!r}")
        key = tuple(row[:-1])
        merged[key] = merged.get(key, 0) + row[-1]
    for key, value in merged.items():
        if value < 0:
            raise ValueError(f"{what} at {key} is negative ({value})")
    return tuple(sorted((*k, v) for k, v in merged.items() if v != 0))


def ref_merge_keys(entries, what):
    merged = {}
    for a, b, mult in entries:
        if not all(type(x) is int for x in (a, b, mult)):
            raise ConstraintViolation(f"{what} summand has a non-integer entry")
        if mult <= 0:
            raise NegativeMultiplicity(
                f"{what} summand at ({a}, {b}) has multiplicity {mult}"
            )
        merged[(a, b)] = merged.get((a, b), 0) + mult
    return tuple((a, b, m) for (a, b), m in sorted(merged.items()))


# ---------------------------------------------------------------------------
# Rows: few keys (so duplicates are common), zeros, negatives, bools,
# unsorted order, and a mix of tuple and list rows.
# ---------------------------------------------------------------------------

keys = st.integers(-3, 3)
values = st.one_of(st.integers(-2, 4), st.booleans())


def rows_of(width):
    row = st.tuples(*[keys] * (width - 1), values)
    return st.lists(
        st.tuples(row, st.booleans()).map(lambda rb: list(rb[0]) if rb[1] else rb[0]),
        max_size=8,
    )


pairs = rows_of(2)
triples = rows_of(3)


def outcome(build):
    """The built value, or the class of the exception it raised."""
    try:
        return build()
    except Exception as exc:  # the class is what both sides must agree on
        return type(exc)


def assert_same(built, expected):
    """Equal rows (as tuples of tuples), or the same exception class."""
    assert built == expected
    if isinstance(built, tuple):
        for part in built:
            assert type(part) is tuple and all(type(row) is tuple for row in part)


@given(pairs)
def test_graded_dims_matches_reference(rows):
    assert_same(
        outcome(lambda: (GradedDims(tuple(rows)).entries,)),
        outcome(lambda: (ref_clean_rows(rows, "dimension"),)),
    )


@given(pairs)
def test_univariate_matches_reference(rows):
    assert_same(
        outcome(lambda: (UnivariatePolynomial(tuple(rows)).terms,)),
        outcome(lambda: (ref_clean_rows(rows, "coefficient"),)),
    )


@given(triples)
def test_bivariate_matches_reference(rows):
    assert_same(
        outcome(lambda: (BivariatePolynomial(tuple(rows)).terms,)),
        outcome(lambda: (ref_clean_rows(rows, "coefficient"),)),
    )


@given(triples, triples)
def test_normal_form_module_matches_reference(free, antipodal):
    def build():
        m = NormalFormModule(tuple(free), tuple(antipodal))
        return (m.free, m.antipodal)

    assert_same(
        outcome(build),
        outcome(
            lambda: (ref_merge_keys(free, "free"), ref_merge_keys(antipodal, "antipodal"))
        ),
    )


@given(pairs, pairs)
def test_c2_graded_space_matches_reference(trivial, regular):
    def build():
        space = C2GradedSpace(tuple(trivial), tuple(regular))
        return (space.trivial, space.regular)

    assert_same(
        outcome(build),
        outcome(lambda: (ref_clean_rows(trivial, "count"), ref_clean_rows(regular, "count"))),
    )


@given(pairs, triples)
def test_borel_module_matches_reference(free, torsion):
    def build():
        borel = BorelModule(tuple(free), tuple(torsion))
        return (borel.free, borel.torsion)

    assert_same(
        outcome(build),
        outcome(lambda: (ref_clean_rows(free, "count"), ref_clean_rows(torsion, "count"))),
    )


@given(triples, triples)
def test_homology_module_matches_reference(free, antipodal):
    def build():
        hom = HomologyModule(tuple(free), tuple(antipodal))
        return (hom.free, hom.antipodal)

    assert_same(
        outcome(build),
        outcome(
            lambda: (
                ref_clean_rows(free, "multiplicity"),
                ref_clean_rows(antipodal, "multiplicity"),
            )
        ),
    )


@pytest.mark.parametrize(
    "build",
    [
        lambda: GradedDims(((1.5, 1),)),
        lambda: UnivariatePolynomial(((True, 1),)),
        lambda: BivariatePolynomial(((0, 0, True),)),
        lambda: BivariatePolynomial(((0, 0.0, 1),)),
        lambda: C2GradedSpace(((0, 2.5),)),
        lambda: C2GradedSpace((), ((False, 1),)),
        lambda: BorelModule(((0, 1.0),), ()),
        lambda: BorelModule((), ((0, True, 1),)),
        lambda: HomologyModule(((0, 0, 1.5),), ()),
        lambda: HomologyModule((), ((0, 1.0, 1),)),
        lambda: ConstraintSet(dimension=1, betti_total=GradedDims(((0, True), (2, 1)))),
    ],
    ids=[
        "dims-float-key",
        "univariate-bool-key",
        "bivariate-bool-value",
        "bivariate-float-key",
        "c2-float-value",
        "c2-bool-key",
        "borel-float-value",
        "borel-bool-key",
        "homology-float-value",
        "homology-float-key",
        "constraint-set-bool-betti",
    ],
)
def test_a_bool_or_float_entry_is_rejected(build):
    # such a row would serialize as true or 1.5, which no reader takes back
    with pytest.raises(ValueError, match="rows must hold integers"):
        build()


@pytest.mark.parametrize(
    "build, width",
    [
        (lambda row: GradedDims((row,)), 2),
        (lambda row: UnivariatePolynomial((row,)), 2),
        (lambda row: BivariatePolynomial((row,)), 3),
        (lambda row: C2GradedSpace((row,)), 2),
        (lambda row: C2GradedSpace((), (row,)), 2),
        (lambda row: BorelModule((row,), ()), 2),
        (lambda row: BorelModule((), (row,)), 3),
        (lambda row: HomologyModule((row,), ()), 3),
        (lambda row: HomologyModule((), (row,)), 3),
        (lambda row: NormalFormModule((row,)), 3),
        (lambda row: NormalFormModule((), (row,)), 3),
    ],
    ids=[
        "dims",
        "univariate",
        "bivariate",
        "c2-trivial",
        "c2-regular",
        "borel-free",
        "borel-torsion",
        "homology-free",
        "homology-antipodal",
        "module-free",
        "module-antipodal",
    ],
)
def test_a_row_of_the_wrong_length_is_rejected(build, width):
    # the merge reads a row's last entry as its value, whatever its length
    build(tuple(range(1, width + 1)))
    for length in (0, width - 1, width + 1):
        with pytest.raises(ValueError):
            build(tuple(range(1, length + 1)))


counts = st.lists(st.tuples(keys, st.integers(0, 4)), max_size=8)


@given(counts, counts)
def test_dims_equal_the_three_construction_sums(trivial, regular):
    # Counts are dimensions, so nonnegative: that is what underlying_singular
    # produces, and the only case where summing the parts first is defined.
    space = C2GradedSpace(tuple(trivial), tuple(regular))
    doubled = GradedDims(tuple((d, 2 * c) for d, c in space.regular))
    assert space.dims() == GradedDims(space.trivial) + doubled
    assert space.fixed_dims() == GradedDims(space.trivial) + GradedDims(space.regular)
    for d in range(-4, 5):
        assert space.dims().get(d) == space.dimension(d)
        assert space.trivial_count(d) == dict(space.trivial).get(d, 0)
        assert space.regular_count(d) == dict(space.regular).get(d, 0)


@given(triples, triples)
def test_rank_reads_match_the_maps(free, antipodal):
    free = [(a, b, abs(int(m)) + 1) for a, b, m in free]
    antipodal = [(a, b, abs(int(m)) + 1) for a, b, m in antipodal]
    m = NormalFormModule(tuple(free), tuple(antipodal))
    for p in range(-4, 5):
        for q in range(-4, 5):
            assert m.free_rank(p, q) == m.free_map().get((p, q), 0)
            assert m.antipodal_rank(p, q) == m.antipodal_map().get((p, q), 0)


@given(triples, triples)
def test_singular_betti_matches_underlying_singular(free, antipodal):
    free = [(a, b, abs(int(m)) + 1) for a, b, m in free]
    antipodal = [(a, b, abs(int(m)) + 1) for a, b, m in antipodal]
    m = NormalFormModule(tuple(free), tuple(antipodal))
    assert_same((singular_betti(m).entries,), (underlying_singular(m).dims().entries,))


# ---------------------------------------------------------------------------
# The module-text producer against the general encoder
# ---------------------------------------------------------------------------

# keys and multiplicities of one to four digits
digits = st.integers(0, 1200)
multiplicities = st.integers(1, 1200)
cw_modules = st.builds(
    NormalFormModule,
    st.lists(
        st.tuples(digits, digits, multiplicities).map(
            lambda row: (max(row[:2]), min(row[:2]), row[2])
        ),
        max_size=6,
    ),
    st.lists(st.tuples(digits, digits, multiplicities), max_size=6),
)
signed_rows = st.lists(
    st.tuples(st.integers(-1200, 1200), st.integers(-1200, 1200), multiplicities), max_size=6
)


def assert_text_is_canonical(m):
    """``to_json_text`` is the general encoder's text, and parses back to m."""
    text = m.to_json_text()
    assert text == canonical_dumps(m.to_json_dict())
    data = json.loads(text)
    assert NormalFormModule(data["free"], data["antipodal"]) == m
    return text


@given(cw_modules)
def test_json_text_is_canonical_dumps(m):
    text = assert_text_is_canonical(m)
    assert NormalFormModule.from_json_dict(json.loads(text)) == m


@given(signed_rows, signed_rows)
def test_json_text_outside_the_cw_box(free, antipodal):
    assert_text_is_canonical(NormalFormModule(free, antipodal))


def test_json_text_edge_cases():
    for m, text in [
        (NormalFormModule.zero(), '{"free":[],"antipodal":[]}'),
        (NormalFormModule([(12, 10, 345)]), '{"free":[[12,10,345]],"antipodal":[]}'),
        (NormalFormModule([], [(0, 0, 1000)]), '{"free":[],"antipodal":[[0,0,1000]]}'),
    ]:
        assert assert_text_is_canonical(m) == text
        assert NormalFormModule.from_json_dict(json.loads(text)) == m
    for m in negative_shift_modules():
        assert_text_is_canonical(m)
    # from_json_dict checks the CW box that NormalFormModule(...) does not
    outside = NormalFormModule([(-1, -2, 1)], [(0, -3, 1)])
    assert assert_text_is_canonical(outside) == '{"free":[[-1,-2,1]],"antipodal":[[0,-3,1]]}'
    with pytest.raises(ConstraintViolation):
        NormalFormModule.from_json_dict(json.loads(outside.to_json_text()))


def test_json_text_of_a_large_module_is_linear():
    """The line of a module with 30,000 distinct rows is the general
    encoder's text and takes well under a second, although the row-text
    table is cleared about 29 times while the line is joined."""
    m = NormalFormModule(
        tuple((p, p % 7, 1 + p % 3) for p in range(25_000)),
        tuple((r, r % 5, 2) for r in range(5_000)),
    )
    start = time.perf_counter()
    text = m.to_json_text()
    assert time.perf_counter() - start < 1.0
    assert text == canonical_dumps(m.to_json_dict())


def test_row_text_table_stays_bounded_across_a_clear(monkeypatch):
    """Lines of modules with more distinct rows than the row-text table
    holds: the table never exceeds its bound, a row printed before a clear
    prints the same after it, and every line is the general encoder's text."""
    from bredon.algebra import _ROW_TEXTS, _ROW_TEXTS_MAX, _RowTexts

    sizes = []
    missing = _RowTexts.__missing__

    def recorded(table, row):
        text = missing(table, row)
        sizes.append(len(table))
        return text

    monkeypatch.setattr(_RowTexts, "__missing__", recorded)
    _ROW_TEXTS.clear()
    first = NormalFormModule(((0, 0, 1), (3, 1, 2)), ((1, 0, 1),))
    before = first.to_json_text()
    modules = [
        NormalFormModule(
            tuple((p, k, 1 + p % 3) for p in range(400)),
            tuple((r, k, 2) for r in range(100)),
        )
        for k in range(5)
    ]
    for m in modules:
        assert m.to_json_text() == canonical_dumps(m.to_json_dict())
    assert (0, 0, 1) not in _ROW_TEXTS
    assert first.to_json_text() == before == canonical_dumps(first.to_json_dict())
    assert max(sizes) == _ROW_TEXTS_MAX == 1024
    # about 2,300 distinct rows fill the table twice
    assert sum(1 for a, b in zip(sizes, sizes[1:]) if b < a) == 2
