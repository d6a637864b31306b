"""Canonical construction of the value types against dict-based references.

Every value type stores its rows through one sort-then-scan merge.  The
references below are the dict-based merges that the value types used before
it; they are kept here, and only here, as the specification: construction
must give the same rows or raise the same exception class.
"""

from hypothesis import given, strategies as st

from bredon import (
    BivariatePolynomial,
    BorelModule,
    C2GradedSpace,
    GradedDims,
    HomologyModule,
    NegativeMultiplicity,
    NormalFormModule,
    UnivariatePolynomial,
)

# ---------------------------------------------------------------------------
# Dict-based reference merges
# ---------------------------------------------------------------------------


def ref_clean_items(pairs, what):
    merged = {}
    for key, value in pairs:
        if not isinstance(value, int):
            raise ValueError(f"{what} values must be integers, got {value!r}")
        merged[key] = merged.get(key, 0) + value
    for key, value in merged.items():
        if value < 0:
            raise ValueError(f"{what} at {key} is negative ({value})")
    return tuple(sorted((k, v) for k, v in merged.items() if v != 0))


def ref_merge_keys(entries, what):
    merged = {}
    for a, b, mult in entries:
        if mult <= 0:
            raise NegativeMultiplicity(
                f"{what} summand at ({a}, {b}) has multiplicity {mult}"
            )
        merged[(a, b)] = merged.get((a, b), 0) + mult
    return tuple((a, b, m) for (a, b), m in sorted(merged.items()))


def ref_merge_pairs(pairs):
    merged = {}
    for d, c in pairs:
        merged[d] = merged.get(d, 0) + c
    return tuple(sorted((d, c) for d, c in merged.items() if c))


def ref_merge_triples(triples):
    merged = {}
    for a, b, c in triples:
        merged[(a, b)] = merged.get((a, b), 0) + c
    return tuple((a, b, c) for (a, b), c in sorted(merged.items()) if c)


def ref_bivariate(terms):
    cleaned = ref_clean_items((((i, j), c) for i, j, c in terms), "coefficient")
    return tuple((i, j, c) for (i, j), c in cleaned)


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
        outcome(lambda: (ref_clean_items(rows, "dimension"),)),
    )


@given(pairs)
def test_univariate_matches_reference(rows):
    assert_same(
        outcome(lambda: (UnivariatePolynomial(tuple(rows)).terms,)),
        outcome(lambda: (ref_clean_items(rows, "coefficient"),)),
    )


@given(triples)
def test_bivariate_matches_reference(rows):
    assert_same(
        outcome(lambda: (BivariatePolynomial(tuple(rows)).terms,)),
        outcome(lambda: (ref_bivariate(rows),)),
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
    space = C2GradedSpace(tuple(trivial), tuple(regular))
    assert_same(
        (space.trivial, space.regular),
        (ref_merge_pairs(trivial), ref_merge_pairs(regular)),
    )


@given(pairs, triples)
def test_borel_module_matches_reference(free, torsion):
    borel = BorelModule(tuple(free), tuple(torsion))
    assert_same(
        (borel.free, borel.torsion), (ref_merge_pairs(free), ref_merge_triples(torsion))
    )


@given(triples, triples)
def test_homology_module_matches_reference(free, antipodal):
    hom = HomologyModule(tuple(free), tuple(antipodal))
    assert_same(
        (hom.free, hom.antipodal),
        (ref_merge_triples(free), ref_merge_triples(antipodal)),
    )


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
