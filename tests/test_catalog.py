import pytest

from bredon import (
    MaximalityClass,
    ParameterRange,
    UnknownName,
    catalog_get,
    catalog_list,
    classify,
    fixed_poincare_polynomial,
    make_module,
    pd_symmetric,
    real_manifold_validate,
    rho_localize,
    underlying_singular,
)

M = MaximalityClass.MAXIMAL
GM = MaximalityClass.GALOIS_MAXIMAL_ONLY
NEITHER = MaximalityClass.NEITHER


def all_small_entries():
    """A representative sweep of every family at small parameters."""
    entries = [
        catalog_get("point"),
        catalog_get("elliptic_curve"),
        catalog_get("severi_brauer_1"),
        catalog_get("twisted_plane"),
        catalog_get("k3_hodge_expressive"),
        catalog_get("cubic_threefold_s3_rp3"),
    ]
    for p in range(4):
        for q in range(p + 1):
            entries.append(catalog_get("representation_sphere", p=p, q=q))
    for n in range(7):
        entries.append(catalog_get("projective_space", n=n))
    for g in range(5):
        for r in range(g + 1):
            entries.append(catalog_get("curve", g=g, r=r))
    for k in range(4):
        entries.append(catalog_get("severi_brauer_odd", k=k))
    for b_star in range(2, 25, 2):
        for chi in range(-b_star, b_star + 1, 2):
            if (b_star + chi) % 4 == 0 and b_star + chi >= 4:
                entries.append(catalog_get("k3", b_star=b_star, chi=chi))
    return entries


def test_specific_modules():
    assert catalog_get("projective_space", n=1).module == make_module(
        [(0, 0, 1), (2, 1, 1)]
    )
    k3 = catalog_get("k3", b_star=4, chi=4)
    assert k3.module == make_module(
        [(0, 0, 1), (2, 0, 1), (2, 2, 1), (4, 2, 1)], [(2, 0, 10)]
    )
    assert catalog_get("curve", g=3, r=3).module.total_antipodal == 0
    assert classify(catalog_get("curve", g=3, r=3).module) is M
    sb = catalog_get("severi_brauer_odd", k=2)
    assert sb.module == make_module([], [(0, 2, 1), (4, 2, 1), (8, 2, 1)])
    assert sb.dimension == 5
    assert catalog_get("severi_brauer_odd", k=0).module == catalog_get(
        "severi_brauer_1"
    ).module
    assert catalog_get("elliptic_curve").module == make_module(
        [(0, 0, 1), (1, 0, 1), (1, 1, 1), (2, 1, 1)]
    )


def test_expected_class_matches_classify():
    for entry in all_small_entries():
        assert classify(entry.module) is entry.expected_class, entry.name


def test_real_manifold_entries_validate():
    for entry in all_small_entries():
        if not entry.is_real_manifold:
            continue
        report = real_manifold_validate(
            entry.module, entry.dimension, entry.has_fixed_point, entry.connected
        )
        assert report.passed, (entry.name, entry.parameters, report.failures)


def test_flags_are_read_off_the_module():
    """An entry's fixed-point and connectedness flags are what its module
    says: a nonempty rho-localization, and singular b0 = 1."""
    for entry in all_small_entries():
        assert entry.has_fixed_point == (rho_localize(entry.module).total() > 0), entry.name
        assert entry.connected == (underlying_singular(entry.module).dims().get(0) == 1)
    assert not catalog_get("severi_brauer_odd", k=1).has_fixed_point
    assert catalog_get("severi_brauer_odd", k=1).connected
    # S^{0,0} is two points
    assert not catalog_get("representation_sphere", p=0, q=0).connected
    assert catalog_get("representation_sphere", p=1, q=0).connected


def test_twisted_plane_fails_duality():
    entry = catalog_get("twisted_plane")
    assert not entry.is_real_manifold
    assert not pd_symmetric(entry.module, entry.dimension).holds


def test_k3_fixed_totals():
    for entry in all_small_entries():
        if entry.name != "k3":
            continue
        poly = fixed_poincare_polynomial(entry.module)
        assert poly.total() == entry.parameters["b_star"]
        assert poly.alternating_sum() == entry.parameters["chi"]


def test_k3_hodge_expressive_is_k3_24_m16():
    assert (
        catalog_get("k3_hodge_expressive").module
        == catalog_get("k3", b_star=24, chi=-16).module
    )


# The full JSON of the two entries that copy another entry with a new name
# and notes; the goldens pin only their modules.
ALIAS_ENTRIES = {
    "elliptic_curve": {
        "name": "elliptic_curve",
        "parameters": {},
        "module": {"free": [[0, 0, 1], [1, 0, 1], [1, 1, 1], [2, 1, 1]], "antipodal": []},
        "dimension": 1,
        "has_fixed_point": True,
        "connected": True,
        "expected_class": "M",
        "is_real_manifold": True,
        "hodge_polynomial": [[0, 0, 1], [0, 1, 1], [1, 0, 1], [1, 1, 1]],
        "notes": "the square lattice torus; two ovals",
    },
    "k3_hodge_expressive": {
        "name": "k3_hodge_expressive",
        "parameters": {},
        "module": {
            "free": [[0, 0, 1], [2, 0, 1], [2, 1, 20], [2, 2, 1], [4, 2, 1]],
            "antipodal": [],
        },
        "dimension": 2,
        "has_fixed_point": True,
        "connected": True,
        "expected_class": "M",
        "is_real_manifold": True,
        "hodge_polynomial": [[0, 0, 1], [0, 2, 1], [1, 1, 20], [2, 0, 1], [2, 2, 1]],
        "notes": "the maximal K3 with b_star = 24, chi = -16; Hodge-expressive",
    },
}


@pytest.mark.parametrize("name", sorted(ALIAS_ENTRIES))
def test_alias_entries(name):
    assert catalog_get(name).to_json_dict() == ALIAS_ENTRIES[name]


def test_parameter_errors():
    with pytest.raises(UnknownName):
        catalog_get("abelian_surface")
    with pytest.raises(ParameterRange):
        catalog_get("curve", g=2, r=3)
    with pytest.raises(ParameterRange):
        catalog_get("curve", g=-1, r=0)
    with pytest.raises(ParameterRange):
        catalog_get("k3", b_star=5, chi=3)
    with pytest.raises(ParameterRange):
        catalog_get("k3", b_star=26, chi=2)
    with pytest.raises(ParameterRange):
        catalog_get("k3", b_star=2, chi=-2)  # would need negative sphere count
    with pytest.raises(ParameterRange):
        catalog_get("projective_space", n=-1)
    with pytest.raises(ParameterRange):
        catalog_get("projective_space")  # missing parameter
    with pytest.raises(ParameterRange):
        catalog_get("point", n=1)  # unexpected parameter
    with pytest.raises(ParameterRange):
        catalog_get("representation_sphere", p=1, q=2)


@pytest.mark.parametrize("name, parameters, message", [
    ("projective_space", {}, "missing parameter 'n'"),
    ("curve", {"r": 0}, "missing parameter 'g'"),
    ("projective_space", {"n": "2"}, "parameter 'n' must be an integer, got '2'"),
    ("k3", {"b_star": 4, "chi": True}, "parameter 'chi' must be an integer, got True"),
    ("point", {"n": 1}, "point does not take parameter(s) ['n']"),
    ("curve", {"g": 1, "r": 0, "k": 1, "a": 2}, "curve does not take parameter(s) ['a', 'k']"),
])
def test_parameter_messages(name, parameters, message):
    with pytest.raises(ParameterRange) as info:
        catalog_get(name, **parameters)
    assert str(info.value) == message


def test_catalog_list_schema():
    listing = catalog_list()
    names = [item["name"] for item in listing]
    assert "k3" in names and "projective_space" in names
    k3_schema = next(item for item in listing if item["name"] == "k3")
    assert {p["name"] for p in k3_schema["parameters"]} == {"b_star", "chi"}


def test_cubic_entry_flags_suspect_polynomial():
    entry = catalog_get("cubic_threefold_s3_rp3")
    # the quoted polynomial is stored verbatim, inconsistency and all
    assert entry.hodge_polynomial.coefficient(3, 0) == 1
    degree3_total = sum(
        c for i, j, c in entry.hodge_polynomial.terms if i + j == 3
    )
    assert degree3_total == 12  # contradicts the middle Betti number below
    assert underlying_singular(entry.module).dims().get(3) == 10
    assert "suspect" in entry.notes
