"""Built-in parameterized families of equivariant cohomology normal forms.

Each entry is a closed formula together with the metadata needed to drive
the checking operations (dimension, expected class, Hodge polynomial where
one is classically known).  The families double as a golden corpus: the
solver re-derives several of them from topological constraints, and the
two routes cross-validate each other.  A builder returns only what the
module does not decide: the entry's fields other than its name and
parameters, which :func:`catalog_get` sets.  Whether the fixed locus is
nonempty and whether the space is connected are properties of the entry,
read off its module.
"""

from __future__ import annotations

from dataclasses import dataclass

from .algebra import BivariatePolynomial, NormalFormModule, make_module
from .classification import MaximalityClass
from .exceptions import ParameterRange, UnknownName
from .localization import singular_betti

__all__ = ["CatalogEntry", "catalog_get", "catalog_list"]

M = MaximalityClass.MAXIMAL
GM = MaximalityClass.GALOIS_MAXIMAL_ONLY
NEITHER = MaximalityClass.NEITHER


@dataclass(frozen=True)
class CatalogEntry:
    name: str
    parameters: dict
    module: NormalFormModule
    dimension: int | None
    expected_class: MaximalityClass
    is_real_manifold: bool
    hodge_polynomial: BivariatePolynomial | None = None
    notes: str = ""

    @property
    def has_fixed_point(self) -> bool:
        """Whether the fixed locus is nonempty: exactly when a free summand
        survives rho-localization, that is, when the module has one."""
        return bool(self.module.free)

    @property
    def connected(self) -> bool:
        """Whether the singular degree-0 Betti number is 1."""
        return singular_betti(self.module).get(0) == 1

    def to_json_dict(self) -> dict:
        return {
            "name": self.name,
            "parameters": self.parameters,
            "module": self.module.to_json_dict(),
            "dimension": self.dimension,
            "has_fixed_point": self.has_fixed_point,
            "connected": self.connected,
            "expected_class": self.expected_class.value,
            "is_real_manifold": self.is_real_manifold,
            "hodge_polynomial": (
                self.hodge_polynomial.to_json() if self.hodge_polynomial else None
            ),
            "notes": self.notes,
        }


def _point() -> dict:
    return dict(
        module=make_module([(0, 0, 1)]),
        dimension=0,
        expected_class=M,
        is_real_manifold=True,
        hodge_polynomial=BivariatePolynomial(((0, 0, 1),)),
    )


def _representation_sphere(p: int, q: int) -> dict:
    if not (p >= q >= 0):
        raise ParameterRange(f"representation sphere needs p >= q >= 0, got ({p}, {q})")
    # The unreduced cohomology: base class plus the reduced shifted copy.
    module = make_module([(0, 0, 1), (p, q, 1)])
    is_complex = p == 2 * q
    return dict(
        module=module,
        dimension=q if is_complex else None,
        expected_class=M,
        is_real_manifold=is_complex,
        notes="carries a Real structure exactly when p = 2q",
    )


def _projective_space(n: int) -> dict:
    if n < 0:
        raise ParameterRange(f"projective space needs n >= 0, got {n}")
    module = make_module([(2 * i, i, 1) for i in range(n + 1)])
    hodge = BivariatePolynomial(tuple((i, i, 1) for i in range(n + 1)))
    return dict(
        module=module,
        dimension=n,
        expected_class=M,
        is_real_manifold=True,
        hodge_polynomial=hodge,
    )


def _curve(g: int, r: int) -> dict:
    if not (0 <= r <= g):
        raise ParameterRange(f"curve needs 0 <= r <= g, got g={g}, r={r}")
    free = [(0, 0, 1), (2, 1, 1)]
    if r:
        free += [(1, 0, r), (1, 1, r)]
    antipodal = [(1, 0, g - r)] if g > r else []
    hodge = BivariatePolynomial(
        ((0, 0, 1), (1, 1, 1)) + (((1, 0, g), (0, 1, g)) if g else ())
    )
    return dict(
        module=make_module(free, antipodal),
        dimension=1,
        expected_class=M if r == g else GM,
        is_real_manifold=True,
        hodge_polynomial=hodge,
        notes=f"genus {g} with {r + 1} ovals",
    )


def _severi_brauer_1() -> dict:
    return dict(
        module=make_module([], [(0, 2, 1)]),
        dimension=1,
        expected_class=NEITHER,
        is_real_manifold=True,
        notes="the real conic with no real points; an antipodal 2-sphere",
    )


def _severi_brauer_odd(k: int) -> dict:
    if k < 0:
        raise ParameterRange(f"severi_brauer_odd needs k >= 0, got {k}")
    module = make_module([], [(4 * i, 2, 1) for i in range(k + 1)])
    return dict(
        module=module,
        dimension=2 * k + 1,
        expected_class=NEITHER,
        is_real_manifold=True,
        notes="pointless Severi-Brauer variety of odd dimension 2k+1",
    )


def _twisted_plane() -> dict:
    return dict(
        module=make_module([(0, 0, 1), (1, 1, 1), (2, 1, 1)]),
        dimension=1,
        expected_class=M,
        is_real_manifold=False,
        notes="the projective plane with the half-turn action; breaks the "
        "duality mirror at (1, 1)",
    )


K3_HODGE = BivariatePolynomial(((0, 0, 1), (2, 0, 1), (0, 2, 1), (1, 1, 20), (2, 2, 1)))


def _k3(b_star: int, chi: int) -> dict:
    if (b_star + chi) % 4 or (b_star - chi) % 2 or (24 - b_star) % 2:
        raise ParameterRange(
            f"k3 needs (b_star + chi) % 4 == 0 and even b_star - chi, 24 - b_star; "
            f"got b_star={b_star}, chi={chi}"
        )
    a = (b_star + chi) // 4 - 1
    b = (b_star - chi) // 2
    c = (24 - b_star) // 2
    if a < 0 or b < 0 or c < 0:
        raise ParameterRange(
            f"k3 with b_star={b_star}, chi={chi} gives a negative count "
            f"(a={a}, b={b}, c={c})"
        )
    free = [(0, 0, 1), (4, 2, 1)]
    if a:
        free += [(2, 0, a), (2, 2, a)]
    if b:
        free += [(2, 1, b)]
    antipodal = [(2, 0, c)] if c else []
    return dict(
        module=make_module(free, antipodal),
        dimension=2,
        expected_class=M if c == 0 else GM,
        is_real_manifold=True,
        hodge_polynomial=K3_HODGE,
        notes="real part has total Betti number b_star and Euler "
        "characteristic chi",
    )


CUBIC_HODGE = BivariatePolynomial(
    ((0, 0, 1), (1, 1, 1), (2, 1, 5), (1, 2, 5), (2, 2, 1), (3, 0, 1), (0, 3, 1))
)


def _cubic_threefold() -> dict:
    free = [(0, 0, 1), (2, 1, 1), (3, 0, 1), (3, 3, 1), (4, 2, 1), (6, 3, 1)]
    antipodal = [(3, 0, 4)]
    return dict(
        module=make_module(free, antipodal),
        dimension=3,
        expected_class=GM,
        is_real_manifold=True,
        hodge_polynomial=CUBIC_HODGE,
        notes="real part S^3 + RP^3; middle Betti number is 10, which the "
        "classically quoted Hodge polynomial (degree-3 total 12) contradicts; "
        "the polynomial is stored verbatim and should be treated as suspect",
    )


# name -> (builder, parameter schema); an alias row renames another builder's
# entry and gives it its own notes
_FAMILIES = {
    "point": (_point, {}),
    "representation_sphere": (
        _representation_sphere,
        {"p": "topological degree, p >= q", "q": "weight, q >= 0"},
    ),
    "projective_space": (_projective_space, {"n": "complex dimension, n >= 0"}),
    "elliptic_curve": (
        lambda: {**_curve(g=1, r=1), "notes": "the square lattice torus; two ovals"},
        {},
    ),
    "curve": (
        _curve,
        {"g": "genus, g >= 0", "r": "number of ovals minus one, 0 <= r <= g"},
    ),
    "severi_brauer_1": (_severi_brauer_1, {}),
    "severi_brauer_odd": (_severi_brauer_odd, {"k": "dimension is 2k+1, k >= 0"}),
    "twisted_plane": (_twisted_plane, {}),
    "k3": (
        _k3,
        {
            "b_star": "total Betti number of the real part, even, <= 24",
            "chi": "Euler characteristic of the real part, b_star + chi in 4Z",
        },
    ),
    "k3_hodge_expressive": (
        lambda: {
            **_k3(b_star=24, chi=-16),
            "notes": "the maximal K3 with b_star = 24, chi = -16; Hodge-expressive",
        },
        {},
    ),
    "cubic_threefold_s3_rp3": (_cubic_threefold, {}),
}


def catalog_get(name: str, **parameters: int) -> CatalogEntry:
    """Build the named entry; unknown names and bad parameters raise."""
    if name not in _FAMILIES:
        raise UnknownName(f"no catalog entry named {name!r}")
    builder, schema = _FAMILIES[name]
    unexpected = set(parameters) - set(schema)
    if unexpected:
        raise ParameterRange(
            f"{name} does not take parameter(s) {sorted(unexpected)}"
        )
    for key in schema:
        if key not in parameters:
            raise ParameterRange(f"missing parameter {key!r}")
        value = parameters[key]
        if not isinstance(value, int) or isinstance(value, bool):
            raise ParameterRange(f"parameter {key!r} must be an integer, got {value!r}")
    parameters = {key: parameters[key] for key in schema}  # in schema order
    return CatalogEntry(name=name, parameters=parameters, **builder(**parameters))


def catalog_list() -> list[dict]:
    """Names and parameter schemas, JSON-ready."""
    return [
        {
            "name": name,
            "parameters": [
                {"name": pname, "description": pdesc} for pname, pdesc in schema.items()
            ],
        }
        for name, (builder, schema) in _FAMILIES.items()
    ]
