"""The package namespace re-exports each submodule's ``__all__``."""

import importlib

import bredon

SUBMODULES = ("algebra", "localization", "classification", "solver", "catalog", "exceptions")

# the public names before the package built __all__ from its submodules,
# plus SearchTooLarge, added with the bound on search states, and
# iter_decompositions, the streamed search
PUBLIC_NAMES = [
    "BivariatePolynomial", "BorelModule", "BredonError", "C2GradedSpace", "CatalogEntry",
    "ConstraintSet", "ConstraintViolation", "GradedDims", "HomologyModule", "InfeasibleBounds",
    "InternalInconsistency", "InvalidShift", "M2Element", "MaximalityClass",
    "MaximalityPrediction", "NegativeExponent", "NegativeMultiplicity", "NormalFormModule",
    "ONE", "ParameterRange", "ParseError", "PdReport", "PdViolation", "RHO", "SchemaError",
    "SearchTooLarge", "SmithThomReport", "TAU", "THETA", "TorsionUnknown",
    "UnivariatePolynomial", "UnknownName", "ValidationFailure", "ValidationReport", "ZERO",
    "borel_classify", "catalog_get", "catalog_list", "classify", "direct_sum",
    "enumerate_decompositions", "fixed_poincare_polynomial", "forgetful_image_dims",
    "group_cohomology_dims", "hodge_birank_check", "hodge_expressive_check", "homology_dual",
    "iter_decompositions", "krasnov_predict", "m2_basis", "m2_multiply", "make_module",
    "pd_symmetric", "rank_polynomial", "real_manifold_validate", "rho_localize",
    "satisfies_constraints", "singular_betti", "smith_thom_report", "suspend", "tau_localize",
    "threefold_predict", "underlying_singular",
]


def test_public_names():
    assert len(bredon.__all__) == len(set(bredon.__all__))
    assert sorted(bredon.__all__) == PUBLIC_NAMES


def test_each_name_is_its_submodule_object():
    seen = []
    for name in SUBMODULES:
        module = importlib.import_module(f"bredon.{name}")
        for attr in module.__all__:
            assert getattr(bredon, attr) is getattr(module, attr), (name, attr)
        seen += module.__all__
    assert seen == bredon.__all__
