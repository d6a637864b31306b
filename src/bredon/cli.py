"""Command-line frontend: every operation over JSON files or catalog entries.

Exit codes: 0 on success, 1 when ``pd-check`` or ``validate`` fails (the
report is still emitted), 2 on any error: its code goes to stderr and
nothing to stdout.

``--format json`` never builds table text: each verb hands ``_emit`` a
function that renders its table, called only under ``--format table``.
"""

from __future__ import annotations

import argparse
import sys
from collections.abc import Callable
from dataclasses import replace

from .algebra import BivariatePolynomial, NormalFormModule, rank_polynomial
from .catalog import catalog_get, catalog_list
from .classification import (
    classify,
    group_cohomology_dims,
    hodge_birank_check,
    hodge_expressive_check,
    smith_thom_report,
)
from .exceptions import BredonError, SchemaError
from .localization import (
    fixed_poincare_polynomial,
    forgetful_image_dims,
    pd_symmetric,
    real_manifold_validate,
    rho_localize,
    tau_localize,
    underlying_singular,
)
from .serialize import canonical_dumps, load_json_file
from .solver import (
    ConstraintSet,
    enumerate_decompositions,
    krasnov_predict,
    threefold_predict,
)


def _add_input_args(parser: argparse.ArgumentParser):
    source = parser.add_mutually_exclusive_group(required=True)
    source.add_argument("--catalog", metavar="NAME")
    source.add_argument("--module", metavar="FILE")
    parser.add_argument(
        "--param",
        metavar="K=V",
        action="append",
        default=[],
        help="catalog parameter, repeatable",
    )


def _add_format_arg(parser: argparse.ArgumentParser):
    parser.add_argument("--format", choices=("table", "json"), default="table")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bredon",
        description="Normal-form calculus for bigraded C2-equivariant "
        "cohomology with mod-2 coefficients.",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    p = sub.add_parser("catalog", help="list built-in families")
    _add_format_arg(p)

    for verb, description in (
        ("show", "print a module (rank lattice or canonical JSON)"),
        ("classify", "Maximal / Galois-Maximal / neither"),
        ("report", "classification, totals ledger and all localizations"),
        ("fixed", "Betti numbers of the fixed locus"),
        ("borel", "Borel cohomology as an F2[z]-module"),
        ("singular", "underlying singular cohomology with involution"),
        ("image", "dimensions of the forgetful image"),
        ("rankpoly", "bigraded rank polynomial"),
    ):
        p = sub.add_parser(verb, help=description)
        _add_input_args(p)
        _add_format_arg(p)

    p = sub.add_parser("pd-check", help="check the duality mirror symmetries")
    _add_input_args(p)
    _add_format_arg(p)
    p.add_argument("--dim", type=int, metavar="N", default=None)

    p = sub.add_parser("validate", help="check all compact-Real-manifold restrictions")
    _add_input_args(p)
    _add_format_arg(p)
    p.add_argument("--dim", type=int, metavar="N", default=None)
    p.add_argument("--fixed-point", action=argparse.BooleanOptionalAction, default=None)
    p.add_argument("--connected", action=argparse.BooleanOptionalAction, default=None)

    p = sub.add_parser("hodge", help="Hodge-expressivity checks")
    _add_input_args(p)
    _add_format_arg(p)
    p.add_argument("--hodge", metavar="FILE", help="Hodge polynomial as [[p,q,c],...]")
    p.add_argument(
        "--torsion-free", action=argparse.BooleanOptionalAction, default=None
    )

    for verb, description in (
        ("solve", "enumerate decompositions for constraints"),
        ("predict", "apply the GM sufficiency criteria"),
    ):
        p = sub.add_parser(verb, help=description)
        p.add_argument("--constraints", metavar="FILE", required=True)
        if verb == "predict":
            _add_format_arg(p)
        # command-line overrides for the corresponding constraint-file fields
        p.add_argument(
            "--fixed-point", action=argparse.BooleanOptionalAction, default=None
        )
        p.add_argument(
            "--connected", action=argparse.BooleanOptionalAction, default=None
        )
        p.add_argument("--pd", action=argparse.BooleanOptionalAction, default=None)

    return parser


def _parse_params(raw: list[str]) -> dict[str, int]:
    params = {}
    for item in raw:
        key, sep, value = item.partition("=")
        if not sep or not key:
            raise SchemaError("param", f"expected K=V, got {item!r}")
        if key in params:
            raise SchemaError("param", f"{key} given more than once")
        try:
            params[key] = int(value)
        except ValueError:
            raise SchemaError("param", f"{key}: expected an integer, got {value!r}")
    return params


def _load_entry_and_module(args):
    """Resolve --catalog/--module to (entry-or-None, module)."""
    if args.catalog:
        entry = catalog_get(args.catalog, **_parse_params(args.param))
        return entry, entry.module
    if args.param:
        raise SchemaError("param", "--param is only valid with --catalog")
    data = load_json_file(args.module)
    return None, NormalFormModule.from_json_dict(data)


def _dims_json(dims) -> list[list[int]]:
    return [[d, v] for d, v in dims.items()]


def _dims_table(dims, label: str) -> str:
    if not dims.items():
        return f"{label}: (zero)"
    body = "  ".join(f"{d}:{v}" for d, v in dims.items())
    return f"{label}: {body}   total {dims.total()}"


def render_rank_lattice(module: NormalFormModule) -> str:
    """Text grid of the free multiplicities in the (p, q) plane."""
    lines = []
    if module.free:
        max_p = max(p for p, _, _ in module.free)
        max_q = max(q for _, q, _ in module.free)
        ranks = module.free_map()
        width = max(len(str(m)) for _, _, m in module.free)
        width = max(width, len(str(max_p)), 1)
        for q in range(max_q, -1, -1):
            cells = [
                str(ranks.get((p, q), ".")).rjust(width) for p in range(max_p + 1)
            ]
            lines.append(f"q={q} | " + " ".join(cells))
        lines.append("      " + "-" * ((width + 1) * (max_p + 1)))
        lines.append("p =   " + " ".join(str(p).rjust(width) for p in range(max_p + 1)))
    else:
        lines.append("(no free summands)")
    if module.antipodal:
        lines.append("antipodal: " + ", ".join(
            f"A{n}[{r}]" + (f"^{m}" if m > 1 else "")
            for r, n, m in module.antipodal
        ))
    return "\n".join(lines)


def _emit(args, json_payload, table: Callable[[], str]):
    """Print the payload as canonical JSON, or the text ``table()`` renders."""
    if getattr(args, "format", "table") == "json":
        print(canonical_dumps(json_payload))
    else:
        print(table())


def _resolve_dim(args, entry) -> int:
    if args.dim is not None:
        if args.dim < 0:
            raise SchemaError("dim", f"expected a nonnegative integer, got {args.dim}")
        return args.dim
    if entry is not None and entry.dimension is not None:
        return entry.dimension
    raise SchemaError("dim", "--dim is required when the entry has no dimension")


def _run(args) -> int:
    verb = args.verb

    if verb == "catalog":
        listing = catalog_list()
        _emit(
            args,
            listing,
            lambda: "\n".join(
                entry["name"]
                + (
                    " (" + ", ".join(p["name"] for p in entry["parameters"]) + ")"
                    if entry["parameters"]
                    else ""
                )
                for entry in listing
            ),
        )
        return 0

    if verb in ("solve", "predict"):
        constraints = ConstraintSet.from_json_dict(load_json_file(args.constraints))
        overrides = {}
        if args.fixed_point is not None:
            overrides["has_fixed_point"] = args.fixed_point
        if args.connected is not None:
            overrides["connected"] = args.connected
        if args.pd is not None:
            overrides["poincare_dual"] = args.pd
        if overrides:
            constraints = replace(constraints, **overrides)
        if verb == "solve":
            for module in enumerate_decompositions(constraints):
                print(canonical_dumps(module.to_json_dict()))
            return 0
        payload = {
            "krasnov": krasnov_predict(constraints).to_json_dict(),
            "threefold": threefold_predict(constraints).to_json_dict(),
        }
        _emit(
            args,
            payload,
            lambda: "\n".join(
                f"{name}: "
                + ("predicts GM" if info["applicable"] else "not applicable")
                for name, info in payload.items()
            ),
        )
        return 0

    entry, module = _load_entry_and_module(args)

    if verb == "show":
        _emit(args, module.to_json_dict(), lambda: render_rank_lattice(module))
        return 0

    if verb == "classify":
        klass = classify(module)
        _emit(args, {"class": klass.value}, lambda: klass.value)
        return 0

    if verb == "report":
        ledger = smith_thom_report(module)
        fixed = rho_localize(module)
        borel = tau_localize(module)
        singular = underlying_singular(module)
        image = forgetful_image_dims(module)
        payload = {
            "class": ledger.klass.value,
            "smith_thom": ledger.to_json_dict(),
            "fixed_betti": _dims_json(fixed),
            "rank_polynomial": rank_polynomial(module).to_json(),
            "borel": borel.to_json_dict(),
            "singular": singular.to_json_dict(),
            "forgetful_image": _dims_json(image),
        }
        _emit(
            args,
            payload,
            lambda: "\n".join(
                [
                    f"class: {ledger.klass.value}",
                    f"totals: fixed {ledger.fixed_total} <= group cohomology "
                    f"{ledger.group_cohomology_total} <= singular {ledger.singular_total}",
                    _dims_table(fixed, "fixed Betti"),
                    _dims_table(singular.dims(), "singular Betti"),
                    _dims_table(image, "forgetful image"),
                    f"borel: {borel}",
                ]
            ),
        )
        return 0

    if verb == "fixed":
        dims = rho_localize(module)
        poly = fixed_poincare_polynomial(module)
        _emit(
            args,
            {"betti": _dims_json(dims), "poincare_polynomial": str(poly)},
            lambda: _dims_table(dims, "fixed Betti") + f"\nP(t) = {poly}",
        )
        return 0

    if verb == "borel":
        borel = tau_localize(module)
        _emit(args, borel.to_json_dict(), lambda: str(borel))
        return 0

    if verb == "singular":
        singular = underlying_singular(module)
        group = group_cohomology_dims(singular)
        payload = singular.to_json_dict()
        payload["group_cohomology"] = _dims_json(group)
        _emit(
            args,
            payload,
            lambda: "\n".join(
                [
                    _dims_table(singular.dims(), "singular Betti"),
                    _dims_table(singular.fixed_dims(), "involution-fixed"),
                    _dims_table(group, "group cohomology H^1"),
                ]
            ),
        )
        return 0

    if verb == "image":
        dims = forgetful_image_dims(module)
        _emit(args, _dims_json(dims), lambda: _dims_table(dims, "forgetful image"))
        return 0

    if verb == "rankpoly":
        poly = rank_polynomial(module)
        _emit(args, poly.to_json(), lambda: f"R(u,v) = {poly}")
        return 0

    if verb == "pd-check":
        dim = _resolve_dim(args, entry)
        report = pd_symmetric(module, dim)

        def table() -> str:
            lines = [f"duality symmetry at n={dim}: " + ("holds" if report.holds else "FAILS")]
            for v in report.violations:
                lines.append(
                    f"  {v.part} {v.key} has multiplicity {v.count} but mirror "
                    f"{v.mirror} has {v.mirror_count}"
                )
            return "\n".join(lines)

        _emit(args, report.to_json_dict(), table)
        return 0 if report.holds else 1

    if verb == "validate":
        dim = _resolve_dim(args, entry)
        fixed_point = args.fixed_point
        connected = args.connected
        if fixed_point is None:
            fixed_point = entry.has_fixed_point if entry else False
        if connected is None:
            connected = entry.connected if entry else False
        report = real_manifold_validate(module, dim, fixed_point, connected)

        def table() -> str:
            lines = [
                f"real-manifold restrictions at n={dim}: "
                + ("all pass" if report.passed else "FAIL")
            ]
            for failure in report.failures:
                keys = ", ".join(str(k) for k in failure.keys) or "-"
                lines.append(f"  {failure.condition} [{keys}]: {failure.detail}")
            return "\n".join(lines)

        _emit(args, report.to_json_dict(), table)
        return 0 if report.passed else 1

    if verb == "hodge":
        if args.hodge:
            hodge = BivariatePolynomial.from_json(load_json_file(args.hodge))
        elif entry is not None and entry.hodge_polynomial is not None:
            hodge = entry.hodge_polynomial
        else:
            raise SchemaError("hodge", "no Hodge polynomial: pass --hodge FILE")
        torsion_free = args.torsion_free
        if torsion_free is None and entry is not None:
            # catalog families all have classically torsion-free integral
            # cohomology
            torsion_free = True
        expressive = hodge_expressive_check(module, hodge, torsion_free)
        birank = hodge_birank_check(module, hodge)
        payload = {"expressive": expressive, "birank": birank}
        _emit(
            args,
            payload,
            lambda: f"H(u,v) = {hodge}\n"
            f"hodge-expressive: {'yes' if expressive else 'no'}\n"
            f"rank-level match: {'yes' if birank else 'no'}",
        )
        return 0

    raise AssertionError(f"unhandled verb {verb}")


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _run(args)
    except BredonError as exc:
        print(f"error[{exc.code}]: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
