"""Command-line frontend: every operation over JSON files or catalog entries.

Each module verb is one row of ``_VERBS``: its help, its handler and its
extra arguments.  ``build_parser`` builds every module-verb subparser from
that table, and ``_run`` resolves ``--catalog/--module`` once, calls the
handler and prints what it returns.  ``solve`` and ``predict`` read only
``--constraints``: every condition they apply is a field of that file.

Exit codes: 0 on success, 1 when ``pd-check`` or ``validate`` fails (the
report is still emitted), 2 on any error: its code goes to stderr and
nothing to stdout.

``--format json`` never builds table text: each handler returns a function
that renders its table, called only under ``--format table``.  A module
printed as JSON (each ``solve`` line, ``show --format json``) is
``NormalFormModule.to_json_text``, not the general encoder.
"""

from __future__ import annotations

import argparse
import sys
from collections.abc import Callable

from .algebra import BivariatePolynomial, NormalFormModule, power, rank_polynomial
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
        lines.append(
            "antipodal: " + ", ".join(power(f"A{n}[{r}]", m) for r, n, m in module.antipodal)
        )
    return "\n".join(lines)


def _emit(args, payload, table: Callable[[], str]):
    """Print the payload as canonical JSON, or the text ``table()`` renders.

    A module payload prints through its own text producer.
    """
    if args.format == "table":
        print(table())
    elif isinstance(payload, NormalFormModule):
        print(payload.to_json_text())
    else:
        print(canonical_dumps(payload))


def _resolve_dim(args, entry) -> int:
    if args.dim is not None:
        if args.dim < 0:
            raise SchemaError("dim", f"expected a nonnegative integer, got {args.dim}")
        return args.dim
    if entry is not None and entry.dimension is not None:
        return entry.dimension
    raise SchemaError("dim", "--dim is required when the entry has no dimension")


def _flag_or_entry(flag: bool | None, entry, field: str) -> bool:
    """The flag if given, else the entry's ``field``, else False (a module file)."""
    if flag is not None:
        return flag
    return getattr(entry, field) if entry is not None else False


# -- module verbs: each takes (args, entry, module) and returns
#    (payload, table renderer, exit code)


def _show(args, entry, module):
    return module, lambda: render_rank_lattice(module), 0


def _classify(args, entry, module):
    klass = classify(module)
    return {"class": klass.value}, lambda: klass.value, 0


def _report(args, entry, module):
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

    def table() -> str:
        return "\n".join(
            [
                f"class: {ledger.klass.value}",
                f"totals: fixed {ledger.fixed_total} <= group cohomology "
                f"{ledger.group_cohomology_total} <= singular {ledger.singular_total}",
                _dims_table(fixed, "fixed Betti"),
                _dims_table(singular.dims(), "singular Betti"),
                _dims_table(image, "forgetful image"),
                f"borel: {borel}",
            ]
        )

    return payload, table, 0


def _fixed(args, entry, module):
    dims = rho_localize(module)
    poly = fixed_poincare_polynomial(module)
    payload = {"betti": _dims_json(dims), "poincare_polynomial": str(poly)}
    return payload, lambda: _dims_table(dims, "fixed Betti") + f"\nP(t) = {poly}", 0


def _borel(args, entry, module):
    borel = tau_localize(module)
    return borel.to_json_dict(), lambda: str(borel), 0


def _singular(args, entry, module):
    singular = underlying_singular(module)
    group = group_cohomology_dims(singular)
    payload = dict(singular.to_json_dict(), group_cohomology=_dims_json(group))

    def table() -> str:
        return "\n".join(
            [
                _dims_table(singular.dims(), "singular Betti"),
                _dims_table(singular.fixed_dims(), "involution-fixed"),
                _dims_table(group, "group cohomology H^1"),
            ]
        )

    return payload, table, 0


def _image(args, entry, module):
    dims = forgetful_image_dims(module)
    return _dims_json(dims), lambda: _dims_table(dims, "forgetful image"), 0


def _rankpoly(args, entry, module):
    poly = rank_polynomial(module)
    return poly.to_json(), lambda: f"R(u,v) = {poly}", 0


def _pd_check(args, entry, module):
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

    return report.to_json_dict(), table, 0 if report.holds else 1


def _validate(args, entry, module):
    dim = _resolve_dim(args, entry)
    fixed_point = _flag_or_entry(args.fixed_point, entry, "has_fixed_point")
    connected = _flag_or_entry(args.connected, entry, "connected")
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

    return report.to_json_dict(), table, 0 if report.passed else 1


def _hodge(args, entry, module):
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
    return (
        {"expressive": expressive, "birank": birank},
        lambda: f"H(u,v) = {hodge}\n"
        f"hodge-expressive: {'yes' if expressive else 'no'}\n"
        f"rank-level match: {'yes' if birank else 'no'}",
        0,
    )


_DIM = ("--dim", {"type": int, "metavar": "N", "default": None})
_HODGE = ("--hodge", {"metavar": "FILE", "help": "Hodge polynomial as [[p,q,c],...]"})
_FORMAT = {"choices": ("table", "json"), "default": "table"}
# a --x/--no-x flag, None when not given
_FLAG = {"action": argparse.BooleanOptionalAction, "default": None}

# verb -> (help, handler, extra arguments as (option, add_argument keywords));
# every module verb also takes --catalog/--module, --param and --format
_VERBS = {
    "show": ("print a module (rank lattice or canonical JSON)", _show, ()),
    "classify": ("Maximal / Galois-Maximal / neither", _classify, ()),
    "report": ("classification, totals ledger and all localizations", _report, ()),
    "fixed": ("Betti numbers of the fixed locus", _fixed, ()),
    "borel": ("Borel cohomology as an F2[z]-module", _borel, ()),
    "singular": ("underlying singular cohomology with involution", _singular, ()),
    "image": ("dimensions of the forgetful image", _image, ()),
    "rankpoly": ("bigraded rank polynomial", _rankpoly, ()),
    "pd-check": ("check the duality mirror symmetries", _pd_check, (_DIM,)),
    "validate": (
        "check all compact-Real-manifold restrictions",
        _validate,
        (_DIM, ("--fixed-point", _FLAG), ("--connected", _FLAG)),
    ),
    "hodge": ("Hodge-expressivity checks", _hodge, (_HODGE, ("--torsion-free", _FLAG))),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bredon",
        description="Normal-form calculus for bigraded C2-equivariant "
        "cohomology with mod-2 coefficients.",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    p = sub.add_parser("catalog", help="list built-in families")
    p.add_argument("--format", **_FORMAT)

    for verb, (description, _, extras) in _VERBS.items():
        p = sub.add_parser(verb, help=description)
        source = p.add_mutually_exclusive_group(required=True)
        source.add_argument("--catalog", metavar="NAME")
        source.add_argument("--module", metavar="FILE")
        p.add_argument(
            "--param",
            metavar="K=V",
            action="append",
            default=[],
            help="catalog parameter, repeatable",
        )
        p.add_argument("--format", **_FORMAT)
        for option, keywords in extras:
            p.add_argument(option, **keywords)

    p = sub.add_parser("solve", help="enumerate decompositions for constraints")
    p.add_argument("--constraints", metavar="FILE", required=True)
    p = sub.add_parser("predict", help="apply the GM sufficiency criteria")
    p.add_argument("--constraints", metavar="FILE", required=True)
    p.add_argument("--format", **_FORMAT)

    return parser


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
        if verb == "solve":
            for module in enumerate_decompositions(constraints):
                print(module.to_json_text())
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

    if args.catalog:
        entry = catalog_get(args.catalog, **_parse_params(args.param))
        module = entry.module
    elif args.param:
        raise SchemaError("param", "--param is only valid with --catalog")
    else:
        entry = None
        module = NormalFormModule.from_json_dict(load_json_file(args.module))
    payload, table, code = _VERBS[verb][1](args, entry, module)
    _emit(args, payload, table)
    return code


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
