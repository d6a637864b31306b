"""Command-line frontend: every operation over JSON files or catalog entries.

Each verb is one row of ``_VERBS``: its help, its input, its handler and
its own arguments.  The input is one of three kinds in ``_INPUTS``: a
module (``--catalog NAME`` with ``--param``, or ``--module FILE``), a
constraints file (``--constraints FILE``: every condition ``solve`` and
``predict`` apply is a field of it), or nothing.  ``build_parser`` builds
every subparser from the two tables, once per process, and ``_run`` loads
the input the row names, calls the handler and prints what it returns,
once.

Exit codes: 0 on success, 1 when ``pd-check`` or ``validate`` fails (the
report is still emitted), 2 on any error: its code goes to stderr and
nothing to stdout.  141 when stdout is closed early (``bredon solve ... |
head``), with nothing on stderr.

``--format json`` never builds table text: each handler returns a function
that renders its table, called only under ``--format table``.  A module
printed as JSON (each ``solve`` line, ``show --format json``) is
``NormalFormModule.to_json_text``, not the general encoder; ``solve`` prints
each line as the search yields its module.
"""

from __future__ import annotations

import argparse
import os
import sys
from collections.abc import Iterator
from functools import cache

from .algebra import BivariatePolynomial, NormalFormModule, power, rank_polynomial
from .catalog import catalog_get, catalog_list
from .classification import (
    classify,
    group_cohomology_dims,
    hodge_birank_check,
    hodge_expressive_check,
    smith_thom_report,
)
from .exceptions import BredonError, InfeasibleBounds, SchemaError
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
    iter_decompositions,
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


# The most cells, (max_q + 1) * (max_p + 1), a rank-lattice table may have.
_MAX_LATTICE_CELLS = 1 << 16


def render_rank_lattice(module: NormalFormModule) -> str:
    """Text grid of the free multiplicities in the (p, q) plane.

    Raises :class:`InfeasibleBounds` when the grid would have more than
    ``_MAX_LATTICE_CELLS`` cells.
    """
    lines = []
    if module.free:
        max_p = max(p for p, _, _ in module.free)
        max_q = max(q for _, q, _ in module.free)
        if (max_q + 1) * (max_p + 1) > _MAX_LATTICE_CELLS:
            raise InfeasibleBounds(
                f"the rank lattice has {max_q + 1} x {max_p + 1} cells, more than "
                f"{_MAX_LATTICE_CELLS}; print the module with --format json"
            )
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


# -- handlers: each takes the parsed arguments and the loaded input, and
#    returns (payload, table renderer, exit code).  The renderer returns the
#    table's lines; an iterator payload yields modules, one JSON line each,
#    printed as they come.


def _catalog(args):
    listing = catalog_list()

    def table() -> list[str]:
        lines = []
        for entry in listing:
            params = ", ".join(p["name"] for p in entry["parameters"])
            lines.append(entry["name"] + (f" ({params})" if params else ""))
        return lines

    return listing, table, 0


def _show(args, entry, module):
    return iter((module,)), lambda: [render_rank_lattice(module)], 0


def _classify(args, entry, module):
    klass = classify(module)
    return {"class": klass.value}, lambda: [klass.value], 0


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
    return payload, lambda: [
        f"class: {ledger.klass.value}",
        f"totals: fixed {ledger.fixed_total} <= group cohomology "
        f"{ledger.group_cohomology_total} <= singular {ledger.singular_total}",
        _dims_table(fixed, "fixed Betti"),
        _dims_table(singular.dims(), "singular Betti"),
        _dims_table(image, "forgetful image"),
        f"borel: {borel}",
    ], 0


def _fixed(args, entry, module):
    dims = rho_localize(module)
    poly = fixed_poincare_polynomial(module)
    payload = {"betti": _dims_json(dims), "poincare_polynomial": str(poly)}
    return payload, lambda: [_dims_table(dims, "fixed Betti"), f"P(t) = {poly}"], 0


def _borel(args, entry, module):
    borel = tau_localize(module)
    return borel.to_json_dict(), lambda: [str(borel)], 0


def _singular(args, entry, module):
    singular = underlying_singular(module)
    group = group_cohomology_dims(singular)
    payload = dict(singular.to_json_dict(), group_cohomology=_dims_json(group))
    return payload, lambda: [
        _dims_table(singular.dims(), "singular Betti"),
        _dims_table(singular.fixed_dims(), "involution-fixed"),
        _dims_table(group, "group cohomology H^1"),
    ], 0


def _image(args, entry, module):
    dims = forgetful_image_dims(module)
    return _dims_json(dims), lambda: [_dims_table(dims, "forgetful image")], 0


def _rankpoly(args, entry, module):
    poly = rank_polynomial(module)
    return poly.to_json(), lambda: [f"R(u,v) = {poly}"], 0


def _pd_check(args, entry, module):
    dim = _resolve_dim(args, entry)
    report = pd_symmetric(module, dim)

    def table() -> list[str]:
        lines = [f"duality symmetry at n={dim}: " + ("holds" if report.holds else "FAILS")]
        for v in report.violations:
            lines.append(
                f"  {v.part} {v.key} has multiplicity {v.count} but mirror "
                f"{v.mirror} has {v.mirror_count}"
            )
        return lines

    return report.to_json_dict(), table, 0 if report.holds else 1


def _validate(args, entry, module):
    dim = _resolve_dim(args, entry)
    fixed_point = _flag_or_entry(args.fixed_point, entry, "has_fixed_point")
    connected = _flag_or_entry(args.connected, entry, "connected")
    report = real_manifold_validate(module, dim, fixed_point, connected)

    def table() -> list[str]:
        lines = [
            f"real-manifold restrictions at n={dim}: "
            + ("all pass" if report.passed else "FAIL")
        ]
        for failure in report.failures:
            keys = ", ".join(str(k) for k in failure.keys) or "-"
            lines.append(f"  {failure.condition} [{keys}]: {failure.detail}")
        return lines

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
    return {"expressive": expressive, "birank": birank}, lambda: [
        f"H(u,v) = {hodge}",
        f"hodge-expressive: {'yes' if expressive else 'no'}",
        f"rank-level match: {'yes' if birank else 'no'}",
    ], 0


def _solve(args, constraints):
    return iter_decompositions(constraints), None, 0


def _predict(args, constraints):
    payload = {
        "krasnov": krasnov_predict(constraints).to_json_dict(),
        "threefold": threefold_predict(constraints).to_json_dict(),
    }
    return payload, lambda: [
        f"{name}: " + ("predicts GM" if info["applicable"] else "not applicable")
        for name, info in payload.items()
    ], 0


def _module_arguments(parser: argparse.ArgumentParser) -> None:
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


def _load_module(args) -> tuple:
    """(entry, module); the entry is None for a module file."""
    if args.catalog:
        entry = catalog_get(args.catalog, **_parse_params(args.param))
        return entry, entry.module
    if args.param:
        raise SchemaError("param", "--param is only valid with --catalog")
    return None, NormalFormModule.from_json_dict(load_json_file(args.module))


# input kind -> (add its arguments to a parser, load it from parsed arguments)
_INPUTS = {
    "module": (_module_arguments, _load_module),
    "constraints": (
        lambda parser: parser.add_argument("--constraints", metavar="FILE", required=True),
        lambda args: (ConstraintSet.from_json_dict(load_json_file(args.constraints)),),
    ),
    "nothing": (lambda parser: None, lambda args: ()),
}

_DIM = ("--dim", {"type": int, "metavar": "N", "default": None})
_HODGE = ("--hodge", {"metavar": "FILE", "help": "Hodge polynomial as [[p,q,c],...]"})
_FORMAT = ("--format", {"choices": ("table", "json"), "default": "table"})
# a --x/--no-x flag, None when not given
_FLAG = {"action": argparse.BooleanOptionalAction, "default": None}

# verb -> (help, input kind, handler, its own arguments as (option,
# add_argument keywords)); ``solve`` has no --format and prints JSON
_VERBS = {
    "catalog": ("list built-in families", "nothing", _catalog, (_FORMAT,)),
    "show": ("print a module (rank lattice or canonical JSON)", "module", _show, (_FORMAT,)),
    "classify": ("Maximal / Galois-Maximal / neither", "module", _classify, (_FORMAT,)),
    "report": (
        "classification, totals ledger and all localizations", "module", _report, (_FORMAT,)
    ),
    "fixed": ("Betti numbers of the fixed locus", "module", _fixed, (_FORMAT,)),
    "borel": ("Borel cohomology as an F2[z]-module", "module", _borel, (_FORMAT,)),
    "singular": (
        "underlying singular cohomology with involution", "module", _singular, (_FORMAT,)
    ),
    "image": ("dimensions of the forgetful image", "module", _image, (_FORMAT,)),
    "rankpoly": ("bigraded rank polynomial", "module", _rankpoly, (_FORMAT,)),
    "pd-check": ("check the duality mirror symmetries", "module", _pd_check, (_FORMAT, _DIM)),
    "validate": (
        "check all compact-Real-manifold restrictions",
        "module",
        _validate,
        (_FORMAT, _DIM, ("--fixed-point", _FLAG), ("--connected", _FLAG)),
    ),
    "hodge": (
        "Hodge-expressivity checks",
        "module",
        _hodge,
        (_FORMAT, _HODGE, ("--torsion-free", _FLAG)),
    ),
    "solve": ("enumerate decompositions for constraints", "constraints", _solve, ()),
    "predict": ("apply the GM sufficiency criteria", "constraints", _predict, (_FORMAT,)),
}


@cache  # parse_args keeps no value in the parser, so every call can share it
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bredon",
        description="Normal-form calculus for bigraded C2-equivariant "
        "cohomology with mod-2 coefficients.",
    )
    sub = parser.add_subparsers(dest="verb", required=True)
    for verb, (description, source, _, arguments) in _VERBS.items():
        p = sub.add_parser(verb, help=description)
        _INPUTS[source][0](p)
        for option, keywords in arguments:
            p.add_argument(option, **keywords)
    return parser


def _run(args) -> int:
    _, source, handler, _ = _VERBS[args.verb]
    payload, table, code = handler(args, *_INPUTS[source][1](args))
    if getattr(args, "format", "json") == "table":
        lines = table()
    elif isinstance(payload, Iterator):
        lines = map(NormalFormModule.to_json_text, payload)
    else:
        lines = [canonical_dumps(payload)]
    write = sys.stdout.write
    for line in lines:
        write(line + "\n")  # print would write the line and its newline apart
    return code


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = _run(args)
        sys.stdout.flush()  # so that a closed pipe shows here, not at exit
        return code
    except BredonError as exc:
        print(f"error[{exc.code}]: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # The reader left (``bredon solve ... | head``).  As the SIGPIPE note
        # of the Python docs says, point stdout at devnull so that the flush
        # at exit cannot fail again; exit as a shell reports a SIGPIPE death.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141


if __name__ == "__main__":
    sys.exit(main())
