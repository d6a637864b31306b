import json
from pathlib import Path

import pytest

from bredon import (
    BredonError,
    ConstraintSet,
    GradedDims,
    InfeasibleBounds,
    SchemaError,
    catalog_get,
    enumerate_decompositions,
    make_module,
    pd_symmetric,
    real_manifold_validate,
)
from bredon.cli import main, render_rank_lattice
from bredon.serialize import canonical_dumps

DEMO_DATA = Path(__file__).resolve().parents[1] / "demos" / "data"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_catalog_listing(capsys):
    code, out, _ = run(capsys, "catalog", "--format", "json")
    assert code == 0
    names = [item["name"] for item in json.loads(out)]
    assert "k3" in names and "cubic_threefold_s3_rp3" in names


def test_show_json_round_trips(capsys):
    for name, params in [
        ("projective_space", ["--param", "n=3"]),
        ("k3", ["--param", "b_star=4", "--param", "chi=4"]),
        ("curve", ["--param", "g=3", "--param", "r=1"]),
        ("severi_brauer_odd", ["--param", "k=1"]),
        ("twisted_plane", []),
    ]:
        code, out, _ = run(
            capsys, "show", "--catalog", name, *params, "--format", "json"
        )
        assert code == 0
        module = catalog_get(
            name, **{kv.split("=")[0]: int(kv.split("=")[1]) for kv in params[1::2]}
        ).module
        assert json.loads(out) == module.to_json_dict()
        assert out.strip() == canonical_dumps(module.to_json_dict())


def test_show_table(capsys):
    code, out, _ = run(capsys, "show", "--catalog", "k3", "--param", "b_star=4",
                       "--param", "chi=4")
    assert code == 0
    assert "q=2" in out and "p =" in out and "antipodal: A0[2]^10" in out


def test_classify(capsys):
    code, out, _ = run(capsys, "classify", "--catalog", "projective_space",
                       "--param", "n=3")
    assert code == 0 and out.strip() == "M"
    code, out, _ = run(capsys, "classify", "--catalog", "severi_brauer_1",
                       "--format", "json")
    assert code == 0 and json.loads(out) == {"class": "NEITHER"}


def test_report(capsys):
    code, out, _ = run(capsys, "report", "--catalog", "k3", "--param", "b_star=4",
                       "--param", "chi=4", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["class"] == "GM"
    assert payload["smith_thom"] == {
        "fixed": 4,
        "group_cohomology": 4,
        "singular": 24,
        "class": "GM",
    }
    assert payload["fixed_betti"] == [[0, 2], [2, 2]]
    assert payload["borel"]["torsion"] == [[2, 0, 10]]


def test_fixed_borel_singular_image_rankpoly(capsys):
    base = ["--catalog", "curve", "--param", "g=3", "--param", "r=1"]
    code, out, _ = run(capsys, "fixed", *base, "--format", "json")
    assert code == 0 and json.loads(out)["betti"] == [[0, 2], [1, 2]]
    code, out, _ = run(capsys, "borel", *base, "--format", "json")
    assert code == 0 and json.loads(out)["torsion"] == [[1, 0, 2]]
    code, out, _ = run(capsys, "singular", *base, "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["regular"] == [[1, 2]]
    assert payload["group_cohomology"] == [[0, 1], [1, 2], [2, 1]]
    code, out, _ = run(capsys, "image", *base, "--format", "json")
    assert code == 0 and json.loads(out) == [[0, 1], [1, 4], [2, 1]]
    code, out, _ = run(capsys, "rankpoly", *base, "--format", "json")
    assert code == 0 and [1, 0, 1] in json.loads(out)


def test_pd_check_failure_exit_code(capsys):
    code, out, _ = run(capsys, "pd-check", "--catalog", "twisted_plane",
                       "--dim", "1", "--format", "json")
    assert code == 1
    payload = json.loads(out)
    assert payload["holds"] is False
    assert payload["violations"] == [
        {"part": "free", "key": [1, 1], "mirror": [1, 0], "count": 1, "mirror_count": 0}
    ]
    code, _, _ = run(capsys, "pd-check", "--catalog", "k3", "--param", "b_star=4",
                     "--param", "chi=4")
    assert code == 0


def test_negative_dim_is_an_input_error(capsys):
    for verb, dim in (("pd-check", "-1"), ("validate", "-3")):
        code, out, err = run(capsys, verb, "--catalog", "point", "--dim", dim)
        assert code == 2 and out == ""
        assert err == f"error[SCHEMA_ERROR]: dim: expected a nonnegative integer, got {dim}\n"


def test_validate(capsys):
    code, out, _ = run(capsys, "validate", "--catalog", "cubic_threefold_s3_rp3",
                       "--format", "json")
    assert code == 0 and json.loads(out)["passed"] is True
    code, out, _ = run(capsys, "validate", "--catalog", "twisted_plane",
                       "--format", "json")
    assert code == 1
    payload = json.loads(out)
    assert any(f["condition"] == "pd_symmetry" for f in payload["failures"])


FLAG_CHOICES = {
    "fixed-point": ((), (True, "--fixed-point"), (False, "--no-fixed-point")),
    "connected": ((), (True, "--connected"), (False, "--no-connected")),
}


@pytest.mark.parametrize("fixed_point", FLAG_CHOICES["fixed-point"])
@pytest.mark.parametrize("connected", FLAG_CHOICES["connected"])
def test_validate_flags_default_to_the_entry_else_false(tmp_path, capsys, fixed_point,
                                                        connected):
    # each condition is the flag if given, else the entry's field, else
    # False for a module file, which carries neither
    entry = catalog_get("severi_brauer_1")
    module_file = tmp_path / "sb1.json"
    module_file.write_text(canonical_dumps(entry.module.to_json_dict()))
    flags = [choice[1] for choice in (fixed_point, connected) if choice]
    for source, defaults in (
        (["--catalog", "severi_brauer_1"], (entry.has_fixed_point, entry.connected)),
        (["--module", str(module_file), "--dim", "1"], (False, False)),
    ):
        fp = fixed_point[0] if fixed_point else defaults[0]
        conn = connected[0] if connected else defaults[1]
        report = real_manifold_validate(entry.module, 1, fp, conn)
        code, out, err = run(capsys, "validate", *source, *flags, "--format", "json")
        assert (code, out, err) == (
            0 if report.passed else 1,
            canonical_dumps(report.to_json_dict()) + "\n",
            "",
        )


def test_main_builds_one_parser_and_keeps_no_value(monkeypatch, capsys):
    """Every ``main`` call shares one parser, and no parsed value carries
    over to the next call: an appended ``--param`` list or a flag."""
    import bredon.cli

    seen = []
    run_args = bredon.cli._run
    monkeypatch.setattr(bredon.cli, "_run", lambda args: seen.append(args) or run_args(args))
    bredon.cli.build_parser.cache_clear()
    k3 = ["--catalog", "k3", "--param", "b_star=4", "--param", "chi=4"]
    for flags in (["--fixed-point"], [], ["--no-fixed-point"], []):
        run(capsys, "validate", *k3, *flags, "--format", "json")
    run(capsys, "validate", "--catalog", "severi_brauer_1", "--format", "json")
    assert bredon.cli.build_parser.cache_info().misses == 1
    assert [args.fixed_point for args in seen] == [True, None, False, None, None]
    assert [args.param for args in seen] == [["b_star=4", "chi=4"]] * 4 + [[]]


def test_hodge_torsion_flag_overrides_the_catalog_default(capsys):
    code, out, _ = run(capsys, "hodge", "--catalog", "k3_hodge_expressive",
                       "--no-torsion-free", "--format", "json")
    assert code == 0 and json.loads(out) == {"expressive": False, "birank": True}


def test_pd_check_dim_overrides_the_entry(capsys):
    k3 = catalog_get("k3", b_star=4, chi=4)
    assert k3.dimension == 2
    code, out, _ = run(capsys, "pd-check", "--catalog", "k3", "--param", "b_star=4",
                       "--param", "chi=4", "--dim", "3", "--format", "json")
    report = pd_symmetric(k3.module, 3)
    assert not report.holds
    assert (code, out) == (1, canonical_dumps(report.to_json_dict()) + "\n")


def test_hodge(capsys):
    code, out, _ = run(capsys, "hodge", "--catalog", "k3_hodge_expressive",
                       "--format", "json")
    assert code == 0 and json.loads(out) == {"expressive": True, "birank": True}
    code, out, _ = run(capsys, "hodge", "--catalog", "k3", "--param", "b_star=4",
                       "--param", "chi=4", "--format", "json")
    assert code == 0 and json.loads(out) == {"expressive": False, "birank": False}


def test_hodge_from_file(tmp_path, capsys):
    hodge_file = tmp_path / "hodge.json"
    hodge_file.write_text("[[0,0,1]]")
    module_file = tmp_path / "module.json"
    module_file.write_text('{"free":[[0,0,1]],"antipodal":[]}')
    code, out, _ = run(capsys, "hodge", "--module", str(module_file), "--hodge",
                       str(hodge_file), "--torsion-free", "--format", "json")
    assert code == 0 and json.loads(out) == {"expressive": True, "birank": True}
    # without the torsion assertion the check cannot run
    code, _, err = run(capsys, "hodge", "--module", str(module_file), "--hodge",
                       str(hodge_file))
    assert code == 2 and "TORSION_UNKNOWN" in err


@pytest.mark.parametrize("rows", ["[[-1,0,1],[0,0,1]]", "[[0,0,-1]]"])
def test_negative_hodge_entry_exits_2(tmp_path, capsys, rows):
    hodge_file = tmp_path / "hodge.json"
    hodge_file.write_text(rows)
    code, out, err = run(capsys, "hodge", "--catalog", "point", "--hodge", str(hodge_file))
    assert code == 2 and out == ""
    assert err == (
        "error[SCHEMA_ERROR]: hodge[0]: expected [p, q, coefficient] nonnegative integers\n"
    )


def test_solve_streams_k3(tmp_path, capsys):
    constraints = ConstraintSet(
        dimension=2,
        betti_total=GradedDims.from_list([1, 0, 22, 0, 1]),
        betti_fixed=GradedDims.from_list([2, 0, 2]),
        has_fixed_point=True,
        connected=True,
        poincare_dual=True,
    )
    path = tmp_path / "k3.json"
    path.write_text(json.dumps(constraints.to_json_dict()))
    code, out, _ = run(capsys, "solve", "--constraints", str(path))
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 1
    expected = catalog_get("k3", b_star=4, chi=4).module
    assert lines[0] == canonical_dumps(expected.to_json_dict())
    # byte-identical on a second run
    code2, out2, _ = run(capsys, "solve", "--constraints", str(path))
    assert code2 == 0 and out2 == out


def test_solve_prints_every_module_canonically(tmp_path, capsys):
    # Betti-only n=2 [1,0,12,0,1]: antipodal rows and multiplicities >= 10
    constraints = ConstraintSet(dimension=2, betti_total=GradedDims.from_list([1, 0, 12, 0, 1]))
    path = tmp_path / "betti.json"
    path.write_text(json.dumps(constraints.to_json_dict()))
    code, out, err = run(capsys, "solve", "--constraints", str(path))
    assert code == 0 and err == ""
    modules = enumerate_decompositions(constraints)
    assert out.splitlines() == [canonical_dumps(m.to_json_dict()) for m in modules]
    assert any(m.antipodal for m in modules)
    assert any(mult >= 10 for m in modules for _, _, mult in m.free + m.antipodal)


def test_solve_formats_each_distinct_row_once(capsys, monkeypatch):
    """One ``bredon solve`` on ``pd_n3`` from an empty row-text table formats
    each distinct row of its output once, far fewer than the rows it prints:
    the reuse happens within one solve, with no warm-up from earlier ones."""
    from bredon.algebra import _ROW_TEXTS, _RowTexts

    formatted = []
    missing = _RowTexts.__missing__

    def counted(table, row):
        formatted.append(row)
        return missing(table, row)

    monkeypatch.setattr(_RowTexts, "__missing__", counted)
    _ROW_TEXTS.clear()
    path = Path(__file__).resolve().parents[1] / "benchmarks" / "data" / "pd_n3.json"
    code, out, _ = run(capsys, "solve", "--constraints", str(path))
    assert code == 0
    lines = out.splitlines()
    rows = [tuple(row) for line in lines for part in json.loads(line).values() for row in part]
    assert len(lines) == 9418
    assert len(formatted) == len(set(formatted)) == len(set(rows)) == 60
    assert len(rows) > 1000 * len(formatted)


def test_solve_writes_its_first_line_before_a_second_candidate(tmp_path, monkeypatch):
    """``bredon solve`` prints each module as the search yields it: the first
    line is written while only one candidate has been built."""
    import contextlib

    import bredon.solver

    built = []
    make = bredon.solver._walk_module

    def counted(*rows):
        built.append(rows)
        return make(*rows)

    class Sink:
        """A stdout that records how many candidates were built at its first write."""

        def __init__(self):
            self.at_first_write = None
            self.text = []

        def write(self, text):
            if self.at_first_write is None:
                self.at_first_write = len(built)
            self.text.append(text)
            return len(text)

        def flush(self):
            pass

    monkeypatch.setattr(bredon.solver, "_walk_module", counted)
    constraints = ConstraintSet(dimension=2, betti_total=GradedDims.from_list([1, 0, 22, 0, 1]))
    path = tmp_path / "k3_betti.json"
    path.write_text(json.dumps(constraints.to_json_dict()))
    sink = Sink()
    with contextlib.redirect_stdout(sink):
        assert main(["solve", "--constraints", str(path)]) == 0
    assert sink.at_first_write == 1
    assert len(built) == "".join(sink.text).count("\n") == 10146


def test_predict(tmp_path, capsys):
    constraints = ConstraintSet(
        dimension=3,
        betti_total=GradedDims.from_list([1, 0, 1, 10, 1, 0, 1]),
        has_fixed_point=True,
        connected=True,
        poincare_dual=True,
        forgetful_onto_degrees=frozenset({4}),
    )
    path = tmp_path / "cubic.json"
    path.write_text(json.dumps(constraints.to_json_dict()))
    code, out, _ = run(capsys, "predict", "--constraints", str(path), "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["krasnov"] == {"applicable": False, "prediction": None}
    assert payload["threefold"] == {"applicable": True, "prediction": "GM"}


def test_solve_constraint_overrides(tmp_path, capsys):
    constraints = ConstraintSet(
        dimension=3,
        betti_total=GradedDims.from_list([1, 0, 1, 10, 1, 0, 1]),
        betti_fixed=GradedDims.from_list([2, 1, 1, 2]),
        has_fixed_point=True,
        connected=True,
        poincare_dual=True,
        forgetful_onto_degrees=frozenset({4}),
    )
    path = tmp_path / "cubic.json"
    path.write_text(json.dumps(constraints.to_json_dict()))
    code, out, _ = run(capsys, "solve", "--constraints", str(path))
    assert code == 0
    baseline = len(out.strip().splitlines())
    # dropping the duality hypothesis from the file widens the fiber
    path.write_text(json.dumps(dict(constraints.to_json_dict(), poincare_dual=False)))
    code, out, _ = run(capsys, "solve", "--constraints", str(path))
    assert code == 0
    assert len(out.strip().splitlines()) > baseline
    # predict follows the edited file too
    code, out, _ = run(capsys, "predict", "--constraints", str(path), "--format", "json")
    assert code == 0
    assert json.loads(out)["threefold"]["applicable"] is False


@pytest.mark.parametrize("betti", [[1, 0, 2, 0, 1], [1, 1, 2, 1, 1], [1, 0, 3, 0, 1]])
def test_connected_field_changes_no_solve_or_predict_output(tmp_path, capsys, betti):
    # with b0 = 1 the field only restates the data, so it has no flag
    for fixed_point in (False, True):
        for pd in (False, True):
            seen = []
            for connected in (False, True):
                path = tmp_path / "constraints.json"
                path.write_text(json.dumps({
                    "n": 2, "betti_total": betti, "has_fixed_point": fixed_point,
                    "connected": connected, "poincare_dual": pd,
                }))
                seen.append([
                    run(capsys, verb, "--constraints", str(path), *fmt)
                    for verb, fmt in (("solve", ()), ("predict", ("--format", "json")))
                ])
            assert seen[0] == seen[1]
            assert all(code == 0 for code, _, _ in seen[0])
    # every condition is a field of the file: no flag overrides one
    for verb in ("solve", "predict"):
        for flag in ("--connected", "--pd", "--no-pd", "--fixed-point", "--no-fixed-point"):
            with pytest.raises(SystemExit) as info:
                main([verb, "--constraints", str(path), flag])
            assert info.value.code == 2
            assert f"unrecognized arguments: {flag}" in capsys.readouterr().err


def test_search_too_large_exits_2(tmp_path, capsys):
    n = 50
    path = tmp_path / "deep.json"
    path.write_text(json.dumps({
        "n": n, "betti_total": [1, 0] + [1] * (2 * n - 3) + [0, 1],
        "has_fixed_point": True, "connected": True, "poincare_dual": True,
    }))
    code, out, err = run(capsys, "solve", "--constraints", str(path))
    assert code == 2 and out == ""
    assert err == "error[SEARCH_TOO_LARGE]: the search for n=50 needs more than 65536 states\n"


def test_solve_prints_nothing_for_an_empty_result(tmp_path, capsys):
    path = tmp_path / "empty.json"
    path.write_text('{"n": 1, "betti_total": [0, 1, 0], "poincare_dual": true}')
    assert run(capsys, "solve", "--constraints", str(path)) == (0, "", "")


def test_solve_empty_betti_data_prints_the_zero_module(tmp_path, capsys):
    path = tmp_path / "nothing.json"
    path.write_text('{"n": 2, "betti_total": []}')
    code, out, err = run(capsys, "solve", "--constraints", str(path))
    assert (code, out, err) == (0, '{"free":[],"antipodal":[]}\n', "")


def test_solve_point_in_high_dimension(tmp_path, capsys):
    path = tmp_path / "point.json"
    path.write_text('{"n": 300, "betti_total": [1]}')
    code, out, err = run(capsys, "solve", "--constraints", str(path))
    assert (code, out, err) == (0, '{"free":[[0,0,1]],"antipodal":[]}\n', "")


@pytest.mark.parametrize("error", BredonError.__subclasses__())
def test_every_error_exits_2(monkeypatch, capsys, error):
    import bredon.cli

    def fail(args):
        raise error("field", "message") if error is SchemaError else error("message")

    monkeypatch.setattr(bredon.cli, "_run", fail)
    code, out, err = run(capsys, "catalog")
    assert code == 2 and out == ""
    assert err.startswith(f"error[{error.code}]: ")


def test_module_file_input(tmp_path, capsys):
    module = catalog_get("severi_brauer_1").module
    path = tmp_path / "sb1.json"
    path.write_text(canonical_dumps(module.to_json_dict()))
    code, out, _ = run(capsys, "classify", "--module", str(path))
    assert code == 0 and out.strip() == "NEITHER"


def test_unreadable_inputs_exit_2(tmp_path, capsys):
    missing = tmp_path / "missing.json"
    no_n = tmp_path / "no_n.json"
    no_n.write_text('{"betti_total": [1]}')
    for argv, err_want in [
        (("solve", "--constraints", str(missing)),
         f"error[PARSE_ERROR]: {missing}: No such file or directory\n"),
        (("show", "--module", str(tmp_path)),
         f"error[PARSE_ERROR]: {tmp_path}: Is a directory\n"),
        (("solve", "--constraints", str(no_n)),
         "error[SCHEMA_ERROR]: constraints.n: missing required field\n"),
        (("show", "--catalog", "severi_brauer_odd", "--param", "k=-1"),
         "error[PARAMETER_RANGE]: severi_brauer_odd needs k >= 0, got -1\n"),
    ]:
        assert run(capsys, *argv) == (2, "", err_want), argv

    # files that are not UTF-8, nest deeper than the stack or hold an integer
    # over the conversion limit: each kind of input, one line on stderr
    not_utf8 = tmp_path / "not_utf8.json"
    not_utf8.write_bytes(b'{"free": [[0, 0, 1]]}\xff')
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100_000 + "]" * 100_000)
    long_int = tmp_path / "long_int.json"
    long_int.write_text('{"n": ' + "1" * 5000 + "}")
    for path, message in [
        (not_utf8, "not UTF-8 text: invalid start byte at byte 21"),
        (deep, "JSON nested too deeply to read"),
        (long_int, "unreadable integer: "),
    ]:
        for argv in (("show", "--module", str(path)), ("solve", "--constraints", str(path))):
            code, out, err = run(capsys, *argv)
            assert (code, out) == (2, ""), argv
            assert err.startswith(f"error[PARSE_ERROR]: {path}: {message}"), argv
            assert err.count("\n") == 1 and err.endswith("\n"), argv


def test_module_file_unknown_field_exits_2(tmp_path, capsys):
    typo = tmp_path / "typo.json"
    typo.write_text('{"free": [[0,0,1],[2,1,1]], "antipodel": [[1,0,3]]}')
    code, out, err = run(capsys, "classify", "--module", str(typo))
    assert code == 2 and out == ""
    assert err == "error[SCHEMA_ERROR]: module.antipodel: unknown field\n"
    # a constraints file is not a module file
    code, out, err = run(capsys, "show", "--module", str(DEMO_DATA / "k3_s2s2.json"))
    assert code == 2 and out == ""
    assert err == "error[SCHEMA_ERROR]: module.n: unknown field\n"


def test_malformed_inputs_exit_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, _, err = run(capsys, "classify", "--module", str(bad))
    assert code == 2 and "PARSE_ERROR" in err and "line 1" in err

    wrong_shape = tmp_path / "shape.json"
    wrong_shape.write_text('{"free": [[1, 2]], "antipodal": []}')
    code, _, err = run(capsys, "classify", "--module", str(wrong_shape))
    assert code == 2 and "SCHEMA_ERROR" in err

    non_cw = tmp_path / "noncw.json"
    non_cw.write_text('{"free": [[1, 2, 1]], "antipodal": []}')
    code, _, err = run(capsys, "classify", "--module", str(non_cw))
    assert code == 2 and "CONSTRAINT_VIOLATION" in err

    code, _, err = run(capsys, "classify", "--catalog", "nonexistent")
    assert code == 2 and "UNKNOWN_NAME" in err

    code, _, err = run(capsys, "classify", "--catalog", "curve", "--param", "g=1",
                       "--param", "r=5")
    assert code == 2 and "PARAMETER_RANGE" in err

    code, out, err = run(capsys, "show", "--catalog", "curve", "--param", "g=3",
                         "--param", "g=1", "--param", "r=1")
    assert code == 2 and out == "" and "SCHEMA_ERROR" in err and "param" in err

    infeasible = tmp_path / "inf.json"
    for total, fixed in (([1, 0, 0, 7], None), ([1, 0, 1], [1, 0, 0, 1])):
        cs = {"n": 1, "betti_total": total, "betti_fixed": fixed,
              "has_fixed_point": False, "connected": False, "poincare_dual": False,
              "forgetful_onto_degrees": None, "class_filter": None}
        infeasible.write_text(json.dumps(cs))
        code, out, err = run(capsys, "solve", "--constraints", str(infeasible))
        assert code == 2 and out == "" and "INFEASIBLE_BOUNDS" in err
        code, out, err = run(capsys, "predict", "--constraints", str(infeasible))
        assert code == 2 and out == "" and "INFEASIBLE_BOUNDS" in err

    # a fixed-point flag that the fixed-locus list contradicts
    k3 = json.loads((DEMO_DATA / "k3_s2s2.json").read_text())
    infeasible.write_text(json.dumps(dict(k3, has_fixed_point=False)))
    for verb in ("solve", "predict"):
        code, out, err = run(capsys, verb, "--constraints", str(infeasible))
        assert code == 2 and out == "" and err.startswith("error[CONSTRAINT_VIOLATION]: ")

    missing_field = tmp_path / "missing.json"
    missing_field.write_text('{"n": 2}')
    code, _, err = run(capsys, "predict", "--constraints", str(missing_field))
    assert code == 2 and "SCHEMA_ERROR" in err and "betti_total" in err

    # a misspelled key is an error, not a dropped condition
    cubic = json.loads((DEMO_DATA / "cubic_s3_rp3.json").read_text())
    cubic["poincare_duel"] = cubic.pop("poincare_dual")
    typo = tmp_path / "typo.json"
    typo.write_text(json.dumps(cubic))
    code, out, err = run(capsys, "solve", "--constraints", str(typo))
    assert code == 2 and out == "" and "SCHEMA_ERROR" in err and "poincare_duel" in err

    # a module file has no intrinsic dimension, so pd-check needs --dim
    module_file = tmp_path / "m.json"
    module_file.write_text('{"free":[[0,0,1]],"antipodal":[]}')
    code, _, err = run(capsys, "pd-check", "--module", str(module_file))
    assert code == 2 and "SCHEMA_ERROR" in err and "dim" in err


def test_rank_lattice_table_is_bounded(tmp_path, capsys):
    # 256 x 256 cells is the bound, 256 x 257 one row more
    assert render_rank_lattice(make_module([(0, 0, 1), (255, 255, 1)])).startswith("q=255 |")
    with pytest.raises(InfeasibleBounds):
        render_rank_lattice(make_module([(0, 0, 1), (256, 255, 1)]))
    module = {"free": [[0, 0, 1], [3000, 3000, 1]], "antipodal": []}
    path = tmp_path / "wide.json"
    path.write_text(json.dumps(module))
    assert run(capsys, "show", "--module", str(path)) == (
        2,
        "",
        "error[INFEASIBLE_BOUNDS]: the rank lattice has 3001 x 3001 cells, more than "
        "65536; print the module with --format json\n",
    )
    code, out, err = run(capsys, "show", "--module", str(path), "--format", "json")
    assert (code, json.loads(out), err) == (0, module, "")


@pytest.mark.parametrize("argv, message", [
    (["--catalog", "k3", "--param", "g"], "expected K=V, got 'g'"),
    (["--catalog", "k3", "--param", "g=x"], "g: expected an integer, got 'x'"),
    # checked before the module file is read, so the missing file is not reached
    (["--module", "missing.json", "--param", "g=1"], "--param is only valid with --catalog"),
])
def test_param_errors_exit_2(capsys, argv, message):
    assert run(capsys, "show", *argv) == (2, "", f"error[SCHEMA_ERROR]: param: {message}\n")


@pytest.mark.parametrize("fmt", ["table", "json"])
def test_report_computes_each_localization_once(monkeypatch, capsys, fmt):
    import bredon.cli

    counts = {}

    def counted(name):
        fn = getattr(bredon.cli, name)

        def wrapper(*args):
            counts[name] = counts.get(name, 0) + 1
            return fn(*args)

        monkeypatch.setattr(bredon.cli, name, wrapper)

    localizations = (
        "underlying_singular",
        "rho_localize",
        "tau_localize",
        "forgetful_image_dims",
    )
    for name in localizations + ("_dims_table",):
        counted(name)
    code, out, _ = run(capsys, "report", "--catalog", "k3", "--param", "b_star=4",
                       "--param", "chi=4", "--format", fmt)
    assert code == 0 and out
    for name in localizations:
        assert counts[name] == 1, name
    # the table renders fixed Betti, singular Betti and forgetful image rows
    assert counts.get("_dims_table", 0) == (3 if fmt == "table" else 0)
