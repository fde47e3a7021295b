"""Command-line contract: schemas, exit codes, determinism, projections."""

import csv
import importlib
import io
import json
import math
import os
import pathlib
import shlex
import subprocess
import sys

import pytest

import oracles
from coulombgas import cli

FIXTURES = pathlib.Path(__file__).parent / "fixtures"
README = pathlib.Path(__file__).parent.parent / "README.md"


def child_env():
    # a child interpreter finds the package where this process imported it from
    return {**os.environ, "PYTHONPATH": str(pathlib.Path(cli.__file__).parents[1])}


def run_cli(argv, capsys):
    code = cli.run(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestGoldenSchemas:
    def test_all_subcommand_schemas(self, capsys):
        schemas = json.loads((FIXTURES / "cli_schemas.json").read_text())
        assert set(schemas) == {"geometry", "free-energy", "exact",
                                "duality-check", "tw", "critical", "ldp",
                                "op-compare", "report"}
        for name, pinned in schemas.items():
            code, out, _ = run_cli(pinned["args"], capsys)
            assert code == 0, name
            table = json.loads(out)
            assert sorted(table) == pinned["table_keys"], name
            assert sorted(table["rows"][0]) == pinned["row_keys"], name
            assert table["schema_version"] == 1


class TestExitCodes:
    def test_happy_path_geometry(self, capsys):
        code, out, _ = run_cli(
            ["geometry", "--a", "1", "--c", "0.5625", "--points", "256"],
            capsys)
        assert code == 0
        table = json.loads(out)
        assert len(table["rows"]) == 256
        assert table["droplet"]["chi"] == 1

    def test_happy_path_duality(self, capsys):
        code, out, _ = run_cli(
            ["duality-check", "--n", "2", "--m", "2", "--x", "0.5",
             "--bits", "256", "--tol", "1e-25"], capsys)
        assert code == 0
        assert json.loads(out)["rows"][0]["passed"] is True

    def test_happy_path_kc_identity(self, capsys):
        code, out, _ = run_cli(
            ["ldp", "--alpha", "1.7777777778", "--grid", "0.5:5:50",
             "--check-kc", "--tol", "1e-10"], capsys)
        assert code == 0
        assert json.loads(out)["worst_residual"] < 1e-10

    @pytest.mark.parametrize("argv", [
        ["free-energy", "--a", "0.2", "--c", "1"],          # missing --n
        ["ldp", "--alpha", "1"],                            # no --t/--grid
        ["tw", "--grid", "0:1:0"],                          # empty grid
        ["tw", "--grid", "nonsense"],                       # malformed grid
        ["exact", "--a", "0.2", "--c", "1/3", "--n", "4"],  # c*n not integer
        ["free-energy", "--a", "0.2", "--c", "1", "--n", "8",
         "--order", "-1"],                                  # M < 0
        ["exact", "--a", "0.2", "--c", "1", "--n", "4",
         "--bits", "64"],                                   # bits < 128
        ["report", "--skip", "nosuchsuite"],                # unknown suite
        ["nosuchcommand"],
        ["tw", "--t", "inf"],                               # non-finite flags
        ["tw", "--grid=nan:1:3"],
        ["tw", "--t", "1", "--tol", "nan"],
        ["ldp", "--alpha", "16/9", "--t", "nan"],
        ["free-energy", "--a", "0.2", "--c", "1/3", "--n", "8",
         "--exact-compare"],                                # c*n not integer
        ["critical", "--n", "8", "--c", "1/3", "--s", "2", "--exact-compare"],
        ["op-compare", "--a", "1.2", "--c", "1/3", "--n", "3,4"],
        ["ldp", "--alpha", "1/2", "--t", "2", "--exact-compare",
         "--n", "7"],                                       # alpha*n not integer
    ])
    def test_usage_errors(self, argv, capsys):
        code, _, err = run_cli(argv, capsys)
        assert code == cli.EXIT_USAGE
        payload = json.loads(err)
        assert payload["exit_code"] == 1
        assert payload["error"]

    @pytest.mark.parametrize("argv", [
        ["geometry", "--a", "-inf", "--c", "1"],
        ["geometry", "--a", "-Infinity", "--c", "1"],
        ["tw", "--t", "-nan"],
        ["tw", "--t", "-NaN"],
    ])
    def test_negative_non_finite_reaches_type_check(self, argv, capsys):
        # a leading "-" must not make argparse read the value as an option
        code, _, err = run_cli(argv, capsys)
        assert code == cli.EXIT_USAGE
        assert "finite" in json.loads(err)["message"]

    @pytest.mark.parametrize("argv, module, stage", [
        (["critical", "--n", "8", "--c", "1/3", "--s", "2", "--exact-compare"],
         "painleve", "hastings_mcleod"),
        (["op-compare", "--a", "1.2", "--c", "1/3", "--n", "3,4"],
         "opasymp", "GEvaluator"),
    ], ids=["critical", "op-compare"])
    def test_count_checked_before_numerics(self, argv, module, stage,
                                           monkeypatch, capsys):
        # a non-integer c*n is a usage error before any numerical work starts
        def refuse(*args, **kwargs):
            raise AssertionError(f"{stage} ran before the c*n check")

        monkeypatch.setattr(importlib.import_module(f"coulombgas.{module}"),
                            stage, refuse)
        code, _, _ = run_cli(argv, capsys)
        assert code == cli.EXIT_USAGE

    def test_numerical_error(self, capsys):
        # boundary sampling is undefined exactly at the transition
        code, _, err = run_cli(
            ["geometry", "--a", "0.5", "--c", "9/16"], capsys)
        assert code == cli.EXIT_NUMERICAL
        payload = json.loads(err)
        assert payload["error"] == "DomainError"

    @pytest.mark.parametrize("alpha", ["1e-300", "1e-20"])
    def test_tiny_alpha_names_alpha(self, alpha, capsys):
        # lambda_- = (sqrt(alpha+1) - 1)^2 rounds to 0 in double precision
        code, _, err = run_cli(["ldp", "--alpha", alpha, "--t", "1"], capsys)
        assert code == cli.EXIT_NUMERICAL
        payload = json.loads(err)
        assert payload["error"] == "DomainError"
        assert "alpha" in payload["message"]
        assert "underflows" in payload["message"]

    @pytest.mark.parametrize("alpha", ["1e-8", "1e-10", "1e-15"])
    def test_small_alpha_names_alpha_and_t(self, alpha, capsys):
        # the planar image (a, c) = (sqrt(t/alpha), 1/alpha) has no modulus
        # root in double precision; the error speaks of the flags given
        code, _, err = run_cli(["ldp", "--alpha", alpha, "--t", "1"], capsys)
        assert code == cli.EXIT_NUMERICAL
        payload = json.loads(err)
        assert payload["error"] == "DomainError"
        assert f"alpha = {float(alpha)!r}, t = 1.0" in payload["message"]
        assert "a=" not in payload["message"]

    def test_quadrature_cap_exits_numerical(self, monkeypatch, capsys):
        # a zero tolerance cannot be met, so the g quadrature reaches its cap
        from coulombgas import opasymp

        monkeypatch.setattr(opasymp, "DEFAULT_QUAD_TOL", 0.0)
        code, _, err = run_cli(
            ["op-compare", "--a", "1.2", "--c", "1", "--n", "4", "--x", "3",
             "--s", "0"], capsys)
        assert code == cli.EXIT_NUMERICAL
        payload = json.loads(err)
        assert payload["error"] == "QuadratureError"
        assert f"{opasymp.MAX_PANELS} panels" in payload["message"]

    def test_identity_failure(self, capsys):
        # residual is ~1e-74, so demanding 1e-80 must trip the identity gate
        code, out, err = run_cli(
            ["duality-check", "--n", "2", "--m", "2", "--x", "0.5",
             "--tol", "1e-80"], capsys)
        assert code == cli.EXIT_IDENTITY
        assert json.loads(out)["rows"][0]["passed"] is False  # table still emitted
        assert json.loads(err)["exit_code"] == 3


class TestDeterminism:
    def test_repeated_runs_identical(self, capsys):
        argv = ["free-energy", "--a", "1.2", "--c", "1", "--n", "8"]
        _, first, _ = run_cli(argv, capsys)
        _, second, _ = run_cli(argv, capsys)
        assert first == second

    def test_spaced_negative_grid_matches_equals_form(self, capsys):
        code, spaced, _ = run_cli(["tw", "--grid", "-4:2:13"], capsys)
        assert code == 0
        assert len(json.loads(spaced)["rows"]) == 13
        code, joined, _ = run_cli(["tw", "--grid=-4:2:13"], capsys)
        assert code == 0
        assert spaced == joined

    def test_report_runs_identical(self, capsys):
        argv = ["report", "--skip", "exact", "--skip", "freeenergy",
                "--skip", "ldp", "--skip", "opasymp"]
        code, first, _ = run_cli(argv, capsys)
        assert code == 0
        _, second, _ = run_cli(argv, capsys)
        assert first == second


class TestOutputHandling:
    def test_out_file(self, capsys, tmp_path):
        target = tmp_path / "table.json"
        code, out, _ = run_cli(
            ["tw", "--t", "-2", "--out", str(target)], capsys)
        assert code == 0
        assert out == ""
        assert json.loads(target.read_text())["rows"][0]["t"] == -2.0

    def test_csv_projection_flattens_complex(self, capsys):
        code, out, _ = run_cli(
            ["op-compare", "--a", "1.2", "--c", "1", "--n", "4", "--x", "3",
             "--s", "0", "--format", "csv"], capsys)
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        assert "z_re" in rows[0] and "z_im" in rows[0]
        assert "exact_re" in rows[0] and "asymptotic_re" in rows[0]
        assert float(rows[0]["z_re"]) == 3.0

    def test_geometry_csv_columns(self, capsys):
        code, out, _ = run_cli(
            ["geometry", "--a", "0.25", "--c", "9/16", "--points", "16",
             "--format", "csv"], capsys)
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        assert {"component", "theta", "point_re", "point_im",
                "closed"} <= set(rows[0])
        assert len(rows) == 32  # two components


# One command per subcommand, small enough for tier-1; the grid tables are
# the ones rendered by the compiled row format.
RENDER_COMMANDS = [
    ["geometry", "--a", "1", "--c", "0.5625", "--points", "64"],
    ["geometry", "--a", "0.3", "--c", "9/16", "--points", "64"],
    ["free-energy", "--a", "0.2", "--c", "1", "--n", "8", "--exact-compare"],
    ["free-energy", "--a", "1.2", "--c", "1", "--n", "8"],
    ["exact", "--a", "0.3", "--c", "9/16", "--n", "16"],
    ["duality-check", "--n", "2", "--m", "2", "--x", "0.5"],
    ["tw", "--grid=-8:6:300"],
    ["critical", "--n", "8", "--c", "1", "--s", "2"],
    ["ldp", "--alpha", "16/9", "--grid", "0.5:5:300", "--check-kc"],
    ["ldp", "--alpha", "1", "--grid", "0.5:3:4", "--exact-compare", "--n",
     "4"],
    ["op-compare", "--a", "1.2", "--c", "1", "--n", "4,8", "--x", "3", "--s",
     "1"],
    ["report", "--skip", "exact", "--skip", "opasymp"],
]
GRID_TABLES = {"geometry", "tw", "ldp"}


@pytest.fixture(scope="module")
def emitted_tables():
    tables = []
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(cli, "emit", lambda table, args: tables.append(table))
        for argv in RENDER_COMMANDS:
            assert cli.run(argv) == cli.EXIT_OK, argv
    assert len(tables) == len(RENDER_COMMANDS)
    return tables


def _table(rows, **head):
    return {"schema_version": 1, **head, "rows": rows}


class TestRender:
    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_every_subcommand_matches_reference(self, emitted_tables, fmt):
        for argv, table in zip(RENDER_COMMANDS, emitted_tables):
            assert cli.render(table, fmt) == oracles.reference_render(
                table, fmt), argv

    def test_grid_tables_take_compiled_format(self, emitted_tables):
        names = set()
        for table in emitted_tables:
            name = table.get("subcommand")
            if name in GRID_TABLES:
                assert cli._json_rows(table["rows"]) is not None, name
                assert cli._csv_rows(table["rows"]) is not None, name
                names.add(name)
        assert names == GRID_TABLES

    @pytest.mark.parametrize("rows", [
        # mixed shapes: a missing key, another key order, a type change
        [{"x": 1.0, "y": True}, {"x": 2.0}, {"y": False, "x": 3.0}],
        [{"x": 1.0, "n": 2}, {"x": 2, "n": 3}],
        [{"z": {"re": 1.0, "im": 2.0}}, {"z": {"im": 2.0, "re": 1.0}}],
        [{"z": {"re": 1.0, "im": 2.0}, "w": 0.5}, {"z": [1.0, 2.0], "w": 0.5}],
        # strings csv must quote, and ones it need not
        [{"label": 'a,"b"', "v": 1.0}, {"label": "c", "v": 2.0}],
        [{"label": "two\nlines", "v": 1.0}],
        [{"label": "caf\u00e9 50%", "v": -0.0}, {"label": "", "v": 1e300}],
        # None, alone and among floats
        [{"x": None, "y": 1.5}, {"x": None, "y": 2.5}],
        [{"x": None, "y": 1.5}, {"x": 0.25, "y": 2.5}],
        # one column, where csv quotes an empty field
        [{"only": None}, {"only": 1.0}],
        [{"only": ""}],
        # keys that need escaping, or collide once flattened
        [{"50% \"x\"": 1.0, "b": 2}],
        [{"p": {"re": 1.0, "im": 0.0}, "p_re": 3.0}],
        # every kind the compiled format takes, in one shape
        [{"k": "a", "t": 0.1 + 0.2, "n": 2 ** 70, "ok": True,
          "z": {"re": 5e-324, "im": -1.5}, "none": None},
         {"k": "b", "t": -1e-300, "n": -1, "ok": False,
          "z": {"re": 1.0, "im": 2.0}, "none": None}],
        [],
    ], ids=["missing-key", "int-then-float", "im-before-re", "nested-list",
            "csv-quoted", "newline", "unicode", "none-column", "none-mixed",
            "one-column", "one-empty-field", "escaped-key", "flat-collision",
            "all-kinds", "empty"])
    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_synthetic_tables_match_reference(self, rows, fmt):
        for table in (_table(rows, params={"grid": None, "tol": 1e-10}),
                      {"rows": rows}, {"rows": rows, "after": 1}):
            assert cli.render(table, fmt) == oracles.reference_render(
                table, fmt)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_json_refuses_non_finite_csv_writes_it(self, bad):
        for rows in ([{"x": 1.0, "y": bad}],
                     [{"x": 1.0, "z": {"re": 0.0, "im": bad}}]):
            with pytest.raises(ValueError):
                cli.render(_table(rows), "json")
        assert cli.render(_table([{"x": 1.0, "y": bad}]), "csv") \
            == f"x,y\n1.0,{bad!r}\n"
        with pytest.raises(ValueError):
            cli.render(_table([{"x": 1.0}], worst=bad), "json")

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_out_file_bytes_equal_stdout(self, fmt, capsys, tmp_path):
        argv = ["ldp", "--alpha", "16/9", "--grid", "0.5:5:200",
                "--format", fmt]
        code, out, _ = run_cli(argv, capsys)
        assert code == 0
        target = tmp_path / f"table.{fmt}"
        code, empty, _ = run_cli([*argv, "--out", str(target)], capsys)
        assert (code, empty) == (0, "")
        assert target.read_bytes() == out.encode()


class TestSemantics:
    def test_rational_c_matches_explicit_m(self, capsys):
        _, via_c, _ = run_cli(
            ["exact", "--a", "0.3", "--c", "9/16", "--n", "16"], capsys)
        _, via_m, _ = run_cli(
            ["exact", "--a", "0.3", "--c", "9/16", "--n", "16", "--m", "9"],
            capsys)
        assert json.loads(via_c)["rows"] == json.loads(via_m)["rows"]
        assert json.loads(via_c)["rows"][0]["m"] == 9

    def test_free_energy_exact_compare(self, capsys):
        _, out, _ = run_cli(
            ["free-energy", "--a", "0.2", "--c", "1", "--n", "8",
             "--exact-compare"], capsys)
        row = json.loads(out)["rows"][0]
        assert row["residual"] == pytest.approx(
            abs(row["exact_logz"] - row["expansion"]), rel=1e-12)
        assert row["regime"] == "POST"

    def test_op_compare_rows(self, capsys):
        _, out, _ = run_cli(
            ["op-compare", "--a", "0.2", "--c", "1", "--n", "8,12",
             "--x", "3", "--s", "0"], capsys)
        rows = json.loads(out)["rows"]
        assert [row["N"] for row in rows] == [8, 12]
        assert rows[1]["rel_error"] < rows[0]["rel_error"] < 1e-4

    def test_report_skip_drops_suite(self, capsys):
        _, out, _ = run_cli(["report", "--skip", "tw", "--skip", "exact",
                             "--skip", "freeenergy", "--skip", "opasymp"],
                            capsys)
        table = json.loads(out)
        assert sorted(table["skipped_suites"]) == ["exact", "freeenergy",
                                                   "opasymp", "tw"]
        assert all(row["suite"] == "ldp" for row in table["rows"])

    def test_full_report_names_failing_criterion(self, capsys):
        code, out, err = run_cli(["report"], capsys)
        table = json.loads(out)
        failing = [row["key"] for row in table["rows"] if not row["passed"]]
        # the polynomial-asymptotics thresholds are stricter than the
        # measured truth at these N; everything else holds
        assert failing == ["op_asymptotics"]
        assert code == cli.EXIT_IDENTITY
        assert "op_asymptotics" in json.loads(err)["message"]


def test_readme_examples_run(capsys):
    commands = [shlex.split(line)[1:] for line in README.read_text().splitlines()
                if line.startswith("coulombgas ")]
    assert commands
    for argv in commands:
        code, out, _ = run_cli(argv, capsys)
        if argv[0] == "report":
            # report keeps criterion 8 red on its release thresholds; every
            # other check passes
            failing = [row["key"] for row in json.loads(out)["rows"]
                       if not row["passed"]]
            assert (code, failing) == (cli.EXIT_IDENTITY,
                                       ["op_asymptotics"]), argv
        else:
            assert code == cli.EXIT_OK, argv
            assert json.loads(out)["rows"], argv


# Each command runs in a fresh interpreter: the test process has scipy loaded.
# No subcommand imports scipy; only the tests use it, as an oracle.
_MODULES_AFTER = """
import contextlib, io, json, sys
from coulombgas import cli
with contextlib.redirect_stdout(io.StringIO()):
    try:
        code = cli.run(sys.argv[1:])
    except SystemExit as exc:  # --help
        code = exc.code
print(json.dumps([code, sorted({name.split(".")[0] for name in sys.modules})]))
"""


@pytest.mark.parametrize("argv, numpy_free", [
    (["--help"], True),
    (["exact", "--a", "0.3", "--c", "9/16", "--n", "16"], True),
    (["geometry", "--a", "1", "--c", "0.5625", "--points", "16"], False),
    (["free-energy", "--a", "0.2", "--c", "1", "--n", "8", "--exact-compare"],
     False),
    (["duality-check", "--n", "2", "--m", "2", "--x", "0.5"], False),
    (["ldp", "--alpha", "16/9", "--grid", "0.5:5:5", "--check-kc"], False),
    (["tw", "--grid=-8:6:5"], False),
    (["critical", "--n", "8", "--c", "1", "--s", "2"], False),
    (["op-compare", "--a", "1.2", "--c", "1", "--n", "4,8", "--x", "3",
      "--s", "0"], False),
    (["report"], False),
], ids=lambda value: value[0] if isinstance(value, list) else None)
def test_cold_start_skips_scipy(argv, numpy_free):
    proc = subprocess.run([sys.executable, "-c", _MODULES_AFTER, *argv],
                          capture_output=True, text=True, timeout=120,
                          env=child_env())
    code, top_level = json.loads(proc.stdout)
    # report keeps criterion 8 red, so it exits 3
    assert code == (cli.EXIT_IDENTITY if argv == ["report"] else cli.EXIT_OK), \
        proc.stderr
    assert "scipy" not in top_level
    if numpy_free:
        assert "numpy" not in top_level


@pytest.mark.parametrize("argv", [
    ["ldp", "--alpha", "16/9", "--grid", "0.5:5:200", "--check-kc"],
    ["ldp", "--alpha", "16/9", "--t", "2", "--format", "csv"],
    ["geometry", "--a", "1", "--c", "9/16", "--points", "200"],
    ["geometry", "--a", "0.3", "--c", "9/16", "--points", "200", "--format",
     "csv"],
], ids=["ldp-grid", "ldp-csv", "geometry-pre", "geometry-post-csv"])
def test_ldp_and_geometry_load_neither_numpy_nor_scipy(argv):
    proc = subprocess.run([sys.executable, "-c", _MODULES_AFTER, *argv],
                          capture_output=True, text=True, timeout=120,
                          env=child_env())
    code, top_level = json.loads(proc.stdout)
    assert code == cli.EXIT_OK, proc.stderr
    assert "numpy" not in top_level
    assert "scipy" not in top_level


def test_numerical_modules_import_without_scipy():
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, coulombgas.painleve, coulombgas.opasymp, coulombgas.report;"
         "print(sorted({name.split('.')[0] for name in sys.modules}))"],
        capture_output=True, text=True, timeout=120, env=child_env())
    assert proc.returncode == 0, proc.stderr
    assert "'scipy'" not in proc.stdout
    assert "'coulombgas'" in proc.stdout


def test_tw_tol_default_is_painleve_default():
    from coulombgas import painleve

    parser = cli.build_parser()
    for sub in ("tw", "critical"):
        assert parser.parse_args([sub]).tol == painleve.DEFAULT_TOL


def test_console_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "coulombgas.cli", "geometry", "--a", "1",
         "--c", "0.5625", "--points", "16"],
        capture_output=True, text=True, timeout=120, env=child_env())
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["schema_version"] == 1
