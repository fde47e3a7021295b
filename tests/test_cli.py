"""Command-line contract: schemas, exit codes, determinism, projections."""

import csv
import hashlib
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


# --n outside its use (ldp without --exact-compare), then a nonpositive --n
# on every subcommand that takes one
_BAD_N = [
    ["ldp", "--alpha", "16/9", "--t", "2", "--n", "5"],
    ["ldp", "--alpha", "16/9", "--t", "2", "--exact-compare", "--n", "0"],
    ["exact", "--a", "0.2", "--c", "1", "--n", "0"],
    ["critical", "--n", "0", "--c", "1", "--s", "2"],
    ["op-compare", "--a", "1.2", "--c", "1", "--n", "4,0"],
    ["free-energy", "--a", "0.2", "--c", "1", "--n", "0", "--exact-compare"],
    ["duality-check", "--n", "0", "--m", "2", "--x", "0.5"],
    ["exact", "--a", "0.2", "--c", "1", "--n", "-3"],
]


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
        ["exact", "--a", "0.3", "--c", "9/16", "--n", "16",
         "--m", "5"],                                       # m != c*n
        ["tw", "--t", "1", "--grid=-1:1:3"],                # --t and --grid
        ["ldp", "--alpha", "16/9", "--t", "2", "--grid", "0.5:5:5"],
        ["geometry", "--a", "1", "--c", "9/16", "--points", "0"],  # < 8
        ["geometry", "--a", "1", "--c", "9/16", "--points", "-5"],
        ["geometry", "--a", "1", "--c", "9/16", "--points", "7"],
        ["exact", "--a", "0.2", "--n", "4", "--m", "-3"],          # m < 0
        ["duality-check", "--n", "2", "--m", "0", "--x", "0.5"],   # m < 1
        *_BAD_N,
    ])
    def test_usage_errors(self, argv, capsys):
        code, _, err = run_cli(argv, capsys)
        assert code == cli.EXIT_USAGE
        payload = json.loads(err)
        assert payload["exit_code"] == 1
        assert payload["error"]

    @pytest.mark.parametrize("argv", _BAD_N)
    def test_bad_n_names_the_flag(self, argv, capsys):
        # --n without its use, or a nonpositive --n (or op-compare list
        # entry), is a usage error that names the flag
        code, _, err = run_cli(argv, capsys)
        assert code == cli.EXIT_USAGE
        assert "--n" in json.loads(err)["message"]

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

    def test_exterior_checked_before_exact_work(self, monkeypatch, capsys):
        # |z| = 0.5 is inside the exterior gate, so no exact p_N is computed
        def refuse(*args, **kwargs):
            raise AssertionError("exact_op ran before the exterior gate")

        monkeypatch.setattr(importlib.import_module("coulombgas.exactfiniten"),
                            "exact_op", refuse)
        code, _, err = run_cli(["op-compare", "--a", "1.2", "--c", "1",
                                "--n", "60", "--x", "0.5"], capsys)
        assert code == cli.EXIT_NUMERICAL
        assert json.loads(err)["error"] == "DomainError"

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

    def test_identity_failure(self, capsys):
        # the 256-bit residual here measures 6.0e-77, so demanding 1e-80
        # must trip the identity gate
        code, out, err = run_cli(
            ["duality-check", "--n", "8", "--m", "8", "--x", "0.5",
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
# the ones handed to render as columns.
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


def dict_rows(table):
    """The table with column rows expanded to dicts, for reference_render."""
    rows = table["rows"]
    if isinstance(rows, cli.Columns):
        return {**table, "rows": oracles.column_rows(rows)}
    return table


@pytest.fixture(scope="module")
def emitted_tables():
    """(table, the same table with dict rows) for each RENDER_COMMANDS line."""
    tables = []
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(cli, "emit", lambda table, args: tables.append(table))
        for argv in RENDER_COMMANDS:
            assert cli.run(argv) == cli.EXIT_OK, argv
    assert len(tables) == len(RENDER_COMMANDS)
    return [(table, dict_rows(table)) for table in tables]


def _table(rows, **head):
    return {"schema_version": 1, **head, "rows": rows}


class TestRender:
    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_every_subcommand_matches_reference(self, emitted_tables, fmt):
        for argv, (table, reference) in zip(RENDER_COMMANDS, emitted_tables):
            assert cli.render(table, fmt) == oracles.reference_render(
                reference, fmt), argv

    def test_grid_tables_take_compiled_format(self, emitted_tables,
                                              monkeypatch):
        def refuse(table, fmt):
            raise AssertionError(f"{table['subcommand']} left the compiled "
                                 f"{fmt} format")

        monkeypatch.setattr(cli, "_render_stdlib", refuse)
        names = set()
        for table, reference in emitted_tables:
            name = table.get("subcommand")
            assert isinstance(table["rows"], cli.Columns) == (
                name in GRID_TABLES), name
            if name in GRID_TABLES:
                for fmt in ("json", "csv"):
                    assert cli.render(table, fmt) == oracles.reference_render(
                        reference, fmt), name
                names.add(name)
        assert names == GRID_TABLES

    @pytest.mark.parametrize("rows", [
        # dict rows of mixed shapes: a missing key, another key order, a
        # type change, nested values
        [{"x": 1.0, "y": True}, {"x": 2.0}, {"y": False, "x": 3.0}],
        [{"x": 1.0, "n": 2}, {"x": 2, "n": 3}],
        [{"z": {"re": 1.0, "im": 2.0}}, {"z": {"im": 2.0, "re": 1.0}}],
        [{"z": {"re": 1.0, "im": 2.0}, "w": 0.5}, {"z": [1.0, 2.0], "w": 0.5}],
        [{"x": None, "y": 1.5}, {"x": 0.25, "y": 2.5}],
        # column tables: strings csv must quote, and ones it need not
        cli.Columns([("label", str, [['a,"b"', "c"]]),
                     ("v", float, [[1.0, 2.0]])]),
        cli.Columns([("label", str, [["two\nlines"]]), ("v", float, [[1.0]])]),
        cli.Columns([("label", str, [["caf\u00e9 50%", ""]]),
                     ("v", float, [[-0.0, 1e300]])]),
        # None, beside a float column and alone
        cli.Columns([("x", None, [[None, None]]), ("y", float, [[1.5, 2.5]])]),
        cli.Columns([("x", None, [[None]]), ("y", None, [[None]])]),
        # one column, where csv quotes an empty field
        cli.Columns([("only", None, [[None, None]])]),
        cli.Columns([("only", str, [[""]])]),
        # keys that need escaping, or collide once flattened
        cli.Columns([('50% "x"', float, [[1.0]]), ("b", int, [[2]])]),
        cli.Columns([("p", complex, [[1.0], [0.0]]), ("p_re", float, [[3.0]])]),
        # every kind, in one table
        cli.Columns([("k", str, [["a", "b"]]),
                     ("t", float, [[0.1 + 0.2, -1e-300]]),
                     ("n", int, [[2 ** 70, -1]]), ("ok", bool, [[True, False]]),
                     ("z", complex, [[5e-324, 1.0], [-1.5, 2.0]]),
                     ("none", None, [[None, None]])]),
        # no rows: as dicts, as empty columns, and with no columns at all
        [],
        cli.Columns([("x", float, [[]]), ("y", bool, [[]])]),
        cli.Columns(),
    ], ids=["missing-key", "int-then-float", "im-before-re", "nested-list",
            "none-mixed", "csv-quoted", "newline", "unicode", "none-column",
            "all-none", "one-column", "one-empty-field", "escaped-key",
            "flat-collision", "all-kinds", "empty", "no-rows", "no-columns"])
    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_synthetic_tables_match_reference(self, rows, fmt):
        dicts = (oracles.column_rows(rows) if isinstance(rows, cli.Columns)
                 else rows)
        for head in ({"schema_version": 1,
                      "params": {"grid": None, "tol": 1e-10}}, {}):
            assert cli.render({**head, "rows": rows}, fmt) \
                == oracles.reference_render({**head, "rows": dicts}, fmt)
        assert cli.render({"rows": rows, "after": 1}, fmt) \
            == oracles.reference_render({"rows": dicts, "after": 1}, fmt)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_json_refuses_non_finite_csv_writes_it(self, bad, monkeypatch,
                                                   capsys):
        for columns in ([("x", float, [[1.0]]), ("y", float, [[bad]])],
                        [("x", float, [[1.0]]), ("z", complex, [[0.0], [bad]])]):
            with pytest.raises(ValueError):
                cli.render(_table(cli.Columns(columns)), "json")
        assert cli.render(_table(cli.Columns(
            [("x", float, [[1.0]]), ("y", float, [[bad]])])), "csv") \
            == f"x,y\n1.0,{bad!r}\n"
        with pytest.raises(ValueError):
            cli.render(_table(cli.Columns([("x", float, [[1.0]])]), worst=bad),
                       "json")
        # through the CLI: exit 2 for JSON, the value written for CSV
        from coulombgas import ldp

        monkeypatch.setattr(ldp, "phi_psi_grid", lambda ts, alpha: ([bad], [0.0]))
        argv = ["ldp", "--alpha", "16/9", "--t", "2"]
        code, out, err = run_cli(argv, capsys)
        assert (code, out) == (cli.EXIT_NUMERICAL, "")
        assert json.loads(err)["error"] == "ValueError"
        code, out, _ = run_cli([*argv, "--format", "csv"], capsys)
        assert code == cli.EXIT_OK and f",{bad!r}," in out

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
    # the lines that load no numpy must print the bytes pinned in the
    # stdout digest fixture
    digests = json.loads((FIXTURES / "stdout_sha256.json").read_text())["readme"]
    lines = [line for line in README.read_text().splitlines()
             if line.startswith("coulombgas ")]
    assert lines and set(digests) <= set(lines)
    for line in lines:
        argv = shlex.split(line)[1:]
        code, out, _ = run_cli(argv, capsys)
        if line in digests:
            assert hashlib.sha256(out.encode()).hexdigest() == digests[line], line
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
# No subcommand imports scipy; only the tests use it, as an oracle.  The
# names are the top-level packages and every coulombgas module.
_MODULES_AFTER = """
import contextlib, io, json, sys
from coulombgas import cli
with contextlib.redirect_stdout(io.StringIO()):
    try:
        code = cli.run(sys.argv[1:])
    except SystemExit as exc:  # --help
        code = exc.code
print(json.dumps([code, sorted({name if name.startswith("coulombgas.")
                                else name.split(".")[0]
                                for name in sys.modules})]))
"""


def loaded_modules(argv):
    proc = subprocess.run([sys.executable, "-c", _MODULES_AFTER, *argv],
                          capture_output=True, text=True, timeout=120,
                          env=child_env())
    code, names = json.loads(proc.stdout)
    return code, set(names), proc.stderr


# what each command must not load: the array and exact-arithmetic libraries
# and the package modules it has no use for; no command here loads mpmath
# (only a tw point at or beyond painleve.S_MAX does), and the exact oracle's
# commands start without dataclasses
_EXACT = {"mpmath", "coulombgas.exactfiniten"}
_PLANAR = {"coulombgas.geometry", "coulombgas.freeenergy"}


@pytest.mark.parametrize("argv, forbidden", [
    (["--help"], {"numpy", *_EXACT, *_PLANAR, "coulombgas.ldp"}),
    (["exact", "--a", "0.3", "--c", "9/16", "--n", "16"],
     {"numpy", "dataclasses", *_PLANAR}),
    (["geometry", "--a", "1", "--c", "0.5625", "--points", "16"],
     {"numpy", *_EXACT}),
    (["free-energy", "--a", "0.2", "--c", "1", "--n", "8", "--exact-compare"],
     {"numpy"}),
    (["duality-check", "--n", "2", "--m", "2", "--x", "0.5"],
     {"numpy", "dataclasses", *_PLANAR}),
    (["ldp", "--alpha", "16/9", "--grid", "0.5:5:5", "--check-kc"],
     {"numpy", *_EXACT}),
    pytest.param(["ldp", "--alpha", "16/9", "--grid", "1:3:3",
                  "--exact-compare", "--n", "9"], {"numpy"},
                 id="ldp-exact-compare"),
    (["tw", "--grid=-8:6:5"], set()),
    (["critical", "--n", "8", "--c", "1", "--s", "2"], set()),
    (["op-compare", "--a", "1.2", "--c", "1", "--n", "4,8", "--x", "3",
      "--s", "0"], {"numpy", "dataclasses"}),
    (["report"], set()),
], ids=lambda value: (value[0] if isinstance(value, list)
                      else str("numpy" in value)))  # True: starts without numpy
def test_cold_start_skips_scipy(argv, forbidden):
    code, loaded, stderr = loaded_modules(argv)
    # report keeps criterion 8 red, so it exits 3
    assert code == (cli.EXIT_IDENTITY if argv == ["report"] else cli.EXIT_OK), \
        stderr
    assert "scipy" not in loaded
    assert sorted(({"mpmath"} | forbidden) & loaded) == []


@pytest.mark.parametrize("argv", [
    ["ldp", "--alpha", "16/9", "--grid", "0.5:5:200", "--check-kc"],
    ["ldp", "--alpha", "16/9", "--t", "2", "--format", "csv"],
    ["geometry", "--a", "1", "--c", "9/16", "--points", "200"],
    ["geometry", "--a", "0.3", "--c", "9/16", "--points", "200", "--format",
     "csv"],
], ids=["ldp-grid", "ldp-csv", "geometry-pre", "geometry-post-csv"])
def test_ldp_and_geometry_load_neither_numpy_nor_scipy(argv):
    # both phases of geometry and both output formats; mpmath and the exact
    # oracle stay out as well
    code, loaded, stderr = loaded_modules(argv)
    assert code == cli.EXIT_OK, stderr
    assert sorted({"numpy", "scipy", *_EXACT} & loaded) == []


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
    for argv in (["tw", "--t", "0"],
                 ["critical", "--n", "8", "--c", "1", "--s", "2"]):
        assert parser.parse_args(argv).tol == painleve.DEFAULT_TOL


def test_console_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "coulombgas.cli", "geometry", "--a", "1",
         "--c", "0.5625", "--points", "16"],
        capture_output=True, text=True, timeout=120, env=child_env())
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["schema_version"] == 1


@pytest.mark.parametrize("preset, want", [(None, "1"), ("3", "3")],
                         ids=["unset", "user-set"])
def test_main_defaults_openblas_to_one_thread(preset, want, monkeypatch,
                                              capsys):
    if preset is None:
        monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
    else:
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", preset)
    monkeypatch.setattr(sys, "argv", ["coulombgas", "geometry", "--a", "1",
                                      "--c", "0.5625", "--points", "16"])
    with pytest.raises(SystemExit) as exc:
        cli.main()
    assert exc.value.code == cli.EXIT_OK
    assert os.environ["OPENBLAS_NUM_THREADS"] == want
    capsys.readouterr()


def test_run_leaves_environment_alone(monkeypatch, capsys):
    monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
    assert run_cli(["geometry", "--a", "1", "--c", "0.5625", "--points", "16"],
                   capsys)[0] == cli.EXIT_OK
    assert "OPENBLAS_NUM_THREADS" not in os.environ
