"""Command-line contract: schemas, exit codes, determinism, projections."""

import csv
import fractions
import functools
import hashlib
import importlib
import io
import json
import math
import os
import pathlib
import re
import shlex
import subprocess
import sys

import pytest

import oracles
from coulombgas import cli, freeenergy, geometry, ldp, opasymp
from coulombgas.table import render

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


# classify's refusal at a_cri(9/16) = 0.5, where K = (1 - a^2)^2 - 4c a^2 is
# exactly 0, the same for every command
_AT_A_CRI = ("a = 0.5 is on the phase boundary a_cri = 0.5 at c = 0.5625: "
             "no droplet phase applies; perturb a")


class TestExitCodes:
    def test_happy_path_geometry(self, capsys):
        code, out, _ = run_cli(
            ["geometry", "--a", "1", "--c", "0.5625", "--points", "256"],
            capsys)
        assert code == 0
        table = json.loads(out)
        assert len(table["rows"]) == 256
        assert table["droplet"]["chi"] == 1

    def test_happy_path_geometry_far_field(self, capsys):
        # the modulus root q ~ 1/a is below the trig form's rounding error;
        # 1 - a^2 q^2 ~ 2c/a^2 = 2e-8 leaves kappa half its digits
        code, out, _ = run_cli(
            ["geometry", "--a", "1e6", "--c", "1e4", "--points", "16"], capsys)
        assert code == 0
        droplet = json.loads(out)["droplet"]
        assert droplet["chi"] == 1
        _, gap, kappa, _ = oracles.pre_reference(1e6, 1e4)
        assert abs(droplet["kappa"] / kappa - 1) <= 2 * sys.float_info.epsilon / gap

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
        ["tw", "--t", "1", "--grid=-1:1:3"],                # --t and --grid
        ["ldp", "--alpha", "16/9", "--t", "2", "--grid", "0.5:5:5"],
        ["geometry", "--a", "1", "--c", "9/16", "--points", "0"],  # < 8
        ["geometry", "--a", "1", "--c", "9/16", "--points", "-5"],
        ["geometry", "--a", "1", "--c", "9/16", "--points", "7"],
        ["exact", "--a", "0.2", "--c", "1", "--n", "4", "--m", "4"],  # no --m
        ["exact", "--a", "0.2", "--n", "4"],                # --c required
        ["duality-check", "--n", "2", "--m", "0", "--x", "0.5"],   # m < 1
        *_BAD_N,
        ["tw", "--t", "0", "--tol", "0"],                   # tol <= 0
        ["duality-check", "--n", "2", "--m", "2", "--x", "0.5",
         "--tol", "-1"],
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
         "geometry", "droplet"),
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
            raise AssertionError("moment_table ran before the exterior gate")

        monkeypatch.setattr(importlib.import_module("coulombgas.exactfiniten"),
                            "moment_table", refuse)
        code, _, err = run_cli(["op-compare", "--a", "1.2", "--c", "1",
                                "--n", "60", "--x", "0.5"], capsys)
        assert code == cli.EXIT_NUMERICAL
        assert json.loads(err)["error"] == "DomainError"

    def test_op_compare_maps_z_once(self, monkeypatch, capsys):
        # p_asymp takes the whole list of N: z is gated once and mapped by
        # inverse_F once for g and once for F and F', whatever the list
        calls = dict.fromkeys(("inverse_F", "require_exterior", "classify"), 0)

        def count(module, name):
            inner = getattr(module, name)

            def counted(*args, **kwargs):
                calls[name] += 1
                return inner(*args, **kwargs)
            monkeypatch.setattr(module, name, counted)

        count(opasymp, "inverse_F")
        count(opasymp, "require_exterior")
        count(geometry, "classify")
        code, out, _ = run_cli(["op-compare", "--a", "1.2", "--c", "1", "--n",
                                "4,8,16,24,32", "--x", "3", "--s", "1"],
                               capsys)
        assert code == cli.EXIT_OK
        assert [row["N"] for row in json.loads(out)["rows"]] \
            == [4, 8, 16, 24, 32]
        assert calls["inverse_F"] <= 2
        assert calls["require_exterior"] == 1
        assert calls["classify"] == 1

    def test_critical_checks_c_before_painleve(self, monkeypatch, capsys):
        # critical_a refuses c = 0 before the Painleve II solve starts
        def refuse(*args, **kwargs):
            raise AssertionError("hastings_mcleod ran before critical_a")

        monkeypatch.setattr(importlib.import_module("coulombgas.painleve"),
                            "hastings_mcleod", refuse)
        code, _, err = run_cli(["critical", "--n", "8", "--c", "0", "--s",
                                "1"], capsys)
        assert code == cli.EXIT_NUMERICAL
        assert json.loads(err)["message"] == "need c > 0, got 0.0"

    @pytest.mark.parametrize("argv, want, message", [
        (["duality-check", "--n", "2", "--m", "2", "--x", "-1"],
         cli.EXIT_NUMERICAL, "need x >= 0, got -1.0"),
        (["ldp", "--alpha", "0", "--t", "1"], cli.EXIT_NUMERICAL,
         "rate functions need alpha > 0, got 0.0"),
        (["critical", "--n", "8", "--c", "0", "--s", "1"],
         cli.EXIT_NUMERICAL, "need c > 0, got 0.0"),
        (["free-energy", "--a", "0.2", "--c", "abc", "--n", "8"],
         cli.EXIT_USAGE, "argument --c: not a rational or decimal: 'abc'"),
        # a rational whose float overflows is refused as its flag's value
        (["geometry", "--a", "0", "--c", "1e400"], cli.EXIT_USAGE,
         "argument --c: outside the double range: '1e400'"),
        (["free-energy", "--a", "0.2", "--c", "1e400", "--n", "4"],
         cli.EXIT_USAGE, "argument --c: outside the double range: '1e400'"),
        (["ldp", "--alpha", "1e400", "--t", "1"], cli.EXIT_USAGE,
         "argument --alpha: outside the double range: '1e400'"),
        (["geometry", "--a", "abc", "--c", "1"], cli.EXIT_USAGE,
         "argument --a: invalid float value: 'abc'"),
        (["critical", "--n", "x", "--c", "1", "--s", "1"], cli.EXIT_USAGE,
         "argument --n: invalid int value: 'x'"),
        (["op-compare", "--a", "1.2", "--c", "1", "--n", ","],
         cli.EXIT_USAGE, "argument --n: expected at least one integer"),
        # a point just inside the exterior gate, 1.15 b pre-critically
        # (b = R/q) and 1.15 sqrt(1+c) post-critically; one just outside it
        # is a RENDER_COMMANDS line
        (["op-compare", "--a", "1.2", "--c", "1", "--n", "4", "--x", "2.155"],
         cli.EXIT_NUMERICAL,
         "|z| = 2.155 inside the exterior gate radius 2.1558"),
        (["op-compare", "--a", "0.2", "--c", "1", "--n", "4", "--x", "1.626"],
         cli.EXIT_NUMERICAL,
         "|z| = 1.626 inside the exterior gate radius 1.62635"),
        # a_cri(9/16) = 0.5 exactly: every command that needs a droplet
        # refuses with classify's one text
        (["geometry", "--a", "0.5", "--c", "9/16"], cli.EXIT_NUMERICAL,
         _AT_A_CRI),
        (["free-energy", "--a", "0.5", "--c", "9/16", "--n", "8"],
         cli.EXIT_NUMERICAL, _AT_A_CRI),
        (["op-compare", "--a", "0.5", "--c", "9/16", "--n", "16"],
         cli.EXIT_NUMERICAL, _AT_A_CRI),
        (["ldp", "--alpha", "-1", "--t", "1"], cli.EXIT_NUMERICAL,
         "alpha must be nonnegative, got -1.0"),
        # t = 0 has the planar image a = 0, post-critical by convention
        (["ldp", "--alpha", "1", "--t", "0"], cli.EXIT_NUMERICAL,
         "t = 0.0 at alpha = 1.0 has a post-critical planar image, outside "
         "the pushed regime; lambda_- = 0.17157287525380993"),
    ], ids=["duality-negative-x", "ldp-zero-alpha",
            "critical-zero-c", "bad-rational", "geometry-rational-overflow",
            "free-energy-rational-overflow", "ldp-rational-overflow",
            "bad-float", "bad-int",
            "empty-n-list", "op-compare-inside-pre-gate",
            "op-compare-inside-post-gate", "geometry-at-a-cri",
            "free-energy-at-a-cri", "op-compare-at-a-cri",
            "ldp-negative-alpha", "ldp-zero-t"])
    def test_refusal_message(self, argv, want, message, capsys):
        code, out, err = run_cli(argv, capsys)
        assert (code, out) == (want, "")
        assert json.loads(err)["message"] == message

    def test_numerical_error(self, capsys):
        # boundary sampling is undefined exactly at the transition
        code, _, err = run_cli(
            ["geometry", "--a", "0.5", "--c", "9/16"], capsys)
        assert code == cli.EXIT_NUMERICAL
        payload = json.loads(err)
        assert payload["error"] == "DomainError"

    @pytest.mark.parametrize("alpha", ["1e-300", "1e-200"])
    def test_tiny_alpha_names_alpha(self, alpha, capsys):
        # lambda_- = alpha a_cri(1/alpha)^2, about alpha^2/4, underflows to 0
        # in double precision
        code, _, err = run_cli(["ldp", "--alpha", alpha, "--t", "1"], capsys)
        assert code == cli.EXIT_NUMERICAL
        payload = json.loads(err)
        assert payload["error"] == "DomainError"
        assert "alpha" in payload["message"]
        assert "underflows" in payload["message"]

    @pytest.mark.parametrize("alpha", ["1e-8", "1e-10", "1e-15"])
    def test_small_alpha_names_alpha_and_t(self, alpha, capsys):
        # the planar image (a, c) = (sqrt(t/alpha), 1/alpha) overflows the
        # modulus cubic; the error speaks of the flags given
        code, _, err = run_cli(["ldp", "--alpha", alpha, "--t", "1e300"],
                               capsys)
        assert code == cli.EXIT_NUMERICAL
        payload = json.loads(err)
        assert payload["error"] == "DomainError"
        assert f"alpha = {float(alpha)!r}, t = 1e+300" in payload["message"]
        assert "a=" not in payload["message"]

    def test_rootless_edge_names_alpha_and_t(self, capsys):
        # t is 1.2e-11 relative below the edge, and its planar image is
        # post-critical, though the old, cancelled lambda_- put it above;
        # the refusal is the edge's, in the flags given, not in the planar
        # (a, c), and names the edge
        code, _, err = run_cli(["ldp", "--alpha", "1e-5", "--t",
                                "2.4999875000473473e-11"], capsys)
        assert code == cli.EXIT_NUMERICAL
        message = json.loads(err)["message"]
        assert message == (
            "t = 2.4999875000473473e-11 at alpha = 1e-05 has a post-critical "
            "planar image, outside the pushed regime; lambda_- = "
            "2.4999875000781253e-11")

    @pytest.mark.parametrize("alpha", ["1e-8", "1e-10", "1e-15"])
    def test_small_alpha_rate_matches_action(self, alpha, capsys):
        # at t = 1 the planar image (a, c) = (sqrt(1/alpha), 1/alpha) has
        # q ~ 1/a, below the trig root's rounding error
        code, out, _ = run_cli(["ldp", "--alpha", alpha, "--t", "1",
                                "--check-kc"], capsys)
        assert code == 0
        row = json.loads(out)["rows"][0]
        assert row["residual"] < 1e-12
        assert row["phi"] == pytest.approx(1.0, abs=1e-7)

    @pytest.mark.parametrize("argv, names", [
        (["free-energy", "--a", "0.2", "--c", "1", "--n", "16", "--order",
          "64"], ["M = 64", "cap 63"]),
        (["ldp", "--alpha", "16/9", "--t", "1e300"],
         ["alpha = 1.7777777777777777", "t = 1e+300"]),
        (["ldp", "--alpha", "1e300", "--t", "1"],
         ["alpha = 1e+300", "t = 1.0"]),
        (["ldp", "--alpha", "1e200", "--t", "1e201"],
         ["alpha = 1e+200", "t = 1e+201"]),
        # U(t) rounds to t, so the action's log(U - t) has no value
        (["ldp", "--alpha", "1e100", "--t", "1e101"],
         ["alpha = 1e+100", "t = 1e+101"]),
        (["geometry", "--a", "1e200", "--c", "1"], ["a=1e+200", "c=1.0"]),
        # 4c overflows: the modulus cubic's coefficient a^2 + 4c is inf
        (["geometry", "--a", "2", "--c", "1e308"], ["a=2.0", "c=1e+308"]),
        # 2c/a^2 is exactly the smallest normal double, and kappa ~ c/a^2
        # half of it: in_double_range refuses the far field from there down
        (["geometry", "--a", "2", "--c", "4.450147717014403e-308"],
         ["a=2.0", "c=4.450147717014403e-308"]),
        (["free-energy", "--a", "1e200", "--c", "1", "--n", "8"],
         ["a=1e+200", "c=1.0"]),
        (["op-compare", "--a", "1e200", "--c", "1", "--n", "4", "--x", "3",
          "--s", "1"], ["a=1e+200", "c=1.0"]),
        # one ulp above the old, cancelled lambda_- the modulus rounded to
        # q = 1; that t is below the edge, and its planar image is
        # post-critical
        (["ldp", "--alpha", "0.5", "--t", "0.05051025721682186"],
         ["alpha = 0.5", "t = 0.05051025721682186",
          "lambda_- = 0.05051025721682189"]),
        # the window shift moves the insertion point below a = 0
        (["critical", "--n", "8", "--c", "1", "--s", "1e6"],
         ["s=1000000.0", "N=8", "c=1.0"]),
        # past the double range: e^(N g) at a large N, the dressing's
        # (z - beta)^2 or e^(N g) at a huge z, the tail's c^(-2k) at a tiny
        # c, raised or times its Bernoulli factor, and the annular energy's
        # (2c + 1) log c at a huge c (CSV wrote nan)
        (["op-compare", "--a", "1.2", "--c", "1", "--n", "1000", "--x", "3"],
         ["N=1000", "z=(3+0j)"]),
        (["op-compare", "--a", "1.2", "--c", "1", "--n", "4", "--x", "1e300"],
         ["N=4", "z=(1e+300+0j)"]),
        (["free-energy", "--a", "0.1", "--c", "1e-300", "--n", "4",
          "--order", "63"], ["N^-63", "c=1e-300"]),
        (["free-energy", "--a", "0.1", "--c", "3e-5", "--n", "4",
          "--order", "63", "--format", "csv"], ["N^-63", "c=3e-05"]),
        (["critical", "--n", "8", "--c", "1e307", "--s", "1"],
         ["c=1e+307"]),
        (["critical", "--n", "8", "--c", "1e307", "--s", "1",
          "--format", "csv"], ["c=1e+307"]),
        # 1.2e-11 relative below the edge, though above the old, cancelled
        # lambda_-
        (["ldp", "--alpha", "1e-5", "--t", "2.4999875000473473e-11"],
         ["alpha = 1e-05", "t = 2.4999875000473473e-11"]),
        # the gap 1 - a^2 q^2 ~ 2/t falls below the normal double range
        (["ldp", "--alpha", "1", "--t", "1.7e308"],
         ["alpha = 1.0", "t = 1.7e+308"]),
    ], ids=["order-past-bernoulli", "ldp-huge-t", "ldp-huge-alpha",
            "ldp-huge-both", "ldp-edge-equals-t", "geometry-huge-a",
            "geometry-sum-overflows", "geometry-far-field-smallest-normal",
            "free-energy-huge-a", "op-compare-huge-a", "ldp-phase-edge",
            "critical-huge-s", "op-compare-large-n", "op-compare-huge-z",
            "free-energy-tail-tiny-c", "free-energy-tail-inf",
            "critical-huge-c", "critical-energy-inf",
            "ldp-constant-log-negative", "ldp-gap-underflow"])
    def test_out_of_range_names_the_input(self, argv, names, capsys):
        # past the Bernoulli table, past the double range or below the
        # edge, the error is a DomainError that names the flags, not an
        # IndexError, an OverflowError or a math domain error naming nothing
        code, out, err = run_cli(argv, capsys)
        assert (code, out) == (cli.EXIT_NUMERICAL, "")
        payload = json.loads(err)
        assert payload["error"] == "DomainError"
        for name in names:
            assert name in payload["message"]

    def test_largest_c_below_a_cri_is_post_critical(self, capsys):
        # a_cri(1e308) = 5e-155; 4c and a^2 (2c + 1) overflow there, which
        # made every a > 0 pre-critical
        code, out, _ = run_cli(["geometry", "--a", "1e-160", "--c", "1e308"],
                               capsys)
        assert code == 0
        assert json.loads(out)["droplet"]["regime"] == "POST"

    def test_large_c_just_below_a_cri_is_post_critical(self, capsys):
        # 7.1e-6 below the true a_cri (the modulus cubic's middle root is
        # u = 1.0000071 there); sqrt(c+1) - sqrt(c) cancelled to 1.1e-4
        # relative at this c, which put a on the simply connected side
        code, out, _ = run_cli(["geometry", "--a", "6.678764682444251e-07",
                                "--c", "560456053277.24"], capsys)
        assert code == 0
        assert json.loads(out)["droplet"]["regime"] == "POST"

    def test_radial_case_at_huge_c_is_post_critical(self, capsys):
        # a_cri(1e24) = 5e-13, and K = 1 at a = 0: the origin has its phase
        # at every c
        code, out, _ = run_cli(["geometry", "--a", "0", "--c", "1e24",
                                "--points", "8"], capsys)
        assert code == 0
        assert json.loads(out)["droplet"]["regime"] == "POST"

    @pytest.mark.parametrize("a, c", [
        (1e6, 1.0), (1e3, 1e-12), (1e4, 1e-12)],
        ids=["far-a", "tiny-c", "tiny-c-far-a"])
    def test_far_field_geometry_prints_kappa(self, a, c, capsys):
        # 1 - a^2 q^2 ~ 2c/a^2 formed from q kept fewer than half a double's
        # digits here, or rounded to 0, and the record was refused; the gap
        # is solved, and kappa keeps its bound against pre_reference
        code, out, _ = run_cli(["geometry", "--a", repr(a), "--c", repr(c),
                                "--points", "8"], capsys)
        assert code == 0
        droplet = json.loads(out)["droplet"]
        kappa = oracles.pre_reference(a, c)[2]
        assert droplet["regime"] == "PRE"
        assert abs(droplet["kappa"] / kappa - 1) <= 8 * sys.float_info.epsilon

    @pytest.mark.parametrize("a, c, answers", [
        *((a, f * sys.float_info.min * a * a / 2.0, f > 1.0)
          for a in (1.0000001, 2.0, 1e3) for f in (0.99, 1.01)),
        (1.0, 5e-324, False),
        (1.0000001, 1.01 * sys.float_info.min * 2.0000001e-7 / 2.0, False)],
        ids=[*(f"a={a}-f={f}" for a in ("1.0000001", "2", "1e3")
               for f in ("0.99", "1.01")),
             "a=1-smallest-subnormal-c", "a=1.0000001-w-normal"])
    def test_far_field_double_range(self, a, c, answers, capsys):
        # kappa ~ c/a^2 is formed from the far field, and c = f min a^2/2
        # puts it near f min/2: refused, naming a and c, at f = 0.99 and
        # solved at f = 1.01, kappa within droplet's 8 eps though
        # subnormal.  The last two pairs have a w far above min, from
        # w ~ 2c/(a^2 - 1) or w = v ~ sqrt(4c/3) at a = 1, but kappa far
        # below it; at the first kappa = v w/2 would round to 0
        smallest = sys.float_info.min
        q, v, w = oracles.modulus_reference(a, c)
        want = v * w / (2 * a * q)
        assert want > smallest / 3 if answers else want < smallest / 2
        code, out, err = run_cli(["geometry", "--a", repr(a), "--c", repr(c),
                                  "--points", "8"], capsys)
        if not answers:
            assert (code, out) == (cli.EXIT_NUMERICAL, "")
            message = json.loads(err)["message"]
            assert f"a={a!r}" in message and f"c={c!r}" in message
            return
        assert code == 0
        assert json.loads(out)["droplet"]["regime"] == "PRE"
        kappa = geometry.droplet(a, c).kappa
        assert abs(kappa / want - 1) <= 8 * sys.float_info.epsilon

    @pytest.mark.parametrize("a, c", [
        (1e8, 1.0), (1e4, 1e-12), (1.0, 1e-18), (0.999999999993981, 1e-22),
        (0.9999998954795284, 1.0926627497055574e-14), (1.0, 1e-40)],
        ids=["far-a", "tiny-c", "edge-log-zero", "edge-constant-over-zero",
             "edge-tiny-c", "edge-q-rounds-to-one"])
    def test_simply_connected_free_energy_answers(self, a, c, capsys):
        # formed from q, the energy or constant here had a log of 0, a
        # division by (1 - q^2)^3 = 0 or too few digits, or the old solve
        # found no root at a point classify calls PRE, and free-energy
        # exited 2; from the gaps n2 keeps energy_pre's bound and the
        # constant fconst_pre's.  At the last pair q rounds to 1 and
        # 2t q^2/(1 + t) to 1, so its log1p was log(0)
        eps = sys.float_info.epsilon
        code, out, _ = run_cli(["free-energy", "--a", repr(a), "--c",
                                repr(c), "--n", "8"], capsys)
        assert code == 0
        [row] = json.loads(out)["rows"]
        energy = oracles.pre_reference(a, c)[3]
        fconst = oracles.fconst_pre_reference(
            *oracles.modulus_reference(a, c)[1:])
        head = freeenergy.LOG_2PI / 2 + freeenergy.ZETA_PRIME_MINUS_ONE
        assert row["regime"] == "PRE"
        assert abs(row["n2"] + energy) <= 4 * eps * max(1, abs(energy))
        assert abs(row["const"] - head - fconst) <= 4 * eps

    @pytest.mark.parametrize("argv", [
        ["geometry", "--a", "3", "--c", "1", "--points", "8"],
        ["ldp", "--alpha", "0.5", "--t", "5.05"],
        ["ldp", "--alpha", "1", "--t", "1e9"],
        # a = 2^-511: a^2 is the smallest normal double, the solve's floor
        ["geometry", "--a", "1.4916681462400413e-154", "--c", "2e307",
         "--points", "8"],
        # a > 1 with c far above it: the far field w ~ 2c/a^2 is 2e292
        ["geometry", "--a", "1e4", "--c", "1e300", "--points", "8"],
    ], ids=["geometry-past-inverse-a-cri", "ldp-past-lambda-plus",
            "ldp-far-t", "geometry-a-squared-smallest-normal",
            "geometry-huge-c-past-one"])
    def test_pre_critical_points_answer(self, argv, capsys):
        # K = (a^2 - a_cri^2)(a^2 - a_cri^-2) turns positive again past
        # 1/a_cri (K = 28 at a = 3, c = 1; t = 5.05 > lambda_+ at alpha =
        # 0.5), where a > 1 keeps the point pre-critical; at t = 1e9 the
        # old solve refused its modulus, and Phi now meets the action to
        # rounding
        code, out, _ = run_cli(argv, capsys)
        assert code == 0
        table = json.loads(out)
        if argv[0] == "geometry":
            assert table["droplet"]["regime"] == "PRE"
        else:
            [row] = table["rows"]
            assert row["residual"] <= 4 * sys.float_info.epsilon * row["phi"]

    def test_tiny_c_free_energy_needs_no_droplet_gap(self, capsys):
        # at (1e3, 1e-12) 1 - a^2 q^2 formed from q rounds to 0.0; the
        # expansion reads the solved gap, and answers there
        code, out, _ = run_cli(
            ["free-energy", "--a", "1e3", "--c", "1e-12", "--n", "8"], capsys)
        assert code == 0
        assert json.loads(out)["rows"][0]["regime"] == "PRE"

    def test_identity_failure(self, capsys):
        # the 256-bit residual here measures 6.0e-77, so demanding 1e-80
        # must trip the identity gate
        code, out, err = run_cli(
            ["duality-check", "--n", "8", "--m", "8", "--x", "0.5",
             "--tol", "1e-80"], capsys)
        assert code == cli.EXIT_IDENTITY
        assert json.loads(out)["rows"][0]["passed"] is False  # table still emitted
        assert json.loads(err)["exit_code"] == 3

    def test_ldp_exact_compare_needs_n(self, capsys):
        code, out, err = run_cli(
            ["ldp", "--alpha", "16/9", "--t", "2", "--exact-compare"], capsys)
        assert (code, out) == (cli.EXIT_USAGE, "")
        assert json.loads(err)["message"] == "--exact-compare needs --n"

    def test_ldp_kc_identity_failure(self, capsys):
        # the largest rate-function gap on this grid is 2.220e-15
        code, out, err = run_cli(
            ["ldp", "--alpha", "16/9", "--grid=0.5:5:50", "--check-kc",
             "--tol", "1e-300"], capsys)
        assert code == cli.EXIT_IDENTITY
        assert len(json.loads(out)["rows"]) == 50  # table still emitted
        assert "max gap 2.220e-15" in json.loads(err)["message"]

    def test_ldp_kc_gap_equal_to_tol_passes(self, capsys):
        # --tol bounds the largest gap from above: a gap equal to it passes
        argv = ["ldp", "--alpha", "16/9", "--grid=0.5:5:50", "--check-kc"]
        _, out, _ = run_cli(argv, capsys)
        worst = json.loads(out)["worst_residual"]
        code, _, _ = run_cli([*argv, "--tol", repr(worst)], capsys)
        assert (code, worst) == (cli.EXIT_OK, 2.220446049250313e-15)

    def test_one_step_grid_is_its_low_end(self, capsys):
        code, out, _ = run_cli(["ldp", "--alpha", "16/9", "--grid=2:5:1"],
                               capsys)
        assert code == cli.EXIT_OK
        assert [row["t"] for row in json.loads(out)["rows"]] == [2.0]

    @pytest.mark.parametrize("grid", ["x:5:5", "2:x:5", "2:5:x", "2:5:2.5"])
    def test_non_numeric_grid_part(self, grid, capsys):
        code, _, err = run_cli(["ldp", "--alpha", "16/9", f"--grid={grid}"],
                               capsys)
        assert code == cli.EXIT_USAGE
        assert "with numeric parts" in json.loads(err)["message"]


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


# One command per subcommand, then edge cases, each small enough for
# tier-1; the grid tables are the ones handed to render as columns.
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
    # a one-point grid beyond painleve.S_MAX, through the mpmath closure
    ["tw", "--t", "9.5"],
    # the LUE Gram determinants at n = 64, deep in the pushed regime
    ["ldp", "--alpha", "57/32", "--grid=4:6:3", "--n", "64",
     "--exact-compare"],
    # just outside the exterior gate in each phase (just inside it is
    # refused, see test_refusal_message)
    ["op-compare", "--a", "1.2", "--c", "1", "--n", "4", "--x", "2.156"],
    ["op-compare", "--a", "0.2", "--c", "1", "--n", "4", "--x", "1.627"],
    # the full report (exit 3) holds messages with commas, which CSV quotes;
    # with every suite skipped its table has no rows
    ["report", "--format", "csv"],
    ["report", "--skip", "exact", "--skip", "freeenergy", "--skip", "ldp",
     "--skip", "opasymp", "--skip", "tw"],
]
GRID_TABLES = {"geometry", "tw", "ldp"}


def _spelled(value):
    """value with each complex number spelled as JSON writes it."""
    if isinstance(value, complex):
        return {"re": value.real, "im": value.imag}
    if isinstance(value, dict):
        return {key: _spelled(item) for key, item in value.items()}
    if isinstance(value, list):
        return list(map(_spelled, value))
    return value


def dict_rows(table):
    """The table with a dict of value lists expanded to dict rows and
    complex values spelled as {"re", "im"}, in the head as in the rows, for
    reference_render."""
    rows = table["rows"]
    if isinstance(rows, dict):
        rows = oracles.column_rows(rows)
    return _spelled({**table, "rows": rows})


@pytest.fixture(scope="module")
def emitted_tables():
    """(table, the same table with dict rows) for each RENDER_COMMANDS line."""
    tables = []
    with pytest.MonkeyPatch.context() as patch:
        for name, _ in cli.COMMANDS:
            module = importlib.import_module(
                "coulombgas.commands." + name.replace("-", "_"))
            patch.setattr(module, "emit", lambda table, args: tables.append(table))
        for argv in RENDER_COMMANDS:
            assert cli.run(argv) == _exit_code(argv), argv
    assert len(tables) == len(RENDER_COMMANDS)
    return [(table, dict_rows(table)) for table in tables]


def _table(rows, **head):
    return {"schema_version": 1, **head, "rows": rows}


class TestRender:
    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_every_subcommand_matches_reference(self, emitted_tables, fmt):
        for argv, (table, reference) in zip(RENDER_COMMANDS, emitted_tables):
            assert render(table, fmt) == oracles.reference_render(
                reference, fmt), argv

    def test_grid_tables_take_compiled_format(self, emitted_tables):
        names = set()
        for table, reference in emitted_tables:
            name = table.get("subcommand")
            assert isinstance(table["rows"], dict) == (
                name in GRID_TABLES), name
            if name in GRID_TABLES:
                for fmt in ("json", "csv"):
                    assert render(table, fmt) == oracles.reference_render(
                        reference, fmt), name
                names.add(name)
        assert names == GRID_TABLES

    @pytest.mark.parametrize("rows", [
        # dict rows of every kind: strings csv must quote, a big int beside
        # a float column of integral values, a complex number, and nested
        # values, which CSV drops, holding a complex number and an empty list
        [{"k": 'a, "b"\nc', "t": 0.1 + 0.2, "n": 2 ** 70, "x": 2.0,
          "ok": True, "z": complex(5e-324, -0.0),
          "tail": [{"p": -1, "c": 1e300}], "d": {"y": [], "w": 1j}},
         {"k": "plain", "t": -1e-300, "n": -1, "x": 3.0, "ok": False,
          "z": complex(-1.5, 1e300), "tail": [], "d": {}}],
        # the next five carry the mixed shapes of their names inside nested
        # values, as report's details and free-energy's tail may; in the
        # columns themselves they are refused (test_mixed_dict_rows_are_refused)
        # a key missing from one row's nested dict
        [{"x": 1.0, "d": {"a": 1, "b": True}}, {"x": 2.0, "d": {"a": 2}}],
        # a nested list holding an int then a float: each keeps its spelling
        [{"t": [1, 1.5]}, {"t": [2.5, 2]}],
        # a nested dict keyed im before re is no complex number and keeps
        # its order
        [{"tail": [{"im": 2.0, "re": 1.0}]}, {"tail": [{"im": -0.0, "re": 3.0}]}],
        # nested lists of lists, of different lengths, empty ones included
        [{"w": 0.5, "t": [[1.0, 2.0], []]}, {"w": 1.5, "t": []}],
        # None beside floats inside nested values
        [{"d": {"x": None, "y": 1.5}, "w": 0.5},
         {"d": {"x": 0.25, "y": None}, "w": 2.5}],
        # dicts of value lists, as the grid commands build them: non-ASCII
        # and empty strings, and every kind in one table
        {"label": ["caf\u00e9 50%", ""], "v": [-0.0, 1e300]},
        {"k": ["a", "\u00e9\u00e8"], "t": [0.1 + 0.2, -1e-300],
         "n": [2 ** 70, -1], "ok": [True, False],
         "z": [complex(5e-324, -1.5), complex(-0.0, 1e300)]},
        # no rows, as dicts
        [],
    ], ids=["dict-all-kinds", "missing-key", "int-then-float", "im-before-re",
            "nested-list", "none-mixed", "unicode", "all-kinds", "empty"])
    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_synthetic_tables_match_reference(self, rows, fmt):
        table = {"schema_version": 1, "params": {"grid": None, "tol": 1e-10},
                 "rows": rows}
        assert render(table, fmt) == oracles.reference_render(
            dict_rows(table), fmt)
        # a table is a head and its rows last: without a head, or with a
        # key after its rows, json.dumps's text cannot be written row by row
        for bad in ({"rows": rows}, {**table, "after": 1}):
            with pytest.raises(TypeError, match="rows last"):
                render(bad, fmt)

    def test_mixed_dict_rows_are_refused(self):
        # dict rows are read into columns of the first row's keys and kinds:
        # a missing key, another key order, a type change or a type of no
        # kind (which CSV would drop) names its key, and so does a dict of
        # value lists with such a column or of lists of unequal lengths
        for rows, key in [
                ([{"x": 1.0, "y": True}, {"x": 2.0}], "y"),
                ([{"x": 1.0, "y": 2.0}, {"y": 2.0, "x": 1.0}], "y"),
                ([{"x": 1.0}, {"x": 1.0, "w": 0.5}], "w"),
                ([{"x": 1.0, "n": 2}, {"x": 2, "n": 3}], "x"),
                ([{"n": 1}, {"n": True}], "n"),
                ([{"z": 1j, "w": 0.5}, {"z": [1.0, 2.0], "w": 0.5}], "z"),
                ([{"x": None, "y": 1.5}, {"x": 0.25, "y": 2.5}], "x"),
                ([{"x": 1.0, "c": fractions.Fraction(1, 3)}], "c"),
                ([{"c": None}, {"c": None}], "c"),
                ({"x": [1.0, 2.0], "n": [2, 3.0]}, "n"),
                ({"n": [1, True]}, "n"),
                ({"z": [1j, 0.5]}, "z"),
                ({"x": [1.0], "c": [fractions.Fraction(1, 3)]}, "c"),
                ({"x": [None, None]}, "x"),
                ({"x": [1.0, 2.0], "y": [1.0]}, "y")]:
            for fmt in ("json", "csv"):
                with pytest.raises(TypeError, match=repr(key)):
                    render(_table(rows), fmt)

    def test_json_refuses_types_it_does_not_know(self):
        # a complex is the one type table spells beyond what json writes;
        # any other, in the head or a nested value, is refused by name
        third = fractions.Fraction(1, 3)
        for table in (_table([{"x": 1.0}], params={"c": third}),
                      _table([{"d": {"c": third}}])):
            with pytest.raises(TypeError, match="type Fraction is not JSON"):
                render(table, "json")

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_json_refuses_non_finite_csv_writes_it(self, bad, monkeypatch,
                                                   capsys):
        for columns in ({"x": [1.0], "y": [bad]},
                        {"x": [1.0], "z": [complex(0.0, bad)]}):
            # json's own error, as dict rows would raise it
            table = _table(columns)
            with pytest.raises(ValueError) as ours:
                render(table, "json")
            with pytest.raises(ValueError) as theirs:
                oracles.reference_render(dict_rows(table), "json")
            assert str(ours.value) == str(theirs.value)
        assert render(_table({"x": [1.0], "y": [bad]}), "csv") \
            == f"x,y\n1.0,{bad!r}\n"
        with pytest.raises(ValueError):
            render(_table({"x": [1.0]}, worst=bad), "json")
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


def _as_typed(value: float, typed: str) -> str:
    """value written with as many digits as `typed`, in its notation
    (1.26e-5, 0.90)."""
    if "e" not in typed:
        return f"{value:.{len(typed.split('.')[1])}f}"
    mantissa = typed.split("e")[0]
    digits = len(mantissa.split(".")[1]) if "." in mantissa else 0
    head, exponent = f"{value:.{digits}e}".split("e")
    return f"{head}e{int(exponent)}"


def test_readme_numbers_match_evidence(acceptance_results, capsys):
    # the numbers the README types in its prose, recomputed: the criterion 8
    # evidence from the report run, and the free-energy example line
    text = " ".join(README.read_text().split())
    details = acceptance_results["op_asymptotics"].details
    post, ratios = details["post"]["errors"], details["pre"]["ratios"]
    typed = re.search(r"`N = 8, z = 3` is `([^`]+)`", text).group(1)
    assert typed == _as_typed(details["post"]["rel_error"], typed)
    typed = re.search(r"ln\(err_4/err_16\)/12 = ([0-9.]+)`", text).group(1)
    assert typed == _as_typed(math.log(post[4] / post[16]) / 12, typed)
    typed = re.search(r"ratios on the real axis measure `([0-9.]+)/([0-9.]+)`",
                      text).groups()
    assert list(typed) == [_as_typed(r, t) for r, t in zip(ratios, typed)]
    # past the check's own N: where the annular error crosses 1e-6, and the
    # simply connected ratios at larger N, from the check's error route
    from coulombgas import report

    typed = re.search(r"between `N = 10` \(`([^`]+)`\) and `N = 12` "
                      r"\(`([^`]+)`\)", text).groups()
    errs = report._op_errors(0.2, 3.0, (10, 12))
    assert list(typed) == [_as_typed(errs[n], t)
                           for n, t in zip((10, 12), typed)]
    typed = re.search(r"\(`([0-9.]+)` for `N = 16 -> 32`, `([0-9.]+)` for "
                      r"`24 -> 48`\)", text).groups()
    errs = report._op_errors(1.2, 3.0, (16, 24, 32, 48))
    assert list(typed) == [_as_typed(errs[n] / errs[2 * n], t)
                           for n, t in zip((16, 24), typed)]

    typed = re.search(r"expansion gives `log Z = ([-0-9.]+)` against the exact "
                      r"`([-0-9.]+)`, a residual of `([^`]+)`", text).groups()
    code, out, _ = run_cli(["free-energy", "--a", "0.2", "--c", "1", "--n",
                            "16", "--exact-compare"], capsys)
    row = json.loads(out)["rows"][0]
    assert code == cli.EXIT_OK
    assert list(typed) == [_as_typed(row[key], t) for key, t in zip(
        ("expansion", "exact_logz", "residual"), typed)]


# Each command runs in a fresh interpreter, the way `python -m coulombgas.cli`
# runs it: runpy executes the front as __main__.  The test process has scipy
# loaded, and the harness imports only os, sys and runpy (which start-up and
# -m load themselves); main() leaves through os._exit, which the harness
# turns into a SystemExit carrying the code.  The last stdout line holds the
# exit code, then the top-level packages and every coulombgas module.
_MODULES_AFTER = """
import os
import sys
import runpy
os._exit = sys.exit
try:
    runpy.run_module("coulombgas.cli", run_name="__main__", alter_sys=True)
except SystemExit as exc:
    code = exc.code
print(code, *sorted({name if name.startswith("coulombgas.")
                      else name.split(".")[0] for name in sys.modules}))
"""


@functools.lru_cache(maxsize=None)
def _loaded_modules(argv):
    proc = subprocess.run([sys.executable, "-c", _MODULES_AFTER, *argv],
                          capture_output=True, text=True, timeout=120,
                          env=child_env())
    code, *names = proc.stdout.splitlines()[-1].split()
    return int(code), frozenset(names), proc.stderr


def loaded_modules(argv):
    return _loaded_modules(tuple(argv))


# what each command must not load: the array and exact-arithmetic libraries
# and the package modules it has no use for; no command here loads mpmath
# (only a tw point beyond painleve.S_MAX does), and none loads dataclasses
# (every record is a NamedTuple); a grid table loads orjson only from
# table.ORJSON_CUT rows
_EXACT = {"mpmath", "coulombgas.exactfiniten"}
_PLANAR = {"coulombgas.geometry", "coulombgas.freeenergy"}

COLD_COMMANDS = [
    (["--help"], {"numpy", "dataclasses", "orjson", *_EXACT, *_PLANAR,
                  "coulombgas.ldp"}),
    (["exact", "--a", "0.3", "--c", "9/16", "--n", "16"],
     {"numpy", "dataclasses", *_PLANAR}),
    (["geometry", "--a", "1", "--c", "0.5625", "--points", "16"],
     {"numpy", "dataclasses", "orjson", *_EXACT}),
    (["free-energy", "--a", "0.2", "--c", "1", "--n", "8", "--exact-compare"],
     {"numpy", "dataclasses"}),
    (["duality-check", "--n", "2", "--m", "2", "--x", "0.5"],
     {"numpy", "dataclasses", *_PLANAR}),
    (["ldp", "--alpha", "16/9", "--grid", "0.5:5:5", "--check-kc"],
     {"numpy", "dataclasses", "orjson", *_EXACT}),
    (["tw", "--grid=-8:6:5"], {"dataclasses", "fractions", "orjson", *_PLANAR}),
    (["critical", "--n", "8", "--c", "1", "--s", "2"], {"dataclasses"}),
    (["op-compare", "--a", "1.2", "--c", "1", "--n", "4,8", "--x", "3",
      "--s", "0"], {"numpy", "dataclasses"}),
    (["report"], {"dataclasses"}),
]


def _exit_code(argv):
    # report keeps criterion 8 red, so it exits 3 unless the opasymp suite
    # is skipped
    return (cli.EXIT_IDENTITY if argv[0] == "report" and "opasymp" not in argv
            else cli.EXIT_OK)


@pytest.mark.parametrize("argv, forbidden", [
    *COLD_COMMANDS,
    pytest.param(["ldp", "--alpha", "16/9", "--grid", "1:3:3",
                  "--exact-compare", "--n", "9"], {"numpy", "dataclasses"},
                 id="ldp-exact-compare"),
    # t = S_MAX sums the series to the written-out Airy tails
    pytest.param(["tw", "--t", "8"], {"dataclasses", "fractions", *_PLANAR},
                 id="tw-at-s-max"),
    # the benchmark's quick tables stay below the orjson cut
    pytest.param(["tw", "--grid=-8:6:57"], {"dataclasses", "orjson"},
                 id="tw-quick-grid"),
    pytest.param(["geometry", "--a", "1", "--c", "0.5625", "--points", "256"],
                 {"numpy", "dataclasses", "orjson"}, id="geometry-quick-grid"),
], ids=lambda value: (value[0] if isinstance(value, list)
                      else str("numpy" in value)))  # True: starts without numpy
def test_cold_start_skips_scipy(argv, forbidden):
    code, loaded, stderr = loaded_modules(argv)
    assert code == _exit_code(argv), stderr
    assert "scipy" not in loaded
    assert sorted(({"mpmath"} | forbidden) & loaded) == []


def test_help_loads_no_codec_or_command_module():
    # the front builds the subcommand list from its own table; the rational,
    # json and csv codecs load only with a subcommand that uses them
    code, loaded, stderr = loaded_modules(["--help"])
    assert code == cli.EXIT_OK, stderr
    assert sorted({"fractions", "decimal", "json", "csv"} & loaded) == []
    assert sorted(name for name in loaded
                  if name.startswith("coulombgas.commands")) == []


@pytest.mark.parametrize("argv", [argv for argv, _ in COLD_COMMANDS[1:]],
                         ids=lambda argv: argv[0])
def test_subcommand_loads_its_own_module_and_not_the_front(argv):
    # only the chosen subcommand's module is compiled; none imports
    # coulombgas.cli, which under -m would compile the front a second time
    # with a second UsageError class that run() does not catch
    code, loaded, stderr = loaded_modules(argv)
    assert code == _exit_code(argv), stderr
    own = "coulombgas.commands." + argv[0].replace("-", "_")
    assert sorted(name for name in loaded
                  if name.startswith("coulombgas.commands.")) == [own]
    assert "coulombgas.cli" not in loaded


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

    for argv in (["tw", "--t", "0"],
                 ["critical", "--n", "8", "--c", "1", "--s", "2"]):
        assert cli.build_parser(argv).parse_args(argv).tol == painleve.DEFAULT_TOL


def test_console_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "coulombgas.cli", "geometry", "--a", "1",
         "--c", "0.5625", "--points", "16"],
        capture_output=True, text=True, timeout=120, env=child_env())
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["schema_version"] == 1


def test_entry_point_exit_keeps_every_byte(tmp_path, capsys):
    # main() flushes and leaves by os._exit: the text reaches stdout, or
    # --out, whole, and the exit code is run()'s.  Block-buffered stdout: a
    # short text sits in the buffer until main() flushes it
    env = child_env()
    env.pop("PYTHONUNBUFFERED", None)

    def entry_point(argv, **kwargs):
        return subprocess.run([sys.executable, "-m", "coulombgas.cli", *argv],
                              text=True, timeout=120, env=env, **kwargs)

    out = tmp_path / "table.txt"
    for argv in (["geometry", "--a", "1", "--c", "9/16", "--points", "16"],
                 ["tw", "--grid=-8:6:20000"],
                 ["geometry", "--a", "0.3", "--c", "9/16", "--points", "20000",
                  "--format", "csv"]):
        code, text, _ = run_cli(argv, capsys)
        assert code == cli.EXIT_OK
        proc = entry_point(argv, capture_output=True)
        assert (proc.returncode, proc.stdout, proc.stderr) == (code, text, "")
        proc = entry_point([*argv, "--out", str(out)], capture_output=True)
        assert (proc.returncode, proc.stdout, proc.stderr) == (code, "", "")
        assert out.read_text() == text

    # an --out the process cannot open: exit 1 and its JSON error, as run()
    argv = ["geometry", "--a", "1", "--c", "9/16", "--points", "16", "--out",
            str(tmp_path / "missing" / "table.json")]
    code, _, err = run_cli(argv, capsys)
    assert code == cli.EXIT_USAGE
    assert json.loads(err)["error"] == "FileNotFoundError"
    proc = entry_point(argv, capture_output=True)
    assert (proc.returncode, proc.stdout, proc.stderr) == (code, "", err)

    # stdout buffered into a pipe whose reader has gone (`| true`): the
    # failed flush leaves through interpreter shutdown, which reports it in
    # two lines, no traceback, and exits 120
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = entry_point(argv[:7], stdout=write_end, stderr=subprocess.PIPE)
    finally:
        os.close(write_end)
    assert proc.returncode == 120
    ignored, error = proc.stderr.splitlines()
    assert ignored.startswith(
        "Exception ignored in: <_io.TextIOWrapper name='<stdout>'")
    assert error == "BrokenPipeError: [Errno 32] Broken pipe"


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
    # main() ends in os._exit; read its code as a SystemExit instead
    monkeypatch.setattr(os, "_exit", sys.exit)
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
