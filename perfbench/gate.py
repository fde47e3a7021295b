"""Output-correctness gate: exit codes, parsed rows, determinism.

Every command's stdout is parsed (JSON, or CSV under `--format csv`) and
checked in two tiers:

* reference-free, on every seed: the exit code, the row count implied by
  the command line, `--check-kc` residuals, the duality tolerance, and the
  `report` verdicts (exit 3 with only `op_asymptotics` failing);
* against `reference.json.gz`, on the default seed only: each compared field
  must satisfy |value - reference| <= atol (+ rtol |reference| for columns).
  The reference and each tolerance are produced by `make_reference.py`,
  which documents how each tolerance follows from the value's accuracy.

Fields the reference does not name are ignored, so an added diagnostics
block or a schema_version bump passes.  `*_str` fields compare as decimals.
"""
from __future__ import annotations

import cmath
import csv
import gzip
import hashlib
import io
import json
import math
from decimal import Context, Decimal
from pathlib import Path

from traced_cli import REPORT_CHECKS
from workloads import REPORT_FAILING, Command

REFERENCE_PATH = Path(__file__).with_name("reference.json.gz")
DECIMAL = Context(prec=60)  # 30-digit *_str values and their differences


def load_reference() -> dict:
    with gzip.open(REFERENCE_PATH, "rt") as handle:
        return json.load(handle)


def flag(argv, name: str):
    """Value of `--name V` or `--name=V` in argv, or None."""
    for i, arg in enumerate(argv):
        if arg == name and i + 1 < len(argv):
            return argv[i + 1]
        if arg.startswith(name + "="):
            return arg[len(name) + 1:]
    return None


def grid_points(argv) -> list[float]:
    lo, hi, n = flag(argv, "--grid").split(":")
    lo, hi, n = float(lo), float(hi), int(n)
    return [lo + (hi - lo) * k / (n - 1) for k in range(n)] if n > 1 else [lo]


def parse(argv, stdout: bytes) -> dict:
    text = stdout.decode()
    if flag(argv, "--format") == "csv":
        return {"rows": list(csv.DictReader(io.StringIO(text)))}
    return json.loads(text)


def flatten(obj, prefix: str = "") -> dict:
    """{"a": {"re": 1}, "t": [{"p": 2}]} -> {"a.re": 1, "t.0.p": 2}."""
    if isinstance(obj, dict):
        items = obj.items()
    elif isinstance(obj, list):
        items = enumerate(obj)
    else:
        return {prefix: obj}
    out = {}
    for key, value in items:
        out.update(flatten(value, f"{prefix}{key}."))
    return {k.rstrip("."): v for k, v in out.items()}


def _scalar_problem(path: str, value, ref, atol) -> str | None:
    if atol is None:
        return None if value == ref else f"{path}: {value!r} != {ref!r}"
    if path.endswith("_str"):
        err = abs(DECIMAL.subtract(Decimal(value), Decimal(ref)))
        ok = err <= Decimal(atol)
    else:
        err = abs(float(value) - ref)
        ok = err <= atol
    if ok:
        return None
    return f"{path}: {value} off reference {ref} by {err:.3e} > {atol}"


def _fields_problems(flat: dict, expected: dict, where: str) -> list[str]:
    problems = []
    for path, (ref, atol) in expected.items():
        if path not in flat:
            problems.append(f"{where}: field {path} missing")
            continue
        problem = _scalar_problem(path, flat[path], ref, atol)
        if problem:
            problems.append(f"{where}: {problem}")
    return problems


def _column_problems(name: str, values, ref: dict) -> list[str]:
    atol, rtol = ref["atol"], ref["rtol"]
    for k, (value, want) in enumerate(zip(values, ref["ref"])):
        if not abs(float(value) - want) <= atol + rtol * abs(want):
            return [f"row {k}: {name} = {value} off reference {want} beyond "
                    f"atol {atol:.1e} + rtol {rtol:.1e}"]
    return []


def _grid_problems(rows, argv) -> list[str]:
    for k, (row, t) in enumerate(zip(rows, grid_points(argv))):
        if not abs(row["t"] - t) <= 1e-14 * max(1.0, abs(t)):
            return [f"row {k}: t = {row['t']} is not grid point {t}"]
    return []


def _tw_problems(rows, ref) -> list[str]:
    # The reference stores I = int_t^inf (x-t) q^2 dx; cdf = e^-I and
    # survival = 1 - e^-I, so both columns are checked against one array.
    atol, rtol = ref["atol"], ref["rtol"]
    for k, (row, tail) in enumerate(zip(rows, ref["ref"])):
        cdf, surv = math.exp(-tail), -math.expm1(-tail)
        allow = cdf * math.expm1(atol + rtol * tail)
        if not (abs(row["cdf"] - cdf) <= allow + 2 * math.ulp(cdf)
                and abs(row["survival"] - surv) <= allow + 2 * math.ulp(surv)):
            return [f"row {k}: (cdf, survival) = ({row['cdf']}, "
                    f"{row['survival']}) off reference ({cdf}, {surv})"]
    return []


def _geometry_rows(rows) -> list[tuple]:
    """(component, theta, point) per row, for JSON and CSV alike."""
    out = []
    for row in rows:
        if "point" in row:
            point = complex(row["point"]["re"], row["point"]["im"])
        else:
            point = complex(float(row["point_re"]), float(row["point_im"]))
        out.append((row["component"], float(row["theta"]), point))
    return out


def _boundary_point(droplet: dict, component: str, w: complex) -> complex:
    """The boundary parametrisation, from the reference droplet constants."""
    if component == "boundary":  # f(w) = R w - kappa/(w - q) - kappa/q
        R, q, kappa = droplet["R"][0], droplet["q"][0], droplet["kappa"][0]
        return R * w - kappa / (w - q) - kappa / q
    if component == "outer":
        return droplet["outer_radius"][0] * w
    return droplet["inner_center"][0] + droplet["inner_radius"][0] * w


def _geometry_problems(geo, points: int, ref) -> list[str]:
    problems = []
    counts: dict = {}
    for k, (component, theta, point) in enumerate(geo):
        index = counts.get(component, 0)
        counts[component] = index + 1
        if ref is None:
            continue
        want_theta = 2.0 * math.pi * index / points
        want = _boundary_point(ref["droplet"], component,
                               cmath.exp(1j * want_theta))
        if not (abs(theta - want_theta) <= 1e-14
                and abs(point - want) <= ref["point_atol"]):
            problems.append(f"row {k}: {component} point {point} at theta "
                            f"{theta} off reference {want}")
            break
    if set(counts) not in ({"boundary"}, {"outer", "inner"}) or any(
            n != points for n in counts.values()):
        problems.append(f"components {counts}, expected {points} points each "
                        f"of 'boundary' or of 'outer' and 'inner'")
    return problems


def _expected_rows(argv) -> int | None:
    sub = argv[0]
    if sub in ("tw", "ldp"):
        return len(grid_points(argv))
    if sub == "op-compare":
        return len([n for n in flag(argv, "--n").split(",") if n])
    if sub == "report":
        return len(REPORT_CHECKS)
    if sub == "geometry":
        return None  # one or two components; counted per component
    return 1


def check(cmd: Command, rc: int, stdout: bytes, ref: dict | None) -> list[str]:
    """Problems with one command's result; empty means it passed."""
    if rc != cmd.exit_code:
        return [f"exit {rc}, expected {cmd.exit_code}"]
    try:
        table = parse(cmd.argv, stdout)
    except (ValueError, UnicodeDecodeError) as exc:
        return [f"stdout does not parse: {exc}"]
    rows = table.get("rows", [])
    want = _expected_rows(cmd.argv)
    if want is not None and len(rows) != want:
        return [f"{len(rows)} rows, expected {want}"]
    if ref is not None and tuple(ref["argv"]) != cmd.argv:
        return [f"reference is for {ref['argv']}, not {list(cmd.argv)}"]
    try:
        return _subcommand_problems(cmd.argv, table, rows, ref)
    except (KeyError, TypeError, ValueError) as exc:
        return [f"malformed table: {type(exc).__name__}: {exc}"]


def _subcommand_problems(argv, table, rows, ref) -> list[str]:
    sub = argv[0]
    problems = []
    if sub == "report":
        verdicts = {row["key"]: row["passed"] for row in rows}
        failing = {key for key, ok in verdicts.items() if not ok}
        if set(verdicts) != set(REPORT_CHECKS) or failing != REPORT_FAILING:
            problems.append(f"report verdicts changed: failing {sorted(failing)}"
                            f" of {sorted(verdicts)}")
    elif sub == "duality-check":
        row = rows[0]
        if not (row["passed"] is True and row["residual"] < table["params"]["tol"]):
            problems.append(f"duality residual {row['residual']} not within "
                            f"tolerance {table['params']['tol']}")
    elif sub == "ldp" and "--check-kc" in argv:
        tol = table["params"]["tol"]
        if not (table["worst_residual"] <= tol
                and all(row["residual"] <= tol for row in rows)):
            problems.append(f"--check-kc residual {table['worst_residual']} "
                            f"exceeds {tol}")
    if sub == "geometry":
        problems += _geometry_problems(_geometry_rows(rows),
                                       int(flag(argv, "--points")), ref)
    if ref is None:
        return problems
    if sub in ("tw", "ldp"):
        problems += _grid_problems(rows, argv)
    if sub == "tw":
        problems += _tw_problems(rows, ref["tail"])
    elif sub == "ldp":
        cols = ref["columns"]
        problems += _column_problems("phi", [r["phi"] for r in rows], cols["phi"])
        problems += _column_problems("action_diff",
                                     [r["action_diff"] for r in rows], cols["phi"])
        problems += _column_problems("psi", [r["psi"] for r in rows], cols["psi"])
    elif sub == "geometry" and "droplet" in table:
        problems += _fields_problems(flatten(table["droplet"]), ref["droplet"],
                                     "droplet")
    for k, expected in enumerate(ref.get("rows", ())):
        problems += _fields_problems(flatten(rows[k]), expected, f"row {k}")
    return problems


class Determinism:
    """Remembers each command's stdout digest; a different one is a failure."""

    def __init__(self):
        self._digests: dict = {}

    def check(self, cmd: Command, stdout: bytes) -> list[str]:
        digest = hashlib.sha256(stdout).hexdigest()
        first = self._digests.setdefault(cmd.argv, digest)
        return [] if digest == first else [
            f"stdout differs from an earlier run of the same command "
            f"(sha256 {digest[:12]} vs {first[:12]})"]
