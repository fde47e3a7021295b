"""Regenerate `reference.json.gz`, the gate's stored values for the default seed.

Run once, from the repository root, on a commit whose outputs are trusted:

    python3 perfbench/make_reference.py

Every reference value comes from a run at higher accuracy than the benchmark
uses, where the CLI offers one, and every tolerance follows from the value's
measured accuracy (10x its deviation from that reference):

* exact values (`exact`, `op-compare` exact column, the `--exact-compare`
  columns): the same quantity at 3000 bits.  Tolerance: 10x the 256-bit
  error, at least 10 units of the last printed digit (`*_str`) or 2 ulp
  (floats).  At a=3, N=60 the 256-bit log Z is off by ~2.9e-7, so a
  precision fix that shrinks that error still passes.
* Tracy-Widom values: the tail integral I = -log F from `tw --tol 1e-12`
  (the tightest ODE tolerance).  Tolerance atol + rtol*I, 10x the largest
  default-vs-tight deviation.
* `op-compare` asymptotics: `quad` is asked for 1e-12 and e^(N g) scales a
  g error by N <= 32, so relative 1e-9 (about 30x that).
* double-precision closed forms (expansion terms, ldp, geometry): the
  output itself, rtol 1e-12 and atol 1e-13 -- thousands of ulps, room for
  reassociated or vectorised arithmetic, far below any formula change.
  `phi` gets atol 10x the worst `--check-kc` residual, the measured
  agreement of two independent routes to it.
"""
from __future__ import annotations

import gzip
import json
import math
import sys
from decimal import Decimal
from fractions import Fraction

import gate
import workloads
from run import child_env, spawn

EXACT_BITS = "3000"
FACTOR = 10.0
DOUBLE_RTOL = 1e-12
DOUBLE_ATOL = 1e-13
QUAD_RTOL = 1e-9
TW_TIGHT_TOL = "1e-12"


def cli(*argv: str) -> dict:
    out = spawn([sys.executable, "-m", "coulombgas.cli", *argv], child_env())
    return gate.parse(argv, out.stdout)


def with_flag(argv, name: str, value: str) -> tuple:
    out = list(argv)
    if name in out:
        del out[out.index(name):out.index(name) + 2]
    return (*out, name, value)


def double_tol(value: float) -> float:
    return max(DOUBLE_ATOL, DOUBLE_RTOL * abs(value))


def exact_tol(value: float, ref: float) -> float:
    return max(FACTOR * abs(value - ref), 2 * math.ulp(ref))


def exact_str_tol(text: str, ref: str) -> str:
    last_digit = Decimal(10) ** (Decimal(ref).adjusted() - 29)  # nstr(x, 30)
    err = abs(gate.DECIMAL.subtract(Decimal(text), Decimal(ref)))
    return str(max(Decimal(FACTOR) * err, 10 * last_digit))


def generic(row: dict) -> dict:
    """Floats as double-precision closed forms; everything else exactly."""
    return {path: [v, double_tol(v) if isinstance(v, float) else None]
            for path, v in gate.flatten(row).items()}


def exact_logz_float(a: float, m: int, n: int) -> float:
    return cli("exact", "--a", repr(a), "--m", str(m), "--n", str(n),
               "--bits", EXACT_BITS)["rows"][0]["log_z"]


def with_exact_logz(row: dict, fields: dict, m: int) -> dict:
    """Replace the exact_logz / residual tolerances of a --exact-compare row."""
    ref = exact_logz_float(row["a"] if "a" in row else row["a_s"], m, row["N"])
    tol = exact_tol(row["exact_logz"], ref)
    fields["exact_logz"] = [ref, tol]
    fields["residual"] = [abs(ref - row["expansion"]),
                          tol + fields["expansion"][1]]
    return fields


def ref_exact(argv) -> dict:
    row = cli(*argv)["rows"][0]
    hi = cli(*with_flag(argv, "--bits", EXACT_BITS))["rows"][0]
    fields = {k: [row[k], None] for k in ("N", "m", "a")}
    for key in ("log_z", "a11"):
        fields[key] = [hi[key], exact_tol(row[key], hi[key])]
        fields[key + "_str"] = [hi[key + "_str"],
                                exact_str_tol(row[key + "_str"], hi[key + "_str"])]
    return {"rows": [fields]}


def ref_op_compare(argv) -> dict:
    rows = cli(*argv)["rows"]
    his = cli(*with_flag(argv, "--bits", EXACT_BITS))["rows"]
    out = []
    for row, hi in zip(rows, his):
        fields = {"N": [row["N"], None], "z.re": [row["z"]["re"], None],
                  "z.im": [row["z"]["im"], None]}
        exact_abs = abs(complex(hi["exact"]["re"], hi["exact"]["im"]))
        asym_abs = abs(complex(row["asymptotic"]["re"], row["asymptotic"]["im"]))
        # each part's floor is 2 ulp of the modulus: an exactly-zero
        # imaginary part need not stay bit-exact
        tol_exact = max([FACTOR * abs(row["exact"][part] - hi["exact"][part])
                         for part in ("re", "im")] + [2 * math.ulp(exact_abs)])
        for part in ("re", "im"):
            fields[f"exact.{part}"] = [hi["exact"][part], tol_exact]
            fields[f"asymptotic.{part}"] = [row["asymptotic"][part],
                                            QUAD_RTOL * asym_abs]
        fields["rel_error"] = [hi["rel_error"],
                               (QUAD_RTOL * asym_abs + tol_exact) / exact_abs
                               + exact_tol(row["rel_error"], hi["rel_error"])]
        out.append(fields)
    return {"rows": out}


def ref_free_energy(argv) -> dict:
    row = cli(*argv)["rows"][0]
    m = int(Fraction(gate.flag(argv, "--c")) * row["N"])
    return {"rows": [with_exact_logz(row, generic(row), m)]}


def ref_critical(argv) -> dict:
    row = cli(*argv)["rows"][0]
    tight = cli(*with_flag(argv, "--tol", TW_TIGHT_TOL))["rows"][0]
    fields = generic(row)
    fields["expansion"] = [tight["expansion"],
                           max(exact_tol(row["expansion"], tight["expansion"]),
                               double_tol(row["expansion"]))]
    return {"rows": [with_exact_logz(row, fields, round(row["c"] * row["N"]))]}


def tail_integral(row: dict) -> float:
    if row["cdf"] < 0.5:
        return -math.log(row["cdf"])
    return -math.log1p(-row["survival"])


def ref_tw(argv) -> dict:
    default = [tail_integral(r) for r in cli(*argv)["rows"]]
    tight = [tail_integral(r) for r in
             cli(*with_flag(argv, "--tol", TW_TIGHT_TOL))["rows"]]
    pairs = list(zip(default, tight))
    atol = FACTOR * max([abs(d - t) for d, t in pairs if t >= 1.0] or [0.0])
    rtol = FACTOR * max([abs(d - t) / t for d, t in pairs if t < 1.0] or [0.0])
    return {"tail": {"ref": tight, "atol": max(atol, 1e-15),
                     "rtol": max(rtol, 1e-15)}}


def ref_ldp(argv) -> dict:
    table = cli(*argv)
    rows = table["rows"]
    return {"columns": {
        "phi": {"ref": [r["phi"] for r in rows], "rtol": DOUBLE_RTOL,
                "atol": max(DOUBLE_ATOL, FACTOR * table["worst_residual"])},
        "psi": {"ref": [r["psi"] for r in rows], "rtol": DOUBLE_RTOL,
                "atol": DOUBLE_ATOL},
    }}


def ref_geometry(argv) -> dict:
    json_argv = argv[:argv.index("--format")] if "--format" in argv else argv
    droplet = cli(*json_argv)["droplet"]
    return {"droplet": generic(droplet), "point_atol": DOUBLE_RTOL}


MAKERS = {"exact": ref_exact, "op-compare": ref_op_compare,
            "free-energy": ref_free_energy, "critical": ref_critical,
            "tw": ref_tw, "ldp": ref_ldp, "geometry": ref_geometry}


def main() -> int:
    commands = {}
    for name in workloads.NAMES:
        for cmd in workloads.commands(name):
            make = MAKERS.get(cmd.argv[0], lambda argv: {})
            commands[cmd.id] = {"argv": list(cmd.argv), **make(cmd.argv)}
            print(f"{cmd.id}: {' '.join(cmd.argv)}", file=sys.stderr)
    data = {"seed": workloads.DEFAULT_SEED, "commands": commands}
    with open(gate.REFERENCE_PATH, "wb") as raw, \
            gzip.GzipFile(fileobj=raw, mode="wb", mtime=0) as handle:
        handle.write(json.dumps(data, separators=(",", ":")).encode())
    return 0


if __name__ == "__main__":
    sys.exit(main())
