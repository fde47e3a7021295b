"""Check that the correctness gate catches what it is meant to catch.

    python3 perfbench/selfcheck.py

Runs every quick-commands command and the CSV geometry command once at the
default seed and requires each real output to pass the gate.  Then it edits
those outputs and requires that each edit beyond a tolerance, a changed
`report` verdict, a wrong exit code, a lost row and a changed stdout are
counted as failures, while an edit within tolerance and an added field are
not.  Exits 1 if any expectation fails.
"""
from __future__ import annotations

import copy
import csv
import io
import json
import sys
from decimal import Decimal

import gate
import workloads
from run import child_env, spawn


def _json(table: dict) -> bytes:
    return (json.dumps(table, indent=2) + "\n").encode()


def _csv(rows: list) -> bytes:
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=list(rows[0]), lineterminator="\n")
    writer.writeheader()
    writer.writerows(rows)
    return buf.getvalue().encode()


def _edit(path: list, change):
    """A mutation that applies `change` to the value at `path` of the table."""
    def mutate(table):
        table = copy.deepcopy(table)
        node = table
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = change(node[path[-1]])
        return table
    return mutate


def _flip(key: str):
    def mutate(table):
        table = copy.deepcopy(table)
        for row in table["rows"]:
            if row["key"] == key:
                row["passed"] = not row["passed"]
        return table
    return mutate


def _add_fields(table):
    table = copy.deepcopy(table)
    table["schema_version"] = table.get("schema_version", 1) + 1
    for row in table["rows"]:
        row["diagnostics"] = {"precision_bits": 256}
    return table


def _drop_row(table):
    table = copy.deepcopy(table)
    table["rows"].pop()
    return table


def _scale_str(factor):
    return lambda text: str(gate.DECIMAL.multiply(Decimal(text), Decimal(factor)))


# (description, command id, mutation of the parsed table, exit code or None
#  for the real one, whether the gate must still pass)
CASES = [
    ("tw cdf off by 1e-6 relative", "quick-commands/4",
     _edit(["rows", 20, "cdf"], lambda v: v * (1 + 1e-6)), None, False),
    ("tw survival off by 1e-15 relative", "quick-commands/4",
     _edit(["rows", 50, "survival"], lambda v: v * (1 + 1e-15)), None, True),
    ("ldp phi off by 1e-9", "quick-commands/6",
     _edit(["rows", 7, "phi"], lambda v: v + 1e-9), None, False),
    ("ldp psi off by 1e-9", "quick-commands/6",
     _edit(["rows", 7, "psi"], lambda v: v + 1e-9), None, False),
    ("exact log_z_str off by 1e-20 relative", "quick-commands/2",
     _edit(["rows", 0, "log_z_str"], _scale_str("1.00000000000000000001")),
     None, False),
    ("exact log_z_str off by 1e-31 relative", "quick-commands/2",
     _edit(["rows", 0, "log_z_str"],
           _scale_str("1.0000000000000000000000000000001")), None, True),
    ("exact a11 off by 1e-12", "quick-commands/2",
     _edit(["rows", 0, "a11"], lambda v: v + 1e-12), None, False),
    ("free-energy residual off by 1e-8", "quick-commands/1",
     _edit(["rows", 0, "residual"], lambda v: v + 1e-8), None, False),
    ("critical expansion off by 1e-8", "quick-commands/5",
     _edit(["rows", 0, "expansion"], lambda v: v + 1e-8), None, False),
    ("op-compare asymptotic off by 1e-6 relative", "quick-commands/7",
     _edit(["rows", 2, "asymptotic", "re"], lambda v: v * (1 + 1e-6)),
     None, False),
    ("geometry point off by 1e-9", "quick-commands/8",
     _edit(["rows", 100, "point", "im"], lambda v: v + 1e-9), None, False),
    ("geometry droplet R off by 1e-9", "quick-commands/8",
     _edit(["droplet", "R"], lambda v: v + 1e-9), None, False),
    ("duality residual above tolerance", "quick-commands/3",
     _edit(["rows", 0, "residual"], lambda v: 1e-20), None, False),
    ("report: duality verdict flipped", "quick-commands/0",
     _flip("duality"), None, False),
    ("report: op_asymptotics passes", "quick-commands/0",
     _flip("op_asymptotics"), None, False),
    ("report exits 0", "quick-commands/0", lambda t: t, 0, False),
    ("exact exits 2", "quick-commands/2", lambda t: t, 2, False),
    ("tw loses a row", "quick-commands/4", _drop_row, None, False),
    ("diagnostics block and schema_version bump", "quick-commands/2",
     _add_fields, None, True),
    ("report gains a diagnostics block", "quick-commands/0",
     _add_fields, None, True),
]
CSV_CASES = [
    ("csv geometry point off by 1e-9", 7,
     lambda v: repr(float(v) + 1e-9), False),
    ("csv geometry point off by 1e-15", 7,
     lambda v: repr(float(v) + 1e-15), True),
]


def main() -> int:
    reference = gate.load_reference()["commands"]
    commands = {c.id: c for c in workloads.commands("quick-commands")}
    csv_cmd = workloads.commands("grid-tables")[3]
    commands[csv_cmd.id] = csv_cmd
    env = child_env()
    outputs = {}
    failures = []

    def expect(description, problems, should_pass):
        ok = (not problems) == should_pass
        verdict = "ok" if ok else "UNEXPECTED"
        shown = problems[0] if problems else "passes"
        print(f"{verdict:10s} {description}: {shown}")
        if not ok:
            failures.append(description)

    for cmd in commands.values():
        out = spawn([sys.executable, "-m", "coulombgas.cli", *cmd.argv], env)
        outputs[cmd.id] = out
        expect(f"real output of {' '.join(cmd.argv)}",
               gate.check(cmd, out.rc, out.stdout, reference[cmd.id]), True)

    for description, cmd_id, mutate, rc, should_pass in CASES:
        cmd, out = commands[cmd_id], outputs[cmd_id]
        table = mutate(gate.parse(cmd.argv, out.stdout))
        problems = gate.check(cmd, out.rc if rc is None else rc, _json(table),
                              reference[cmd_id])
        expect(description, problems, should_pass)

    rows = gate.parse(csv_cmd.argv, outputs[csv_cmd.id].stdout)["rows"]
    for description, index, change, should_pass in CSV_CASES:
        edited = copy.deepcopy(rows)
        edited[index]["point_re"] = change(edited[index]["point_re"])
        expect(description, gate.check(csv_cmd, 0, _csv(edited),
                                       reference[csv_cmd.id]), should_pass)

    # exact-sweep/3 (a=3, N=60) is not run here: its table is rebuilt from
    # the reference, as a precision fix would print it, and then with the
    # log Z error grown to 20x today's 256-bit error
    cmd = workloads.commands("exact-sweep")[3]
    ref = reference[cmd.id]
    fixed = {"schema_version": 1, "subcommand": "exact",
             "rows": [{k: v for k, (v, _) in ref["rows"][0].items()}]}
    expect("a=3, N=60 at the 3000-bit values",
           gate.check(cmd, 0, _json(fixed), ref), True)
    def grow(text):
        return str(gate.DECIMAL.add(Decimal(text), Decimal("5.8e-6")))

    worse = _edit(["rows", 0, "log_z_str"], grow)(fixed)
    expect("a=3, N=60 log Z off by 5.8e-6",
           gate.check(cmd, 0, _json(worse), ref), False)

    det = gate.Determinism()
    cmd = commands["quick-commands/4"]
    det.check(cmd, outputs[cmd.id].stdout)
    expect("same stdout twice", det.check(cmd, outputs[cmd.id].stdout), True)
    expect("stdout changed between runs",
           det.check(cmd, outputs[cmd.id].stdout + b" "), False)

    print(f"{len(failures)} unexpected results")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
