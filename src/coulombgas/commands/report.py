"""report: run the verification suite."""
from __future__ import annotations

from ..args import common
from ..errors import IdentityCheckFailure
from ..table import SCHEMA_VERSION, emit


def add_arguments(p) -> None:
    # run loads report too, so its suite names cost no extra module
    from .. import report

    p.add_argument("--skip", action="append", default=None,
                   choices=report.SUITES, metavar="SUITE")
    common(p)


def run(args) -> None:
    from .. import report

    skip = tuple(args.skip or ())
    results = report.run_checks(skip)
    rows = []
    for res in results:
        row = res._asdict()
        # timings vary run to run; dropping them keeps the artifact
        # byte-identical across runs, which downstream diffing relies on
        del row["elapsed_seconds"]
        rows.append(row)
    all_passed = all(res.passed for res in results)
    table = {"schema_version": SCHEMA_VERSION,
             "kind": "verification_report",
             "skipped_suites": list(skip),
             "all_passed": all_passed,
             "n_passed": sum(res.passed for res in results),
             "n_checks": len(results),
             "rows": rows}
    emit(table, args)
    if not all_passed:
        failed = ", ".join(res.key for res in results if not res.passed)
        raise IdentityCheckFailure(f"criteria failed: {failed}")
