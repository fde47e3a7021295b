"""Command-line front end: parse argv, run one subcommand, map errors to exit codes.

The front lists every subcommand, but only the one argv names is imported:
coulombgas.commands.<name> (with "_" for "-") declares its flags and runs
it, so a cold start compiles and builds the parser of that subcommand alone,
and --help loads none of them.  coulombgas.args holds the flag types,
coulombgas.table the tables and their JSON/CSV text.  Errors of any kind
are written as a structured JSON object on standard error, and the exit
code classifies them:

    0  success
    1  usage error (bad flags, malformed grid/rational, unknown suite)
    2  numerical failure (domain violations, singular determinants, blow-ups)
    3  an identity or verification check failed beyond its tolerance

Rows are computed one after another in flag order, so output is
byte-for-byte deterministic for a fixed command line.  The only
environment variable touched is OPENBLAS_NUM_THREADS: main() sets it to 1
unless it is already set, before numpy can load, because numpy imports
faster with one thread and the small dense solves in painleve gain nothing
from more; run() leaves the environment alone.  No file other than --out is
ever written.
"""
from __future__ import annotations

import argparse
import os
import re
import sys

# Every numerical module loads inside the subcommands that use it, so a
# cold start pays only for the command that runs: painleve and report import
# numpy (tw, critical, report); the exact oracle runs on ints and the
# decimal module, which fractions already loads; mpmath loads only for a tw
# point at or beyond painleve.S_MAX.  The exit codes live in errors, beside
# the exceptions they classify, so that no command module imports this one.
from .errors import (EXIT_IDENTITY, EXIT_NUMERICAL, EXIT_OK, EXIT_USAGE,
                     CoulombGasError, IdentityCheckFailure, UsageError)

# (name, help) of each subcommand, in the order --help lists them
COMMANDS = (
    ("geometry", "droplet boundary points"),
    ("free-energy", "log Z_N expansion terms"),
    ("exact", "exact finite-N log Z and A11"),
    ("duality-check", "gap probability vs partition-function ratio"),
    ("tw", "extreme-value distribution values"),
    ("critical", "transition-window free energy"),
    ("ldp", "left-edge rate function table"),
    ("op-compare", "asymptotic vs exact polynomials"),
    ("report", "run the verification suite"),
)


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # argparse reads "-8:6:57" or "-inf" as an unknown option; any
        # "-<digit>", "-.<digit>", "-inf" or "-nan" token (in any case) is a
        # value here, so finite_float sees it (no option looks like that)
        self._negative_number_matcher = re.compile(r"-(\.?\d|inf|nan)",
                                                   re.IGNORECASE)

    # argparse exits 2 on usage errors; the contract here reserves 2 for
    # numerical failures, so route usage problems through UsageError instead
    def error(self, message):
        raise UsageError(message)


def build_parser(argv: list[str]) -> argparse.ArgumentParser:
    """The parser for argv: every subcommand is listed with its help, and
    the one argv names (its first token not starting with "-") gets its
    flags and its run function from its own module."""
    from importlib import import_module

    parser = _Parser(prog="coulombgas",
                     description="Planar Coulomb gas toolkit: droplet "
                                 "geometry, free energies, exact finite-N "
                                 "oracles, large deviations, and polynomial "
                                 "asymptotics.")
    sub = parser.add_subparsers(dest="subcommand", required=True)
    chosen = next((token for token in argv if not token.startswith("-")), None)
    for name, summary in COMMANDS:
        p = sub.add_parser(name, help=summary)
        if name == chosen:
            module = import_module(".commands." + name.replace("-", "_"),
                                   __package__)
            module.add_arguments(p)
            p.set_defaults(fn=module.run)
    return parser


def _fail(exc: Exception, code: int) -> int:
    import json

    payload = {"error": type(exc).__name__, "message": str(exc),
               "exit_code": code}
    print(json.dumps(payload), file=sys.stderr)
    return code


def run(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    parser = build_parser(argv)
    try:
        args = parser.parse_args(argv)
        args.fn(args)
        return EXIT_OK
    except UsageError as exc:
        return _fail(exc, EXIT_USAGE)
    except IdentityCheckFailure as exc:
        return _fail(exc, EXIT_IDENTITY)
    except CoulombGasError as exc:
        return _fail(exc, EXIT_NUMERICAL)
    except OSError as exc:
        return _fail(exc, EXIT_USAGE)
    except Exception as exc:  # never leak a traceback past the CLI boundary
        return _fail(exc, EXIT_NUMERICAL)


def main() -> None:
    """Console entry point: run argv, then leave at the last byte written.

    Once both streams are flushed, os._exit skips interpreter teardown,
    which prints nothing.  A flush that fails (stdout piped into a reader
    that has gone) leaves through sys.exit instead, so the interpreter
    reports the lost output on stderr and exits 120, as it always has.
    """
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    try:
        code = run()
    except SystemExit as exc:  # argparse's --help
        code = exc.code
    try:
        sys.stdout.flush()
        sys.stderr.flush()
    except Exception:
        sys.exit(code)
    os._exit(code)


if __name__ == "__main__":
    main()
