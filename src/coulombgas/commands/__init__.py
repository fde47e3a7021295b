"""One module per subcommand of the command line.

Each module declares its flags (add_arguments(parser)) and runs the
subcommand (run(args), which writes its table and returns nothing; a
failure is an exception, which the front maps to its exit code); the front,
coulombgas.cli, imports only the module of the subcommand it runs.  No
module here imports coulombgas.cli: under `python -m coulombgas.cli` the
front runs as __main__, and importing it again would compile it a second
time and make a second UsageError class that the front does not catch.
"""
