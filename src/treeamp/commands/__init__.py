"""The subcommands of treeamp.cli, one module each.

Each module's run(args) takes the flags read_flags read and returns
(config, results, verdicts) for cli.main's report envelope; denom-check
adds a fourth item, the witness of each failing verdict.  cli.main
imports a module only when it runs that subcommand, so a process compiles
only the body it runs.  No module here imports treeamp.cli: under
``python -m treeamp.cli`` that module is __main__, and importing it
would compile it a second time.  The caps live here so that both cli
and the subcommands read them.
"""

MAX_SPHERE = 5 * 10 ** 5  # vertices orbit-check may walk per (p, j)
MAX_SIEVE = 10 ** 6  # largest integer split-density and amplifier may sieve up to
