#!/usr/bin/env bash
# Run every CLI verification suite and collect the JSON reports in $1
# (default reports): a wrapper around `treeamp check`, whose table
# treeamp.cli.SUITES names the suites.  Every suite runs; the exit code
# is 1 when any of them failed.  Without an installed treeamp on PATH,
# it runs python3 -m treeamp.cli, so a checkout works with PYTHONPATH=src.
set -euo pipefail

outdir="${1:-reports}"
if command -v treeamp >/dev/null; then
    treeamp=(treeamp)
else
    treeamp=(python3 -m treeamp.cli)
fi
exec "${treeamp[@]}" check --out "$outdir"
