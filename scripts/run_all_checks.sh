#!/usr/bin/env bash
# Run every CLI verification suite and collect the JSON reports.
# Every suite runs; the exit code is 1 when any of them failed.
# Without an installed treeamp on PATH, it runs python3 -m treeamp.cli,
# so a checkout works with PYTHONPATH=src.
set -euo pipefail

outdir="${1:-reports}"
mkdir -p "$outdir"
failed=0
if command -v treeamp >/dev/null; then
    treeamp=(treeamp)
else
    treeamp=(python3 -m treeamp.cli)
fi

run() {
    name="$1"; shift
    echo "== $name"
    if "${treeamp[@]}" "$@" --out "$outdir/$name.json"; then
        echo "   ok -> $outdir/$name.json"
    else
        echo "   FAILED (see $outdir/$name.json)"
        failed=$((failed + 1))
    fi
}

run verify-hecke       verify-hecke --primes 2,3,5,7,11 --max-radius 8
run split-density-quad split-density --poly "x^2+1" --limit 100000 --expected 1/2
run split-density-cube split-density --poly "x^3-2" --limit 100000 --expected 1/6
run denom-check        denom-check --samples 1000 --seed 0
run orbit-check-sl2    orbit-check --orbit sl2 --primes 2,3,5 --max-j 3
run orbit-check-torus  orbit-check --orbit torus --primes 2,3,5 --max-j 3
run amplifier-trivial  amplifier --Q 50,100,200,400 --spectrum trivial --orbit sl2
run amplifier-tempered amplifier --Q 50,100,200,400 --spectrum tempered --seed 42 --orbit torus

if [ "$failed" -gt 0 ]; then
    echo "$failed suite(s) failed"
    exit 1
fi
