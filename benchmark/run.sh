#!/usr/bin/env bash
# The benchmark's one command, as BENCHMARK.json names it:
#
#   bash benchmark/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# Builds the two binaries from source (a no-op after the first run) and
# hands the arguments to `bench` (--trace 0: end-to-end metrics) or
# `bench-trace` (--trace 1: per-layer metrics).  The last line of standard
# output is the result object; everything else goes to standard error.
set -euo pipefail

here="$(dirname "${BASH_SOURCE[0]}")"
cargo build --release --offline --quiet --bins --manifest-path "$here/Cargo.toml" >&2

bin=bench
prev=
for arg in "$@"; do
    if [[ $prev == --trace && $arg == 1 ]]; then
        bin=bench-trace
    fi
    prev=$arg
done
exec "${CARGO_TARGET_DIR:-$here/target}/release/$bin" "$@"
