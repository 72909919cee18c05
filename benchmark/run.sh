#!/usr/bin/env bash
# The benchmark's one command. Builds napletd (root workspace) and the
# benchmark package into one target directory, then runs the benchmark.
#
#   benchmark/run.sh                         every workload, untraced then traced,
#                                            twice; prints every metric, checks outputs
#   benchmark/run.sh --repeat N [--seed S]   N sets on the same build
#   benchmark/run.sh --smoke                 every workload shrunk to < 1 s (schema only)
#   benchmark/run.sh --workload W --seed S --seconds T --trace 0|1
#                                            one run; the last line is the result JSON
#   benchmark/run.sh --print-manifest        the text of BENCHMARK.json
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
cd "$root"

# one target directory for both builds, so the daemon sits next to the
# benchmark binary; honour the caller's, default to benchmark/target
target="${CARGO_TARGET_DIR:-$here/target}"
case "$target" in /*) ;; *) target="$root/$target" ;; esac
export CARGO_TARGET_DIR="$target"

# cargo reports on stderr; stdout stays the benchmark's alone
cargo build --release --offline --quiet --manifest-path "$root/Cargo.toml" -p napletd
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml"

export NAPLETD_BIN="$target/release/napletd"
exec "$target/release/naplet-benchmark" "$@"
