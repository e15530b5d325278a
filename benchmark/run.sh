#!/usr/bin/env bash
# Build csmt-serve and the benchmark into one target directory, then run
# the benchmark from the repository root.
#
#   benchmark/run.sh [--seed N] [--traced]                  every workload
#   benchmark/run.sh --workload NAME [--seed N] [--seconds S] [--trace 0|1]
#
# CARGO_TARGET_DIR defaults to the repository's target/ directory.
set -euo pipefail

cd "$(dirname "$0")/.."
if [ ! -f Cargo.toml ] || [ ! -d crates ]; then
    echo "run.sh: $(pwd) is not a checkout of the repository" >&2
    exit 2
fi

target="${CARGO_TARGET_DIR:-target}"
case "$target" in
    /*) ;;
    *) target="$(pwd)/$target" ;;
esac
export CARGO_TARGET_DIR="$target"

cargo build --release --offline --quiet -p csmt-serve
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml
exec "$CARGO_TARGET_DIR/release/csmt-benchmark" "$@"
