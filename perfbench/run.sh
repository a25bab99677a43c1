#!/usr/bin/env bash
# Builds the `maras` CLI from the repository's own workspace and the
# benchmark from this directory, then runs the benchmark against it.
# Usage, from the repository root:
#   bash perfbench/run.sh --workload refresh|browse|drilldown --seed N --seconds S --trace 0|1
set -euo pipefail
target="${CARGO_TARGET_DIR:-.bench_build}"
export CARGO_TARGET_DIR="$target"
cargo build --release --offline --quiet --manifest-path Cargo.toml --bin maras >&2
cargo build --release --offline --quiet --manifest-path perfbench/Cargo.toml >&2
exec "$target/release/perfbench" --maras "$target/release/maras" --work "$target/perfbench-work" "$@"
