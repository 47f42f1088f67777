#!/usr/bin/env bash
# The repo benchmark: build the real release binaries, then drive them.
#
#   benchmark/run.sh --workload W --seed N --seconds S --trace 0|1
#   benchmark/run.sh [--seed N] [--seconds S] [--smoke] [--trace]
#   benchmark/run.sh --compare A.json B.json
#
# See benchmark/README.md. Everything is read and written inside the
# checkout: binaries under $CARGO_TARGET_DIR (default: target/), results
# under $CARGO_TARGET_DIR/benchmark/.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"

target="${CARGO_TARGET_DIR:-target}"
case "$target" in
  /*) ;;
  *) target="$root/$target" ;;
esac
export CARGO_TARGET_DIR="$target"

# Build output goes to stderr: stdout carries only results.
cargo build --release --offline --quiet -p wmlp-serve -p wmlp-bench \
  --bin wmlp-serve --bin experiments >&2
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml >&2

exec "$target/release/wmlp-benchmark" \
  --bin-dir "$target/release" --out-dir "$target/benchmark" "$@"
