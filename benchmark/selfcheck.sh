#!/usr/bin/env bash
# The benchmark's own smoke test, ready for CI: a --smoke --trace run of
# all six workloads (a twentieth of every request count, a three-
# experiment suite, under 20 s), then a check of the result file against
# BENCHMARK.json — every declared (metric, workload) pair present or
# explicitly null with a reason, well-formed names, nothing failed.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
target="${CARGO_TARGET_DIR:-target}"

"$here/run.sh" --smoke --trace "$@"
"$here/run.sh" --check "$target/benchmark/result.json"
