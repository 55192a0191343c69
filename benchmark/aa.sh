#!/usr/bin/env bash
# A/A check: runs the whole benchmark twice on one build, untraced and
# traced, and fails if the two sets of reports disagree: an end-to-end
# metric by more than its bound in BENCHMARK.json, or a count of simulated
# or compiled work by anything at all. Prints the per-metric table (both
# values, both spreads over passes, the second as a ratio of the first).
#
#   benchmark/aa.sh [SEED]
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
seed="${1:-1}"

for side in first second; do
    for trace in 0 1; do
        bash "$here/run.sh" --seed "$seed" --trace "$trace" --out "$here/out/aa-$side" >/dev/null
    done
done
bash "$here/run.sh" --compare "$here/out/aa-first" "$here/out/aa-second"
