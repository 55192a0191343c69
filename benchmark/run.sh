#!/usr/bin/env bash
# The benchmark's one command: builds `specrecon` and the harness in
# release, then runs the harness. See README.md.
#
#   benchmark/run.sh [--workload NAME] [--seed N] [--seconds S] [--trace [0|1]]
#
# Without --workload every workload runs in turn. Both builds go through
# cargo on every start, so a `specrecon` older than its sources cannot be
# measured; when nothing changed that costs a fraction of a second.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"

# One target directory for both builds: the harness is a workspace of its
# own and would otherwise compile the program's crates a second time into
# benchmark/target.
target="${CARGO_TARGET_DIR:-$root/target}"
case "$target" in /*) ;; *) target="$PWD/$target" ;; esac
export CARGO_TARGET_DIR="$target"

cargo build --release --offline --quiet --manifest-path "$root/Cargo.toml" --bin specrecon >&2
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" >&2

# The harness kills its service when it ends or panics; a signal gives it
# no chance to, so on a signal everything below it is stopped from here,
# children first.
stop_tree() {
    local child
    for child in $(pgrep -P "$1" 2>/dev/null); do stop_tree "$child"; done
    kill -TERM "$1" 2>/dev/null || true
}
"$target/release/benchmark" \
    --specrecon "$target/release/specrecon" --root "$root" --out "$here/out" "$@" &
harness=$!
trap 'stop_tree "$harness"' INT TERM
wait "$harness"
