#!/usr/bin/env bash
# Mutation check over the rows of .github/mutants.tsv (file, literal
# pattern, literal replacement, `cargo test` arguments).
#
#   bash .github/mutants.sh check        # each pattern occurs exactly once in its file,
#                                        # and each row's test arguments select a test
#   bash .github/mutants.sh run [DIR]    # each mutant, applied to a copy in DIR, fails its test
#
# `run` copies the working tree once, checks that every row's test passes
# unmutated, then for each row replaces the pattern with sed, builds,
# runs the test and restores the file. It exits non-zero if a mutant
# survives, does not compile, or a test fails before any mutation.
set -euo pipefail

root=$(cd "$(dirname "$0")/.." && pwd)
list="$root/.github/mutants.tsv"

rows() { grep -v -e '^#' -e '^$' "$list"; }

# A literal string as a sed basic regex, and as a sed replacement.
sed_pattern() { printf '%s' "$1" | sed 's/[][\/.^$*]/\\&/g'; }
sed_replacement() { printf '%s' "$1" | sed 's/[\/&]/\\&/g'; }

check() {
    local bad=0 file pattern replacement test n
    while IFS=$'\t' read -r file pattern replacement test; do
        n=$(grep -oF -- "$pattern" "$root/$file" | wc -l)
        if [ "$n" -ne 1 ]; then
            echo "$file: pattern occurs $n times, want 1: $pattern"
            bad=1
        fi
    done < <(rows)
    # A row whose arguments select no test would only show up in `run`,
    # as a mutant that survives; the test lists catch it here.
    while IFS=$'\t' read -r file pattern replacement test; do
        # shellcheck disable=SC2086 # the test column is an argument list
        n=$(cd "$root" && cargo test -q $test -- --list 2>/dev/null | grep -c ': test$' || true)
        if [ "$n" -eq 0 ]; then
            echo "$file: cargo test $test selects no test"
            bad=1
        fi
    done < <(rows | sort -t$'\t' -k4,4 -u)
    [ "$bad" -eq 0 ] && echo "mutants: $(rows | wc -l) patterns, each found once and tested"
    return "$bad"
}

run() {
    local dir=${1:-$(mktemp -d)} copy status=0 file pattern replacement test
    check
    mkdir -p "$dir"
    copy="$dir/tree"
    rm -rf "$copy"
    mkdir -p "$copy"
    (cd "$root" && git ls-files -z -co --exclude-standard | xargs -0 tar -cf -) | tar -xf - -C "$copy"
    export CARGO_TARGET_DIR="$dir/target"
    while IFS=$'\t' read -r file pattern replacement test; do
        # shellcheck disable=SC2086 # the test column is an argument list
        if ! (cd "$copy" && cargo test -q $test >/dev/null 2>&1); then
            echo "FAILS UNMUTATED: cargo test $test"
            status=1
        fi
    done < <(rows | sort -t$'\t' -k4,4 -u)
    [ "$status" -eq 0 ] || return "$status"
    while IFS=$'\t' read -r file pattern replacement test; do
        sed -i "s/$(sed_pattern "$pattern")/$(sed_replacement "$replacement")/" "$copy/$file"
        # shellcheck disable=SC2086
        if ! (cd "$copy" && cargo test -q --no-run $test >/dev/null 2>&1); then
            echo "DOES NOT BUILD: $file: $replacement"
            status=1
        elif (cd "$copy" && cargo test -q $test >/dev/null 2>&1); then
            echo "SURVIVED: $file: $pattern -> $replacement (cargo test $test)"
            status=1
        else
            echo "killed: $file: $replacement (cargo test $test)"
        fi
        cp "$root/$file" "$copy/$file"
    done < <(rows)
    return "$status"
}

case "${1:-}" in
    check) check ;;
    run) run "${2:-}" ;;
    *)
        echo "usage: $0 check | run [DIR]" >&2
        exit 2
        ;;
esac
