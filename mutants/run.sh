#!/bin/sh
# Mutation check over the bugs this repository once had.
#
# Each mutants/*.patch puts one historical bug back and names, in its
# header, the package and the unit test that must catch it:
#
#   Package: atlarge-des
#   Test: shard::tests::later_round_panics_end_every_worker
#
# This script copies the working tree (tracked and unignored files, no
# build output) into a temporary directory, checks that every named
# test passes there, and then, one patch at a time, applies the patch,
# builds the package's unit tests, runs the named test under `timeout`,
# and reverts the patch. An interleaving bug does not show on every
# run, so the named test runs up to five times and the mutant is caught
# by the first run that fails. The script exits 1 if a patch no longer
# applies, a mutant does not build, or a named test passes all five
# runs on its mutant.
#
# Run from anywhere inside the repository: sh mutants/run.sh

set -u
root=$(git rev-parse --show-toplevel) || exit 1
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT
mkdir "$work/tree"
git -C "$root" ls-files -z --cached --others --exclude-standard \
    | (cd "$root" && tar --null -T - --ignore-failed-read -cf -) \
    | tar -xf - -C "$work/tree" || exit 1
cd "$work/tree" || exit 1
export CARGO_TARGET_DIR="$work/target"

field() {
    sed -n "s/^$1: //p" "$2" | head -n 1
}

status=0
for patch in "$root"/mutants/*.patch; do
    name=$(basename "$patch" .patch)
    if ! cargo test --release -q -p "$(field Package "$patch")" --lib -- \
        --exact "$(field Test "$patch")" >/dev/null; then
        echo "$name: the named test fails without the mutant"
        status=1
    fi
done

for patch in "$root"/mutants/*.patch; do
    name=$(basename "$patch" .patch)
    package=$(field Package "$patch")
    test=$(field Test "$patch")
    if ! git apply "$patch"; then
        echo "$name: the patch no longer applies"
        status=1
        continue
    fi
    if ! cargo test --release -q -p "$package" --lib --no-run 2>/dev/null; then
        echo "$name: the mutant does not build"
        status=1
    else
        start=$(date +%s)
        caught=
        for run in 1 2 3 4 5; do
            if ! timeout 120 cargo test --release -q -p "$package" --lib -- --exact "$test" \
                >"$work/$name.log" 2>&1; then
                caught=$run
                break
            fi
        done
        if [ -z "$caught" ]; then
            echo "$name: SURVIVED, $test passed five runs"
            status=1
        else
            why=$(grep -A 1 'panicked at' "$work/$name.log" | tail -n 1)
            echo "$name: caught by $test on run $caught after $(($(date +%s) - start)) s: $why"
        fi
    fi
    git apply -R "$patch" || exit 1
done
exit $status
