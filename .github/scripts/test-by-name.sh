#!/usr/bin/env bash
# Runs `cargo test "$@"` and fails unless it passes and runs at least one
# test. A name filter that matches nothing (a test renamed or deleted)
# runs zero tests, which cargo reports as a pass.
#
#   .github/scripts/test-by-name.sh --release -p fmeter-ml --lib kmeans::oracle
set -euo pipefail
log=$(mktemp)
trap 'rm -f "$log"' EXIT
cargo test "$@" 2>&1 | tee "$log"
passed=$(sed -n 's/^test result: ok\. \([0-9]*\) passed.*/\1/p' "$log" | awk '{ n += $1 } END { print n + 0 }')
if [ "$passed" -lt 1 ]; then
    echo "error: \`cargo test $*\` ran no test" >&2
    exit 1
fi
