#!/usr/bin/env bash
# Regenerate every table/figure into bench_output.txt.
#
# Each benchmark binary under build/bench runs in sequence; its output
# is appended to bench_output.txt. A binary that is missing or not
# executable is counted as skipped; a binary that exits non-zero is
# counted as failed and makes this script exit non-zero, so CI cannot
# silently lose benchmark coverage.
#
# Environment:
#   BUILD_DIR  build tree to scan [build]

set -euo pipefail
cd "$(dirname "$0")/.." || exit 1

BUILD="${BUILD_DIR:-build}"
OUT="bench_output.txt"

if [[ ! -d "${BUILD}/bench" ]]; then
    echo "run_benches.sh: ${BUILD}/bench does not exist -- build first" >&2
    exit 1
fi

ran=0
skipped=0
failed=0
failed_names=()

: > "${OUT}"
# Glob (not `ls`) so odd filenames cannot word-split; globs already
# expand in sorted order.
for b in "${BUILD}"/bench/*; do
    [[ -e "$b" ]] || continue
    name="$(basename "$b")"
    case "${name}" in
        *.cmake | CMakeFiles | cmake_install.cmake | Makefile) continue ;;
    esac
    if [[ ! -f "$b" || ! -x "$b" ]]; then
        skipped=$((skipped + 1))
        echo "run_benches.sh: skipping ${name} (not executable)" >&2
        continue
    fi
    # `|| status=$?` keeps set -e from aborting mid-suite: one broken
    # benchmark must not hide the results of the rest.
    status=0
    {
        echo "##### ${name}"
        "$b" 2>&1 || status=$?
        echo
    } >> "${OUT}"
    if [[ ${status} -ne 0 ]]; then
        failed=$((failed + 1))
        failed_names+=("${name} (exit ${status})")
        echo "run_benches.sh: FAILED ${name} (exit ${status})" >&2
    else
        ran=$((ran + 1))
    fi
done

echo "run_benches.sh: ${ran} ran, ${skipped} skipped, ${failed} failed"
if [[ ${failed} -ne 0 ]]; then
    printf 'run_benches.sh: failed: %s\n' "${failed_names[@]}" >&2
    exit 1
fi
echo BENCHES_DONE
