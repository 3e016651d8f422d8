#!/usr/bin/env bash
#
# One-command correctness gate (docs/STATIC_ANALYSIS.md):
#
#   1. Debug + AddressSanitizer/UBSan build with -Werror; full ctest
#      (unit tests, novalint tree scan, verify-smoke differential fuzz)
#      — any sanitizer report is fatal (-fno-sanitize-recover).
#   2. Release (RelWithDebInfo) build with -Werror; full ctest.
#   2c. ThreadSanitizer build running the parallel-scheduler battery
#      and a --cross-sched differential smoke (docs/PARALLEL.md).
#   3. clang-tidy over the changed-most sources when available
#      (opt-in: CHECK_CLANG_TIDY=1).
#
# Usage: scripts/check.sh [jobs]

set -euo pipefail
cd "$(dirname "$0")/.." || exit 1

JOBS="${1:-$(nproc 2>/dev/null || echo 4)}"

# 0. Shell hygiene: every script under scripts/ must pass shellcheck.
#    Skipped (with a notice) where shellcheck is not installed; CI
#    always installs it, so the gate cannot rot silently.
if command -v shellcheck >/dev/null; then
    echo "=== shellcheck scripts/*.sh ==="
    shellcheck scripts/*.sh
else
    echo "check.sh: shellcheck not installed; skipping shell lint" >&2
fi

run_config() {
    local dir="$1"; shift
    echo "=== configure ${dir} ($*) ==="
    cmake -B "${dir}" -S . -DNOVA_WERROR=ON "$@" >/dev/null
    echo "=== build ${dir} ==="
    cmake --build "${dir}" -j "${JOBS}"
    echo "=== ctest ${dir} ==="
    ctest --test-dir "${dir}" --output-on-failure -j "${JOBS}"
}

# 1. Sanitized debug gate: memory safety + UB + determinism under ASan.
run_config build-san -DCMAKE_BUILD_TYPE=Debug \
    -DNOVA_SANITIZE=address,undefined

# 2. Optimized gate: the configuration benchmarks and users run.
run_config build-rel -DCMAKE_BUILD_TYPE=RelWithDebInfo

# 2b. Fault-injection soak (docs/RESILIENCE.md): differential fuzz with
#     the full hardware fault schedule armed, several seeds, under the
#     sanitized build — recovery paths must be memory-safe and the
#     engines must still agree on every case.
SOAK_FAULTS='dram.bitflip:every=40+dram.txn:every=50+cache.ecc:every=35'
SOAK_FAULTS+='+noc.drop:every=30+noc.corrupt:every=45+noc.dup:every=55'
SOAK_FAULTS+='+spill.corrupt:every=5+reduce.bitflip:every=25'
echo "=== fault-injection soak (sanitized build) ==="
for seed in 3 17 91; do
    ./build-san/tools/nova_cli verify --fuzz=10 --seed="${seed}" \
        --faults="${SOAK_FAULTS}"
done

# 2c. ThreadSanitizer gate: the conservative-PDES scheduler's worker
#     pool, mailboxes and sharded fabric under TSan. Runs the dedicated
#     parallel battery (multi-thread inside each test), the golden
#     matrix (its 2-thread sharded cells drive the event slab, in-place
#     dispatch and mailbox events of the full model) and a sharded
#     differential smoke rather than the full suite — TSan slows the
#     serial tests ~10x without adding thread coverage there.
echo "=== configure build-tsan (ThreadSanitizer) ==="
cmake -B build-tsan -S . -DNOVA_WERROR=ON \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo -DNOVA_SANITIZE=thread >/dev/null
echo "=== build build-tsan ==="
cmake --build build-tsan -j "${JOBS}"
echo "=== TSan: parallel-scheduler battery and golden matrix ==="
./build-tsan/tests/nova_tests --gtest_filter='Parallel*:Matrix/Golden.*'
echo "=== TSan: cross-sched differential smoke ==="
./build-tsan/tools/nova_cli verify --fuzz=6 --seed=7 --engines=nova \
    --cross-sched=4

# 3. Optional clang-tidy pass (mirrors the novalint rules natively
#    expressible in clang-tidy; see .clang-tidy).
if [[ "${CHECK_CLANG_TIDY:-0}" == "1" ]] && command -v clang-tidy >/dev/null
then
    echo "=== clang-tidy ==="
    cmake -B build-rel -S . -DCMAKE_EXPORT_COMPILE_COMMANDS=ON >/dev/null
    git ls-files 'src/**/*.cc' 'tools/**/*.cc' |
        xargs -P "${JOBS}" -n 1 clang-tidy -p build-rel --quiet
fi

echo "check.sh: all gates passed"
