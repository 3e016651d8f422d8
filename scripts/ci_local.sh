#!/usr/bin/env bash
#
# Local dry-run of .github/workflows/ci.yml for machines without `act`.
#
# Reproduces each job's steps with whatever the host provides, skipping
# matrix entries whose toolchain is missing (e.g. no clang) instead of
# failing, and reports a per-job summary. The workflow file itself is
# syntax-checked first so an edit that breaks the YAML fails here too.
#
# Usage: scripts/ci_local.sh
#
# Environment:
#   CI_LOCAL_JOBS  space-separated subset of jobs to run
#                  (default: "build-test sanitize-lint bench-smoke")

set -uo pipefail
cd "$(dirname "$0")/.." || exit 1

JOBS="${CI_LOCAL_JOBS:-build-test sanitize-lint bench-smoke}"

pass=()
skip=()
fail=()

note() { printf '\n=== ci_local: %s ===\n' "$*"; }

# --- workflow syntax check -------------------------------------------------
note "validating .github/workflows/ci.yml"
if command -v python3 >/dev/null && python3 -c 'import yaml' 2>/dev/null;
then
    python3 - <<'EOF' || exit 1
import yaml
doc = yaml.safe_load(open(".github/workflows/ci.yml"))
jobs = doc.get("jobs", {})
assert jobs, "workflow has no jobs"
for name, job in jobs.items():
    assert job.get("steps"), f"job {name} has no steps"
print(f"ci.yml OK: jobs = {', '.join(jobs)}")
EOF
else
    echo "pyyaml unavailable; skipping workflow syntax check"
fi

# --- job: build-test -------------------------------------------------------
if [[ " ${JOBS} " == *" build-test "* ]]; then
    for compiler in gcc clang; do
        cc=${compiler}
        if [[ ${compiler} == gcc ]]; then cxx=g++; else cxx=clang++; fi
        if ! command -v "${cxx}" >/dev/null; then
            note "build-test/${compiler}: ${cxx} not installed -- SKIP"
            skip+=("build-test/${compiler}")
            continue
        fi
        launcher=()
        command -v ccache >/dev/null &&
            launcher=(-DCMAKE_C_COMPILER_LAUNCHER=ccache
                      -DCMAKE_CXX_COMPILER_LAUNCHER=ccache)
        for build_type in Debug RelWithDebInfo; do
            name="build-test/${compiler}/${build_type}"
            note "${name}"
            dir="build-ci-${compiler}-${build_type}"
            if CC=${cc} CXX=${cxx} cmake -B "${dir}" -S . \
                   -DCMAKE_BUILD_TYPE="${build_type}" \
                   -DNOVA_WERROR=ON "${launcher[@]}" &&
               cmake --build "${dir}" -j "$(nproc)" &&
               ctest --test-dir "${dir}" --output-on-failure \
                   -j "$(nproc)"; then
                pass+=("${name}")
            else
                fail+=("${name}")
            fi
        done
    done
fi

# --- job: sanitize-lint ----------------------------------------------------
if [[ " ${JOBS} " == *" sanitize-lint "* ]]; then
    note "sanitize-lint: scripts/check.sh"
    if bash scripts/check.sh; then
        note "sanitize-lint: novalint tree scan"
        if cmake --build build-rel --target novalint -j "$(nproc)" &&
           ./build-rel/tools/novalint/novalint src tools bench examples; then
            pass+=("sanitize-lint")
        else
            fail+=("sanitize-lint")
        fi
    else
        fail+=("sanitize-lint")
    fi
fi

# --- job: bench-smoke ------------------------------------------------------
# perfbench builds src/ through its own CMake project.
if [[ " ${JOBS} " == *" bench-smoke "* ]]; then
    note "bench-smoke: perfbench self-tests"
    if cmake -S perfbench -B .bench_build/perfbench \
           -DCMAKE_BUILD_TYPE=RelWithDebInfo &&
       cmake --build .bench_build/perfbench -j "$(nproc)" &&
       ctest --test-dir .bench_build/perfbench --output-on-failure; then
        pass+=("bench-smoke")
    else
        fail+=("bench-smoke")
    fi
fi

# --- summary ---------------------------------------------------------------
note "summary"
printf 'passed:  %s\n' "${pass[*]:-none}"
printf 'skipped: %s\n' "${skip[*]:-none}"
printf 'failed:  %s\n' "${fail[*]:-none}"
[[ ${#fail[@]} -eq 0 ]] || exit 1
echo CI_LOCAL_OK
