#!/usr/bin/env bash
#
# Local dry-run of .github/workflows/ci.yml for machines without `act`.
#
# Reproduces each job's steps with whatever the host provides, skipping
# matrix entries whose toolchain is missing (e.g. no clang) instead of
# failing, and reports a per-job summary. The workflow file itself is
# syntax-checked first so an edit that breaks the YAML fails here too.
#
# Usage: scripts/ci_local.sh [--quick]
#   --quick  use the small bench graphs (what you want on a laptop)
#
# Environment:
#   CI_LOCAL_JOBS  space-separated subset of jobs to run
#                  (default: "build-test sanitize-lint bench-smoke
#                             serving-gate")

set -uo pipefail
cd "$(dirname "$0")/.." || exit 1

QUICK=0
[[ "${1:-}" == "--quick" ]] && QUICK=1
JOBS="${CI_LOCAL_JOBS:-build-test sanitize-lint bench-smoke serving-gate}"

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
if [[ " ${JOBS} " == *" bench-smoke "* ]]; then
    note "bench-smoke"
    out="BENCH_5.ci.json"
    bench_ok=1
    BENCH_QUICK=${QUICK} scripts/bench_json.sh "${out}" || bench_ok=0
    if [[ ${bench_ok} == 1 ]]; then
        scripts/bench_compare.py --validate "${out}" || bench_ok=0
        scripts/bench_compare.py --self-test || bench_ok=0
        # perfbench builds src/ through its own CMake project.
        { cmake -S perfbench -B .bench_build/perfbench \
              -DCMAKE_BUILD_TYPE=RelWithDebInfo &&
          cmake --build .bench_build/perfbench -j "$(nproc)" &&
          ctest --test-dir .bench_build/perfbench --output-on-failure
        } || bench_ok=0
        if [[ ${QUICK} == 1 ]]; then
            echo "quick graphs: skipping baseline comparison" \
                 "(sizes differ from bench/baseline.json)"
        else
            scripts/bench_compare.py \
                --compare bench/baseline.json "${out}" \
                --threshold 0.15 || bench_ok=0
        fi
    fi
    # 8-thread speedup, gated only with real parallelism (as in CI).
    if [[ ${bench_ok} == 1 ]]; then
        out8="BENCH_5.t8.ci.json"
        BENCH_QUICK=${QUICK} BENCH_THREADS=8 \
            scripts/bench_json.sh "${out8}" || bench_ok=0
        if [[ ${bench_ok} == 1 ]]; then
            cores="$(nproc)"
            floor=0
            [[ ${cores} -ge 4 ]] && floor=1.2
            echo "8-thread speedup floor: ${floor}x (${cores} cores)"
            scripts/bench_compare.py --speedup "${out}" "${out8}" \
                --floor "${floor}" || bench_ok=0
        fi
    fi
    if [[ ${bench_ok} == 1 ]]; then
        pass+=("bench-smoke")
    else
        fail+=("bench-smoke")
    fi
fi

# --- job: serving-gate -------------------------------------------------------
if [[ " ${JOBS} " == *" serving-gate "* ]]; then
    note "serving-gate"
    serve_ok=1
    s1="BENCH_7.ci.json"
    s8="BENCH_7.t8.ci.json"
    scripts/serving_json.sh "${s1}" || serve_ok=0
    if [[ ${serve_ok} == 1 ]]; then
        SERVE_THREADS=8 scripts/serving_json.sh "${s8}" || serve_ok=0
    fi
    if [[ ${serve_ok} == 1 ]]; then
        if diff "${s1}" "${s8}"; then
            echo "serving reports bit-identical at 1 and 8 threads"
        else
            echo "serving reports DIVERGED between thread counts"
            serve_ok=0
        fi
        scripts/bench_compare.py --validate-serving "${s1}" || serve_ok=0
        scripts/bench_compare.py --self-test >/dev/null || serve_ok=0
        scripts/bench_compare.py \
            --compare-serving bench/serving_baseline.json "${s1}" \
            --threshold 0.15 || serve_ok=0
    fi
    if [[ ${serve_ok} == 1 ]]; then
        pass+=("serving-gate")
    else
        fail+=("serving-gate")
    fi
fi

# --- summary ---------------------------------------------------------------
note "summary"
printf 'passed:  %s\n' "${pass[*]:-none}"
printf 'skipped: %s\n' "${skip[*]:-none}"
printf 'failed:  %s\n' "${fail[*]:-none}"
[[ ${#fail[@]} -eq 0 ]] || exit 1
echo CI_LOCAL_OK
