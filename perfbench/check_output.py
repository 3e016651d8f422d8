#!/usr/bin/env python3
"""Tiny-scale run of one benchmark workload, its output parsed back.

    python3 perfbench/check_output.py <nova_perfbench binary> <workload>

Runs the workload for a warm-up pass and one pass per variant, untraced
and traced, at a tiny preset scale. Checks that every end-to-end (untraced) and every
per-layer (traced) metric of BENCHMARK.json is printed as a metric row
and in the JSON result line with the unit BENCHMARK.json gives, that the
traced run also prints the sharded-scheduler rows, that jobs_failed is
0, and that the traced run wrote a Chrome trace file (into the current
directory).
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
TINY_SCALE = "32000"
# Rows printed by every traced run but kept out of BENCHMARK.json: only
# the sharded workload moves them. sim.sched_speedup reads n/a elsewhere.
SHARDED_ROWS = {"noc.cross_gpn_messages": "count",
                "sim.sched_speedup": "ratio"}


def parse(stdout):
    """Metric rows (name -> (value text, unit)), jobs counters and the
    JSON result of one run."""
    lines = stdout.strip().splitlines()
    rows, counters = {}, {}
    for line in lines:
        parts = line.split()
        if len(parts) >= 4 and parts[0] == "metric":
            rows[parts[1]] = (parts[2], parts[3])
        elif len(parts) == 2 and parts[0] in ("jobs", "jobs_failed"):
            counters[parts[0]] = int(parts[1])
    return rows, counters, json.loads(lines[-1])


def is_number(text):
    try:
        float(text)
        return True
    except (TypeError, ValueError):
        return False


def check(binary, workload, trace, expected):
    cmd = [binary, "--workload", workload, "--seed", "3", "--seconds", "0",
           "--scale", TINY_SCALE, "--trace", str(trace)]
    trace_file = os.path.abspath(f"check-{workload}.trace.json")
    if trace:
        cmd += ["--trace-out", trace_file]
    proc = subprocess.run(cmd, capture_output=True, text=True, check=False,
                          timeout=170)
    sys.stdout.write(proc.stdout)
    sys.stderr.write(proc.stderr)
    errors = []
    if proc.returncode != 0:
        return [f"trace={trace}: exit code {proc.returncode}"]
    rows, counters, result = parse(proc.stdout)
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        errors.append(f"trace={trace}: result keys {sorted(result)}")
    if not result.get("correct") or result.get("failed") != 0:
        errors.append(f"trace={trace}: result not correct")
    if counters.get("jobs_failed") != 0 or counters.get("jobs", 0) < 1:
        errors.append(f"trace={trace}: jobs counters {counters}")
    if counters.get("jobs") != result.get("attempted"):
        errors.append(f"trace={trace}: jobs != attempted")
    metrics = result.get("metrics", {})
    if set(metrics) != {m["name"] for m in expected}:
        errors.append(f"trace={trace}: JSON metrics {sorted(metrics)}")
    for m in expected:
        value, unit = rows.get(m["name"], (None, None))
        if unit != m["unit"] or not is_number(value):
            errors.append(f"trace={trace}: row {m['name']} = "
                          f"{value!r} {unit!r}, want a number in "
                          f"{m['unit']!r}")
        got = metrics.get(m["name"], {})
        if got.get("unit") != m["unit"] or \
                not isinstance(got.get("value"), (int, float)):
            errors.append(f"trace={trace}: JSON {m['name']} = {got}")
    if trace:
        for name, unit in SHARDED_ROWS.items():
            value, got = rows.get(name, (None, None))
            na = name == "sim.sched_speedup" and workload != "sharded-4gpn"
            if got != unit or not (value == "n/a" if na else
                                   is_number(value)):
                errors.append(f"trace=1: row {name} = {value!r} {got!r}")
        try:
            with open(trace_file, encoding="utf-8") as f:
                events = json.load(f)["traceEvents"]
            names = {e["name"] for e in events}
            want = {"setup", "graph.build", "workloads.reference", "pass",
                    "core.run", "check"}
            if not want <= names:
                errors.append(f"trace file lacks spans {want - names}")
        except (OSError, ValueError, KeyError) as e:
            errors.append(f"trace file unreadable: {e}")
    return errors


def main():
    binary, workload = sys.argv[1], sys.argv[2]
    with open(os.path.join(HERE, "..", "BENCHMARK.json"),
              encoding="utf-8") as f:
        spec = json.load(f)
    errors = []
    errors += check(binary, workload, 0, spec["end_to_end"])
    errors += check(binary, workload, 1, spec["per_layer"])
    for e in errors:
        print("FAIL " + e)
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
