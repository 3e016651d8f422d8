#!/usr/bin/env python3
"""Check that the benchmark repeats: two interleaved sets of one build.

    python3 perfbench/steadiness.py [--out FILE]

Runs perfbench/run.py --trace 0 for every workload of BENCHMARK.json, for
BENCHMARK.json's run_seconds, as two sets A and B of ten runs each. Run i
of both sets uses seed i, and the sets alternate run by run (A B, then
B A, ...), so slow phases of the host fall on both sets alike. For each
workload and end-to-end metric it prints both medians, their gap, each
set's quartiles and spread (quartile distance over median), and the
medians of the host.mem_probe_ms probe.

It fails (exit 1) when a gap exceeds the metric's bound, or when a spread
other than setup_s's does. setup_s is held to its gap alone: it exists to
catch work moved out of the timed passes into set-up, and such a move
shows in the gap between medians. A spread above a third of its bound is
flagged but does not fail.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUNS = 10  # per set; run i of each set uses seed i


def run_once(workload, seed, seconds):
    """One benchmark run: (JSON result, host.mem_probe_ms median)."""
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "0"]
    proc = subprocess.run(cmd, capture_output=True, text=True, check=False)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout + proc.stderr)
        raise RuntimeError(f"{workload} seed {seed}: exit {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        raise RuntimeError(f"{workload} seed {seed}: incorrect result")
    probe = next(float(l.split()[2]) for l in lines
                 if l.startswith("metric host.mem_probe_ms "))
    return result, probe


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", help="also write the report to this file")
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    workloads = [w["name"] for w in spec["workloads"]]
    seconds = spec["run_seconds"]
    metrics = spec["end_to_end"]

    log = []
    values = {(w, s): [] for w in workloads for s in "AB"}
    probes = {(w, s): [] for w in workloads for s in "AB"}
    start = time.time()
    for i in range(RUNS):
        seed = 1 + i
        for w in workloads:
            for s in ("AB" if i % 2 == 0 else "BA"):
                result, probe = run_once(w, seed, seconds)
                values[(w, s)].append(result["metrics"])
                probes[(w, s)].append(probe)
                line = (f"run {i} set {s} {w} seed {seed}: " + " ".join(
                    f"{m['name']}={result['metrics'][m['name']]['value']:.6g}"
                    for m in metrics) + f" probe_ms={probe:.4g}")
                log.append(line)
                print(line, file=sys.stderr, flush=True)

    report = [f"# steadiness: {RUNS} runs per set, seeds 1..{RUNS}, "
              f"{seconds:g} s per run, sets interleaved run by run, "
              f"{time.time() - start:.0f} s in total",
              "# gap = (median B - median A) / median A; spread = "
              "(q3 - q1) / median", ""]
    failed = []
    for w in workloads:
        pa = statistics.median(probes[(w, "A")])
        pb = statistics.median(probes[(w, "B")])
        report.append(f"{w}: host.mem_probe_ms median A {pa:.4g}, "
                      f"B {pb:.4g}")
        for m in metrics:
            name, bound = m["name"], m["bound"]
            a = [r[name]["value"] for r in values[(w, "A")]]
            b = [r[name]["value"] for r in values[(w, "B")]]
            ma, mb = statistics.median(a), statistics.median(b)
            qa = statistics.quantiles(a, n=4)
            qb = statistics.quantiles(b, n=4)
            gap = (mb - ma) / ma
            sa, sb = (qa[2] - qa[0]) / ma, (qb[2] - qb[0]) / mb
            notes = []
            if abs(gap) > bound:
                notes.append("GAP ABOVE BOUND")
                failed.append(f"{w} {name} gap")
            for label, spread in (("A", sa), ("B", sb)):
                if spread > bound and name != "setup_s":
                    notes.append(f"SPREAD {label} ABOVE BOUND")
                    failed.append(f"{w} {name} spread {label}")
                elif spread > bound / 3:
                    notes.append(f"spread {label} above bound/3")
            report.append(
                f"  {name:<12} {m['unit']:<4} median A {ma:<10.6g} "
                f"B {mb:<10.6g} gap {gap:+.2%} (bound {bound:.0%})  "
                f"A q1/q3 {qa[0]:.6g}/{qa[2]:.6g} spread {sa:.2%}  "
                f"B q1/q3 {qb[0]:.6g}/{qb[2]:.6g} spread {sb:.2%}"
                + ("  " + ", ".join(notes) if notes else ""))
        report.append("")
    report.append("FAIL: " + ", ".join(failed) if failed else "PASS")
    text = "\n".join(report) + "\n"
    sys.stdout.write(text)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as f:
            f.write(text + "\n# runs\n" + "\n".join(log) + "\n")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
