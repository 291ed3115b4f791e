#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics.

Usage, from the repository root:

    python3 perfbench/run.py --workload serve_mixed --seed 1 --seconds 20 --trace 0

Builds the OCaml worker (perfbench/spanbench.ml) and the daemon with
dune, runs the workload in a fresh process, prints a table of every
metric with its unit, better direction and sample count, and ends with
one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics of BENCHMARK.json, --trace 1
the per-layer ones (layers a workload bypasses read 0). The tail
percentile of latency_ms_tail is fixed per workload in BENCHMARK.json
("tail pNN" in its why). Exits non-zero if the build fails, an output
is wrong, or spanner_ratio exceeds 0.95.
"""

import argparse
import json
import os
import re
import signal
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKER = os.path.join("_build", "default", "perfbench", "spanbench.exe")
DAEMON = os.path.join("_build", "default", "bin", "spannerd.exe")
TMP = os.path.join("_build", "perfbench-tmp")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def die(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def build():
    env = dict(os.environ, DUNE_CACHE="disabled")
    cmd = ["dune", "build", "--root", ".", "./perfbench/spanbench.exe", "./bin/spannerd.exe"]
    try:
        p = subprocess.run(cmd, cwd=ROOT, env=env, timeout=BUILD_TIMEOUT_S,
                           stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
    except (OSError, subprocess.TimeoutExpired) as e:
        die("build failed: %s" % e)
    if p.returncode != 0:
        sys.stderr.write(p.stdout[-4000:])
        die("build failed")


def kill_group(pgid):
    """SIGKILL the worker's process group (the worker and any daemon it
    spawned) and wait until none of it is left."""
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        return
    for _ in range(500):
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.01)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    workloads = {w["name"]: w for w in spec["workloads"]}
    if args.workload not in workloads:
        die("unknown workload %r (have %s)" % (args.workload, ", ".join(workloads)))
    tail = re.search(r"tail p(\d+)", workloads[args.workload]["why"])
    if not tail:
        die("BENCHMARK.json: no 'tail pNN' in the why of " + args.workload)
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    build()
    os.makedirs(os.path.join(ROOT, TMP), exist_ok=True)
    cmd = [os.path.join(ROOT, WORKER),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--tail", tail.group(1),
           "--spannerd", os.path.join(ROOT, DAEMON), "--tmp", os.path.join(ROOT, TMP)]
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        kill_group(proc.pid)
        proc.wait()
        die("workload timed out")
    finally:
        kill_group(proc.pid)
    lines = out.strip().splitlines()
    if not lines:
        die("worker exited %d without a result" % proc.returncode)
    try:
        raw = json.loads(lines[-1])
    except ValueError:
        die("worker printed no result line")

    metrics, missing = {}, []
    print("%-40s %16s  %-6s %-7s %s" % ("metric", "value", "unit", "better", "samples"))
    for m in wanted:
        name = m["name"]
        if name in raw["metrics"]:
            value, note = raw["metrics"][name], raw["samples"].get(name, "")
        elif args.trace:
            value, note = 0.0, "(layer bypassed)"
        else:
            missing.append(name)
            continue
        if isinstance(note, int):
            note = "n=%d" % note if name.endswith("_p10") else "%d beyond" % note
        metrics[name] = {"value": value, "unit": m["unit"]}
        print("%-40s %16.6g  %-6s %-7s %s" % (name, value, m["unit"], m["better"], note))
    extra = sorted(set(raw["metrics"]) - {m["name"] for m in wanted})
    if missing or extra:
        die("metric set differs from BENCHMARK.json: missing %s, extra %s" % (missing, extra))

    print(json.dumps({"correct": raw["correct"], "attempted": raw["attempted"],
                      "failed": raw["failed"], "metrics": metrics}))
    sys.exit(0 if proc.returncode == 0 and raw["correct"] else 1)


if __name__ == "__main__":
    main()
