#!/usr/bin/env python3
"""Scenario benchmark runner.

Builds scenbench/ (and with it the osnt library from src/) in Release
into .bench_build/ at the repository root, then runs one workload:

  python3 scenbench/run.py --workload burst64 --seed 1 --seconds 30 --trace 0

--trace 0 prints the end-to-end metrics, --trace 1 the per-layer metrics.
The last line of stdout is the result object
{"correct", "attempted", "failed", "metrics"}; the exit code is 0 only
when every trial passed its correctness checks.

  python3 scenbench/run.py --self-check

runs every workload named in BENCHMARK.json briefly in both modes and
checks that each named metric is printed with its unit, that names are
well formed, and that the traced and untraced snapshots agree.
"""

import argparse
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SOURCE = ROOT / "scenbench"
BUILD = ROOT / ".bench_build" / "scenbench"
EXE = BUILD / "scenario_bench"
RUN_TIMEOUT_S = 170
NAME_RE = re.compile(r"[A-Za-z0-9_.-]+\Z")
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def log(msg):
    print(f"scenbench: {msg}", file=sys.stderr, flush=True)


def build():
    """Configure once, then let the build tool decide what is stale."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        log(f"no osnt sources at {ROOT / 'src'}; cannot build")
        return False
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    steps = []
    if not (BUILD / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(SOURCE), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD), "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            log("build failed: " + " ".join(cmd))
            return False
    return True


def run_bench(workload, seed, seconds, trace, smoke=False):
    """Run the binary; return (exit code, stdout lines, result or None)."""
    cmd = [str(EXE), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    if smoke:
        cmd.append("--smoke")
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"{workload}: no result within {RUN_TIMEOUT_S} s")
        return 1, [], None
    lines = proc.stdout.splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            pass
    if not isinstance(result, dict) or set(result) != RESULT_KEYS:
        log(f"{workload}: last stdout line is not a result object")
        return proc.returncode or 1, lines, None
    return proc.returncode, lines, result


def self_check():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    for w in spec["workloads"]:
        for trace, group in ((0, "end_to_end"), (1, "per_layer")):
            where = f"{w['name']} --trace {trace}"
            code, _, result = run_bench(w["name"], 1, 1, trace, smoke=True)
            if result is None:
                problems.append(f"{where}: no result (exit {code})")
                continue
            if code != 0 or result["correct"] is not True:
                problems.append(f"{where}: correctness checks failed")
            want = {m["name"]: m["unit"] for m in spec[group]}
            got = result["metrics"]
            for name, unit in want.items():
                if name not in got:
                    problems.append(f"{where}: {name} missing")
                elif got[name].get("unit") != unit:
                    problems.append(f"{where}: {name} unit "
                                    f"{got[name].get('unit')!r} != {unit!r}")
            for name, m in got.items():
                if name not in want:
                    problems.append(f"{where}: {name} not in BENCHMARK.json")
                if not NAME_RE.match(name):
                    problems.append(f"{where}: bad metric name {name!r}")
                value = m.get("value")
                if not isinstance(value, (int, float)) or not math.isfinite(value):
                    problems.append(f"{where}: {name} value {value!r}")
    for p in problems:
        print(f"FAIL {p}")
    print("self-check " + ("failed" if problems else "ok"))
    return 1 if problems else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-check", action="store_true")
    args = ap.parse_args()
    if not args.self_check and not args.workload:
        ap.error("--workload is required")
    if not build():
        return 1
    if args.self_check:
        return self_check()
    code, lines, result = run_bench(args.workload, args.seed, args.seconds,
                                    args.trace)
    if result is None:
        return 1
    print("\n".join(lines), flush=True)
    return code


if __name__ == "__main__":
    sys.exit(main())
