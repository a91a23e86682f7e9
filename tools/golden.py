#!/usr/bin/env python3
"""Golden runs: the simulated output of a fixed run set, compared exactly.

Each run executes one program of a build with fixed flags, in a fresh
directory where `examples` and `tests` link to the source tree, and is
recorded in tests/golden/<run>.txt as:

  - the command line and the exit status;
  - the stdout;
  - the sorted sim-only snapshot of --metrics-out: names with a `wall`
    or `impl` segment read the host (clocks, job counts, heap shapes)
    and are dropped;
  - the SHA-256 of --series-out and --pcap-out.

The simulator is seeded and single-threaded per trial, so a record
reproduces byte for byte on any host and at any --jobs value. A check
passes only on an exact match: there is no tolerance. On a mismatch it
prints the first differing metric names with their old and new values,
then a diff of the rest of the record.

  tools/golden.py --build-dir build               check every run
  tools/golden.py --build-dir build --run NAME    check one (ctest Golden.NAME)
  tools/golden.py --build-dir build --update      rewrite the corpus
  tools/golden.py --list                          print the run names

A change that moves output on purpose commits the rewritten files and
names each changed metric, with its cause, in CHANGES.md.

Standard library only.
"""
import argparse
import difflib
import hashlib
import json
import os
import subprocess
import sys
import tempfile

SOURCE_DIR = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
CORPUS_DIR = os.path.join(SOURCE_DIR, "tests", "golden")

OSNT_RUN = "tools/osnt_run"
METRICS = ["--metrics-out", "metrics.json"]
SERIES = ["--series-out", "series.json"]
# Flags whose value names an output file the record digests or snapshots.
DIGESTED = ("--series-out", "--pcap-out")

TOPOLOGIES = ["amplification_ddos", "carrier_policer", "dumbbell10",
              "ecmp_fanout", "shaper", "switched", "syn_burst"]
DUTS = ["none", "legacy", "lossy"]
CCS = ["newreno", "cubic", "bbr"]
OFLOPS_MODULES = ["echo", "packet_in", "packet_out", "flowmod", "action",
                  "consistency", "stats_poll", "queue_delay", "interaction"]
CTRL_PLANS = ["examples/faults/ctrl_disconnect.json",
              "tests/data/ctrl_outage_60us.json",
              "tests/data/ctrl_outage_early.json",
              "tests/data/ctrl_outage_100ms.json",
              "tests/data/ctrl_outage_forever.json"]


def topo(path, *flags):
    return [OSNT_RUN, "topo", path, "--trials", "3", "--jobs", "2",
            *flags, *METRICS, *SERIES]


def stem(path):
    return os.path.splitext(os.path.basename(path))[0]


def runs():
    """The run set: name -> argv, the program relative to the build."""
    r = {}
    for t in TOPOLOGIES:
        r["topo." + t] = topo(f"examples/topologies/{t}.json")
    for plan in ["policer_squeeze", "diurnal_policer"]:
        r["topo.carrier_policer." + plan] = topo(
            "examples/topologies/carrier_policer.json", "--faults",
            f"examples/faults/{plan}.json")
    r["topo.dumbbell10.chaos_latency"] = topo(
        "examples/topologies/dumbbell10.json", "--faults",
        "examples/faults/chaos_latency.json")
    r["topo.every_queue.every_fault"] = topo(
        "tests/data/every_queue.json", "--faults",
        "tests/data/every_fault.json")
    for d in DUTS:
        r["latency." + d] = [OSNT_RUN, "latency", "--dut", d, *METRICS,
                             *SERIES]
    for d in DUTS:
        r["throughput." + d] = [OSNT_RUN, "throughput", "--dut", d, "--jobs",
                                "4", *METRICS]
    for cc in CCS:
        r["tcp." + cc] = [OSNT_RUN, "tcp", "--cc", cc, *METRICS, *SERIES]
    r["tcp.ber_tcp"] = [OSNT_RUN, "tcp", "--cc", "bbr", "--flows", "8",
                        "--faults", "examples/faults/ber_tcp.json",
                        "--trials", "4", "--jobs", "4", *METRICS, *SERIES]
    r["tcp.flows_100k"] = [OSNT_RUN, "tcp", "--flows", "100000",
                           "--duration-ms", "1", *METRICS]
    r["capture.flows_1000"] = [OSNT_RUN, "capture", "--flows", "1000",
                               "--pcap-out", "capture.pcap", *METRICS]
    for m in OFLOPS_MODULES:
        r["oflops." + m] = [OSNT_RUN, "oflops", "--module", m]
    for plan in CTRL_PLANS:
        for m in OFLOPS_MODULES:
            r[f"oflops.{stem(plan)}.{m}"] = [OSNT_RUN, "oflops", "--module",
                                             m, "--faults", plan]
    r["fleet"] = [OSNT_RUN, "fleet"]
    for b in ["latency_legacy", "throughput", "oflops_flowmod",
              "consistency", "jitter_fidelity"]:
        r["bench." + b] = ["bench/bench_" + b]
    for e in ["fleet", "multi_card", "legacy_switch_test"]:
        r["example." + e] = ["examples/" + e]
    return r


def sim_only(name):
    return not ({"wall", "impl"} & set(name.split(".")))


def metric_lines(path):
    with open(path, encoding="utf-8") as f:
        snapshot = json.load(f)
    lines = []
    for family in sorted(snapshot):
        for name, value in snapshot[family].items():
            if sim_only(name):
                lines.append(f"{family}.{name} = "
                             f"{json.dumps(value, sort_keys=True)}")
    return sorted(lines)


def sha256(path):
    with open(path, "rb") as f:
        return hashlib.sha256(f.read()).hexdigest()


def record(build_dir, argv):
    """Run argv in a scratch directory; return the record's text."""
    with tempfile.TemporaryDirectory(prefix="golden-") as work:
        for d in ("examples", "tests"):
            os.symlink(os.path.join(SOURCE_DIR, d), os.path.join(work, d))
        exe = os.path.join(os.path.abspath(build_dir), argv[0])
        proc = subprocess.run([exe, *argv[1:]], cwd=work,
                              stdout=subprocess.PIPE,
                              stderr=subprocess.DEVNULL, check=False)
        out = [f"command: {' '.join(argv)}",
               f"exit: {proc.returncode}",
               "--- stdout",
               proc.stdout.decode("utf-8", "replace").rstrip("\n")]
        for flag, value in zip(argv, argv[1:]):
            path = os.path.join(work, value)
            if flag == "--metrics-out":
                out.append(f"--- {value} (sim-only names, sorted)")
                out += (metric_lines(path) if os.path.exists(path)
                        else ["(not written)"])
            elif flag in DIGESTED:
                digest = sha256(path) if os.path.exists(path) else "missing"
                out.append(f"--- {value} sha256 {digest}")
        return "\n".join(out) + "\n"


def split(text):
    """A record's metric lines as name -> value, and its other lines."""
    metrics, rest = {}, []
    in_metrics = False
    for line in text.splitlines():
        if line.startswith("--- "):
            in_metrics = "(sim-only names, sorted)" in line
        if in_metrics and " = " in line:
            name, value = line.split(" = ", 1)
            metrics[name] = value
        else:
            rest.append(line)
    return metrics, rest


def report_mismatch(name, want, got, limit=10):
    print(f"Golden.{name}: output differs from tests/golden/{name}.txt")
    (old, old_rest), (new, new_rest) = split(want), split(got)
    changed = [n for n in sorted(set(old) | set(new))
               if old.get(n) != new.get(n)]
    for n in changed[:limit]:
        print(f"  {n}: {old.get(n, '(absent)')} -> {new.get(n, '(absent)')}")
    if len(changed) > limit:
        print(f"  ... and {len(changed) - limit} more metric names")
    diff = list(difflib.unified_diff(old_rest, new_rest, "golden", "now",
                                     lineterm="", n=1))
    for line in diff[:60]:
        print("  " + line)
    if len(diff) > 60:
        print(f"  ... {len(diff) - 60} more diff lines")


def check(build_dir, name, argv):
    path = os.path.join(CORPUS_DIR, name + ".txt")
    if not os.path.exists(path):
        print(f"Golden.{name}: no tests/golden/{name}.txt "
              "(record it with tools/golden.py --update)")
        return False
    with open(path, encoding="utf-8") as f:
        want = f.read()
    got = record(build_dir, argv)
    if got == want:
        return True
    report_mismatch(name, want, got)
    return False


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--build-dir", default=os.path.join(SOURCE_DIR, "build"))
    ap.add_argument("--run", action="append", metavar="NAME",
                    help="check (or update) only this run; repeatable")
    ap.add_argument("--update", action="store_true",
                    help="rewrite the corpus from this build")
    ap.add_argument("--list", action="store_true",
                    help="print the run names, one a line")
    args = ap.parse_args()

    table = runs()
    if args.list:
        print("\n".join(table))
        return 0
    names = args.run or list(table)
    unknown = [n for n in names if n not in table]
    if unknown:
        print(f"unknown run(s): {', '.join(unknown)}", file=sys.stderr)
        return 2
    if args.update:
        os.makedirs(CORPUS_DIR, exist_ok=True)
        for n in names:
            with open(os.path.join(CORPUS_DIR, n + ".txt"), "w",
                      encoding="utf-8") as f:
                f.write(record(args.build_dir, table[n]))
        print(f"wrote {len(names)} golden record(s) to {CORPUS_DIR}")
        return 0
    failed = [n for n in names if not check(args.build_dir, n, table[n])]
    print(f"{len(names) - len(failed)}/{len(names)} golden runs match")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
