#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --workload all ...   # every workload in turn
    python3 perfbench/run.py compare <base-report.json> <new-report.json>

Run from the repository root. The benchmark binary is built in release
mode (into $CARGO_TARGET_DIR, default perfbench/target) and run with its
standard output discarded: the experiment service prints every job's
figures there. The binary writes its one-line JSON result to a file,
which this script prints as the last line of its own standard output,
and its full report (run context, deterministic counters, failed
checks) to .bench_work/reports/. The exit code is the binary's: 0 when
every output check passed.
"""

import json
import os
import subprocess
import sys

ROOT = os.getcwd()
MANIFEST = os.path.join("perfbench", "Cargo.toml")
WORK = ".bench_work"
TIMEOUT_S = 170


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def build():
    if not os.path.isfile(os.path.join(ROOT, "Cargo.toml")) or not os.path.isdir(
        os.path.join(ROOT, "crates")
    ):
        fail("run from the repository root: the workspace sources are missing")
    cmd = ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", MANIFEST]
    done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
    if done.returncode != 0:
        fail("build failed")
    target = os.environ.get("CARGO_TARGET_DIR") or os.path.join("perfbench", "target")
    binary = os.path.join(target, "release", "perfbench")
    if not os.path.isfile(binary):
        fail(f"built binary not found at {binary}")
    return binary


def flag(args, name):
    if name in args:
        i = args.index(name)
        if i + 1 < len(args):
            return args[i + 1]
    return None


def main(args):
    binary = build()
    if args[:1] == ["compare"]:
        return subprocess.run([binary] + args, timeout=TIMEOUT_S).returncode
    if flag(args, "--workload") == "all":
        with open("BENCHMARK.json") as f:
            names = [w["name"] for w in json.load(f)["workloads"]]
        i = args.index("--workload") + 1
        return max(measure(binary, args[:i] + [name] + args[i + 1 :]) for name in names)
    return measure(binary, args)


def measure(binary, args):
    reports = os.path.join(WORK, "reports")
    os.makedirs(reports, exist_ok=True)
    tag = f"{flag(args, '--workload')}-seed{flag(args, '--seed')}-trace{flag(args, '--trace')}"
    result = os.path.join(reports, f"{tag}.result")
    report = os.path.join(reports, f"{tag}.json")
    if os.path.exists(result):
        os.remove(result)
    # The binary compares its deterministic counters with the previous
    # report of the same seed, then overwrites it.
    cmd = [binary] + args + ["--result", result, "--report", report]
    try:
        code = subprocess.run(
            cmd, stdout=subprocess.DEVNULL, stderr=sys.stderr, timeout=TIMEOUT_S
        ).returncode
    except subprocess.TimeoutExpired:
        fail(f"benchmark exceeded {TIMEOUT_S} s")
    if not os.path.isfile(result):
        fail(f"benchmark exited with code {code} without a result")
    with open(result) as f:
        line = f.read().strip()
    print(line, flush=True)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
