#!/usr/bin/env python3
"""Builds and runs the repository benchmark (see README.md in this directory).

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is pub_fanout, sub_cover or sub_flood, or `all` to run each in turn.

Builds psc_perfbench and psc_brokerd from the repository's sources into
.bench_build/ (or $CARGO_TARGET_DIR) at the repository root, runs one
workload, passes psc_perfbench's report through, and ends with one JSON line
holding the metrics BENCHMARK.json names for the chosen mode: end_to_end
with --trace 0, per_layer with --trace 1. Exits 1 when the correctness check
fails, 2 when the build or the run cannot complete.
"""
import argparse
import json
import os
import signal
import subprocess
import sys
import threading
import time

WORKLOADS = ("pub_fanout", "sub_cover", "sub_flood")
HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170.0


def log(message):
    print(f"run.py: {message}", file=sys.stderr, flush=True)


def build(build_root):
    """Configures once, then builds the two targets; returns the binary dir."""
    build_dir = os.path.join(build_root, "cmake")
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"],
            check=True, stdout=sys.stderr, stderr=sys.stderr)
    jobs = str(max(1, min(os.cpu_count() or 1, 4)))
    subprocess.run(
        ["cmake", "--build", build_dir, "-j", jobs,
         "--target", "psc_perfbench", "psc_brokerd"],
        check=True, stdout=sys.stderr, stderr=sys.stderr)
    return build_dir


def stop_group(child):
    """Kills whatever is left of psc_perfbench's process group and waits for it."""
    try:
        os.killpg(child.pid, signal.SIGKILL)
    except ProcessLookupError:
        return
    child.wait()
    deadline = time.monotonic() + 10.0
    while time.monotonic() < deadline:
        try:
            os.killpg(child.pid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.05)


def run_perfbench(binary_dir, args, spans_dir):
    """Runs psc_perfbench, echoing its report; returns (exit code, last line)."""
    command = [
        os.path.join(binary_dir, "psc_perfbench"),
        f"--workload={args.workload}", f"--seed={args.seed}",
        f"--seconds={args.seconds}", f"--trace={args.trace}",
        f"--brokerd={os.path.join(binary_dir, 'psc_brokerd')}",
        f"--spans-dir={spans_dir}",
    ]
    # Its own process group, so the brokers it forks can be reaped with it,
    # also when this script is told to stop.
    child = subprocess.Popen(command, stdout=subprocess.PIPE, text=True,
                             start_new_session=True)

    def terminate(signum, _frame):
        stop_group(child)
        sys.exit(128 + signum)

    signal.signal(signal.SIGTERM, terminate)
    signal.signal(signal.SIGINT, terminate)
    expired = threading.Event()

    def expire():
        expired.set()
        stop_group(child)

    watchdog = threading.Timer(RUN_TIMEOUT_S, expire)
    watchdog.start()
    last = ""
    try:
        for line in child.stdout:
            if last:
                print(last, flush=True)
            last = line.rstrip("\n")
        code = child.wait()
    finally:
        watchdog.cancel()
        stop_group(child)
        signal.signal(signal.SIGTERM, signal.SIG_DFL)
        signal.signal(signal.SIGINT, signal.SIG_DFL)
    if expired.is_set():
        log(f"psc_perfbench exceeded {RUN_TIMEOUT_S:.0f} s")
        return None, last
    return code, last


def run_workload(binary_dir, build_root, args, wanted):
    """Runs one workload and prints its result line; returns the exit code."""
    code, last = run_perfbench(binary_dir, args, os.path.join(build_root, "spans"))
    if code not in (0, 1):
        if last:
            print(last, flush=True)
        log(f"psc_perfbench failed (exit {code})")
        return 2
    try:
        result = json.loads(last)
    except json.JSONDecodeError:
        log("psc_perfbench printed no result line")
        return 2

    metrics = {}
    for entry in wanted:
        got = result["metrics"].get(entry["name"])
        if got is None:
            log(f"metric {entry['name']} missing from psc_perfbench's result")
            return 2
        if got["unit"] != entry["unit"]:
            log(f"metric {entry['name']} has unit {got['unit']}, expected {entry['unit']}")
            return 2
        metrics[entry["name"]] = {"value": got["value"], "unit": got["unit"]}
    print(json.dumps({"correct": bool(result["correct"]) and code == 0,
                      "attempted": int(result["attempted"]),
                      "failed": int(result["failed"]),
                      "metrics": metrics}), flush=True)
    return 0 if code == 0 and result["correct"] else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as spec_file:
        spec = json.load(spec_file)
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    build_root = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    try:
        binary_dir = build(build_root)
    except (OSError, subprocess.CalledProcessError) as error:
        log(f"build failed: {error}")
        return 2

    if args.workload != "all":
        return run_workload(binary_dir, build_root, args, wanted)
    worst = 0
    for workload in WORKLOADS:
        args.workload = workload
        worst = max(worst, run_workload(binary_dir, build_root, args, wanted))
    return worst


if __name__ == "__main__":
    sys.exit(main())
