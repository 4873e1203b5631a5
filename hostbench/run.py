#!/usr/bin/env python3
"""Build and run the host-cost benchmark driver.

Run from the repository root:

    python3 hostbench/run.py --workload analyzed_inter --seed 1 --seconds 30 --trace 0

The first run configures and builds hostbench/ (the library stack from src/
plus the driver) into .bench_build/ (or $CARGO_TARGET_DIR when set); later
runs only re-check the build. Build output goes to stderr, so the last line
of stdout is the driver's result object. With --trace 0 the driver's
set-up is first repeated in four fresh processes (--setup-only), and
setup_s is the median of those and the measuring run's own set-up. --trace 1
also writes the driver's spans as a Chrome trace to
<build dir>/trace-<workload>-<seed>.json.

    python3 hostbench/run.py --record

re-measures every item's simulated outputs and rewrites the expected values
in hostbench/expected.json (only when a change to the simulated results is
intended).
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
TABLE = os.path.join(HERE, "expected.json")
EXPECTED_KEYS = ("latency_us", "critical_path_us", "events")
# setup_s is the median of this many cold set-ups, each in a fresh driver
# process: the measuring run's own and SETUP_ROUNDS - 1 --setup-only runs.
SETUP_ROUNDS = 5


def build(build_dir):
    """Configure (once) and build the driver; returns its path or None."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", build_dir, "--target", "hostbench",
                  "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            print("hostbench: build step failed: " + " ".join(cmd),
                  file=sys.stderr)
            return None
    return os.path.join(build_dir, "hostbench")


def record(binary):
    with open(TABLE) as f:
        table = json.load(f)
    for workload in table["workloads"]:
        out = subprocess.run([binary, "--workload", workload["name"],
                              "--table", TABLE, "--record"],
                             stdout=subprocess.PIPE, text=True, check=True)
        measured = {}
        for line in out.stdout.splitlines():
            row = json.loads(line)
            measured[row["id"]] = row
        for item in workload["items"]:
            row = measured[item["id"]]
            for key in EXPECTED_KEYS:
                if key in row:
                    item[key] = row[key]
    with open(TABLE, "w") as f:
        json.dump(table, f, indent=1)
        f.write("\n")
    return 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record", action="store_true")
    args = ap.parse_args()
    if not args.record and not args.workload:
        ap.error("--workload is required")

    build_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    binary = build(build_dir)
    if binary is None:
        return 1
    if args.record:
        return record(binary)
    base = [binary, "--workload", args.workload, "--table", TABLE]
    setups = []
    if not args.trace:
        for _ in range(SETUP_ROUNDS - 1):
            out = subprocess.run(base + ["--setup-only"],
                                 stdout=subprocess.PIPE, text=True)
            if out.returncode:
                return out.returncode
            setups.append(json.loads(out.stdout.splitlines()[-1])["setup_s"])
    cmd = base + ["--seed", str(args.seed), "--seconds", str(args.seconds),
                  "--trace", str(args.trace)]
    if args.trace:
        cmd += ["--trace-out", os.path.join(
            build_dir, "trace-%s-%d.json" % (args.workload, args.seed))]
    out = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    lines = out.stdout.splitlines()
    if out.returncode or not lines:
        sys.stdout.write(out.stdout)
        return out.returncode or 1
    result = json.loads(lines[-1])
    if setups:
        setup = result["metrics"]["setup_s"]
        setup["value"] = statistics.median(setups + [setup["value"]])
    for line in lines[:-1]:
        print(line)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
