#!/usr/bin/env python3
"""Build and run the sciprep loader benchmark.

    python3 loadbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a source checkout. The first call configures and builds
loadbench/ (and the sciprep modules it drives) into $CARGO_TARGET_DIR, or
.bench_build when that is unset; later calls only rebuild what changed. The
last line of standard output is the benchmark's JSON result. The exit code is
non-zero when the build fails, when the run fails, or when any delivered
sample differs from its reference.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("cam-decode", "cosmo-decode", "wire-cached")
RUN_TIMEOUT_S = 170


def build(build_dir):
    """Configure (once) and build the benchmark; build output goes to stderr."""
    configured = any(os.path.exists(os.path.join(build_dir, f)) for f in ("build.ninja", "Makefile"))
    if not configured:
        cmd = ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr)
    subprocess.run(
        ["cmake", "--build", build_dir, "--target", "loadbench", "-j", "4"],
        check=True,
        stdout=sys.stderr,
    )
    return os.path.join(build_dir, "loadbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    args = parser.parse_args()

    build_dir = os.path.relpath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    try:
        binary = build(build_dir)
    except (OSError, subprocess.CalledProcessError) as err:
        print(f"run.py: build failed: {err}", file=sys.stderr)
        return 1

    cmd = [
        binary,
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", args.trace,
        # Sockets and exporter files go here; a relative path keeps the
        # AF_UNIX socket name short.
        "--scratch", build_dir,
    ]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("run.py: benchmark timed out", file=sys.stderr)
        return 1
    lines = proc.stdout.splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    for line in lines[:-1] if result is not None else lines:
        print(line)
    if result is None:
        print(f"run.py: benchmark exited with {proc.returncode} and no result", file=sys.stderr)
        return proc.returncode or 1
    # A run whose outputs mismatched still reports, and still fails.
    print(json.dumps(result))
    return proc.returncode if proc.returncode != 0 else (0 if result["correct"] else 1)


if __name__ == "__main__":
    sys.exit(main())
