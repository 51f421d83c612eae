#!/usr/bin/env python3
"""Build the repository benchmark from source and run one workload.

    python3 perfbench/run.py --workload race|preempt --seed N \
        --seconds S --trace 0|1

Run from the repository root.  Configures and builds perfbench/ (which
builds the cspls library through the root CMake project) into
.bench_build/, then runs the load generator.
Its last stdout line is the result object; a traced run also writes its
spans to .bench_build/spans/<workload>-<seed>.jsonl.
"""

import argparse
import hashlib
import os
import platform
import shutil
import subprocess
import sys

WORKLOADS = ("race", "preempt")


def source_id(root):
    """The commit when the tree is a git checkout, else a digest of the
    sources the benchmark builds."""
    if os.path.isdir(os.path.join(root, ".git")):
        try:
            out = subprocess.run(["git", "-C", root, "rev-parse", "HEAD"],
                                 capture_output=True, text=True, check=True)
            return "commit:" + out.stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            pass
    digest = hashlib.sha256()
    for top in ("CMakeLists.txt", "src", "perfbench"):
        path = os.path.join(root, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs)
        for name in sorted(files):
            digest.update(os.path.relpath(name, root).encode())
            with open(name, "rb") as handle:
                digest.update(handle.read())
    return "sources:" + digest.hexdigest()[:16]


def build(root, build_dir):
    """Configure once, then build incrementally; output goes to stderr so
    stdout carries only the benchmark's lines."""
    bench_dir = os.path.join(root, "perfbench")
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", bench_dir, "-B", build_dir,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr)
    jobs = str(max(1, len(os.sched_getaffinity(0))))
    subprocess.run(["cmake", "--build", build_dir, "--target", "perfbench",
                    "-j", jobs], check=True, stdout=sys.stderr)
    return os.path.join(build_dir, "perfbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "api", "solver.hpp")):
        sys.exit("perfbench: run from the repository root (no src/ here)")
    build_dir = os.path.join(root, ".bench_build")
    try:
        binary = build(root, build_dir)
    except (OSError, subprocess.CalledProcessError) as error:
        sys.exit("perfbench: build failed: %s" % error)

    # Address-space randomisation moves the heap from run to run, and with
    # it set-up times by up to 2x; run without it where the kernel allows.
    launcher = []
    if shutil.which("setarch") and subprocess.run(
            ["setarch", platform.machine(), "-R", "true"],
            capture_output=True).returncode == 0:
        launcher = ["setarch", platform.machine(), "-R"]
    command = launcher + [
        binary, "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--source", source_id(root)]
    if args.trace:
        spans = os.path.join(build_dir, "spans")
        os.makedirs(spans, exist_ok=True)
        command += ["--trace-path", os.path.join(
            spans, "%s-%d.jsonl" % (args.workload, args.seed))]
    sys.exit(subprocess.run(command).returncode)


if __name__ == "__main__":
    main()
