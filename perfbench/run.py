#!/usr/bin/env python3
"""Builds and runs the cdst benchmark (see perfbench/NOTES.md).

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --self-test

Run from the repository root. The first run configures and builds the
library and the benchmark into $CARGO_TARGET_DIR (default .bench_build);
later runs rebuild incrementally. Build output goes to stderr, so the last
line of stdout is the benchmark's JSON result. Exits non-zero without a
result when the library sources are missing or the build fails.
"""

import argparse
import os
import subprocess
import sys

WORKLOADS = ("route_tableV", "solve_corpus", "route_dist", "serve_mix")


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def build(root, build_dir):
    bench_dir = os.path.join(root, "perfbench")
    if not os.path.isfile(os.path.join(root, "src", "CMakeLists.txt")):
        fail("library sources (src/) not found next to perfbench/")
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        configure = ["cmake", "-S", bench_dir, "-B", build_dir,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            fail("configure failed")
    jobs = str(min(4, os.cpu_count() or 1))
    compile_cmd = ["cmake", "--build", build_dir, "-j", jobs,
                   "--target", "perfbench", "perfbench_selftest"]
    if subprocess.run(compile_cmd, stdout=sys.stderr).returncode != 0:
        fail("build failed")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if not args.self_test and args.workload is None:
        fail("--workload is required")
    if args.seed < 0:
        fail("--seed must be >= 0")

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    build_dir = os.path.join(root, os.environ.get("CARGO_TARGET_DIR",
                                                  ".bench_build"))
    build(root, build_dir)

    env = dict(os.environ, PERFBENCH_TRACE_DIR=os.path.join(build_dir,
                                                             "traces"))
    if args.self_test:
        cmd = [os.path.join(build_dir, "perfbench_selftest")]
    else:
        cmd = [os.path.join(build_dir, "perfbench"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds), "--trace", str(args.trace)]
    sys.stdout.flush()
    return subprocess.run(cmd, cwd=root, env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
