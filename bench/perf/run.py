#!/usr/bin/env python3
"""Builds and runs the repository benchmark (see README.md here).

    python3 bench/perf/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. The first run configures and builds this
directory's CMake package (the library from the checkout's sources plus
perf_bench) into .bench_build/perf; later runs only rebuild what changed.
Every run then executes the verification self-test and the benchmark,
whose last stdout line is the JSON result. Build output goes to stderr.
"""
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
BUILD = os.path.join(ROOT, ".bench_build", "perf")


def build():
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", BUILD,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        subprocess.run(configure, check=True, stdout=sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", BUILD, "-j", jobs], check=True,
                   stdout=sys.stderr)


def main():
    if not os.path.isdir(os.path.join(ROOT, "src")):
        print("run.py: no library sources at " + ROOT, file=sys.stderr)
        return 2
    try:
        build()
        subprocess.run([os.path.join(BUILD, "perf_verify_test")], check=True,
                       stdout=sys.stderr)
    except (OSError, subprocess.CalledProcessError) as e:
        print("run.py: " + str(e), file=sys.stderr)
        return 1
    args = sys.argv[1:]
    if "--trace-out" not in args:
        workload = args[args.index("--workload") + 1] \
            if "--workload" in args[:-1] else "none"
        seed = args[args.index("--seed") + 1] if "--seed" in args[:-1] else "0"
        os.makedirs(os.path.join(BUILD, "traces"), exist_ok=True)
        args += ["--trace-out", os.path.join(
            BUILD, "traces", "trace-%s-%s.json" % (workload, seed))]
    sys.stdout.flush()
    return subprocess.run([os.path.join(BUILD, "perf_bench")] + args,
                          timeout=900).returncode


if __name__ == "__main__":
    sys.exit(main())
