#!/usr/bin/env python3
"""Builds and runs the pcx benchmark from a checkout's sources.

    python3 pcxbench/run.py --workload serve_interactive --seed 1 \
        --seconds 10 --trace 0

Configures pcxbench/CMakeLists.txt (which builds the repository's
library and pcx_serve through the repository's own build file) into
$CARGO_TARGET_DIR, or .bench_build when that is unset, builds it, runs
the benchmark binary's unit tests, then runs that binary from the
checkout root. Its last stdout line is the JSON result. Exits
non-zero, without a result, when the build or the tests fail.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_quiet(cmd, log_path):
    """Runs `cmd` with its output in `log_path`; True on success."""
    with open(log_path, "wb") as log:
        return subprocess.call(cmd, cwd=ROOT, stdout=log,
                               stderr=subprocess.STDOUT) == 0


def fail(message, log_path=None):
    sys.stderr.write("pcxbench: %s\n" % message)
    if log_path and os.path.exists(log_path):
        with open(log_path, "rb") as log:
            sys.stderr.write(log.read()[-4000:].decode("utf-8", "replace"))
    sys.exit(1)


def main():
    build = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or
                         ".bench_build")
    os.makedirs(build, exist_ok=True)
    log = os.path.join(build, "pcxbench-build.log")
    if not os.path.exists(os.path.join(build, "CMakeCache.txt")):
        if not run_quiet(["cmake", "-S", HERE, "-B", build,
                          "-DCMAKE_BUILD_TYPE=Release"], log):
            fail("configure failed", log)
    jobs = str(min(4, os.cpu_count() or 1))
    if not run_quiet(["cmake", "--build", build, "-j", jobs], log):
        fail("build failed", log)
    tests = os.path.join(build, "pcxbench_test")
    if os.path.exists(tests) and not run_quiet([tests], log):
        fail("the benchmark's unit tests failed", log)
    binary = os.path.join(build, "pcxbench")
    sys.exit(subprocess.call([binary] + sys.argv[1:], cwd=ROOT))


if __name__ == "__main__":
    main()
