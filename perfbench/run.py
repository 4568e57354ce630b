#!/usr/bin/env python3
"""Build the benchmark from this checkout's sources and run it.

    python3 perfbench/run.py --workload NAME --seed N --seconds N --trace 0|1

The simulator library and the sgcn_perfbench binary are compiled
(incrementally after the first run) into .bench_build/perfbench at
the checkout root, with build output on stderr. The arguments are
passed to the binary unchanged, so its strict parser decides what is
valid; its standard output, whose last line is the JSON result, and
its exit code become this script's. Traced runs write their Chrome
trace under .bench_build/traces.
"""

import os
import signal
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
TRACES = ROOT / ".bench_build" / "traces"
BUILD_JOBS = str(min(4, os.cpu_count() or 1))


def build():
    """Configure once, then build incrementally; build logs go to stderr."""
    if not (BUILD / "CMakeCache.txt").is_file():
        subprocess.run(
            ["cmake", "-S", str(HERE), "-B", str(BUILD),
             "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
            stdout=sys.stderr, check=True)
    subprocess.run(
        ["cmake", "--build", str(BUILD), "--target", "sgcn_perfbench",
         "-j", BUILD_JOBS],
        stdout=sys.stderr, check=True)
    return BUILD / "sgcn_perfbench"


def main(argv):
    if not (ROOT / "src" / "accel" / "runner.hh").is_file():
        print(f"perfbench: no simulator sources under {ROOT / 'src'}; "
              "run from a full checkout", file=sys.stderr)
        return 2
    try:
        binary = build()
    except (OSError, subprocess.CalledProcessError) as err:
        print(f"perfbench: build failed: {err}", file=sys.stderr)
        return 2
    sys.stdout.flush()
    child = subprocess.Popen([str(binary), *argv, "--trace-dir", str(TRACES)])
    try:
        return child.wait()
    finally:
        # Interrupted or terminated: never leave the benchmark running.
        if child.poll() is None:
            child.kill()
            child.wait()


if __name__ == "__main__":
    # Turn SIGTERM into an exception so the cleanup above runs.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    sys.exit(main(sys.argv[1:]))
