#!/usr/bin/env python3
"""Builds the repository benchmark from source and runs one workload.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload <edit-loop|wide-edit|cli-session|all> \
        --seed <n> --seconds <s> --trace <0|1>

Builds `perfbench` (this directory's own cargo package) and the `minicc`
binary in release mode into $CARGO_TARGET_DIR (default `.bench_build`),
then runs the workload. The last line of standard output is the JSON
result. Exits non-zero without a result when the sources are missing or
do not build.
"""

import os
import signal
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
MANIFEST = os.path.join("perfbench", "Cargo.toml")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def build(target_dir):
    for package, binary in (("sfcc-perfbench", "perfbench"), ("sfcc-buildsys", "minicc")):
        cmd = ["cargo", "build", "--release", "--offline", "--manifest-path", MANIFEST,
               "-p", package, "--bin", binary]
        try:
            done = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S,
                                  env=dict(os.environ, CARGO_TARGET_DIR=target_dir))
        except (OSError, subprocess.TimeoutExpired) as e:
            fail(f"cannot build {binary}: {e}")
        if done.returncode != 0:
            fail(f"building {binary} failed")
    return [os.path.join(target_dir, "release", b) for b in ("perfbench", "minicc")]


def pin_single_threaded(args):
    """Keeps a single-threaded workload, and the processes it starts, on one
    CPU: the reference kernel that scales its timings (src/calib.rs) then
    runs on the CPU that does the measured work. `wide-edit` builds on two
    workers and stays unpinned."""
    workload = args[args.index("--workload") + 1] if "--workload" in args[:-1] else None
    cpus = sorted(os.sched_getaffinity(0))
    if workload in ("edit-loop", "cli-session") and len(cpus) > 1:
        os.sched_setaffinity(0, {cpus[-1]})


def main():
    for needed in ("crates/buildsys/Cargo.toml", "crates/core/Cargo.toml", MANIFEST):
        if not os.path.isfile(os.path.join(ROOT, needed)):
            fail(f"{needed} is missing: run from a checkout of the repository")
    target_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    bench, minicc = build(target_dir)
    pin_single_threaded(sys.argv[1:])
    cmd = [bench, *sys.argv[1:], "--minicc", minicc]
    timeout = RUN_TIMEOUT_S * (3 if "all" in sys.argv[1:] else 1)
    # Its own process group, so a timeout also stops the daemon it started.
    proc = subprocess.Popen(cmd, cwd=ROOT, start_new_session=True)
    try:
        code = proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        fail(f"the run did not finish within {timeout} s")
    sys.exit(code)


if __name__ == "__main__":
    main()
