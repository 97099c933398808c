#!/usr/bin/env python3
"""servebench entry point.

    python3 servebench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout. Builds `strategem` and the
benchmark program from source (dune, into $CARGO_TARGET_DIR or
.bench_build), then runs one workload; its last stdout line is
the JSON result. Exits non-zero, without a result, when the sources are
missing, the build fails, or the run fails or overruns.
"""
import argparse
import os
import signal
import subprocess
import sys

BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = ap.parse_args()

    for needed in ("dune-project", "lib", "bin"):
        if not os.path.exists(needed):
            print(f"servebench: {needed} not found; run from the root of a source checkout",
                  file=sys.stderr)
            return 1
    build_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build = subprocess.run(
        ["dune", "build", "--root", ".", "--build-dir", build_dir,
         "./bin/strategem.exe", "./servebench/bench.exe"],
        stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    if build.returncode != 0:
        print("servebench: build failed", file=sys.stderr)
        return 1

    exe = os.path.join(build_dir, "default")
    cmd = [os.path.join(exe, "servebench", "bench.exe"),
           "--workload", a.workload, "--seed", str(a.seed),
           "--seconds", str(a.seconds), "--trace", str(a.trace),
           "--exe", os.path.join(exe, "bin", "strategem.exe"),
           "--workdir", ".bench_run"]
    # own process group, so an overrun also takes down the server it spawned
    p = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, start_new_session=True)
    try:
        out, _ = p.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(p.pid, signal.SIGKILL)
        p.wait()
        print("servebench: run overran its time limit", file=sys.stderr)
        return 1
    if p.returncode != 0:
        sys.stderr.write(out)
        print(f"servebench: bench.exe exited with {p.returncode}", file=sys.stderr)
        return 1
    sys.stdout.write(out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
