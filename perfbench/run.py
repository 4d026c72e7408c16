#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload hmm_batch|bt_batch|serve_mix \\
        --seed N --seconds S --trace 0|1

Run from the repository root (any working directory works; paths are
resolved from this file). The first call configures and builds
perfbench/CMakeLists.txt -- the dbsp libraries, dbsp_serve and the perfbench
program -- into .bench_build/perfbench; later calls only rebuild what changed.
Build output goes to stderr. The program's stdout is passed through, so the
last stdout line is its JSON result; the full artifact (every metric of both
kinds, the traced spans) is written to
.bench_build/results/<workload>-seed<N>-trace<T>.json.

Exit status: the program's (0 only when every correctness check passed),
1 when the build fails or the run overruns its time limit, 2 on bad
arguments or when the dbsp sources are missing.
"""

import argparse
import os
import signal
import subprocess
import sys
from pathlib import Path

WORKLOADS = ("hmm_batch", "bt_batch", "serve_mix")

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = ROOT / ".bench_build"
BUILD_DIR = OUT_DIR / "perfbench"


def log(message):
    print(f"perfbench: {message}", file=sys.stderr, flush=True)


def build():
    """Configure (once) and build the program and the daemon; True on success."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [["cmake", "--build", str(BUILD_DIR), "--target", "perfbench", "dbsp_serve",
              "-j", jobs]]
    if not (BUILD_DIR / "CMakeCache.txt").exists():
        steps.insert(0, ["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
                         "-DCMAKE_BUILD_TYPE=Release"])
    return all(subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode == 0
               for step in steps)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")

    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        log(f"no dbsp source tree next to {BENCH_DIR.name}/; nothing to build")
        return 2
    if not build():
        log("build failed")
        return 1

    results = OUT_DIR / "results"
    results.mkdir(parents=True, exist_ok=True)
    artifact = results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    cmd = [str(BUILD_DIR / "perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--out", str(artifact),
           "--golden", str(BENCH_DIR / "golden.json"),
           "--serve-bin", str(BUILD_DIR / "dbsp" / "tools" / "dbsp_serve"),
           # Relative, so the daemon's socket path stays short.
           "--work-dir", os.path.relpath(OUT_DIR / "run", ROOT)]
    # The program's wall-clock limit, build excluded: set-up, the timed
    # window, a traced replay of about the same length, and its checks.
    timeout_s = 60 + 4 * args.seconds
    # Own process group: on overrun the program and its daemon die together.
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        stdout, _ = proc.communicate(timeout=timeout_s)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        log(f"run exceeded {timeout_s} s; killed")
        return 1
    try:
        os.killpg(proc.pid, signal.SIGKILL)  # anything the program left behind
    except ProcessLookupError:
        pass
    sys.stdout.write(stdout)
    sys.stdout.flush()
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
