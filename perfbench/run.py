#!/usr/bin/env python3
"""Builds and runs the repository benchmark (see README.md here).

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload trials|par_call|serve --seed N \
        --seconds S --trace 0|1 [--smoke] [--corrupt trial|piece|served]

The first run configures and builds perfbench/ (which compiles the library
from src/) into $CARGO_TARGET_DIR/perfbench, or .bench_build/perfbench when
that variable is unset; later runs only rebuild what changed.  Build output
goes to standard error, so the last line of standard output is the
benchmark's one-line JSON result.  A traced run also writes its spans to
<build dir>/traces/.  The exit code is the benchmark's: 0 only when every
output it checked was correct.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def build_dir() -> Path:
    base = Path(os.environ.get("CARGO_TARGET_DIR") or ROOT / ".bench_build")
    return base / "perfbench"


def build(bdir: Path) -> Path:
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        sys.exit("perfbench: no library sources next to perfbench/ "
                 "(run from a checkout of the repository)")
    if not (bdir / "CMakeCache.txt").is_file():
        subprocess.run(
            ["cmake", "-S", str(HERE), "-B", str(bdir),
             "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
            check=True, stdout=sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(
        ["cmake", "--build", str(bdir), "-j", jobs, "--target",
         "lbb_perfbench"],
        check=True, stdout=sys.stderr)
    return bdir / "lbb_perfbench"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["trials", "par_call", "serve"])
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=["0", "1"])
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes (the benchmark's own tests)")
    parser.add_argument("--corrupt", choices=["trial", "piece", "served"],
                        help="damage one output to prove the checker fires")
    args = parser.parse_args()

    bdir = build_dir()
    try:
        binary = build(bdir)
    except (OSError, subprocess.CalledProcessError) as err:
        print(f"perfbench: build failed: {err}", file=sys.stderr)
        return 2

    cmd = [str(binary), "--workload", args.workload, "--seed",
           str(args.seed), "--seconds", repr(args.seconds), "--trace",
           args.trace]
    if args.smoke:
        cmd.append("--smoke")
    if args.corrupt:
        cmd += ["--corrupt", args.corrupt]
    if args.trace == "1":
        traces = bdir / "traces"
        traces.mkdir(parents=True, exist_ok=True)
        cmd += ["--trace-out",
                str(traces / f"{args.workload}-seed{args.seed}.jsonl")]

    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    if not isinstance(result, dict) or set(result) != RESULT_KEYS:
        # No well-formed result: show what there is on stderr, print none.
        sys.stderr.write(proc.stdout)
        print(f"perfbench: no result (exit code {proc.returncode})",
              file=sys.stderr)
        return proc.returncode or 1
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
