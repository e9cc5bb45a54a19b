#!/usr/bin/env python3
"""The benchmark's own tests.  Run from the root of a checkout:

    python3 perfbench/selftest.py

Checks, at smoke size (each run takes a few seconds):
  1. every workload (trials, par_call, serve) prints every end-to-end
     metric of BENCHMARK.json with its unit and a sample count, and nothing
     fails;
  2. a traced run prints every per-layer metric with its unit;
  3. the same seed gives identical result digests, another seed does not;
  4. a corrupted trial statistic, par_call piece or served result is caught
     (exit code 1, "correct": false);
  5. in a directory holding only BENCHMARK.json and perfbench/, the
     benchmark exits nonzero without printing a result.
Exits 0 when every check passes.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
RUN = [sys.executable, str(HERE / "run.py")]

failures = []


def check(ok, what):
    print(("ok    " if ok else "FAIL  ") + what)
    if not ok:
        failures.append(what)


def run(workload, seed, trace="0", extra=(), cwd=ROOT, runner=RUN):
    cmd = runner + ["--workload", workload, "--seed", str(seed),
                    "--seconds", "2", "--trace", trace, "--smoke", *extra]
    proc = subprocess.run(cmd, cwd=cwd, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, timeout=600)
    lines = proc.stdout.splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            pass
    detail = next((json.loads(line[len("detail "):]) for line in lines
                   if line.startswith("detail ")), None)
    return proc, lines, result, detail


def metrics_match(result, lines, spec_metrics, label):
    got = result["metrics"]
    want = {m["name"]: m["unit"] for m in spec_metrics}
    check(set(got) == set(want), f"{label}: metric names match BENCHMARK.json")
    check(all(got[n]["unit"] == u for n, u in want.items() if n in got),
          f"{label}: units match BENCHMARK.json")
    table = {line.split()[0]: line for line in lines if "samples=" in line}
    check(all(n in table and want[n] in table[n].split() for n in want),
          f"{label}: table prints every metric with unit and samples")


def main():
    digests = {}
    # Every workload lbb_perfbench accepts, listed in BENCHMARK.json or not.
    for workload in ["trials", "par_call", "serve"]:
        proc, lines, result, detail = run(workload, 7)
        label = f"{workload} smoke"
        check(proc.returncode == 0, f"{label}: exit code 0")
        if result is None:
            check(False, f"{label}: result line")
            continue
        check(result["correct"] and result["failed"] == 0
              and result["metrics"]["ok_frac"]["value"] == 1.0,
              f"{label}: correct, failed 0, ok_frac 1")
        metrics_match(result, lines, SPEC["end_to_end"], label)
        digests[workload] = detail["digests"]

    proc, lines, result, _ = run("serve", 7, trace="1")
    check(proc.returncode == 0 and result is not None and result["correct"],
          "traced smoke: exit code 0 and correct")
    if result is not None:
        metrics_match(result, lines, SPEC["per_layer"], "traced smoke")

    _, _, _, again = run("trials", 7)
    _, _, _, other = run("trials", 8)
    check(again is not None and again["digests"] == digests.get("trials"),
          "same seed gives identical digests")
    check(other is not None and all(
        other["digests"][k] != again["digests"][k] for k in other["digests"]),
          "another seed gives different digests")

    for target in ["trial", "piece", "served"]:
        proc, _, result, _ = run("par_call", 7, extra=["--corrupt", target])
        check(proc.returncode == 1 and result is not None
              and not result["correct"] and result["failed"] >= 1,
              f"corrupted {target} is caught")

    # The build directory is ignored by git, so this stays in the checkout.
    empty = ROOT / ".bench_build" / "selftest-empty"
    shutil.rmtree(empty, ignore_errors=True)
    shutil.copytree(HERE, empty / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", empty / "BENCHMARK.json")
    proc, _, result, _ = run(
        "trials", 1, cwd=empty,
        runner=[sys.executable, str(empty / "perfbench" / "run.py")])
    check(proc.returncode != 0 and result is None,
          "without the repository: nonzero exit and no result")
    shutil.rmtree(empty, ignore_errors=True)

    print(f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
