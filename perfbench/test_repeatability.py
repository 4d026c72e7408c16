#!/usr/bin/env python3
"""Exact-count repeatability test for the repository benchmark.

    python3 perfbench/test_repeatability.py

For every workload it makes two short (SECONDS) traced runs with seed SEED
and a third with the next seed, through perfbench/run.py. It requires:

  * all three runs pass every correctness check, with no failed job;
  * the two same-seed runs report identical deterministic per-layer counts
    (the counts of the workload's job 0 or first round, which every
    run executes whatever its length) and an identical input stream digest;
  * the other seed produces a different input stream digest.

Exit status 0 when every workload passes, 1 otherwise.
"""

import json
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SECONDS = 2
SEED = 11

# Per-layer metrics that are pure functions of the seed. Wall-clock metrics,
# and counts summed over a timed window, are not.
DETERMINISTIC = {
    "hmm_batch": ["hmm.words", "hmm.rounds", "model.cost_table_builds",
                  "model.cost_table_hit_ratio"],
    "bt_batch": ["bt.block_transfers", "bt.transfer_cells", "bt.sorts",
                 "bt.transposes", "bt.rounds", "model.cost_table_builds",
                 "model.cost_table_hit_ratio"],
    # Generated specs declare no transpose supersteps, so bt.transposes is
    # 0 there by construction and is left out.
    "serve_mix": ["hmm.words", "hmm.rounds", "bt.block_transfers", "bt.sorts",
                  "bt.rounds", "locality.accesses", "serve.cache_hit_ratio"],
}


def run(workload, seed):
    """One traced run; returns (result line, artifact) or raises on failure."""
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(SECONDS), "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"exit {proc.returncode}: {proc.stderr[-2000:]}")
    result = json.loads(lines[-1])
    artifact_path = ROOT / ".bench_build" / "results" / f"{workload}-seed{seed}-trace1.json"
    artifact = json.loads(artifact_path.read_text())
    if not result["correct"] or result["failed"] != 0:
        raise RuntimeError(f"checks failed: {artifact['errors']}")
    return result, artifact


def check_workload(workload):
    problems = []
    first, first_art = run(workload, SEED)
    second, second_art = run(workload, SEED)
    for name in DETERMINISTIC[workload]:
        a = first["metrics"][name]["value"]
        b = second["metrics"][name]["value"]
        if a != b:
            problems.append(f"{name}: {a} then {b} with seed {SEED}")
        if a == 0:
            problems.append(f"{name}: reads 0, so it counts nothing")
    digest = first_art["details"]["stream_digest"]
    if second_art["details"]["stream_digest"] != digest:
        problems.append(f"seed {SEED} produced two different input streams")
    _, other_art = run(workload, SEED + 1)
    if other_art["details"]["stream_digest"] == digest:
        problems.append(f"seeds {SEED} and {SEED + 1} produced the same input stream")
    return problems


def main():
    failed = False
    for workload in DETERMINISTIC:
        try:
            problems = check_workload(workload)
        except RuntimeError as e:
            problems = [str(e)]
        status = "ok" if not problems else "FAIL"
        print(f"{workload}: {status}")
        for p in problems:
            print(f"  {p}")
        failed = failed or bool(problems)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
