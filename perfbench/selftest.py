#!/usr/bin/env python3
"""Self-test of the benchmark at tiny sizes (n <= 4, a few queries).

    python3 perfbench/selftest.py

Checks that every workload prints every metric named in BENCHMARK.json, with
its unit, in both the untraced and the traced run; that the correctness gate
trips when it is fed a wrong expected count; and that the benchmark exits
non-zero, printing no result, in a directory holding only BENCHMARK.json and
the benchmark's own files.  Exits 1 on the first failure.  Takes about a
minute.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def fail(message: str) -> None:
    print(f"FAIL {message}")
    sys.exit(1)


def run_bench(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "7",
         "--seconds", "1", "--trace", str(trace), "--sizes", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def check_metrics_printed(spec: dict) -> None:
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            proc = run_bench(ROOT, workload, trace)
            if proc.returncode != 0:
                fail(f"{workload} trace={trace} exited {proc.returncode}: {proc.stderr[-500:]}")
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                fail(f"{workload} trace={trace}: result keys {sorted(result)}")
            if not result["correct"] or result["failed"] or result["attempted"] < 1:
                fail(f"{workload} trace={trace}: not correct: {proc.stdout.splitlines()[-2][:500]}")
            expected = {m["name"]: m["unit"] for m in spec[section]}
            printed = {name: m["unit"] for name, m in result["metrics"].items()}
            if printed != expected:
                fail(f"{workload} trace={trace}: metrics differ: {set(printed) ^ set(expected)}"
                     f" or units {[(n, printed.get(n), u) for n, u in expected.items() if printed.get(n) != u]}")
            bad = [n for n, m in result["metrics"].items() if not isinstance(m["value"], (int, float))]
            if bad:
                fail(f"{workload} trace={trace}: non-numeric values {bad}")
            print(f"ok   {workload} trace={trace}: {len(printed)} metrics with units")


def check_gate_trips() -> None:
    sys.path.insert(0, str(HERE))
    import jobs

    n = 4
    counts = [jobs.sweep(n, k).counts for k in range(n + 1)]
    classes = [jobs.count_perm_invariant_fast(n, k, by_class=True) for k in range(n + 1)]
    brute = {2: counts[2]["k_naples"]}
    if jobs.check_count_table(n, counts, classes, brute, known={}):
        fail("gate rejects a correct table")
    wrong_known = {(n, 2): counts[2]["k_naples"] + 1}
    if len(jobs.check_count_table(n, counts, classes, brute, known=wrong_known)) != 1:
        fail("gate accepts a wrong published count")
    if len(jobs.check_count_table(n, counts, classes, {2: brute[2] - 1}, known={})) != 1:
        fail("gate accepts a wrong simulated count")
    bad_counts = [dict(c) for c in counts]
    bad_counts[1]["parking_function"] += 1
    if len(jobs.check_count_table(n, bad_counts, classes, brute, known={})) != 1:
        fail("gate accepts a wrong parking-function count")
    print("ok   correctness gate trips on wrong expected counts")


def check_bare_directory() -> None:
    bare = HERE / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    (bare / "perfbench").mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for f in HERE.glob("*.py"):
        shutil.copy(f, bare / "perfbench")
    try:
        proc = run_bench(bare, "queries", 0)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or proc.stdout.strip():
        fail(f"bare directory: exit {proc.returncode}, stdout {proc.stdout[:200]!r}")
    print(f"ok   bare directory exits {proc.returncode} without a result")


def main() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    check_gate_trips()
    check_bare_directory()
    check_metrics_printed(spec)
    print("selftest passed")


if __name__ == "__main__":
    main()
