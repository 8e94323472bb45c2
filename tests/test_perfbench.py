"""The benchmark's own oracles, run at tiny sizes against this checkout.

``perfbench/jobs.py`` checks every output of a benchmark pass against an
independent oracle.  Running one pass per job here catches a package change
that the benchmark would reject (say, ``verify_sweep`` no longer returning
None on a clean sweep) in tier-1.  The pass runs in a fresh interpreter, as
the benchmark runs it, and writes no bytecode into ``perfbench/``.
"""

import json
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"

# Test id -> (job, size).  count_table_n6 runs the count gate's oracles at
# the benchmark's own count_table size.
PASSES = {
    "verify": ("verify", {"n_max": 3, "mono_n": 2}),
    "count_table": ("count_table", {"n": 3, "tables": 1}),
    "count_table_n6": ("count_table", {"n": 6, "tables": 1}),
    "queries": ("queries", {"n_range": [8, 9], "queries": 10}),
}

SCRIPT = textwrap.dedent(
    """
    import json, sys
    sys.path.insert(0, sys.argv[1])
    import jobs
    spec = {"job": sys.argv[2], "size": json.loads(sys.argv[3]),
            "seed": 0, "index": 0, "trace": False}
    report = jobs.run_pass(spec)
    print(json.dumps({key: report[key] for key in ("ops", "failed", "failures")}))
    """
)


@pytest.mark.parametrize("name", sorted(PASSES))
def test_benchmark_pass_meets_its_oracle(name):
    job, size = PASSES[name]
    proc = subprocess.run(
        [sys.executable, "-B", "-c", SCRIPT, str(PERFBENCH), job, json.dumps(size)],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    report = json.loads(proc.stdout.strip().splitlines()[-1])
    assert report["ops"] > 0
    assert report["failed"] == 0, report["failures"]
