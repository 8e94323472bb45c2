#!/usr/bin/env python3
"""Layered benchmark for naplespf: four workloads, oracle-checked outputs.

    python3 perfbench/run.py --workload count_table --seed 1 --seconds 25 --trace 0

Run it from anywhere inside a checkout that holds ``src/naplespf``; the
package is imported from that ``src/`` and from nowhere else.  Every pass of
every job runs in a fresh interpreter (``jobs.py``), because ``sweeps`` keeps
module-level lru caches and a user's CLI call always starts cold.  Passes run
one after another: a closed loop with one client and at most two threads.

Each workload names its *home* job, which runs pass after pass until
``--seconds`` have passed since the start.  The result line must carry every
end-to-end metric on every workload, so the other three jobs run too, as
*probes*: a fixed number of small passes on fixed inputs (seed 0), spread
evenly over the run.  A metric therefore reads the home job on its own
workload and the probe elsewhere; the record says which.

Every pass runs on one vCPU, and every timed interval is rescaled to a
reference CPU speed by a calibration loop timed right before and after it
(``jobs.RefClock``); the record keeps the raw medians and the calibration
readings.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs every job
once with spans around each call into a layer (and each property of
``verify_sweep`` alone in its own interpreter) and prints the per-layer
metrics; end-to-end numbers never come from traced passes.

The last stdout line is the result ``{"correct", "attempted", "failed",
"metrics"}``; ``failed / attempted`` is the run's ``ops_failed_ratio``.  The
line before it is the run record (backend, versions, sizes, per-job sample
counts, percentiles and query shares), also written with the spans to
``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

from tracing import layer_stats  # noqa: E402

JOBS = ("count_table", "verify", "queries", "cli_oneshot")
PROBE_SEED = 0
#: Every pass of a run must end this many seconds after the run starts.
RUN_LIMIT_S = 165.0

# The verify_sweep properties expected to hold (sweeps.TRUE_PROPERTIES),
# each timed alone in a traced run.  Listed here so the parent never imports
# the package it measures.
TRUE_PROPERTIES = (
    "easy_characterization",
    "excess_formula_agreement",
    "elementary_intervals",
    "decomposition_excess",
    "necessary_excess_bound_is_necessary",
    "nonincreasing_sufficiency",
    "drive_forward",
    "p_minus_1_biconditional",
    "char_complete_equivalence",
    "quantitative_bound",
    "restricted_translated_pf",
    "main_characterization",
    "witness_size_bound",
    "search_matches_extraction",
    "tail_lemma",
    "summary_theorem",
    "perm_invariance",
)
CLI_COMMANDS = ("park", "classify", "witness", "decompose", "count")
#: Invocations per round of the CLI mix (jobs.cli_prepare).
CLI_MIX_SIZE = 7
CLASSIFY_FUNCTIONS = (
    "is_parking_function",
    "is_k_naples",
    "is_complete",
    "is_permutation_invariant",
    "minimal_naples_k",
)

# Job parameters per role.  For a home job ``passes`` is the minimum number
# of passes (it repeats until the deadline); a probe runs exactly ``passes``.
# n = 6 for count_table because one n = 7 table takes about 80 s; n_max = 5
# for verify because verify_sweep(6) alone takes about 45 s.
SIZES = {
    "full": {
        "count_table": {
            "home": {"n": 6, "tables": 1, "passes": 3},
            "probe": {"n": 5, "tables": 3, "passes": 5},
        },
        "verify": {
            "home": {"n_max": 5, "mono_n": 4, "passes": 2},
            "probe": {"n_max": 4, "mono_n": 3, "passes": 8},
        },
        "queries": {
            "home": {"n_range": [8, 12], "queries": 2000, "passes": 3},
            "probe": {"n_range": [8, 12], "queries": 400, "passes": 5},
        },
        "cli_oneshot": {
            "home": {"rounds": 1, "count_n": 5, "passes": 6},
            "probe": {"rounds": 1, "count_n": 5, "passes": 3},
        },
    },
    # For the self-test: n <= 4 and a few queries.
    "tiny": {
        "count_table": {
            "home": {"n": 4, "tables": 1, "passes": 2},
            "probe": {"n": 3, "tables": 1, "passes": 2},
        },
        "verify": {
            "home": {"n_max": 3, "mono_n": 2, "passes": 2},
            "probe": {"n_max": 2, "mono_n": 2, "passes": 2},
        },
        "queries": {
            "home": {"n_range": [3, 4], "queries": 15, "passes": 2},
            "probe": {"n_range": [3, 4], "queries": 12, "passes": 1},
        },
        "cli_oneshot": {
            "home": {"rounds": 1, "count_n": 3, "passes": 2},
            "probe": {"rounds": 1, "count_n": 3, "passes": 1},
        },
    },
}


def _monotonic() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def percentile(values: list[float], pct: float) -> float:
    """Linear-interpolated percentile, as numpy's default method."""
    xs = sorted(values)
    pos = (len(xs) - 1) * pct / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def _median_total(repeats: list[list[float]]) -> float:
    """Sum over units of work of each unit's median time across repeats.

    Each repeat times the same units (a count table's columns, one per k;
    a verify pass's calls, one per n, then the monotone check).  Taking the
    median per unit before summing keeps one slow stretch of the machine
    from spoiling a whole repeat.
    """
    return sum(statistics.median(unit) for unit in zip(*repeats))


def tail_percentile(min_samples: int) -> int:
    """Highest whole percentile with at least ten of ``min_samples`` beyond it.

    Fixed from the smallest sample count a role guarantees, so a faster
    program (more samples in the same time) reports the same percentile.
    """
    return max(50, math.floor(100 * (1 - 10 / min_samples)))


class Run:
    """One benchmark run: spawns passes, keeps their reports, aggregates."""

    def __init__(self, workload: str, seed: int, seconds: int, trace: bool, sizes: str):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.sizes = SIZES[sizes]
        self.t0 = time.perf_counter()
        self.reports: dict[str, list[dict]] = {}
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.env: dict | None = None
        # Every pass runs on one vCPU, so the calibration loop in jobs.py and
        # the work it rescales (CLI children and sweep's shard threads
        # included) share that vCPU's speed.
        self.cpu = min(os.sched_getaffinity(0))
        os.sched_setaffinity(0, {self.cpu})

    def role(self, job: str) -> str:
        return "home" if job == self.workload else "probe"

    def size(self, job: str) -> dict:
        size = dict(self.sizes[job][self.role(job)])
        size.pop("passes")
        return size

    def spawn(self, key: str, job: str, size: dict, index: int, trace: bool) -> dict | None:
        """Run one pass in a fresh interpreter and keep its report under ``key``."""
        seed = self.seed if self.role(job) == "home" else PROBE_SEED
        spec = {"job": job, "size": size, "seed": seed, "index": index, "trace": trace}
        remaining = RUN_LIMIT_S - (time.perf_counter() - self.t0)
        spec["spawn_t"] = _monotonic()
        proc = subprocess.Popen(
            [sys.executable, str(HERE / "jobs.py"), json.dumps(spec)],
            stdout=subprocess.PIPE,
            text=True,
            cwd=ROOT,
        )
        try:
            stdout, _ = proc.communicate(timeout=max(remaining, 1.0))
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            return self._pass_failed(f"{key} pass {index} timed out")
        if proc.returncode != 0:
            return self._pass_failed(f"{key} pass {index} exited {proc.returncode}")
        try:
            report = json.loads(stdout.strip().splitlines()[-1])
        except (IndexError, ValueError):
            return self._pass_failed(f"{key} pass {index} printed no report")
        if not Path(report["env"]["naplespf_file"]).is_relative_to(ROOT / "src"):
            raise SystemExit(f"imported naplespf from {report['env']['naplespf_file']}")
        self.env = self.env or report["env"]
        if report["env"]["use_numba"] != self.env["use_numba"]:
            raise SystemExit("passes ran different kernel backends")
        self.attempted += report["ops"]
        self.failed += report["failed"]
        self.failures += report["failures"]
        self.reports.setdefault(key, []).append(report)
        return report

    def _pass_failed(self, message: str) -> None:
        self.attempted += 1
        self.failed += 1
        self.failures.append(message)
        return None

    def out_of_time(self) -> bool:
        """True once no further pass may start: leave room for one to finish."""
        return time.perf_counter() - self.t0 > RUN_LIMIT_S - 30.0

    # ---- untraced: end-to-end metrics --------------------------------

    def measure(self) -> dict:
        """Home passes until the deadline, probe passes spread evenly between.

        Spreading the probes over the run lets them see the same mix of vCPU
        speeds as the home job, instead of whatever the first second held.
        """
        home = self.workload
        probes = sorted(
            ((job, i) for job in JOBS if job != home
             for i in range(self.sizes[job]["probe"]["passes"])),
            key=lambda p: (p[1], JOBS.index(p[0])),
        )
        due = [self.t0 + 0.9 * self.seconds * j / len(probes) for j in range(len(probes))]
        min_passes = self.sizes[home]["home"]["passes"]
        deadline = self.t0 + self.seconds
        index = next_probe = 0
        home_s: list[float] = []
        probe_s: list[float] = []
        while not self.out_of_time():
            now = time.perf_counter()
            # Past the minimum, start a home pass only if it and the probes
            # still to run should end before the deadline, or overrun it by
            # less than half a pass.
            typical = statistics.median(home_s) if home_s else 0.0
            probes_left = (len(probes) - next_probe) * (statistics.median(probe_s) if probe_s else 0.0)
            home_due = index < min_passes or now + typical / 2 + probes_left < deadline
            if next_probe < len(probes) and (now >= due[next_probe] or not home_due):
                job, i = probes[next_probe]
                self.spawn(job, job, self.size(job), i, False)
                probe_s.append(time.perf_counter() - now)
                next_probe += 1
            elif home_due:
                self.spawn(home, home, self.size(home), index, False)
                home_s.append(time.perf_counter() - now)
                index += 1
            else:
                break
        return self.end_to_end()

    def _raw_notes(self, job: str) -> dict:
        """Role, un-rescaled medians and calibration readings of one job."""
        reports = self.reports.get(job, [])
        notes: dict = {"role": self.role(job)}
        if not reports:
            return notes
        cal = sorted(x for r in reports for x in r["samples"]["cal_s"])
        notes["calibration_s"] = {
            "median": statistics.median(cal),
            "p90": percentile(cal, 90),
            "readings": len(cal),
        }
        notes["raw_setup_s"] = statistics.median(r["raw_setup_s"] for r in reports)
        if "repeat_raw_s" in reports[0]["samples"]:
            notes["raw_total_s"] = _median_total(self._repeats(job, "repeat_raw_s"))
        if "raw_latency_s" in reports[0]["samples"]:
            notes["median_raw_latency_s"] = statistics.median(
                x for r in reports for x in r["samples"]["raw_latency_s"]
            )
        return notes

    def _repeats(self, job: str, field: str) -> list[list[float]]:
        return [rep for r in self.reports[job] for rep in r["samples"][field]]

    def _latency_metrics(self, job: str, prefix: str) -> dict:
        latency = [x for r in self.reports[job] for x in r["samples"]["latency_s"]]
        role = self.sizes[job][self.role(job)]
        per_pass = role["queries"] if job == "queries" else CLI_MIX_SIZE * role["rounds"]
        pct = tail_percentile(per_pass * role["passes"])
        self.notes[job].update(samples=len(latency), tail_percentile=pct)
        return {
            f"{prefix}.p50_ms": (1000 * statistics.median(latency), "ms"),
            f"{prefix}.tail_ms": (1000 * percentile(latency, pct), "ms"),
        }

    def end_to_end(self) -> dict:
        self.notes = {job: self._raw_notes(job) for job in JOBS}
        home = self.reports.get(self.workload, [])
        m: dict[str, tuple[float, str]] = {}
        if home:
            m["setup_s"] = (statistics.median(r["setup_s"] for r in home), "s")
            rss = "child_rss_mb" if self.workload == "cli_oneshot" else "rss_mb"
            m["peak_rss_mb"] = (
                max(r["samples"][rss] if rss in r["samples"] else r[rss] for r in home),
                "MB",
            )
            self.notes[self.workload]["passes"] = len(home)
        for job, metric, work in (
            ("count_table", "count.pairs_per_s", "pairs"),
            ("verify", "verify.prefs_per_s", "prefs"),
        ):
            if self.reports.get(job):
                repeats = self._repeats(job, "repeat_s")
                work_done = self.reports[job][0]["samples"][work]
                m[metric] = (work_done / _median_total(repeats), "1/s")
                self.notes[job]["repeats"] = len(repeats)
        if self.reports.get("queries"):
            m.update(self._latency_metrics("queries", "query"))
            reports = self.reports["queries"]
            rates = [len(r["samples"]["latency_s"]) / r["samples"]["batch_s"] for r in reports]
            m["query.per_s"] = (statistics.median(rates), "1/s")
            self.notes["queries"]["rates"] = rates
            total = sum(len(r["samples"]["latency_s"]) for r in reports)
            query_s = sum(sum(r["samples"]["latency_s"]) for r in reports)
            members = sum(r["samples"]["members"] for r in reports)
            self.notes["queries"].update(
                parking_function_share=sum(r["samples"]["parking"] for r in reports) / total,
                member_share=members / total,
                non_member_share=1 - members / total,
                exhaustive_witness_time_share=sum(r["samples"]["exhaustive_s"] for r in reports)
                / query_s,
            )
        if self.reports.get("cli_oneshot"):
            m.update(self._latency_metrics("cli_oneshot", "cli"))
        return m

    # ---- traced: per-layer metrics ------------------------------------

    def measure_traced(self) -> dict:
        home = self.workload
        plain = self.spawn("untraced", home, self.size(home), 0, False)
        traced = self.spawn(home, home, self.size(home), 0, True)
        for job in JOBS:
            if job != home:
                self.spawn(job, job, self.size(job), 0, True)
        verify_size = self.size("verify")
        for prop in TRUE_PROPERTIES:
            self.spawn("verify_property", "verify", dict(verify_size, property=prop), 0, True)
        overhead = (
            traced["samples"]["ref_s"] / plain["samples"]["ref_s"] if plain and traced else None
        )
        return self.per_layer(overhead)

    def spans(self) -> list[list]:
        merged: list[list] = []
        for key, reports in self.reports.items():
            if key == "untraced":
                continue
            for r in reports:
                base = len(merged)
                merged += [[n, s, e, p if p < 0 else base + p] for n, s, e, p in r["spans"]]
        return merged

    def per_layer(self, overhead: float | None) -> dict:
        stats = layer_stats(self.spans())
        self.layer_stats = stats

        def get(name: str, field: str) -> float:
            return stats.get(name, {}).get(field, 0)

        m: dict[str, tuple[float, str]] = {}
        n = self.size("count_table")["n"]
        sweep_busy = get("sweeps.sweep", "busy_s")
        m["sweeps.sweep.calls"] = (get("sweeps.sweep", "calls"), "count")
        m["sweeps.sweep.busy_s"] = (sweep_busy, "s")
        m["sweeps.sweep.pairs_per_s"] = (
            get("sweeps.sweep", "calls") * n**n / sweep_busy if sweep_busy else 0.0,
            "1/s",
        )
        shards1_busy = get("sweeps.sweep.shards1", "busy_s")
        m["sweeps.sweep.shards1.pairs_per_s"] = (
            get("sweeps.sweep.shards1", "calls") * n**n / shards1_busy if shards1_busy else 0.0,
            "1/s",
        )
        m["sweeps.count_perm_invariant_fast.busy_s"] = (
            get("sweeps.count_perm_invariant_fast", "busy_s"),
            "s",
        )
        for prop in TRUE_PROPERTIES:
            name = f"sweeps.verify_sweep.{prop}"
            m[f"{name}.busy_s"] = (get(name, "busy_s"), "s")
        name = "sweeps.find_monotone_window_violation"
        m[f"{name}.busy_s"] = (get(name, "busy_s"), "s")
        queries = self.reports.get("queries", [])
        exh_calls = sum(r["samples"]["exh_calls"] for r in queries)
        exh_found = sum(r["samples"]["exh_found"] for r in queries)
        for route in ("constructive", "exhaustive"):
            name = f"characterize.find_witness.{route}"
            m[f"{name}.calls"] = (get(name, "calls"), "count")
            m[f"{name}.busy_s"] = (get(name, "busy_s"), "s")
        m["characterize.find_witness.exhaustive.found_ratio"] = (
            exh_found / exh_calls if exh_calls else 0.0,
            "ratio",
        )
        for name in ("core.excess", "simulator.park") + tuple(
            f"classify.{f}" for f in CLASSIFY_FUNCTIONS
        ):
            m[f"{name}.calls"] = (get(name, "calls"), "count")
            m[f"{name}.busy_s"] = (get(name, "busy_s"), "s")
        imports = [e - s for n_, s, e, _p in self.spans() if n_ == "cli.import"]
        m["cli.import_s"] = (statistics.median(imports) if imports else 0.0, "s")
        for command in CLI_COMMANDS:
            m[f"cli.{command}.busy_s"] = (get(f"cli.{command}", "busy_s"), "s")
        m["trace.overhead_ratio"] = (overhead or 0.0, "ratio")
        return m

    # ---- output ---------------------------------------------------------

    def record(self, metrics: dict) -> dict:
        sizes = {job: self.sizes[job][self.role(job)] for job in JOBS}
        record = {
            "workload": self.workload,
            "seed": self.seed,
            "probe_seed": PROBE_SEED,
            "seconds": self.seconds,
            "trace": self.trace,
            "wall_s": time.perf_counter() - self.t0,
            "env": self.env,
            "pinned_cpu": self.cpu,
            "sizes": sizes,
            "count_n": sizes["count_table"]["n"],
            "verify_n_max": sizes["verify"]["n_max"],
            "attempted": self.attempted,
            "failed": self.failed,
            "ops_failed_ratio": self.failed / self.attempted if self.attempted else None,
            "failures": self.failures[:20],
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        }
        if not self.trace:
            record["jobs"] = self.notes
        return record


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=JOBS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--sizes", choices=sorted(SIZES), default="full", help="tiny: self-test only")
    args = parser.parse_args(argv)

    missing = [
        p for p in (ROOT / "src" / "naplespf" / "__init__.py", ROOT / "schemas" / "cli_output.schema.json")
        if not p.is_file()
    ]
    if missing:
        print(f"perfbench: not a naplespf checkout, missing {missing[0]}", file=sys.stderr)
        return 2
    if args.seconds < 1:
        parser.error("--seconds must be >= 1")

    run = Run(args.workload, args.seed, args.seconds, bool(args.trace), args.sizes)
    metrics = run.measure_traced() if run.trace else run.measure()
    record = run.record(metrics)
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    if run.trace:
        trace_doc = {"layers": run.layer_stats, "spans": run.spans()}
        (OUT / f"{stem}.spans.json").write_text(json.dumps(trace_doc) + "\n")
    print(json.dumps(record))
    result = {
        "correct": run.failed == 0 and run.attempted > 0,
        "attempted": max(run.attempted, 1),
        "failed": run.failed,
        "metrics": record["metrics"],
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
