"""One pass of one benchmark job, run in a fresh interpreter.

    python3 perfbench/jobs.py '<json spec>'

``run.py`` spawns this file once per pass.  The worker imports naplespf from
the checkout's ``src/``, builds its inputs from the spec, then makes the
timed calls into the package's public functions, checks every output against
an independent oracle (outside the timed region) and prints one JSON line.

The spec holds ``job``, ``size`` (the job's parameters), ``seed``, ``index``
(pass number, mixed into the input seed), ``trace`` and ``spawn_t``, the
parent's CLOCK_MONOTONIC reading just before it started this process.
Set-up time runs from ``spawn_t`` until the imports are done and the inputs
exist.
"""

from __future__ import annotations

import json
import math
import os
import random
import resource
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import naplespf  # noqa: E402
from naplespf import _kernels  # noqa: E402
from naplespf.characterize import (  # noqa: E402
    check_certificate,
    enumerate_witnesses,
    find_witness,
)
from naplespf.classify import (  # noqa: E402
    is_complete,
    is_k_naples,
    is_parking_function,
    is_permutation_invariant,
    minimal_naples_k,
)
from naplespf.core import ParkingPreference, decompose_at, excess  # noqa: E402
from naplespf.simulator import park, park_with_trace  # noqa: E402
from naplespf.sweeps import (  # noqa: E402
    count_perm_invariant_fast,
    find_monotone_window_violation,
    iter_preferences,
    sweep,
    verify_sweep,
)

from tracing import SPANS_MARKER, NullTracer, Tracer  # noqa: E402

#: k_naples counts published with the package (README), keyed by (n, k).
KNOWN_K_NAPLES = {(7, 2): 627405}

#: Longest failure list a worker reports; the count is always exact.
MAX_REPORTED_FAILURES = 10


#: Iterations of the calibration loop, and the seconds it takes on an idle
#: vCPU of the machine the benchmark was written on (2.1 GHz Xeon).
CAL_LOOPS = 100_000
CAL_REF_S = 0.0035


def _monotonic() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def calibrate() -> float:
    """Seconds a fixed pure-Python loop takes right now."""
    t0 = time.perf_counter()
    s = 0
    for i in range(CAL_LOOPS):
        s += i
    return time.perf_counter() - t0


class RefClock:
    """Rescales timed intervals to reference CPU speed.

    On the shared 2-vCPU machine this benchmark was written on, the same
    pure-Python loop runs up to about 1.8x slower for stretches of a fraction
    of a second to minutes, whatever the benchmark does.  Timing the
    calibration loop right before and after an interval and multiplying the
    interval by ``CAL_REF_S`` over their mean removes most of that from the
    results.  Call :meth:`factor` right after each timed interval.
    """

    def __init__(self) -> None:
        self.last = calibrate()
        self.readings = [self.last]

    def factor(self) -> float:
        now = calibrate()
        f = 2 * CAL_REF_S / (self.last + now)
        self.last = now
        self.readings.append(now)
        return f


def _rng(seed: int, index: int, salt: int) -> random.Random:
    return random.Random((seed * 1_000_003 + index) * 31 + salt)


# --------------------------------------------------------------------------
# count_table: sweep(n, k, shards=2) for k = 0..n plus invariant classes.
# --------------------------------------------------------------------------


def count_prepare(size: dict, seed: int, index: int) -> dict:
    n = size["n"]
    # The k whose k_naples count is re-derived by brute-force simulation.
    return {"n": n, "tables": size["tables"], "brute_k": _rng(seed, index, 1).randint(0, n)}


def _count_table(n: int, shards: int, tracer, clock: RefClock) -> tuple[list, list, list, list]:
    """One table: counts, class counts, and raw and rescaled seconds per k."""
    name = "sweeps.sweep" if shards > 1 else "sweeps.sweep.shards1"
    counts, classes, raw, ref = [], [], [], []
    for k in range(n + 1):
        t0 = time.perf_counter()
        with tracer.span(name):
            counts.append(sweep(n, k, shards=shards).counts)
        if shards > 1:
            with tracer.span("sweeps.count_perm_invariant_fast"):
                classes.append(count_perm_invariant_fast(n, k, by_class=True))
        dt = time.perf_counter() - t0
        raw.append(dt)
        ref.append(dt * clock.factor())
    return counts, classes, raw, ref


def count_execute(inputs: dict, tracer) -> dict:
    n = inputs["n"]
    clock = RefClock()
    tables, raw_s, ref_s = [], [], []
    for _ in range(inputs["tables"]):
        counts, classes, raw, ref = _count_table(n, 2, tracer, clock)
        tables.append((counts, classes))
        raw_s.append(raw)
        ref_s.append(ref)
    out = {"tables": tables, "repeat_s": ref_s, "repeat_raw_s": raw_s}
    out["ref_s"] = sum(map(sum, ref_s))
    out["pairs"] = n**n * (n + 1)
    if tracer.enabled:
        # Single-threaded pass of the same table: the baseline for shards=2.
        out["shards1"] = _count_table(n, 1, tracer, clock)[0]
    out["cal_s"] = clock.readings
    return out


def check_count_table(
    n: int,
    counts: list[dict],
    classes: list[int],
    brute: dict[int, int],
    known: dict[tuple[int, int], int] = KNOWN_K_NAPLES,
) -> list[str]:
    """Failed columns of one counting table, one string per failed column.

    ``counts[k]`` is ``sweep(n, k).counts`` for k = 0..n and ``classes[k]``
    the invariant class count (or ``classes`` is empty); ``brute`` maps a
    window to its k_naples count by direct simulation, ``known`` maps (n, k)
    to a published k_naples count.
    """
    bad = []
    total = n**n
    multisets = math.comb(2 * n - 1, n)
    prev = 0
    for k, c in enumerate(counts):
        problems = []
        if c["parking_function"] != (n + 1) ** (n - 1):
            problems.append(f"parking_function {c['parking_function']} != (n+1)^(n-1)")
        if c["perm_invariant"] != count_perm_invariant_fast(n, k):
            problems.append("perm_invariant disagrees with count_perm_invariant_fast")
        if k >= n - 1 and c["k_naples"] != total:
            problems.append(f"k_naples {c['k_naples']} != n^n")
        if c["k_naples"] < prev:
            problems.append(f"k_naples decreased from {prev}")
        prev = c["k_naples"]
        if n >= 2 and c["complete"] != (n - 1) ** (n - 1):
            problems.append(f"complete {c['complete']} != (n-1)^(n-1)")
        if c["complete_k_naples"] > c["complete"]:
            problems.append("complete_k_naples exceeds complete")
        if (n, k) in known and c["k_naples"] != known[(n, k)]:
            problems.append(f"k_naples {c['k_naples']} != published {known[(n, k)]}")
        if k in brute and c["k_naples"] != brute[k]:
            problems.append(f"k_naples {c['k_naples']} != simulated {brute[k]}")
        if classes and (classes[k] > multisets or (k >= n - 1 and classes[k] != multisets)):
            problems.append(f"{classes[k]} invariant classes, {multisets} multisets")
        if problems:
            bad.append(f"count n={n} k={k}: {'; '.join(problems)}")
    return bad


def count_check(inputs: dict, out: dict) -> tuple[int, list[str]]:
    n, k = inputs["n"], inputs["brute_k"]
    brute = {
        k: sum(park(ParkingPreference(p), k).all_parked for p in iter_preferences(n))
    }
    bad = []
    ops = 0
    for counts, classes in out.pop("tables"):
        ops += len(counts)
        bad += check_count_table(n, counts, classes, brute)
    if "shards1" in out:
        shards1 = out.pop("shards1")
        ops += len(shards1)
        bad += check_count_table(n, shards1, [], brute)
    return ops, bad


# --------------------------------------------------------------------------
# verify: verify_sweep(n, ks=1..n) for n = 1..n_max, then the monotone-window
# check; or one property alone (verify_property) for the per-layer times.
# --------------------------------------------------------------------------


def verify_prepare(size: dict, seed: int, index: int) -> dict:
    return dict(size)


def verify_execute(inputs: dict, tracer) -> dict:
    results = []
    prop = inputs.get("property")
    props = None if prop is None else [prop]
    name = "sweeps.verify_sweep" if prop is None else f"sweeps.verify_sweep.{prop}"
    calls = [
        (name, verify_sweep, (n, range(1, n + 1), props))
        for n in range(1, inputs["n_max"] + 1)
    ]
    if prop is None:
        calls.append(
            ("sweeps.find_monotone_window_violation", find_monotone_window_violation, (inputs["mono_n"],))
        )
    clock = RefClock()
    raw, ref = [], []
    for span_name, fn, args in calls:
        t0 = time.perf_counter()
        with tracer.span(span_name):
            results.append(fn(*args))
        dt = time.perf_counter() - t0
        raw.append(dt)
        ref.append(dt * clock.factor())
    prefs = sum(n**n for n in range(1, inputs["n_max"] + 1))
    return {
        "results": results,
        "repeat_s": [ref],
        "repeat_raw_s": [raw],
        "ref_s": sum(ref),
        "prefs": prefs,
        "cal_s": clock.readings,
    }


def verify_check(inputs: dict, out: dict) -> tuple[int, list[str]]:
    results = out.pop("results")
    bad = [f"verify call {i}: expected None, got {r!r}" for i, r in enumerate(results) if r is not None]
    return len(results), bad


# --------------------------------------------------------------------------
# queries: what park --trace, classify --json and witness --json compute.
# --------------------------------------------------------------------------


def make_query(rng: random.Random, n_lo: int, n_hi: int) -> tuple[tuple[int, ...], int]:
    """Half uniform on [n]^n, half skewed to the top spots (n - Exp(0.35))."""
    n = rng.randint(n_lo, n_hi)
    k = rng.randint(1, n - 1)
    if rng.random() < 0.5:
        prefs = tuple(rng.randint(1, n) for _ in range(n))
    else:
        prefs = tuple(
            min(n, max(1, n - int(rng.expovariate(0.35)))) for _ in range(n)
        )
    return prefs, k


def queries_prepare(size: dict, seed: int, index: int) -> dict:
    rng = _rng(seed, index, 2)
    lo, hi = size["n_range"]
    queries = [make_query(rng, lo, hi) for _ in range(size["queries"])]
    return {"queries": [(ParkingPreference(p), k) for p, k in queries]}


_ROUTE_SPAN = {
    True: "characterize.find_witness.constructive",
    False: "characterize.find_witness.exhaustive",
}


#: Queries between two calibrations.
QUERY_CHUNK = 25


def queries_execute(inputs: dict, tracer) -> dict:
    queries = inputs["queries"]
    ref_clock = RefClock()
    answers, latency, raw_latency, witness_s = [], [], [], []
    raw_s = ref_s = 0.0
    for start in range(0, len(queries), QUERY_CHUNK):
        chunk = queries[start : start + QUERY_CHUNK]
        t0 = time.perf_counter()
        lat = _run_queries(chunk, tracer, answers, witness_s)
        dt = time.perf_counter() - t0
        f = ref_clock.factor()
        raw_s += dt
        ref_s += dt * f
        raw_latency += lat
        latency += [x * f for x in lat]
    return {
        "answers": answers,
        "latency_s": latency,
        "raw_latency_s": raw_latency,
        "witness_s": witness_s,
        "batch_s": ref_s,
        "raw_batch_s": raw_s,
        "ref_s": ref_s,
        "cal_s": ref_clock.readings,
    }


def _run_queries(chunk: list, tracer, answers: list, witness_s: list) -> list[float]:
    span = tracer.span
    clock = time.perf_counter
    latency = []
    for pref, k in chunk:
        t0 = clock()
        with span("query"):
            with span("simulator.park"):
                outcome, _steps = park_with_trace(pref, k)
            with span("core.excess"):
                prof = excess(pref)
            with span("classify.is_parking_function"):
                pf = is_parking_function(pref)
            with span("classify.is_k_naples"):
                member = is_k_naples(pref, k)
            with span("classify.is_complete"):
                complete = is_complete(pref)
            with span("classify.is_permutation_invariant"):
                invariant = is_permutation_invariant(pref, k)
            with span("classify.minimal_naples_k"):
                min_k = minimal_naples_k(pref)
            # find_witness takes the constructive route exactly on members.
            route = _ROUTE_SPAN[member]
            tw = clock()
            witnesses = []
            for interval in prof.intervals:
                with span(route):
                    witnesses.append(find_witness(pref, k, interval))
        t1 = clock()
        latency.append(t1 - t0)
        witness_s.append(t1 - tw)
        answers.append((outcome, pf, member, complete, invariant, min_k, witnesses))
    return latency


def queries_check(inputs: dict, out: dict) -> tuple[int, list[str]]:
    answers = out.pop("answers")
    witness_s = out.pop("witness_s")
    bad = []
    parking = members = exh_calls = exh_found = 0
    exhaustive_s = 0.0
    for (pref, k), ans, ws in zip(inputs["queries"], answers, witness_s):
        outcome, pf, member, _complete, _inv, min_k, witnesses = ans
        tag = f"query {pref.render()} k={k}"
        problems = []
        if pf != park(pref, 0).all_parked:
            problems.append("is_parking_function disagrees with park(pref, 0)")
        if member != outcome.all_parked:
            problems.append("is_k_naples disagrees with park_with_trace")
        if (min_k <= k) != member:
            problems.append(f"minimal_naples_k {min_k} inconsistent with membership")
        for w in witnesses:
            if w is None:
                if member:
                    problems.append("member without a witness")
            elif not check_certificate(pref, k, w):
                problems.append(f"witness {w.indices} fails check_certificate")
        if not member and all(w is not None for w in witnesses):
            problems.append("non-member with a witness on every interval")
        if problems:
            bad.append(f"{tag}: {'; '.join(problems)}")
        parking += pf
        members += member
        if not member:
            exhaustive_s += ws
            exh_calls += len(witnesses)
            exh_found += sum(w is not None for w in witnesses)
    out.update(
        parking=parking,
        members=members,
        exhaustive_s=exhaustive_s,
        exh_calls=exh_calls,
        exh_found=exh_found,
    )
    return len(answers), bad


# --------------------------------------------------------------------------
# cli_oneshot: fresh CLI processes on a fixed command mix.
# --------------------------------------------------------------------------


def _render(prefs) -> str:
    return ",".join(str(a) for a in prefs)


def _excess_zeros(prefs: tuple[int, ...]) -> list[int]:
    """Positions j with excess 0: as many cars prefer spots >= j as there are."""
    n = len(prefs)
    return [j for j in range(1, n + 1) if sum(a >= j for a in prefs) == n - j + 1]


def cli_prepare(size: dict, seed: int, index: int) -> dict:
    rng = _rng(seed, index, 3)
    mix = []
    for _ in range(size["rounds"]):
        n = rng.randint(5, 9)
        p = tuple(rng.randint(1, n) for _ in range(n))
        mix.append(("park", ["park", "-p", _render(p), "-k", str(rng.randint(0, n - 1)), "--trace", "--json"], 0))
        n = rng.randint(5, 9)
        p = tuple(rng.randint(1, n) for _ in range(n))
        mix.append(("classify", ["classify", "-p", _render(p), "-k", str(rng.randint(0, n - 1)), "--json"], 0))
        mix.append(("classify", ["classify", "-p", "2,3,3", "-k", "1", "--expect", "k-naples"], 1))
        n = rng.randint(6, 9)
        p, k = make_query(rng, n, n)
        mix.append(("witness", ["witness", "-p", _render(p), "-k", str(k), "--all", "--json"], 0))
        n = rng.randint(5, 9)
        p = tuple(rng.randint(1, n) for _ in range(n))
        j = rng.choice(_excess_zeros(p))
        mix.append(("decompose", ["decompose", "-p", _render(p), "-j", str(j), "--json"], 0))
        cn = size["count_n"]
        mix.append(("count", ["count", "-n", str(cn), "--k-max", str(cn), "--format", "json"], 0))
        mix.append(("classify", ["classify", "-p", "2,x,3", "-k", "1", "--json"], 2))
    schema = json.loads((ROOT / "schemas" / "cli_output.schema.json").read_text())
    import jsonschema  # here, so only this job's set-up pays for it

    return {"mix": mix, "schema": schema, "jsonschema": jsonschema}


_SCHEMA_DEF = {
    "park": "park",
    "classify": "classify",
    "witness": "witness_report",
    "decompose": "decompose",
    "count": "count",
}

def cli_execute(inputs: dict, tracer) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    if tracer.enabled:
        launcher = [sys.executable, str(HERE / "cli_traced.py")]
    else:
        launcher = [sys.executable, "-m", "naplespf.cli"]
    clock = RefClock()
    runs, latency, raw_latency = [], [], []
    for _command, args, _code in inputs["mix"]:
        with tracer.span("cli.invocation"):
            parent = tracer.current()
            t0 = time.perf_counter()
            proc = subprocess.run(
                launcher + args, capture_output=True, text=True, env=env, cwd=ROOT, timeout=120
            )
            dt = time.perf_counter() - t0
        raw_latency.append(dt)
        latency.append(dt * clock.factor())
        if tracer.enabled:
            for line in proc.stderr.splitlines():
                if line.startswith(SPANS_MARKER):
                    tracer.adopt(json.loads(line[len(SPANS_MARKER):]), parent)
        runs.append((proc.returncode, proc.stdout))
    child_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return {
        "runs": runs,
        "latency_s": latency,
        "raw_latency_s": raw_latency,
        "ref_s": sum(latency),
        "child_rss_mb": child_kb / 1024.0,
        "cal_s": clock.readings,
    }


def _witness_doc(cert) -> dict | None:
    if cert is None:
        return None
    return {
        "interval": list(cert.interval),
        "indices": list(cert.indices),
        "shifted_restriction": list(cert.shifted_restriction.prefs),
    }


def cli_expected(args: list[str]) -> dict:
    """The in-process answer to one JSON-producing CLI invocation."""
    command = args[0]
    opts = dict(zip(args[1::2], args[2::2]))
    if command == "count":
        n = int(opts["-n"])
        return {
            "reports": [
                {"n": n, "k": k, "total": n**n, "shards": 1, "counts": sweep(n, k).counts}
                for k in range(int(opts["--k-max"]) + 1)
            ]
        }
    pref = ParkingPreference.parse(opts["-p"])
    if command == "park":
        outcome, steps = park_with_trace(pref, int(opts["-k"]))
        return {
            "spot_of": list(outcome.spot_of),
            "all_parked": outcome.all_parked,
            "trace": [
                {
                    "car": st.car,
                    "preferred": st.preferred,
                    "backward_checks": list(st.backward_checks),
                    "forward_checks": list(st.forward_checks),
                    "spot": st.spot,
                }
                for st in steps
            ],
        }
    if command == "classify":
        k = int(opts["-k"])
        prof = excess(pref)
        complete = pref.n >= 2 and is_complete(pref)
        member = is_k_naples(pref, k)
        return {
            "preference": list(pref.prefs),
            "n": pref.n,
            "k": k,
            "parking_function": is_parking_function(pref),
            "k_naples": member,
            "complete": complete,
            "complete_k_naples": complete and member,
            "perm_invariant": is_permutation_invariant(pref, k),
            "excess": list(prof.values),
            "critical_intervals": [list(iv) for iv in prof.intervals],
            "max_excess": prof.max_excess,
            "min_naples_k": minimal_naples_k(pref),
        }
    if command == "witness":
        k = int(opts["-k"])
        return {
            "preference": list(pref.prefs),
            "n": pref.n,
            "k": k,
            "k_naples": is_k_naples(pref, k),
            "intervals": [
                {
                    "interval": list(iv),
                    "witness": _witness_doc(find_witness(pref, k, iv)),
                    "all_witnesses": [_witness_doc(c) for c in enumerate_witnesses(pref, k, iv)],
                }
                for iv in excess(pref).intervals
            ],
        }
    if command == "decompose":
        j = int(opts["-j"])
        lower, upper = decompose_at(pref, j)
        return {
            "preference": list(pref.prefs),
            "position": j,
            "lower": list(lower.prefs) if lower else [],
            "upper": list(upper.prefs),
        }
    raise ValueError(f"no in-process answer for {command!r}")


def cli_check(inputs: dict, out: dict) -> tuple[int, list[str]]:
    jsonschema = inputs["jsonschema"]
    schema = inputs["schema"]
    runs = out.pop("runs")
    bad = []
    for (command, args, code), (returncode, stdout) in zip(inputs["mix"], runs):
        tag = f"cli {' '.join(args)}"
        if returncode != code:
            bad.append(f"{tag}: exit {returncode}, expected {code}")
            continue
        if code != 0 or not ("--json" in args or "json" in args):
            continue
        try:
            doc = json.loads(stdout)
            sub = dict(schema)
            sub["$ref"] = f"#/$defs/{_SCHEMA_DEF[command]}"
            jsonschema.validate(doc, sub)
        except (ValueError, jsonschema.ValidationError) as exc:
            bad.append(f"{tag}: invalid output: {str(exc).splitlines()[0]}")
            continue
        if command == "count":
            for report in doc["reports"]:
                del report["elapsed_ms"]
        if doc != cli_expected(args):
            bad.append(f"{tag}: output differs from the in-process answer")
    return len(runs), bad


# --------------------------------------------------------------------------

JOBS = {
    "count_table": (count_prepare, count_execute, count_check),
    "verify": (verify_prepare, verify_execute, verify_check),
    "queries": (queries_prepare, queries_execute, queries_check),
    "cli_oneshot": (cli_prepare, cli_execute, cli_check),
}


def run_pass(spec: dict) -> dict:
    """Prepare, execute and check one pass; return the worker's report."""
    prepare, execute, check = JOBS[spec["job"]]
    inputs = prepare(spec["size"], spec["seed"], spec["index"])
    setup_s = _monotonic() - spec["spawn_t"] if "spawn_t" in spec else 0.0
    setup_cal = calibrate()
    tracer = Tracer() if spec["trace"] else NullTracer()
    t0 = time.perf_counter()
    out = execute(inputs, tracer)
    busy_s = time.perf_counter() - t0
    try:
        ops, bad = check(inputs, out)
    except Exception as exc:  # an oracle that raises fails the whole pass
        ops, bad = 1, [f"{spec['job']}: check raised {exc!r}"]
    return {
        "setup_s": setup_s * CAL_REF_S / setup_cal,
        "raw_setup_s": setup_s,
        "busy_s": busy_s,
        "ops": ops,
        "failed": len(bad),
        "failures": bad[:MAX_REPORTED_FAILURES],
        "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "spans": tracer.spans,
        "samples": out,
        "env": {
            "naplespf_file": naplespf.__file__,
            "use_numba": bool(_kernels.USE_NUMBA),
            "NAPLESPF_DISABLE_NUMBA": os.environ.get("NAPLESPF_DISABLE_NUMBA"),
            "python": sys.version.split()[0],
            "numpy": np.__version__,
            "nproc": os.cpu_count(),
        },
    }


def main() -> None:
    spec = json.loads(sys.argv[1])
    report = run_pass(spec)
    sys.stdout.write(json.dumps(report) + "\n")


if __name__ == "__main__":
    main()
