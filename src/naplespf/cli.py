"""Command-line interface.

Exit codes: 0 success; 1 a checked predicate is false (``classify
--expect``); 2 usage or parse error; 3 a verification check found a
counterexample, either in a sweep or in a single-preference command's
self-check.  :func:`_error_policy` is the one place that turns library
errors into exit codes.  All machine-readable output validates against
``schemas/cli_output.schema.json``.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import sys

import click

# classify, characterize and sweeps are imported by the commands that run
# them, so a one-shot call loads only what it uses
from .core import PREDICATES, ParkingPreference, decompose_at, excess
from .errors import VerificationFailed
from .simulator import park_with_trace

_EXIT_PREDICATE_FALSE = 1
_EXIT_COUNTEREXAMPLE = 3
# sweep --verify stops at n = 7 for time alone: pinned to one vCPU of a Xeon,
# verify_sweep(6) takes about 0.5 s and verify_sweep(7) 7-9 s, and n = 8 has
# 20x as many preferences as n = 7.
_VERIFY_MAX_N = 7


def _error_policy(command):
    """Map library errors raised by a subcommand to exit codes.

    A failed self-check (:class:`VerificationFailed`) exits 3 with its
    message on stderr; any other ``ValueError``, every ``ParkingError``
    included, rejects the command's input as a usage error (exit 2).
    """

    @functools.wraps(command)
    def run(*args, **kwargs):
        try:
            return command(*args, **kwargs)
        except VerificationFailed as exc:
            click.echo(f"Error: {exc}", err=True)
            sys.exit(_EXIT_COUNTEREXAMPLE)
        except ValueError as exc:
            raise click.UsageError(str(exc)) from exc

    return run


def _parse_windows(text: str) -> int | tuple[int, ...]:
    """A uniform window or a per-car list; ``as_windows`` checks the values."""
    values = []
    for token in text.split(","):
        token = token.strip()
        try:
            values.append(int(token))
        except ValueError:
            raise click.UsageError(f"not an integer: {token!r}") from None
    return values[0] if len(values) == 1 else tuple(values)


def _write_text(text: str, output: str | None) -> None:
    """Write ``text`` and a newline to the ``-o`` file, or echo it."""
    if output:
        with open(output, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text + "\n")
    else:
        click.echo(text)


def _report_doc(rep) -> dict:
    """The ``count``/``sweep`` JSON form of one :class:`CountReport`."""
    return {
        "n": rep.n,
        "k": rep.k,
        "total": rep.total,
        "shards": rep.shards,
        "elapsed_ms": round(rep.elapsed * 1000.0, 3),
        "counts": dict(rep.counts),
    }


def _spots_text(spots) -> str:
    return ",".join(str(s) for s in spots) if spots else "-"


def _counterexample_fields(ce) -> dict:
    """What a sweep counterexample reports besides its preference."""
    from .sweeps import MonotoneWindowViolation

    if isinstance(ce, MonotoneWindowViolation):
        return {"windows": list(ce.windows), "car": ce.car, "property": "monotone_windows"}
    return {"n": ce.n, "k": ce.k, "property": ce.property_name}


def _counterexample_json(ce) -> str:
    """The ``sweep --verify --json`` report of a counterexample (always with n)."""
    doc = {"preference": list(ce.pref.prefs), "n": ce.pref.n, **_counterexample_fields(ce)}
    return json.dumps({"verified": False, "counterexample": doc})


def _exit_counterexample(ce, as_json: bool) -> None:
    """Print a sweep counterexample as JSON or as text, and exit 3."""
    if as_json:
        click.echo(_counterexample_json(ce))
    else:
        shown = ", ".join(
            f"{key}={_spots_text(v) if isinstance(v, list) else v}"
            for key, v in _counterexample_fields(ce).items()
        )
        click.echo(f"counterexample: {ce.pref.render()} ({shown})")
    sys.exit(_EXIT_COUNTEREXAMPLE)


@click.group()
def main() -> None:
    """Parking preferences under the k-Naples rule: simulate, classify,
    certify, and count."""


@main.command()
@click.option("-p", "--preference", required=True, help="comma-separated spot preferences")
@click.option(
    "-k",
    "--windows",
    default="0",
    show_default=True,
    help="uniform backward window, or a per-car comma list",
)
@click.option("--trace", is_flag=True, help="show every spot each car probed")
@click.option("--json", "as_json", is_flag=True, help="machine-readable output")
@_error_policy
def park(preference: str, windows: str, trace: bool, as_json: bool) -> None:
    """Run the parking process and print the outcome map."""
    pref = ParkingPreference.parse(preference)
    outcome, steps = park_with_trace(pref, _parse_windows(windows))
    if as_json:
        doc: dict = {"spot_of": list(outcome.spot_of), "all_parked": outcome.all_parked}
        if trace:
            doc["trace"] = [dataclasses.asdict(st) for st in steps]
        click.echo(json.dumps(doc))
        return
    click.echo(f"outcome: {outcome.render()}")
    if trace:
        for st in steps:
            spot = "X" if st.spot is None else str(st.spot)
            click.echo(
                f"car {st.car}: pref {st.preferred}"
                f" back {_spots_text(st.backward_checks)}"
                f" fwd {_spots_text(st.forward_checks)} -> {spot}"
            )


def _classification(pref: ParkingPreference, k: int) -> dict:
    from .classify import (
        is_complete,
        is_k_naples,
        is_parking_function,
        is_permutation_invariant,
        minimal_naples_k,
    )

    prof = excess(pref)
    complete = pref.n >= 2 and is_complete(pref)
    naples = is_k_naples(pref, k)
    return {
        "preference": list(pref.prefs),
        "n": pref.n,
        "k": k,
        "parking_function": is_parking_function(pref),
        "k_naples": naples,
        "complete": complete,
        "complete_k_naples": complete and naples,
        "perm_invariant": is_permutation_invariant(pref, k),
        "excess": list(prof.values),
        "critical_intervals": [list(iv) for iv in prof.intervals],
        "max_excess": prof.max_excess,
        "min_naples_k": minimal_naples_k(pref),
    }


@main.command()
@click.option("-p", "--preference", required=True)
@click.option("-k", "--window", type=int, default=0, show_default=True)
@click.option("--json", "as_json", is_flag=True)
@click.option(
    "--expect",
    default=None,
    help="exit 1 unless this predicate holds (e.g. k-naples, parking-function)",
)
@_error_policy
def classify(preference: str, window: int, as_json: bool, expect: str | None) -> None:
    """Classify a preference: parking function, k-Naples, complete, invariant."""
    pref = ParkingPreference.parse(preference)
    name = None if expect is None else expect.strip().lower().replace("-", "_")
    if name is not None and name not in PREDICATES:
        raise click.UsageError(
            f"unknown predicate {expect!r}; choose from {', '.join(PREDICATES)}"
        )
    doc = _classification(pref, window)
    if as_json:
        click.echo(json.dumps(doc))
    else:
        for key in PREDICATES:
            click.echo(f"{key}: {'true' if doc[key] else 'false'}")
        click.echo(f"max_excess: {doc['max_excess']}")
        click.echo(f"excess: {','.join(str(u) for u in doc['excess'])}")
        intervals = " ".join(f"[{p},{q}]" for p, q in doc["critical_intervals"])
        click.echo(f"critical_intervals: {intervals or '-'}")
        click.echo(f"min_naples_k: {doc['min_naples_k']}")
    if name is not None and not doc[name]:
        sys.exit(_EXIT_PREDICATE_FALSE)


def _witness_doc(cert) -> dict | None:
    if cert is None:
        return None
    return {
        "interval": list(cert.interval),
        "indices": list(cert.indices),
        "shifted_restriction": list(cert.shifted_restriction.prefs),
    }


def _witness_text(doc: dict) -> str:
    shifted = _spots_text(doc["shifted_restriction"])
    return f"J={{{_spots_text(doc['indices'])}}} shifted={shifted}"


@main.command()
@click.option("-p", "--preference", required=True)
@click.option("-k", "--window", type=int, required=True)
@click.option("--all", "all_witnesses", is_flag=True, help="enumerate every witness")
@click.option("--json", "as_json", is_flag=True)
@_error_policy
def witness(preference: str, window: int, all_witnesses: bool, as_json: bool) -> None:
    """Show, per critical interval, a witness subset certifying membership."""
    from .characterize import enumerate_witnesses, find_witness
    from .classify import is_k_naples

    pref = ParkingPreference.parse(preference)
    if window < 1:
        raise click.UsageError(f"witness extraction needs a window >= 1, got {window}")
    entries = []
    for iv in excess(pref).intervals:
        cert = find_witness(pref, window, iv)
        entry = {"interval": list(iv), "witness": _witness_doc(cert)}
        if all_witnesses:
            entry["all_witnesses"] = [
                _witness_doc(c) for c in enumerate_witnesses(pref, window, iv)
            ]
        entries.append(entry)
    doc = {
        "preference": list(pref.prefs),
        "n": pref.n,
        "k": window,
        "k_naples": is_k_naples(pref, window),
        "intervals": entries,
    }
    if as_json:
        click.echo(json.dumps(doc))
        return
    click.echo(f"k_naples: {'true' if doc['k_naples'] else 'false'}")
    if not entries:
        click.echo("no critical intervals")
    for entry in entries:
        p, q = entry["interval"]
        if entry["witness"] is None:
            click.echo(f"interval [{p},{q}]: FAIL no witness")
        else:
            click.echo(f"interval [{p},{q}]: PASS {_witness_text(entry['witness'])}")
        for other in entry.get("all_witnesses", ()):
            click.echo(f"  witness {_witness_text(other)}")


@main.command()
@click.option("-p", "--preference", required=True)
@click.option("-j", "--position", type=int, required=True, help="split position (excess must be 0)")
@click.option("--json", "as_json", is_flag=True)
@_error_policy
def decompose(preference: str, position: int, as_json: bool) -> None:
    """Split a preference at a zero of the excess into lower and upper parts."""
    pref = ParkingPreference.parse(preference)
    lower, upper = decompose_at(pref, position)
    if as_json:
        doc = {
            "preference": list(pref.prefs),
            "position": position,
            "lower": list(lower.prefs) if lower else [],
            "upper": list(upper.prefs),
        }
        click.echo(json.dumps(doc))
        return
    click.echo(f"lower: {lower.render() if lower else '-'}")
    click.echo(f"upper: {upper.render()}")


@main.command()
@click.option("-n", "--length", "n", type=int, required=True)
@click.option("-k", "--window", type=int, default=None, help="single window value")
@click.option("--k-max", type=int, default=None, help="sweep windows 0..k-max instead")
@click.option("--predicates", default=None, help=f"comma list from: {','.join(PREDICATES)}")
@click.option("--shards", type=int, default=1, show_default=True)
@click.option("--format", "fmt", type=click.Choice(["csv", "json"]), default="csv", show_default=True)
@click.option("-o", "--output", type=click.Path(dir_okay=False), default=None)
@click.option("--classes", is_flag=True, help="also count invariant multiset classes")
@_error_policy
def count(
    n: int,
    window: int | None,
    k_max: int | None,
    predicates: str | None,
    shards: int,
    fmt: str,
    output: str | None,
    classes: bool,
) -> None:
    """Count predicate hits over all n^n preferences."""
    if window is not None and k_max is not None:
        raise click.UsageError("give either -k or --k-max, not both")
    if k_max is not None and k_max < 0:
        raise click.UsageError(f"need --k-max >= 0, got {k_max}")
    if k_max is not None and k_max > n:
        raise click.UsageError(f"need --k-max <= n = {n}, got {k_max}")
    if window is not None and not 0 <= window <= n:
        raise click.UsageError(f"need 0 <= -k <= n = {n}, got {window}")
    ks = [window] if window is not None else list(range(0, (k_max if k_max is not None else n) + 1))
    if predicates:
        names = tuple(dict.fromkeys(t.strip() for t in predicates.split(",")))
    else:
        names = PREDICATES
    from . import sweeps

    docs = [_report_doc(sweeps.sweep(n, k, predicates=names, shards=shards)) for k in ks]
    if classes:
        names += ("perm_invariant_classes",)
        for doc in docs:
            doc["counts"]["perm_invariant_classes"] = sweeps.count_perm_invariant_fast(
                doc["n"], doc["k"], by_class=True
            )
    if fmt == "json":
        text = json.dumps({"reports": docs})
    else:
        lines = ["n,k,predicate,count,total,elapsed_ms"]
        for doc in docs:
            lines += [
                f"{doc['n']},{doc['k']},{name},{doc['counts'][name]},"
                f"{doc['total']},{doc['elapsed_ms']}"
                for name in names
            ]
        text = "\n".join(lines)
    _write_text(text, output)


@main.command(name="sweep")
@click.option("--n-max", type=int, default=4, show_default=True)
@click.option("--k-max", type=int, default=None, help="defaults to n for each length")
@click.option("--verify", is_flag=True, help="machine-check every registered invariant")
@click.option("--json", "as_json", is_flag=True)
@_error_policy
def sweep_cmd(n_max: int, k_max: int | None, verify: bool, as_json: bool) -> None:
    """Sweep all lengths up to n-max; with --verify, hunt for counterexamples."""
    if n_max < 1:
        raise click.UsageError(f"need n-max >= 1, got {n_max}")
    suffix = " with --verify" if verify else ""
    if verify:
        cap = _VERIFY_MAX_N
    else:
        from . import _kernels  # loads numpy, which the counting sweep needs anyway

        cap = _kernels.MAX_N
    if n_max > cap:
        raise click.UsageError(f"need --n-max <= {cap}{suffix}, got {n_max}")
    floor = 1 if verify else 0  # --verify checks windows 1..k-max
    if k_max is not None and k_max < floor:
        raise click.UsageError(f"need --k-max >= {floor}{suffix}, got {k_max}")
    from . import sweeps

    if not verify:
        doc = []
        for n in range(1, n_max + 1):
            for k in range(0, min(k_max if k_max is not None else n, n) + 1):
                rep = sweeps.sweep(n, k)
                doc.append(_report_doc(rep))
                if not as_json:
                    counts = " ".join(f"{name}={rep.counts[name]}" for name in rep.counts)
                    click.echo(f"n={n} k={k} total={rep.total} {counts}")
        if as_json:
            click.echo(json.dumps({"reports": doc}))
        return
    try:
        for n in range(1, n_max + 1):
            ks = range(1, min(k_max if k_max is not None else n, n) + 1)
            ce = sweeps.verify_sweep(n, ks=list(ks))
            if ce is not None:
                _exit_counterexample(ce, as_json)
            if not as_json:
                click.echo(f"n={n}: all invariants hold")
        violation = sweeps.find_monotone_window_violation(n_max)
    except VerificationFailed as exc:
        # a self-check failed inside the sweep: report its case as a
        # counterexample, then let _error_policy exit 3
        hit = exc.counterexample
        if as_json and isinstance(hit, (sweeps.Counterexample, sweeps.MonotoneWindowViolation)):
            click.echo(_counterexample_json(hit))
        raise
    if violation is not None:
        _exit_counterexample(violation, as_json)
    if as_json:
        click.echo(json.dumps({"verified": True, "counterexample": None}))
    else:
        click.echo("verified: no counterexamples")


if __name__ == "__main__":
    main()
