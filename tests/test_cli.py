import dataclasses
import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import jsonschema
import pytest
from click.testing import CliRunner

from helpers import SRC
from naplespf.cli import main

SCHEMA = json.loads(
    (Path(__file__).parent.parent / "schemas" / "cli_output.schema.json").read_text()
)


def validate(doc, definition):
    schema = dict(SCHEMA)
    schema["$ref"] = f"#/$defs/{definition}"
    jsonschema.validate(doc, schema)


@pytest.fixture
def runner():
    return CliRunner()


class TestPark:
    def test_outcome_line(self, runner):
        result = runner.invoke(main, ["park", "-p", "3,4,4,4,3", "-k", "3"])
        assert result.exit_code == 0
        assert result.output == "outcome: 3,4,2,1,5\n"

    def test_classical_identity(self, runner):
        result = runner.invoke(main, ["park", "-p", "1,2,3", "-k", "0"])
        assert result.exit_code == 0
        assert result.output == "outcome: 1,2,3\n"

    def test_unparked_rendering(self, runner):
        result = runner.invoke(main, ["park", "-p", "2,3,3", "-k", "1"])
        assert result.output == "outcome: 2,3,X\n"

    def test_trace_lines(self, runner):
        result = runner.invoke(main, ["park", "-p", "3,4,4,4,3", "-k", "3", "--trace"])
        lines = result.output.splitlines()
        assert lines[0] == "outcome: 3,4,2,1,5"
        assert lines[3] == "car 3: pref 4 back 3,2 fwd - -> 2"
        assert lines[5] == "car 5: pref 3 back 2,1 fwd 4,5 -> 5"

    def test_per_car_windows(self, runner):
        result = runner.invoke(main, ["park", "-p", "2,3,3", "-k", "0,0,2"])
        assert result.output == "outcome: 2,3,1\n"

    def test_json_output(self, runner):
        result = runner.invoke(
            main, ["park", "-p", "2,3,3", "-k", "1", "--trace", "--json"]
        )
        doc = json.loads(result.output)
        validate(doc, "park")
        assert doc["spot_of"] == [2, 3, None]
        assert doc["all_parked"] is False
        assert doc["trace"][2]["backward_checks"] == [2]

    def test_bad_preference_exits_2(self, runner):
        result = runner.invoke(main, ["park", "-p", "1,zzz,3"])
        assert result.exit_code == 2
        assert "zzz" in result.output

    def test_bad_window_count_exits_2(self, runner):
        result = runner.invoke(main, ["park", "-p", "1,2,3", "-k", "1,2"])
        assert result.exit_code == 2


class TestClassify:
    def test_text_output(self, runner):
        result = runner.invoke(main, ["classify", "-p", "2,3,3", "-k", "1"])
        assert result.exit_code == 0
        lines = result.output.splitlines()
        assert "parking_function: false" in lines
        assert "k_naples: false" in lines
        assert "max_excess: 1" in lines
        assert "excess: 0,1,1" in lines
        assert "critical_intervals: [2,3]" in lines

    def test_json_output(self, runner):
        result = runner.invoke(main, ["classify", "-p", "2,3,3", "-k", "1", "--json"])
        doc = json.loads(result.output)
        validate(doc, "classify")
        assert doc["k_naples"] is False
        assert doc["max_excess"] == 1
        assert doc["excess"] == [0, 1, 1]
        assert doc["perm_invariant"] is False
        assert doc["min_naples_k"] == 2

    def test_expect_pass(self, runner):
        result = runner.invoke(
            main, ["classify", "-p", "3,4,4,4,3", "-k", "3", "--expect", "k-naples"]
        )
        assert result.exit_code == 0

    def test_expect_fail_exits_1(self, runner):
        result = runner.invoke(
            main, ["classify", "-p", "2,3,3", "-k", "1", "--expect", "k-naples"]
        )
        assert result.exit_code == 1

    def test_expect_unknown_exits_2(self, runner):
        result = runner.invoke(
            main, ["classify", "-p", "1,2", "-k", "1", "--expect", "bogus"]
        )
        assert result.exit_code == 2
        assert result.stdout == ""


class TestWitness:
    def test_pass_line(self, runner):
        result = runner.invoke(
            main, ["witness", "-p", "8,4,7,1,6,8,7,5,10,1", "-k", "2"]
        )
        assert result.exit_code == 0
        assert "k_naples: true" in result.output
        assert "interval [4,7]: PASS J={2,3,5,7,8} shifted=2,5,4,5,3" in result.output

    def test_all_witnesses(self, runner):
        result = runner.invoke(
            main, ["witness", "-p", "8,4,7,1,6,8,7,5,10,1", "-k", "2", "--all"]
        )
        assert "witness J={2,3,5,7,8} shifted=2,5,4,5,3" in result.output
        assert "witness J={1,2,3,6,7,8} shifted=6,2,5,6,5,3" in result.output
        assert "witness J={1,2,5,6,7,8} shifted=6,2,4,6,5,3" in result.output

    def test_fail_line(self, runner):
        result = runner.invoke(main, ["witness", "-p", "2,3,3", "-k", "1"])
        assert result.exit_code == 0
        assert "k_naples: false" in result.output
        assert "interval [2,3]: FAIL no witness" in result.output

    def test_parking_function_has_no_intervals(self, runner):
        result = runner.invoke(main, ["witness", "-p", "1,2,3", "-k", "1"])
        assert "no critical intervals" in result.output

    def test_json_output(self, runner):
        result = runner.invoke(
            main,
            ["witness", "-p", "8,4,7,1,6,8,7,5,10,1", "-k", "2", "--all", "--json"],
        )
        doc = json.loads(result.output)
        validate(doc, "witness_report")
        assert doc["k_naples"] is True
        entry = doc["intervals"][0]
        assert entry["interval"] == [4, 7]
        assert entry["witness"]["indices"] == [2, 3, 5, 7, 8]
        assert [2, 3, 5, 7, 8] in [w["indices"] for w in entry["all_witnesses"]]

    def test_zero_window_exits_2(self, runner):
        result = runner.invoke(main, ["witness", "-p", "2,3,3", "-k", "0"])
        assert result.exit_code == 2

    def test_no_size_cap(self, runner):
        thirteen = ",".join(["13"] * 13)
        result = runner.invoke(main, ["witness", "-p", thirteen, "-k", "1"])
        assert result.exit_code == 0
        assert "interval [2,13]: FAIL no witness" in result.output
        # enumerating every witness is a 2^n scan, capped at n <= 12
        result = runner.invoke(
            main, ["witness", "-p", thirteen, "-k", "1", "--all"]
        )
        assert result.exit_code == 2


class TestExcessProfileOnce:
    @pytest.mark.parametrize(
        "command", [["classify", "--json"], ["witness", "--all", "--json"]]
    )
    def test_one_profile_per_preference(self, runner, monkeypatch, command):
        from naplespf import core

        made = []  # holds every preference, so no two share an id
        real = core._excess_profile

        def recording(pref):
            made.append(pref)
            return real(pref)

        monkeypatch.setattr(core, "_excess_profile", recording)
        args = command + ["-p", "8,4,7,1,6,8,7,5,10,1", "-k", "2"]
        result = runner.invoke(main, args)
        assert result.exit_code == 0
        assert sum(p.prefs == (8, 4, 7, 1, 6, 8, 7, 5, 10, 1) for p in made) == 1
        assert len({id(p) for p in made}) == len(made)


class TestDecompose:
    def test_text_output(self, runner):
        result = runner.invoke(main, ["decompose", "-p", "4,4,3,2,3", "-j", "4"])
        assert result.exit_code == 0
        assert result.output == "lower: 3,2,3\nupper: 1,1\n"

    def test_position_one(self, runner):
        result = runner.invoke(main, ["decompose", "-p", "2,1,3", "-j", "1"])
        assert result.output == "lower: -\nupper: 2,1,3\n"

    def test_json_output(self, runner):
        result = runner.invoke(
            main, ["decompose", "-p", "4,4,3,2,3", "-j", "4", "--json"]
        )
        doc = json.loads(result.output)
        validate(doc, "decompose")
        assert doc["lower"] == [3, 2, 3]
        assert doc["upper"] == [1, 1]

    def test_nonzero_excess_exits_2(self, runner):
        result = runner.invoke(main, ["decompose", "-p", "2,3,3", "-j", "2"])
        assert result.exit_code == 2


class TestCount:
    def test_csv_output(self, runner):
        result = runner.invoke(main, ["count", "-n", "3", "-k", "1"])
        assert result.exit_code == 0
        lines = result.output.splitlines()
        assert lines[0] == "n,k,predicate,count,total,elapsed_ms"
        by_predicate = {
            line.split(",")[2]: line.split(",")[3] for line in lines[1:]
        }
        assert by_predicate["parking_function"] == "16"
        assert by_predicate["k_naples"] == "24"

    def test_k_range(self, runner):
        result = runner.invoke(
            main, ["count", "-n", "2", "--k-max", "2", "--predicates", "k_naples"]
        )
        rows = [line.split(",") for line in result.output.splitlines()[1:]]
        assert [(r[1], r[3]) for r in rows] == [("0", "3"), ("1", "4"), ("2", "4")]

    def test_json_output(self, runner):
        result = runner.invoke(
            main, ["count", "-n", "3", "-k", "1", "--format", "json", "--classes"]
        )
        doc = json.loads(result.output)
        validate(doc, "count")
        report = doc["reports"][0]
        assert report["counts"]["k_naples"] == 24
        assert "perm_invariant_classes" in report["counts"]

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_classes_counted_once_per_report(self, runner, monkeypatch, fmt):
        from naplespf import sweeps

        calls = []
        real = sweeps.count_perm_invariant_fast

        def counting(n, k, by_class=False):
            calls.append((n, k))
            return real(n, k, by_class=by_class)

        monkeypatch.setattr(sweeps, "count_perm_invariant_fast", counting)
        args = ["count", "-n", "3", "--k-max", "3", "--classes", "--format", fmt]
        assert runner.invoke(main, args).exit_code == 0
        assert calls == [(3, k) for k in range(4)]

    def test_classes_agree_between_csv_and_json(self, runner):
        args = ["count", "-n", "4", "--k-max", "4", "--classes"]
        csv_rows = [
            line.split(",") for line in runner.invoke(main, args).output.splitlines()
        ]
        from_csv = {
            int(row[1]): int(row[3])
            for row in csv_rows[1:]
            if row[2] == "perm_invariant_classes"
        }
        doc = json.loads(runner.invoke(main, args + ["--format", "json"]).output)
        from_json = {
            rep["k"]: rep["counts"]["perm_invariant_classes"] for rep in doc["reports"]
        }
        assert from_csv == from_json
        assert sorted(from_csv) == [0, 1, 2, 3, 4]

    def test_repeated_predicates_listed_once(self, runner):
        args = ["count", "-n", "3", "-k", "1", "--predicates", "k_naples,complete,k_naples"]
        csv_rows = runner.invoke(main, args).output.splitlines()[1:]
        doc = json.loads(runner.invoke(main, args + ["--format", "json"]).output)
        from_csv = [row.split(",")[2] for row in csv_rows]
        assert from_csv == ["k_naples", "complete"]
        assert sorted(doc["reports"][0]["counts"]) == sorted(from_csv)

    def test_output_file(self, runner, tmp_path):
        target = tmp_path / "out.csv"
        result = runner.invoke(
            main, ["count", "-n", "2", "-k", "0", "-o", str(target)]
        )
        assert result.exit_code == 0
        assert target.read_text().startswith("n,k,predicate")

    def test_csv_file_matches_stdout(self, runner, monkeypatch, tmp_path):
        from naplespf import sweeps

        real = sweeps.sweep

        def fixed_elapsed(*args, **kwargs):
            return dataclasses.replace(real(*args, **kwargs), elapsed=0.0125)

        monkeypatch.setattr(sweeps, "sweep", fixed_elapsed)
        args = ["count", "-n", "3", "--k-max", "2", "--classes"]
        echoed = runner.invoke(main, args)
        target = tmp_path / "out.csv"
        written = runner.invoke(main, args + ["-o", str(target)])
        assert echoed.exit_code == written.exit_code == 0
        assert written.stdout_bytes == b""
        assert target.read_bytes() == echoed.stdout_bytes
        assert echoed.stdout_bytes.endswith(b",12.5\n")

    def test_conflicting_window_options(self, runner):
        result = runner.invoke(main, ["count", "-n", "2", "-k", "1", "--k-max", "2"])
        assert result.exit_code == 2

    def test_size_cap(self, runner):
        result = runner.invoke(main, ["count", "-n", "12", "-k", "0"])
        assert result.exit_code == 2
        assert "n <= 11" in result.stderr

    def test_counts_n_9(self, runner):
        result = runner.invoke(main, ["count", "-n", "9", "-k", "0"])
        assert result.exit_code == 0
        assert "9,0,parking_function,100000000,387420489," in result.stdout

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_negative_k_max_exits_2(self, runner, fmt):
        args = ["count", "-n", "3", "--k-max", "-1", "--format", fmt]
        result = runner.invoke(main, args)
        assert result.exit_code == 2
        assert result.stdout == ""
        assert "Error: need --k-max >= 0, got -1" in result.stderr

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize(
        "extra, message",
        [
            (["--k-max", "4"], "need --k-max <= n = 3, got 4"),
            (["-k", "4"], "need 0 <= -k <= n = 3, got 4"),
            (["-k", "-1"], "need 0 <= -k <= n = 3, got -1"),
        ],
        ids=["k-max", "k", "negative-k"],
    )
    def test_window_outside_0_n_exits_2_before_counting(
        self, runner, monkeypatch, fmt, extra, message
    ):
        from naplespf import sweeps

        calls = []

        def record(*args, **kwargs):
            calls.append(args)

        monkeypatch.setattr(sweeps, "sweep", record)
        result = runner.invoke(main, ["count", "-n", "3", *extra, "--format", fmt])
        assert result.exit_code == 2
        assert result.stdout == ""
        assert f"Error: {message}" in result.stderr
        assert calls == []


class TestSweep:
    def test_verify_clean(self, runner):
        result = runner.invoke(main, ["sweep", "--n-max", "3", "--verify"])
        assert result.exit_code == 0
        assert "no counterexamples" in result.output

    def test_verify_json(self, runner):
        result = runner.invoke(
            main, ["sweep", "--n-max", "2", "--verify", "--json"]
        )
        doc = json.loads(result.output)
        validate(doc, "sweep")
        assert doc == {"verified": True, "counterexample": None}

    @pytest.mark.parametrize("json_flag", [[], ["--json"]], ids=["text", "json"])
    @pytest.mark.parametrize(
        "extra, message",
        [
            (["--k-max", "-1"], "need --k-max >= 0, got -1"),
            (["--k-max", "-1", "--verify"], "need --k-max >= 1 with --verify, got -1"),
            (["--k-max", "0", "--verify"], "need --k-max >= 1 with --verify, got 0"),
        ],
        ids=["negative", "negative-verify", "zero-verify"],
    )
    def test_bad_k_max_exits_2(self, runner, json_flag, extra, message):
        result = runner.invoke(main, ["sweep", "--n-max", "3", *extra, *json_flag])
        assert result.exit_code == 2
        assert result.stdout == ""
        assert f"Error: {message}" in result.stderr

    @pytest.mark.parametrize("json_flag", [[], ["--json"]], ids=["text", "json"])
    @pytest.mark.parametrize(
        "extra, message",
        [
            (["--n-max", "12"], "need --n-max <= 11, got 12"),
            (["--n-max", "8", "--verify"], "need --n-max <= 7 with --verify, got 8"),
        ],
        ids=["count", "verify"],
    )
    def test_n_max_above_cap_exits_2_before_work(
        self, runner, monkeypatch, json_flag, extra, message
    ):
        from naplespf import sweeps

        calls = []

        def record(*args, **kwargs):
            calls.append(args)

        monkeypatch.setattr(sweeps, "sweep", record)
        monkeypatch.setattr(sweeps, "verify_sweep", record)
        monkeypatch.setattr(sweeps, "iter_preferences", record)
        result = runner.invoke(main, ["sweep", *extra, *json_flag])
        assert result.exit_code == 2
        assert result.stdout == ""
        assert f"Error: {message}" in result.stderr
        assert calls == []

    def test_verify_with_k_max_one(self, runner):
        result = runner.invoke(main, ["sweep", "--n-max", "3", "--k-max", "1", "--verify"])
        assert result.exit_code == 0
        assert result.output.splitlines()[-1] == "verified: no counterexamples"

    def test_counts_listing(self, runner):
        result = runner.invoke(main, ["sweep", "--n-max", "2"])
        assert result.exit_code == 0
        assert "n=2 k=1" in result.output

    def test_counts_json(self, runner):
        result = runner.invoke(main, ["sweep", "--n-max", "2", "--json"])
        doc = json.loads(result.output)
        validate(doc, "sweep")
        assert doc["reports"][0]["n"] == 1

    @pytest.mark.parametrize("as_json", [False, True], ids=["text", "json"])
    def test_theorem_counterexample_report(self, runner, monkeypatch, as_json):
        from naplespf import Counterexample, ParkingPreference, sweeps

        ce = Counterexample(ParkingPreference((2, 3, 3)), 3, 1, "tail_lemma")
        monkeypatch.setattr(sweeps, "verify_sweep", lambda n, ks: ce)
        args = ["sweep", "--n-max", "4", "--verify"]
        result = runner.invoke(main, args + ["--json"] * as_json)
        assert result.exit_code == 3
        if not as_json:
            assert result.output == (
                "counterexample: 2,3,3 (n=3, k=1, property=tail_lemma)\n"
            )
            return
        validate(json.loads(result.output), "sweep")
        assert result.output == json.dumps(
            {
                "verified": False,
                "counterexample": {
                    "preference": [2, 3, 3],
                    "n": 3,
                    "k": 1,
                    "property": "tail_lemma",
                },
            }
        ) + "\n"

    @pytest.mark.parametrize("as_json", [False, True], ids=["text", "json"])
    def test_monotone_window_counterexample_report(
        self, runner, monkeypatch, as_json
    ):
        from naplespf import MonotoneWindowViolation, ParkingPreference, sweeps

        violation = MonotoneWindowViolation(ParkingPreference((1, 3, 2)), (0, 2, 1), 2)
        monkeypatch.setattr(sweeps, "verify_sweep", lambda n, ks: None)
        monkeypatch.setattr(
            sweeps, "find_monotone_window_violation", lambda n_max: violation
        )
        args = ["sweep", "--n-max", "2", "--verify"]
        result = runner.invoke(main, args + ["--json"] * as_json)
        assert result.exit_code == 3
        if not as_json:
            assert result.output == (
                "n=1: all invariants hold\n"
                "n=2: all invariants hold\n"
                "counterexample: 1,3,2 (windows=0,2,1, car=2, property=monotone_windows)\n"
            )
            return
        validate(json.loads(result.output), "sweep")
        assert result.output == json.dumps(
            {
                "verified": False,
                "counterexample": {
                    "preference": [1, 3, 2],
                    "n": 3,
                    "windows": [0, 2, 1],
                    "car": 2,
                    "property": "monotone_windows",
                },
            }
        ) + "\n"


class TestErrorPolicy:
    """``cli._error_policy`` alone turns library errors into exit codes."""

    # sweep --verify --json reports the case whose self-check failed as a
    # counterexample; the single-preference commands print nothing
    _SWEEP_CE = {"preference": [2, 2], "n": 2, "k": 1, "property": "main_characterization"}

    @pytest.mark.parametrize(
        "args, stdout",
        [
            (["witness", "-p", "2,2,3", "-k", "1"], ""),
            (["witness", "-p", "2,2,3", "-k", "1", "--json"], ""),
            (
                ["sweep", "--n-max", "3", "--verify", "--json"],
                json.dumps({"verified": False, "counterexample": _SWEEP_CE}) + "\n",
            ),
        ],
        ids=["witness-text", "witness-json", "sweep-json"],
    )
    def test_failed_certificate_recheck_exits_3(self, runner, monkeypatch, args, stdout):
        from naplespf import _verify, characterize

        # the scalar re-check, and the flat engine's behind sweep --verify
        monkeypatch.setattr(characterize, "check_certificate", lambda *a: False)
        monkeypatch.setattr(
            _verify, "_certificates_hold", lambda prefs, p, q, chosen, window: p < 0
        )
        result = runner.invoke(main, args)
        assert result.exit_code == 3
        assert result.stdout == stdout
        if stdout:
            validate(json.loads(stdout), "sweep")
        assert result.stderr.startswith(
            "Error: extracted witness (1, 2) for (2, 2) of 2,2"
        )

    def test_unconfirmed_monotone_hit_reported_as_json(self, runner, monkeypatch):
        from naplespf import MonotoneWindowViolation, ParkingPreference, VerificationFailed, sweeps

        hit = MonotoneWindowViolation(ParkingPreference((1, 3, 2)), (0, 2, 1), 2)

        def unconfirmed(n_max):
            raise VerificationFailed("the simulator does not confirm", hit)

        monkeypatch.setattr(sweeps, "verify_sweep", lambda n, ks: None)
        monkeypatch.setattr(sweeps, "find_monotone_window_violation", unconfirmed)
        result = runner.invoke(main, ["sweep", "--n-max", "2", "--verify", "--json"])
        assert result.exit_code == 3
        doc = json.loads(result.stdout)
        validate(doc, "sweep")
        assert doc["counterexample"] == {
            "preference": [1, 3, 2],
            "n": 3,
            "windows": [0, 2, 1],
            "car": 2,
            "property": "monotone_windows",
        }
        assert result.stderr == "Error: the simulator does not confirm\n"

    def test_failed_classify_self_check_exits_3(self, runner, monkeypatch):
        from naplespf import classify
        from naplespf.simulator import ParkingOutcome

        monkeypatch.setattr(
            classify, "park_uniform", lambda pref, k: ParkingOutcome((None,) * pref.n)
        )
        args = ["classify", "-p", "1,1,2", "-k", "1", "--expect", "parking-function"]
        result = runner.invoke(main, args)
        assert result.exit_code == 3
        assert result.stdout == ""
        assert result.stderr == "Error: excess and parking disagree on 1,1,2\n"

    @pytest.mark.parametrize(
        "windows, message",
        [
            ("1,-2,0", "backward window must be >= 0, got -2"),
            ("1,y", "not an integer: 'y'"),
        ],
        ids=["negative", "not-integer"],
    )
    def test_bad_per_car_window_exits_2(self, runner, windows, message):
        result = runner.invoke(main, ["park", "-p", "1,2,3", "-k", windows])
        assert result.exit_code == 2
        assert result.stdout == ""
        assert result.stderr.endswith(f"Error: {message}\n")

    def test_every_command_is_wrapped(self):
        import naplespf.cli as cli_module

        wrapped = cli_module._error_policy(lambda: None).__code__
        assert main.commands
        for name, command in main.commands.items():
            assert command.callback.__code__ is wrapped, name


_CLASSIFY, _CHARACTERIZE, _SWEEPS = (
    "naplespf.classify",
    "naplespf.characterize",
    "naplespf.sweeps",
)
_LAZY_MODULES = (
    "numpy",
    "naplespf._kernels",
    "naplespf._verify",
    _CLASSIFY,
    _CHARACTERIZE,
    _SWEEPS,
    "concurrent.futures",
)

# What counting loads: the sweeps, the kernels and numpy; never a thread pool.
_COUNT_MODULES = ["numpy", "naplespf._kernels", _SWEEPS]

# What a verification sweep loads: the sweeps, the engine, the parking step
# it shares with counting, numpy, and the witness code the engine reuses
# (characterize, which loads classify); never a thread pool.
_VERIFY_MODULES = (
    "numpy",
    "naplespf._kernels",
    "naplespf._verify",
    _CLASSIFY,
    _CHARACTERIZE,
    _SWEEPS,
)

# Runs ``import naplespf`` and then each command of argv[1] in turn in one
# interpreter, recording which of _LAZY_MODULES are loaded after each step.
_FRESH_SCRIPT = textwrap.dedent(
    f"""
    import json, sys
    lazy = {_LAZY_MODULES!r}
    import naplespf
    steps = [{{"loaded": [m for m in lazy if m in sys.modules]}}]
    from click.testing import CliRunner
    from naplespf.cli import main
    for args in json.loads(sys.argv[1]):
        result = CliRunner().invoke(main, args)
        steps.append({{
            "exit": result.exit_code,
            "output": result.output,
            "loaded": [m for m in lazy if m in sys.modules],
        }})
    print(json.dumps(steps))
    """
)


def _run_fresh(commands):
    proc = subprocess.run(
        [sys.executable, "-c", _FRESH_SCRIPT, json.dumps(commands)],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=SRC),
        check=True,
    )
    return json.loads(proc.stdout)


def _without_elapsed(doc):
    for rep in doc["reports"]:
        del rep["elapsed_ms"]
    return doc


class TestLazyImports:
    def test_single_preference_commands_skip_counting_modules(self, runner):
        # one interpreter runs the commands in turn, so each step lists what
        # that command and the ones before it loaded
        commands = [
            ["park", "-p", "3,4,4,4,3", "-k", "3", "--trace", "--json"],
            ["decompose", "-p", "1,1,3,3", "-j", "3", "--json"],
            ["park", "-p", "1,x"],
            ["classify", "-p", "2,3,3", "-k", "1", "--json"],
            ["witness", "-p", "2,3,3", "-k", "1", "--all", "--json"],
        ]
        steps = _run_fresh(commands)
        assert [step["loaded"] for step in steps] == [
            [],  # import naplespf
            [],
            [],
            [],
            [_CLASSIFY],
            [_CLASSIFY, _CHARACTERIZE],
        ]
        assert [step["exit"] for step in steps[1:]] == [0, 0, 2, 0, 0]
        for args, step in zip(commands, steps[1:]):
            if step["exit"] == 0:
                assert step["output"] == runner.invoke(main, args).output

    def test_count_loads_only_counting_modules(self, runner):
        count = ["count", "-n", "4", "--k-max", "4", "--format", "json"]
        steps = _run_fresh([count, count + ["--shards", "2"]])
        assert [step["loaded"] for step in steps] == [[], _COUNT_MODULES, _COUNT_MODULES]
        assert [step["exit"] for step in steps[1:]] == [0, 0]
        docs = [_without_elapsed(json.loads(step["output"])) for step in steps[1:]]
        assert docs[0] == _without_elapsed(json.loads(runner.invoke(main, count).output))
        assert docs[1]["reports"] == [
            dict(rep, shards=2) for rep in docs[0]["reports"]
        ]
        assert [rep["counts"]["k_naples"] for rep in docs[0]["reports"]] == [
            125, 203, 240, 256, 256,
        ]

    def test_theorem_sweep_skips_counting_modules(self):
        # verification runs on the flat engine: it loads numpy, the kernels'
        # parking step and the engine, and nothing else that import skips
        script = (
            "import json, sys\n"
            "from naplespf import verify_sweep\n"
            "ce = verify_sweep(4)\n"
            f"lazy = {_LAZY_MODULES!r}\n"
            "print(json.dumps([ce is None, [m for m in lazy if m in sys.modules]]))\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True,
            text=True,
            env=dict(os.environ, PYTHONPATH=SRC),
            check=True,
        )
        assert json.loads(proc.stdout) == [True, list(_VERIFY_MODULES)]

    def test_verification_sweep_skips_counting_modules(self):
        (start, step) = _run_fresh([["sweep", "--n-max", "3", "--verify", "--json"]])
        assert start["loaded"] == []
        assert step["exit"] == 0
        assert json.loads(step["output"]) == {"verified": True, "counterexample": None}
        assert step["loaded"] == list(_VERIFY_MODULES)


class TestRoundTrip:
    def test_preference_text_round_trip(self, runner):
        from naplespf import ParkingPreference

        pref = ParkingPreference((3, 1, 3, 5, 2, 4, 2))
        assert ParkingPreference.parse(pref.render()) == pref
