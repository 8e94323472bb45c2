import itertools
import os
import random
import subprocess
import sys

import pytest
from hypothesis import given, settings

from helpers import SRC, naive_park, preferences
import naplespf
from naplespf import (
    NotMaximalInterval,
    ParkingPreference,
    PreconditionFailed,
    VerificationFailed,
    WitnessCertificate,
    check_certificate,
    enumerate_witnesses,
    excess,
    find_witness,
    is_complete,
    is_k_naples,
    restricted_spot_before_occupied,
    verify_decomposition_lemma,
    verify_main_theorem,
    verify_summary_theorem,
)

ALPHA10 = ParkingPreference((8, 4, 7, 1, 6, 8, 7, 5, 10, 1))


def brute_force_witnesses(pref, k, p, q):
    """Independent enumeration of all witness index sets for [p, q]."""
    pool = [i for i in range(1, pref.n + 1) if pref.prefs[i - 1] >= p]
    found = []
    for h in range(q - p + 2, pref.n + 1):
        for combo in itertools.combinations(pool, h):
            if any(pref.prefs[i - 1] > p - 2 + h for i in combo):
                continue
            sub = [pref.prefs[i - 1] - (p - 2) for i in combo]
            vals = [
                sum(1 for a in sub if a >= j) - (h - j + 1) for j in range(1, h + 1)
            ]
            if any(v < 1 for v in vals[1:]):
                continue
            if None in naive_park(sub, k):
                continue
            found.append(tuple(combo))
    return sorted(found)


class TestFindWitness:
    def test_constructive_matches_worked_example(self):
        cert = find_witness(ALPHA10, 2, (4, 7))
        assert cert.indices == (2, 3, 5, 7, 8)
        assert cert.shifted_restriction.prefs == (2, 5, 4, 5, 3)
        assert is_complete(cert.shifted_restriction)
        assert is_k_naples(cert.shifted_restriction, 2)

    def test_alternative_witnesses_enumerated(self):
        certs = enumerate_witnesses(ALPHA10, 2, (4, 7))
        sets = {c.indices for c in certs}
        assert (2, 3, 5, 7, 8) in sets
        assert (1, 2, 3, 6, 7, 8) in sets
        assert (1, 2, 5, 6, 7, 8) in sets

    def test_enumeration_matches_brute_force(self):
        certs = enumerate_witnesses(ALPHA10, 2, (4, 7))
        assert sorted(c.indices for c in certs) == brute_force_witnesses(
            ALPHA10, 2, 4, 7
        )

    def test_no_witness_for_failing_preference(self):
        assert find_witness(ParkingPreference((2, 3, 3)), 1, (2, 3)) is None
        assert enumerate_witnesses(ParkingPreference((2, 3, 3)), 1, (2, 3)) == []

    def test_interval_must_be_maximal(self):
        with pytest.raises(NotMaximalInterval):
            find_witness(ParkingPreference((2, 3, 3)), 1, (2, 2))
        with pytest.raises(NotMaximalInterval):
            find_witness(ParkingPreference((1, 2, 3)), 1, (2, 3))

    def test_window_must_be_positive(self):
        with pytest.raises(ValueError):
            find_witness(ParkingPreference((2, 3, 3)), 0, (2, 3))

    def test_certificates_reverify(self):
        cert = find_witness(ALPHA10, 2, (4, 7))
        assert check_certificate(ALPHA10, 2, cert)

    def test_failed_recheck_raises_typed_error(self, monkeypatch):
        monkeypatch.setattr(
            naplespf.characterize, "check_certificate", lambda *a: False
        )
        with pytest.raises(VerificationFailed):
            find_witness(ALPHA10, 2, (4, 7))

    def test_tampered_certificates_rejected(self):
        cert = find_witness(ALPHA10, 2, (4, 7))
        not_an_interval = WitnessCertificate(
            (2, 3), cert.indices, cert.shifted_restriction
        )
        assert not check_certificate(ALPHA10, 2, not_an_interval)
        other = next(
            c
            for c in enumerate_witnesses(ALPHA10, 2, (4, 7))
            if c.indices != cert.indices
        )
        mismatched = WitnessCertificate(
            cert.interval, other.indices, cert.shifted_restriction
        )
        assert not check_certificate(ALPHA10, 2, mismatched)
        unsorted = WitnessCertificate(
            cert.interval, cert.indices[::-1], cert.shifted_restriction
        )
        assert not check_certificate(ALPHA10, 2, unsorted)

    def test_search_and_extraction_agree_exhaustively(self):
        # same existence answer whether the preference parks or not
        for n in range(2, 6):
            for tup in itertools.product(range(1, n + 1), repeat=n):
                pref = ParkingPreference(tup)
                for k in range(1, n + 1):
                    for p, q in excess(pref).intervals:
                        cert = find_witness(pref, k, (p, q))
                        expected = brute_force_witnesses(pref, k, p, q)
                        assert (cert is not None) == bool(expected)
                        if cert is not None:
                            assert check_certificate(pref, k, cert)
                            assert cert.indices in expected

    @pytest.mark.parametrize("n", [13, 20])
    def test_large_preferences(self, n):
        # above the subset-search cap, the restricted process is the oracle
        rng = random.Random(n)
        seen = set()
        for trial in range(12):
            k = rng.randint(1, n - 1)
            if trial % 2:
                prefs = [rng.randint(1, n) for _ in range(n)]
            else:  # skewed to the top spots, mostly non-members
                prefs = [
                    min(n, max(1, n - int(rng.expovariate(0.35)))) for _ in range(n)
                ]
            pref = ParkingPreference(tuple(prefs))
            member = is_k_naples(pref, k)
            for p, q in excess(pref).intervals:
                cert = find_witness(pref, k, (p, q))
                assert (cert is None) == (
                    not restricted_spot_before_occupied(pref, k, p)
                )
                if cert is not None:
                    assert check_certificate(pref, k, cert)
                seen.add((member, cert is not None))
        assert seen == {(True, True), (False, True), (False, False)}

    def test_same_certificates_under_python_O(self):
        cases = [
            (ALPHA10, 2),
            (ParkingPreference((2, 3, 3)), 1),
            # non-member: a witness on [3, 3], none on [6, 13]
            (ParkingPreference((11, 1, 13, 8, 6, 4, 3, 12, 10, 3, 11, 13, 7)), 1),
        ]
        # the same script runs here and in a fresh interpreter under -O; the
        # theorem checks run on the first two cases, then again with
        # is_k_naples flipped on the checked preference, where they must raise
        code = (
            "import sys\n"
            "import naplespf.characterize as ch\n"
            "from naplespf import ParkingPreference, VerificationFailed, excess\n"
            "from naplespf import find_witness\n"
            "from naplespf import verify_main_theorem, verify_summary_theorem\n"
            "out = []\n"
            f"for prefs, k in {[(pref.prefs, k) for pref, k in cases]!r}:\n"
            "    pref = ParkingPreference(prefs)\n"
            "    for iv in excess(pref).intervals:\n"
            "        c = find_witness(pref, k, iv)\n"
            "        out.append(c and (c.indices, c.shifted_restriction.prefs))\n"
            "real = ch.is_k_naples\n"
            f"for prefs, k in {[(pref.prefs, k) for pref, k in cases[:2]]!r}:\n"
            "    pref = ParkingPreference(prefs)\n"
            "    r = verify_summary_theorem(pref, k)\n"
            "    sat = [c.satisfied for c in r.intervals]\n"
            "    out.append((verify_main_theorem(pref, k), r.k_naples, sat))\n"
            "    ch.is_k_naples = lambda p, w: real(p, w) != (p == pref)\n"
            "    try:\n"
            "        for check in (verify_main_theorem, verify_summary_theorem):\n"
            "            try:\n"
            "                check(pref, k)\n"
            "            except VerificationFailed:\n"
            "                out.append('raised')\n"
            "    finally:\n"
            "        ch.is_k_naples = real\n"
        )
        here = {}
        exec(code, here)
        assert None in here["out"] and any(here["out"])
        assert (True, True, [True]) in here["out"]
        assert (False, False, [False]) in here["out"]
        assert here["out"].count("raised") == 4
        proc = subprocess.run(
            [sys.executable, "-O", "-c", code + "print(sys.flags.optimize, out)"],
            capture_output=True,
            text=True,
            env=dict(os.environ, PYTHONPATH=SRC),
            check=True,
        )
        assert proc.stdout == f"1 {here['out']}\n"


class TestMainTheorem:
    def test_worked_example(self):
        assert verify_main_theorem(ALPHA10, 2)

    def test_vacuous_for_parking_function(self):
        assert verify_main_theorem(ParkingPreference((3, 1, 2)), 1)

    def test_failing_preference(self):
        assert not verify_main_theorem(ParkingPreference((2, 3, 3)), 1)

    @pytest.mark.parametrize(
        "check", [verify_main_theorem, verify_summary_theorem]
    )
    @pytest.mark.parametrize(
        "pref, k",
        [(ALPHA10, 2), (ParkingPreference((2, 3, 3)), 1)],
        ids=["alpha10", "233"],
    )
    def test_disagreement_raises_typed_error(self, monkeypatch, check, pref, k):
        # flip membership of the checked preference only, so that witness
        # certificates of its shifted restrictions still re-verify
        real = naplespf.characterize.is_k_naples
        monkeypatch.setattr(
            naplespf.characterize,
            "is_k_naples",
            lambda p, w: real(p, w) != (p == pref),
        )
        with pytest.raises(VerificationFailed):
            check(pref, k)

    @given(preferences(max_n=5))
    @settings(max_examples=150, deadline=None)
    def test_biconditional(self, pref):
        for k in range(1, pref.n + 1):
            assert verify_main_theorem(pref, k) == is_k_naples(pref, k)

    @given(preferences(max_n=5))
    @settings(max_examples=100, deadline=None)
    def test_witness_size_bound(self, pref):
        for k in range(1, pref.n + 1):
            if not is_k_naples(pref, k):
                continue
            for p, q in excess(pref).intervals:
                cert = find_witness(pref, k, (p, q))
                assert len(cert.indices) >= q - p + 2


class TestDecompositionLemma:
    def test_upper_part_inherits_membership(self):
        assert verify_decomposition_lemma(ParkingPreference((4, 4, 3, 2, 3)), 1, 4)

    def test_lower_part_counterexample(self):
        # the complementary claim is false: (3,2,3) does not park with k=1
        assert not is_k_naples(ParkingPreference((3, 2, 3)), 1)

    def test_trivial_at_position_one(self):
        assert verify_decomposition_lemma(ParkingPreference((4, 4, 3, 2, 3)), 1, 1)

    def test_preconditions(self):
        with pytest.raises(PreconditionFailed):
            verify_decomposition_lemma(ParkingPreference((2, 3, 3)), 1, 2)
        with pytest.raises(PreconditionFailed):
            verify_decomposition_lemma(ParkingPreference((4, 4, 3, 2, 3)), 1, 2)

    @given(preferences(max_n=6))
    @settings(max_examples=150, deadline=None)
    def test_holds_at_every_zero(self, pref):
        prof = excess(pref)
        for k in range(1, pref.n + 1):
            if not is_k_naples(pref, k):
                continue
            for j in range(1, pref.n + 1):
                if prof.u(j) == 0:
                    assert verify_decomposition_lemma(pref, k, j)


class TestSummaryTheorem:
    def test_worked_example(self):
        report = verify_summary_theorem(ALPHA10, 2)
        assert report.k_naples
        (cond,) = report.intervals
        assert cond.interval == (4, 7)
        assert cond.size == 4
        assert not cond.auto
        assert cond.spot_before_occupied
        assert cond.witness is not None
        assert report.consistent

    def test_short_interval_holds_for_free(self):
        report = verify_summary_theorem(ParkingPreference((2, 3, 3)), 2)
        (cond,) = report.intervals
        assert cond.auto and cond.satisfied
        assert report.k_naples

    def test_vacuous_for_parking_function(self):
        report = verify_summary_theorem(ParkingPreference((1, 1, 2)), 1)
        assert report.intervals == ()
        assert report.k_naples

    def test_failing_preference(self):
        report = verify_summary_theorem(ParkingPreference((2, 3, 3)), 1)
        (cond,) = report.intervals
        assert not cond.spot_before_occupied
        assert cond.witness is None
        assert not report.k_naples
        assert report.consistent

    def test_missing_witness_on_short_interval_raises(self, monkeypatch):
        # (2,3,3) parks with window 2 and its one interval is short; with no
        # witness and a restricted process that agrees, only the clause that
        # short intervals hold for free is broken
        monkeypatch.setattr(naplespf.characterize, "find_witness", lambda *a: None)
        monkeypatch.setattr(
            naplespf.characterize, "restricted_spot_before_occupied", lambda *a: False
        )
        with pytest.raises(VerificationFailed):
            verify_summary_theorem(ParkingPreference((2, 3, 3)), 2)

    def test_restricted_process(self):
        assert restricted_spot_before_occupied(ALPHA10, 2, 4)
        assert not restricted_spot_before_occupied(
            ParkingPreference((2, 3, 3)), 1, 2
        )

    @given(preferences(max_n=5))
    @settings(max_examples=100, deadline=None)
    def test_consistent_everywhere(self, pref):
        for k in range(1, pref.n + 1):
            assert verify_summary_theorem(pref, k).consistent
