import itertools
import os
import subprocess
import sys

import pytest
from hypothesis import given, settings

from helpers import (
    SRC,
    distinct_rearrangements,
    permutation_invariant_by_enumeration,
    preferences,
)
from naplespf import classify
from naplespf import (
    CompleteEquivalences,
    NotComplete,
    NotNonincreasing,
    ParkingPreference,
    SpotBound,
    TooShort,
    VerificationFailed,
    cars_parked_before,
    check_p_minus_1,
    complete_naples_equivalences,
    excess,
    is_complete,
    is_k_naples,
    is_parking_function,
    is_permutation_invariant,
    minimal_naples_k,
    necessary_excess_bound,
    nonincreasing_sufficiency,
    park_uniform,
    quantitative_bound,
)


class TestParkingFunction:
    def test_worked_example(self):
        assert is_parking_function(ParkingPreference((3, 1, 3, 5, 2, 4, 2)))

    def test_all_ones(self):
        assert is_parking_function(ParkingPreference((1, 1, 1, 1)))

    def test_non_example(self):
        assert not is_parking_function(ParkingPreference((2, 3, 3)))

    @given(preferences(max_n=6))
    @settings(max_examples=200)
    def test_agrees_with_simulation(self, pref):
        assert is_parking_function(pref) == park_uniform(pref, 0).all_parked


class TestKNaples:
    def test_examples(self):
        assert not is_k_naples(ParkingPreference((2, 3, 3)), 1)
        assert is_k_naples(ParkingPreference((3, 4, 4, 4, 3)), 3)
        assert is_k_naples(ParkingPreference((4, 4, 3, 2, 3)), 1)

    @given(preferences(max_n=6))
    @settings(max_examples=100)
    def test_parking_functions_park_under_any_window(self, pref):
        if is_parking_function(pref):
            for k in range(pref.n + 1):
                assert is_k_naples(pref, k)


class TestPMinus1:
    def test_member(self):
        assert check_p_minus_1(ParkingPreference((4, 4, 3, 2, 3)), 1)

    def test_vacuous_for_parking_function(self):
        assert check_p_minus_1(ParkingPreference((1, 1, 2)), 1)

    def test_non_member(self):
        assert not check_p_minus_1(ParkingPreference((2, 3, 3)), 1)

    def test_requires_positive_window(self):
        with pytest.raises(ValueError):
            check_p_minus_1(ParkingPreference((1, 2)), 0)

    @given(preferences(max_n=6))
    @settings(max_examples=200)
    def test_biconditional(self, pref):
        for k in range(1, pref.n + 1):
            assert check_p_minus_1(pref, k) == is_k_naples(pref, k)


class TestExcessBound:
    def test_not_sufficient(self):
        pref = ParkingPreference((2, 3, 3))
        assert necessary_excess_bound(pref, 1)
        assert not is_k_naples(pref, 1)

    def test_parking_function_meets_zero_bound(self):
        assert necessary_excess_bound(ParkingPreference((3, 1, 2)), 0)

    def test_violated(self):
        assert not necessary_excess_bound(ParkingPreference((3, 3, 3)), 1)

    def test_window_that_is_not_an_integer(self):
        with pytest.raises(ValueError, match="must be an integer"):
            necessary_excess_bound(ParkingPreference((2, 3, 3)), 1.5)

    @given(preferences(max_n=6))
    @settings(max_examples=200)
    def test_necessary(self, pref):
        for k in range(pref.n + 1):
            if is_k_naples(pref, k):
                assert necessary_excess_bound(pref, k)


class TestNonincreasingSufficiency:
    def test_parks(self):
        pref = ParkingPreference((3, 3, 2))
        assert nonincreasing_sufficiency(pref, 1)
        assert is_k_naples(pref, 1)

    def test_decreasing_staircase(self):
        pref = ParkingPreference((5, 4, 3, 2, 1))
        for k in range(6):
            assert nonincreasing_sufficiency(pref, k)

    def test_bound_fails(self):
        assert not nonincreasing_sufficiency(ParkingPreference((3, 3, 3)), 1)

    def test_rejects_increasing(self):
        with pytest.raises(NotNonincreasing):
            nonincreasing_sufficiency(ParkingPreference((2, 3, 3)), 1)

    def test_sufficient_over_all_nonincreasing(self):
        for n in range(1, 6):
            for tup in itertools.product(range(1, n + 1), repeat=n):
                if any(a < b for a, b in zip(tup, tup[1:])):
                    continue
                pref = ParkingPreference(tup)
                for k in range(n + 1):
                    if nonincreasing_sufficiency(pref, k):
                        assert is_k_naples(pref, k)


class TestComplete:
    def test_examples(self):
        assert is_complete(ParkingPreference((5, 3, 3, 5, 4)))
        assert not is_complete(ParkingPreference((5, 3, 3, 4, 4)))
        assert not is_complete(ParkingPreference((1, 2)))

    def test_too_short(self):
        with pytest.raises(TooShort):
            is_complete(ParkingPreference((1,)))

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_reversal_onto_prime_parking_functions(self, n):
        # prime: #{i : b_i <= m} >= m + 1 for 1 <= m < n
        prime = {
            b
            for b in itertools.product(range(1, n + 1), repeat=n)
            if all(sum(x <= m for x in b) >= m + 1 for m in range(1, n))
        }
        reversed_complete = {
            tuple(n + 1 - a for a in tup)
            for tup in itertools.product(range(1, n + 1), repeat=n)
            if is_complete(ParkingPreference(tup))
        }
        assert reversed_complete == prime
        assert len(prime) == (n - 1) ** (n - 1)


class TestCompleteEquivalences:
    def test_member_witness(self):
        rep = complete_naples_equivalences(ParkingPreference((2, 5, 4, 5, 3)), 2)
        assert rep.all_parked and rep.backward_occupancy and rep.outcome_bounded
        assert rep.agree

    def test_classical_rule_fails_complete(self):
        rep = complete_naples_equivalences(ParkingPreference((5, 3, 3, 5, 4)), 0)
        assert not (rep.all_parked or rep.backward_occupancy or rep.outcome_bounded)
        assert rep.agree

    def test_full_window_always_parks_complete(self):
        for n in range(2, 6):
            for tup in itertools.product(range(1, n + 1), repeat=n):
                pref = ParkingPreference(tup)
                if not is_complete(pref):
                    continue
                rep = complete_naples_equivalences(pref, n)
                assert rep.all_parked and rep.agree

    def test_requires_complete(self):
        with pytest.raises(NotComplete):
            complete_naples_equivalences(ParkingPreference((1, 2)), 1)

    @given(preferences(min_n=2, max_n=6))
    @settings(max_examples=200)
    def test_equivalence_holds(self, pref):
        if not is_complete(pref):
            return
        for k in range(pref.n + 1):
            assert complete_naples_equivalences(pref, k).agree


class TestQuantitativeBound:
    def test_equality_for_member(self):
        rows = quantitative_bound(ParkingPreference((2, 5, 4, 5, 3)), 2)
        assert [(r.parked_before, r.excess) for r in rows[1:]] == [(1, 1)] * 4
        assert rows[0].parked_before == rows[0].excess == 0

    def test_classical_rule_never_parks_backward(self):
        rows = quantitative_bound(ParkingPreference((5, 3, 3, 5, 4)), 0)
        assert all(r.parked_before == 0 for r in rows)

    def test_bound_fails_without_completeness(self):
        # not complete, and the count through position 4 exceeds the excess
        pref = ParkingPreference((3, 4, 4, 4, 3))
        assert not is_complete(pref)
        assert cars_parked_before(pref, 3, 4) == 2
        assert excess(pref).u(4) == 1
        with pytest.raises(NotComplete):
            quantitative_bound(pref, 3)


class TestPermutationInvariance:
    def test_examples(self):
        assert not is_permutation_invariant(ParkingPreference((2, 3, 3)), 1)
        assert is_permutation_invariant(ParkingPreference((2, 3, 3)), 2)
        assert is_permutation_invariant(ParkingPreference((3, 1, 3, 5, 2, 4, 2)), 1)

    def test_failing_rearrangement_exists(self):
        # (2,3,3) itself fails under k=1, witnessing non-invariance
        assert not is_k_naples(ParkingPreference((2, 3, 3)), 1)

    def test_brute_force_agreement_exhaustive(self):
        for n in range(1, 5):
            for tup in itertools.product(range(1, n + 1), repeat=n):
                pref = ParkingPreference(tup)
                for k in range(1, n + 1):
                    assert is_permutation_invariant(
                        pref, k
                    ) == permutation_invariant_by_enumeration(pref, k)

    def test_rearrangements_are_distinct_and_sorted(self):
        res = list(distinct_rearrangements(ParkingPreference((2, 3, 3))))
        assert [p.prefs for p in res] == [(2, 3, 3), (3, 2, 3), (3, 3, 2)]


class TestMinimalWindow:
    def test_values(self):
        assert minimal_naples_k(ParkingPreference((3, 1, 3, 5, 2, 4, 2))) == 0
        assert minimal_naples_k(ParkingPreference((2, 3, 3))) == 2
        assert minimal_naples_k(ParkingPreference((3, 3, 3))) == 2

    def test_bisection_matches_linear_scan(self):
        for n in range(1, 7):
            for tup in itertools.product(range(1, n + 1), repeat=n):
                pref = ParkingPreference(tup)
                linear = next(k for k in range(n) if is_k_naples(pref, k))
                assert minimal_naples_k(pref) == linear

    @given(preferences(max_n=6))
    @settings(max_examples=100)
    def test_is_minimal(self, pref):
        k = minimal_naples_k(pref)
        assert is_k_naples(pref, k)
        if k > 0:
            assert not is_k_naples(pref, k - 1)

    def test_parks_no_window_twice(self, monkeypatch):
        windows = []
        real = classify.park_uniform

        def recording(pref, k):
            windows.append(k)
            return real(pref, k)

        monkeypatch.setattr(classify, "park_uniform", recording)
        for n in range(1, 7):
            for tup in itertools.product(range(1, n + 1), repeat=n):
                windows.clear()
                minimal_naples_k(ParkingPreference(tup))
                assert windows and len(windows) == len(set(windows)), (tup, windows)

    @pytest.mark.parametrize(
        "fault",
        [
            lambda real, pref, k: k != 2 and real(pref, k),
            lambda real, pref, k: True,
        ],
        ids=["fails-at-top", "parks-below-bottom"],
    )
    def test_wrong_bracket_raises(self, monkeypatch, fault):
        # (2,3,3) has maximum excess 1 and one interval of length 2, so the
        # bracket is [1, 2]; a rule that breaks either end is caught
        real = classify.is_k_naples
        monkeypatch.setattr(
            classify, "is_k_naples", lambda pref, k: fault(real, pref, k)
        )
        with pytest.raises(VerificationFailed, match="not confirmed by parking"):
            minimal_naples_k(ParkingPreference((2, 3, 3)))


def test_planted_outcomes_raise_under_python_O():
    # the same script runs here and in a fresh interpreter under -O: with
    # park_uniform replaced by a planted outcome that no real process yields,
    # each check disagrees with the excess route and must raise, not assert
    code = (
        "import sys\n"
        "import naplespf.classify as cl\n"
        "from naplespf import ParkingOutcome, ParkingPreference, VerificationFailed\n"
        "planted = {\n"
        "    (2, 3, 3): (2, 3, 3),  # every car at its preference\n"
        "    (5, 3, 3, 5, 4): (5, 3, 3, 5, 4),\n"
        "    (2, 5, 4, 5, 3): (1, 2, 3, 4, 5),  # car i at spot i\n"
        "}\n"
        "real = cl.park_uniform\n"
        "cl.park_uniform = lambda p, w: ParkingOutcome(planted[p.prefs])\n"
        "out = []\n"
        "try:\n"
        "    for check, prefs, k in [\n"
        "        (cl.is_parking_function, (2, 3, 3), None),\n"
        "        (cl.check_p_minus_1, (2, 3, 3), 1),\n"
        "        (cl.complete_naples_equivalences, (2, 5, 4, 5, 3), 2),\n"
        "        (cl.quantitative_bound, (5, 3, 3, 5, 4), 2),\n"
        "    ]:\n"
        "        args = (ParkingPreference(prefs),) + (() if k is None else (k,))\n"
        "        try:\n"
        "            check(*args)\n"
        "        except VerificationFailed as exc:\n"
        "            out.append(exc.counterexample)\n"
        "finally:\n"
        "    cl.park_uniform = real\n"
    )
    here = {}
    exec(code, here)
    assert here["out"] == [
        (ParkingPreference((2, 3, 3)), 0),
        (ParkingPreference((2, 3, 3)), 1),
        # every spot is filled, yet car 5 (preferring 3) holds spot 5
        CompleteEquivalences(True, False, False),
        # all park but nobody drives backwards: equality with u(j) fails
        tuple(SpotBound(j, 0, u) for j, u in enumerate((0, 1, 2, 1, 1), 1)),
    ]
    proc = subprocess.run(
        [sys.executable, "-O", "-c", code + "print(sys.flags.optimize, out)"],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=SRC),
        check=True,
    )
    assert proc.stdout == f"1 {here['out']}\n"
