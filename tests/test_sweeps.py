import ast
import itertools
import math
import threading
from pathlib import Path

import numpy as np
import pytest

from naplespf import (
    Counterexample,
    ParkingOutcome,
    ParkingPreference,
    SizeLimitExceeded,
    UnknownProperty,
    VerificationFailed,
    count_perm_invariant_fast,
    find_counterexample,
    find_monotone_window_violation,
    is_k_naples,
    iter_preferences,
    park,
    sweep,
    verify_sweep,
)
from helpers import (
    api_predicates,
    loop_all_park,
    loop_count_perm_invariant,
    naive_count_complete_k_naples,
    naive_count_k_naples,
    naive_park,
)
from naplespf import _kernels, _verify, simulator, sweeps
from naplespf.sweeps import PROPERTIES, TRUE_PROPERTIES, MonotoneWindowViolation


def k_naples_by_recurrence(n, k):
    """Christensen et al.'s recurrence for the k-Naples count of length n:
    N(m+1) = sum over i of C(m, i) * min(i+1+k, m+1) * N(i) * (m-i+1)^(m-i-1),
    N(0) = 1; the i = m term is (m+1) * N(m)."""
    counts = [1]
    for m in range(n):
        total = (m + 1) * counts[m]
        for i in range(m):
            ways = math.comb(m, i) * min(i + 1 + k, m + 1)
            total += ways * counts[i] * (m - i + 1) ** (m - i - 1)
        counts.append(total)
    return counts[n]


class TestCounting:
    def test_classical_counts(self):
        assert sweep(3, 0).counts["parking_function"] == 16
        assert sweep(1, 0).counts["parking_function"] == 1
        assert sweep(2, 1).counts["k_naples"] == 4

    def test_published_n7_window2_count(self):
        # The README's example: 627405 of the 7^7 preferences park with k = 2.
        assert sweep(7, 2).counts["k_naples"] == 627405

    def test_window_one_failures(self):
        report = sweep(3, 1)
        assert report.counts["k_naples"] == 24
        failures = {
            tup
            for tup in iter_preferences(3)
            if not is_k_naples(ParkingPreference(tup), 1)
        }
        assert failures == {(2, 3, 3), (3, 2, 3), (3, 3, 3)}

    def test_report_fields(self):
        report = sweep(3, 1, shards=2)
        assert report.n == 3 and report.k == 1
        assert report.total == 27
        assert report.shards == 2
        assert report.elapsed >= 0

    def test_requested_predicates_only(self):
        report = sweep(3, 1, predicates=("parking_function",))
        assert set(report.counts) == {"parking_function"}

    def test_unknown_predicate(self):
        with pytest.raises(ValueError):
            sweep(3, 1, predicates=("bogus",))

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_count_relations(self, n):
        previous = None
        for k in range(n + 1):
            counts = sweep(n, k).counts
            assert counts["parking_function"] <= counts["k_naples"]
            assert counts["perm_invariant"] <= counts["k_naples"]
            assert counts["complete_k_naples"] <= counts["complete"]
            if k == 0:
                assert counts["k_naples"] == counts["parking_function"]
                assert counts["perm_invariant"] == counts["parking_function"]
            if previous is not None:
                assert counts["k_naples"] >= previous
            previous = counts["k_naples"]

    def test_shard_independence(self):
        reports = [sweep(5, 2, shards=w) for w in (1, 2, 3, 5, 8)]
        assert all(r.counts == reports[0].counts for r in reports)

    def test_size_caps(self):
        # the kernel's node limit is the only cap on counting
        with pytest.raises(SizeLimitExceeded, match="n <= 11"):
            sweep(12, 0)

    @pytest.mark.parametrize("k", [0, 2, 11])
    def test_largest_n_matches_closed_forms(self, k):
        counts = sweep(11, k).counts
        assert counts["parking_function"] == 12**10
        assert counts["complete"] == 10**10
        assert counts["perm_invariant"] == count_perm_invariant_fast(11, k)
        if k == 0:
            assert counts["k_naples"] == 12**10
            assert counts["complete_k_naples"] == 0
        if k >= 10:
            assert counts["k_naples"] == 11**11
            assert counts["complete_k_naples"] == 10**10

    @pytest.mark.parametrize(
        "k, count", [(1, 123478234693), (5, 248493260840), (9, 282953722920)]
    )
    def test_largest_n_matches_occupied_set_dp(self, k, count):
        # k_naples at n = 11 between the closed forms at k = 0 and k >= 10,
        # against a DP over occupied sets that never reads the kernel
        assert sweep(11, k).counts["k_naples"] == count
        assert naive_count_k_naples(11, k) == count

    @pytest.mark.parametrize("n", range(1, 10))
    def test_k_naples_matches_recurrence(self, n):
        # a route that never parks a car, for every window
        assert [sweep(n, k).counts["k_naples"] for k in range(n + 1)] == [
            k_naples_by_recurrence(n, k) for k in range(n + 1)
        ]
        assert k_naples_by_recurrence(n, 0) == (n + 1) ** (n - 1)

    @pytest.mark.parametrize("n", range(2, 9))
    def test_complete_k_naples_matches_prefix_dp(self, n):
        # against a DP over (taken spots, cars preferring each spot) that
        # never reads the kernel, for every window
        assert [sweep(n, k).counts["complete_k_naples"] for k in range(n + 1)] == [
            naive_count_complete_k_naples(n, k) for k in range(n + 1)
        ]

    def test_complete_k_naples_regression_pins(self):
        # Read from the kernel; test_complete_k_naples_matches_prefix_dp
        # checks them by an independent route up to n = 8.
        assert [sweep(8, k).counts["complete_k_naples"] for k in range(4)] == [0, 1, 1897, 34623]
        assert [sweep(n, 1).counts["complete_k_naples"] for n in range(2, 11)] == [1] * 9

    def test_argument_validation(self):
        with pytest.raises(ValueError):
            sweep(0, 0)
        with pytest.raises(ValueError):
            sweep(3, 4)
        with pytest.raises(ValueError):
            sweep(3, -1)
        with pytest.raises(ValueError):
            sweep(3, 1, shards=0)

    @staticmethod
    def record_count_range(monkeypatch):
        """Make count_range log (thread id, start, stop) of each call."""
        calls = []
        count_range = _kernels.count_range

        def recording(n, k, start, stop, counts):
            calls.append((threading.get_ident(), start, stop))
            count_range(n, k, start, stop, counts)

        monkeypatch.setattr(_kernels, "count_range", recording)
        return calls

    def test_shards_count_in_calling_thread_in_rank_order(self, monkeypatch):
        expected = sweep(5, 2).counts
        calls = self.record_count_range(monkeypatch)
        report = sweep(5, 2, shards=3)
        bounds = sweeps._shard_bounds(5, 3)
        caller = threading.get_ident()
        assert calls == [(caller, lo, hi) for lo, hi in zip(bounds, bounds[1:])]
        assert report.counts == expected

    def test_shard_bounds_cut_on_prefix_boundaries(self):
        for n in range(1, 8):
            total = n**n
            widths = range(1, min(n * n + 1, total) + 1)
            for w in [*widths, total] if n <= 5 else widths:
                d = next(d for d in range(n + 1) if n**d >= w)
                bounds = sweeps._shard_bounds(n, w)
                assert len(bounds) == w + 1, (n, w)
                assert bounds[0] == 0 and bounds[-1] == total, (n, w)
                assert all(lo < hi for lo, hi in zip(bounds, bounds[1:])), (n, w)
                assert all(b % n ** (n - d) == 0 for b in bounds), (n, w)
            if n % 2 == 0:  # two shards are the two halves of [n]^n
                assert sweeps._shard_bounds(n, 2) == [0, total // 2, total]

    def test_shards_above_total_count_no_empty_ranges(self, monkeypatch):
        expected = sweep(3, 1).counts
        calls = self.record_count_range(monkeypatch)
        report = sweep(3, 1, shards=10**6)
        assert [(lo, hi) for _, lo, hi in calls] == [(r, r + 1) for r in range(27)]
        assert report.counts == expected
        assert report.shards == 10**6


class TestPermInvariantFast:
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_matches_sweep(self, n):
        for k in range(n + 1):
            fast = count_perm_invariant_fast(n, k)
            assert fast == sweep(n, k).counts["perm_invariant"]

    def test_matches_multiset_scan(self):
        for n in range(1, 9):
            for k in range(n + 2):
                for by_class in (False, True):
                    got = count_perm_invariant_fast(n, k, by_class)
                    want = loop_count_perm_invariant(n, k, by_class)
                    assert got == want, (n, k, by_class)

    def test_wide_windows_closed_forms(self):
        # max run of u >= 1 is at most n - 1 (positions 2..n), so every
        # multiset and every sequence is invariant once k >= n - 1
        for n in range(1, 15):
            for k in range(max(0, n - 1), n + 2):
                assert count_perm_invariant_fast(n, k) == n**n, (n, k)
                classes = count_perm_invariant_fast(n, k, by_class=True)
                assert classes == math.comb(2 * n - 1, n), (n, k)

    @pytest.mark.parametrize("n, k", [(0, 1), (-1, 0), (3, -1)])
    def test_rejects_bad_sizes(self, n, k):
        with pytest.raises(ValueError):
            count_perm_invariant_fast(n, k)

    def test_small_values(self):
        assert count_perm_invariant_fast(1, 1) == 1
        assert count_perm_invariant_fast(2, 1) == 4

    def test_class_counting(self):
        # n=2, k=1: classes {1,1}, {1,2}, {2,2} are all invariant
        assert count_perm_invariant_fast(2, 1, by_class=True) == 3
        classes = count_perm_invariant_fast(4, 2, by_class=True)
        sequences = count_perm_invariant_fast(4, 2)
        assert classes <= sequences

    def test_class_count_matches_enumeration(self):
        for n in range(1, 5):
            for k in range(n + 1):
                expected = sum(
                    1
                    for rep in itertools.combinations_with_replacement(
                        range(1, n + 1), n
                    )
                    if all(
                        is_k_naples(ParkingPreference(p), k)
                        for p in {
                            ParkingPreference(t)
                            for t in itertools.permutations(rep)
                        }
                    )
                )
                assert count_perm_invariant_fast(n, k, by_class=True) == expected


class TestOdometer:
    def test_rank_round_trip(self):
        # rank r in the counting kernel is the r-th preference visited here
        for n in (1, 2, 3, 4):
            for r, tup in enumerate(iter_preferences(n)):
                for k in range(n + 1):
                    got = np.zeros(_kernels.N_PREDICATES, np.int64)
                    _kernels.count_range(n, k, r, r + 1, got)
                    want = api_predicates(ParkingPreference(tup), k)
                    assert list(got) == want, (tup, k)

    def test_order_is_lexicographic(self):
        seq = list(iter_preferences(3))
        assert seq == sorted(seq)
        assert seq[0] == (1, 1, 1)
        assert seq[-1] == (3, 3, 3)

    @pytest.mark.parametrize("n", [0, -1])
    def test_no_preferences_of_length_below_one(self, n):
        with pytest.raises(ValueError, match=f"need n >= 1, got {n}"):
            iter_preferences(n)


class TestFalsification:
    def test_true_property_has_no_counterexample(self):
        assert (
            find_counterexample(3, 3, "necessary_excess_bound_is_necessary") is None
        )

    def test_deliberately_false_property(self):
        ce = find_counterexample(3, 1, "excess_bound_is_sufficient")
        assert ce is not None
        assert ce.pref.prefs == (2, 3, 3)
        assert ce.n == 3 and ce.k == 1

    def test_trivial_length(self):
        for name in TRUE_PROPERTIES:
            assert find_counterexample(1, 1, name) is None

    def test_unknown_property(self):
        with pytest.raises(UnknownProperty):
            find_counterexample(2, 1, "not_a_property")

    @pytest.mark.parametrize(
        "n_max, k_max, message",
        [(0, 1, "need n_max >= 1, got 0"), (3, -1, "need k_max >= 0, got -1")],
    )
    def test_empty_range_is_an_error(self, n_max, k_max, message):
        # nothing checked must not read as "no counterexample", least of
        # all for the property that is false
        with pytest.raises(ValueError, match=message):
            find_counterexample(n_max, k_max, "excess_bound_is_sufficient")

    def test_registry_is_documented(self):
        for prop in PROPERTIES.values():
            assert prop.doc
        assert "excess_bound_is_sufficient" not in TRUE_PROPERTIES

    def test_benchmark_times_the_registered_properties(self):
        # perfbench/run.py names each property it times without importing
        # the package, so a renamed property must be renamed there too
        run_py = Path(__file__).parent.parent / "perfbench" / "run.py"
        (listed,) = [
            ast.literal_eval(node.value)
            for node in ast.parse(run_py.read_text()).body
            if isinstance(node, ast.Assign)
            and [getattr(t, "id", None) for t in node.targets] == ["TRUE_PROPERTIES"]
        ]
        assert listed == TRUE_PROPERTIES


class TestVerifySweep:
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_all_invariants_hold(self, n):
        assert verify_sweep(n) is None

    def test_subset_of_properties(self):
        assert verify_sweep(3, properties=("easy_characterization",)) is None

    def test_unknown_property(self):
        with pytest.raises(UnknownProperty):
            verify_sweep(2, properties=("bogus",))

    @pytest.mark.parametrize("n, ks", [(0, None), (-1, None), (3, [1, -1]), (3, [1.5])])
    def test_rejects_n_below_one_and_negative_windows(self, n, ks):
        with pytest.raises(ValueError):
            verify_sweep(n, ks)

    def test_no_size_cap_before_the_preference_loop(self, monkeypatch):
        # perm_invariance rides on the one pass over [n]^n, so no property
        # stops n = 8 before the engine walks its blocks of preferences
        visited = []

        class Visited(Exception):
            pass

        def recording(n):
            visited.append(n)
            raise Visited

        monkeypatch.setattr(_verify, "_blocks", recording)
        with pytest.raises(Visited):
            verify_sweep(8)
        with pytest.raises(Visited):
            verify_sweep(8, properties=["perm_invariance"])
        assert visited == [8, 8]

    def test_finds_planted_counterexample(self):
        ce = verify_sweep(3, ks=(1,), properties=("excess_bound_is_sufficient",))
        assert ce is not None and ce.pref.prefs == (2, 3, 3)

    @pytest.mark.parametrize(
        "name, planted, first",
        [
            # every car parks at its preference: nobody drives backwards
            ("quantitative_bound", "at_preference", (2, 3, 4, 4)),
            ("p_minus_1_biconditional", "at_preference", (1, 1, 4, 4)),
            # car i parks at spot i: car 4 ends past its preference
            ("char_complete_equivalence", "in_arrival_order", (2, 4, 4, 3)),
        ],
    )
    def test_planted_outcome_is_caught(self, monkeypatch, name, planted, first):
        # the engine's outcome of each row, as an (n, rows) array of spots
        fake = {
            "at_preference": lambda prefs, window: prefs.copy(),
            "in_arrival_order": lambda prefs, window: np.broadcast_to(
                np.arange(1, len(prefs) + 1, dtype=np.int8)[:, None], prefs.shape
            ),
        }[planted]
        monkeypatch.setattr(_verify, "_outcome", fake)
        ce = verify_sweep(4, properties=[name])
        assert ce == Counterexample(ParkingPreference(first), 4, 1, name)

    def test_summary_theorem_catches_missing_short_witness(self, monkeypatch):
        # no witness anywhere, and the restricted process agrees; (1,1,4,4)
        # parks with window 1 and its one interval [4,4] is short, so only
        # the clause that short intervals hold for free catches it
        def no_witness(prefs, p, q, window):
            none = np.zeros(len(p), bool)
            return none, np.zeros(prefs.shape, bool), ~none

        monkeypatch.setattr(_verify, "_extract", no_witness)
        monkeypatch.setattr(
            _verify, "_spot_before_fills", lambda prefs, p, window: np.zeros(len(p), bool)
        )
        ce = verify_sweep(4, properties=["summary_theorem"])
        assert ce == Counterexample(
            ParkingPreference((1, 1, 4, 4)), 4, 1, "summary_theorem"
        )

    def test_perm_invariance_compares_the_sweep_outcomes(self, monkeypatch):
        # the brute side is the sweep's own outcome of every rearrangement: a
        # preference whose first car prefers spot 3 never parks, which first
        # shows on the multiset (1,1,3), rearranged to (3,1,1)
        real = _verify._outcome

        def stalled(prefs, window):
            spots = real(prefs, window)
            spots[0, prefs[0] == 3] = 0
            return spots

        monkeypatch.setattr(_verify, "_outcome", stalled)
        ce = find_counterexample(3, 3, "perm_invariance")
        assert ce == Counterexample(ParkingPreference((1, 1, 3)), 3, 1, "perm_invariance")

    @pytest.mark.parametrize(
        "planted, ks, first",
        [
            ("strict", None, ((2, 2), 1)),
            ("strict", [2], ((2, 3, 3), 2)),
            ("strict", [3, 1], ((2, 2), 1)),
            ("extra_at_2", None, ((2, 3, 3), 2)),
            ("extra_at_2", [3, 1], None),
        ],
    )
    def test_perm_invariance_catches_planted_structural_fault(
        self, monkeypatch, planted, ks, first
    ):
        # faults in the structural side, which reads each multiset's longest
        # maximal interval: "< k" for "<= k", and one unit too many at k = 2
        # only; multisets are compared in sorted order
        fault = {
            "strict": lambda longest, k: longest < k,
            "extra_at_2": lambda longest, k: longest + (k == 2) <= k,
        }[planted]
        monkeypatch.setattr(_verify, "_invariant_by_structure", fault)
        ce = next(
            filter(None, (verify_sweep(n, ks, ["perm_invariance"]) for n in range(1, 6))),
            None,
        )
        if first is not None:
            pref, k = first
            first = Counterexample(ParkingPreference(pref), len(pref), k, "perm_invariance")
        assert ce == first

    def test_witness_size_bound_fails_on_failed_recheck(self, monkeypatch):
        # the property leaves the certificate check to the engine's
        # extraction, which must run it on every witness, also after an
        # earlier clean sweep; the error names the case being checked
        assert verify_sweep(3, properties=["witness_size_bound"]) is None
        monkeypatch.setattr(
            _verify,
            "_certificates_hold",
            lambda prefs, p, q, chosen, window: np.zeros(len(p), bool),
        )
        with pytest.raises(VerificationFailed, match="extracted witness") as info:
            verify_sweep(3, properties=["witness_size_bound"])
        assert info.value.counterexample == Counterexample(
            ParkingPreference((1, 3, 3)), 3, 1, "witness_size_bound"
        )


def loop_monotone_window_violation(n, all_park):
    """First (preference, windows, car) in odometer order whose bump breaks
    parking, row by row over [n]^n x [0, n]^n; None if there is none."""
    for prefs in itertools.product(range(1, n + 1), repeat=n):
        for windows in itertools.product(range(n + 1), repeat=n):
            if not all_park(prefs, windows, n):
                continue
            for c in range(n):
                bumped = windows[:c] + (windows[c] + 1,) + windows[c + 1 :]
                if not all_park(prefs, bumped, n):
                    return prefs, windows, c + 1
    return None


def all_park_under(step):
    """Whether every car parks when each takes the spot ``step`` picks."""

    def all_park(prefs, windows, n_spots):
        occ = 0
        for a, w in zip(prefs, windows):
            spot = step(occ, a, w, n_spots)
            if spot is None:
                return False
            occ |= 1 << spot
        return True

    return all_park


def exact_back_step(occ, a, k, n_spots):
    """Probe only the spot exactly k behind: a larger window can lose it."""
    back = [a - k] if 1 <= k < a else []
    for t in [a, *back, *range(a + 1, n_spots + 1)]:
        if not occ >> t & 1:
            return t
    return None


def farthest_first_step(occ, a, k, n_spots):
    """Probe the spots behind farthest-first, from max(1, a - k) up."""
    for t in [a, *range(max(1, a - k), a), *range(a + 1, n_spots + 1)]:
        if not occ >> t & 1:
            return t
    return None


MUTANTS = {"exact_back": exact_back_step, "farthest_first": farthest_first_step}


class TestMonotoneWindows:
    def test_no_violation_exhaustive(self):
        assert find_monotone_window_violation(sweeps.MONOTONE_MAX_N) is None

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_matches_loop_reference(self, n):
        assert sweeps._monotone_search(n) is None
        assert loop_monotone_window_violation(n, loop_all_park) is None

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    @pytest.mark.parametrize("mutant", sorted(MUTANTS))
    def test_rule_that_is_not_monotone(self, monkeypatch, mutant, n):
        # the search and the row-by-row scan agree on whether a violation
        # exists, and the one the search reports breaks the patched rule
        all_park = all_park_under(MUTANTS[mutant])
        want = loop_monotone_window_violation(n, all_park)
        monkeypatch.setattr(simulator, "_step", MUTANTS[mutant])
        got = sweeps._monotone_search(n)
        assert (got is None) == (want is None)
        if got is not None:
            bumped = list(got.windows)
            bumped[got.car - 1] += 1
            assert all_park(got.pref.prefs, got.windows, n)
            assert not all_park(got.pref.prefs, bumped, n)

    def test_verdicts_under_mutants(self, monkeypatch):
        # exact-back breaks from n = 2 on; farthest-first first at n = 4
        monkeypatch.setattr(simulator, "_step", exact_back_step)
        assert find_monotone_window_violation(2).pref.n == 2
        monkeypatch.setattr(simulator, "_step", farthest_first_step)
        assert find_monotone_window_violation(3) is None
        assert find_monotone_window_violation(4) == MonotoneWindowViolation(
            ParkingPreference((3, 3, 4, 2)), (0, 0, 3, 0), 2
        )

    def test_unconfirmed_hit_raises(self, monkeypatch):
        # the search runs a broken rule but the re-check runs the real one
        monkeypatch.setattr(simulator, "_step", exact_back_step)
        monkeypatch.setattr(
            sweeps,
            "park",
            lambda pref, w: ParkingOutcome(tuple(naive_park(pref.prefs, w))),
        )
        with pytest.raises(VerificationFailed, match="does not confirm") as info:
            find_monotone_window_violation(2)
        hit = info.value.counterexample
        assert isinstance(hit, MonotoneWindowViolation) and hit.pref.n == 2

    def test_size_cap(self, monkeypatch):
        searched = []

        def no_violation(n):
            searched.append(n)
            return None

        monkeypatch.setattr(sweeps, "_monotone_search", no_violation)
        assert find_monotone_window_violation(12) is None
        assert searched == list(range(1, 13))
        with pytest.raises(SizeLimitExceeded):
            find_monotone_window_violation(13)
        assert searched == list(range(1, 13))  # raised before any search

    @pytest.mark.parametrize("n_max", [0, -1])
    def test_rejects_n_max_below_one(self, monkeypatch, n_max):
        monkeypatch.setattr(sweeps, "_monotone_search", None)
        with pytest.raises(ValueError, match="n_max >= 1"):
            find_monotone_window_violation(n_max)
