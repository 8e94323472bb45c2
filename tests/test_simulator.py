import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    naive_park,
    naive_probes,
    naive_spot,
    preferences,
    preferences_with_windows,
)
from naplespf import simulator
from naplespf import (
    UNPARKED,
    CarStep,
    InvalidPreference,
    LengthMismatch,
    ParkingPreference,
    as_windows,
    park,
    park_cars,
    park_uniform,
    park_with_trace,
)


class TestOutcomes:
    def test_classical_worked_example(self):
        out = park_uniform(ParkingPreference((3, 1, 3, 5, 2, 4, 2)), 0)
        assert out.spot_of[:3] == (3, 1, 4)
        assert out.spot_of == (3, 1, 4, 5, 2, 6, 7)
        assert out.all_parked

    def test_backward_is_nearest_first(self):
        out = park_uniform(ParkingPreference((3, 4, 4, 4, 3)), 3)
        assert out.spot_of == (3, 4, 2, 1, 5)

    def test_failure_under_small_window(self):
        out = park_uniform(ParkingPreference((2, 3, 3)), 1)
        assert out.spot_of == (2, 3, UNPARKED)
        assert not out.all_parked
        assert out.render() == "2,3,X"

    def test_identity_parks_in_place(self):
        pref = ParkingPreference(tuple(range(1, 8)))
        for k in (0, 1, 3, 7):
            assert park_uniform(pref, k).spot_of == tuple(range(1, 8))

    def test_complete_witness_outcome(self):
        out = park_uniform(ParkingPreference((2, 5, 4, 5, 3)), 2)
        assert out.spot_of == (2, 5, 4, 3, 1)

    def test_window_one_member(self):
        assert park_uniform(ParkingPreference((4, 4, 3, 2, 3)), 1).all_parked

    def test_window_two_member(self):
        pref = ParkingPreference((8, 4, 7, 1, 6, 8, 7, 5, 10, 1))
        assert park_uniform(pref, 2).all_parked

    def test_zero_window_is_classical(self):
        pref = ParkingPreference((2, 2, 1))
        assert park(pref, 0).spot_of == park(pref, (0, 0, 0)).spot_of

    def test_occupant_map(self):
        out = park_uniform(ParkingPreference((3, 4, 4, 4, 3)), 3)
        assert out.occupant_of() == {3: 1, 4: 2, 2: 3, 1: 4, 5: 5}


class TestStep:
    @pytest.mark.parametrize("n", range(1, 9))
    def test_matches_naive_spot(self, n):
        # every occupied set of 1..n, every preference and every window up to
        # n + 1 (windows past the street behave like n - 1)
        for occ in range(0, 1 << (n + 1), 2):
            taken = {s for s in range(1, n + 1) if occ >> s & 1}
            for a in range(1, n + 1):
                for k in range(n + 2):
                    want = naive_spot(taken, a, k, n)
                    assert simulator._step(occ, a, k, n) == want, (taken, a, k)


class TestWindows:
    def test_scalar_broadcast(self):
        assert as_windows(2, 3) == (2, 2, 2)

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            park(ParkingPreference((1, 2, 3)), (1, 0))

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            park(ParkingPreference((1, 2)), -1)
        with pytest.raises(ValueError):
            park(ParkingPreference((1, 2)), (0, -1))

    @pytest.mark.parametrize("windows", [1.5, (1.9, 0.5), (1, "1"), "11"])
    def test_windows_that_are_not_integers_rejected(self, windows):
        # neither truncated nor failing deep inside the run
        with pytest.raises(ValueError, match="must be an integer"):
            park(ParkingPreference((2, 1)), windows)

    def test_numpy_scalar_window(self):
        import numpy as np

        assert park(ParkingPreference((2, 3, 3)), np.int64(2)).all_parked

    def test_per_car_windows_differ_from_uniform(self):
        pref = ParkingPreference((2, 3, 3))
        assert not park(pref, (0, 0, 1)).all_parked
        assert park(pref, (0, 0, 2)).all_parked


def assert_probes_match_oracle(trace, windows, n_spots):
    """Each car probed exactly the candidates the naive rule tries."""
    for st, k in zip(trace, windows):
        back, fwd = naive_probes(st.preferred, k, n_spots, st.spot)
        assert (st.backward_checks, st.forward_checks) == (back, fwd), (st, k)


class TestTraces:
    def test_probe_lists(self):
        _out, trace = park_with_trace(ParkingPreference((3, 4, 4, 4, 3)), 3)
        by_car = {st.car: st for st in trace}
        assert by_car[1].backward_checks == ()
        assert by_car[1].forward_checks == ()
        assert by_car[3].backward_checks == (3, 2)
        assert by_car[4].backward_checks == (3, 2, 1)
        assert by_car[5].backward_checks == (2, 1)
        assert by_car[5].forward_checks == (4, 5)
        assert by_car[5].spot == 5

    def test_unparked_probes_everything_reachable(self):
        _out, trace = park_with_trace(ParkingPreference((2, 3, 3)), 1)
        last = trace[-1]
        assert last.backward_checks == (2,)
        assert last.forward_checks == ()
        assert last.spot is UNPARKED

    def test_car_step_contract(self):
        st = CarStep(3, 4, (3, 2), (), 2)
        assert list(st._asdict().items()) == [
            ("car", 3),
            ("preferred", 4),
            ("backward_checks", (3, 2)),
            ("forward_checks", ()),
            ("spot", 2),
        ]
        assert repr(st) == (
            "CarStep(car=3, preferred=4, backward_checks=(3, 2), forward_checks=(), spot=2)"
        )
        with pytest.raises(AttributeError):
            st.spot = 1
        assert st.spot == 2

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_probes_match_naive_oracle_exhaustive(self, n):
        # every preference under every uniform window 0..n
        for tup in itertools.product(range(1, n + 1), repeat=n):
            pref = ParkingPreference(tup)
            for k in range(n + 1):
                _out, trace = park_with_trace(pref, k)
                assert_probes_match_oracle(trace, (k,) * n, n)

    @given(preferences_with_windows(max_n=6))
    @settings(max_examples=150)
    def test_trace_structure(self, case):
        pref, windows = case
        out, trace = park_with_trace(pref, windows)
        assert_probes_match_oracle(trace, windows, pref.n)
        for st, k in zip(trace, windows):
            # backward: strictly decreasing run from preferred-1, within window
            expected_back = tuple(range(st.preferred - 1, st.preferred - 1 - len(st.backward_checks), -1))
            assert st.backward_checks == expected_back
            assert len(st.backward_checks) <= k
            assert all(s >= 1 for s in st.backward_checks)
            # forward: increasing run from preferred+1, on the street
            expected_fwd = tuple(range(st.preferred + 1, st.preferred + 1 + len(st.forward_checks)))
            assert st.forward_checks == expected_fwd
            assert all(s <= pref.n for s in st.forward_checks)
            if st.spot is not None and st.spot != st.preferred:
                assert st.spot in st.backward_checks or st.spot in st.forward_checks
        assert out.spot_of == tuple(st.spot for st in trace)


class TestProcessInvariants:
    @given(preferences_with_windows())
    @settings(max_examples=300)
    def test_matches_naive_oracle(self, case):
        pref, windows = case
        expected = naive_park(pref.prefs, list(windows))
        assert list(park(pref, windows).spot_of) == expected

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_matches_naive_oracle_exhaustive(self, n):
        # every preference against every window vector in [0, n + 1]^n; each
        # car probes its candidate list up to the spot it takes
        for tup in itertools.product(range(1, n + 1), repeat=n):
            for windows in itertools.product(range(n + 2), repeat=n):
                out, trace = park_with_trace(ParkingPreference(tup), windows)
                assert list(out.spot_of) == naive_park(tup, windows), windows
                assert_probes_match_oracle(trace, windows, n)

    @given(preferences())
    def test_uniform_matches_naive_oracle(self, pref):
        for k in range(pref.n + 1):
            assert list(park_uniform(pref, k).spot_of) == naive_park(pref.prefs, k)

    @given(preferences_with_windows())
    def test_deterministic(self, case):
        pref, windows = case
        assert park(pref, windows) == park(pref, windows)

    @given(preferences_with_windows())
    def test_parked_spots_distinct(self, case):
        pref, windows = case
        out = park(pref, windows)
        parked = [s for s in out.spot_of if s is not None]
        assert len(parked) == len(set(parked))
        assert out.all_parked == (sorted(parked) == list(range(1, pref.n + 1)))

    @given(preferences_with_windows(max_n=5), st.data())
    @settings(max_examples=300)
    def test_window_growth_preserves_parking(self, case, data):
        pref, windows = case
        if not park(pref, windows).all_parked:
            return
        deltas = data.draw(
            st.lists(st.integers(0, 3), min_size=pref.n, max_size=pref.n)
        )
        bigger = tuple(w + d for w, d in zip(windows, deltas))
        assert park(pref, bigger).all_parked

    @given(preferences_with_windows(max_n=6))
    @settings(max_examples=150)
    def test_occupancy_grows_once_per_parked_car(self, case):
        pref, windows = case
        out = park(pref, windows)
        occupied = set()
        for i, spot in enumerate(out.spot_of):
            before = len(occupied)
            if spot is not None:
                occupied.add(spot)
            assert len(occupied) == before + (1 if spot is not None else 0)


class TestRestrictedStreet:
    def test_fewer_cars_than_spots(self):
        # cars preferring >= 4 from (8,4,7,1,6,8,7,5,10,1), full street of 10
        spots = park_cars((8, 4, 7, 6, 8, 7, 5, 10), 2, 10)
        assert spots == [8, 4, 7, 6, 9, 5, 3, 10]

    def test_unparked_on_short_street(self):
        assert park_cars((2, 2, 2), 0, 2) == [2, None, None]

    @pytest.mark.parametrize("prefs", [(5, 1), (1, 0), (-1,)])
    def test_preference_off_the_street(self, prefs):
        with pytest.raises(InvalidPreference, match=r"1\.\.3"):
            park_cars(prefs, 0, 3)
        assert park_cars((), 0, 3) == []

    def test_windows_checked_as_park_does(self):
        with pytest.raises(LengthMismatch, match="1 windows for 3 cars"):
            park_cars([1, 1, 1], (0,), 3)
        with pytest.raises(ValueError, match="backward window must be >= 0, got -1"):
            park_cars([2, 2, 2], -1, 3)
        assert park_cars([2, 2, 2], (1, 0, 1), 3) == [2, 3, 1]
