import pickle

import pytest
from hypothesis import given, settings

from helpers import naive_excess, preferences
from naplespf import (
    EmptyIndexSet,
    InvalidPreference,
    NotZeroExcess,
    ParkingPreference,
    ShiftOutOfRange,
    critical_intervals,
    decompose_at,
    excess,
    multiplicities,
    restrict,
    restrict_shift,
    shift,
)


class TestParkingPreference:
    def test_basic_fields(self):
        pref = ParkingPreference((3, 1, 3, 5, 2, 4, 2))
        assert pref.n == 7
        assert len(pref) == 7
        assert pref[0] == 3
        assert list(pref) == [3, 1, 3, 5, 2, 4, 2]

    def test_rejects_empty(self):
        with pytest.raises(InvalidPreference):
            ParkingPreference(())

    @pytest.mark.parametrize("bad", [(0,), (2,), (1, 4, 1), (-1, 1)])
    def test_rejects_out_of_range(self, bad):
        with pytest.raises(InvalidPreference):
            ParkingPreference(bad)

    @pytest.mark.parametrize("bad", [(2.9, 1), ("3", "1", "2"), (1.0,)])
    def test_rejects_entries_that_are_not_integers(self, bad):
        # neither truncated nor parsed
        with pytest.raises(InvalidPreference, match="must be integers"):
            ParkingPreference(bad)

    def test_numpy_integer_entries(self):
        import numpy as np

        pref = ParkingPreference(tuple(np.array([2, 1], np.int8)))
        assert pref.prefs == (2, 1) and all(type(a) is int for a in pref)

    def test_parse_render_round_trip(self):
        text = "3,1,3,5,2,4,2"
        pref = ParkingPreference.parse(text)
        assert pref.render() == text
        assert ParkingPreference.parse(pref.render()) == pref

    def test_parse_tolerates_spaces(self):
        assert ParkingPreference.parse(" 2, 3 ,3 ").prefs == (2, 3, 3)

    def test_parse_names_offending_token(self):
        with pytest.raises(InvalidPreference, match="'x'"):
            ParkingPreference.parse("1,x,3")

    def test_immutable(self):
        pref = ParkingPreference((1, 2))
        with pytest.raises(AttributeError):
            pref.prefs = (2, 1)


class TestMultiplicities:
    def test_worked_example(self):
        m = multiplicities(ParkingPreference((3, 1, 3, 5, 2, 4, 2)))
        assert m == (1, 2, 2, 1, 1, 0, 0)
        assert m[3 - 1] == 2 and m[6 - 1] == 0

    def test_identity_permutation(self):
        assert multiplicities(ParkingPreference((1, 2, 3))) == (1, 1, 1)

    def test_hand_count(self):
        assert multiplicities(ParkingPreference((5, 3, 3, 5, 4))) == (0, 0, 2, 1, 2)

    @given(preferences())
    def test_sums_to_n(self, pref):
        assert sum(multiplicities(pref)) == pref.n


class TestExcess:
    def test_small_example(self):
        prof = excess(ParkingPreference((2, 3, 3)))
        assert prof.values == (0, 1, 1)
        assert prof.intervals == ((2, 3),)
        assert prof.u(2) == 1 and prof.u(3) == 1

    def test_identity_is_flat(self):
        prof = excess(ParkingPreference(tuple(range(1, 7))))
        assert prof.values == (0,) * 6
        assert prof.intervals == ()
        assert prof.is_empty

    def test_sign_changes(self):
        prof = excess(ParkingPreference((3, 4, 4, 4, 3)))
        assert prof.u(4) == 1
        assert prof.u(5) == -1
        assert prof.intervals == ((2, 4),)

    def test_near_complete(self):
        prof = excess(ParkingPreference((5, 3, 3, 4, 4)))
        assert prof.intervals == ((2, 4),)

    def test_complete_example(self):
        prof = excess(ParkingPreference((5, 3, 3, 5, 4)))
        assert prof.intervals == ((2, 5),)

    def test_cached_profile_is_invisible(self):
        fresh, cached = ParkingPreference((2, 3, 3)), ParkingPreference((2, 3, 3))
        assert excess(cached) is excess(cached)
        assert fresh == cached and hash(fresh) == hash(cached)
        assert repr(fresh) == repr(cached) == "ParkingPreference(prefs=(2, 3, 3))"
        assert pickle.dumps(cached) == pickle.dumps(fresh)
        loaded = pickle.loads(pickle.dumps(cached))
        assert loaded == cached and excess(loaded) == excess(cached)

    def test_critical_intervals_on_raw_values(self):
        assert critical_intervals([0, 1, 1, 0, 2, -1]) == ((2, 3), (5, 5))
        assert critical_intervals([0, 0]) == ()

    @given(preferences())
    def test_matches_definition(self, pref):
        assert list(excess(pref).values) == naive_excess(pref.prefs)

    @given(preferences())
    def test_first_value_zero_and_below_position(self, pref):
        prof = excess(pref)
        assert prof.u(1) == 0
        assert all(prof.u(j) < j for j in range(1, pref.n + 1))

    @given(preferences())
    def test_recurrence_and_prefix_form(self, pref):
        prof = excess(pref)
        m = multiplicities(pref)
        for j in range(1, pref.n):
            assert prof.u(j) == prof.u(j + 1) + m[j - 1] - 1
        for j in range(1, pref.n + 1):
            assert prof.u(j) == j - 1 - sum(m[: j - 1])

    @given(preferences())
    def test_interval_endpoints(self, pref):
        prof = excess(pref)
        m = multiplicities(pref)
        for p, q in prof.intervals:
            assert p >= 2
            assert prof.u(p) == 1
            assert prof.u(p - 1) == 0
            assert m[p - 2] == 0
            assert m[q - 1] >= 2
            # maximality
            if q < pref.n:
                assert prof.u(q + 1) <= 0

    @given(preferences())
    def test_intervals_cover_positive_positions(self, pref):
        prof = excess(pref)
        covered = set()
        for p, q in prof.intervals:
            covered.update(range(p, q + 1))
        positive = {j for j in range(1, pref.n + 1) if prof.u(j) >= 1}
        assert covered == positive


class TestShift:
    def test_worked_example(self):
        # (4,4) only exists as a transient restriction of (4,4,3,2,3)
        sub = restrict_shift(ParkingPreference((4, 4, 3, 2, 3)), {1, 2}, 3)
        assert sub.prefs == (1, 1)

    def test_standalone(self):
        assert shift(ParkingPreference((2, 2)), 1).prefs == (1, 1)

    def test_zero_shift_is_identity(self):
        pref = ParkingPreference((3, 1, 2))
        assert shift(pref, 0) == pref

    def test_out_of_range(self):
        with pytest.raises(ShiftOutOfRange):
            shift(ParkingPreference((2, 1)), 1)
        with pytest.raises(ShiftOutOfRange):
            shift(ParkingPreference((2, 1)), -1)


    @pytest.mark.parametrize(
        "w, message",
        [
            (-1, "shift must be non-negative, got -1"),
            (1, "shift by 1 drops entry 1 below spot 1"),
            (0.7, "shift must be an integer, got 0.7"),
        ],
    )
    def test_restrict_shift_raises_as_shift(self, w, message):
        pref = ParkingPreference((2, 1))
        with pytest.raises(ShiftOutOfRange, match=f"^{message}$"):
            shift(pref, w)
        with pytest.raises(ShiftOutOfRange, match=f"^{message}$"):
            restrict_shift(pref, {1, 2}, w)

class TestRestrict:
    def test_worked_example(self):
        sub = restrict(ParkingPreference((4, 4, 3, 2, 3)), {3, 4, 5})
        assert sub == (3, 2, 3)

    def test_full_set_is_identity(self):
        pref = ParkingPreference((2, 1, 3))
        assert restrict(pref, range(1, 4)) == pref.prefs

    def test_reads_off_positions(self):
        pref = ParkingPreference((8, 4, 7, 1, 6, 8, 7, 5, 10, 1))
        assert restrict(pref, {2, 3, 5, 7, 8}) == (4, 7, 6, 7, 5)

    def test_empty_set_rejected(self):
        with pytest.raises(EmptyIndexSet):
            restrict(ParkingPreference((1, 2)), ())

    def test_out_of_range_index(self):
        with pytest.raises(ValueError):
            restrict(ParkingPreference((1, 2)), (0, 1))
        with pytest.raises(ValueError):
            restrict(ParkingPreference((1, 2)), (1, 3))

    def test_restrict_shift_composition(self):
        pref = ParkingPreference((8, 4, 7, 1, 6, 8, 7, 5, 10, 1))
        sub = restrict_shift(pref, {2, 3, 5, 7, 8}, 2)
        assert sub.prefs == (2, 5, 4, 5, 3)

    def test_restrict_shift_validates_result(self):
        # entries stay above the new length without a big enough shift
        pref = ParkingPreference((8, 4, 7, 1, 6, 8, 7, 5, 10, 1))
        with pytest.raises(InvalidPreference):
            restrict_shift(pref, {2, 3, 5, 7, 8}, 1)


class TestDecompose:
    def test_worked_example(self):
        lower, upper = decompose_at(ParkingPreference((4, 4, 3, 2, 3)), 4)
        assert lower.prefs == (3, 2, 3)
        assert upper.prefs == (1, 1)

    def test_at_position_one(self):
        pref = ParkingPreference((2, 1, 3))
        lower, upper = decompose_at(pref, 1)
        assert lower is None
        assert upper == pref

    def test_hand_example(self):
        lower, upper = decompose_at(ParkingPreference((2, 1, 3)), 3)
        assert lower.prefs == (2, 1)
        assert upper.prefs == (1,)

    def test_requires_zero_excess(self):
        with pytest.raises(NotZeroExcess):
            decompose_at(ParkingPreference((2, 3, 3)), 2)

    def test_position_out_of_range(self):
        with pytest.raises(ValueError):
            decompose_at(ParkingPreference((1,)), 2)

    @given(preferences(max_n=6))
    @settings(max_examples=200)
    def test_excess_slices(self, pref):
        prof = excess(pref)
        for j in range(1, pref.n + 1):
            if prof.u(j) != 0:
                continue
            lower, upper = decompose_at(pref, j)
            assert upper.n == pref.n - j + 1
            if lower is not None:
                assert lower.n == j - 1
                assert excess(lower).values == prof.values[: j - 1]
            assert excess(upper).values == prof.values[j - 1 :]
