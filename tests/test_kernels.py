import itertools

import numpy as np
import pytest

from helpers import (
    api_predicates,
    loop_all_park,
    naive_count_k_naples,
    park_table_matches_simulator,
)
from naplespf import _kernels, simulator
from naplespf import (
    ParkingPreference,
    WitnessCertificate,
    count_perm_invariant_fast,
    enumerate_witnesses,
    excess,
    is_complete,
    is_k_naples,
    restrict_shift,
)


def reference_counts(n, k):
    """Predicate counts straight off the public API."""
    out = [0] * _kernels.N_PREDICATES
    for tup in itertools.product(range(1, n + 1), repeat=n):
        for i, hit in enumerate(api_predicates(ParkingPreference(tup), k)):
            out[i] += hit
    return out


def loop_count_range(n, k, start, stop, counts):
    """Per-rank loop version of ``_kernels.count_range``: the reference."""
    prefs = np.empty(n, np.int64)
    r = start
    for i in range(n - 1, -1, -1):
        prefs[i] = r % n + 1
        r //= n
    m = np.zeros(n + 1, np.int64)
    for _rank in range(start, stop):
        for j in range(1, n + 1):
            m[j] = 0
        for i in range(n):
            m[prefs[i]] += 1
        seen = 0
        max_u = 0
        run = 0
        max_run = 0
        tail_ok = True  # u >= 1 on every position 2..n
        for j in range(1, n + 1):
            u = j - 1 - seen
            seen += m[j]
            if u > max_u:
                max_u = u
            if j >= 2 and u < 1:
                tail_ok = False
            if u >= 1:
                run += 1
                if run > max_run:
                    max_run = run
            else:
                run = 0
        is_pf = max_u <= 0
        is_complete = n >= 2 and tail_ok
        parked = loop_all_park(prefs, np.full(n, k), n)
        if is_pf:
            counts[_kernels.IDX_PARKING_FUNCTION] += 1
        if parked:
            counts[_kernels.IDX_K_NAPLES] += 1
        if is_complete:
            counts[_kernels.IDX_COMPLETE] += 1
        if is_complete and parked:
            counts[_kernels.IDX_COMPLETE_K_NAPLES] += 1
        if max_run <= k:
            counts[_kernels.IDX_PERM_INVARIANT] += 1
        j = n - 1
        while j >= 0:
            prefs[j] += 1
            if prefs[j] <= n:
                break
            prefs[j] = 1
            j -= 1


def loop_enumerate_witnesses(pref, k, interval):
    """Subset-by-subset scan through the public API, the reference for
    ``characterize.enumerate_witnesses``."""
    p, q = interval
    pool = [i for i in range(1, pref.n + 1) if pref.prefs[i - 1] >= p]
    min_size = q - p + 2
    found = []
    for mask in range(1, 1 << len(pool)):
        chosen = [pool[b] for b in range(len(pool)) if (mask >> b) & 1]
        h = len(chosen)
        if h < min_size:
            continue
        if any(pref.prefs[i - 1] > p - 2 + h for i in chosen):
            continue
        sr = restrict_shift(pref, chosen, p - 2)
        if not (is_complete(sr) and is_k_naples(sr, k)):
            continue
        found.append(WitnessCertificate((p, q), tuple(chosen), sr))
    return found


def engine_and_loop(n, k, start, stop):
    got = np.zeros(_kernels.N_PREDICATES, np.int64)
    _kernels.count_range(n, k, start, stop, got)
    want = np.zeros(_kernels.N_PREDICATES, np.int64)
    loop_count_range(n, k, start, stop, want)
    return list(got), list(want)


class TestCountRange:
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_matches_public_api(self, n):
        for k in range(n + 1):
            got = np.zeros(_kernels.N_PREDICATES, np.int64)
            _kernels.count_range(n, k, 0, n**n, got)
            assert list(got) == reference_counts(n, k)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_matches_loop_reference(self, n):
        for k in range(n + 1):
            got, want = engine_and_loop(n, k, 0, n**n)
            assert got == want, (n, k)

    @pytest.mark.parametrize(
        "offset, length",
        [
            (0, 0),  # empty range
            (12345, 0),
            (777, 1),  # single rank
            (1024, 2051),  # starts and ends inside 3-car prefixes
            (4096, 8195),  # spans several 2-car prefixes
            (6**6 - 5, 5),  # last ranks of [6]^6
        ],
    )
    def test_unaligned_ranges_match_loop_reference(self, offset, length):
        for k in (0, 2, 6):
            got, want = engine_and_loop(6, k, offset, offset + length)
            assert got == want, (k, offset, length)

    def test_partial_ranges_compose(self):
        n, k = 4, 1
        total = n**n
        whole = np.zeros(_kernels.N_PREDICATES, np.int64)
        _kernels.count_range(n, k, 0, total, whole)
        pieces = np.zeros(_kernels.N_PREDICATES, np.int64)
        cuts = [0, 37, 100, 191, total]
        for lo, hi in zip(cuts, cuts[1:]):
            _kernels.count_range(n, k, lo, hi, pieces)
        assert list(pieces) == list(whole)

    @pytest.mark.parametrize("n", [7, 8, 9, 10])
    def test_matches_independent_routes(self, n):
        # n = 10 has 10^10 preferences: only merged nodes make this finish
        for k in range(n + 1):
            got = np.zeros(_kernels.N_PREDICATES, np.int64)
            _kernels.count_range(n, k, 0, n**n, got)
            assert got[_kernels.IDX_PARKING_FUNCTION] == (n + 1) ** (n - 1), k
            assert got[_kernels.IDX_COMPLETE] == (n - 1) ** (n - 1), k
            assert got[_kernels.IDX_PERM_INVARIANT] == count_perm_invariant_fast(n, k), k
            assert got[_kernels.IDX_K_NAPLES] == naive_count_k_naples(n, k), k

    @pytest.mark.parametrize("k", [0, 2, 9])
    def test_whole_prefix_matches_per_rank_route(self, k):
        # the subtree of the prefix (9, 8, 7, 6) counted whole starts from one
        # node and merges from level 7 on; cut after its first rank, both
        # pieces start inside it and are walked one node per rank
        n = 9
        lo = (((8 * n + 7) * n + 6) * n + 5) * n**5
        hi = lo + n**5
        whole = np.zeros(_kernels.N_PREDICATES, np.int64)
        _kernels.count_range(n, k, lo, hi, whole)
        pieces = np.zeros(_kernels.N_PREDICATES, np.int64)
        for start, stop in ((lo, lo + 1), (lo + 1, hi)):
            _kernels.count_range(n, k, start, stop, pieces)
        assert list(pieces) == list(whole)
        if k == n:
            assert whole.all()

    @pytest.mark.parametrize("n", [9, 11])
    def test_mid_subtree_range_matches_loop_reference(self, n):
        # neither end is a multiple of n, so the walk starts from one node
        # per rank
        start = n**n // 3 + 12345
        for k in (0, 2, n):
            got, want = engine_and_loop(n, k, start, start + 8199)
            assert got == want, (n, k)

    @pytest.mark.parametrize("n", [0, -1, _kernels.MAX_N + 1])
    def test_rejects_n_beyond_bitmask(self, n):
        out = np.zeros(_kernels.N_PREDICATES, np.int64)
        with pytest.raises(ValueError, match="n <= 11"):
            _kernels.count_range(n, 1, 0, 1, out)
        assert not out.any()

    def test_largest_bitmask_n(self):
        n = _kernels.MAX_N
        # a node takes (n + 1) + (n - 1) * (n.bit_length() + 1) bits
        assert [m + 1 + (m - 1) * (m.bit_length() + 1) for m in (n, n + 1)] == [62, 68]
        first = 0
        for i in range(n):  # the preference (1, 2, ..., 11)
            first = first * n + i
        last = n**n - 1  # the preference (11, ..., 11)
        for k in (0, n):
            got, want = engine_and_loop(n, k, first, first + 1)
            assert got == want == [1, 1, 0, 0, 1], k
            got, want = engine_and_loop(n, k, last - 2, last + 1)
            assert got == want, k

    def test_largest_bitmask_n_ranges_compose(self):
        n, k = _kernels.MAX_N, 3
        first = 0
        for i in range(n):  # the preference (1, 2, ..., 11)
            first = first * n + i
        stop = first + 16389
        edge = -(-first // n**3) * n**3 + n**3  # a boundary of 8-car prefixes
        whole = np.zeros(_kernels.N_PREDICATES, np.int64)
        _kernels.count_range(n, k, first, stop, whole)
        pieces = np.zeros(_kernels.N_PREDICATES, np.int64)
        cuts = [first, first + 7, edge - 1, edge + 1, stop - 3, stop]
        for lo, hi in zip(cuts, cuts[1:]):
            _kernels.count_range(n, k, lo, hi, pieces)
        assert list(pieces) == list(whole)
        assert whole[_kernels.IDX_PARKING_FUNCTION] > 0


class TestParkKernels:
    def test_uniform_matches_simulator(self):
        # every free set of [n] and every preferred spot at window n, which
        # only counting asks for; test_verify.TestParkTable checks the
        # windows below n that the verification engine runs
        for n in range(1, 9):
            park_table_matches_simulator(n, n)

    @pytest.mark.parametrize("n", [9, 10, 11])
    def test_largest_counting_streets_match_simulator(self, n):
        # the sizes only counting reaches, at the windows that differ most
        for k in (0, 1, n - 1):
            park_table_matches_simulator(n, k)


class TestStateTable:
    def test_children_match_simulator(self):
        # every state (exit flag included), every preference and every
        # window: a car takes its spot's bit out of the free set, and a car
        # that exits drops its prefix to the exit flag alone
        for n in range(1, 8):
            _, units = _kernels._lanes(n)
            for k in range(n + 1):
                table = _kernels._step_table(n, k)
                assert table.shape == (2 << n, n)
                for state, row in enumerate(table.tolist()):
                    occ = ((2 << n) - 2) & ~state  # bit s for each taken spot s
                    for a, step in enumerate(row, start=1):
                        spot = simulator._step(occ, a, k, n)
                        child = 1 if spot is None else state ^ (1 << spot)
                        assert step == child - state + sum(units[a - 1 :]), (n, k, state, a)


class TestWitnessSearch:
    def test_matches_loop_reference(self):
        # same indices, shifted restrictions and bitmask-rank order
        for n in range(2, 6):
            for tup in itertools.product(range(1, n + 1), repeat=n):
                pref = ParkingPreference(tup)
                for k in range(1, n + 1):
                    for iv in excess(pref).intervals:
                        got = enumerate_witnesses(pref, k, iv)
                        assert got == loop_enumerate_witnesses(pref, k, iv), (tup, k)
