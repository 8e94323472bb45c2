"""The flat verification engine, ``naplespf._verify``, against its scalar
reference: ``helpers.REFERENCE`` restates every per-preference property
through the public API, one preference at a time."""

import itertools

import numpy as np
import pytest

from helpers import (
    REFERENCE,
    Case,
    park_table_matches_simulator,
    permutation_invariant_by_enumeration,
)
from naplespf import (
    Counterexample,
    ParkingPreference,
    excess,
    find_witness,
    is_complete,
    is_permutation_invariant,
    iter_preferences,
    park_uniform,
    restricted_spot_before_occupied,
    verify_sweep,
)
from naplespf import _verify
from naplespf.characterize import _upper_part_parks, _witness_subsets
from naplespf.classify import _equivalences
from naplespf.sweeps import PROPERTIES

def whole_block(n):
    """All of [n]^n as one block, with the scalar record of each row."""
    prefs = np.array(list(iter_preferences(n)), np.int8).T
    cases = [Case(ParkingPreference(tuple(map(int, col)))) for col in prefs.T]
    return _verify._Block(prefs), cases


def scanned_witnesses(block, k):
    """The subset scan's witnesses, as sets of 1-based car indices per pair."""
    scanned = {}
    pairs, chosen = block.subsets(k)
    for e, cars in zip(pairs, chosen.T):
        scanned.setdefault(e, set()).add(tuple(int(c) + 1 for c in np.flatnonzero(cars)))
    return scanned


def sampled_block(n):
    """200 fixed-seed rows past the exhaustive sizes: 100 uniform and 100
    skewed to the top spots as n - floor(Exp(0.35))."""
    rng = np.random.default_rng(n)
    uniform = rng.integers(1, n + 1, (n, 100))
    skewed = n - np.floor(rng.exponential(1 / 0.35, (n, 100)))
    return _verify._Block(np.concatenate([uniform, skewed.clip(1, n)], 1).astype(np.int8))


@pytest.fixture(scope="module", params=[1, 2, 3, 4, 5])
def block_and_cases(request):
    return whole_block(request.param)


class TestMatchesScalarReference:
    def test_every_property_verdict(self, block_and_cases):
        block, cases = block_and_cases
        n = block.n
        assert set(REFERENCE) == set(_verify.HOLDS) == set(PROPERTIES) - {"perm_invariance"}
        for k in range(n + 1):
            for name, reference in REFERENCE.items():
                if k == 0 and name in _verify.READS_WITNESSES:
                    continue  # find_witness takes windows k >= 1 only
                want = [reference(case, k) for case in cases]
                assert list(_verify.HOLDS[name](block, k)) == want, (n, k, name)

    def test_outcomes(self, block_and_cases):
        block, cases = block_and_cases
        for k in range(block.n + 1):
            want = [[s or 0 for s in case.out(k).spot_of] for case in cases]
            assert block.spots(k).T.tolist() == want, k

    def test_witness_passes(self, block_and_cases):
        # per (row, maximal interval): the extraction finds find_witness's
        # certificate, which passes its re-check; the subset scan finds every
        # witness that enumerate_witnesses lists, and no other; and the
        # restricted process fills spot p-1 as restricted_spot_before_occupied
        # says
        block, cases = block_and_cases
        for k in range(1, block.n + 1):
            found, chosen, ok = block.witnesses(k)
            before = block.before(k)
            scanned = scanned_witnesses(block, k)
            for e, (row, p, q) in enumerate(zip(block.iv_row, block.iv_p, block.iv_q)):
                pref = cases[row].pref
                cert = find_witness(pref, k, (p, q))
                indices = tuple(int(c) + 1 for c in np.flatnonzero(chosen[:, e]))
                assert found[e] == (cert is not None), (pref, k, p)
                assert indices == (cert.indices if cert else ()), (pref, k, p)
                assert ok[e] or not found[e], (pref, k, p)
                listed = {j for j, _ in _witness_subsets(pref.prefs, k, int(p), int(q))}
                assert scanned.get(e, set()) == listed, (pref, k, p)
                assert before[e] == restricted_spot_before_occupied(pref, k, p)

    def test_windows_n_minus_1_and_n_share_each_pass(self, block_and_cases):
        # a car never backs up past spot 1, so k = n runs the kernels'
        # window n - 1: the pass made there is the same object
        block, _ = block_and_cases
        n = block.n
        for name in ("spots", "parked", "witnesses", "subsets", "before", "uppers_park"):
            assert getattr(block, name)(n) is getattr(block, name)(n - 1), name

    @staticmethod
    def assert_pairs_are_intervals(block):
        # the engine pairs each row's i-th start with its i-th end; the
        # scalar excess lists the same (row, p, q) triples
        got = zip(block.iv_row.tolist(), block.iv_p.tolist(), block.iv_q.tolist())
        want = [
            (row, p, q)
            for row, col in enumerate(block.prefs.T.tolist())
            for p, q in excess(ParkingPreference(tuple(col))).intervals
        ]
        assert sorted(got) == sorted(want)

    def test_pairs_are_the_scalar_intervals(self, block_and_cases):
        self.assert_pairs_are_intervals(block_and_cases[0])

    @pytest.mark.parametrize("n", [8, 10, 12])
    def test_pairs_on_sampled_rows(self, n):
        self.assert_pairs_are_intervals(sampled_block(n))

    @pytest.mark.parametrize("n", [7, 8, 9])
    def test_subset_scan_on_sampled_rows(self, n):
        # from n = 9 on, a car mask needs more bits than an int8 holds
        block = sampled_block(n)
        for k in (1, 2, n - 1):
            scanned = scanned_witnesses(block, k)
            for e, (row, p, q) in enumerate(zip(block.iv_row, block.iv_p, block.iv_q)):
                prefs = tuple(map(int, block.prefs[:, row]))
                listed = {j for j, _ in _witness_subsets(prefs, k, int(p), int(q))}
                assert scanned.get(e, set()) == listed, (prefs, k, p)

    def test_upper_parts(self, block_and_cases):
        # at every zero j >= 2 of the excess, on every row; the property
        # reads the rows that park
        block, cases = block_and_cases
        pos, row = np.nonzero(block.u[1:] == 0)
        seen = set()
        for k in range(block.n + 1):
            got = _verify._upper_parks(block.prefs[:, row], pos + 2, min(k, block.n - 1))
            want = [_upper_part_parks(cases[r].pref, k, int(j)) for r, j in zip(row, pos + 2)]
            assert list(got) == want, k
            seen.update(want)
            want = [
                not case.out(k).all_parked
                or all(
                    _upper_part_parks(case.pref, k, j)
                    for j in range(2, block.n + 1)
                    if excess(case.pref).u(j) == 0
                )
                for case in cases
            ]
            assert list(block.uppers_park(k)) == want, k
        if block.n >= 3:  # upper parts that stall exist from n = 3 on
            assert seen == {True, False}

    def test_completeness(self):
        # every preference of length 2..5 as the chosen cars, after a car
        # that is not chosen
        for h in range(2, 6):
            prefs = np.array(list(iter_preferences(h)), np.int8).T
            want = [is_complete(ParkingPreference(tuple(map(int, col)))) for col in prefs.T]
            chosen = np.ones((h + 1, prefs.shape[1]), bool)
            chosen[0] = False
            padded = np.concatenate([np.ones_like(prefs[:1]), prefs])
            assert list(_verify._complete(padded, chosen)) == want, h

    def test_perm_invariance_per_multiset(self, block_and_cases):
        block, _ = block_and_cases
        n = block.n
        ks = list(range(n + 1))
        perm = _verify._PermInvariance(n, ks)
        perm.add(block)
        classes = itertools.combinations_with_replacement(range(1, n + 1), n)
        for c, multiset in enumerate(classes):
            pref = ParkingPreference(multiset)
            assert tuple(perm.classes[:, c]) == multiset
            for i, k in enumerate(ks):
                assert perm.all_park[i, c] == permutation_invariant_by_enumeration(pref, k)
                structural = _verify._invariant_by_structure(perm.longest[c], k)
                assert structural == is_permutation_invariant(pref, k), (multiset, k)


class TestParkTable:
    @pytest.mark.parametrize("n", range(1, 9))
    def test_matches_simulator(self, n):
        # every free set of [n], every preferred spot and every window the
        # engine runs; a = 0 sits out
        for w in range(n):
            park_table_matches_simulator(n, w)


class TestBackwardOccupancy:
    """char_complete_equivalence's agreement cannot see a fault in its
    backward-occupancy leg: on a complete preference the leg says the same
    as the other two.  So the leg is its own mask, compared with classify's
    leg on its own."""

    @staticmethod
    def compare(block, k):
        prefs = [ParkingPreference(tuple(map(int, col))) for col in block.prefs.T]
        want = [_equivalences(pref, park_uniform(pref, k)).backward_occupancy for pref in prefs]
        assert list(block.backward_occupancy(k)) == want, k
        return set(want)

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_complete_preferences(self, n):
        prefs = np.array(list(iter_preferences(n)), np.int8).T
        block = _verify._Block(prefs[:, _verify._Block(prefs).complete])
        assert block.complete.all() and block.rows == (n - 1) ** (n - 1)
        seen = set().union(*(self.compare(block, k) for k in range(n + 1)))
        assert seen == {False, True}

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_every_preference(self, n):
        # here every spot may be filled while a car sits past its preference
        block, _ = whole_block(n)
        for k in range(n + 1):
            self.compare(block, k)


class TestFalseProperty:
    def test_violation_counts(self):
        # counted with the scalar reference too; the deliberately false
        # property fails exactly where an excess-bounded preference stalls
        counts = {}
        for n in (3, 5):
            block, cases = whole_block(n)
            for k in range(1, n + 1):
                engine = int((~_verify.HOLDS["excess_bound_is_sufficient"](block, k)).sum())
                scalar = sum(
                    not REFERENCE["excess_bound_is_sufficient"](case, k) for case in cases
                )
                assert engine == scalar, (n, k)
                counts[n, k] = engine
        assert [counts[3, k] for k in (1, 2, 3)] == [2, 0, 0]
        assert [counts[5, k] for k in (1, 2, 3, 4, 5)] == [417, 347, 124, 0, 0]
        ce = verify_sweep(3, properties=["excess_bound_is_sufficient"])
        assert ce == Counterexample(
            ParkingPreference((2, 3, 3)), 3, 1, "excess_bound_is_sufficient"
        )


class TestOrder:
    def test_blocks_are_whole_prefixes_in_rank_order(self, monkeypatch):
        monkeypatch.setattr(_verify, "BLOCK_ROWS", 20)
        blocks = list(_verify._blocks(4))
        assert [prefs.shape for prefs in blocks] == [(4, 16)] * 16
        rows = np.concatenate(blocks, axis=1)
        assert [tuple(col) for col in rows.T.tolist()] == list(iter_preferences(4))

    @pytest.mark.parametrize("rows", [1, 5, 25, 10**6])
    def test_block_size_does_not_change_the_answer(self, monkeypatch, rows):
        # (1,1,4,5,5) is where the scalar reference first fails at n = 5
        monkeypatch.setattr(_verify, "BLOCK_ROWS", rows)
        ce = verify_sweep(5, properties=["tail_lemma", "excess_bound_is_sufficient"])
        assert ce == Counterexample(
            ParkingPreference((1, 1, 4, 5, 5)), 5, 1, "excess_bound_is_sufficient"
        )
        monkeypatch.setattr(
            _verify, "_invariant_by_structure", lambda longest, k: longest + (k == 2) <= k
        )
        ce = verify_sweep(3, [3, 2, 1], ["perm_invariance"])
        assert ce == Counterexample(ParkingPreference((2, 3, 3)), 3, 2, "perm_invariance")

    @pytest.mark.parametrize(
        "names, ks, first",  # first: index in names of the property that fails
        [
            (["excess_bound_is_sufficient", "easy_characterization"], [2, 1], 0),
            (["easy_characterization", "excess_bound_is_sufficient"], [2, 1], 0),
            (["tail_lemma", "excess_bound_is_sufficient"], [3, 1], 1),
        ],
    )
    def test_lowest_rank_then_property_then_k(self, monkeypatch, names, ks, first):
        # with every last car stalled, (1,1,1) is the first row, and there
        # the excess bound holds but nobody parks; tail_lemma holds there,
        # and a window-independent property runs at its least window only
        real = _verify._outcome

        def last_car_exits(prefs, window):
            spots = real(prefs, window)
            spots[-1] = 0
            return spots

        monkeypatch.setattr(_verify, "_outcome", last_car_exits)
        name = names[first]
        k = 0 if PROPERTIES[name].k_independent else ks[0]
        ce = verify_sweep(3, ks, names)
        assert ce == Counterexample(ParkingPreference((1, 1, 1)), 3, k, name)
