"""Flat-array engine behind :func:`naplespf.sweeps.verify_sweep`.

[n]^n is walked in blocks of whole prefixes, in rank order, so memory stays
bounded at any n (:func:`_blocks`).  In a block every preference is one row:
the cars' preferred spots are an ``(n, rows)`` int8 array, and so are their
spots under each window, parked car by car by :func:`_park`: one lookup
per car in :func:`naplespf._kernels.park_table`, the parking rule
tabulated once per (n, window), the same table the counting DP reads.
Each registered property is one function of ``(block, k)`` in
:data:`HOLDS` that returns the mask of rows on which it holds.

A block keeps its rows' maximal critical intervals in two forms: the masks
of their starts and ends, and the list of (row, p, q) pairs, by row and
then by p, that every interval-wise pass reads; a row's i-th start and
i-th end bound its i-th interval.  The witness properties read flat passes
over the pairs, all parked the same way: the extraction of
:func:`~naplespf.characterize.find_witness` with its certificate re-check,
the subset scan of :func:`~naplespf.characterize.enumerate_witnesses` over
the 2^n car masks, and the process restricted to the cars preferring
spots >= p.  Each such pass is made once per block and window, by
:func:`_per_window`.  Permutation invariance is compared per multiset after
the last block, against each multiset's longest interval.

The scalar bodies of the same facts are the public ``check_*`` and
``verify_*`` functions of :mod:`naplespf.classify` and
:mod:`naplespf.characterize`.  :mod:`naplespf.sweeps` imports this module,
and with it numpy, on the first :func:`~naplespf.sweeps.verify_sweep` call.
"""

from __future__ import annotations

import functools
import itertools

import numpy as np

from ._kernels import _street, park_table
from .characterize import _SUBSET_SEARCH_CAP
from .core import ParkingPreference
from .errors import VerificationFailed
from .sweeps import Counterexample

#: Rows per block at most; a block is every preference under one prefix.
BLOCK_ROWS = 1 << 16


def _blocks(n):
    """Blocks of [n]^n in rank order, as ``(n, rows)`` int8 arrays.

    ``prefs[i, r]`` is car i + 1's preferred spot in row r.  A block holds
    every preference under one prefix of d cars, d the fewest that bring it
    to at most :data:`BLOCK_ROWS` rows.
    """
    d = 0
    while n ** (n - d) > BLOCK_ROWS:
        d += 1
    rows = n ** (n - d)
    ranks = np.arange(rows)
    prefs = np.empty((n, rows), np.int8)
    for i in range(d, n):  # odometer digits, last car fastest
        prefs[i] = ranks // n ** (n - 1 - i) % n + 1
    for prefix in range(n**d):
        for i in range(d):
            prefs[i] = prefix // n ** (d - 1 - i) % n + 1
        yield prefs.copy()


def _park(prefs, active, free, window):
    """Spot of each car, 0 for a car that exits or sits out, as int8.

    ``prefs`` is ``(cars, columns)``; each column is one process whose cars
    run in order on the spots set in its entry of ``free``, all within
    1..cars.  ``active`` marks the cars that run (None: all of them).  Each
    car is one lookup in :func:`~naplespf._kernels.park_table`, so every
    active car must prefer a spot in 1..cars.  Every caller keeps to that:
    a car that runs with its preference shifted down by p - 2 preferred
    p - 1 or more, and an interval starts at p >= 2, since u_1 = 0.
    """
    n = len(prefs)
    spot_of, left = park_table(n, window)
    a = prefs if active is None else np.where(active, prefs, 0)
    spots = np.empty(prefs.shape, np.int8)
    for car in range(n):
        at = free * (n + 1) + a[car]
        spots[car] = spot_of[at]
        free = left[at]
    return spots


def _outcome(prefs, window):
    """Every row's process on the full street: the spots the properties read."""
    return _park(prefs, None, _street(len(prefs)), window)


def _all_ran(spots, active):
    """Whether every active car of each column parked."""
    return ((spots > 0) | ~active).all(0)


def _per_window(make):
    """Make the pass ``make(block, w)`` once per block, keyed by its name and
    the window w = min(k, n - 1) the kernels run: a car never backs up past
    spot 1, so k = n - 1 and k = n share one pass."""

    @functools.wraps(make)
    def once(self, k):
        w = min(k, self.n - 1)
        key = (make.__name__, w)
        if key not in self._cache:
            self._cache[key] = make(self, w)
        return self._cache[key]

    return once


class _Block:
    """Rows of preferences with their excess and intervals, and per window
    the outcome and the witness passes, each made once."""

    def __init__(self, prefs):
        n, rows = prefs.shape
        self.n, self.rows, self.prefs = n, rows, prefs
        pos = np.arange(1, n + 1, dtype=np.int8)[:, None]
        self.pos = pos
        self.m = np.zeros((n, rows), np.int8)  # cars preferring spot j
        for a in range(n):
            self.m[a] = (prefs == a + 1).sum(0)
        self.below = np.cumsum(self.m, 0, dtype=np.int8) - self.m  # cars preferring < j
        self.at_least = np.cumsum(self.m[::-1], 0, dtype=np.int8)[::-1]  # ... >= j
        self.u = pos - 1 - self.below  # the excess, in its prefix form
        crit = self.u >= 1
        none = np.zeros_like(crit[:1])
        self.starts = crit & ~np.concatenate((none, crit[:-1]))
        self.ends = crit & ~np.concatenate((crit[1:], none))
        self.complete = crit[1:].all(0) & (n >= 2)
        self.max_u = self.u.max(0)
        # (row, maximal interval [p, q]) pairs, by row and then by p: a row's
        # i-th start and i-th end bound its i-th interval
        self.iv_row, start = np.nonzero(self.starts.T)
        self.iv_p, self.iv_q = start + 1, np.nonzero(self.ends.T)[1] + 1
        self.iv_prefs = prefs[:, self.iv_row]
        self._cache = {}

    @_per_window
    def spots(self, w):
        return _outcome(self.prefs, w)

    @_per_window
    def parked(self, w):
        return (self.spots(w) > 0).all(0)

    def any_pair(self, flags):
        """Rows with at least one flagged (row, interval) pair."""
        out = np.zeros(self.rows, bool)
        out[self.iv_row[flags]] = True
        return out

    def backward_occupancy(self, k):
        """Every spot j is held by a car preferring >= j; where two cars
        share a spot, as a faulty outcome may have, the later one counts."""
        spots, held = self.spots(k), 0
        for pref, spot in zip(self.prefs, spots):
            bit = np.left_shift(1, spot, dtype=np.int64)
            held = (held & ~bit) | bit * (pref >= spot)
        full = int(_street(self.n))
        return held & full == full

    @_per_window
    def witnesses(self, w):
        """:func:`_extract` on every pair: (found, chosen cars, re-check passed)."""
        return _extract(self.iv_prefs, self.iv_p, self.iv_q, w)

    def recheck_failed(self, k):
        """Rows with an extracted witness that fails its re-check."""
        found, _, ok = self.witnesses(k)
        return self.any_pair(found & ~ok)

    @functools.cached_property
    def _scan_candidates(self):
        """(pair, shifted preferences, car mask) triples whose cars pass
        every witness test but parking: h >= q-p+2 of them, all preferring
        spots in [p, p-2+h], and complete once shifted down by p - 2."""
        n, p, q, prefs = self.n, self.iv_p, self.iv_q, self.iv_prefs
        bits = np.arange(n)[:, None]
        # per pair and size h: the cars a witness of h cars cannot hold, or
        # every car when h < q-p+2
        barred = [
            (((prefs < p) | (prefs > p - 2 + h)) << bits).sum(0) | (q > p - 2 + h) * -1
            for h in range(n + 1)
        ]
        cars = (np.arange(1 << n) >> bits & 1).astype(bool)  # column: a car mask
        pairs, masks = [np.zeros(0, np.int64)], [np.zeros(0, np.int64)]
        for mask in range(3, 1 << n):
            hit = np.flatnonzero(barred[mask.bit_count()] & mask == 0)
            pairs.append(hit)
            masks.append(np.full(len(hit), mask))
        pair, chosen = np.concatenate(pairs), cars[:, np.concatenate(masks)]
        beta = prefs[:, pair] - (p[pair] - 2).astype(np.int8)
        complete = _complete(beta, chosen)
        return pair[complete], beta[:, complete], chosen[:, complete]

    @_per_window
    def subsets(self, w):
        """Every witness of every pair, by the subset scan of every
        candidate: (pair, chosen cars)."""
        pair, beta, chosen = self._scan_candidates
        parks = _all_ran(_park(beta, chosen, _street(chosen.sum(0)), w), chosen)
        return pair[parks], chosen[:, parks]

    @_per_window
    def before(self, w):
        """:func:`_spot_before_fills` on every pair."""
        return _spot_before_fills(self.iv_prefs, self.iv_p, w)

    @_per_window
    def uppers_park(self, w):
        """:func:`_upper_parks` at every zero j >= 2 of the excess, per row
        that parks under w; True on the other rows."""
        pos, row = np.nonzero((self.u[1:] == 0) & self.parked(w))
        out = np.ones(self.rows, bool)
        out[row[~_upper_parks(self.prefs[:, row], pos + 2, w)]] = False
        return out


def _extract(prefs, p, q, window):
    """find_witness on each (preference, maximal interval [p, q]) column:
    (found, chosen cars, re-check passed).

    The cars preferring >= p - 1, shifted down by p - 2, park on their own
    street; the witness is the cars on spots 1..M, M the first spot such
    that 1..M are all filled and only by cars preferring spots in 1..M.
    """
    hat = prefs >= p - 1
    beta = prefs - (p - 2).astype(np.int8)
    spots = _park(beta, hat, _street(hat.sum(0)), window)
    cols = np.arange(len(p))
    pref_at = np.zeros((len(prefs) + 1, len(p)), np.int8)  # row 0: cars with no spot
    pref_at[spots, cols] = beta
    placed = pref_at[1:]
    spot = np.arange(1, len(prefs) + 1, dtype=np.int8)[:, None]
    cut_ok = np.logical_and.accumulate(placed > 0, 0) & (
        np.maximum.accumulate(placed, 0) <= spot
    )
    found = cut_ok.any(0)
    chosen = (spots > 0) & (spots <= cut_ok.argmax(0) + 1) & found
    return found, chosen, _certificates_hold(prefs, p, q, chosen, window)


def _spot_before_fills(prefs, p, window):
    """restricted_spot_before_occupied on each (preference, interval start
    p) column: the cars preferring >= p alone, on the full street, fill
    spot p - 1."""
    spots = _park(prefs, prefs >= p, _street(len(prefs)), window)
    return (spots == p - 1).any(0)


def _complete(beta, chosen):
    """Whether each column's chosen cars, preferring spots ``beta``, are a
    complete preference of their own length h: u(j) >= 1 for j = 2..h, that
    is, at most j - 2 of them prefer a spot below j."""
    h = chosen.sum(0)
    ok = np.ones(len(h), bool)
    for j in range(2, len(beta) + 1):
        ok &= (j > h) | ((chosen & (beta < j)).sum(0) <= j - 2)
    return ok


def _upper_parks(prefs, j, window):
    """_upper_part_parks on each (preference, position j) column: the cars
    preferring >= j, shifted down by j - 1, park on a street of their own
    number of spots; at a zero of the excess, the spots j..n."""
    active = prefs >= j
    street = _street(len(prefs)) & -(np.int64(1) << j)
    return _all_ran(_park(prefs, active, street, window), active)


def _certificates_hold(prefs, p, q, chosen, window):
    """check_certificate on each pair's chosen cars: at least q - p + 2 of
    them, all preferring spots in [p, p-2+h], complete once shifted down by
    p - 2, and parking on their own street of h spots."""
    h = chosen.sum(0)
    beta = prefs - (p - 2).astype(np.int8)
    in_range = (~chosen | ((prefs >= p) & (beta <= h))).all(0)
    parks = _all_ran(_park(beta, chosen, _street(h), window), chosen)
    return (h >= q - p + 2) & in_range & _complete(beta, chosen) & parks


# --------------------------------------------------------------------------
# One function per property: the rows of a block on which it holds under k.
# --------------------------------------------------------------------------


def _easy_characterization(b, k):
    return b.starts.any(0) != b.parked(0)


def _excess_formulas(b, k):
    n, u, m, pos = b.n, b.u, b.m, b.pos
    direct = b.at_least - (n - pos + 1)  # the suffix form
    ok = (u[0] == 0) & (u == direct).all(0) & (u < pos).all(0)
    return ok & (u[:-1] == u[1:] + m[:-1] - 1).all(0)  # the recurrence


def _elementary_intervals(b, k):
    u, m = b.u, b.m
    at_start = (u[1:] == 1) & (u[:-1] == 0) & (m[:-1] == 0)  # at p, from p = 2
    return ~b.starts[0] & ~(b.starts[1:] & ~at_start).any(0) & ~(b.ends & (m < 2)).any(0)


def _decomposition_excess(b, k):
    n, u, at_least = b.n, b.u, b.at_least
    ok = np.ones(b.rows, bool)
    for j in range(1, n + 1):
        size = n - j + 1  # of the upper part
        # each part's excess in its own positions, by the suffix form
        upper = at_least[j - 1 :] - (size - np.arange(size, dtype=np.int8)[:, None])
        lower = at_least[: j - 1] - at_least[j - 1] - (j - b.pos[: j - 1])
        good = (at_least[j - 1] == size) & (upper == u[j - 1 :]).all(0)
        ok &= (u[j - 1] != 0) | (good & (lower == u[: j - 1]).all(0))
    return ok


def _necessary_excess_bound(b, k):
    return ~b.parked(k) | (b.max_u <= k)


def _excess_bound_sufficient(b, k):
    # Deliberately false: the excess bound does not imply parking.
    return (b.max_u > k) | b.parked(k)


def _nonincreasing_sufficiency(b, k):
    increasing = (b.prefs[:-1] < b.prefs[1:]).any(0)
    return increasing | (b.max_u > k) | b.parked(k)


def _drive_forward(b, k):
    spots, parked = b.spots(k), b.parked(k)
    held = 0  # spots s..a of every car that parks at s <= its preference a
    for a, s in zip(b.prefs.astype(np.int64), spots.astype(np.int64)):
        held |= ((2 << a) - (1 << s)) * ((s > 0) & (s <= a))
    bad = np.zeros(b.rows, bool)
    cols = np.arange(b.rows)
    for a, s in zip(b.prefs, spots):
        split = (held >> s & 1).astype(bool) | (parked & (b.u[s - 1, cols] > -1))
        bad |= (s > a) & split
    return ~bad


def _p_minus_1(b, k):
    occupied = 0
    for spot in b.spots(k):
        occupied |= np.left_shift(1, spot, dtype=np.int64)
    empty = occupied[b.iv_row] >> (b.iv_p - 1) & 1 == 0  # spot p - 1 of a pair
    return b.any_pair(empty) != b.parked(k)


def _char_complete(b, k):
    spots, parked = b.spots(k), b.parked(k)
    bounded = ((spots > 0) & (spots <= b.prefs)).all(0)
    backward = b.backward_occupancy(k)
    return ~b.complete | ((parked == backward) & (backward == bounded))


def _quantitative_bound(b, k):
    spots, prefs, parked = b.spots(k), b.prefs, b.parked(k)
    ok = np.ones(b.rows, bool)
    for j, u in enumerate(b.u, start=1):
        # cars preferring >= j that park before j
        before = ((prefs >= j) & (spots > 0) & (spots < j)).sum(0)
        ok &= np.where(parked, before == u, before <= u)
    return ~b.complete | ok


def _restricted_translated(b, k):
    return ~b.parked(k) | b.uppers_park(k)


def _main_characterization(b, k):
    found, _, _ = b.witnesses(k)
    return b.any_pair(~found) != b.parked(k)


def _witness_size(b, k):
    found, chosen, _ = b.witnesses(k)
    short = ~found | (chosen.sum(0) < b.iv_q - b.iv_p + 2)
    return ~b.parked(k) | ~b.any_pair(short)


def _search_matches_extraction(b, k):
    if b.n > _SUBSET_SEARCH_CAP:
        return np.ones(b.rows, bool)
    found, _, _ = b.witnesses(k)
    scanned = np.zeros(len(found), bool)  # some subset is a witness, per pair
    scanned[b.subsets(k)[0]] = True
    return ~b.any_pair(scanned != found)


def _tail_lemma(b, k):
    spots, prefs = b.spots(k), b.prefs
    return ~(b.complete & b.parked(k)) | ((spots[-1] == 1) & (prefs[-1] <= k + 1))


def _summary_theorem(b, k):
    found, _, _ = b.witnesses(k)
    short = b.iv_q - b.iv_p + 1 <= k
    bad = b.any_pair((b.before(k) != found) | (short & ~found))
    return ~bad & (b.any_pair(~found) != b.parked(k))


#: The rows of a block on which each per-preference property holds under k.
HOLDS = {
    "easy_characterization": _easy_characterization,
    "excess_formula_agreement": _excess_formulas,
    "elementary_intervals": _elementary_intervals,
    "decomposition_excess": _decomposition_excess,
    "necessary_excess_bound_is_necessary": _necessary_excess_bound,
    "excess_bound_is_sufficient": _excess_bound_sufficient,
    "nonincreasing_sufficiency": _nonincreasing_sufficiency,
    "drive_forward": _drive_forward,
    "p_minus_1_biconditional": _p_minus_1,
    "char_complete_equivalence": _char_complete,
    "quantitative_bound": _quantitative_bound,
    "restricted_translated_pf": _restricted_translated,
    "main_characterization": _main_characterization,
    "witness_size_bound": _witness_size,
    "search_matches_extraction": _search_matches_extraction,
    "tail_lemma": _tail_lemma,
    "summary_theorem": _summary_theorem,
}

#: Properties that read extracted witnesses: on a row with a witness that
#: fails its re-check they raise VerificationFailed.
READS_WITNESSES = {
    "main_characterization",
    "witness_size_bound",
    "search_matches_extraction",
    "summary_theorem",
}


def _invariant_by_structure(longest, k):
    """Permutation invariance read off the excess: every maximal interval
    is at most k long."""
    return longest <= k


class _PermInvariance:
    """Whether every rearrangement parks, per multiset and window, ANDed
    over the blocks; compared with the structure after the last one."""

    def __init__(self, n, ks):
        self.n, self.ks = n, ks
        self.classes = np.array(
            list(itertools.combinations_with_replacement(range(1, n + 1), n)), np.int8
        ).T
        shape = _Block(self.classes)
        self.longest = np.zeros(shape.rows, np.int64)  # per class, 0 with none
        np.maximum.at(self.longest, shape.iv_row, shape.iv_q - shape.iv_p + 1)
        self.index = np.zeros(1 << (2 * n - 1), np.int64)  # multiset key -> class
        self.index[self._keys(shape)] = np.arange(self.classes.shape[1])
        self.all_park = np.ones((len(ks), self.classes.shape[1]), bool)

    @staticmethod
    def _keys(block):
        """One integer per row naming its multiset: written in stars and
        bars, the cars preferring spot j are bits below(j) + j - 1 and up."""
        key = 0
        for j, (m, below) in enumerate(zip(block.m, block.below)):
            key = key + ((np.left_shift(1, m, dtype=np.int64) - 1) << (below + j))
        return key

    def add(self, block):
        cls = self.index[self._keys(block)]
        for i, k in enumerate(self.ks):
            self.all_park[i, cls[~block.parked(k)]] = False

    def first_mismatch(self):
        """The first multiset, then the first k, whose structure and outcomes
        disagree, in combinations_with_replacement order."""
        ks = np.array(self.ks, np.int64)[:, None]
        mismatch = _invariant_by_structure(self.longest, ks) != self.all_park
        first = np.flatnonzero(mismatch.T)
        if not len(first):
            return None
        c, i = divmod(int(first[0]), len(self.ks))
        pref = ParkingPreference(tuple(map(int, self.classes[:, c])))
        return Counterexample(pref, self.n, self.ks[i], "perm_invariance")


def first_counterexample(n, checks, perm_ks):
    """The first failing check over [n]^n, as verify_sweep orders them.

    ``checks`` lists (property, k) in the order to try them at each
    preference.  The lowest failing rank comes first, then the earlier
    check.  A check that reads a witness whose re-check fails raises
    :class:`~naplespf.errors.VerificationFailed` in its place.  With no
    failure, the multisets are compared for each k in ``perm_ks``.
    """
    perm = _PermInvariance(n, perm_ks) if perm_ks else None
    for prefs in _blocks(n):
        block = _Block(prefs)
        first = None  # (row, check index, raises)
        for i, (name, k) in enumerate(checks):
            if name in READS_WITNESSES:
                raises = block.recheck_failed(k)
            else:
                raises = np.zeros(block.rows, bool)
            bad = np.flatnonzero(~HOLDS[name](block, k) | raises)
            if len(bad) and (first is None or bad[0] < first[0]):
                first = (bad[0], i, raises[bad[0]])
        if first is not None:
            row, i, raises = first
            name, k = checks[i]
            pref = ParkingPreference(tuple(prefs[:, row]))
            ce = Counterexample(pref, n, k, name)
            if raises:
                raise VerificationFailed(_recheck_message(block, row, k, pref), ce)
            return ce
        if perm is not None:
            perm.add(block)
    return perm.first_mismatch() if perm is not None else None


def _recheck_message(block, row, k, pref):
    found, chosen, ok = block.witnesses(k)
    e = np.flatnonzero((block.iv_row == row) & found & ~ok)[0]
    indices = tuple(int(c) + 1 for c in np.flatnonzero(chosen[:, e]))
    interval = (int(block.iv_p[e]), int(block.iv_q[e]))
    return (
        f"extracted witness {indices} for {interval} of {pref} fails the "
        f"certificate re-check with window {k}"
    )
