"""Shared test utilities: independent oracles and strategies.

``naive_park`` restates the parking rule as a single candidate list per car
and is kept deliberately separate from the library implementation, so the
two can vet each other; ``naive_count_k_naples`` and
``naive_count_complete_k_naples`` count with the same candidate lists.
``loop_count_perm_invariant`` scans every multiset of preferences, the
reference for the counting DP, and
``permutation_invariant_by_enumeration`` parks every rearrangement of one
preference.  ``Case`` and ``REFERENCE`` restate every per-preference
property of ``verify_sweep`` through the scalar API, one preference at a
time: the reference for the flat verification engine.  ``SRC`` is the
directory that holds the package under test, for the ``PYTHONPATH`` of
subprocess tests.
"""

import itertools
import math
from pathlib import Path

from hypothesis import strategies as st

import naplespf
from naplespf import (
    ParkingOutcome,
    ParkingPreference,
    SizeLimitExceeded,
    WitnessCertificate,
    decompose_at,
    excess,
    find_witness,
    is_complete,
    is_k_naples,
    is_parking_function,
    is_permutation_invariant,
    multiplicities,
    park_uniform,
)
from naplespf.characterize import (
    _SUBSET_SEARCH_CAP,
    _summary_consistent,
    _summary_rows,
    _upper_part_parks,
    _witness_subsets,
    _witnessed,
)
from naplespf.classify import (
    _bounds_hold,
    _equivalences,
    _spot_bounds,
    _spots_below_filled,
)

SRC = str(Path(naplespf.__file__).resolve().parents[1])


def naive_candidates(a, k, n_spots):
    """Spots a car preferring ``a`` with window ``k`` tries, in order: the
    preferred spot, then the k nearest spots behind, then everything ahead."""
    return (
        [a]
        + [a - d for d in range(1, k + 1) if a - d >= 1]
        + list(range(a + 1, n_spots + 1))
    )


def naive_spot(taken, a, k, n_spots):
    """First free spot in the car's candidate list, or None."""
    return next((s for s in naive_candidates(a, k, n_spots) if s not in taken), None)


def naive_park(prefs, windows, n_spots=None):
    """Brute-force parking, one candidate list per car."""
    if n_spots is None:
        n_spots = len(prefs)
    if isinstance(windows, int):
        windows = [windows] * len(prefs)
    taken = set()
    result = []
    for a, k in zip(prefs, windows):
        spot = naive_spot(taken, a, k, n_spots)
        if spot is not None:
            taken.add(spot)
        result.append(spot)
    return result


def naive_count_k_naples(n, k):
    """Number of k-Naples preferences of length n, by a DP over occupied sets.

    Where a car parks depends only on the set of taken spots, its preference
    and its window, so ``ways[S]`` counts the preference prefixes whose cars
    all park and fill exactly S; each of the n^n preferences is never
    visited one by one.
    """
    ways = {frozenset(): 1}
    for _ in range(n):
        after = {}
        for taken, count in ways.items():
            for a in range(1, n + 1):
                spot = naive_spot(taken, a, k, n)
                if spot is not None:
                    key = taken | {spot}
                    after[key] = after.get(key, 0) + count
        ways = after
    return sum(ways.values())


def naive_count_complete_k_naples(n, k):
    """Number of complete k-Naples preferences of length n, by a DP over
    prefixes that never reads the kernel.

    A prefix is keyed by its taken spots and how many of its cars prefer
    each spot, with its number of preferences as the weight.  A complete
    preference has at most j - 2 cars preferring below j for every j in
    2..n; those counts only grow, so a prefix is dropped once some j has
    more, or once a car exits.  What is left after n cars is counted.
    """
    ways = {(frozenset(), (0,) * n): 1}
    for _ in range(n):
        after = {}
        for (taken, prefer), count in ways.items():
            for a in range(1, n + 1):
                spot = naive_spot(taken, a, k, n)
                more = prefer[: a - 1] + (prefer[a - 1] + 1,) + prefer[a:]
                below = itertools.accumulate(more[:-1])  # cars preferring <= 1, 2, ..
                if spot is None or any(b > m for m, b in enumerate(below)):
                    continue
                key = (taken | {spot}, more)
                after[key] = after.get(key, 0) + count
        ways = after
    return sum(ways.values())


def loop_all_park(prefs, windows, n_spots):
    """Whether every car parks, one bitmask loop per car: the parking half
    of the loop reference for ``_kernels.count_range``, and the reference
    for the monotone-window search."""
    occ = 0
    for i in range(len(prefs)):
        a = prefs[i]
        k = windows[i]
        s = 0
        if (occ >> a) & 1 == 0:
            s = a
        else:
            lo = a - k
            if lo < 1:
                lo = 1
            for t in range(a - 1, lo - 1, -1):
                if (occ >> t) & 1 == 0:
                    s = t
                    break
            if s == 0:
                for t in range(a + 1, n_spots + 1):
                    if (occ >> t) & 1 == 0:
                        s = t
                        break
        if s == 0:
            return False
        occ |= 1 << s
    return True


def loop_count_perm_invariant(n: int, k: int, by_class: bool = False) -> int:
    """Permutation-invariant preferences by a scan over multisets: the
    reference for ``sweeps.count_perm_invariant_fast``.

    Whether every rearrangement parks depends only on how many cars prefer
    each spot, so it suffices to scan nondecreasing representatives and
    weight each by its number of distinct rearrangements (or by 1 with
    ``by_class``).
    """
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    if k < 0:
        raise ValueError(f"need k >= 0, got {k}")
    fact_n = math.factorial(n)
    total = 0
    for rep in itertools.combinations_with_replacement(range(1, n + 1), n):
        m = [0] * (n + 1)
        for a in rep:
            m[a] += 1
        seen = 0
        run = 0
        max_run = 0
        for j in range(1, n + 1):
            u = j - 1 - seen
            seen += m[j]
            if u >= 1:
                run += 1
                max_run = max(max_run, run)
            else:
                run = 0
        if max_run <= k:
            if by_class:
                total += 1
            else:
                weight = fact_n
                for count in m[1:]:
                    weight //= math.factorial(count)
                total += weight
    return total


# Brute force over distinct rearrangements stays below 7! sequences.
_REARRANGEMENT_CAP = 7


def distinct_rearrangements(pref):
    """All distinct rearrangements of the preference, in sorted order."""
    if pref.n > _REARRANGEMENT_CAP:
        raise SizeLimitExceeded(
            f"rearrangement enumeration is capped at n <= {_REARRANGEMENT_CAP}"
        )
    for tup in sorted(set(itertools.permutations(pref.prefs))):
        yield ParkingPreference(tup)


def permutation_invariant_by_enumeration(pref, k):
    """Brute-force oracle for ``is_permutation_invariant`` (n <= 7)."""
    return all(is_k_naples(sigma, k) for sigma in distinct_rearrangements(pref))


def api_predicates(pref, k):
    """The counting kernel's predicate slots for one preference, straight
    off the public API."""
    complete = pref.n >= 2 and is_complete(pref)
    naples = is_k_naples(pref, k)
    return [
        is_parking_function(pref),
        naples,
        complete,
        complete and naples,
        is_permutation_invariant(pref, k),
    ]


def naive_excess(prefs):
    """Excess by definition: cars preferring >= j minus spots >= j."""
    n = len(prefs)
    return [
        sum(1 for a in prefs if a >= j) - (n - j + 1) for j in range(1, n + 1)
    ]


class Case:
    """One preference's outcomes and witnesses, each made once: the scalar
    reference for the verification engine, ``naplespf._verify``.

    The excess profile needs no slot here: the preference keeps its own.
    """

    def __init__(self, pref: ParkingPreference):
        self.pref = pref
        self.complete = pref.n >= 2 and excess(pref).intervals == ((2, pref.n),)
        self._outs: dict[int, ParkingOutcome] = {}
        self._certs: dict[tuple, WitnessCertificate | None] = {}

    def out(self, k: int) -> ParkingOutcome:
        if k not in self._outs:
            self._outs[k] = park_uniform(self.pref, k)
        return self._outs[k]

    def witness(
        self, pref: ParkingPreference, k: int, interval: tuple[int, int]
    ) -> WitnessCertificate | None:
        # pref is always self.pref; it is taken to fit characterize._Lookup
        key = (k, interval)
        if key not in self._certs:
            self._certs[key] = find_witness(pref, k, interval)
        return self._certs[key]


def _prop_easy_characterization(c: Case, k: int) -> bool:
    return excess(c.pref).is_empty == c.out(0).all_parked


def _prop_excess_formulas(c: Case, k: int) -> bool:
    m = multiplicities(c.pref)
    n = c.pref.n
    vals = excess(c.pref).values
    if vals[0] != 0:
        return False
    for j in range(1, n + 1):
        direct = sum(m[i - 1] for i in range(j, n + 1)) - (n - j + 1)
        prefix = j - 1 - sum(m[i - 1] for i in range(1, j))
        if vals[j - 1] != direct or vals[j - 1] != prefix:
            return False
        if vals[j - 1] >= j:
            return False
        if j < n and vals[j - 1] != vals[j] + m[j - 1] - 1:
            return False
    return True


def _prop_elementary_intervals(c: Case, k: int) -> bool:
    m = multiplicities(c.pref)
    prof = excess(c.pref)
    for p, q in prof.intervals:
        if p < 2:
            return False
        if prof.u(p) != 1 or prof.u(p - 1) != 0:
            return False
        if m[p - 2] != 0 or m[q - 1] < 2:
            return False
    return True


def _prop_decomposition_excess(c: Case, k: int) -> bool:
    vals = excess(c.pref).values
    for j in range(1, c.pref.n + 1):
        if vals[j - 1] != 0:
            continue
        lower, upper = decompose_at(c.pref, j)
        if lower is not None and excess(lower).values != vals[: j - 1]:
            return False
        if excess(upper).values != vals[j - 1 :]:
            return False
    return True


def _prop_necessary_excess_bound(c: Case, k: int) -> bool:
    if not c.out(k).all_parked:
        return True
    return excess(c.pref).max_excess <= k


def _prop_excess_bound_sufficient(c: Case, k: int) -> bool:
    # Deliberately false: the excess bound does not imply parking.
    if excess(c.pref).max_excess > k:
        return True
    return c.out(k).all_parked


def _prop_nonincreasing_sufficiency(c: Case, k: int) -> bool:
    if any(a < b for a, b in zip(c.pref.prefs, c.pref.prefs[1:])):
        return True
    if excess(c.pref).max_excess > k:
        return True
    return c.out(k).all_parked


def _prop_drive_forward(c: Case, k: int) -> bool:
    out = c.out(k)
    pairs = list(zip(c.pref.prefs, out.spot_of))
    for a, s in pairs:
        if s is None or s <= a:
            continue
        # splitting: nobody preferring >= s may sit at or before s
        for a2, s2 in pairs:
            if a2 >= s and s2 is not None and s2 <= s:
                return False
        if out.all_parked and excess(c.pref).u(s) > -1:
            return False
    return True


def _prop_p_minus_1(c: Case, k: int) -> bool:
    out = c.out(k)
    return _spots_below_filled(c.pref, out) == out.all_parked


def _prop_char_complete(c: Case, k: int) -> bool:
    if not c.complete:
        return True
    return _equivalences(c.pref, c.out(k)).agree


def _prop_quantitative_bound(c: Case, k: int) -> bool:
    out = c.out(k)
    rows = _spot_bounds(c.pref, out) if c.complete else ()
    return _bounds_hold(rows, out.all_parked)


def _prop_restricted_translated(c: Case, k: int) -> bool:
    zeros = [j for j, u in enumerate(excess(c.pref).values[1:], 2) if u == 0]
    parked = c.out(k).all_parked
    return not parked or all(_upper_part_parks(c.pref, k, j) for j in zeros)


def _prop_main_characterization(c: Case, k: int) -> bool:
    return _witnessed(c.pref, k, c.witness) == c.out(k).all_parked


def _prop_witness_size(c: Case, k: int) -> bool:
    if not c.out(k).all_parked:
        return True
    for p, q in excess(c.pref).intervals:
        cert = c.witness(c.pref, k, (p, q))
        if cert is None:
            return False
        if len(cert.indices) < q - p + 2:
            return False
    return True


def _prop_search_matches_extraction(c: Case, k: int) -> bool:
    if c.pref.n > _SUBSET_SEARCH_CAP:
        return True
    for p, q in excess(c.pref).intervals:
        found = next(_witness_subsets(c.pref.prefs, k, p, q), None) is not None
        if found != (c.witness(c.pref, k, (p, q)) is not None):
            return False
    return True


def _prop_tail_lemma(c: Case, k: int) -> bool:
    if not c.complete:
        return True
    out = c.out(k)
    if not out.all_parked:
        return True
    return out.spot_of[-1] == 1 and c.pref.prefs[-1] <= k + 1


def _prop_summary_theorem(c: Case, k: int) -> bool:
    rows = _summary_rows(c.pref, k, c.witness)
    return _summary_consistent(k, c.out(k).all_parked, rows)


#: The scalar check of each per-preference property, by registry name.
REFERENCE = {
    "easy_characterization": _prop_easy_characterization,
    "excess_formula_agreement": _prop_excess_formulas,
    "elementary_intervals": _prop_elementary_intervals,
    "decomposition_excess": _prop_decomposition_excess,
    "necessary_excess_bound_is_necessary": _prop_necessary_excess_bound,
    "excess_bound_is_sufficient": _prop_excess_bound_sufficient,
    "nonincreasing_sufficiency": _prop_nonincreasing_sufficiency,
    "drive_forward": _prop_drive_forward,
    "p_minus_1_biconditional": _prop_p_minus_1,
    "char_complete_equivalence": _prop_char_complete,
    "quantitative_bound": _prop_quantitative_bound,
    "restricted_translated_pf": _prop_restricted_translated,
    "main_characterization": _prop_main_characterization,
    "witness_size_bound": _prop_witness_size,
    "search_matches_extraction": _prop_search_matches_extraction,
    "tail_lemma": _prop_tail_lemma,
    "summary_theorem": _prop_summary_theorem,
}


@st.composite
def preferences(draw, min_n=1, max_n=7):
    n = draw(st.integers(min_n, max_n))
    prefs = draw(st.lists(st.integers(1, n), min_size=n, max_size=n))
    return ParkingPreference(tuple(prefs))


@st.composite
def preferences_with_windows(draw, min_n=1, max_n=7, max_k=None):
    pref = draw(preferences(min_n, max_n))
    hi = pref.n if max_k is None else max_k
    windows = draw(
        st.lists(st.integers(0, hi), min_size=pref.n, max_size=pref.n)
    )
    return pref, tuple(windows)
