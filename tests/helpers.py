"""Shared test utilities: independent oracles and strategies.

``naive_park`` restates the parking rule as a single candidate list per car
and is kept deliberately separate from the library implementation, so the
two can vet each other; ``naive_count_k_naples`` counts with the same
candidate lists.  ``loop_count_perm_invariant`` scans every multiset of
preferences, the reference for the counting DP, and
``permutation_invariant_by_enumeration`` parks every rearrangement of one
preference.  ``SRC`` is the directory that holds the package under test,
for the ``PYTHONPATH`` of subprocess tests.
"""

import itertools
import math
from pathlib import Path

from hypothesis import strategies as st

import naplespf
from naplespf import (
    ParkingPreference,
    SizeLimitExceeded,
    is_complete,
    is_k_naples,
    is_parking_function,
    is_permutation_invariant,
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
