"""Shared test utilities: an independent parking oracle and strategies.

``naive_park`` restates the parking rule as a single candidate list per car
and is kept deliberately separate from the library implementation, so the
two can vet each other.  ``SRC`` is the directory that holds the package
under test, for the ``PYTHONPATH`` of subprocess tests.
"""

from pathlib import Path

from hypothesis import strategies as st

import naplespf
from naplespf import ParkingPreference

SRC = str(Path(naplespf.__file__).resolve().parents[1])


def naive_park(prefs, windows, n_spots=None):
    """Brute-force parking: first free spot among preferred, then the k
    nearest spots behind, then everything ahead."""
    if n_spots is None:
        n_spots = len(prefs)
    if isinstance(windows, int):
        windows = [windows] * len(prefs)
    taken = set()
    result = []
    for a, k in zip(prefs, windows):
        candidates = (
            [a]
            + [a - d for d in range(1, k + 1) if a - d >= 1]
            + list(range(a + 1, n_spots + 1))
        )
        spot = next((s for s in candidates if s not in taken), None)
        if spot is not None:
            taken.add(spot)
        result.append(spot)
    return result


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
