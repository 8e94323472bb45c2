"""Numpy block kernels for the counting sweeps.

:func:`count_range` decodes blocks of odometer ranks with :func:`_digits`
and parks each block with :func:`park_block`, under one window for every
car.  :func:`naplespf.simulator.park` is the scalar reference for the
parking rule written here.

Street occupancy lives in an int64 bitmask, so these kernels are limited to
n <= 62 spots; :func:`count_range` raises ``ValueError`` beyond that, and
the sweep drivers cap n far below it anyway.

:mod:`naplespf.sweeps` imports this module, and with it numpy, only on the
first counting call.
"""

from __future__ import annotations

import numpy as np

#: Recorded by perfbench/jobs.py in every benchmark report; the kernels are
#: numpy code and nothing in the package reads this.
USE_NUMBA = False

# Predicate slots in the counts array filled by count_range.
IDX_PARKING_FUNCTION = 0
IDX_K_NAPLES = 1
IDX_COMPLETE = 2
IDX_COMPLETE_K_NAPLES = 3
IDX_PERM_INVARIANT = 4
N_PREDICATES = 5

#: Ranks per block in count_range; one block is held in memory at a time.
BLOCK = 2048
#: Largest n whose spots 1..n fit in an int64 occupancy bitmask.
MAX_BITMASK_N = 62


def _digits(lo, size, n):
    """The n base-n digits of ranks lo .. lo + size - 1, one row per digit.

    The most significant digit comes first, so the last row runs fastest.
    Carrying from ``lo`` keeps the decode exact for ranks past int64.
    """
    digits = np.empty((n, size), np.int8)
    carry = np.arange(size, dtype=np.int64)
    r = lo
    for i in range(n - 1, -1, -1):
        carry += r % n
        r //= n
        digits[i] = carry % n
        carry //= n
    return digits


def park_block(prefs, k):
    """Which columns of an (n, B) block of preferences park every car.

    Every car has window k.  Each column keeps one int64 bitmask of free
    spots: a car takes its preferred spot, else the nearest free spot at
    most k behind, probed as ``(bit >> t) & free`` for t = 1, 2, ..., else
    the lowest free spot ahead, ``f & -f``.
    """
    n, size = prefs.shape
    free = np.full(size, (1 << (n + 1)) - 2, np.int64)  # bits 1..n
    parked = np.ones(size, bool)
    for i in range(n):
        bit = np.left_shift(1, prefs[i], dtype=np.int64)
        spot = bit & free
        for t in range(1, min(k, n - 1) + 1):
            spot = np.where(spot == 0, (bit >> t) & free, spot)
        ahead = free & -(bit << 1)
        spot = np.where(spot == 0, ahead & -ahead, spot)  # lowest free spot ahead
        parked &= spot != 0
        free ^= spot
    return parked


def count_range(n, k, start, stop, counts):
    """Accumulate predicate counts over odometer ranks [start, stop) of [n]^n.

    Preferences are visited in lexicographic (odometer) order: rank r has
    digits of r in base n, most significant first, each plus one.  ``counts``
    must be an int64 array of length N_PREDICATES and is added to in place,
    so disjoint ranges can be summed in any order.

    The ranks are processed in blocks of :data:`BLOCK` with numpy, one row
    per car and one column per preference.  Raises ``ValueError`` when n is
    outside 1..62, the spots an int64 occupancy bitmask can hold.
    """
    if not 1 <= n <= MAX_BITMASK_N:
        raise ValueError(f"need 1 <= n <= {MAX_BITMASK_N}, got n={n}")
    for lo in range(start, stop, BLOCK):
        size = min(BLOCK, stop - lo)
        # One row per car, last car fastest.
        prefs = _digits(lo, size, n) + 1
        # u_j = (j - 1) - #{cars preferring a spot < j}, one position at a time.
        # int8 holds every |u_j| and run length, since n <= 62.
        u = np.zeros(size, np.int8)
        max_u = np.zeros(size, np.int8)
        min_tail_u = np.full(size, 1 if n >= 2 else 0, np.int8)  # min over 2..n
        run = np.zeros(size, np.int8)
        max_run = np.zeros(size, np.int8)  # longest run of critical positions
        for j in range(1, n + 1):
            np.maximum(max_u, u, out=max_u)
            if j >= 2:
                np.minimum(min_tail_u, u, out=min_tail_u)
            run = np.where(u >= 1, run + 1, 0)
            np.maximum(max_run, run, out=max_run)
            u += 1 - (prefs == j).sum(axis=0, dtype=np.int8)
        parked = park_block(prefs, k)
        is_complete = min_tail_u >= 1
        counts[IDX_PARKING_FUNCTION] += np.count_nonzero(max_u <= 0)
        counts[IDX_K_NAPLES] += np.count_nonzero(parked)
        counts[IDX_COMPLETE] += np.count_nonzero(is_complete)
        counts[IDX_COMPLETE_K_NAPLES] += np.count_nonzero(is_complete & parked)
        counts[IDX_PERM_INVARIANT] += np.count_nonzero(max_run <= k)
