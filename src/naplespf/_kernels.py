"""Numpy block kernels for the counting sweeps.

:func:`count_range` walks blocks of odometer ranks one car at a time.
Ranks that share their first i digits share everything the first i cars
did, so each prefix is carried once.  Its parking state is one int64: bit
s - 1 is set when spot s is taken, and bit n once some car has exited.
Where a car parks depends only on the taken spots, its preference and its
window, so :func:`_children` maps a parent state to its n child states with
:func:`_step_block`, and for n <= 12 a table of every state's children
turns each car into one gather.  :func:`naplespf.simulator._step` is the
scalar reference for the parking rule written here.

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
BLOCK = 8192
#: Largest n whose spots 1..n fit in an int64 occupancy bitmask.
MAX_BITMASK_N = 62


def _step_block(free, a, k):
    """Spot taken by one car per column, as a one-bit int64 mask, or 0.

    ``free`` holds each column's bitmask of free spots and ``a`` its car's
    preferred spot.  The car takes its preferred spot, else the nearest free
    spot at most k behind, probed as ``(bit >> t) & free`` for t = 1, 2, ...,
    else the lowest free spot ahead, ``f & -f``; 0 means it exits.
    """
    bit = np.left_shift(1, a, dtype=np.int64)
    spot = bit & free
    for t in range(1, k + 1):
        spot = np.where(spot == 0, (bit >> t) & free, spot)
    ahead = free & -(bit << 1)
    return np.where(spot == 0, ahead & -ahead, spot)


def _children(states, n, window):
    """Child states of each parking state, one column per preferred spot.

    Column a - 1 of the ``(len(states), n)`` result is the state after one
    more car, preferring spot a, parks (its spot's bit set) or exits (bit n
    set).  A set bit n stays set.
    """
    free = ~(states[:, None] << 1) & ((1 << (n + 1)) - 2)  # bits 1..n
    spot = _step_block(free, np.arange(1, n + 1), window)
    return states[:, None] | (spot >> 1) | ((spot == 0).astype(np.int64) << n)


def count_range(n, k, start, stop, counts):
    """Accumulate predicate counts over odometer ranks [start, stop) of [n]^n.

    Preferences are visited in lexicographic (odometer) order: rank r has
    digits of r in base n, most significant first, each plus one.  ``counts``
    must be an int64 array of length N_PREDICATES and is added to in place,
    so disjoint ranges can be summed in any order.

    Each block of :data:`BLOCK` ranks is walked level by level.  Level i
    holds the distinct prefixes of i + 1 cars, with ids ``r // n**(n-1-i)``;
    the parent of prefix c is ``c // n`` and its new car prefers
    ``c % n + 1``.  A prefix carries its parking state (see
    :func:`_children`) and its partial excess, one int8 row per position j
    that starts at j - 1 and loses 1 for each car preferring a spot below j.
    When all 2^(n+1) states fit in a block (n <= 12), their children are
    tabulated once per call and each level is one gather from the table;
    above that each level steps its parents' states.  Raises ``ValueError``
    when n is outside 1..62, the spots an int64 occupancy bitmask can hold.
    """
    if not 1 <= n <= MAX_BITMASK_N:
        raise ValueError(f"need 1 <= n <= {MAX_BITMASK_N}, got n={n}")
    window = min(k, n - 1)  # a car never backs up past spot 1
    exited = 1 << n
    table = None
    if 2 * exited <= BLOCK:
        table = _children(np.arange(2 * exited, dtype=np.int64), n, window)
    # np.repeat(u, n, axis=1) lists n children per parent: column x holds
    # child x % n, whose car prefers a[x] = x % n + 1 and so lowers u_j by
    # lower[j - 1, x] = 1 at every position j above a[x].
    a = np.arange(min(BLOCK, stop - start) + n) % n + 1
    rows = np.arange(1, n + 1)[:, None]  # position j per row
    lower = (rows > a).astype(np.int8)
    for lo in range(start, stop, BLOCK):
        hi = min(lo + BLOCK, stop)
        state = np.zeros(1, np.int64)  # no spot taken, no car exited
        u = (rows - 1).astype(np.int8)
        for i in range(n):
            scale = n ** (n - 1 - i)
            first = lo // scale  # id of the level's first prefix
            # first - n * (first // n) places the first prefix among its
            # parent's children; numpy sees offsets below BLOCK + n only,
            # while the ids stay Python ints past int64.
            cut = slice(first % n, first % n + (hi - 1) // scale - first + 1)
            if table is None:
                state = _children(state, n, window).ravel()[cut]
            else:
                state = table[state].ravel()[cut]
            u = np.repeat(u, n, axis=1)[:, cut]
            u -= lower[:, cut]
        parked = (state & exited) == 0
        # int8 holds every |u_j| and run length, since n <= 62.
        run = np.zeros(u.shape[1], np.int8)
        max_run = np.zeros_like(run)  # longest run of critical positions
        for critical in u >= 1:
            run = (run + 1) * critical
            np.maximum(max_run, run, out=max_run)
        is_complete = (u[1:] >= 1).all(axis=0) & (n >= 2)  # u >= 1 on 2..n
        counts[IDX_PARKING_FUNCTION] += np.count_nonzero(u.max(axis=0) <= 0)
        counts[IDX_K_NAPLES] += np.count_nonzero(parked)
        counts[IDX_COMPLETE] += np.count_nonzero(is_complete)
        counts[IDX_COMPLETE_K_NAPLES] += np.count_nonzero(is_complete & parked)
        counts[IDX_PERM_INVARIANT] += np.count_nonzero(max_run <= k)
