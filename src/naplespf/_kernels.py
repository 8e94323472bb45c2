"""Hot numeric kernels for the exhaustive sweeps.

Counting (:func:`count_range`) is numpy code over blocks of ranks and runs
the same on every backend.  The witness subset search, the monotone-window
check and the bitmask parking kernels they share are written in
nopython-compatible style and compiled with numba's ``@njit`` when numba is
installed.  The subset search is exponential in n and serves only as the
oracle that the sweep checks ``find_witness``'s polynomial extraction
against; no production path calls it.  Setting ``NAPLESPF_DISABLE_NUMBA=1`` (or numba being absent)
runs them uncompiled; both paths produce bit-identical results.

Street occupancy lives in an int64 bitmask, so these kernels are limited to
n <= 62 spots; :func:`count_range` raises ``ValueError`` beyond that, and the
sweep drivers cap n far below it anyway.
"""

from __future__ import annotations

import os

import numpy as np

try:
    import numba

    _HAVE_NUMBA = True
except ImportError:  # numba is an optional extra
    numba = None
    _HAVE_NUMBA = False


def _disabled_by_env() -> bool:
    return os.environ.get("NAPLESPF_DISABLE_NUMBA", "").strip().lower() in {
        "1",
        "true",
        "yes",
        "on",
    }


#: True when kernels below are numba-compiled in this process.
USE_NUMBA = _HAVE_NUMBA and not _disabled_by_env()


def maybe_njit(func):
    """``numba.njit(cache=True, nogil=True)`` when enabled, identity otherwise."""
    if USE_NUMBA:
        return numba.njit(cache=True, nogil=True)(func)
    return func


# Predicate slots in the counts array filled by count_range.
IDX_PARKING_FUNCTION = 0
IDX_K_NAPLES = 1
IDX_COMPLETE = 2
IDX_COMPLETE_K_NAPLES = 3
IDX_PERM_INVARIANT = 4
N_PREDICATES = 5


@maybe_njit
def bitmask_all_park_uniform(prefs, k, n_spots):
    """True when every car parks under the uniform k-Naples rule."""
    occ = 0
    for i in range(prefs.shape[0]):
        a = prefs[i]
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


@maybe_njit
def bitmask_all_park(prefs, windows, n_spots):
    """Per-car-window variant of :func:`bitmask_all_park_uniform`."""
    occ = 0
    for i in range(prefs.shape[0]):
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


#: Ranks per block in count_range; each shard thread holds one block.
BLOCK = 2048
#: Largest n whose spots 1..n fit in an int64 occupancy bitmask.
MAX_BITMASK_N = 62


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
    spots = (1 << (n + 1)) - 2  # bits 1..n
    for lo in range(start, stop, BLOCK):
        size = min(BLOCK, stop - lo)
        # Odometer digits of lo + offset, one row per car, last car fastest.
        prefs = np.empty((n, size), np.int8)
        carry = np.arange(size, dtype=np.int64)
        r = lo
        for i in range(n - 1, -1, -1):
            carry += r % n
            r //= n
            prefs[i] = carry % n + 1
            carry //= n
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
        # Park the whole block: one bitmask of free spots per preference.
        free = np.full(size, spots, np.int64)
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
        is_complete = min_tail_u >= 1
        counts[IDX_PARKING_FUNCTION] += np.count_nonzero(max_u <= 0)
        counts[IDX_K_NAPLES] += np.count_nonzero(parked)
        counts[IDX_COMPLETE] += np.count_nonzero(is_complete)
        counts[IDX_COMPLETE_K_NAPLES] += np.count_nonzero(is_complete & parked)
        counts[IDX_PERM_INVARIANT] += np.count_nonzero(max_run <= k)


@maybe_njit
def witness_search_mask(prefs, k, p, q):
    """Exhaustive witness search for the critical interval [p, q].

    Scans subsets of the cars preferring a spot >= p, in increasing bitmask
    order over that pool, and returns the first subset J (as a global car
    bitmask, bit i-1 for car i) such that

    * |J| >= q - p + 2,
    * every chosen car prefers a spot in [p, p - 2 + |J|],
    * the restriction shifted down by p - 2 is complete, and
    * it parks fully under the uniform k-Naples rule.

    Returns 0 when no subset qualifies.
    """
    n = prefs.shape[0]
    pool = np.empty(n, np.int64)
    pool_size = 0
    for i in range(n):
        if prefs[i] >= p:
            pool[pool_size] = i
            pool_size += 1
    min_size = q - p + 2
    m = np.zeros(n + 2, np.int64)
    b = np.empty(n, np.int64)
    for mask in range(1, 1 << pool_size):
        h = 0
        mm = mask
        while mm:
            h += mm & 1
            mm >>= 1
        if h < min_size:
            continue
        hi = p - 2 + h
        ok = True
        cnt = 0
        for bit in range(pool_size):
            if (mask >> bit) & 1:
                a = prefs[pool[bit]]
                if a > hi:
                    ok = False
                    break
                b[cnt] = a - (p - 2)
                cnt += 1
        if not ok:
            continue
        for j in range(1, h + 1):
            m[j] = 0
        for t in range(h):
            m[b[t]] += 1
        seen = 0
        complete = True
        for j in range(1, h + 1):
            u = j - 1 - seen
            seen += m[j]
            if j >= 2 and u < 1:
                complete = False
                break
        if not complete:
            continue
        if not bitmask_all_park_uniform(b[:h], k, h):
            continue
        out = 0
        for bit in range(pool_size):
            if (mask >> bit) & 1:
                out |= 1 << pool[bit]
        return out
    return 0


@maybe_njit
def monotone_window_violation(n):
    """Search [n]^n x all window vectors for a monotonicity violation.

    For every preference and every window vector under which all cars park,
    bumping a single car's window by one must keep everyone parked.  Returns
    an encoded (pref_rank * W + window_rank) * n + car_index on violation,
    -1 when none exists.  Exhaustive, so only sensible for small n.
    """
    total_p = n**n
    radix_w = n + 1
    total_w = radix_w**n
    prefs = np.empty(n, np.int64)
    win = np.empty(n, np.int64)
    for i in range(n):
        prefs[i] = 1
    for pr in range(total_p):
        for wr in range(total_w):
            r = wr
            for i in range(n - 1, -1, -1):
                win[i] = r % radix_w
                r //= radix_w
            if bitmask_all_park(prefs, win, n):
                for c in range(n):
                    win[c] += 1
                    parked = bitmask_all_park(prefs, win, n)
                    win[c] -= 1
                    if not parked:
                        return (pr * total_w + wr) * n + c
        j = n - 1
        while j >= 0:
            prefs[j] += 1
            if prefs[j] <= n:
                break
            prefs[j] = 1
            j -= 1
    return -1


