"""Hot numeric kernels for the exhaustive sweeps.

Counting (:func:`count_range`) and the monotone-window check
(:func:`monotone_window_violation`) are numpy code over blocks of ranks and
run the same on every backend; both park a block with :func:`park_block`,
under one window for every car or a window per car.  The witness subset
search and the uniform bitmask parking kernel it calls are written in
nopython-compatible style and compiled with numba's ``@njit`` when numba is
installed.  The subset search is exponential in n and serves only as the
oracle that the sweep checks ``find_witness``'s polynomial extraction
against; no production path calls it.  Setting ``NAPLESPF_DISABLE_NUMBA=1``
(or numba being absent) runs them uncompiled; both paths produce
bit-identical results.

Street occupancy lives in an int64 bitmask, so these kernels are limited to
n <= 62 spots; :func:`count_range` and :func:`monotone_window_violation`
raise ``ValueError`` beyond that, and the sweep drivers cap n far below it
anyway.

:mod:`naplespf.sweeps` imports this module, and with it numpy and numba
(when installed), on the first counting or oracle call; ``import naplespf``
and the single-preference commands load neither.
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


#: Ranks per block in count_range and monotone_window_violation; each
#: shard thread holds one block.
BLOCK = 2048
#: Largest n whose spots 1..n fit in an int64 occupancy bitmask.
MAX_BITMASK_N = 62


def _digits(lo, size, radices):
    """Mixed-radix digits of ranks lo .. lo + size - 1, one row per digit.

    The most significant digit comes first, so the last row runs fastest.
    Carrying from ``lo`` keeps the decode exact for ranks past int64.
    """
    digits = np.empty((len(radices), size), np.int8)
    carry = np.arange(size, dtype=np.int64)
    r = lo
    for i in range(len(radices) - 1, -1, -1):
        radix = radices[i]
        carry += r % radix
        r //= radix
        digits[i] = carry % radix
        carry //= radix
    return digits


def park_block(prefs, windows):
    """Which columns of an (n, B) block of preferences park every car.

    ``windows`` is one window k for every car, or an (n, B) array of
    per-car windows.  Each column keeps one int64 bitmask of free spots: a
    car takes its preferred spot, else the nearest free spot at most its
    window behind, probed as ``(bit >> t) & free`` for t = 1, 2, ..., else
    the lowest free spot ahead, ``f & -f``.
    """
    n, size = prefs.shape
    free = np.full(size, (1 << (n + 1)) - 2, np.int64)  # bits 1..n
    parked = np.ones(size, bool)
    per_car = np.ndim(windows) == 2
    for i in range(n):
        bit = np.left_shift(1, prefs[i], dtype=np.int64)
        spot = bit & free
        if per_car:
            w = windows[i]
            # free spots at or above a - w; bit >> w is 0 once w >= a
            back = free & -np.maximum(bit >> w, 1)
            reach = int(w.max(initial=0))
        else:
            back = free
            reach = windows
        for t in range(1, min(reach, n - 1) + 1):
            spot = np.where(spot == 0, (bit >> t) & back, spot)
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
        prefs = _digits(lo, size, (n,) * n) + 1
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


def monotone_window_violation(n):
    """Search [n]^n x all window vectors for a monotonicity violation.

    For every preference and every window vector in [0, n]^n under which all
    cars park, bumping a single car's window by one must keep everyone
    parked.  Rows are ranks pref_rank * W + window_rank, W = (n + 1)^n, both
    in odometer order, visited in blocks of :data:`BLOCK`.  Returns the
    first (pref_rank * W + window_rank) * n + car_index that breaks this,
    -1 when none does.  Exhaustive, so only sensible for small n.
    """
    if not 1 <= n <= MAX_BITMASK_N:
        raise ValueError(f"need 1 <= n <= {MAX_BITMASK_N}, got n={n}")
    radices = (n,) * n + (n + 1,) * n
    total = n**n * (n + 1) ** n
    for lo in range(0, total, BLOCK):
        digits = _digits(lo, min(BLOCK, total - lo), radices)
        prefs = digits[:n] + 1
        windows = digits[n:]
        base = park_block(prefs, windows)
        broken = np.empty((n, base.size), bool)
        for c in range(n):
            windows[c] += 1
            broken[c] = base & ~park_block(prefs, windows)
            windows[c] -= 1
        rows = np.flatnonzero(broken.any(axis=0))
        if rows.size:
            row = int(rows[0])
            car = int(np.argmax(broken[:, row]))
            return (lo + row) * n + car
    return -1
