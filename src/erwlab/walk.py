"""Exact distribution, shape analysis and simulation of the memory walk.

The walk S_n repeats a uniformly chosen past step with probability p and
flips it otherwise; P(n, k) = P[S_n = 2k - n].  With q_first = 1 the
probabilities satisfy the triangular recurrence

    P(n+1, k) = [ (np - ak) P(n, k) + ((1-p)n + a(k-1)) P(n, k-1) ] / n,

a = 2p - 1, with P(n, 0) = P(n, n+1) = 0.  Rows are evolved in
probability space (the integer-array variant grows factorially) and
renormalised each step; drift before renormalisation stays near machine
epsilon.  A probability below the smallest normal double (about 2.2e-308)
reads 0: each step recurs only on the window of entries at or above it.
Rows for q_first < 1 are mixtures of the q_first = 1 row and its
reflection.
"""

import itertools
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import _intake
from .errors import DomainError
from .rootfind import bisect_newton

_REL_TOL = 1e-12
# smallest normal double; a row entry below it reads 0
_TINY = np.finfo(float).tiny
# largest count * n one simulate_terminal call accepts
_STEP_BUDGET = 2**31


@dataclass(frozen=True)
class ErwParams:
    """Memory parameter p and first-step parameter q_first; a = 2p - 1.
    Both are stored as Python floats: a numpy scalar walks as its value."""

    p: float
    q_first: float = 1.0

    def __post_init__(self):
        p = _intake.real("memory parameter p must be", self.p, 0.0, 1.0, "[]")
        q = _intake.real("first-step parameter must be", self.q_first, 0.0, 1.0, "[]")
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "q_first", q)

    @property
    def a(self):
        return 2.0 * self.p - 1.0

    @classmethod
    def from_a(cls, a, q_first=1.0):
        a = _intake.real("memory scale a must be", a, -1.0, 1.0, "[]")
        return cls(p=(1.0 + a) / 2.0, q_first=q_first)


@dataclass(frozen=True)
class DistributionRow:
    """P(n, k) for k = k_lo .. k_lo + len(probs) - 1 (position S = 2k - n).

    k_lo is 1 for q_first = 1 rows and 0 for mixture rows.
    """

    n: int
    probs: np.ndarray
    k_lo: int = 1

    def support(self):
        """Walk positions s = 2k - n carried by ``probs``."""
        k = np.arange(self.k_lo, self.k_lo + len(self.probs))
        return 2 * k - self.n

    def scaled_support(self, a):
        return self.support() / float(self.n) ** a


@dataclass(frozen=True)
class ShapeReport:
    """Unimodality / log-concavity verdict for one row.

    Indices are 1-based positions within ``probs``; first_violation is the
    smallest k with u_k^2 < u_{k-1} u_{k+1} (boundary terms zero), or None.
    """

    unimodal: bool
    mode_lo: int
    mode_hi: int
    log_concave: bool
    first_violation: int | None


def _step(prev, new, n, p, ak, c_lo, lo, hi):
    """One recurrence step over a window, without renormalisation.

    prev[1 : n + 1] holds row n (q_first = 1 layout) between the zero pads
    prev[0] and prev[n + 1], and prev is 0 outside its window [lo, hi].
    Row n + 1 is then 0 outside [lo, hi + 1]; the step writes that window
    once, into new[lo : hi + 2], where it also builds the first term, and
    returns that view.  ak[k] = a k; c_lo is scratch of at least n + 1
    entries for the second term.  The operations and their order are those
    of the recurrence as written in the module docstring, the products
    with the zeros at either side of the window included (c * 0.0 can be
    -0.0), so each entry of the window is the one the whole-row step
    writes from the same row n.
    """
    out, lo_term = new[lo : hi + 2], c_lo[: hi - lo + 2]
    np.subtract(n * p, ak[lo : hi + 2], out)
    out *= prev[lo : hi + 2]
    np.add((1.0 - p) * n, ak[lo - 1 : hi + 1], lo_term)
    lo_term *= prev[lo - 1 : hi + 1]
    out += lo_term
    out /= n
    return out


def _mixture(probs, q_first):
    """q_first-mixture of a q_first = 1 row with its reflection (k -> n - k);
    an entry that the scaling takes below the smallest normal double reads 0."""
    n = len(probs)
    mixed = np.zeros(n + 1)
    mixed[1:] += q_first * probs
    mixed[:n] += (1.0 - q_first) * probs[::-1]
    mixed[mixed < _TINY] = 0.0
    return DistributionRow(n=n, probs=mixed, k_lo=0)


def iter_rows(params, n_max):
    """Rows 1..n_max of the exact distribution, yielded one at a time.

    Row n has n entries for q_first = 1 and n+1 entries otherwise (the
    mixture row); every row is renormalised after the recurrence step.
    An entry below the smallest normal double (about 2.2e-308) reads 0:
    the steps recur only on the window of entries at or above it (see
    _rows).  Each step writes its row once, into a fresh array that is
    yielded as is: a q_first = 1 row is read-only, since it is also the
    next step's input, and the caller may keep it.  The iterator holds
    the current and previous rows plus two arrays of about n_max doubles:
    a k, computed once, and one coefficient array.  `erwlab dist
    --all-rows` streams these rows to its CSV.  A bad n_max raises here,
    before the caller has consumed or written anything.
    """
    n_max = _intake.count("iter_rows: n_max must be", n_max, 1)
    rows = _rows(params.p, n_max)
    if params.q_first == 1.0:
        return map(DistributionRow, itertools.count(1), rows)
    return (_mixture(probs, params.q_first) for probs in rows)


def _rows(p, n_max):
    """q_first = 1 rows 1..n_max as plain arrays, each a read-only view of
    its own padded array, written once by the step that makes it.

    Each row keeps the window [lo, hi] of its entries at or above the
    smallest normal double; it is 0 outside.  A step recurs on the window
    alone (the next row is 0 outside [lo, hi + 1]), renormalises by the
    sum over the whole row, then trims the entries below that double from
    both ends of the window and sets them to 0.  Underflowed tails thus
    read 0 instead of subnormals that are stuck many orders of magnitude
    too large and slow to operate on.  While the window is the whole row,
    each row equals the whole-row step's bit for bit; the sum runs over
    the whole row because a sum over the window alone rounds differently
    where the row holds exact zeros (p = 0).
    """
    ak = (2.0 * p - 1.0) * np.arange(n_max + 1)
    c_lo = np.empty(n_max)
    prev = np.array([0.0, 1.0, 0.0])  # row 1 between zero pads
    probs = prev[1:2]
    probs.setflags(write=False)
    yield probs
    lo = hi = 1
    for n in range(2, n_max + 1):
        new = np.empty(n + 2)
        new[:lo] = 0.0
        new[hi + 2 :] = 0.0
        window = _step(prev, new, n - 1, p, ak, c_lo, lo, hi)
        probs = new[1 : n + 1]
        window /= probs.sum()
        hi += 1
        while new[hi] < _TINY:
            new[hi] = 0.0
            hi -= 1
        while new[lo] < _TINY:
            new[lo] = 0.0
            lo += 1
        prev = new
        probs.setflags(write=False)
        yield probs


def row_at(params, n):
    """Row n of the exact distribution alone, in O(n) memory: the steps
    hold two rows at a time and return the last, as iter_rows yields it
    (entries below the smallest normal double read 0)."""
    n = _intake.count("row_at: n must be", n, 1)
    for probs in _rows(params.p, n):
        pass
    if params.q_first == 1.0:
        return DistributionRow(n=n, probs=probs)
    return _mixture(probs, params.q_first)


def evolve_distribution(params, n_max):
    """Rows 1..n_max of the exact distribution as a list (see iter_rows,
    which callers needing only a few rows should consume instead)."""
    return list(iter_rows(params, n_max))


def check_shape(row):
    """Unimodality and log-concavity of a row, with relative tolerance
    1e-12 on every comparison (ties satisfy both inequalities)."""
    u = np.asarray(row.probs, dtype=float)
    diffs = u[1:] - u[:-1]
    tol = _REL_TOL * np.maximum(np.abs(u[1:]), np.abs(u[:-1]))
    # unimodal: no rise after the first drop
    rise_after_drop = (diffs > tol) & np.logical_or.accumulate(diffs < -tol)

    plateau = np.flatnonzero(u >= u.max() * (1.0 - _REL_TOL))

    # boundary convention u_0 = u_{n+1} = 0 makes k = 1 and k = n automatic
    lhs = u[1:-1] * u[1:-1]
    rhs = u[:-2] * u[2:]
    violations = np.flatnonzero(lhs < rhs - _REL_TOL * np.maximum(lhs, rhs))
    return ShapeReport(
        unimodal=not rise_after_drop.any(),
        mode_lo=int(plateau[0]) + 1,
        mode_hi=int(plateau[-1]) + 1,
        log_concave=violations.size == 0,
        first_violation=int(violations[0]) + 2 if violations.size else None,
    )


# threshold polynomials for log-concavity of all rows n >= q + 3
# (ascending coefficients; unique root in (1/2, 1))
_THRESHOLD_POLYS = (
    (3.0, -2.0, -4.0, -1.0),
    (54.0, 36.0, -83.0, -123.0, -63.0, -13.0),
    (360.0, 834.0, 247.0, -1259.0, -2009.0, -1423.0, -514.0, -76.0),
    (11250.0, 8325.0, -13781.0, -24282.0, -13396.0, -1024.0, 2518.0, 1361.0, 229.0),
)


def log_concavity_root(q_index):
    """Unique root in (1/2, 1) of the hard-coded threshold polynomial
    P_q, q_index in 0..3, by Newton on (1/2, 1) to |P_q| at its rounding
    floor, a few eps * sum |c_i| (about 1e-15 in the root)."""
    q_index = _intake.count("log_concavity_root: q_index must be", q_index, 0)
    if q_index > 3:
        raise DomainError(f"q_index must be one of 0, 1, 2, 3, got {q_index}")
    # loaded on first use: numpy.polynomial adds about 4 ms and 0.5 MB to
    # every import of erwlab
    from numpy.polynomial.polynomial import polyder, polyval

    coeffs = _THRESHOLD_POLYS[q_index]
    slope = polyder(coeffs)
    ftol = 4.0 * np.finfo(float).eps * sum(abs(c) for c in coeffs)
    root = bisect_newton(lambda x: polyval(x, coeffs), lambda x: polyval(x, slope), 0.5, 1.0, ftol)
    return float(root)


def scaled_density(row, a, x):
    """Finite-n step density of n^(-a) S_n at the points x: height
    n^a P(n,k)/2 on (n^(-a)(2k-n-1), n^(-a)(2k-n+1)], 0 outside the
    support (at +-inf too); a NaN x raises DomainError."""
    a = _intake.real("scaled_density requires a", a, 0.5, 1.0)
    scale = float(row.n) ** a
    s = row.support().astype(float)
    edges = np.concatenate([(s - 1.0), [s[-1] + 1.0]]) / scale
    heights = scale * row.probs / 2.0
    x = np.asarray(x, dtype=float)
    if np.isnan(x).any():
        raise DomainError("scaled_density requires numbers x, got nan")
    idx = np.searchsorted(edges, x, side="left") - 1
    inside = (idx >= 0) & (idx < len(heights))
    out = np.zeros_like(x)
    out[inside] = heights[idx[inside]]
    return out


# ---------------------------------------------------------------------------
# Monte Carlo


def resolve_threads(threads=None):
    """threads, else ERWLAB_THREADS, else the CPU count up to 4; DomainError
    for a count below 1 or an ERWLAB_THREADS that is not an integer."""
    what = "threads"
    if threads is None:
        env = os.environ.get("ERWLAB_THREADS")
        if not env:
            return min(4, os.cpu_count() or 1)
        what = "ERWLAB_THREADS"
        try:
            threads = int(env)
        except ValueError:
            raise DomainError(f"ERWLAB_THREADS must be an integer, got {env!r}") from None
    return _intake.count(f"{what} must be", threads, 1)


# Generator.random's conversions of Philox's raw uint64 words: a float64 is
# the top 53 bits of one word, a float32 the top 24 bits of a 32-bit half
_PICK_SCALE = 2.0**-53
# largest random_raw draw in words: a walk of up to 10 922 steps is one draw,
# a longer one holds at most 128 KB of the draw's temporary array
_SPAN = 2**14


def _halves(words, n):
    """The first n 32-bit halves of words (along the last axis), in the
    order Generator.random(n, dtype=np.float32) reads them: low half first
    on a host of either byte order (the values in little-endian order, then
    read as 32-bit halves)."""
    return words.astype("<u8", copy=False).view("<u4")[..., :n]


def _flip_threshold(p):
    """The integer t with h < t exactly where Generator.random(dtype=
    np.float32) makes a uniform below the Python float p from the 32-bit
    half h.  numpy compares that uniform, (h >> 8) 2**-24, with float32(p);
    for c = ceil(float32(p) 2**24), h >> 8 < c exactly where h < 256 c.
    The products are exact."""
    return 256 * math.ceil(np.float32(p) * 2**24)


def _decode_picks(words, scaled_times, out):
    """u_m * m into out, for the float64 uniforms u_m = (w >> 11) 2**-53
    that Generator.random makes from Philox words w, one per word, from
    the first n = len(scaled_times) words of each row, and scaled_times[m]
    = m 2**-53: one multiply, rounded once as u_m * m is, since scaling by
    a power of two is exact.  An integer out truncates the product.
    Shifts every word of each row in place: one pass over the whole
    contiguous block costs less than one over its strided first n words."""
    np.right_shift(words, 11, out=words)
    # below 2**53 after the shift, the words read the same as int64, which
    # converts to float64 faster than uint64
    picks = words[..., : len(scaled_times)].view(np.int64)
    return np.multiply(picks, scaled_times, out=out, casting="unsafe")


def _simulate_chunk(p, q_first, n, seed, lo, hi):
    # one counter-based stream per trajectory: key = (seed, trajectory index),
    # so results do not depend on chunking or scheduling; each block of
    # trajectories is resolved by pointer jumping (see simulate_terminal)
    count = hi - lo
    block = max(1, min(count, 2**16 // n))
    # a trajectory's n float64 picks take one word each, its n float32 flips
    # one half-word each
    width = n + (n + 1) // 2
    # every per-block array is allocated once per chunk and reused, the last
    # (partial) block through [:b] views; fresh arrays per block cost page
    # faults under the thread pool, where the allocator keeps returning them
    words = np.empty((block, width), dtype=np.uint64)
    parent = np.empty((block, n), dtype=np.intp)
    up = np.empty(block * n, dtype=np.intp)
    sign = np.empty((block, n), dtype=np.int8)
    hop = np.empty(block * n, dtype=np.int8)
    # m 2**-53, so that a pick u_m * m is one multiply of its shifted word
    scaled_times = np.arange(n, dtype=float)
    scaled_times *= _PICK_SCALE
    flip_t, first_t = _flip_threshold(p), _flip_threshold(q_first)
    offsets = np.arange(0, block * n, n)[:, None]
    sums = np.empty(count, dtype=np.int64)
    # each row of words as views of its spans, made once per chunk: filling
    # a view costs less than slicing the row for every trajectory
    targets = [[row[s : s + _SPAN] for s in range(0, width, _SPAN)] for row in words]
    # one generator per chunk, reset for each trajectory to a fresh state
    # (zero counter, empty buffer) keyed (seed, i), which gives the stream of
    # Philox(key=(seed, i)) without its constructor's discarded entropy draw;
    # the state is plain ints, which the setter reads about 2.5x faster than
    # the arrays the getter returns
    bitgen = np.random.Philox(key=np.array([seed, lo], dtype=np.uint64))
    raw = bitgen.random_raw
    fresh = {
        "bit_generator": "Philox",
        "state": {"counter": [0] * 4, "key": [seed, lo]},
        "buffer": [0] * 4,
        "buffer_pos": 4,
        "has_uint32": 0,
        "uinteger": 0,
    }
    key = fresh["state"]["key"]
    for start in range(0, count, block):
        b = min(block, count - start)
        for j in range(b):
            key[1] = lo + start + j
            bitgen.state = fresh
            for view in targets[j]:
                view[...] = raw(len(view))
        signs, halves = sign[:b], _halves(words[:b, n:], n)
        # +1 (copy) / -1 (flip): 0/1 from the comparison, then 2x - 1
        np.less(halves, flip_t, out=signs.view(np.bool_))
        signs *= 2
        signs -= 1
        signs[:, 0] = 1
        first = np.where(halves[:, 0] < first_t, 1, -1)
        # the cast to intp truncates: step m picks step floor(u_m * m)
        _decode_picks(words[:b], scaled_times, parent[:b])
        parent[:b] += offsets[:b]
        at, nxt = parent[:b].reshape(-1), up[: b * n]
        sgn, hp = signs.reshape(-1), hop[: b * n]
        if at.min() < 0 or at.max() >= b * n:
            raise IndexError(f"parent index out of range [0, {b * n})")
        # invariant: step[m] = sgn[m] * step[at[m]]; a root is its own parent.
        # Every pointer of row r stays at or above the row's root r*n and
        # equals it only at the root, so all pointers sit at their roots
        # exactly when they sum to n*n*b*(b-1)/2 (below 2**61 for b*n <=
        # 2**31).  A tree at most n - 1 steps high needs fewer than
        # n.bit_length() rounds; more mean pointers that break the
        # invariant, which would never stop.  A gather of in-range indices
        # stays in range, so mode="clip" never clips; unlike mode="raise"
        # it writes out= without a hidden copy.
        roots = n * n * b * (b - 1) // 2
        rounds = n.bit_length()
        while at.sum(dtype=np.int64) != roots:
            if not rounds:
                raise IndexError("parent pointers do not reach their roots")
            rounds -= 1
            np.take(sgn, at, out=hp, mode="clip")
            sgn *= hp
            np.take(at, at, out=nxt, mode="clip")
            at, nxt = nxt, at
        sums[start : start + b] = first * signs.sum(axis=1, dtype=np.int64)
    return sums


def simulate_terminal(params, n, count, seed, threads=None):
    """count independent samples of n^(-a) S_n, simulated from the process
    definition (uniform pick over the stored step history).

    Deterministic for fixed (seed, count, n): trajectory i consumes only
    its own Philox stream keyed by (seed, i), first n float64 picks, then
    n float32 flips, as Generator.random would draw them.  Each worker
    keeps one generator and resets its state for every trajectory to key
    (seed, i), a zero counter and an empty buffer, so the stream equals
    that of a fresh Philox(key=(seed, i)); one random_raw call per
    trajectory (per span of 2**14 words) draws its raw words.  A pick
    times its step is one multiply of its shifted word, a flip one integer
    compare of a 32-bit half (see _flip_threshold), bit for bit what
    Generator.random's uniforms give.  Output is ordered by trajectory
    index regardless of thread scheduling.

    Each worker evaluates its trajectories in blocks of
    max(1, 2**16 // n): step m picks the earlier step floor(u_m * m), so a
    trajectory's steps form a recursive tree, and pointer jumping gives
    every step its sign relative to the first step in a few vectorised
    rounds (about log2 of the tree height), until the pointers sum to
    their roots'.  A worker allocates its buffers once per chunk and
    reuses them for every block; it holds 30 bytes per step of one block
    plus 8 bytes per step of one walk, 8 per trajectory and one span of
    raw words (tracemalloc peaks of 33.6, 35.4 and 40.0 bytes per step of
    one block at n = 1e4, 200 and 7e4): about 2 MB for n <= 2**16, 38 n
    bytes above.
    """
    n = _intake.count("simulate_terminal: n must be", n, 1)
    count = _intake.count("simulate_terminal: count must be", count, 1)
    if n * count > _STEP_BUDGET:
        raise DomainError(f"count*n = {n * count} exceeds the step budget {_STEP_BUDGET}")
    seed = _intake.count("simulate_terminal requires an integer seed", seed, -math.inf) & 0xFFFFFFFFFFFFFFFF
    # scheduling granularity only: a worker's memory is set by its block
    # (see _simulate_chunk), not by the chunk; one chunk stays on one thread.
    # A count below one chunk stays whole: split into one share per worker
    # it gives the same bytes but costs CPU, as each trajectory's stream
    # reset holds the GIL (n = 200, count 1e5, two threads on 2 vCPUs:
    # 0.70-0.98 -> 1.44-1.74 s CPU, 0.67-0.96 -> 0.98-1.17 s wall)
    chunk = max(64, min(count, 30_000_000 // max(n, 1)))
    bounds = [(lo, min(lo + chunk, count)) for lo in range(0, count, chunk)]
    with ThreadPoolExecutor(max_workers=min(resolve_threads(threads), len(bounds))) as pool:
        parts = pool.map(
            lambda b: _simulate_chunk(params.p, params.q_first, n, seed, *b), bounds
        )
        sums = np.concatenate(list(parts))
    return sums / float(n) ** params.a
