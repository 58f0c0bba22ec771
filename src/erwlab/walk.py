"""Exact distribution, shape analysis and simulation of the memory walk.

The walk S_n repeats a uniformly chosen past step with probability p and
flips it otherwise; P(n, k) = P[S_n = 2k - n].  With q_first = 1 the
probabilities satisfy the triangular recurrence

    P(n+1, k) = [ (np - ak) P(n, k) + ((1-p)n + a(k-1)) P(n, k-1) ] / n,

a = 2p - 1, with P(n, 0) = P(n, n+1) = 0.  Rows are evolved in
probability space (the integer-array variant grows factorially) and
renormalised each step; drift before renormalisation stays near machine
epsilon.  Rows for q_first < 1 are mixtures of the q_first = 1 row and
its reflection.
"""

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .rootfind import bisect_newton

_REL_TOL = 1e-12
# largest count * n one simulate_terminal call accepts
_STEP_BUDGET = 2**31


@dataclass(frozen=True)
class ErwParams:
    """Memory parameter p and first-step parameter q_first; a = 2p - 1."""

    p: float
    q_first: float = 1.0

    def __post_init__(self):
        if not (math.isfinite(self.p) and 0.0 <= self.p <= 1.0):
            raise ValueError(f"memory parameter p must be in [0, 1], got {self.p!r}")
        if not (math.isfinite(self.q_first) and 0.0 <= self.q_first <= 1.0):
            raise ValueError(f"first-step parameter must be in [0, 1], got {self.q_first!r}")

    @property
    def a(self):
        return 2.0 * self.p - 1.0

    @classmethod
    def from_a(cls, a, q_first=1.0):
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


@dataclass(frozen=True)
class StepDensity:
    """Step density of n^(-a) S_n: height values[i] on the interval
    (breakpoints[i], breakpoints[i+1]], zero outside."""

    breakpoints: np.ndarray
    values: np.ndarray

    def integral(self):
        return float(np.dot(np.diff(self.breakpoints), self.values))

    def pdf(self, x):
        x = np.asarray(x, dtype=float)
        idx = np.searchsorted(self.breakpoints, x, side="left") - 1
        inside = (idx >= 0) & (idx < len(self.values)) & (x > self.breakpoints[0])
        out = np.zeros_like(x)
        out[inside] = self.values[np.clip(idx[inside], 0, len(self.values) - 1)]
        return out


def _step(prev, n, p, ak, c_hi, c_lo):
    """One recurrence step in place, without renormalisation.

    prev[1 : n + 1] holds row n (q_first = 1 layout) between the zero pads
    prev[0] and prev[n + 1]; afterwards prev[1 : n + 2] holds row n + 1,
    which the returned view shows.  ak[k] = a k; c_hi and c_lo are scratch
    of at least n + 1 entries.  The operations and their order are those of
    the recurrence as written in the module docstring, the products with
    the zero pads included (c * 0.0 can be -0.0).
    """
    hi, lo = c_hi[: n + 1], c_lo[: n + 1]
    np.subtract(n * p, ak[1 : n + 2], out=hi)
    hi *= prev[1 : n + 2]
    np.add((1.0 - p) * n, ak[: n + 1], out=lo)
    lo *= prev[: n + 1]
    out = np.add(hi, lo, out=prev[1 : n + 2])
    out /= n
    return out


def _mixture(row, q_first):
    """q_first-mixture of a q_first = 1 row with its reflection (k -> n - k)."""
    n = row.n
    mixed = np.zeros(n + 1)
    mixed[1:] += q_first * row.probs
    mixed[:n] += (1.0 - q_first) * row.probs[::-1]
    return DistributionRow(n=n, probs=mixed, k_lo=0)


def _own(row, q_first):
    """A scratch view of a q_first = 1 row as a row of its own: a copy, or
    its q_first-mixture."""
    if q_first == 1.0:
        return DistributionRow(n=row.n, probs=row.probs.copy())
    return _mixture(row, q_first)


def iter_rows(params, n_max):
    """Rows 1..n_max of the exact distribution, yielded one at a time.

    Row n has n entries for q_first = 1 and n+1 entries otherwise (the
    mixture row); every row is renormalised after the recurrence step.
    Each step runs in place on preallocated scratch, so the generator
    holds the current row plus four arrays of about n_max doubles: a k,
    computed once, and three scratch arrays (the padded row and two
    coefficient arrays).  The only array allocated per step is the row
    yielded, which the caller may keep; `erwlab dist --all-rows` streams
    these rows to its CSV.  A bad n_max raises here, before the caller
    has consumed or written anything.
    """
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    return (_own(row, params.q_first) for row in _rows(params.p, n_max))


def _rows(p, n_max):
    """q_first = 1 rows 1..n_max as views of one scratch row, which the
    next step overwrites."""
    ak = (2.0 * p - 1.0) * np.arange(n_max + 1)
    prev = np.zeros(n_max + 1)  # the current row between zero pads
    prev[1] = 1.0
    c_hi, c_lo = np.empty(n_max), np.empty(n_max)
    for n in range(1, n_max + 1):
        if n > 1:
            probs = _step(prev, n - 1, p, ak, c_hi, c_lo)
            probs /= probs.sum()
        yield DistributionRow(n=n, probs=prev[1 : n + 1])


def row_at(params, n):
    """Row n of the exact distribution alone, in O(n) memory: only this
    row leaves the scratch."""
    if n < 1:
        raise ValueError("n must be >= 1")
    for row in _rows(params.p, n):
        pass
    return _own(row, params.q_first)


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
    if q_index not in (0, 1, 2, 3):
        raise ValueError("q_index must be one of 0, 1, 2, 3")
    coeffs = _THRESHOLD_POLYS[q_index]

    def poly(x):
        acc = 0.0
        for c in reversed(coeffs):
            acc = acc * x + c
        return acc

    def slope(x):
        acc = 0.0
        for i in range(len(coeffs) - 1, 0, -1):
            acc = acc * x + i * coeffs[i]
        return acc

    ftol = 4.0 * np.finfo(float).eps * sum(abs(c) for c in coeffs)
    return bisect_newton(poly, slope, 0.5, 1.0, ftol)


def scaled_density(row, a):
    """Finite-n step density of n^(-a) S_n: height n^a P(n,k)/2 on
    (n^(-a)(2k-n-1), n^(-a)(2k-n+1)]."""
    if not (0.5 < a < 1.0):
        raise ValueError(f"scaled_density requires a in (1/2, 1), got {a!r}")
    scale = float(row.n) ** a
    s = row.support().astype(float)
    edges = np.concatenate([(s - 1.0), [s[-1] + 1.0]]) / scale
    return StepDensity(breakpoints=edges, values=scale * row.probs / 2.0)


# ---------------------------------------------------------------------------
# Monte Carlo


def resolve_threads(threads=None):
    if threads is not None:
        return max(1, int(threads))
    env = os.environ.get("ERWLAB_THREADS")
    if env:
        try:
            return max(1, int(env))
        except ValueError:
            raise ValueError(f"ERWLAB_THREADS must be an integer, got {env!r}") from None
    return min(4, os.cpu_count() or 1)


def _simulate_chunk(p, q_first, n, seed, lo, hi):
    # one counter-based stream per trajectory: key = (seed, trajectory index),
    # so results do not depend on chunking or scheduling; each block of
    # trajectories is resolved by pointer jumping (see simulate_terminal)
    count = hi - lo
    block = max(1, min(count, 2**16 // n))
    u_pick = np.empty((block, n))
    u_flip = np.empty((block, n), dtype=np.float32)
    times = np.arange(n)
    sums = np.empty(count, dtype=np.int64)
    # one generator per chunk, reset for each trajectory to a fresh state
    # (zero counter, empty buffer, no buffered uint32: at odd n the float32
    # flips leave half a uint64) keyed (seed, i), which gives the stream of
    # Philox(key=(seed, i)) without its constructor's discarded entropy draw
    bitgen = np.random.Philox(key=np.array([seed, lo], dtype=np.uint64))
    gen = np.random.Generator(bitgen)
    fresh = bitgen.state
    key = fresh["state"]["key"]
    for start in range(0, count, block):
        b = min(block, count - start)
        for j in range(b):
            key[1] = lo + start + j
            bitgen.state = fresh
            gen.random(out=u_pick[j])
            gen.random(dtype=np.float32, out=u_flip[j])
        pick, flip = u_pick[:b], u_flip[:b]
        pick *= times
        parent = pick.astype(np.intp)
        parent += (np.arange(b) * n)[:, None]
        parent = parent.reshape(-1)
        sign = np.where(flip < p, np.int8(1), np.int8(-1))
        sign[:, 0] = 1
        first = np.where(flip[:, 0] < q_first, 1, -1)
        sign = sign.reshape(-1)
        # invariant: step[m] = sign[m] * step[parent[m]]; a root is its own parent
        while True:
            up = parent[parent]
            if np.array_equal(up, parent):
                break
            sign *= sign[parent]
            parent = up
        sums[start : start + b] = first * sign.reshape(b, n).sum(axis=1, dtype=np.int64)
    return sums


def simulate_terminal(params, n, count, seed, threads=None):
    """count independent samples of n^(-a) S_n, simulated from the process
    definition (uniform pick over the stored step history).

    Deterministic for fixed (seed, count, n): trajectory i consumes only
    its own Philox stream keyed by (seed, i), first n float64 picks, then
    n float32 flips.  Each worker keeps one generator and resets its state
    for every trajectory to key (seed, i), a zero counter and an empty
    buffer, so the stream equals that of a fresh Philox(key=(seed, i)).
    Output is ordered by trajectory index regardless of thread scheduling.

    Each worker evaluates its trajectories in blocks of
    max(1, 2**16 // n): step m picks the earlier step floor(u_m * m), so a
    trajectory's steps form a recursive tree, and pointer jumping gives
    every step its sign relative to the first step in a few vectorised
    rounds (about log2 of the tree height).  A worker holds about 50 bytes
    per step of one block: about 3 MB for n <= 2**16, 50 n bytes above.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if count < 1:
        raise ValueError("count must be >= 1")
    if n * count > _STEP_BUDGET:
        raise ValueError(
            f"count*n = {n * count} exceeds the step budget {_STEP_BUDGET}"
        )
    seed = int(seed) & 0xFFFFFFFFFFFFFFFF
    # scheduling granularity only: a worker's memory is set by its block
    # (see _simulate_chunk), not by the chunk; one chunk stays on one thread
    chunk = max(64, min(count, 30_000_000 // max(n, 1)))
    bounds = [(lo, min(lo + chunk, count)) for lo in range(0, count, chunk)]
    with ThreadPoolExecutor(max_workers=min(resolve_threads(threads), len(bounds))) as pool:
        parts = pool.map(
            lambda b: _simulate_chunk(params.p, params.q_first, n, seed, *b), bounds
        )
        sums = np.concatenate(list(parts))
    return sums / float(n) ** params.a
