import dataclasses
import hashlib
import math
from fractions import Fraction

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy import special as sp

from erwlab import walk


def brute_force_terminal(p, n, q_first=1.0):
    """Exact distribution of S_n by enumerating every (pick, copy/flip)
    history of the process definition.  Independent of the recurrence."""
    dist = {}

    def rec(steps, prob):
        m = len(steps)
        if m == n:
            s = sum(steps)
            dist[s] = dist.get(s, 0.0) + prob
            return
        for k in range(m):  # uniform choice of a past time
            nxt = steps[k]
            rec(steps + (nxt,), prob * p / m)
            rec(steps + (-nxt,), prob * (1.0 - p) / m)

    if q_first > 0.0:
        rec((1,), q_first)
    if q_first < 1.0:
        rec((-1,), 1.0 - q_first)
    return dist


def _simulate_chunk_reference(p, q_first, n, seed, lo, hi):
    """Terminal sums of trajectories lo..hi-1 by the time-major loop: every
    trajectory of the chunk advances one step at a time, each step copying
    or flipping an entry of the full (n, count) step history.  This is the
    simulator's former kernel, kept as the oracle for _simulate_chunk."""
    count = hi - lo
    u_pick = np.empty((n, count))
    u_flip = np.empty((n, count), dtype=np.float32)
    for j in range(count):
        gen = np.random.Generator(
            np.random.Philox(key=np.array([seed, lo + j], dtype=np.uint64))
        )
        u_pick[:, j] = gen.random(n)
        u_flip[:, j] = gen.random(n, dtype=np.float32)
    steps = np.empty((n, count), dtype=np.int8)
    steps[0] = np.where(u_flip[0] < q_first, 1, -1)
    flat = steps.reshape(-1)
    cols = np.arange(count, dtype=np.int64)
    for m in range(1, n):
        k = (u_pick[m] * m).astype(np.int64)
        x = flat[k * count + cols]
        steps[m] = np.where(u_flip[m] < p, x, -x)
    return steps.sum(axis=0, dtype=np.int64)


def check_shape_reference(row):
    """Shape report by flag-and-break loops over the row, with relative
    tolerance 1e-12 on every comparison: the former walk.check_shape,
    kept as the oracle for its whole-row form."""
    u = np.asarray(row.probs, dtype=float)
    n = len(u)
    if n == 1:
        return walk.ShapeReport(True, 1, 1, True, None)

    diffs = u[1:] - u[:-1]
    tol = 1e-12 * np.maximum(np.abs(u[1:]), np.abs(u[:-1]))
    seen_drop = False
    unimodal = True
    for d, t in zip(diffs, tol):
        if d < -t:
            seen_drop = True
        elif d > t and seen_drop:
            unimodal = False
            break

    peak = u.max()
    plateau = np.flatnonzero(u >= peak * (1.0 - 1e-12))
    mode_lo = int(plateau[0]) + 1
    mode_hi = int(plateau[-1]) + 1

    log_concave = True
    first_violation = None
    # boundary convention u_0 = u_{n+1} = 0 makes k = 1 and k = n automatic
    for i in range(1, n - 1):
        lhs = u[i] * u[i]
        rhs = u[i - 1] * u[i + 1]
        if lhs < rhs - 1e-12 * max(lhs, rhs):
            log_concave = False
            first_violation = i + 1
            break
    return walk.ShapeReport(unimodal, mode_lo, mode_hi, log_concave, first_violation)


def assert_same_report(got, want):
    # field by field and type by type: the shape CSV writes bool as 0/1
    # and an int as its digits, so a numpy scalar would change its bytes
    for field in dataclasses.fields(walk.ShapeReport):
        g, w = getattr(got, field.name), getattr(want, field.name)
        assert type(g) is type(w) and g == w, (field.name, g, w)


def evolve_q_exact(p, n_max):
    """Exact rational triangular array Q(n, k) = (n-1)! P(n, k) for
    q_first = 1; p must be a Fraction.  Oracle for n_max <= ~12."""
    a = 2 * p - 1
    rows = [[Fraction(1)]]
    for n in range(1, n_max):
        q = rows[-1]
        nxt = []
        for k in range(1, n + 2):
            t = Fraction(0)
            if k <= n:
                t += (n * p - a * k) * q[k - 1]
            if 1 <= k - 1 <= n:
                t += ((1 - p) * n + a * (k - 1)) * q[k - 2]
            nxt.append(t)
        rows.append(nxt)
    return rows


def evolution_drift(row, p):
    """|sum - 1| of a q_first = 1 row advanced one recurrence step before
    renormalisation: the step conserves mass, so this is rounding alone."""
    return abs(walk._advance(row.probs, row.n, p).sum() - 1.0)


def exact_mean(params, n):
    """E[S_n] by the product recursion E[S_{m+1}] = (1 + a/m) E[S_m]."""
    mean = 2.0 * params.q_first - 1.0
    for m in range(1, n):
        mean *= 1.0 + params.a / m
    return mean


class TestEvolve:
    def test_first_row_trivial(self):
        rows = walk.evolve_distribution(walk.ErwParams(p=0.3), 1)
        assert rows[0].n == 1
        assert_allclose(rows[0].probs, [1.0])

    @pytest.mark.parametrize("p", [0.15, 0.5, 0.8, 0.95])
    def test_matches_brute_force(self, p):
        rows = walk.evolve_distribution(walk.ErwParams(p=p), 6)
        brute = brute_force_terminal(p, 6)
        row = rows[-1]
        for k, prob in zip(range(1, 7), row.probs):
            assert_allclose(prob, brute.get(2 * k - 6, 0.0), atol=1e-14)

    def test_two_step_law(self):
        p = 0.73
        row = walk.evolve_distribution(walk.ErwParams(p=p), 2)[-1]
        assert_allclose(row.probs, [1.0 - p, p], rtol=1e-15)

    def test_three_step_row_at_a06(self):
        # a = 0.6: Q(3,.) = ((1-a)/2, (1-a)(2+a)/2, (1+a)^2/2), P = Q/2!
        row = walk.evolve_distribution(walk.ErwParams(p=0.8), 3)[-1]
        assert_allclose(row.probs, [0.1, 0.26, 0.64], atol=1e-15)

    def test_exact_rational_consistency(self):
        # Q-recurrence in exact rationals; float rows match to a few ulps
        p = Fraction(4, 5)
        q_rows = evolve_q_exact(p, 12)
        f_rows = walk.evolve_distribution(walk.ErwParams(p=float(p)), 12)
        for n in (3, 8, 12):
            fact = math.factorial(n - 1)
            exact = q_rows[n - 1]
            assert sum(exact) == fact  # rows sum to (n-1)! exactly
            got = f_rows[n - 1].probs
            for k in range(n):
                assert_allclose(got[k], float(Fraction(exact[k], fact)), rtol=1e-13)

    def test_row_conservation_and_drift(self):
        # one streamed pass: each row's drift, then the last row's sum
        for p in np.arange(0.55, 0.951, 0.05):
            p = float(p)
            drift = 0.0
            for row in walk.iter_rows(walk.ErwParams(p=p), 2000):
                if row.n < 2000:
                    drift = max(drift, evolution_drift(row, p))
            assert abs(row.probs.sum() - 1.0) < 1e-12
            assert drift < 1e-9

    @pytest.mark.parametrize("n", [200, 1000])
    def test_binomial_rows_at_half(self, n):
        # p = 1/2 forgets the past: row n is C(n-1, k-1) / 2^(n-1), and
        # every entry is a normal double up to n = 1000
        row = walk.row_at(walk.ErwParams(p=0.5), n)
        exact = np.array([math.comb(n - 1, k - 1) / 2 ** (n - 1) for k in range(1, n + 1)])
        assert_allclose(row.probs, exact, rtol=1e-14, atol=0.0)

    @pytest.mark.parametrize("q_first", [1.0, 0.7, 0.3])
    def test_mean_identity(self, q_first):
        params = walk.ErwParams(p=0.85, q_first=q_first)
        rows = walk.evolve_distribution(params, 300)
        row = rows[-1]
        got = float(np.dot(row.support(), row.probs))
        assert abs(got - exact_mean(params, 300)) < 1e-10

    def test_mixture_row_layout(self):
        params = walk.ErwParams(p=0.8, q_first=0.6)
        rows = walk.evolve_distribution(params, 5)
        row = rows[-1]
        assert row.k_lo == 0
        assert len(row.probs) == 6
        assert_allclose(row.probs.sum(), 1.0, rtol=1e-14)
        brute = brute_force_terminal(0.8, 5, q_first=0.6)
        for k, prob in zip(range(0, 6), row.probs):
            assert_allclose(prob, brute.get(2 * k - 5, 0.0), atol=1e-14)

    @pytest.mark.parametrize(
        "p, q_first, n_max",
        [(0.875, 1.0, 200), (0.8, 0.4, 200), (0.3, 0.0, 57), (0.95, 1.0, 1)],
    )
    def test_streamed_rows_byte_identical(self, p, q_first, n_max):
        # reference: the list-building loop (advance, renormalise, then mix)
        # that iter_rows replaced; streaming must not change a single bit
        a = 2.0 * p - 1.0
        probs = np.array([1.0])
        ref = [probs]
        for n in range(1, n_max):
            prev = np.zeros(n + 2)
            prev[1 : n + 1] = probs
            k = np.arange(1, n + 2)
            probs = ((n * p - a * k) * prev[1:] + ((1.0 - p) * n + a * (k - 1)) * prev[:-1]) / n
            probs /= probs.sum()
            ref.append(probs)
        if q_first != 1.0:
            mixed = []
            for n, r in enumerate(ref, start=1):
                m = np.zeros(n + 1)
                m[1:] += q_first * r
                m[:n] += (1.0 - q_first) * r[::-1]
                mixed.append(m)
            ref = mixed
        params = walk.ErwParams(p=p, q_first=q_first)
        streamed = list(walk.iter_rows(params, n_max))
        listed = walk.evolve_distribution(params, n_max)
        assert len(streamed) == len(listed) == n_max
        k_lo = 1 if q_first == 1.0 else 0
        for n, (s, l, r) in enumerate(zip(streamed, listed, ref), start=1):
            assert s.n == l.n == n and s.k_lo == l.k_lo == k_lo
            assert s.probs.dtype == l.probs.dtype == np.float64
            assert s.probs.tobytes() == l.probs.tobytes() == r.tobytes()

    @pytest.mark.parametrize("p, q_first, n", [(0.875, 1.0, 200), (0.8, 0.4, 57), (0.3, 0.0, 1)])
    def test_row_at_is_last_streamed_row(self, p, q_first, n):
        params = walk.ErwParams(p=p, q_first=q_first)
        last = walk.evolve_distribution(params, n)[-1]
        row = walk.row_at(params, n)
        assert (row.n, row.k_lo) == (last.n, last.k_lo)
        assert row.probs.tobytes() == last.probs.tobytes()

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            walk.evolve_distribution(walk.ErwParams(p=0.8), 0)
        with pytest.raises(ValueError):
            walk.row_at(walk.ErwParams(p=0.8), 0)
        with pytest.raises(ValueError):
            next(walk.iter_rows(walk.ErwParams(p=0.8), 0))
        with pytest.raises(ValueError):
            walk.ErwParams(p=1.2)
        with pytest.raises(ValueError):
            walk.ErwParams(p=float("nan"))


class TestShape:
    def test_singleton(self):
        rep = walk.check_shape(walk.DistributionRow(n=1, probs=np.array([1.0])))
        assert rep.unimodal and rep.log_concave
        assert rep.mode_lo == rep.mode_hi == 1

    def test_three_step_log_concave_below_threshold(self):
        row = walk.evolve_distribution(walk.ErwParams(p=0.8), 3)[-1]  # a = 0.6 < a0
        rep = walk.check_shape(row)
        assert rep.unimodal
        assert rep.mode_lo == 3
        assert rep.log_concave
        assert rep.first_violation is None

    def test_three_step_violation_above_threshold(self):
        # a = 0.70 > a0: (1-a)(2+a)^2 < (1+a)^2, violation at k = 2
        row = walk.evolve_distribution(walk.ErwParams(p=0.85), 3)[-1]
        rep = walk.check_shape(row)
        assert rep.unimodal
        assert not rep.log_concave
        assert rep.first_violation == 2

    def test_unimodal_rows_sample(self):
        for p in (0.6, 0.8, 0.95):
            rows = walk.evolve_distribution(walk.ErwParams(p=p), 120)
            assert all(walk.check_shape(r).unimodal for r in rows)

    def test_log_concavity_threshold_scan(self):
        # rows n = 3..50 all log-concave exactly when a <= a0 (grid 1e-3)
        a0 = walk.log_concavity_root(0)
        for a in np.arange(0.5, 0.7501, 1e-3):
            a = float(a)
            params = walk.ErwParams(p=(1.0 + a) / 2.0)
            rows = walk.evolve_distribution(params, 50)
            all_lc = all(walk.check_shape(r).log_concave for r in rows[2:])
            assert all_lc == (a <= a0), f"threshold mismatch at a={a}"

    @pytest.mark.parametrize("q_first", [1.0, 0.4])
    def test_matches_loop_reference(self, q_first):
        # exact rows on both sides of a = 0 and of the log-concavity
        # threshold, then the c03-style a-scan over rows 1..50
        for p in (0.05, 0.3, 0.5, 0.6, 0.75, 0.8, 0.9, 0.95):
            for row in walk.iter_rows(walk.ErwParams(p=p, q_first=q_first), 300):
                assert_same_report(walk.check_shape(row), check_shape_reference(row))
        for a in np.arange(0.5, 0.7501, 1e-2):
            params = walk.ErwParams(p=(1.0 + float(a)) / 2.0, q_first=q_first)
            for row in walk.iter_rows(params, 50):
                assert_same_report(walk.check_shape(row), check_shape_reference(row))

    def test_n3_margin_flips_at_root(self):
        a0 = walk.log_concavity_root(0)

        def margin(a):
            return (1.0 - a) * (2.0 + a) ** 2 - (1.0 + a) ** 2

        assert margin(a0 - 1e-6) > 0.0 > margin(a0 + 1e-6)


class TestThresholdRoots:
    def test_frozen_values(self):
        targets = [0.61803, 0.63606, 0.67060, 0.68408]
        for q, t in enumerate(targets):
            assert abs(walk.log_concavity_root(q) - t) < 5e-5

    def test_monotone(self):
        roots = [walk.log_concavity_root(q) for q in range(4)]
        assert roots[0] < roots[1] < roots[2] < roots[3]

    def test_rejects_unknown_index(self):
        with pytest.raises(ValueError):
            walk.log_concavity_root(4)


class TestScaledDensity:
    def test_single_block(self):
        # S_1 = +1 a.s.: one block of width 2 and height 1/2 around s = 1
        row = walk.DistributionRow(n=1, probs=np.array([1.0]))
        d = walk.scaled_density(row, 0.75)
        assert_allclose(d.breakpoints, [0.0, 2.0])
        assert_allclose(d.values, [0.5])
        assert_allclose(d.integral(), 1.0, rtol=1e-14)
        assert d.pdf(1.3) == 0.5
        assert d.pdf(2.5) == 0.0
        assert d.pdf(-0.5) == 0.0

    def test_two_step_heights(self):
        # n=2, p=0.8: heights 2^0.75 * {0.2, 0.8} / 2 on the scaled intervals
        row = walk.evolve_distribution(walk.ErwParams(p=0.8), 2)[-1]
        d = walk.scaled_density(row, 0.75)
        assert_allclose(d.values, 2.0**0.75 * np.array([0.2, 0.8]) / 2.0, rtol=1e-14)
        assert_allclose(d.integral(), 1.0, rtol=1e-12)

    def test_affine_large_row_and_mixture(self):
        params = walk.ErwParams(p=0.85, q_first=0.4)
        row = walk.evolve_distribution(params, 200)[-1]
        d = walk.scaled_density(row, 0.7)
        assert abs(d.integral() - 1.0) < 1e-10
        assert np.all(d.values >= 0.0)

    def test_domain(self):
        row = walk.DistributionRow(n=1, probs=np.array([1.0]))
        with pytest.raises(ValueError):
            walk.scaled_density(row, 0.4)


class TestSimulate:
    def test_deterministic_walk_when_p_one(self):
        params = walk.ErwParams(p=1.0)
        out = walk.simulate_terminal(params, 50, 8, seed=1)
        assert_allclose(out, 50.0 ** (1.0 - params.a) * np.ones(8))

    def test_bit_identical_and_thread_invariant(self):
        params = walk.ErwParams(p=0.9)
        one = walk.simulate_terminal(params, 300, 500, seed=42, threads=1)
        two = walk.simulate_terminal(params, 300, 500, seed=42, threads=1)
        three = walk.simulate_terminal(params, 300, 500, seed=42, threads=3)
        assert np.array_equal(one, two)
        assert np.array_equal(one, three)

    # SHA-256 of the float64 output: any change to the simulator that moves
    # a single bit of any sample fails here
    @pytest.mark.parametrize(
        "a, q_first, n, count, seed, threads, digest",
        [
            (0.75, 1.0, 300, 500, 11, 1,
             "9482ad1ec1313f7e2b164c1844e8ecefd0f76ce9cd15b74f99f95f0e839792b0"),
            # two chunks (15000 + 1000 trajectories), so threads = 3 splits the work
            (0.8, 0.5, 2000, 16_000, 12, 1,
             "49ff68f7ecab6ee96ae60f5667a6553ef11c3c743169ccb76d2f2316f62fefb9"),
            (0.8, 0.5, 2000, 16_000, 12, 3,
             "49ff68f7ecab6ee96ae60f5667a6553ef11c3c743169ccb76d2f2316f62fefb9"),
            # a walk longer than 2**16 steps
            (0.9, 0.3, 70_000, 3, 13, 1,
             "70a74fcbc5536dfdb702ccf7c2041f7a8f8470a8956dbd88c14fb3cfc95429a1"),
            (0.8, 0.5, 1, 9, 14, 1,
             "f754fd9be7e66581f9a60052fdb591aed6b784b45fca373f6fac4b74f7d05442"),
        ],
    )
    def test_golden_sha256(self, a, q_first, n, count, seed, threads, digest):
        params = walk.ErwParams.from_a(a, q_first=q_first)
        out = walk.simulate_terminal(params, n, count, seed=seed, threads=threads)
        assert out.dtype == np.float64 and out.shape == (count,)
        assert hashlib.sha256(out.tobytes()).hexdigest() == digest

    @pytest.mark.parametrize(
        "p, q_first, n, lo, hi",
        [
            (0.9, 1.0, 300, 0, 500),  # blocks of 218: 218 + 218 + 64
            (0.8, 0.3, 300, 7, 443),  # exactly two blocks, offset stream keys
            (0.75, 0.0, 50, 0, 100),  # one block, smaller than 2**16 // n
            (1.0, 0.5, 2000, 5, 75),  # blocks of 32: 32 + 32 + 6
            (0.0, 1.0, 17, 0, 10),
            (0.6, 0.5, 1, 3, 40),
            # odd n: the float32 flips leave half a uint64 buffered, which
            # the per-trajectory generator reset must clear; 326 + 326 + 37
            (0.85, 0.4, 201, 11, 700),
        ],
    )
    def test_chunk_matches_reference_loop(self, p, q_first, n, lo, hi):
        got = walk._simulate_chunk(p, q_first, n, 99, lo, hi)
        ref = _simulate_chunk_reference(p, q_first, n, 99, lo, hi)
        assert got.dtype == ref.dtype == np.int64
        assert got.tobytes() == ref.tobytes()

    def test_seed_changes_output(self):
        params = walk.ErwParams(p=0.9)
        one = walk.simulate_terminal(params, 100, 100, seed=1)
        two = walk.simulate_terminal(params, 100, 100, seed=2)
        assert not np.array_equal(one, two)

    def test_mean_against_limit(self):
        # E[n^-a S_n] -> 1/Gamma(1+a); deterministic seed, 3 SE band
        a = 0.8
        params = walk.ErwParams.from_a(a)
        samples = walk.simulate_terminal(params, 2000, 20_000, seed=7)
        target = 1.0 / sp.gamma(1.0 + a)
        se = samples.std(ddof=1) / math.sqrt(len(samples))
        assert abs(samples.mean() - target) < 3.0 * se

    def test_first_step_parameter(self):
        params = walk.ErwParams(p=0.9, q_first=0.0)
        out = walk.simulate_terminal(params, 10, 200, seed=3)
        # q_first = 0 forces the first step down; means must be negative
        assert out.mean() < 0.0

    def test_budget(self):
        params = walk.ErwParams(p=0.9)
        with pytest.raises(ValueError):
            walk.simulate_terminal(params, 10**6, 10**6, seed=1)
        with pytest.raises(ValueError):
            walk.simulate_terminal(params, 0, 5, seed=1)
