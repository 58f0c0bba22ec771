import hashlib
import math
import tracemalloc
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest
from numpy.testing import assert_allclose

import oracles
from erwlab import walk
from erwlab.errors import DomainError


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


def unwindowed_rows(p, q_first, n_max):
    """Rows 1..n_max by the list-building loop that iter_rows replaced:
    advance the whole row, renormalise, then mix.  It keeps every entry,
    subnormals included, so it is also the oracle for the window of normal
    entries that walk._rows recurs on."""
    a = 2.0 * p - 1.0
    probs = np.array([1.0])
    for n in range(1, n_max + 1):
        if n > 1:
            m = n - 1
            prev = np.zeros(m + 2)
            prev[1 : m + 1] = probs
            k = np.arange(1, m + 2)
            probs = ((m * p - a * k) * prev[1:] + ((1.0 - p) * m + a * (k - 1)) * prev[:-1]) / m
            probs /= probs.sum()
        if q_first == 1.0:
            yield probs
        else:
            mixed = np.zeros(n + 1)
            mixed[1:] += q_first * probs
            mixed[:n] += (1.0 - q_first) * probs[::-1]
            yield mixed


def evolution_drift(row, p):
    """|sum - 1| of a q_first = 1 row advanced one recurrence step before
    renormalisation: the step conserves mass, so this is rounding alone."""
    n = row.n
    prev = np.zeros(n + 2)
    prev[1 : n + 1] = row.probs
    ak = (2.0 * p - 1.0) * np.arange(n + 2)
    nxt = walk._step(prev, np.zeros(n + 3), n, p, ak, np.empty(n + 1), 1, n)
    return abs(nxt.sum() - 1.0)


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

    def test_binomial_row_past_underflow(self):
        # row 1100 at p = 1/2 is C(1099, k-1) / 2^1099; its tails lie below
        # the smallest normal double 2^-1022, that is C(1099, k-1) < 2^77,
        # and there the row reads 0 instead of a stuck subnormal
        n = 1100
        row = walk.row_at(walk.ErwParams(p=0.5), n)
        counts = [math.comb(n - 1, k - 1) for k in range(1, n + 1)]
        exact = np.array([c / 2 ** (n - 1) for c in counts])
        normal = exact >= 1e-290
        assert_allclose(row.probs[normal], exact[normal], rtol=1e-13, atol=0.0)
        below = np.array([c < 2 ** (n - 1 - 1022) for c in counts])
        assert below.sum() > 0
        assert np.all(row.probs[below] == 0.0)

    @pytest.mark.parametrize("p", [0.8, 0.875])
    def test_moments_past_underflow(self, p):
        # Bercu's closed forms in 30 digits; a = 2p - 1 is exact in binary,
        # as the walk computes it
        n = 20_000
        params = walk.ErwParams(p=p)
        row = walk.row_at(params, n)
        s = row.support().astype(float)
        mean, second = map(float, oracles.walk_moments(params.a, n))
        assert abs(float(np.dot(s, row.probs)) / mean - 1.0) < 1e-13
        assert abs(float(np.dot(s * s, row.probs)) / second - 1.0) < 1e-13

    @pytest.mark.parametrize("q_first", [1.0, 0.7, 0.3])
    def test_mean_identity(self, q_first):
        params = walk.ErwParams(p=0.85, q_first=q_first)
        rows = walk.evolve_distribution(params, 300)
        row = rows[-1]
        got = float(np.dot(row.support(), row.probs))
        assert abs(got - float(oracles.walk_moments(params.a, 300, params.q_first)[0])) < 1e-10

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
        [(0.875, 1.0, 200), (0.8, 0.4, 200), (0.3, 0.0, 57), (0.95, 1.0, 1),
         (0.0, 1.0, 150), (0.5, 1.0, 200), (1.0, 0.3, 150)],
    )
    def test_streamed_rows_byte_identical(self, p, q_first, n_max):
        # before the first entry below the smallest normal double, streaming
        # and the window must not change a single bit
        ref = list(unwindowed_rows(p, q_first, n_max))
        params = walk.ErwParams(p=p, q_first=q_first)
        streamed = list(walk.iter_rows(params, n_max))
        listed = walk.evolve_distribution(params, n_max)
        assert len(streamed) == len(listed) == n_max
        k_lo = 1 if q_first == 1.0 else 0
        for n, (s, l, r) in enumerate(zip(streamed, listed, ref), start=1):
            assert s.n == l.n == n and s.k_lo == l.k_lo == k_lo
            assert s.probs.dtype == l.probs.dtype == np.float64
            assert s.probs.tobytes() == l.probs.tobytes() == r.tobytes()

    @pytest.mark.parametrize(
        "p, q_first, n_max",
        [(0.0, 1.0, 300), (0.3, 0.0, 700), (0.5, 1.0, 1200), (0.8, 0.4, 3300),
         (0.875, 1.0, 5400), (1.0, 0.3, 300)],
    )
    def test_window_against_unwindowed_rows(self, p, q_first, n_max):
        # past the first entry below the smallest normal double (row 172 at
        # p = 0, 590 at 0.3, 1024 at 0.5, 3143 at 0.8, 5238 at 0.875; p = 1
        # has exact zeros only): every entry of at least 1e-290 agrees with
        # the loop that keeps the subnormals, and every nonzero entry is normal
        tiny = np.finfo(float).tiny
        rows = walk.iter_rows(walk.ErwParams(p=p, q_first=q_first), n_max)
        subnormal_seen = False
        for row, ref in zip(rows, unwindowed_rows(p, q_first, n_max)):
            got = row.probs
            big = ref >= 1e-290
            assert np.all(np.abs(got[big] - ref[big]) <= 1e-13 * ref[big]), row.n
            assert np.all((got == 0.0) | (got >= tiny)), row.n
            subnormal_seen |= bool(np.any((ref > 0.0) & (ref < tiny)))
        assert row.n == n_max
        assert subnormal_seen == (p != 1.0)

    # SHA-256 over the bytes of every streamed row: p = 0.875, 0.3 and 0
    # cross the first entry below the smallest normal double (row 5238, 590
    # and 172), which reads 0 from there on, and the rows before it are
    # pinned apart; mixtures at p < 1/2 and p = 1/2; both ends of the p
    # range
    @pytest.mark.parametrize(
        "p, q_first, n_max, digest",
        [
            (0.875, 1.0, 12000,
             "8584ed116a34b323ec4bde9cf46ada93902336b0fa214f0fd4e00da546517546"),
            (0.875, 1.0, 5237,
             "115113e1ef33363fcff94e9712881f0b9f99cb9257d4ccc795d4763a194f5b0e"),
            (0.3, 0.0, 1500,
             "0d9296fff24690e795f2fa9983d5cf5d16b06b28fb1b38b15632c83db59a52d8"),
            (0.3, 0.0, 589,
             "f861f6de48914ae5121c507704e4808e2d5ae148bef3e520bebd3a3fa68effdc"),
            (0.5, 0.4, 1000,
             "72e6eb2e078b11933ea683e8bfe96bf63b16c8ac2aaddf75325f25c81de52fef"),
            (0.0, 1.0, 300,
             "25760432ed1d22377c843b05774c56ca405a0f00572922ae00de3751e6cfe803"),
            (0.0, 1.0, 171,
             "c905e23d2ed659e383f5a565829e4e40f4fcca032686ba80a392f3ad8db6c54c"),
            (1.0, 1.0, 300,
             "55e0bfd154592d9dda7f793579cb26ce1c2c51cccf775c1c512dc1fafa381fb3"),
        ],
        ids=["p0.875-n12000", "p0.875-n5237", "p0.3-q0-n1500", "p0.3-q0-n589",
             "p0.5-q0.4-n1000", "p0-n300", "p0-n171", "p1-n300"],
    )
    def test_streamed_rows_sha256(self, p, q_first, n_max, digest):
        h = hashlib.sha256()
        for row in walk.iter_rows(walk.ErwParams(p=p, q_first=q_first), n_max):
            h.update(row.probs.tobytes())
        assert h.hexdigest() == digest

    @pytest.mark.parametrize("p, q_first, n", [(0.875, 1.0, 200), (0.8, 0.4, 57), (0.3, 0.0, 1)])
    def test_row_at_is_last_streamed_row(self, p, q_first, n):
        params = walk.ErwParams(p=p, q_first=q_first)
        last = walk.evolve_distribution(params, n)[-1]
        row = walk.row_at(params, n)
        assert (row.n, row.k_lo) == (last.n, last.k_lo)
        assert row.probs.tobytes() == last.probs.tobytes()

    def test_yielded_rows_are_read_only(self):
        # each q_first = 1 row is the next step's input, so a write into
        # one must raise rather than corrupt the rows after it
        params = walk.ErwParams(p=0.875)
        rows = walk.iter_rows(params, 60)
        for _ in range(30):
            row = next(rows)
        with pytest.raises(ValueError):
            row.probs[0] = 0.5
        with pytest.raises(ValueError):
            row.probs *= 2.0
        for row in rows:
            assert row.probs.tobytes() == walk.row_at(params, row.n).probs.tobytes()
        assert row.n == 60

    @pytest.mark.parametrize("consume", ["iter_rows", "row_at"])
    def test_single_row_work_is_o_n(self, consume):
        # a row at n = 5000 is 40 kB; a loop that kept its rows would hold
        # about 100 MB
        params = walk.ErwParams(p=0.875)
        tracemalloc.start()
        try:
            if consume == "iter_rows":
                for _ in walk.iter_rows(params, 5000):
                    pass
            else:
                walk.row_at(params, 5000)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 500_000

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
        with pytest.raises(ValueError, match="first-step parameter"):
            walk.ErwParams(p=0.8, q_first=1.5)


class TestParams:
    def test_numpy_scalars_walk_as_their_float_values(self):
        # numpy's promotion compared a float64 p with the float32 flips in
        # float64, a Python float in float32: at this p, n = 64 and seed 3
        # the one sample read 0.0 against -3.62
        x = 0.5952256321907045
        want = walk.simulate_terminal(walk.ErwParams(p=x), 64, 1, seed=3)
        got = walk.simulate_terminal(walk.ErwParams(p=np.float64(x)), 64, 1, seed=3)
        assert got.tobytes() == want.tobytes()
        # a float32 p made a float32 a = 2p - 1, hence other rows and samples
        for p, q in ((np.float32(0.8), np.float64(0.3)), (np.float16(0.75), np.float32(1.0))):
            params = walk.ErwParams(p=p, q_first=q)
            plain = walk.ErwParams(p=float(p), q_first=float(q))
            assert type(params.p) is float and type(params.q_first) is float
            assert params == plain
            got, want = walk.row_at(params, 500).probs, walk.row_at(plain, 500).probs
            assert got.tobytes() == want.tobytes()
            got = walk.simulate_terminal(params, 200, 2000, seed=5)
            assert got.tobytes() == walk.simulate_terminal(plain, 200, 2000, seed=5).tobytes()
        for a in (np.float32(0.8), np.float32(0.6)):
            assert walk.ErwParams.from_a(a) == walk.ErwParams.from_a(float(a))
        with pytest.raises(DomainError):
            walk.ErwParams(p="0.8")


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
                oracles.assert_same_report(walk.check_shape(row), oracles.check_shape_reference(row))
        for a in np.arange(0.5, 0.7501, 1e-2):
            params = walk.ErwParams(p=(1.0 + float(a)) / 2.0, q_first=q_first)
            for row in walk.iter_rows(params, 50):
                oracles.assert_same_report(walk.check_shape(row), oracles.check_shape_reference(row))

    def test_n3_margin_flips_at_root(self):
        a0 = walk.log_concavity_root(0)

        def margin(a):
            return (1.0 - a) * (2.0 + a) ** 2 - (1.0 + a) ** 2

        assert margin(a0 - 1e-6) > 0.0 > margin(a0 + 1e-6)

    @pytest.mark.parametrize("q", [1, 2, 3])
    def test_row_q_plus_3_flips_at_root(self, q):
        # P_q is the log-concavity threshold of row q + 3, checked on exact
        # rational rows (boundary terms zero) at the root -+ 1e-6
        root = walk.log_concavity_root(q)

        def log_concave(a):
            p = (1 + Fraction(a)) / 2
            u = [Fraction(0)] + evolve_q_exact(p, q + 3)[-1] + [Fraction(0)]
            return all(u[k] ** 2 >= u[k - 1] * u[k + 1] for k in range(1, len(u) - 1))

        assert log_concave(root - 1e-6) and not log_concave(root + 1e-6)


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
    @staticmethod
    def _check_row(row, a):
        """Heights n^a P / 2 bit for bit at the atoms and at each block's
        upper edge, 0 at edges[0] and beyond edges[-1], and the row's mass
        on blocks of width 2 / n^a."""
        scale = float(row.n) ** a
        s = row.support().astype(float)
        edges = np.concatenate([s - 1.0, [s[-1] + 1.0]]) / scale
        want = scale * row.probs / 2.0
        assert walk.scaled_density(row, a, row.scaled_support(a)).tobytes() == want.tobytes()
        assert walk.scaled_density(row, a, edges[1:]).tobytes() == want.tobytes()
        beyond = [edges[0], np.nextafter(edges[0], -np.inf), np.nextafter(edges[-1], np.inf),
                  edges[-1] + 1.0, np.inf, -np.inf]
        assert walk.scaled_density(row, a, beyond).tolist() == [0.0] * len(beyond)
        assert_allclose(2.0 / scale * math.fsum(want), 1.0, rtol=1e-13)

    def test_single_block(self):
        # S_1 = +1 a.s.: one block of width 2 and height 1/2 around s = 1
        row = walk.DistributionRow(n=1, probs=np.array([1.0]))
        d = walk.scaled_density(row, 0.75, [-0.5, 0.0, 1e-300, 1.3, 2.0, 2.5])
        assert d.tolist() == [0.0, 0.0, 0.5, 0.5, 0.5, 0.0]
        self._check_row(row, 0.75)

    def test_two_step_heights(self):
        # n=2, p=0.8: heights 2^0.75 * {0.2, 0.8} / 2 on the scaled intervals
        row = walk.row_at(walk.ErwParams(p=0.8), 2)
        d = walk.scaled_density(row, 0.75, row.scaled_support(0.75))
        assert_allclose(d, 2.0**0.75 * np.array([0.2, 0.8]) / 2.0, rtol=1e-14)
        self._check_row(row, 0.75)

    def test_affine_large_row_and_mixture(self):
        # mixture rows (k_lo = 0), n = 2 among them
        for p, q, n, a in ((0.85, 0.4, 200, 0.7), (0.8, 0.5, 2, 0.6), (0.95, 0.3, 777, 0.9)):
            self._check_row(walk.row_at(walk.ErwParams(p=p, q_first=q), n), a)

    def test_domain(self):
        row = walk.DistributionRow(n=1, probs=np.array([1.0]))
        with pytest.raises(ValueError):
            walk.scaled_density(row, 0.4, [1.0])

    def test_nan_raises(self):
        # a NaN lies neither inside nor outside the support: no silent 0
        row = walk.row_at(walk.ErwParams.from_a(0.75), 50)
        for x in ([math.nan], [0.5, math.nan, 2.0], math.nan):
            with pytest.raises(ValueError, match="got nan"):
                walk.scaled_density(row, 0.75, x)


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
            # mc_long's and c09's block shape: 11 blocks of 6, then a partial 4
            (0.9, 1.0, 10_000, 70, 15, 1,
             "e1b53bdf8610976ad18db0556a6b1bfc896b8f2e2d0172a878b47c972351cdbd"),
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
        # seed 2**64 - 1: the reset's plain-int key word at the top of the
        # uint64 range against the reference's uint64 key array
        for seed in (99, 2**64 - 1):
            got = walk._simulate_chunk(p, q_first, n, seed, lo, hi)
            ref = _simulate_chunk_reference(p, q_first, n, seed, lo, hi)
            assert got.dtype == ref.dtype == np.int64
            assert got.tobytes() == ref.tobytes()

    @staticmethod
    def _thresholds(flips):
        # the pinned p, then k 2**-24 for a flip k 2**-24 that Generator.random
        # drew, so that a uniform equals p, with its float64 and float32
        # neighbours; each as a Python float, as ErwParams stores it
        ps = [0.0, 1.0, 1.0 - 2.0**-26] + [walk.ErwParams.from_a(a).p for a in (0.75, 0.8, 0.9)]
        ks = np.unique(flips * np.float32(2**24)).astype(np.int64)
        for k in ks[[0, len(ks) // 2, -1]]:
            p = k * 2.0**-24
            ps += [p, np.nextafter(p, 0.0), np.nextafter(p, 2.0)]
            ps += [np.nextafter(np.float32(p), np.float32(d)) for d in (0.0, 2.0)]
        return [float(p) for p in ps]

    @pytest.mark.parametrize("n", [1, 200, 201, 12_001])
    def test_decode_matches_generator_random(self, n):
        # three trajectories' raw words, drawn in spans as the chunk draws
        # them (n = 12 001 crosses a span boundary), against numpy's own
        # Generator.random on the same keys: the picks times their step
        # m, as the reference loop takes them, bit for bit, and the flip
        # halves below _flip_threshold(p) exactly where the float32
        # uniforms are below p; seed 2**64 - 1 puts the key at the top of
        # the uint64 range
        width = n + (n + 1) // 2
        scaled_times = np.arange(n, dtype=float) * walk._PICK_SCALE
        for seed in (99, 2**64 - 1):
            words = np.empty((3, width), dtype=np.uint64)
            picks = np.empty((3, n))
            flips = np.empty((3, n), dtype=np.float32)
            for i in range(3):
                key = np.array([seed, i], dtype=np.uint64)
                raw = np.random.Philox(key=key).random_raw
                words[i] = np.concatenate(
                    [raw(min(walk._SPAN, width - s)) for s in range(0, width, walk._SPAN)]
                )
                gen = np.random.Generator(np.random.Philox(key=key))
                picks[i] = gen.random(n)
                flips[i] = gen.random(n, dtype=np.float32)
            halves = walk._halves(words[:, n:], n)
            for p in self._thresholds(flips):
                assert np.array_equal(halves < walk._flip_threshold(p), flips < p), p
            # the float product bit for bit, and its truncation to the parent
            # index the chunk takes
            want = picks * np.arange(n)
            got = walk._decode_picks(words.copy(), scaled_times, np.empty((3, n)))
            assert got.tobytes() == want.tobytes()
            got = walk._decode_picks(words, scaled_times, np.empty((3, n), dtype=np.intp))
            assert np.array_equal(got, want.astype(np.intp))

    @pytest.mark.parametrize("n", [1, 2, 64])
    def test_chunk_thresholds_match_reference_loop(self, n):
        # flips below p and first steps below q_first, at the same p as
        # the decode test, the drawn ones from trajectory 0's own flips (at
        # n = 1 its first step's)
        gen = np.random.Generator(np.random.Philox(key=np.array([5, 0], dtype=np.uint64)))
        gen.random(n)
        ps = self._thresholds(gen.random(n, dtype=np.float32))
        for p, q_first in zip(ps, ps[::-1]):
            got = walk._simulate_chunk(p, q_first, n, 5, 0, 40)
            ref = _simulate_chunk_reference(p, q_first, n, 5, 0, 40)
            assert got.tobytes() == ref.tobytes(), (p, q_first)

    def test_chunk_refuses_out_of_range_parents(self, monkeypatch):
        # a decode to u in [0, 2) would pick steps beyond the trajectory;
        # the gathers clip, so the check must raise instead
        monkeypatch.setattr(walk, "_PICK_SCALE", 2.0**-52)
        with pytest.raises(IndexError, match="parent index out of range"):
            walk._simulate_chunk(0.9, 1.0, 100, 21, 0, 2)

    def test_chunk_refuses_pointers_that_miss_their_roots(self, monkeypatch):
        # here the same decode keeps every parent in range but makes step 2
        # its own parent: pointer jumping would never stop, so the round
        # cap must raise
        monkeypatch.setattr(walk, "_PICK_SCALE", 2.0**-52)
        with pytest.raises(IndexError, match="do not reach their roots"):
            walk._simulate_chunk(0.9, 1.0, 10, 21, 0, 2)

    @staticmethod
    def _chunk_peak(n, count):
        # traced peak of one worker's chunk, after an untraced call of the
        # same n has made numpy's one-time allocations
        walk._simulate_chunk(0.9, 1.0, n, 21, 0, 1)
        tracemalloc.start()
        try:
            walk._simulate_chunk(0.9, 1.0, n, 21, 0, count)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        return peak

    @pytest.mark.parametrize("n, count", [(10_000, 6), (200, 10_000), (70_000, 3)])
    def test_worker_memory_per_block_step(self, n, count):
        block = max(1, min(count, 2**16 // n))
        assert self._chunk_peak(n, count) <= 42 * block * n

    def test_worker_memory_flat_in_blocks(self):
        # ten blocks of 6 at n = 1e4 hold what one block holds, plus the
        # 8-byte sum of each trajectory: no block keeps arrays of its own
        assert self._chunk_peak(10_000, 60) <= self._chunk_peak(10_000, 6) + 8 * 60 + 65_536

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
        target = float(1 / mp.gamma(1.0 + a))
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
        with pytest.raises(ValueError, match="count must be >= 1"):
            walk.simulate_terminal(params, 5, 0, seed=1)


def test_resolve_threads_names_a_bad_environment_value(monkeypatch):
    monkeypatch.setenv("ERWLAB_THREADS", "abc")
    with pytest.raises(DomainError, match="ERWLAB_THREADS must be an integer, got 'abc'"):
        walk.resolve_threads()
