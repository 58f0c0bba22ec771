import math
import struct

import mpmath as mp
import numpy as np
import pytest
from numpy.testing import assert_allclose

import oracles
from erwlab import moments
from erwlab.errors import SeriesOverflowError

# frozen from the 40-digit Gamma-product and integral oracles (they agree)
RHO_TWO_THIRDS = 1.5092162810250505


class TestMomentSequence:
    @pytest.mark.parametrize("a", np.linspace(0.56, 0.94, 10))
    def test_closed_form_m2_m3(self, a):
        a = float(a)
        t = moments.moment_sequence(a, 4)
        assert_allclose(t.unscaled(2), a / (2 * a - 1), rtol=1e-14)
        assert_allclose(t.unscaled(3), (a + 1) / (2 * (2 * a - 1)), rtol=1e-14)

    def test_hand_unrolled_m4(self):
        # a = 3/4: m2 = 1.5, m3 = 1.75, m4 = (2a m3 + m2^2)/(4a - 1) = 2.4375
        t = moments.moment_sequence(0.75, 4)
        assert_allclose(t.unscaled(2), 1.5, rtol=1e-14)
        assert_allclose(t.unscaled(3), 1.75, rtol=1e-14)
        assert_allclose(t.unscaled(4), 2.4375, rtol=1e-14)

    def test_deterministic_limit_a_to_one(self):
        # at a = 1 the walk repeats its first step and every m_n is 1
        t = moments.moment_sequence(1.0 - 1e-9, 12)
        for n in range(11):
            assert abs(t.unscaled(n) - 1.0) < 1e-6

    def test_scaling_identity_against_raw(self):
        # with rho = 1 the hp oracle gives the unscaled moments m_n
        for a in (0.55, 2.0 / 3.0, 0.9):
            t = moments.moment_sequence(a, 50)
            with mp.workdps(30):
                raw = [float(m) for m in oracles.moments_hp_reference(mp.mpf(a), mp.mpf(1), 50)]
            got = t.scaled * t.rho ** np.arange(51)
            assert_allclose(got, raw, rtol=1e-12)

    @pytest.mark.parametrize("a", [0.5 + 2e-6, 0.6, 2.0 / 3.0, 0.75, 0.9, 1.0 - 1e-9])
    def test_bytes_of_the_strided_loop(self, a):
        for n_max in (2, 3, 4, 31, 400, 5000):
            got = moments.moment_sequence(a, n_max).scaled
            assert got.tobytes() == oracles.moment_sequence_reference(a, n_max).tobytes()

    @pytest.mark.parametrize("a", [0.6, 0.9])
    def test_bytes_of_the_chunked_loop(self, a):
        # past n = 10 001 each dot is summed as ordered chunks of at most
        # 10 000 terms, which OpenBLAS sums on one thread
        got = moments.moment_sequence(a, 10_050).scaled
        assert got.tobytes() == oracles.moment_sequence_reference(a, 10_050).tobytes()

    def test_positivity(self):
        t = moments.moment_sequence(0.6, 2000)
        assert np.all(t.scaled > 0.0)

    def test_table_invariants(self):
        t = moments.moment_sequence(0.8, 600)
        assert t.scaled[0] == 1.0
        assert_allclose(t.scaled[1], 1.0 / t.rho, rtol=1e-15)
        assert abs(t.asymptotic_ratio(600) - 1.0) < 0.02

    def test_reads_no_uninitialised_memory(self, monkeypatch):
        # fresh memory may hold a signalling NaN, which makes numpy warn
        # (an error in this suite) if the recurrence reads it
        snan = np.frombuffer(struct.pack("<Q", 0x7FF0000000000001))[0]
        monkeypatch.setattr(np, "empty", lambda n: np.full(n, snan))
        assert np.all(moments.moment_sequence(0.75, 50).scaled > 0.0)

    def test_domain(self):
        with pytest.raises(ValueError):
            moments.moment_sequence(0.5 + 1e-7, 10)
        with pytest.raises(ValueError):
            moments.moment_sequence(1.0, 10)
        with pytest.raises(ValueError):
            moments.moment_sequence(0.7, 1)
        # m_800 at a = 0.55 is about rho^800 = e^730
        with pytest.raises(SeriesOverflowError, match="exceeds double range"):
            moments.moment_sequence(0.55, 800).unscaled(800)


class TestLimitMoment:
    def test_zeroth(self):
        assert moments.limit_moment(0.7, 0) == 1.0

    def test_first_moment(self):
        # E[L] = 1/Gamma(1+a); mpmath's Gamma as the independent oracle
        for a in (0.6, 0.8):
            assert_allclose(moments.limit_moment(a, 1), float(1 / mp.gamma(1.0 + a)), rtol=1e-13)

    def test_second_moment_closed_form(self):
        # a = 3/4: E[L^2] = 2 m2/Gamma(2.5) = 3/(3 sqrt(pi)/4)
        got = moments.limit_moment(0.75, 2)
        assert_allclose(got, 3.0 / (3.0 * math.sqrt(math.pi) / 4.0), rtol=1e-13)

    def test_overflow_reported(self):
        with pytest.raises(SeriesOverflowError):
            moments.limit_moment(2.0 / 3.0, 900)
        # the log-scale variant keeps working there
        assert math.isfinite(moments.limit_moment_ln(2.0 / 3.0, 900))

    def test_domain(self):
        with pytest.raises(ValueError, match="moment order must be >= 0"):
            moments.limit_moment_ln(0.7, -1)

    def test_refuses_a_table_of_another_a_or_too_short(self):
        # a table of a = 0.9 read at a = 0.6 gave 1.4469 for log E[L^3]
        # (2.6614 is right), and an order past the table an IndexError
        table = moments.moment_sequence(0.9, 5)
        assert moments.limit_moment_ln(0.9, 5, table) == moments.limit_moment_ln(0.9, 5)
        with pytest.raises(ValueError, match="moment table of a=0.9"):
            moments.limit_moment_ln(0.6, 3, table)
        with pytest.raises(ValueError, match="cannot give order 6"):
            moments.limit_moment_ln(0.9, 6, table)


class TestRho:
    def test_frozen_value(self):
        assert_allclose(moments.rho(2.0 / 3.0), RHO_TWO_THIRDS, rtol=1e-13)

    def test_against_gamma_product(self):
        for a in (0.51, 0.75, 2.0, 10.0):
            assert_allclose(moments.rho(a), float(oracles.rho(a)), rtol=1e-13)

    @pytest.mark.parametrize("a", [0.55, 0.60, 2.0 / 3.0, 0.75, 0.85, 0.95])
    def test_integral_route_agrees(self, a):
        assert abs(moments.rho(a) - moments.rho_integral(a)) < 1e-8

    def test_integral_route_against_mpmath(self):
        # 40-digit Gamma-product rho; near a = 1/2 the rounding of
        # 1 - 1/(2a) in doubles sets the error of every double route
        def rel_err(a):
            with mp.workdps(40):
                return float(abs(moments.rho_integral(a) / oracles.rho(a) - 1))

        assert max(rel_err(0.55 + 0.01 * i) for i in range(45)) <= 2e-13
        assert max(rel_err(0.5 + 10.0**-k) for k in range(2, 7)) <= 1e-11

    def test_integral_exceeds_one(self):
        for a in (0.55, 0.7, 0.95):
            assert moments.rho_integral(a) > 1.0

    def test_endpoint_law_near_half(self):
        gaps = [
            abs(moments.rho(0.5 + 10.0**-k) * 2.0 * math.sqrt(10.0**-k) - 1.0)
            for k in range(2, 7)
        ]
        assert all(x > y for x, y in zip(gaps, gaps[1:]))
        assert gaps[-1] < 1e-4

    def test_endpoint_law_near_one(self):
        gaps = [
            abs((moments.rho(1.0 - 10.0**-k) - 1.0) / (10.0**-k * math.log(2.0)) - 1.0)
            for k in range(2, 7)
        ]
        assert all(x > y for x, y in zip(gaps, gaps[1:]))
        assert gaps[-1] < 1e-4

    def test_decreasing_and_convex(self):
        grid = np.linspace(0.52, 0.99, 200)
        vals = np.array([moments.rho(float(a)) for a in grid])
        first = np.diff(vals)
        assert np.all(first < 0.0)
        assert np.all(np.diff(first) > 0.0)

    def test_domain(self):
        with pytest.raises(ValueError):
            moments.rho(0.5)
        with pytest.raises(ValueError):
            moments.rho_integral(1.0)


class TestContext:
    def test_delta_exact(self):
        ctx = moments.context(0.75)
        assert_allclose(ctx.delta, 1.0 / 7.0, rtol=0, atol=0)

    def test_c_pos_value(self):
        # recomputed from the 40-digit Gamma-product rho
        a = 0.75
        r = float(oracles.rho(a))
        ref = math.sqrt(2.0 / (math.pi * (1 - a * a) * (1 + a))) * (a / r) ** (1.0 / (2 * (1 - a)))
        ctx = moments.context(a)
        assert_allclose(ctx.c_pos, ref, rtol=1e-12)
        assert abs(ctx.c_pos - 0.3089) < 1e-4

    @pytest.mark.parametrize("a", np.linspace(0.55, 0.95, 9))
    def test_positivity_and_ranges(self, a):
        ctx = moments.context(float(a))
        assert ctx.rho > 1.0
        assert 0.0 < ctx.delta < 1.0 / 3.0
        assert ctx.kappa > 0.0
        assert ctx.c_pos > 0.0 and math.isfinite(ctx.c_pos)
        assert ctx.c_neg > 0.0 and math.isfinite(ctx.c_neg)


class TestAsymptoticMoment:
    def test_leading_ratio_tends_to_one(self):
        a = 2.0 / 3.0
        ctx = moments.context(a)
        t = moments.moment_sequence(a, 500)
        ratio = math.exp(
            moments.limit_moment_ln(a, 500, t) - moments.asymptotic_moment_ln(ctx, 500)
        )
        assert abs(ratio - 1.0) < 0.02

    def test_first_correction_improves(self):
        a = 2.0 / 3.0
        ctx = moments.context(a)
        t = moments.moment_sequence(a, 400)
        exact = moments.limit_moment_ln(a, 400, t)
        lead = abs(math.exp(exact - moments.asymptotic_moment_ln(ctx, 400)) - 1.0)
        corr = abs(math.exp(exact - moments.asymptotic_moment_ln(ctx, 400, "first_correction")) - 1.0)
        assert corr < lead

    def test_first_correction_closed_form(self):
        # at n = 6 the Pochhammer ratio (delta)_6 / 6! is a short product
        a = 0.75
        ctx = moments.context(a)
        poch = math.prod(ctx.delta + i for i in range(6)) / math.factorial(6)
        corr = 1.0 + ctx.kappa * poch * (1.0 + (a - 1.0) / (3.0 * a + 1.0))
        got = moments.asymptotic_moment_ln(ctx, 6, "first_correction")
        assert_allclose(got - moments.asymptotic_moment_ln(ctx, 6), math.log(corr), rtol=1e-13)

    @pytest.mark.parametrize("a", [0.75, 5.0 / 9.0])
    def test_pochhammer_ratio_asymptotics(self, a):
        # the correction's (delta)_n / n! = n^(delta-1)/Gamma(delta) (1 + delta(delta-1)/(2n)
        # + O(n^-2)); delta = 1/7 and 2/7
        n = 1000
        ctx = moments.context(a)
        d = ctx.delta
        corr = math.exp(
            moments.asymptotic_moment_ln(ctx, n, "first_correction")
            - moments.asymptotic_moment_ln(ctx, n)
        )
        got = (corr - 1.0) / (ctx.kappa * (1.0 + (a - 1.0) / (3.0 * a + 1.0)))
        lead = n ** (d - 1.0) / math.exp(math.lgamma(d))
        assert abs(got / lead - 1.0) < 2.0 * abs(d * (d - 1.0)) / (2.0 * n) + 1e-3

    def test_first_correction_nonpositive_raises_named_error(self):
        # near a = 1/2 the odd-n factor 1 + kappa (delta)_n/n! (-1 + (a-1)/(3a+1))
        # is <= 0 at every odd n < 200
        ctx = moments.context(0.50001)
        for n in range(1, 200, 2):
            with pytest.raises(ValueError, match=rf"asymptotic_moment_ln.*a = 0\.50001, n = {n}\b"):
                moments.asymptotic_moment_ln(ctx, n, "first_correction")

    def test_linear_value_small_n(self):
        ctx = moments.context(0.75)
        assert math.isfinite(moments.asymptotic_moment_ln(ctx, 3))
        with pytest.raises(ValueError):
            moments.asymptotic_moment_ln(ctx, 3, "second")

    def test_domain(self):
        with pytest.raises(ValueError, match="needs n >= 1"):
            moments.asymptotic_moment_ln(moments.context(0.75), 0)


class TestHankel:
    def test_k0_and_k1_positive(self):
        t = moments.moment_sequence(2.0 / 3.0, 10)
        signs = dict(moments.hankel_test(t, 2))
        assert signs[0] == 1
        # m0 m2 - m1^2 = (1-a)/(2a-1) > 0
        assert signs[1] == 1

    def test_negative_determinant_exists(self):
        t = moments.moment_sequence(2.0 / 3.0, 30)
        signs = moments.hankel_test(t, 15)
        assert any(s < 0 for _, s in signs)

    def test_requires_enough_moments(self):
        t = moments.moment_sequence(0.7, 10)
        with pytest.raises(ValueError):
            moments.hankel_test(t, 6)
