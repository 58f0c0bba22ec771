import dataclasses
import itertools
import math

import mpmath as mp
import numpy as np
import pytest
from numpy.testing import assert_allclose

import oracles
from erwlab import acceptance, limitlaw, moments, walk
from erwlab.errors import CancellationError, ConvergenceError, SeriesOverflowError


def _hp_grid():
    """Seeded (a, r, digits) points for the mpmath mode, r = 0 and +-1e-6 included."""
    rng = np.random.default_rng(1818)
    n = 12
    a = rng.uniform(0.52, 0.98, n).tolist() + [0.52, 0.7, 0.98, 0.52, 0.98]
    r = rng.uniform(-3.0, 3.0, n).tolist() + [1e-6, 0.0, -1e-6, -3.0, 3.0]
    digits = [15, 30, 50] * 4 + [15, 30, 50, 50, 30]
    return list(zip(a, r, digits))


# psi and omega at r = -10 from psi_mgf(a, -10.0, precision_digits=40),
# rounded to double (the 40-digit run takes about 0.7 s at a = 0.55)
_PSI40 = {
    0.55: (1.1614191851163974e148, 9.451419926320249e26),
    0.75: (70382681061.97777, 16529633.297983624),
    0.85: (134732.24435927707, 13806.434657886804),
}


class TestGenFun:
    def test_near_zero(self):
        # B(x)/x -> 1 and M(x) -> 1
        a = 0.7
        x = 1e-6 / moments.rho(a)
        g = limitlaw.genfun(a, x)
        assert abs(g.b / x - 1.0) < 1e-3
        assert abs(g.m - 1.0) < 1e-3

    def test_divergence_at_radius(self):
        a = 2.0 / 3.0
        r = moments.rho(a)
        assert limitlaw.genfun(a, 0.9999 / r).b > 100.0 * limitlaw.genfun(a, 0.9 / r).b

    @pytest.mark.parametrize("a", [0.55, 2.0 / 3.0, 0.75, 0.9])
    def test_matches_series(self, a):
        table = moments.moment_sequence(a, 60)
        powers = np.arange(61)
        x = 0.3 / table.rho
        series = float(np.dot(table.scaled * table.rho**powers, x**powers))
        assert abs(limitlaw.genfun(a, x).m - series) < 1e-10

    def test_m_is_sum_and_increasing(self):
        a = 0.8
        r = moments.rho(a)
        prev = 0.99  # M(0+) = 1
        for frac in np.linspace(0.05, 0.9, 12):
            g = limitlaw.genfun(a, float(frac) / r)
            assert g.m == g.a_even + g.b
            assert g.m >= 1.0
            assert g.m > prev
            prev = g.m

    def test_parity_split_reconstruction(self):
        # M(x) + M(-x) = 2 A(x) up to final rounding of the compositions
        a = 0.75
        r = moments.rho(a)
        for frac in (0.2, 0.5, 0.8):
            g = limitlaw.genfun(a, frac / r)
            m_neg = g.a_even - g.b
            assert abs((g.m + m_neg) - 2.0 * g.a_even) <= 4e-16 * abs(g.a_even)

    def test_pole_constant(self):
        # (1 - rho x) M(x) -> 2a/(a+1)
        for a in (2.0 / 3.0, 0.8):
            r = moments.rho(a)
            target = 2.0 * a / (a + 1.0)
            gaps = []
            for k in (2, 4, 6):
                x = (1.0 - 10.0**-k) / r
                gaps.append(abs(10.0**-k * limitlaw.genfun(a, x).m - target))
            assert gaps[0] > gaps[-1]
            assert gaps[-1] < 1e-4 * target

    def test_domain(self):
        with pytest.raises(ValueError):
            limitlaw.genfun(0.7, 0.0)
        with pytest.raises(ValueError):
            limitlaw.genfun(0.7, 1.0 / moments.rho(0.7))


class TestResiduals:
    def test_implicit_residual_tiny(self):
        a = 0.7
        res = limitlaw.residuals(a, 0.5 / moments.rho(a))
        assert abs(res.r_imp) < 1e-9

    def test_delay_ode_residual(self):
        a = 0.75
        x = 0.4 / moments.rho(a)
        res = limitlaw.residuals(a, x)
        m = limitlaw.genfun(a, x).m
        assert abs(res.r_m) < 1e-6 * m * m

    def test_autonomous_ode_residual(self):
        res = limitlaw.residuals(0.6, 0.7 / moments.rho(0.6))
        assert res.r_b_rel < 1e-5

    @pytest.mark.parametrize("a", [0.55, 0.75, 0.95])
    def test_grid(self, a):
        r = moments.rho(a)
        for frac in np.linspace(0.05, 0.9, 10):
            res = limitlaw.residuals(a, float(frac) / r)
            assert abs(res.r_imp) < 1e-9
            assert res.r_m_rel < 1e-5
            assert res.r_sys_rel < 1e-5
            assert res.r_b_rel < 1e-5

    def test_h_squared_decay(self):
        a = 0.75
        x = 0.5 / moments.rho(a)
        big = limitlaw.residuals(a, x, h_scale=128.0)
        half = limitlaw.residuals(a, x, h_scale=64.0)
        assert 3.0 < abs(big.r_m) / abs(half.r_m) < 5.5

    def test_domain(self):
        with pytest.raises(ValueError):
            limitlaw.residuals(0.7, 0.96 / moments.rho(0.7))
        # a zero step would divide by zero
        with pytest.raises(ValueError, match="h_scale > 0"):
            limitlaw.residuals(0.7, 0.5 / moments.rho(0.7), h_scale=0.0)


class TestPsiMgf:
    def test_at_zero(self):
        a = 0.8
        v = limitlaw.psi_mgf(a, 0.0)
        assert v.psi == 1.0
        assert v.omega == 1.0
        # xi(0) = E[X] = -E[L1]/rho with X = -L1/rho
        assert_allclose(v.xi, -moments.limit_moment(a, 1) / moments.rho(a), rtol=1e-12)

    @pytest.mark.parametrize("r", [1e-300, -1e-200, 1e-160])
    def test_tiny_r_gives_the_values_at_zero(self, r):
        # u^2 leaves the normal range here: the factored sums divided by it
        # (ZeroDivisionError at 1e-200, eta off by 4e-4 at 1e-160)
        want = dataclasses.replace(limitlaw.psi_mgf(0.75, 0.0), r=r)
        assert limitlaw.psi_mgf(0.75, r) == want

    def test_growth_ratio(self):
        a = 0.75
        r = moments.rho(a)
        for rr, tol in ((20.0, 0.01), (50.0, 0.005)):
            v = limitlaw.psi_mgf(a, rr)
            ratio = v.psi * (a + 1.0) / (2.0 * math.exp((r * rr) ** (1.0 / a)))
            assert abs(ratio - 1.0) < tol

    def test_xi_and_eta_leading_forms(self):
        a = 0.75
        v = limitlaw.psi_mgf(a, 50.0)
        assert abs(v.xi * a / 50.0 ** (1.0 / a - 1.0) + 1.0) < 0.01
        assert abs(v.eta / limitlaw.eta_asymptote(a, 50.0) - 1.0) < 0.01

    def test_negative_axis(self):
        a = 0.75
        r = moments.rho(a)
        v = limitlaw.psi_mgf(a, -20.0 * r)
        assert v.omega > 1.0
        # |xi(-s)| tracks the same leading power; sign mirrors
        assert v.xi > 0.0
        s = 20.0 * r
        assert abs(abs(v.xi) * a / s ** (1.0 / a - 1.0) - 1.0) < 0.03
        assert abs(v.eta / limitlaw.eta_asymptote(a, s) - 1.0) < 0.05
        assert v.eta >= 0.0

    def test_far_negative_axis_and_hp_mode(self):
        # at -31 rho both modes return psi and omega within their bars of
        # sums at 60 digits
        a = 0.75
        r = -31.0 * moments.rho(a)
        psi, omega = oracles.psi_mgf_sums(a, r, 60)[:2]
        for digits in (0, 50):
            v = limitlaw.psi_mgf(a, r, precision_digits=digits)
            oracles.assert_within_bar(v.psi, v.error_estimate, psi)
            oracles.assert_within_bar(v.omega, v.omega_error_estimate, omega)
        # hp and double agree where both are valid
        d = limitlaw.psi_mgf(a, -10.0)
        h = limitlaw.psi_mgf(a, -10.0, precision_digits=40)
        assert_allclose(d.omega, h.omega, rtol=1e-10)
        assert_allclose(d.xi, h.xi, rtol=1e-9)
        assert abs(d.psi - h.psi) <= d.error_estimate
        # the hp bars cover the returned doubles against sums at 20 more digits
        psi, omega = oracles.psi_mgf_sums(a, -10.0, 60)[:2]
        oracles.assert_within_bar(h.psi, h.error_estimate, psi)
        oracles.assert_within_bar(h.omega, h.omega_error_estimate, omega)

    @pytest.mark.parametrize("a, psi40, omega40", [(a, *v) for a, v in _PSI40.items()])
    def test_one_error_bar_per_sum(self, a, psi40, omega40):
        d = limitlaw.psi_mgf(a, -10.0)
        assert abs(d.psi - psi40) <= d.error_estimate
        assert abs(d.omega - omega40) <= d.omega_error_estimate
        # omega's bar is on omega's scale, not psi's (|omega| << |psi| here)
        assert d.omega_error_estimate < 1e-9 * abs(d.omega)

    # omega at r = -10, -3, -1, 1, 3, 10 from psi_mgf(a, r, precision_digits=40),
    # rounded to double; the 60-digit mode rounds to the same doubles
    _OMEGA40 = {
        0.6: (2.2794877323463744e18, 44.5042617681468, 1.0294707350768826,
              3.2492757939403796, 635.2591652638085, 1.7959720697105616e20),
        0.75: (16529633.297983624, 2.8348967869946953, 0.6247630830627514,
               3.065175909259959, 86.31557276825653, 2596418854.958143),
        0.9: (1124.5002144502791, 0.4453037002010529, 0.44417954407516236,
              2.8529433826938884, 31.20171608543912, 427932.64807726094),
    }

    @pytest.mark.parametrize("a, r, digits", _hp_grid())
    def test_hp_matches_full_length_reference(self, a, r, digits):
        # every field equal: the mpmath mode sums enough terms to round
        # to the same doubles as the full 3 peak + 256
        got = limitlaw.psi_mgf(a, r, precision_digits=digits)
        assert got == oracles.psi_mgf_hp_reference(a, r, digits)

    @pytest.mark.parametrize("a", [0.75, 0.85])
    def test_hp_rounds_to_pinned_40_digits(self, a):
        hp = limitlaw.psi_mgf(a, -10.0, precision_digits=40)
        assert (hp.psi, hp.omega) == _PSI40[a]

    def test_hp_raises_at_its_cap(self):
        # at r = 1 the 30-digit sums need about 40 terms: a cap of 10 fails loudly
        with pytest.raises(ConvergenceError):
            limitlaw._psi_mgf_hp(0.75, 1.0, 30, 10)

    def test_omega_bar_covers_reference(self):
        # no slack term: the bar alone covers the error, which at (0.6, 1)
        # is 3.1 eps |omega|, mostly the table m_n / rho^n's n eps
        for a, refs in self._OMEGA40.items():
            for r, ref in zip((-10.0, -3.0, -1.0, 1.0, 3.0, 10.0), refs):
                d = limitlaw.psi_mgf(a, r)
                assert abs(d.omega - ref) <= d.omega_error_estimate, (a, r)

    @pytest.mark.parametrize("a, digits, n_max", [(0.75, 30, 300), (0.55, 40, 400), (0.9, 50, 257)])
    def test_hp_moments_match_unpaired_loop(self, a, digits, n_max):
        with mp.workdps(digits + 10):
            aa = mp.mpf(a)
            rho_mp = mp.mpf(moments.rho(a))
            got = list(itertools.islice(limitlaw._moments_hp(aa, rho_mp), n_max + 1))
            want = oracles.moments_hp_reference(aa, rho_mp, n_max)
            assert len(got) == len(want) == n_max + 1
            worst = max(abs(g - w) / abs(w) for g, w in zip(got, want))
        assert worst < 1e-35

    def test_positive_overflow_guard(self):
        with pytest.raises(SeriesOverflowError):
            limitlaw.psi_mgf(0.75, 1e4)
        # at u = 716, below the up-front refusal at u = 729, the largest
        # term leaves the double range before any sum is formed
        with pytest.raises(SeriesOverflowError, match="largest term exp\\(711.6\\) overflows"):
            limitlaw.psi_mgf(0.75, 107.42)

    @pytest.mark.parametrize("digits", [0, 30])
    def test_nan_refused(self, digits):
        with pytest.raises(ValueError, match="psi_mgf"):
            limitlaw.psi_mgf(0.75, math.nan, precision_digits=digits)

    def test_eta_squared_clamp_and_refusal(self, monkeypatch):
        # omega''/omega - xi^2 below 0 within its error budget reads eta = 0,
        # beyond it raises; the stand-in sums are w0 = 1, w1 = 0, w2 = eta^2
        # with a loss of 1e-16
        def sums(eta2):
            monkeypatch.setattr(limitlaw, "_omega_sums", lambda *args: (1.0, 0.0, eta2, 0.0, 1e-16))

        sums(-1e-18)
        assert limitlaw.psi_mgf(0.75, 1.0).eta == 0.0
        sums(-1e-3)
        with pytest.raises(CancellationError, match="eta\\^2 = -1.000e-03 is negative"):
            limitlaw.psi_mgf(0.75, 1.0)

    def test_negative_digits_refused(self):
        with pytest.raises(ValueError, match="psi_mgf requires precision_digits >= 0"):
            limitlaw.psi_mgf(0.75, 1.0, precision_digits=-1)

    @pytest.mark.parametrize("a", [0.55, 0.75, 0.9])
    def test_overflow_band_and_fast_refusal(self, a, monkeypatch):
        # Psi's series peaks at about exp(u), u = (rho |r|)^(1/a): it is a
        # double up to u = 709.4 and overflows from u = 709.8
        rh = moments.rho(a)
        for u in (700.5, 709.4):
            v = limitlaw.psi_mgf(a, u**a / rh)
            assert math.log(v.psi) > u
            assert all(math.isfinite(f) for f in dataclasses.astuple(v))
        with pytest.raises(SeriesOverflowError):
            limitlaw.psi_mgf(a, 709.8**a / rh)

        # beyond u = 729 the call is refused before any moment is built, on
        # both half-axes and in both modes: near a = 1/2 the double table
        # would hold 75k moments, and at (0.6, -20 rho) the hp sums would
        # run for seconds before they overflow.  The stand-in raises when
        # called, so for the hp generator it fires before the first moment
        def unreachable(*args):
            raise AssertionError("moment table built")

        monkeypatch.setattr(limitlaw, "moment_sequence", unreachable)
        monkeypatch.setattr(limitlaw, "_moments_hp", unreachable)
        calls = [
            (a, 730.0**a / rh, 0),
            (a, 730.0**a / rh, 30),
            (0.50002, -1.0, 0),
            (0.6, -29.0 * moments.rho(0.6), 0),
            (0.6, -20.0 * moments.rho(0.6), 30),
        ]
        for aa, r, digits in calls:
            with pytest.raises(SeriesOverflowError):
                limitlaw.psi_mgf(aa, r, precision_digits=digits)

    @pytest.mark.parametrize("a, r", [(0.55, -20.0), (0.6, -29.0 * moments.rho(0.6))])
    def test_negative_overflow_inside_cap(self, a, r):
        # at |r| <= 30 rho, a modest argument, the largest series term
        # overflows: the refusal names the overflow, not a cancellation
        assert abs(r) <= 30.0 * moments.rho(a)
        with pytest.raises(SeriesOverflowError):
            limitlaw.psi_mgf(a, r)


class TestEtaAsymptote:
    def test_frozen_value(self):
        # a = 3/4, r = 16: sqrt(1/4) 16^(2/3-1) / (3/4) = 2/(3 * 16^(1/3))
        assert_allclose(
            limitlaw.eta_asymptote(0.75, 16.0), 2.0 / (3.0 * 16.0 ** (1.0 / 3.0)), rtol=1e-14
        )
        assert abs(limitlaw.eta_asymptote(0.75, 16.0) - 0.26457) < 5e-5

    def test_power_law_scaling(self):
        a = 0.62
        ratio = limitlaw.eta_asymptote(a, 8.0) / limitlaw.eta_asymptote(a, 4.0)
        assert_allclose(ratio, 2.0 ** (1.0 / (2.0 * a) - 1.0), rtol=1e-14)

    def test_sides_and_domain(self):
        for a, r in ((0.7, -1.0), (0.3, 1.0), (1.5, 1.0)):
            with pytest.raises(ValueError):
                limitlaw.eta_asymptote(a, r)


# |log error| allowed at n = 1600 between the Laplace integral of the
# tails and the exact moments (the O(1/n) error measures <= 2.5e-4 there)
_LAPLACE_TOL = 1e-3


class TestTails:
    def test_ratio_identity(self):
        for a in (0.55, 0.75, 0.9):
            ctx = moments.context(a)
            pos = limitlaw.asymptote(ctx, "positive")
            neg = limitlaw.asymptote(ctx, "negative")
            for x in (0.5, 2.0, 8.0):
                # stretch terms are identical floats on both sides and
                # cancel algebraically; compare the prefactor/power route
                lhs = math.exp(
                    math.log(pos.prefactor)
                    - math.log(neg.prefactor)
                    + (pos.power - neg.power) * math.log(x)
                )
                assert_allclose(lhs, limitlaw.tail_ratio(ctx, x), rtol=1e-12)
            for x in (0.5, 2.0):
                # the full log route agrees wherever the stretch magnitudes
                # stay within double rounding of the 1e-12 target
                full = math.exp(
                    limitlaw.tail(ctx, x, "positive", log=True)
                    - limitlaw.tail(ctx, x, "negative", log=True)
                )
                assert_allclose(full, limitlaw.tail_ratio(ctx, x), rtol=1e-12)

    def test_exponent_asymmetry(self):
        for a in np.linspace(0.55, 0.95, 9):
            ctx = moments.context(float(a))
            pos = limitlaw.asymptote(ctx, "positive")
            neg = limitlaw.asymptote(ctx, "negative")
            assert pos.power > neg.power
            assert pos.stretch > 0.0
            assert pos.stretch_power > 2.0
            assert pos.stretch == neg.stretch

    def test_log_scale_limit(self):
        # log tail+ / [-(1-a)(a^a x / rho)^(1/(1-a))] -> 1
        a = 0.75
        ctx = moments.context(a)

        def ratio(x):
            stretch = (1.0 - a) * (a**a * x / ctx.rho) ** (1.0 / (1.0 - a))
            return limitlaw.tail(ctx, x, "positive", log=True) / (-stretch)

        assert abs(ratio(20.0) - 1.0) < 1e-3
        assert abs(ratio(40.0) - 1.0) < abs(ratio(20.0) - 1.0)

    def test_q_mixture(self):
        ctx = moments.context(0.8)
        q = 0.3
        base = limitlaw.tail(ctx, 2.0, "positive")
        assert_allclose(limitlaw.tail(ctx, 2.0, "positive", q=q), q * base, rtol=1e-14)
        assert_allclose(limitlaw.tail(ctx, 2.0, "negative", q=q), (1.0 - q) * base, rtol=1e-14)
        # the end points are the unmixed records, swapped at q = 0
        for side, mirror in (("positive", "negative"), ("negative", "positive")):
            assert limitlaw.asymptote(ctx, side, q=1.0) == limitlaw.asymptote(ctx, side)
            assert limitlaw.asymptote(ctx, side, q=0.0) == limitlaw.asymptote(ctx, mirror)
        # a bad side is refused whatever q is, the end points included
        for q_first in (0.0, q, 1.0):
            with pytest.raises(ValueError, match="side"):
                limitlaw.asymptote(ctx, "sideways", q=q_first)

    def test_underflow_contract(self):
        # at a = 0.999 the stretch term x^(1/(1-a)) itself overflows
        for a, x in ((0.75, 100.0), (0.999, 4.5)):
            ctx = moments.context(a)
            assert limitlaw.tail(ctx, x, "positive") == 0.0
            assert limitlaw.tail(ctx, x, "positive", log=True) < -1e5
        # values above the double range raise, their logs stay finite
        ctx = moments.context(1.0 - 1e-6)
        with pytest.raises(SeriesOverflowError):
            limitlaw.tail_ratio(ctx, 2.0)
        with pytest.raises(SeriesOverflowError):
            limitlaw.tail(ctx, 0.5, "negative")
        assert limitlaw.tail(ctx, 0.5, "negative", log=True) > 709.0

    def test_density_band_comparison(self):
        # finite-n step density vs the positive asymptote at log scale;
        # the deviation shrinks as n grows (acceptance asserts the bound
        # on the n = 1e3 .. 2e4 ladder)
        a = 0.75
        ctx = moments.context(a)

        def max_dev(n):
            return acceptance._density_log_deviation(ctx, walk.row_at(walk.ErwParams.from_a(a), n))

        assert max_dev(800) > max_dev(1600)

    @staticmethod
    def _laplace_log_error(ctx, pos, neg, n):
        # int x^n [tail+(x) + tail-(-x)] dx in closed form,
        # int_0^inf c x^(g+n) exp(-s x^b) dx = c Gamma(k/b) / (b s^(k/b)), k = n+g+1,
        # against the exact log E[L^n] of the moment recurrence
        def ln_int(rec):
            k = n + rec.power + 1.0
            b = rec.stretch_power
            return (
                math.log(rec.prefactor)
                + math.lgamma(k / b)
                - math.log(b)
                - k / b * math.log(rec.stretch)
            )

        ln_pos = ln_int(pos)
        sign = 1.0 if n % 2 == 0 else -1.0
        laplace = ln_pos + math.log1p(sign * math.exp(ln_int(neg) - ln_pos))
        return abs(laplace - moments.limit_moment_ln(ctx.a, n))

    @pytest.mark.parametrize("a", [0.6, 0.75, 0.9])
    def test_tail_constants_match_moments(self, a):
        # the prefactors, powers and stretch reproduce the exact moments
        # through the Laplace integral, with an O(1/n) error
        # (measured at n = 1600: 1.4e-4 / 7e-5 / 2.5e-4 for a = 0.6 / 0.75 / 0.9)
        ctx = moments.context(a)
        pos = limitlaw.asymptote(ctx, "positive")
        neg = limitlaw.asymptote(ctx, "negative")
        errs = [self._laplace_log_error(ctx, pos, neg, n) for n in (100, 400, 1600)]
        assert errs[0] > errs[1] > errs[2]
        assert errs[2] < _LAPLACE_TOL

    @pytest.mark.parametrize("a", [0.6, 0.75, 0.9])
    def test_moment_check_rejects_wrong_constants(self, a):
        # the comparison above can fail: a 1% prefactor error or a 0.01
        # power error on the positive side breaks its bound at n = 1600
        ctx = moments.context(a)
        pos = limitlaw.asymptote(ctx, "positive")
        neg = limitlaw.asymptote(ctx, "negative")
        for bad in (
            dataclasses.replace(pos, prefactor=1.01 * pos.prefactor),
            dataclasses.replace(pos, power=pos.power + 0.01),
            dataclasses.replace(pos, power=pos.power - 0.01),
        ):
            assert self._laplace_log_error(ctx, bad, neg, 1600) > _LAPLACE_TOL

    def test_domain(self):
        ctx = moments.context(0.7)
        with pytest.raises(ValueError):
            limitlaw.tail(ctx, 0.0, "positive")
        with pytest.raises(ValueError):
            limitlaw.tail(ctx, 1.0, "sideways")
        for q in (-0.1, 1.5, float("nan")):
            with pytest.raises(ValueError):
                limitlaw.tail(ctx, 1.0, "positive", q=q, log=True)
