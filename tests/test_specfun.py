import hashlib
import math
import sys
import time

import mpmath as mp
import numpy as np
import pytest
from numpy.testing import assert_allclose

import oracles
from erwlab import specfun
from erwlab.errors import (
    BracketingError, CancellationError, ConsistencyError, ConvergenceError, DomainError,
    ErwLabError, QuadratureError, SeriesOverflowError)


class TestGammaLn:
    def test_trivial_zeros(self):
        assert abs(specfun.gamma_ln(1.0)) < 5e-15
        assert abs(specfun.gamma_ln(2.0)) < 5e-15

    def test_quarter(self):
        # reflection + duplication oracle: Gamma(1/4) = 3.6256099082219083
        assert_allclose(specfun.gamma_ln(0.25), math.log(3.6256099082219083), rtol=1e-14)

    @pytest.mark.parametrize("x", np.geomspace(1e-3, 200.0, 60))
    def test_against_scipy(self, x):
        mine = specfun.gamma_ln(float(x))
        ref = float(mp.loggamma(x))
        assert abs(mine - ref) <= 1e-13 * max(1.0, abs(ref))

    def test_domain(self):
        with pytest.raises(ValueError):
            specfun.gamma_ln(0.0)
        with pytest.raises(ValueError):
            specfun.gamma_ln(-1.5)


class TestHyp2F1:
    def test_at_zero(self):
        assert specfun.hyp2f1(0.3, 1.7, 2.2, 0.0).value == 1.0

    def test_log_identity(self):
        # 2F1(1,1;2;z) = -log(1-z)/z
        got = specfun.hyp2f1(1.0, 1.0, 2.0, 0.5)
        assert_allclose(got.value, 2.0 * math.log(2.0), rtol=1e-13)

    @pytest.mark.parametrize("z", [-0.3, -0.9, -4.0, -25.0, 0.4])
    def test_against_mpmath(self, z):
        a, b, c = 0.5, -0.75, 0.25
        with mp.workdps(oracles.REF_DIGITS):
            ref = mp.hyp2f1(a, b, c, z)
        got = specfun.hyp2f1(a, b, c, z)
        assert_allclose(got.value, float(ref), rtol=5e-13)
        oracles.assert_within_bar(got.value, got.abs_error_estimate, ref)

    def test_polynomial_termination(self):
        # alpha = -2 terminates: 2F1(-2, b; c; z) is a quadratic
        b, c, z = 1.3, 2.1, 0.7
        expect = 1.0 - 2.0 * b / c * z + b * (b + 1.0) / (c * (c + 1.0)) * z * z
        assert_allclose(specfun.hyp2f1(-2.0, b, c, z).value, expect, rtol=1e-14)

    def test_sha256_pin(self):
        # value, error estimate and term count, bit for bit, on both sides
        # of the Pfaff switch at z = -1/2 and for terminating series
        a = 0.75
        params = (
            (0.5, -0.75, 0.25),
            (1.0, 1.0, 2.0),
            (0.5, 0.5 + 0.5 / a, 1.5 + 0.5 / a),
            (0.5, -0.5 / 0.6, 1.0 - 0.5 / 0.6),
            (-2.0, 1.3, 2.1),
            (-3.0, 0.7, 1.9),
        )
        zs = (-25.0, -4.0, -1.0, -0.6, -0.5000001, -0.5, -0.4999999, -0.3, 0.0, 0.4, 0.7, 0.9)
        h = hashlib.sha256()
        for abc in params:
            for z in zs:
                ev = specfun.hyp2f1(*abc, z)
                h.update(f"{ev.value.hex()} {ev.abs_error_estimate.hex()} {ev.terms_used}\n".encode())
        assert h.hexdigest() == "40d6d8323835e3e5131b758475d10894887b42a2df405f44cce2ca248cc03c20"

    def test_term_cap_raises(self, monkeypatch):
        # 2F1(1, 1; 2; 0.4) takes 39 terms: a cap of 5 fails loudly
        monkeypatch.setattr(specfun, "_MAX_TERMS", 5)
        with pytest.raises(ConvergenceError, match="2F1 series did not converge within 5 terms"):
            specfun.hyp2f1(1.0, 1.0, 2.0, 0.4)

    def test_domain(self):
        with pytest.raises(ValueError):
            specfun.hyp2f1(1.0, 1.0, -2.0, 0.5)
        with pytest.raises(ValueError):
            specfun.hyp2f1(1.0, 1.0, 2.0, 1.0)
        # float() would parse a str alpha; the intake refuses it
        with pytest.raises(DomainError):
            specfun.hyp2f1("0.5", 0.3, 1.7, -0.7)


def _outcome(call, *args):
    """(value, terms_used, method) of a SeriesEval, or the type of the error raised."""
    try:
        got = call(*args)
    except ErwLabError as exc:
        return type(exc)
    return got.value, got.terms_used, got.method


def _assert_within_bar(got, ref):
    oracles.assert_within_bar(got.value, got.abs_error_estimate, ref)
    # the bar of a 30-digit sum is the conversion to double, give or take
    assert got.abs_error_estimate <= 2e-16 * abs(float(ref))
    assert got.method == "series-hp"


class TestMittagLeffler:
    def test_exponential(self):
        assert_allclose(specfun.mittag_leffler(1.0, 1.0).value, math.e, rtol=1e-14)
        for z in (0.3, 2.5, -3.0):
            assert_allclose(specfun.mittag_leffler(1.0, z).value, math.exp(z), rtol=1e-12)

    def test_at_zero(self):
        assert specfun.mittag_leffler(0.7, 0.0).value == 1.0

    def test_half_erfc(self):
        # E_{1/2}(z) = exp(z^2) erfc(-z)
        ref = math.e * float(mp.erfc(-1))
        assert_allclose(specfun.mittag_leffler(0.5, 1.0).value, ref, rtol=1e-12)

    def test_asymptotic_switch_is_seamless(self):
        # the series just below and above z^(1/alpha) = 35 approximates
        # exp(z^(1/alpha))/alpha to high accuracy
        alpha = 0.8
        z_lo = (35.0**alpha) * 0.999
        z_hi = (35.0**alpha) * 1.001
        lo = specfun.mittag_leffler(alpha, z_lo)
        hi = specfun.mittag_leffler(alpha, z_hi)
        bridge = math.exp(z_hi ** (1.0 / alpha)) / alpha
        assert_allclose(hi.value, bridge, rtol=1e-12)
        assert_allclose(lo.value, math.exp(z_lo ** (1.0 / alpha)) / alpha, rtol=1e-10)

    @pytest.mark.parametrize("z", [8.874, 17.748])
    def test_half_erfc_large_argument(self, z):
        # E_{1/2}(z) = exp(z^2) erfc(-z), here at z^2 = 78.8 and 315
        got = specfun.mittag_leffler(0.5, z)
        with mp.workdps(oracles.REF_DIGITS):
            ref = mp.exp(mp.mpf(z) ** 2) * mp.erfc(-mp.mpf(z))
        oracles.assert_within_bar(got.value, got.abs_error_estimate, ref)

    def test_overflow_is_typed(self):
        # beyond the double range the positive axis names the log route
        for call in (lambda: specfun.mittag_leffler(1.0, 709.9),
                     lambda: specfun.mittag_leffler(1.0, 1e300),
                     lambda: specfun.prabhakar(0.5, 1.0, 2.0, 27.0),
                     # 1/Gamma(200) underflows, the value is about 8.6e-56
                     lambda: specfun.prabhakar(1.0, 200.0, 1.0, 1300.0)):
            with pytest.raises(SeriesOverflowError, match="prabhakar_ln"):
                call()

    def test_cancellation_guard(self):
        # at alpha = 0.3 the terms overflow and the sum is NaN
        for alpha, z in ((0.6, -25.0), (0.75, -200.0), (0.3, -20.0), (0.3, -8.0)):
            with pytest.raises(CancellationError):
                specfun.mittag_leffler(alpha, z)

    def test_term_caps_raise(self, monkeypatch):
        # E_{3/4}(-2) takes 38 terms in double precision and 59 at 30
        # digits; a cap of 5 (10) fails loudly in each mode.  The mpmath
        # cap passes its up-front peak test, ln(2)/0.75 < ln(0.75 * 10)
        monkeypatch.setattr(specfun, "_MAX_TERMS", 5)
        with pytest.raises(ConvergenceError, match="mittag_leffler series did not converge within 5 terms"):
            specfun.mittag_leffler(0.75, -2.0)
        monkeypatch.setattr(specfun, "_HP_MAX_TERMS", 10)
        with pytest.raises(ConvergenceError, match="high-precision Prabhakar series stalled"):
            specfun.mittag_leffler(0.75, -2.0, precision_digits=30)

    def test_high_precision_mode(self):
        got = specfun.mittag_leffler(0.75, -20.0, precision_digits=40)
        ref = float(oracles.prabhakar(0.75, 1.0, 1.0, -20.0))
        assert_allclose(got.value, ref, rtol=1e-25 + 1e-12)
        assert got.method == "series-hp"

    @pytest.mark.parametrize("alpha, z", [(0.6, -20.0), (0.75, -30.0)])
    def test_high_precision_cancelling(self, alpha, z):
        # the largest term is about 10^64 (10^40) times the value
        got = specfun.mittag_leffler(alpha, z, precision_digits=30)
        _assert_within_bar(got, oracles.prabhakar(alpha, 1.0, 1.0, z))

    def test_error_estimate_honest(self):
        for alpha, z in ((0.75, 3.0), (0.6, -4.0), (0.9, 12.0)):
            got = specfun.mittag_leffler(alpha, z)
            ref = oracles.prabhakar(alpha, 1.0, 1.0, z)
            oracles.assert_within_bar(got.value, got.abs_error_estimate, ref)

    def test_domain(self):
        for alpha in (0.0, 1.5):
            with pytest.raises(ValueError, match="alpha in"):
                specfun.mittag_leffler(alpha, 1.0)
        for z in (math.inf, math.nan):
            with pytest.raises(ValueError, match="finite z"):
                specfun.mittag_leffler(0.7, z)
        with pytest.raises(ValueError, match="mittag_leffler requires precision_digits >= 0"):
            specfun.mittag_leffler(0.7, 1.0, precision_digits=-1)


class TestPrabhakar:
    def test_reduces_to_mittag_leffler(self):
        for z in (-2.0, 0.5, 2.0):
            ml = specfun.mittag_leffler(0.75, z).value
            pr = specfun.prabhakar(0.75, 1.0, 1.0, z).value
            assert_allclose(pr, ml, rtol=1e-12)

    def test_at_zero(self):
        beta = 1.7
        assert_allclose(
            specfun.prabhakar(0.5, beta, 2.3, 0.0).value,
            math.exp(-specfun.gamma_ln(beta)),
            rtol=1e-14,
        )

    def test_against_mpmath_series(self):
        alpha, beta, gamma_p, z = 0.6, 1.3, 0.5, -5.0
        ref = oracles.prabhakar(alpha, beta, gamma_p, z)
        got = specfun.prabhakar(alpha, beta, gamma_p, z)
        assert_allclose(got.value, float(ref), rtol=1e-9)
        oracles.assert_within_bar(got.value, got.abs_error_estimate, ref)

    @pytest.mark.parametrize("alpha, beta, gamma_p, z", [(0.5, 2.0, 2.5, -12.0), (0.75, 1.3, 0.4, -30.0)])
    def test_high_precision_cancelling(self, alpha, beta, gamma_p, z):
        got = specfun.prabhakar(alpha, beta, gamma_p, z, precision_digits=30)
        _assert_within_bar(got, oracles.prabhakar(alpha, beta, gamma_p, z))

    def test_high_precision_large_gamma(self):
        # (gamma)_n / n! and a value of 1e-12 cancel beyond the
        # |z|^(1/alpha) / ln 10 digits estimated up front; the second pass
        # carries the digits the first one measured and meets the 30 digits
        got = specfun.prabhakar(0.75, 1.0, 40.0, -10.0, precision_digits=30)
        _assert_within_bar(got, oracles.prabhakar(0.75, 1.0, 40.0, -10.0))

    def test_high_precision_typed_failures(self, monkeypatch):
        # a peak beyond the term cap is refused before any digits are set;
        # a sum beyond double's range is not returned as inf
        with pytest.raises(ConvergenceError):
            specfun.mittag_leffler(0.1, -30.0, precision_digits=30)
        with pytest.raises(SeriesOverflowError):
            specfun.mittag_leffler(1.0, 800.0, precision_digits=20)
        # the first pass of this sum misses its 30 digits; with the digits
        # it measured taken away, the second pass misses them too
        monkeypatch.setattr(mp, "log10", lambda x: mp.mpf(-2))
        with pytest.raises(CancellationError, match="even at 50 working digits"):
            specfun.prabhakar(0.75, 1.0, 40.0, -10.0, precision_digits=30)

    def test_high_precision_matches_mpf_reference(self):
        # seeded points of the 30-digit property's domain at 20, 30 and 40
        # digits: value, terms and method, or the error type, equal those of
        # the term-by-term mpf loop.  At (0.75, 1, 40, -10) the first pass
        # misses and the retry passes, at (0.75, 1, 50, -10) 20 digits raise
        # CancellationError after the retry
        rng = np.random.default_rng(3620)
        points = [(0.75, 1.0, 40.0, -10.0, (30, 40)), (0.75, 1.0, 50.0, -10.0, (20,)),
                  (0.6, 1.0, 1.0, -(30.0**0.6), (20, 30, 40))]
        for i in range(102):
            alpha, beta, gamma_p, t = (rng.uniform(lo, hi) for lo, hi in
                                       ((0.4, 1.0), (0.5, 3.0), (0.3, 3.0), (-30.0, 30.0)))
            points.append((alpha, beta, gamma_p, math.copysign(abs(t) ** alpha, t), ((20, 30, 40)[i % 3],)))
        for alpha, beta, gamma_p, z, digit_set in points:
            for digits in digit_set:
                for call, params in (
                    (lambda d: specfun.prabhakar(alpha, beta, gamma_p, z, precision_digits=d),
                     (alpha, beta, gamma_p)),
                    (lambda d: specfun.mittag_leffler(alpha, z, precision_digits=d),
                     (alpha, 1.0, 1.0)),
                ):
                    want = _outcome(oracles.prabhakar_hp_reference, *params, z, digits)
                    got = _outcome(call, digits)
                    assert got == want, (params, z, digits)

    def test_high_precision_retry_after_a_first_pass_without_digits(self):
        # at 20 digits neither 40-digit first pass keeps a digit of the
        # value, 1.128e-12: the mpf loop reads 1.09e-9 and retries at 68
        # digits, which miss; the integer loop reads 5.09e-10 and retries
        # at 69, which meet the 20 digits
        with pytest.raises(CancellationError):
            oracles.prabhakar_hp_reference(0.75, 1.0, 40.0, -10.0, 20)
        got = specfun.prabhakar(0.75, 1.0, 40.0, -10.0, precision_digits=20)
        _assert_within_bar(got, oracles.prabhakar(0.75, 1.0, 40.0, -10.0))

    @pytest.mark.parametrize("beta", [40.0, 60.0])
    def test_high_precision_tiny_values(self, beta):
        # values near 1/Gamma(beta), 5e-47 and 7e-81: the stop rule is
        # relative to the partial sum however small it is
        got = specfun.prabhakar(1.0, beta, 1.0, -1.0, precision_digits=30)
        _assert_within_bar(got, oracles.prabhakar(1.0, beta, 1.0, -1.0))

    def test_overflowing_terms_raise(self):
        # the terms overflow and the sum is NaN: a typed error, not NaN
        with pytest.raises(CancellationError):
            specfun.prabhakar(0.3, 1.0, 1.0, -8.0)

    def test_positive_axis_within_bar(self):
        # seeded points with u = z^(1/alpha) in [8, 35] and [35, 680]: each
        # value lies within its bar of the 25-digit route; from u = 8 up the
        # bar needs the rounding of building each term
        rng = np.random.default_rng(14)
        for u_lo, u_hi in ((8.0, 35.0),) * 24 + ((35.0, 680.0),) * 12:
            alpha, beta, gamma_p = rng.uniform(0.1, 1.0), rng.uniform(0.5, 2.5), rng.uniform(0.3, 3.0)
            z = rng.uniform(u_lo, u_hi) ** alpha
            ml = specfun.mittag_leffler(alpha, z)
            pr = specfun.prabhakar(alpha, beta, gamma_p, z)
            for got, params in ((ml, (alpha, 1.0, 1.0)), (pr, (alpha, beta, gamma_p))):
                ref = specfun.prabhakar(*params, z, precision_digits=25)
                assert abs(got.value - ref.value) <= got.abs_error_estimate + ref.abs_error_estimate, params

    @pytest.mark.parametrize("alpha, beta, gamma_p, z", [
        (0.3, 100.0, 2.0, -2.0), (0.9, 100.0, 1.0, -25.0), (0.75, 170.0, 2.0, -0.3),
        (1.0, 170.0, 0.5, 0.3), (0.75, 170.0, 2.0, 0.3)])
    def test_large_beta_within_bar(self, alpha, beta, gamma_p, z):
        # the first term exp(-ln Gamma(beta)) is rounded by about
        # eps |ln Gamma(beta)| relative, 1.6e-13 at beta = 170, and every
        # term inherits that rounding
        got = specfun.prabhakar(alpha, beta, gamma_p, z)
        oracles.assert_within_bar(got.value, got.abs_error_estimate,
                                  oracles.prabhakar(alpha, beta, gamma_p, z))

    def test_large_argument_ratio(self):
        # E^g_{a,1}(r) / [r^((g-1)/a) e^(r^(1/a)) / (a^g Gamma(g))] -> 1
        alpha, gamma_p = 0.75, 1.0 / 7.0
        for r, tol in ((136.0, 0.02), (1000.0, 0.006)):
            ln_asym = (
                ((gamma_p - 1.0) / alpha) * math.log(r)
                - gamma_p * math.log(alpha)
                - specfun.gamma_ln(gamma_p)
                + r ** (1.0 / alpha)
            )
            ln_series = specfun.prabhakar_ln(alpha, 1.0, gamma_p, r)
            assert abs(ln_series - ln_asym) < tol

    def test_ln_refuses_beyond_its_cap(self, monkeypatch):
        # ln E_{1/2}(z) = z^2 + ln erfc(-z), which is z^2 + ln 2 to double
        # precision at z = 100 (the 2e4-step log-space sum measured 2.2e-13)
        assert specfun.prabhakar_ln(0.5, 1.0, 1.0, 100.0) == pytest.approx(1e4 + math.log(2.0), rel=1e-12)
        # the peak index z^(1/alpha) / alpha reaches the 2e6-term cap; a sum
        # truncated there is off by -0.693 at z = 1000 and by -75364 at 1200,
        # and z^(1/alpha) itself overflows at z = 1e40; at z = 999 the peak
        # (1996002) fits but nine widths past it (17982 terms) do not, and
        # the refusal comes before any term is summed
        for params in ((0.5, 1.0, 1.0, 1000.0), (0.5, 1.0, 1.0, 1200.0), (0.1, 1.0, 1.0, 1e40),
                       (0.5, 1.0, 1.0, 999.0)):
            t0 = time.process_time()
            with pytest.raises(ConvergenceError, match="nine widths of its 2000000-term cap"):
                specfun.prabhakar_ln(*params)
            assert time.process_time() - t0 < 0.01
        # a peak (990) whose nine widths (400) fit the cap but whose terms
        # fall below exp(-45) only at n = 1440
        monkeypatch.setattr(specfun, "_POS_MAX_TERMS", 1400)
        with pytest.raises(ConvergenceError, match="within 1400 terms"):
            specfun.prabhakar_ln(0.5, 1.0, 1.0, 495.0**0.5)
        # beta moves the peak to (u - beta) / alpha: at beta = 100 the terms
        # peak at 790 and fall off by 1213, so a cap of 1300 lets the sum
        # end, though nine widths past the beta = 1 peak (1390) do not fit
        monkeypatch.setattr(specfun, "_POS_MAX_TERMS", 1300)
        z = 495.0**0.5
        ref = mp.log(oracles.prabhakar(0.5, 100.0, 1.0, z))
        assert specfun.prabhakar_ln(0.5, 100.0, 1.0, z) == pytest.approx(float(ref), rel=1e-12)

    def test_negative_argument_decay(self):
        # E^g_{a,b}(-r) = O(r^-g): decreasing in r; double precision while
        # the cancellation fits its budget, high-precision mode beyond it
        alpha, beta, gamma_p = 0.75, 1.0, 0.4
        vals = [specfun.prabhakar(alpha, beta, gamma_p, -r).value for r in (2.0, 4.0, 8.0)]
        assert vals[0] > vals[1] > vals[2] > 0.0
        far = [
            specfun.prabhakar(alpha, beta, gamma_p, -r, precision_digits=60).value
            for r in (16.0, 30.0)
        ]
        assert vals[2] > far[0] > far[1] > 0.0

    def test_domain(self):
        for params in ((0.0, 1.0, 1.0), (0.5, -1.0, 1.0), (0.5, 1.0, 0.0)):
            with pytest.raises(ValueError, match="alpha, beta, gamma > 0"):
                specfun.prabhakar(*params, 1.0)
            with pytest.raises(ValueError, match="alpha, beta, gamma > 0"):
                specfun.prabhakar_ln(*params, 1.0)
        for z in (-math.inf, math.nan):
            with pytest.raises(ValueError, match="finite z"):
                specfun.prabhakar(0.5, 1.0, 1.0, z)
        with pytest.raises(ValueError, match="prabhakar requires precision_digits >= 0"):
            specfun.prabhakar(0.5, 1.0, 1.0, 1.0, precision_digits=-1)
        for z in (0.0, -1.0, math.nan):
            with pytest.raises(ValueError, match="z > 0"):
                specfun.prabhakar_ln(0.5, 1.0, 1.0, z)


class TestFKernel:
    @pytest.mark.parametrize("a", [0.55, 2.0 / 3.0, 0.75, 0.9])
    @pytest.mark.parametrize("z", [0.3, 0.9, 1.05, 1.15, 2.0, 6.0])
    def test_regimes_agree_with_quadrature(self, a, z):
        quad = specfun.f_eval(a, z, method="quadrature")
        auto = specfun.f_eval(a, z)
        assert abs(auto.value - quad.value) < 1e-9
        assert abs(auto.value - quad.value) <= 10.0 * (
            auto.abs_error_estimate + quad.abs_error_estimate
        ) + 1e-14

    def test_three_regimes_mutual(self):
        a = 2.0 / 3.0
        vals = [
            specfun.f_eval(a, 1.0, method=m).value
            for m in ("quadrature", "hypergeometric",)
        ]
        assert abs(vals[0] - vals[1]) < 1e-9
        vals = [
            specfun.f_eval(a, 1.12, method=m).value
            for m in ("quadrature", "series", "hypergeometric")
        ]
        assert max(vals) - min(vals) < 1e-9

    def test_auto_refuses_disagreeing_regimes(self, monkeypatch):
        # on the overlap band [1.02, 1.2] a gap beyond both bars is refused
        series = specfun._f_series

        def off(a, z):
            value, *rest = series(a, z)
            return (value * (1.0 + 1e-9), *rest)

        monkeypatch.setattr(specfun, "_f_series", off)
        with pytest.raises(ConsistencyError, match="F regimes disagree at a=0.7, z=1.15"):
            specfun.f_eval(0.7, 1.15)

    @pytest.mark.parametrize("a", [0.55, 0.6, 0.65, 0.7, 0.75, 0.8, 0.85, 0.9, 0.95])
    def test_series_against_mpmath(self, a):
        worst = 0.0
        for z in np.geomspace(1.02, 200.0, 40):
            z = float(z)
            ref = float(oracles.f_kernel(a, z))
            got = specfun.f_eval(a, z, method="series").value
            worst = max(worst, abs(got / ref - 1.0))
        assert worst <= 4e-15

    def test_small_z_limit(self):
        # F(z) - z^(-1/a) -> -rho^(1/a); the gap closes like z^(2-1/a)
        a = 0.7
        rr = specfun.rho_root(a)
        gaps = []
        for z in (1e-3, 1e-7):
            gaps.append(abs(specfun.f_eval(a, z).value - z ** (-1.0 / a) + rr))
        assert gaps[1] < gaps[0]
        assert gaps[1] < 5e-4

    @pytest.mark.parametrize("method", ["auto", "hypergeometric", "series", "quadrature"])
    def test_beyond_double_range_is_typed(self, method):
        # F(1e-300) at a = 0.7 is about 1e428
        with pytest.raises(SeriesOverflowError, match="exceeds the double range"):
            specfun.f_eval(0.7, 1e-300, method=method)

    @pytest.mark.parametrize("a, z", [(0.55, 1e-150), (0.7, 1e-150), (0.95, 1e-200)])
    def test_quadrature_integrand_overflow_is_typed(self, a, z):
        # F is in range (the 2F1 form evaluates it), the integrand is not
        assert math.isfinite(specfun.f_eval(a, z).value)
        with pytest.raises(QuadratureError, match="overflows double"):
            specfun.f_eval(a, z, method="quadrature")

    @pytest.mark.parametrize("a", [0.55, 0.7, 0.95])
    def test_series_small_z_is_typed(self, a):
        # z = 10^-k / 4 from 0.25 down to 2.5e-321: a finite value or an
        # ErwLabError at every z.  Below z^2 = eps the series refuses up
        # front, as its Pfaff argument 1/(1+z^2) rounds to 1 and z * z
        # underflows to 0 below about 1e-162; further down F leaves the
        # double range
        for k in range(321):
            z = 10.0**-k / 4
            try:
                got = specfun.f_eval(a, z, method="series")
            except ErwLabError:
                continue
            assert math.isfinite(got.value) and got.value > 0.0, z
        for z in (2.5e-9, 1e-10, 2.5e-163):
            with pytest.raises(ConvergenceError, match="rounds to 1"):
                specfun.f_eval(a, z, method="series")

    def test_quadrature_budget_runs_out_at_small_z(self):
        # the integrand's z^(-1-1/a) peak at theta = arctan z: F is a
        # double there (the 2F1 form evaluates it), the quadrature is not
        assert math.isfinite(specfun.f_eval(0.7, 1e-10).value)
        with pytest.raises(QuadratureError, match="segment budget exhausted"):
            specfun.f_eval(0.7, 1e-10, method="quadrature")

    def test_large_z_limit(self):
        # F(z) (a+1) z^(1+1/a) -> 1
        a = 0.8
        v = specfun.f_eval(a, 100.0).value * (a + 1.0) * 100.0 ** (1.0 + 1.0 / a)
        assert abs(v - 1.0) < 1e-4

    def test_strictly_decreasing(self):
        rng = np.random.default_rng(7)
        a = 0.62
        for _ in range(25):
            z1, z2 = np.sort(rng.uniform(0.05, 8.0, size=2))
            if z1 == z2:
                continue
            assert specfun.f_eval(a, float(z1)).value > specfun.f_eval(a, float(z2)).value > 0.0

    def test_domain(self):
        # at a = 0.4 rho_root would refuse too, at a = 1 nothing else does
        for a in (0.4, 1.0):
            with pytest.raises(ValueError, match="f_eval requires a in"):
                specfun.f_eval(a, 1.0)
        with pytest.raises(ValueError, match="f_eval requires z > 0"):
            specfun.f_eval(0.7, -1.0)
        with pytest.raises(ValueError):
            specfun.f_eval(0.7, 1.0, method="nope")
        with pytest.raises(ValueError, match="rho_root requires a > 1/2"):
            specfun.rho_root(0.5)
        # F' at z < 0 would be a complex power
        with pytest.raises(ValueError, match="f_derivative requires z > 0"):
            specfun.f_derivative(0.75, -1.0)
        with pytest.raises(ValueError, match="f_derivative requires a in"):
            specfun.f_derivative(1.5, 1.0)


class TestFInverse:
    @pytest.mark.parametrize("y", [0.01, 1.0, 100.0])
    def test_round_trip(self, y):
        a = 0.7
        x = specfun.f_inverse(a, y)
        assert abs(specfun.f_eval(a, x).value - y) < 1e-10 * max(1.0, y)

    def test_large_y_leading(self):
        a = 0.66
        rr = specfun.rho_root(a)
        for y in (1e4, 1e6):
            x = specfun.f_inverse(a, y)
            # large y means small x where F ~ x^(-1/a) - rho^(1/a)
            assert abs(x * (y + rr) ** a - 1.0) < 1e-3

    def test_small_y_second_order(self):
        # F_inv(y) = ((a+1)y)^(-a/(a+1)) (1 - c1 y^(2a/(a+1)) + o(...)),
        # c1 = a (a+1)^(2a/(a+1)) / (2 (3a+1))
        a = 0.7
        c1 = a * (a + 1.0) ** (2.0 * a / (a + 1.0)) / (2.0 * (3.0 * a + 1.0))
        for y, tol in ((1e-4, 2e-7), (1e-5, 1e-8)):
            x = specfun.f_inverse(a, y)
            approx = ((a + 1.0) * y) ** (-a / (a + 1.0)) * (1.0 - c1 * y ** (2.0 * a / (a + 1.0)))
            assert abs(x / approx - 1.0) < tol

    @pytest.mark.parametrize("a", [0.55, 0.7, 0.9, 0.95])
    def test_at_most_eight_evaluations(self, a, monkeypatch):
        calls = []
        f_eval = specfun.f_eval

        def counted(*args, **kwargs):
            calls.append(args)
            return f_eval(*args, **kwargs)

        monkeypatch.setattr(specfun, "f_eval", counted)
        for y in np.geomspace(0.01, 100.0, 41):
            calls.clear()
            specfun.f_inverse(a, float(y))
            assert len(calls) <= 8, f"{len(calls)} f_eval calls at y={y}"

    @pytest.mark.parametrize("a, y", [(0.9, 1e9), (0.95, 1e9), (0.95, 1e15), (0.7, 1e-20)])
    def test_round_trip_far_out(self, a, y):
        # F at one end of the proven bracket lies within f_eval's rounding
        # of y, so the computed sign there may be wrong
        x = specfun.f_inverse(a, y)
        assert abs(specfun.f_eval(a, x).value - y) <= 1e-11 * max(1.0, y)

    def test_contract_met_below_fifty_ulps(self):
        # near a = 1/2 f_eval cannot resolve F to 50 ulps; the best point
        # still meets the 1e-11 contract and is returned
        a, y = 0.5003, 10.0**0.5
        x = specfun.f_inverse(a, y)
        assert abs(specfun.f_eval(a, x).value - y) <= 1e-11 * max(1.0, y)

    def test_refuses_a_best_point_beyond_the_contract(self, monkeypatch):
        # with F known to 1e-6 only, every point stays 3.3e-7 or more from y
        f_auto = specfun._f_auto

        def coarse(a, x, *rr):
            value, *rest = f_auto(a, x, *rr)
            return (round(value, 6), *rest)

        monkeypatch.setattr(specfun, "_f_auto", coarse)
        with pytest.raises(ConvergenceError, match="stayed above"):
            specfun.f_inverse(0.7, 1.0 + 3.3e-7)

    @pytest.mark.parametrize("a", [0.55, 0.7, 0.9])
    def test_contract_up_to_the_double_max(self, a):
        # from 1e47 to 1e245 on, depending on a, both bracket ends round to
        # one double and F's rounding there exceeds 50 ulps; at the double
        # max F itself would overflow at the root for some a
        for y in [10.0**k for k in range(0, 309, 2)] + [sys.float_info.max]:
            x = specfun.f_inverse(a, y)
            assert abs(specfun.f_eval(a, x).value - y) <= 1e-11 * y, y

    def test_refuses_a_collapsed_bracket_beyond_the_contract(self, monkeypatch):
        # at y = 1e300 the bracket is one double; F off by 1e-10 misses the contract there
        f_auto = specfun._f_auto

        def biased(a, x, *rr):
            value, *rest = f_auto(a, x, *rr)
            return (value * (1.0 + 1e-10), *rest)

        monkeypatch.setattr(specfun, "_f_auto", biased)
        with pytest.raises(BracketingError, match="no sign change"):
            specfun.f_inverse(0.7, 1e300)

    def test_domain(self):
        with pytest.raises(ValueError, match="f_inverse requires y > 0"):
            specfun.f_inverse(0.7, -2.0)
        # without its own check f_eval would refuse a = 1.2
        with pytest.raises(ValueError, match="f_inverse requires a in"):
            specfun.f_inverse(1.2, 1.0)


class TestDoubleRangeEdges:
    """Where an intermediate leaves the double range, a typed error; where
    only a bracket bound does, the value."""

    def test_gamma_ln_beyond_the_double_range(self):
        with pytest.raises(SeriesOverflowError, match=r"log Gamma\(1e\+308\)"):
            specfun.gamma_ln(1e308)

    def test_pfaff_scale_beyond_the_double_range(self):
        with pytest.raises(SeriesOverflowError, match=r"\(1 - z\)\^2 exceeds"):
            specfun.hyp2f1(-2.0, 1.0, 1.0, -1e308)

    def test_prabhakar_log_gamma_beyond_the_double_range(self):
        huge = sys.float_info.max
        for call in (specfun.prabhakar, specfun.prabhakar_ln):
            with pytest.raises(SeriesOverflowError, match=r"Gamma\(1 \+ 1.79769e\+308 n\) leaves"):
                call(huge, 1.0, 1.0, 0.5)
        # Gamma(5e-324) = 2e323: the first term ratio overflows
        with pytest.raises(SeriesOverflowError, match=r"Gamma\(4.94066e-324 \+ 1 n\) leaves"):
            specfun.prabhakar(1.0, 5e-324, 1.0, -0.5)
        # mpmath takes the sum, but the bar on Gamma's argument is infinite
        with pytest.raises(CancellationError, match="error bound inf"):
            specfun.prabhakar(huge, 1.0, 1.0, 0.5, precision_digits=30)

    def test_f_inverse_where_a_bracket_bound_overflows(self):
        # y^(-a) overflows at y = 5e-324; the other bound, ((a+1) y)^(-a/(a+1)), holds
        a, y = 0.99, 5e-324
        x = specfun.f_inverse(a, y)
        assert 0.5 < x / ((a + 1.0) * y) ** (-a / (a + 1.0)) <= 1.0
        assert abs(specfun.f_eval(a, x).value - y) <= 1e-11
        # (a+1) y overflows to inf, whose power would read 0 and end the
        # bracket below its start: a value or a typed error, not ZeroDivisionError
        try:
            assert specfun.f_inverse(0.7, sys.float_info.max) > 0.0
        except ErwLabError:
            pass


@pytest.mark.parametrize("z", [0.3, 1.5, 6.0])
def test_f_derivative_matches_a_central_difference_of_f(z):
    # f_inverse's Newton slope shares this formula
    a, h = 0.7, 1e-5 * z
    diff = (specfun.f_eval(a, z + h).value - specfun.f_eval(a, z - h).value) / (2.0 * h)
    assert_allclose(specfun.f_derivative(a, z), diff, rtol=1e-7)
