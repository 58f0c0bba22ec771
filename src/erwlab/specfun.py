"""Special-function kernel.

Everything here is scalar double-precision with explicit error reporting:

* ``gamma_ln`` (``math.lgamma`` behind a domain check);
* the Gauss hypergeometric series ``hyp2f1`` with the Pfaff transform
  z -> z/(z-1) for arguments left of -1/2;
* the Mittag-Leffler function E_alpha(z) = sum z^n / Gamma(1+alpha n) and
  its three-parameter generalisation
  E^gamma_{alpha,beta}(z) = sum (gamma)_n z^n / (n! Gamma(beta+alpha n)),
  each with its own term ratio and one shared compensated summation that
  refuses on its measured cancellation (CancellationError) and beyond the
  double range (SeriesOverflowError), and one shared mpmath loop whose
  precision follows its largest term;
* the decreasing kernel
  F(z) = (1/a) * int_z^inf du / (u^(1+1/a) sqrt(1+u^2))
  in three mutually checked regimes (2F1 forms in -z^2 and in -1/z^2, both
  summed by ``hyp2f1``, and quadrature), and its compositional inverse.

Evaluators that sum a series return a SeriesEval carrying the value, an
error estimate (first omitted term plus a cancellation bound), the number
of terms, and the regime that produced the value.
"""

import math
import sys
from dataclasses import dataclass

from .errors import (
    CancellationError,
    ConsistencyError,
    ConvergenceError,
    QuadratureError,
    SeriesOverflowError,
)
from .quadrature import integrate
from .rootfind import bisect_newton

_EPS = 2.220446049250313e-16
_MAX_TERMS = 10_000
_HP_MAX_TERMS = 200_000
_LOG_MAX = 709.0
_POS_MAX_TERMS = 2_000_000  # term cap of prabhakar_ln and of the positive-axis series
# series stops once a term's relative contribution drops below this
_TERM_CUT = 1e-17
# relative cancellation loss beyond which double precision is refused
_CANCEL_BUDGET = 1e-6


@dataclass(frozen=True)
class SeriesEval:
    """Value of a series/quadrature evaluation with an honest error bar."""

    value: float
    abs_error_estimate: float
    terms_used: int
    method: str


# ---------------------------------------------------------------------------
# log-Gamma

def gamma_ln(x):
    """log Gamma(x) for x > 0."""
    if not (x > 0.0) or not math.isfinite(x):
        raise ValueError(f"gamma_ln requires x > 0, got {x!r}")
    return math.lgamma(x)


# ---------------------------------------------------------------------------
# Gauss hypergeometric 2F1


def hyp2f1(alpha, beta, gamma_c, z):
    """2F1(alpha, beta; gamma_c; z) on the real branch z < 1.

    Power series for z >= -1/2; Pfaff transform z -> z/(z-1) further left,
    which maps z < -1/2 into (1/3, 1) where the series converges.
    """
    if gamma_c <= 0.0 and gamma_c == round(gamma_c):
        raise ValueError("2F1 undefined for nonpositive-integer third parameter")
    if z >= 1.0:
        raise ValueError("real-branch 2F1 requires z < 1")
    # float() would parse a str, which the checks above refuse for gamma_c and z
    if isinstance(alpha, str) or isinstance(beta, str):
        raise TypeError("2F1 parameters must be real numbers")
    alpha, beta, gamma_c, z = float(alpha), float(beta), float(gamma_c), float(z)
    if z < -0.5:
        inner = hyp2f1(alpha, gamma_c - beta, gamma_c, z / (z - 1.0))
        scale = (1.0 - z) ** (-alpha)
        return SeriesEval(
            value=scale * inner.value,
            abs_error_estimate=abs(scale) * inner.abs_error_estimate,
            terms_used=inner.terms_used,
            method="series-pfaff",
        )
    term = 1.0
    total = 1.0
    comp = 0.0
    abs_sum = 1.0
    for n in range(_MAX_TERMS):
        term *= (alpha + n) * (beta + n) / ((gamma_c + n) * (n + 1.0)) * z
        if term == 0.0:
            # terminating (polynomial) case
            return SeriesEval(total + comp, _series_loss(abs_sum, n + 1), n + 1, "series")
        y = term - comp
        t = total + y
        comp = (t - total) - y
        total = t
        size = abs(term)
        abs_sum += size
        if size <= _TERM_CUT * abs(total) and n >= 3:
            err = size + _series_loss(abs_sum, n + 1)
            return SeriesEval(total + comp, err, n + 1, "series")
    raise ConvergenceError(f"2F1 series did not converge within {_MAX_TERMS} terms")


# ---------------------------------------------------------------------------
# Mittag-Leffler and Prabhakar


def _series_loss(abs_sum, terms):
    # term construction compounds ~eps per ratio update, so the honest
    # bound grows with the series length
    return _EPS * abs_sum * (4.0 + 0.1 * terms)


def _check_cancellation(value, loss, what):
    # written so that a NaN or infinite value or loss fails the test too
    if not (math.isfinite(value) and loss <= _CANCEL_BUDGET * max(abs(value), 1e-300)):
        raise CancellationError(
            f"{what}: cancellation loss {loss:.2e} exceeds budget "
            f"{_CANCEL_BUDGET:g} * |value|; use precision_digits > 0"
        )


def _series(what, z, alpha, ln_first, ratio):
    """Double-precision sum of t_0 = exp(ln_first), t_{n+1} = t_n * ratio(n),
    compensated; the bar is the last term plus the rounding bound, which
    charges every term 2 eps |ln_first| relative: t_0 carries the rounding
    of ln_first, eps |ln_first|, and of exp, and every term inherits it.
    Refusals follow from what the sum measures, at any z: on the negative
    axis CancellationError where the loss exceeds the budget or the sum is
    not finite; on the positive axis, where the terms are positive and the
    bar adds the rounding of building each term, SeriesOverflowError
    beyond the double range; ConvergenceError at the term cap."""
    n_cap = _MAX_TERMS
    if z > 0.0:
        # the terms peak near n = z^(1/alpha) / alpha; capped as in prabhakar_ln
        u = math.exp(min(math.log(z) / alpha, _LOG_MAX))
        n_cap = int(min(max(3.0 * u / alpha + 256.0, _MAX_TERMS), _POS_MAX_TERMS))
    term = total = math.exp(ln_first)
    comp = 0.0
    abs_sum = abs(term)
    for n in range(n_cap):
        term *= ratio(n)
        y = term - comp
        t = total + y
        comp = (t - total) - y
        total = t
        abs_sum += abs(term)
        # an overflowing sum stops here too, its bar no longer finite
        if (abs(term) <= _TERM_CUT * max(abs(total), 1e-300) and n >= 3) or math.isinf(abs_sum):
            value = total + comp
            loss = _series_loss(abs_sum, n + 2) + 2.0 * _EPS * abs(ln_first) * abs_sum
            if z < 0.0:
                _check_cancellation(value, loss, what)
            elif z > 0.0:
                loss += 2.0 * (n + 2) * _EPS * abs(value)
                if not math.isfinite(loss):
                    raise SeriesOverflowError(
                        f"{what} at z={z:g} overflows double; use prabhakar_ln"
                    )
            return SeriesEval(value, abs(term) + loss, n + 2, "series")
    raise ConvergenceError(f"{what} series did not converge within {n_cap} terms")


def mittag_leffler(alpha, z, precision_digits=0):
    """E_alpha(z) for alpha in (0, 1], real z; precision_digits > 0 sums
    E^1_{alpha,1}(z) in the mpmath loop of ``prabhakar``."""
    if not (0.0 < alpha <= 1.0):
        raise ValueError("mittag_leffler requires alpha in (0, 1]")
    if not math.isfinite(z):
        raise ValueError("mittag_leffler requires finite z")
    if precision_digits < 0:
        raise ValueError(f"mittag_leffler requires precision_digits >= 0, got {precision_digits}")
    alpha, z = float(alpha), float(z)
    if precision_digits > 0:
        return _prabhakar_hp(alpha, 1.0, 1.0, z, precision_digits)

    def ratio(n):
        return z * math.exp(gamma_ln(1.0 + alpha * n) - gamma_ln(1.0 + alpha * (n + 1)))

    return _series("mittag_leffler", z, alpha, 0.0, ratio)


def prabhakar(alpha, beta, gamma_p, z, precision_digits=0):
    """Prabhakar function E^gamma_{alpha,beta}(z) for alpha, beta, gamma > 0.

    For z > 0, SeriesOverflowError points to prabhakar_ln where the sum
    or 1/Gamma(beta) leaves the normal double range.

    precision_digits > 0 sums in mpmath, on the negative axis with about
    |z|^(1/alpha) / ln 10 more digits, the size of the largest term.  The
    bar covers that term's measured rounding; where it misses the
    requested digits the sum is taken once more with the missing digits
    added, and CancellationError is raised if it misses again.
    """
    if alpha <= 0.0 or beta <= 0.0 or gamma_p <= 0.0:
        raise ValueError("prabhakar requires alpha, beta, gamma > 0")
    if not math.isfinite(z):
        raise ValueError("prabhakar requires finite z")
    if precision_digits < 0:
        raise ValueError(f"prabhakar requires precision_digits >= 0, got {precision_digits}")
    alpha, beta, gamma_p, z = float(alpha), float(beta), float(gamma_p), float(z)
    if precision_digits > 0:
        return _prabhakar_hp(alpha, beta, gamma_p, z, precision_digits)
    ln_first = -gamma_ln(beta)
    if z > 0.0 and math.exp(ln_first) < sys.float_info.min:
        # a subnormal or zero first term spoils every later term, although
        # the sum itself may be a normal double
        raise SeriesOverflowError(f"1/Gamma({beta:g}) underflows double; use prabhakar_ln")

    def ratio(n):
        return (
            z
            * (gamma_p + n)
            / (n + 1.0)
            * math.exp(gamma_ln(beta + alpha * n) - gamma_ln(beta + alpha * (n + 1)))
        )

    return _series("prabhakar", z, alpha, ln_first, ratio)


def _prabhakar_hp(alpha, beta, gamma_p, z, digits):
    import mpmath as mp

    # the terms peak near n = |z|^(1/alpha) / alpha at about exp(|z|^(1/alpha))
    ln_u = math.log(abs(z)) / alpha if z != 0.0 else -math.inf
    if ln_u > math.log(alpha * _HP_MAX_TERMS):
        raise ConvergenceError(
            f"high-precision series at z={z:g} peaks beyond {_HP_MAX_TERMS} terms"
        )
    work = digits + 10 + (math.ceil(math.exp(ln_u) / math.log(10.0)) if z < 0.0 else 0)
    for attempt in range(2):
        with mp.workdps(work):
            al, be, ga, zz = mp.mpf(alpha), mp.mpf(beta), mp.mpf(gamma_p), mp.mpf(z)
            cut = mp.mpf(10) ** (-(digits + 5))
            coef = mp.mpf(1)  # (gamma)_n z^n / n!
            total = largest = mp.mpf(0)
            n = 0
            while True:
                term = coef / mp.gamma(be + al * n)
                total += term
                largest = max(largest, abs(term))
                if n > 4 and abs(term) < cut * abs(total):
                    break
                coef *= zz * (ga + n) / (n + 1)
                n += 1
                if n > _HP_MAX_TERMS:
                    raise ConvergenceError("high-precision Prabhakar series stalled")
            # term k carries about 4k roundings from its coefficient and
            # x |ln x| from Gamma's argument x, each partial sum at most
            # n + 1 terms: bound them all by the largest term
            x = beta + alpha * n
            err = largest * mp.eps * (n + 1) * (5 * n + x * abs(math.log(x)) + 8) + abs(term)
            allowed = abs(total) * mp.mpf(10) ** (-digits)
            if err <= allowed:
                value = float(total)
                if math.isinf(value):
                    raise SeriesOverflowError(f"E^g_ab({z:g}) overflows double; use prabhakar_ln")
                bar = math.nextafter(float(err + abs(total - value)), math.inf)  # rounded up
                return SeriesEval(value, bar, n + 1, "series-hp")
            if attempt:
                raise CancellationError(
                    f"high-precision series at z={z:g}: error bound {float(err):.2e} "
                    f"exceeds 10^-{digits} |value| even at {work} working digits"
                )
            # the first pass measured the cancellation: carry that many more digits
            work += math.ceil(mp.log10(err / allowed)) + 2


def prabhakar_ln(alpha, beta, gamma_p, z):
    """log E^gamma_{alpha,beta}(z) for z > 0, summed in log space.

    Intended for arguments so large that the value itself overflows a
    double (the series terms are positive, so no cancellation occurs).
    ConvergenceError up front where nine widths past the terms' peak,
    (u - beta + 9 sqrt(u))/alpha with u = z^(1/alpha), reach the 2e6-term
    cap, and otherwise where the cap comes before the terms fall below
    exp(-45) of the largest.
    """
    if alpha <= 0.0 or beta <= 0.0 or gamma_p <= 0.0:
        raise ValueError("prabhakar_ln requires alpha, beta, gamma > 0")
    if not (z > 0.0):
        raise ValueError("prabhakar_ln requires z > 0")
    alpha, beta, gamma_p, z = float(alpha), float(beta), float(gamma_p), float(z)
    ln_z = math.log(z)
    # the terms peak near n = (u - beta) / alpha with width sqrt(u) / alpha,
    # and the -45 cut falls about sqrt(90) = 9.5 widths past the peak: a cap
    # inside nine widths would stop the sum first, and every sum that fits
    # passes
    u = math.exp(min(ln_z / alpha, _LOG_MAX))
    if (u - beta + 9.0 * math.sqrt(u)) / alpha >= _POS_MAX_TERMS:
        raise ConvergenceError(
            f"prabhakar_ln at z={z:g} peaks within nine widths of its {_POS_MAX_TERMS}-term cap"
        )
    ln_t = -gamma_ln(beta)
    peak = ln_t
    # online log-sum-exp against a running maximum, rescaled on promotion
    total = 1.0
    n_cap = int(min(3.0 * u / alpha + 256.0, _POS_MAX_TERMS))
    for n in range(n_cap):
        ln_t += ln_z + math.log(gamma_p + n) - math.log(n + 1.0) + gamma_ln(beta + alpha * n) - gamma_ln(beta + alpha * (n + 1))
        if ln_t > peak:
            total = total * math.exp(peak - ln_t) + 1.0
            peak = ln_t
        else:
            d = ln_t - peak
            if d < -45.0 and n >= 8:
                break
            total += math.exp(d)
    else:  # the cap came before the -45 cut
        raise ConvergenceError(f"prabhakar_ln at z={z:g} did not converge within {n_cap} terms")
    return peak + math.log(total)


# ---------------------------------------------------------------------------
# the decreasing kernel F and its inverse


def rho_root(a):
    """rho_a^(1/a) = Gamma(1/2 + 1/(2a)) Gamma(1 - 1/(2a)) / sqrt(pi), a > 1/2."""
    if not (a > 0.5):
        raise ValueError("rho_root requires a > 1/2")
    a = float(a)
    return math.exp(
        gamma_ln(0.5 + 0.5 / a) + gamma_ln(1.0 - 0.5 / a) - 0.5 * math.log(math.pi)
    )


def _f_quadrature(a, z):
    # u = tan(theta) maps [z, inf) to [arctan z, pi/2); the integrand
    # decays like cos(theta)^(1/a) at the upper end.
    inv_a = 1.0 / a

    def g(theta):
        return math.tan(theta) ** (-1.0 - inv_a) / math.cos(theta)

    try:
        value, err = integrate(g, math.atan(z), 0.5 * math.pi, tol_abs=1e-13, tol_rel=5e-14)
    except OverflowError:
        # near theta = 0 the integrand grows like z^(-1-1/a), beyond the
        # double range well before F does
        raise QuadratureError(
            f"F quadrature at a={a:g}, z={z:g} overflows double", math.inf
        ) from None
    return SeriesEval(value / a, err / a + 4 * _EPS * abs(value / a), 15, "quadrature")


def _f_series(a, z):
    # descending form z^(-1-1/a)/(a+1) 2F1(1/2, b; b+1; -1/z^2), b = 1/2 + 1/(2a);
    # hyp2f1's Pfaff transform takes over for z < sqrt(2), where it sums in
    # 1/(1+z^2).  Its terms fall like n^(-1/2-b) (1+z^2)^(-n), so below
    # z = 0.05 the cap stops it first; below z^2 = eps its argument rounds
    # to 1 and -1/z^2 can overflow, so it is refused up front
    if z * z < _EPS:
        raise ConvergenceError(
            f"F descending series at a={a:g}, z={z:g}: its argument 1/(1+z^2) rounds "
            f"to 1, where 2F1 does not converge; use method='hypergeometric'"
        )
    b = 0.5 + 0.5 / a
    h = hyp2f1(0.5, b, b + 1.0, -1.0 / (z * z))
    scale = z ** (-1.0 - 1.0 / a) / (a + 1.0)
    err = scale * (h.abs_error_estimate + 4 * _EPS * abs(h.value))
    return SeriesEval(scale * h.value, err, h.terms_used, "series")


def _f_hyp(a, z):
    rr = rho_root(a)
    c = 1.0 - 0.5 / a
    h = hyp2f1(0.5, -0.5 / a, c, -z * z)
    scale = z ** (-1.0 / a)
    value = -rr + scale * h.value
    # c is rounded by about eps, a relative error eps/c in both terms,
    # which grow like 1/c and cancel as a -> 1/2
    err = scale * h.abs_error_estimate + 4 * _EPS * (scale * abs(h.value) + rr) * (1.0 + 1.0 / c)
    return SeriesEval(value, err, h.terms_used, "hypergeometric")


def f_eval(a, z, method="auto"):
    """F(z) = (1/a) int_z^inf du / (u^(1+1/a) sqrt(1+u^2)), a in (1/2, 1), z > 0.

    method: 'hypergeometric' and 'series' are the 2F1 forms in -z^2 and in
    -1/z^2.  The latter converges within hyp2f1's term cap only above
    about z = 0.05 (hyp2f1's Pfaff transform takes over below z = sqrt(2))
    and raises ConvergenceError below.  'quadrature' is an independent
    check for moderate z: its segment budget runs out (QuadratureError)
    below about z = 1e-7 at a = 0.55, 1.5e-9 at a = 0.7 and 1.2e-12 at
    a = 0.95.  'auto' picks the first for z <= 1.1 and the second above,
    and raises ConsistencyError if they disagree beyond their combined
    error bars on the band [1.02, 1.2].  Every z > 0 gives a value or an
    ErwLabError, SeriesOverflowError where F is past the double range.
    """
    if not (0.5 < a < 1.0):
        raise ValueError("f_eval requires a in (1/2, 1)")
    if not (z > 0.0):
        raise ValueError("f_eval requires z > 0")
    a, z = float(a), float(z)
    # z^(-1/a) - rho^(1/a) < F(z) < z^(-1/a) (see f_inverse), so F is past
    # the double range exactly when z^(-1/a) is, up to a unit roundoff
    try:
        z ** (-1.0 / a)
    except OverflowError:
        raise SeriesOverflowError(f"F({z:g}) at a={a:g} exceeds the double range") from None
    if method == "quadrature":
        return _f_quadrature(a, z)
    if method == "series":
        return _f_series(a, z)
    if method == "hypergeometric":
        return _f_hyp(a, z)
    if method != "auto":
        raise ValueError(f"unknown f_eval method {method!r}")
    primary = _f_series(a, z) if z > 1.1 else _f_hyp(a, z)
    if 1.02 <= z <= 1.2:
        other = _f_hyp(a, z) if z > 1.1 else _f_series(a, z)
        gap = abs(primary.value - other.value)
        if gap > primary.abs_error_estimate + other.abs_error_estimate:
            raise ConsistencyError(
                f"F regimes disagree at a={a:g}, z={z:g}: "
                f"{primary.value!r} vs {other.value!r}"
            )
    return primary


def f_derivative(a, z):
    """Exact derivative F'(z) = -(1/a) z^(-1-1/a) / sqrt(1+z^2), a in (1/2, 1), z > 0."""
    if not (0.5 < a < 1.0):
        raise ValueError("f_derivative requires a in (1/2, 1)")
    if not (z > 0.0):
        raise ValueError("f_derivative requires z > 0")
    a, z = float(a), float(z)
    return -(1.0 / a) * z ** (-1.0 - 1.0 / a) / math.sqrt(1.0 + z * z)


def f_inverse(a, y):
    """The unique x > 0 with F(x) = y, for y > 0.

    Safeguarded Newton with the exact derivative inside a proven bracket,
    at most 8 f_eval calls for y in [0.01, 100].  The target residual
    |F(x) - y| is 50 ulps of max(1, y).  Where f_eval cannot resolve F that
    finely (a within about 1e-3 of 1/2, where the ascending form cancels),
    the best point seen is returned if it meets the contract
    1e-11 * max(1, y), and ConvergenceError is raised otherwise.
    """
    if not (0.5 < a < 1.0):
        raise ValueError("f_inverse requires a in (1/2, 1)")
    if not (y > 0.0):
        raise ValueError("f_inverse requires y > 0")
    a, y = float(a), float(y)
    # z^(-1/a) - rho^(1/a) < F(z) < min(z^(-1/a), z^(-1-1/a)/(a+1)): bound
    # (1+u^2)^(-1/2) by 1 and by 1/u; the left side is the rho_integral identity
    lo = (y + rho_root(a)) ** (-a)
    hi = min(((a + 1.0) * y) ** (-a / (a + 1.0)), y ** (-a))

    best = [lo, math.inf]

    def fres(x):
        r = f_eval(a, x).value - y
        if abs(r) < best[1]:
            best[:] = [x, abs(r)]
        return r

    try:
        return bisect_newton(fres, lambda x: f_derivative(a, x), lo, hi, 50.0 * _EPS * max(1.0, y))
    except ConvergenceError:
        # f_eval rounds above 50 ulps: the best point seen may still meet the contract
        if best[1] <= 1e-11 * max(1.0, y):
            return best[0]
        raise
