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
  double range (SeriesOverflowError), and one shared high-precision loop
  on Python integers, whose precision follows its largest term;
* the decreasing kernel
  F(z) = (1/a) * int_z^inf du / (u^(1+1/a) sqrt(1+u^2))
  in three mutually checked regimes (2F1 forms in -z^2 and in -1/z^2, both
  summed by ``hyp2f1``, and quadrature), and its compositional inverse.

Evaluators that sum a series return a SeriesEval carrying the value, an
error estimate (first omitted term plus a cancellation bound), the number
of terms, and the regime that produced the value.  Each public function
takes its arguments in once through ``_intake`` (DomainError for a
refused one); the private 2F1 and F kernels take those floats and return
plain (value, bar, terms, method) tuples, which the public function wraps
in one SeriesEval.
"""

import math
import sys
from dataclasses import dataclass

from ._intake import count, real
from .errors import (
    BracketingError,
    CancellationError,
    ConsistencyError,
    ConvergenceError,
    DomainError,
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
# bits of the mpmath modes' fixed-point integers below their working precision
_GUARD_BITS = 20


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
    """log Gamma(x) for finite x > 0; SeriesOverflowError above about
    x = 2.5e305, where it leaves the double range."""
    x = real("gamma_ln requires x", x, 0.0, math.inf)
    try:
        return math.lgamma(x)
    except OverflowError:
        raise SeriesOverflowError(f"log Gamma({x:g}) exceeds the double range") from None


# ---------------------------------------------------------------------------
# Gauss hypergeometric 2F1


def hyp2f1(alpha, beta, gamma_c, z):
    """2F1(alpha, beta; gamma_c; z) on the real branch z < 1.

    Power series for z >= -1/2; Pfaff transform z -> z/(z-1) further left,
    which maps z < -1/2 into (1/3, 1) where the series converges.
    """
    alpha = real("hyp2f1 requires finite alpha", alpha, -math.inf, math.inf)
    beta = real("hyp2f1 requires finite beta", beta, -math.inf, math.inf)
    gamma_c = real("hyp2f1 requires finite gamma", gamma_c, -math.inf, math.inf)
    z = real("real-branch 2F1 requires finite z", z, -math.inf, 1.0)
    if gamma_c <= 0.0 and gamma_c == round(gamma_c):
        raise DomainError("2F1 undefined for nonpositive-integer third parameter")
    return SeriesEval(*_hyp2f1(alpha, beta, gamma_c, z))


def _hyp2f1(alpha, beta, gamma_c, z):
    """hyp2f1 on checked floats, as (value, bar, terms, method)."""
    if z < -0.5:
        # gamma_c passed the check, and z/(z-1) lies in (1/3, 1)
        value, bar, terms, _ = _hyp2f1(alpha, gamma_c - beta, gamma_c, z / (z - 1.0))
        try:
            scale = (1.0 - z) ** (-alpha)
        except OverflowError:
            raise SeriesOverflowError(
                f"2F1 at z={z:g}: (1 - z)^{-alpha:g} exceeds the double range"
            ) from None
        return scale * value, abs(scale) * bar, terms, "series-pfaff"
    cut = _TERM_CUT
    term = 1.0
    total = 1.0
    comp = 0.0
    abs_sum = 1.0
    k = 0.0  # n as a float: every n below 2**53 converts exactly
    for n in range(_MAX_TERMS):
        k1 = k + 1.0
        term *= (alpha + k) * (beta + k) / ((gamma_c + k) * k1) * z
        if term == 0.0:
            # terminating (polynomial) case
            return total + comp, _series_loss(abs_sum, n + 1), n + 1, "series"
        y = term - comp
        t = total + y
        comp = (t - total) - y
        total = t
        size = abs(term)
        abs_sum += size
        if size <= cut * abs(total) and n >= 3:
            return total + comp, size + _series_loss(abs_sum, n + 1), n + 1, "series"
        k = k1
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
    alpha = real("mittag_leffler requires alpha", alpha, 0.0, 1.0, "(]")
    z = real("mittag_leffler requires finite z", z, -math.inf, math.inf)
    precision_digits = count("mittag_leffler requires precision_digits", precision_digits, 0)
    if precision_digits > 0:
        return _prabhakar_hp(alpha, 1.0, 1.0, z, precision_digits)
    # log Gamma(1 + alpha n), carried from one term to the next; the
    # argument is at least 1, inside gamma_ln's domain
    ln_g = 0.0

    def ratio(n):
        nonlocal ln_g
        ln_prev, ln_g = ln_g, math.lgamma(1.0 + alpha * (n + 1))
        return z * math.exp(ln_prev - ln_g)

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
    alpha, beta, gamma_p = _prabhakar_params("prabhakar", alpha, beta, gamma_p)
    z = real("prabhakar requires finite z", z, -math.inf, math.inf)
    precision_digits = count("prabhakar requires precision_digits", precision_digits, 0)
    if precision_digits > 0:
        return _prabhakar_hp(alpha, beta, gamma_p, z, precision_digits)
    # log Gamma(beta + alpha n), carried from one term to the next; the
    # argument stays above beta > 0, inside gamma_ln's domain
    ln_g = gamma_ln(beta)
    if z > 0.0 and math.exp(-ln_g) < sys.float_info.min:
        # a subnormal or zero first term spoils every later term, although
        # the sum itself may be a normal double
        raise SeriesOverflowError(f"1/Gamma({beta:g}) underflows double; use prabhakar_ln")

    def ratio(n):
        nonlocal ln_g
        ln_prev, ln_g = ln_g, math.lgamma(beta + alpha * (n + 1))
        return z * (gamma_p + n) / (n + 1.0) * math.exp(ln_prev - ln_g)

    try:
        return _series("prabhakar", z, alpha, -ln_g, ratio)
    except OverflowError:
        raise _gamma_overflow(alpha, beta) from None


def _prabhakar_params(what, alpha, beta, gamma_p):
    head = f"{what} requires alpha, beta, gamma"
    return (real(head, v, 0.0, math.inf) for v in (alpha, beta, gamma_p))


def _gamma_overflow(alpha, beta):
    # from math.lgamma above about 2.5e305, or from exp of a log Gamma
    # ratio where Gamma(beta) itself is past the double range (tiny beta)
    return SeriesOverflowError(f"Gamma({beta:g} + {alpha:g} n) leaves the double range")


def _fixed(x, bits):
    """The mpf x as a fixed-point integer: the one nearest x 2^bits.  An
    integer v at that scale reads back as mp.mpf((v, -bits)).  mpf.man_exp
    drops the sign (mpf(-3.5).man_exp is (7, -1)), so the raw tuple is read."""
    sign, man, exp, _ = x._mpf_
    return _div_round(-man if sign else man, 1, -exp - bits)


def _div_round(v, d, e):
    """The integer nearest v / (d 2^e), ties up, for integers v, d > 0 and e."""
    if e + d.bit_length() > v.bit_length() + 1:
        return 0  # |v| / (d 2^e) < 1/2, however far below: nothing to shift
    if e < 0:
        v <<= -e
    else:
        d <<= e
    return (2 * v + d) // (2 * d)


def _prabhakar_hp(alpha, beta, gamma_p, z, digits):
    """The mpmath mode of prabhakar, on Python integers.

    The coefficient (gamma)_n z^n / n! is carried as cm 2^ce with cm kept to
    about bits = working bits + _GUARD_BITS: each step multiplies by the exact
    rational z (gamma + n) / (n + 1) of the double inputs and floors once, a
    relative error of 2^(1-bits).  Each term, coefficient / mp.gamma(beta +
    alpha n), is rounded once to the scale 2^-bits of the first term.  After
    n steps that is at most n + 1 units of the scale and n 2^(1-bits) of the
    largest term, 2^-_GUARD_BITS of the n^2 eps of the largest term the bar
    charges.
    """
    import mpmath as mp

    # the terms peak near n = |z|^(1/alpha) / alpha at about exp(|z|^(1/alpha))
    ln_u = math.log(abs(z)) / alpha if z != 0.0 else -math.inf
    if ln_u > math.log(alpha * _HP_MAX_TERMS):
        raise ConvergenceError(
            f"high-precision series at z={z:g} peaks beyond {_HP_MAX_TERMS} terms"
        )
    work = digits + 10 + (math.ceil(math.exp(ln_u) / math.log(10.0)) if z < 0.0 else 0)
    # z (gamma + n) / (n + 1) = zn (gn + n gd) / ((n + 1) 2^shift), as zd and gd are powers of 2
    zn, zd = z.as_integer_ratio()
    gn, gd = gamma_p.as_integer_ratio()
    shift = (zd * gd).bit_length() - 1
    cut = 10 ** (digits + 5)
    for attempt in range(2):
        with mp.workdps(work):
            al, be = mp.mpf(alpha), mp.mpf(beta)
            bits = mp.mp.prec + _GUARD_BITS
            gm, ge = mp.gamma(be).man_exp
            scale = bits + ge + gm.bit_length()  # 1/Gamma(beta) 2^scale has bits bits
            cm, ce = 1 << bits, -bits
            total = largest = n = 0
            while True:
                term = _div_round(cm, gm, ge - ce - scale)
                total += term
                size = abs(term)
                largest = max(largest, size)
                if n > 4 and size * cut < abs(total):
                    break
                step = cm * zn * (gn + n * gd)
                drop = max(step.bit_length() - bits - n.bit_length() - 1, 0)
                cm = (step >> drop) // (n + 1)
                ce += drop - shift
                n += 1
                if n > _HP_MAX_TERMS:
                    raise ConvergenceError("high-precision Prabhakar series stalled")
                gm, ge = mp.gamma(be + al * n).man_exp
            total, largest, size = (mp.mpf((v, -scale)) for v in (total, largest, size))
            # term k carries about 4k roundings from its coefficient and
            # x |ln x| from Gamma's argument x, each partial sum at most
            # n + 1 terms: bound them all by the largest term
            x = beta + alpha * n
            err = largest * mp.eps * (n + 1) * (5 * n + x * abs(math.log(x)) + 8) + size
            allowed = abs(total) * mp.mpf(10) ** (-digits)
            if err <= allowed:
                value = float(total)
                if math.isinf(value):
                    raise SeriesOverflowError(f"E^g_ab({z:g}) overflows double; use prabhakar_ln")
                bar = math.nextafter(float(err + abs(total - value)), math.inf)  # rounded up
                return SeriesEval(value, bar, n + 1, "series-hp")
            # an infinite bound (Gamma's argument past the double range) fails at once
            if attempt or not mp.isfinite(err):
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
    alpha, beta, gamma_p = _prabhakar_params("prabhakar_ln", alpha, beta, gamma_p)
    z = real("prabhakar_ln requires z", z, 0.0, math.inf, "(]")
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
    ln_g = gamma_ln(beta)  # log Gamma(beta + alpha n), carried as in prabhakar
    ln_t = peak = -ln_g
    # online log-sum-exp against a running maximum, rescaled on promotion
    total = 1.0
    n_cap = int(min(3.0 * u / alpha + 256.0, _POS_MAX_TERMS))
    try:
        for n in range(n_cap):
            ln_prev, ln_g = ln_g, math.lgamma(beta + alpha * (n + 1))
            ln_t += ln_z + math.log(gamma_p + n) - math.log(n + 1.0) + ln_prev - ln_g
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
    except OverflowError:
        raise _gamma_overflow(alpha, beta) from None
    return peak + math.log(total)


# ---------------------------------------------------------------------------
# the decreasing kernel F and its inverse


def rho_root(a):
    """rho_a^(1/a) = Gamma(1/2 + 1/(2a)) Gamma(1 - 1/(2a)) / sqrt(pi), a > 1/2."""
    a = real("rho_root requires a", a, 0.5, math.inf, "(]")
    # for every a > 1/2, inf included, the arguments lie in [1/2, 3/2) and
    # (0, 1]: gamma_ln's domain check would pass both
    return math.exp(
        math.lgamma(0.5 + 0.5 / a) + math.lgamma(1.0 - 0.5 / a) - 0.5 * math.log(math.pi)
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
    return value / a, err / a + 4 * _EPS * abs(value / a), 15, "quadrature"


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
    h, h_bar, terms, _ = _hyp2f1(0.5, b, b + 1.0, -1.0 / (z * z))
    scale = z ** (-1.0 - 1.0 / a) / (a + 1.0)
    err = scale * (h_bar + 4 * _EPS * abs(h))
    return scale * h, err, terms, "series"


def _f_hyp(a, z, rr=None):
    # rr = rho_root(a), which f_inverse takes once for all its evaluations
    if rr is None:
        rr = rho_root(a)
    # c lies in (0, 1/2) for a in (1/2, 1), so _hyp2f1 needs no check
    c = 1.0 - 0.5 / a
    h, h_bar, terms, _ = _hyp2f1(0.5, -0.5 / a, c, -z * z)
    scale = z ** (-1.0 / a)
    value = -rr + scale * h
    # c is rounded by about eps, a relative error eps/c in both terms,
    # which grow like 1/c and cancel as a -> 1/2
    err = scale * h_bar + 4 * _EPS * (scale * abs(h) + rr) * (1.0 + 1.0 / c)
    return value, err, terms, "hypergeometric"


def _f_auto(a, z, rr=None):
    """f_eval's auto branch on checked floats, as (value, bar, terms, method);
    rr is rho_root(a) where the caller has it."""
    # z^(-1/a) - rho^(1/a) < F(z) < z^(-1/a) (see f_inverse), so F is past
    # the double range exactly when z^(-1/a) is, up to a unit roundoff
    _f_in_range(a, z)
    primary = _f_series(a, z) if z > 1.1 else _f_hyp(a, z, rr)
    if 1.02 <= z <= 1.2:
        value, bar = primary[:2]
        other, other_bar = (_f_hyp(a, z, rr) if z > 1.1 else _f_series(a, z))[:2]
        if abs(value - other) > bar + other_bar:
            raise ConsistencyError(
                f"F regimes disagree at a={a:g}, z={z:g}: {value!r} vs {other!r}"
            )
    return primary


def _f_in_range(a, z):
    try:
        z ** (-1.0 / a)
    except OverflowError:
        raise SeriesOverflowError(f"F({z:g}) at a={a:g} exceeds the double range") from None


_F_METHODS = {"series": _f_series, "hypergeometric": _f_hyp, "quadrature": _f_quadrature}


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
    a = real("f_eval requires a", a, 0.5, 1.0)
    z = real("f_eval requires z", z, 0.0, math.inf, "(]")
    if method == "auto":
        return SeriesEval(*_f_auto(a, z))
    kernel = _F_METHODS.get(method)
    if kernel is None:
        raise DomainError(f"unknown f_eval method {method!r}")
    _f_in_range(a, z)
    return SeriesEval(*kernel(a, z))


def _f_slope(a, z):
    return -(1.0 / a) * z ** (-1.0 - 1.0 / a) / math.sqrt(1.0 + z * z)


def f_derivative(a, z):
    """Exact derivative F'(z) = -(1/a) z^(-1-1/a) / sqrt(1+z^2), a in (1/2, 1), z > 0."""
    a = real("f_derivative requires a", a, 0.5, 1.0)
    z = real("f_derivative requires z", z, 0.0, math.inf, "(]")
    return _f_slope(a, z)


def _upper(base, power):
    """base^power as an upper bracket end, or inf, which bounds nothing,
    where it or its base leaves the double range (base^power would read 0)."""
    try:
        return base**power if base < math.inf else math.inf
    except OverflowError:
        return math.inf


# F rounds up to about 1e-13 relative (the rounding of 1/a, times ln y) near
# the double max, so at some a it overflows at the root of the largest y;
# f_inverse aims no higher than this, 1e-12 below
_F_TOP = (1.0 - 1e-12) * sys.float_info.max


def f_inverse(a, y):
    """The unique x > 0 with F(x) = y, for finite y > 0.

    Safeguarded Newton with the exact derivative inside a proven bracket.
    The target residual |F(x) - y| is 50 ulps of max(1, y).  Away from
    a = 1/2 it takes few evaluations of F: at most 8 over 200 y spaced
    geometrically on [0.01, 100] at each a in {0.51, 0.55, 0.6, 0.75, 0.9,
    0.99}, but 102 at a = 0.501 (ROADMAP.md, item 10).  Where F cannot be
    resolved that finely, the best point seen is returned if it meets the
    contract |F(x) - y| <= 1e-11 * max(1, y), and the error is raised
    otherwise.  That happens for a within about 1e-3 of 1/2, where the
    ascending form cancels (ConvergenceError), and for y from 1e47 to 1e245
    on, depending on a, where the bracket is one double wide and F's
    rounding, 1.1e-14 to 7.2e-14 relative, exceeds 50 ulps
    (BracketingError).  For a at least 1e-5 above 1/2, every finite y > 0
    gives a value.
    """
    a = real("f_inverse requires a", a, 0.5, 1.0)
    y = real("f_inverse requires y", y, 0.0, math.inf)
    target = min(y, _F_TOP)
    # z^(-1/a) - rho^(1/a) < F(z) < min(z^(-1/a), z^(-1-1/a)/(a+1)): bound
    # (1+u^2)^(-1/2) by 1 and by 1/u; the left side is the rho_integral identity
    rr = rho_root(a)
    lo = (target + rr) ** (-a)
    hi = min(_upper((a + 1.0) * target, -a / (a + 1.0)), _upper(target, -a))

    best = [lo, math.inf]

    def fres(x):
        value = _f_auto(a, x, rr)[0]
        if abs(value - y) < best[1]:
            best[:] = [x, abs(value - y)]
        return value - target

    try:
        return bisect_newton(fres, lambda x: _f_slope(a, x), lo, hi, 50.0 * _EPS * max(1.0, y))
    except (ConvergenceError, BracketingError):
        # F rounds above 50 ulps: the best point seen may still meet the contract
        if best[1] <= 1e-11 * max(1.0, y):
            return best[0]
        raise
