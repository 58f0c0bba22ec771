"""Closed-form generating functions of the limit law and its tail laws.

For x in (0, 1/rho_a) the moment generating series M(x) = sum m_n x^n has
the closed form

    M = (G/x)^(1/a) (G + sqrt(1+G^2)),   G(x) = F^(-1)(x^(-1/a) - rho_a^(1/a)),

with even/odd parts A = (G/x)^(1/a) sqrt(1+G^2) and B = x (G/x)^((a+1)/a).
``residuals`` checks these values against the defining delay ODE, the
even/odd system, the autonomous ODE for B and the implicit equation, with
derivatives taken by central differences so the check stays independent
of the closed form's own derivative chain.

``psi_mgf`` sums the exponential generating function Psi(r) =
sum E[L^n] r^n / n! (termwise E[L^n]/n! = m_n / Gamma(1+an)) and the
tilted-law functionals omega, xi, eta used by the tail analysis;
``tail`` evaluates the stretched-exponential density asymptotes.
"""

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import CancellationError, ConvergenceError, SeriesOverflowError
from .moments import moment_sequence, rho
from .specfun import _EPS, _LOG_MAX, _check_cancellation, f_eval, f_inverse, gamma_ln, rho_root

_H_FIRST = _EPS ** (1.0 / 3.0)
_H_SECOND = _EPS**0.25

# ln of the largest u = (rho_a |r|)^(1/a): the largest term, >= exp(u - 4.6), overflows beyond
_LN_U_MAX = math.log(_LOG_MAX + 20.0)


@dataclass(frozen=True)
class GenFunValue:
    """Generating-function values at one x: g = G(x), b = B(x) (odd part),
    a_even = A(x) (even part), m = A + B."""

    x: float
    g: float
    b: float
    a_even: float
    m: float


@dataclass(frozen=True)
class Residuals:
    """Defining-equation residuals at one x.

    The *_rel fields divide by the largest constituent term of each
    equation, which is the scale the finite-difference error lives on;
    r_sys_rel is that of the larger-magnitude line of the even/odd system.
    """

    r_m: float
    r_imp: float
    r_m_rel: float
    r_sys_rel: float
    r_b_rel: float


@dataclass(frozen=True)
class MgfValue:
    """Psi(r), omega(r) = Psi(r/rho_a), xi = -omega'/omega and
    eta = sqrt(omega''/omega - xi^2), with one absolute summation error
    estimate per sum: error_estimate for psi, omega_error_estimate for
    omega (on the negative axis |omega| can be far below |psi|).

    Derivatives are taken at the evaluation point; on the negative axis
    xi comes out positive (the tilt favours the opposite tail)."""

    r: float
    psi: float
    omega: float
    xi: float
    eta: float
    error_estimate: float
    omega_error_estimate: float


@dataclass(frozen=True)
class TailAsymptote:
    """Density asymptote prefactor * x^power * exp(-stretch * x^stretch_power)."""

    prefactor: float
    power: float
    stretch: float
    stretch_power: float


def genfun(a, x):
    """G, A, B and M at x in (0, 1/rho_a)."""
    r = rho(a)
    if not (0.0 < x < 1.0 / r - 1e-12):
        raise ValueError(f"genfun requires 0 < x < 1/rho - 1e-12, got x={x!r}")
    a, x = float(a), float(x)
    g = f_inverse(a, x ** (-1.0 / a) - rho_root(a))
    ratio = g / x
    b = x * ratio ** ((a + 1.0) / a)
    a_even = ratio ** (1.0 / a) * math.sqrt(1.0 + g * g)
    return GenFunValue(x=x, g=g, b=b, a_even=a_even, m=a_even + b)


def residuals(a, x, h_scale=1.0):
    """Residuals of the four defining equations at x in (0, 0.95/rho_a).

    Central differences use steps eps^(1/3) x (first derivative) and
    eps^(1/4) x (second); h_scale multiplies both so O(h^2) decay can be
    observed above the roundoff floor.
    """
    r = rho(a)
    if not (0.0 < x < 0.95 / r):
        raise ValueError(f"residuals requires 0 < x < 0.95/rho, got x={x!r}")
    if not (h_scale > 0.0):
        raise ValueError(f"residuals requires h_scale > 0, got {h_scale!r}")
    a, x, h_scale = float(a), float(x), float(h_scale)
    p = (1.0 + a) / 2.0
    h1 = _H_FIRST * x * h_scale
    h2 = _H_SECOND * x * h_scale
    g0 = genfun(a, x)
    gp1 = genfun(a, x + h1)
    gm1 = genfun(a, x - h1)
    gp2 = genfun(a, x + h2)
    gm2 = genfun(a, x - h2)

    m_prime = (gp1.m - gm1.m) / (2.0 * h1)
    a_prime = (gp1.a_even - gm1.a_even) / (2.0 * h1)
    b_prime = (gp1.b - gm1.b) / (2.0 * h1)
    b_second = (gp2.b - 2.0 * g0.b + gm2.b) / (h2 * h2)

    m_neg = g0.a_even - g0.b  # M(-x) from the even/odd decomposition
    terms_m = (g0.m, a * x * m_prime, -p * g0.m**2, -(1.0 - p) * g0.m * m_neg)
    r_m = math.fsum(terms_m)
    scale_m = max(abs(t) for t in terms_m)

    terms_even = (
        g0.a_even,
        a * x * a_prime,
        -p * (g0.a_even**2 + g0.b**2),
        -(1.0 - p) * (g0.a_even**2 - g0.b**2),
    )
    terms_odd = (g0.b, a * x * b_prime, -2.0 * p * g0.a_even * g0.b)
    r_even = math.fsum(terms_even)
    r_odd = math.fsum(terms_odd)
    scale_sys = max(max(abs(t) for t in terms_even), max(abs(t) for t in terms_odd))

    terms_b = (
        a * (a + 1.0) * x * x * g0.b * b_second,
        -a * (a + 2.0) * x * x * b_prime**2,
        x * ((a + 1.0) ** 2 - 2.0) * g0.b * b_prime,
        -((a + 1.0) ** 2) * g0.b**4,
        g0.b**2,
    )
    r_b = math.fsum(terms_b)
    scale_b = max(abs(t) for t in terms_b)

    inv_a = 1.0 / a
    arg = (x**inv_a * g0.b) ** (a / (a + 1.0))
    r_imp = x**inv_a * f_eval(a, arg).value + (r * x) ** inv_a - 1.0

    return Residuals(
        r_m=r_m,
        r_imp=r_imp,
        r_m_rel=abs(r_m) / scale_m,
        r_sys_rel=max(abs(r_even), abs(r_odd)) / scale_sys,
        r_b_rel=abs(r_b) / scale_b,
    )


# ---------------------------------------------------------------------------
# exponential generating function and tilted-law functionals


def _omega_sums(ln_b, ln_size, u):
    """(omega, omega', omega'', first_omitted, cancellation_loss) for
    omega(u) = sum b_n u^n, given ln b_n and the per-term log sizes,
    summed with a factored maximum so intermediate magnitudes stay
    representable."""
    ns = np.arange(len(ln_b), dtype=float)
    au = abs(u)
    # below |u| = 1e-100 every term past the first of each sum is below
    # 1e-90 of it, so the sums round to their values at u = 0; the factored
    # sums would divide terms that left the normal range by u^2
    if au < 1e-100:
        return 1.0, math.exp(ln_b[1]), 2.0 * math.exp(ln_b[2]), 0.0, _EPS
    ln_t = ln_b + ns * math.log(au)
    peak = float(ln_t.max())
    if peak > _LOG_MAX:
        raise SeriesOverflowError(
            f"psi_mgf series at u={u:g}: its largest term exp({peak:.1f}) overflows double"
        )
    mag = np.exp(ln_t - peak)
    # sign of u^n; dividing by u and u^2 turns it into that of u^(n-1), u^(n-2)
    sign = np.ones(len(ns)) if u > 0.0 else np.where(ns % 2 == 0, 1.0, -1.0)
    w0 = float(np.dot(mag, sign))
    w1 = float(np.dot(mag[1:] * ns[1:], sign[1:])) / u
    w2 = float(np.dot(mag[2:] * ns[2:] * (ns[2:] - 1.0), sign[2:])) / (u * u)
    scale = math.exp(peak)
    omitted = float(mag[-1]) * scale
    loss = _EPS * float(np.dot(mag, ln_size + ns * abs(math.log(au)))) * scale
    return w0 * scale, w1 * scale, w2 * scale, omitted, loss


def psi_mgf(a, r, precision_digits=0):
    """Psi, omega, xi, eta at r.

    With u = (rho_a |r|)^(1/a) the terms peak near n = u/a at about
    exp(u): SeriesOverflowError up front where u > 729, for every r != 0 in
    double precision and in the mpmath mode precision_digits > 0 alike, and
    wherever a sum leaves the double range.  For r < 0 in double precision
    Psi and omega must each keep their own measured cancellation loss
    within 1e-6 of their own value, CancellationError otherwise.  A NaN r or
    a negative precision_digits raises ValueError up front.
    """
    if math.isnan(r):
        raise ValueError("psi_mgf requires a number r, got nan")
    if precision_digits < 0:
        raise ValueError(f"psi_mgf requires precision_digits >= 0, got {precision_digits}")
    rh = rho(a)
    a, r = float(a), float(r)
    # u in logs, so that no power overflows before the test
    if r != 0.0 and math.log(rh * abs(r)) / a > _LN_U_MAX:
        raise SeriesOverflowError(f"Psi({r:g}) at a={a:g} overflows double precision")
    peak = (rh * abs(r)) ** (1.0 / a) / a if r != 0.0 else 8.0
    n_max = int(3.0 * peak + 256)
    if precision_digits > 0:
        return _psi_mgf_hp(a, r, precision_digits, n_max)

    ln_s = np.log(moment_sequence(a, n_max).scaled)
    # 1 + a n >= 1: gamma_ln's domain check would pass every term
    ln_g = np.array([math.lgamma(1.0 + a * n) for n in range(n_max + 1)])
    # each term carries its own rounding, plus that of the three logarithms
    # it is built from (ln m_n, ln Gamma(1+an), n ln|u|), eps times their size
    ln_size = 1.0 + np.abs(ln_s) + np.abs(ln_g)
    ln_b = ln_s - ln_g
    psi, _, _, om_psi, loss_psi = _omega_sums(ln_b, ln_size, rh * r)
    # the table m_n / rho^n carries about 1.6 n eps from rho's own rounding,
    # which Psi's rho r cancels and omega's r does not: charge omega 2 n eps
    ln_size_w = ln_size + 2.0 * np.arange(n_max + 1)
    w0, w1, w2, om_w, loss_w = _omega_sums(ln_b, ln_size_w, r)
    if r < 0.0:
        _check_cancellation(psi, loss_psi, f"psi_mgf Psi at r={r:g}")
        _check_cancellation(w0, loss_w, f"psi_mgf omega at r={r:g}")
    _check_finite(a, r, psi, w0, w1, w2)
    xi = -w1 / w0
    eta2 = w2 / w0 - xi * xi
    err_w = om_w + loss_w
    if eta2 < 0.0:
        budget = err_w / abs(w0) * (abs(w2 / w0) + xi * xi + 1.0)
        if eta2 < -budget:
            raise CancellationError(
                f"eta^2 = {eta2:.3e} is negative beyond the error budget at r={r:g}"
            )
        eta2 = 0.0
    return MgfValue(
        r=r, psi=psi, omega=w0, xi=xi, eta=math.sqrt(eta2),
        error_estimate=om_psi + loss_psi, omega_error_estimate=err_w,
    )


def _check_finite(a, r, *sums):
    if not all(math.isfinite(v) for v in sums):
        raise SeriesOverflowError(f"psi_mgf at r={r:g}, a={a:g}: a sum overflows double precision")


def _psi_mgf_hp(a, r, digits, n_max):
    """The sums of psi_mgf at digits + 10 digits in one pass over n, which stops past
    the later peak, (rho |r|)^(1/a)/a or |r|^(1/a)/a, at the first n where each term
    is at most 10^-(digits+10) of its own partial sum; ConvergenceError at n_max."""
    import mpmath as mp

    with mp.workdps(digits + 10):
        aa = mp.mpf(a)
        rho_mp = ((mp.gamma(mp.mpf(1) / 2 + 1 / (2 * aa)) * mp.gamma(1 - 1 / (2 * aa)))
                  / mp.sqrt(mp.pi)) ** aa
        rr = mp.mpf(r)
        x = rho_mp * rr
        n_peak = max(abs(x), abs(rr)) ** (1 / aa) / aa
        cut = mp.mpf(10) ** (-digits - 10)
        rows, partial = [], [0] * 4  # terms of Psi, omega, omega', omega''; their sums
        px, pr, pr1, pr2 = mp.mpf(1), mp.mpf(1), 0, 0  # (rho r)^n, r^n, r^(n-1), r^(n-2)
        for n, m in enumerate(_moments_hp(aa, rho_mp)):
            b = m / mp.gamma(1 + aa * n)
            rows.append((b * px, b * pr, n * b * pr1, n * (n - 1) * b * pr2))
            partial = [s + t for s, t in zip(partial, rows[-1])]
            if n > n_peak and all(abs(t) <= cut * abs(s) for t, s in zip(rows[-1], partial)):
                break
            if n == n_max:
                raise ConvergenceError(
                    f"psi_mgf({a:g}, {r:g}): no {digits}-digit cut by {n_max} terms")
            px, pr, pr1, pr2 = px * x, pr * rr, pr, pr1
        psi, w0, w1, w2 = (mp.fsum(col) for col in zip(*rows))
        _check_finite(a, r, *(float(v) for v in (psi, w0, w1, w2)))
        xi = -w1 / w0
        eta2 = w2 / w0 - xi * xi
        eta = mp.sqrt(eta2) if eta2 > 0 else mp.mpf(0)
        tol = mp.mpf(10) ** (-digits + 2)
        # each bar is the sum's own |sum| 10^(2-d) plus the rounding of the
        # sum to the returned double, half an ulp, and is rounded up
        psi_d, w0_d = float(psi), float(w0)
        return MgfValue(
            r=r, psi=psi_d, omega=w0_d, xi=float(xi), eta=float(eta),
            error_estimate=math.nextafter(float(abs(psi) * tol) + 0.5 * math.ulp(psi_d), math.inf),
            omega_error_estimate=math.nextafter(float(abs(w0) * tol) + 0.5 * math.ulp(w0_d), math.inf),
        )


def _moments_hp(aa, rho_mp):
    """rho-scaled moments m_0, m_1, ... at the working mpmath precision,
    one per step: the recurrence of moments.moment_sequence,
    m_n = sum_{i=1}^{n-1} c_i m_i m_{n-i} / (n a - c_n), c_i = 1 for even i
    and a for odd i, with the terms i and n - i paired.  For odd n their
    factors add to 1 + a; for even n they are equal, and the middle term
    appears once.  Each half is one mp.fdot."""
    import mpmath as mp

    mt = [mp.mpf(1), 1 / rho_mp]
    cm = [mt[0], aa * mt[1]]  # c_i m_i
    yield from mt
    for n in itertools.count(2):
        h = n // 2
        upper = mt[n - 1 : n - h - 1 : -1]  # m_{n-1} .. m_{n-h}
        if n % 2:
            cn = aa
            s = (1 + aa) * mp.fdot(mt[1 : h + 1], upper)
        else:
            cn = mp.mpf(1)
            s = 2 * mp.fdot(cm[1:h], upper[:-1]) + cm[h] * mt[h]
        mt.append(s / (n * aa - cn))
        cm.append(cn * mt[n])
        yield mt[n]


def eta_asymptote(a, r):
    """Leading form sqrt(1-a) r^(1/(2a)-1) / a of the tilted standard
    deviation; the same form holds on both half-axes."""
    if not (0.5 < a < 1.0):
        raise ValueError("eta_asymptote requires a in (1/2, 1)")
    if not (r > 0.0):
        raise ValueError("eta_asymptote requires r > 0")
    a, r = float(a), float(r)
    return math.sqrt(1.0 - a) * r ** (1.0 / (2.0 * a) - 1.0) / a


# ---------------------------------------------------------------------------
# tail asymptotes


def asymptote(ctx, side, q=1.0):
    """TailAsymptote record for side "positive" or "negative".

    q is the first-step parameter q_first.  It gives L's heavy (positive)
    tail weight q on the positive side and 1 - q, reflected, on the
    negative side.  A side of weight w > 0 carries w times the heavy
    tail; a side of weight 0 carries the unmixed law's light tail.
    """
    if side not in ("positive", "negative"):
        raise ValueError(f"unknown side {side!r}")
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"first-step parameter q must be in [0, 1], got {q!r}")
    q = float(q)
    a = ctx.a
    stretch = (1.0 - a) * (a**a / ctx.rho) ** (1.0 / (1.0 - a))
    stretch_power = 1.0 / (1.0 - a)
    heavy = q if side == "positive" else 1.0 - q
    if heavy > 0.0:
        pref, power = heavy * ctx.c_pos, (2.0 * a - 1.0) / (2.0 * (1.0 - a))
    else:
        pref, power = ctx.c_neg, (2.0 * a * a - 3.0 * a - 1.0) / (2.0 * (1.0 - a * a))
    return TailAsymptote(pref, power, stretch, stretch_power)


def _check_x(what, x):
    if not (math.isfinite(x) and x > 0.0):
        raise ValueError(f"{what} requires a finite x > 0, got {x!r}")


def tail(ctx, x, side, q=1.0, log=False):
    """Density asymptote at finite x > 0 on the requested side, evaluated
    in log space; log=True returns the log value (-inf instead of silent
    0).  Where x^stretch_power overflows (a near 1) the value reads -inf,
    or 0 with log=False; a value above the double range raises
    SeriesOverflowError unless log=True."""
    _check_x("tail", x)
    x = float(x)
    rec = asymptote(ctx, side, q)
    try:
        stretched = x**rec.stretch_power
    except OverflowError:
        return float("-inf") if log else 0.0
    ln = math.log(rec.prefactor) + rec.power * math.log(x) - rec.stretch * stretched
    if log:
        return ln
    try:
        return math.exp(ln)
    except OverflowError:
        raise SeriesOverflowError(f"tail {side} at a={ctx.a!r}, x={x!r} overflows") from None


def tail_ratio(ctx, x):
    """Closed-form ratio tail_pos/tail_neg = const * x^(2a/(1-a^2)),
    evaluated independently of the two prefactors (the stretch terms
    cancel); SeriesOverflowError where x^(2a/(1-a^2)) overflows."""
    _check_x("tail_ratio", x)
    x = float(x)
    a = ctx.a
    power = 2.0 * a / (1.0 - a * a)
    const = (
        4.0
        * math.exp(gamma_ln(ctx.delta))
        / (a + 1.0) ** (2.0 * a / (1.0 + a))
        * (a / ctx.rho ** (1.0 / a)) ** power
    )
    try:
        return const * x**power
    except OverflowError:
        raise SeriesOverflowError(f"tail ratio overflows at a={a!r}, x={x!r}") from None
