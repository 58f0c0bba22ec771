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

import math
from dataclasses import dataclass

import numpy as np

from .errors import CancellationError, SeriesOverflowError
from .moments import moment_sequence, rho
from .specfun import _EPS, _LOG_MAX, _check_cancellation, f_eval, f_inverse, gamma_ln, rho_root

_H_FIRST = _EPS ** (1.0 / 3.0)
_H_SECOND = _EPS**0.25

# double-precision cap for negative arguments, in units of rho_a
_NEG_CAP_DOUBLE = 30.0
_NEG_CAP_HP = 200.0


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

    r_sys is the larger-magnitude line of the even/odd system.  The *_rel
    fields divide by the largest constituent term of each equation, which
    is the scale the finite-difference error lives on.
    """

    r_m: float
    r_sys: float
    r_b: float
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

    side: str
    prefactor: float
    power: float
    stretch: float
    stretch_power: float
    q: float | None = None


def genfun(a, x):
    """G, A, B and M at x in (0, 1/rho_a)."""
    r = rho(a)
    if not (0.0 < x < 1.0 / r - 1e-12):
        raise ValueError(f"genfun requires 0 < x < 1/rho - 1e-12, got x={x!r}")
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
    r_sys = r_even if abs(r_even) >= abs(r_odd) else r_odd

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
        r_sys=r_sys,
        r_b=r_b,
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
    n_max = len(ln_b) - 1
    ns = np.arange(n_max + 1, dtype=float)
    if u == 0.0:
        b1 = math.exp(ln_b[1]) if n_max >= 1 else 0.0
        b2 = math.exp(ln_b[2]) if n_max >= 2 else 0.0
        return 1.0, b1, 2.0 * b2, 0.0, _EPS
    au = abs(u)
    ln_t = ln_b + ns * math.log(au)
    peak = float(ln_t.max())
    if peak > _LOG_MAX:
        raise SeriesOverflowError(
            f"psi_mgf series at u={u:g}: its largest term exp({peak:.1f}) overflows double"
        )
    mag = np.exp(ln_t - peak)
    if u > 0.0:
        s0 = s1 = s2 = 1.0
        sign = np.ones(n_max + 1)
    else:
        sign = np.where(ns % 2 == 0, 1.0, -1.0)  # sign of u^n
        s0, s1, s2 = 1.0, -1.0, 1.0  # u^(n-1), u^(n-2) shift the pattern
    w0 = float(np.dot(mag, sign)) * s0
    w1 = float(np.dot(mag[1:] * ns[1:], sign[1:])) / au * s1
    w2 = float(np.dot(mag[2:] * ns[2:] * (ns[2:] - 1.0), sign[2:])) / (au * au) * s2
    scale = math.exp(peak)
    omitted = float(mag[-1]) * scale
    loss = _EPS * float(np.dot(mag, ln_size + ns * abs(math.log(au)))) * scale
    return w0 * scale, w1 * scale, w2 * scale, omitted, loss


def psi_mgf(a, r, precision_digits=0):
    """Psi, omega, xi, eta at r.

    Positive r is capped by double overflow of exp((rho r)^(1/a));
    negative r is capped at 30 rho_a in double precision (less where the
    largest series term overflows, SeriesOverflowError) and 200 rho_a in
    the high-precision mode (precision_digits > 0, mpmath; cost grows
    quadratically with the series length needed).  On the negative axis
    Psi and omega must each keep their own cancellation loss within
    1e-6 of their own value (CancellationError otherwise).
    """
    rh = rho(a)
    if r > 0.0 and (rh * r) ** (1.0 / a) > 700.0:
        raise SeriesOverflowError(
            f"Psi({r:g}) at a={a:g} overflows double precision"
        )
    if r < 0.0:
        cap = (_NEG_CAP_HP if precision_digits > 0 else _NEG_CAP_DOUBLE) * rh
        if abs(r) > cap:
            raise CancellationError(
                f"psi_mgf at r={r:g} is beyond the cap {cap:g} "
                f"({'high-precision' if precision_digits > 0 else 'double'} mode)"
            )
    peak = (rh * abs(r)) ** (1.0 / a) / a if r != 0.0 else 8.0
    n_max = int(3.0 * peak + 256)
    if precision_digits > 0:
        return _psi_mgf_hp(a, r, precision_digits, n_max)

    ln_s = np.log(moment_sequence(a, n_max).scaled)
    ln_g = np.array([gamma_ln(1.0 + a * n) for n in range(n_max + 1)])
    # each term carries its own rounding, plus that of the three logarithms
    # it is built from (ln m_n, ln Gamma(1+an), n ln|u|), eps times their size
    ln_size = 1.0 + np.abs(ln_s) + np.abs(ln_g)
    ln_b = ln_s - ln_g
    psi, _, _, om_psi, loss_psi = _omega_sums(ln_b, ln_size, rh * r)
    w0, w1, w2, om_w, loss_w = _omega_sums(ln_b, ln_size, r)
    if r < 0.0:
        _check_cancellation(psi, loss_psi, f"psi_mgf Psi at r={r:g}")
        _check_cancellation(w0, loss_w, f"psi_mgf omega at r={r:g}")
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


def _psi_mgf_hp(a, r, digits, n_max):
    import mpmath as mp

    with mp.workdps(digits + 10):
        aa = mp.mpf(a)
        rho_mp = ((mp.gamma(mp.mpf(1) / 2 + 1 / (2 * aa)) * mp.gamma(1 - 1 / (2 * aa)))
                  / mp.sqrt(mp.pi)) ** aa
        mt = _moments_hp(aa, rho_mp, n_max)
        rr = mp.mpf(r)
        gam = [mp.gamma(1 + aa * n) for n in range(n_max + 1)]
        b = [mt[n] / gam[n] for n in range(n_max + 1)]
        psi = mp.fsum(b[n] * (rho_mp * rr) ** n for n in range(n_max + 1))
        w0 = mp.fsum(b[n] * rr**n for n in range(n_max + 1))
        w1 = mp.fsum(n * b[n] * rr ** (n - 1) for n in range(1, n_max + 1))
        w2 = mp.fsum(n * (n - 1) * b[n] * rr ** (n - 2) for n in range(2, n_max + 1))
        xi = -w1 / w0
        eta2 = w2 / w0 - xi * xi
        eta = mp.sqrt(eta2) if eta2 > 0 else mp.mpf(0)
        tol = mp.mpf(10) ** (-digits + 2)
        return MgfValue(
            r=r, psi=float(psi), omega=float(w0), xi=float(xi), eta=float(eta),
            error_estimate=float(abs(psi) * tol), omega_error_estimate=float(abs(w0) * tol),
        )


def _moments_hp(aa, rho_mp, n_max):
    """rho-scaled moments m_0..m_n_max at the working mpmath precision:
    the recurrence of moments.moment_sequence,
    m_n = sum_{i=1}^{n-1} c_i m_i m_{n-i} / (n a - c_n), c_i = 1 for even i
    and a for odd i, with the terms i and n - i paired.  For odd n their
    factors add to 1 + a; for even n they are equal, and the middle term
    appears once.  Each half is one mp.fdot."""
    import mpmath as mp

    mt = [mp.mpf(1), 1 / rho_mp]
    cm = [mt[0], aa * mt[1]]  # c_i m_i
    for n in range(2, n_max + 1):
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
    return mt


def eta_asymptote(a, r):
    """Leading form sqrt(1-a) r^(1/(2a)-1) / a of the tilted standard
    deviation; the same form holds on both half-axes."""
    if not (r > 0.0):
        raise ValueError("eta_asymptote requires r > 0")
    return math.sqrt(1.0 - a) * r ** (1.0 / (2.0 * a) - 1.0) / a


# ---------------------------------------------------------------------------
# tail asymptotes


def asymptote(ctx, side, q=None):
    """TailAsymptote record for one side.

    q is the first-step parameter q_first; None and 1 give the unmixed
    records and 0 gives them with the sides swapped.  For 0 < q < 1 both
    sides use the positive-side shape weighted q and 1-q: a mixed first
    step puts a reflected copy of the heavy tail on the negative axis,
    which dominates the q_first = 1 negative tail.
    """
    if q is not None and not 0.0 <= q <= 1.0:
        raise ValueError(f"first-step parameter q must be in [0, 1], got {q!r}")
    if q == 0.0 and side in ("positive", "negative"):
        return asymptote(ctx, "negative" if side == "positive" else "positive")
    if q == 1.0:
        q = None
    a = ctx.a
    stretch = (1.0 - a) * (a**a / ctx.rho) ** (1.0 / (1.0 - a))
    stretch_power = 1.0 / (1.0 - a)
    pos_power = (2.0 * a - 1.0) / (2.0 * (1.0 - a))
    if side == "positive":
        pref = ctx.c_pos if q is None else q * ctx.c_pos
        return TailAsymptote("positive" if q is None else "q-mix", pref, pos_power, stretch, stretch_power, q)
    if side == "negative":
        if q is None:
            neg_power = (2.0 * a * a - 3.0 * a - 1.0) / (2.0 * (1.0 - a * a))
            return TailAsymptote("negative", ctx.c_neg, neg_power, stretch, stretch_power)
        return TailAsymptote("q-mix", (1.0 - q) * ctx.c_pos, pos_power, stretch, stretch_power, q)
    raise ValueError(f"unknown side {side!r}")


def tail(ctx, x, side, q=None, log=False):
    """Density asymptote at x > 0 on the requested side, evaluated in log
    space; log=True returns the log value (-inf instead of silent 0).
    Where x^stretch_power overflows (a near 1) the value reads -inf, or 0
    with log=False; a value above the double range raises
    SeriesOverflowError unless log=True."""
    if not (x > 0.0):
        raise ValueError("tail requires x > 0")
    rec = asymptote(ctx, side, q)
    try:
        stretched = x**rec.stretch_power
    except OverflowError:
        return float("-inf") if log else 0.0
    ln = math.log(rec.prefactor) + rec.power * math.log(x) - rec.stretch * stretched
    if log:
        return ln
    try:
        return math.exp(ln) if ln > -745.0 else 0.0
    except OverflowError:
        raise SeriesOverflowError(f"tail {side} at a={ctx.a!r}, x={x!r} overflows") from None


def tail_ratio(ctx, x):
    """Closed-form ratio tail_pos/tail_neg = const * x^(2a/(1-a^2)),
    evaluated independently of the two prefactors (the stretch terms
    cancel); SeriesOverflowError where x^(2a/(1-a^2)) overflows."""
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
