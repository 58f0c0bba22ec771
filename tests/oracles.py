"""Test references, each defined once, and the one rule for error bars: an
mpmath reference is unrounded, at REF_DIGITS digits unless it says otherwise."""

import dataclasses
import itertools
import math

import mpmath as mp
import numpy as np

from erwlab import limitlaw, moments, specfun, walk
from erwlab.errors import CancellationError, ConvergenceError, SeriesOverflowError

REF_DIGITS = 60


def assert_within_bar(value, bar, ref):
    """The bar rule: |value - ref| <= bar, with ref exact to REF_DIGITS."""
    with mp.workdps(REF_DIGITS):
        assert abs(mp.mpf(value) - ref) <= bar, (value, bar, ref)


def prabhakar(alpha, beta, gamma_p, z, dps=REF_DIGITS):
    """E^gamma_{alpha,beta}(z) = sum (gamma)_n z^n / (n! Gamma(beta + alpha n)) to
    dps digits; E_alpha(z) is (alpha, 1, 1, z).  The sum stops past its largest
    term, at the first below 10^-dps of the partial sum, and is taken again
    until the working digits cover the digits that term cancels."""
    lost, work = 0, 0
    while work < dps + 10 + lost:
        work = dps + 10 + lost
        with mp.workdps(work):
            al, be, ga, zz = (mp.mpf(x) for x in (alpha, beta, gamma_p, z))
            coef, total, largest = mp.mpf(1), mp.mpf(0), mp.mpf(0)
            for n in itertools.count():
                term = coef / mp.gamma(be + al * n)
                total, largest = total + term, max(largest, abs(term))
                if abs(term) < largest and abs(term) <= mp.mpf(10) ** -dps * abs(total):
                    break
                coef *= zz * (ga + n) / (n + 1)
            lost = int(mp.ceil(mp.log10(largest / abs(total))))
    return total


def prabhakar_hp_reference(alpha, beta, gamma_p, z, digits):
    """SeriesEval of prabhakar(alpha, beta, gamma_p, z, precision_digits=digits), or its
    typed error, summed term by term in mpf: the former loop of specfun._prabhakar_hp,
    kept as the oracle for its fixed-point form."""
    ln_u = math.log(abs(z)) / alpha if z != 0.0 else -math.inf
    if ln_u > math.log(alpha * specfun._HP_MAX_TERMS):
        raise ConvergenceError(f"high-precision series at z={z:g} peaks beyond the cap")
    work = digits + 10 + (math.ceil(math.exp(ln_u) / math.log(10.0)) if z < 0.0 else 0)
    for attempt in range(2):
        with mp.workdps(work):
            al, be, ga, zz = mp.mpf(alpha), mp.mpf(beta), mp.mpf(gamma_p), mp.mpf(z)
            cut = mp.mpf(10) ** (-(digits + 5))
            coef = mp.mpf(1)
            total = largest = mp.mpf(0)
            n = 0
            while True:
                term = coef / mp.gamma(be + al * n)
                total += term
                size = abs(term)
                largest = max(largest, size)
                if n > 4 and size < cut * abs(total):
                    break
                coef *= zz * (ga + n) / (n + 1)
                n += 1
                if n > specfun._HP_MAX_TERMS:
                    raise ConvergenceError("high-precision Prabhakar series stalled")
            x = beta + alpha * n
            err = largest * mp.eps * (n + 1) * (5 * n + x * abs(math.log(x)) + 8) + size
            allowed = abs(total) * mp.mpf(10) ** (-digits)
            if err <= allowed:
                value = float(total)
                if math.isinf(value):
                    raise SeriesOverflowError(f"E^g_ab({z:g}) overflows double")
                bar = math.nextafter(float(err + abs(total - value)), math.inf)
                return specfun.SeriesEval(value, bar, n + 1, "series-hp")
            if attempt or not mp.isfinite(err):
                raise CancellationError(f"high-precision series at z={z:g} misses its digits")
            work += math.ceil(mp.log10(err / allowed)) + 2


def rho(a, dps=40):
    """rho_a = (Gamma(1/2 + 1/(2a)) Gamma(1 - 1/(2a)) / sqrt(pi))^a at dps digits."""
    with mp.workdps(dps):
        aa = mp.mpf(a)
        return ((mp.gamma(mp.mpf(1) / 2 + 1 / (2 * aa)) * mp.gamma(1 - 1 / (2 * aa)))
                / mp.sqrt(mp.pi)) ** aa


def hyp2f1(alpha, beta, gamma_c, z, dps=REF_DIGITS):
    """2F1(alpha, beta; gamma_c; z) for real z < 1 by mp.hyp2f1 at dps digits.
    Left of z = -1/2 it takes the Pfaff transform exactly, (1 - z)^(-alpha)
    2F1(alpha, gamma_c - beta; gamma_c; z/(z - 1)): mpmath's own 1/z transform
    resolves Gamma poles at alpha = beta to thousands of bits there (5 s at
    alpha = -1.1e-308, beta = -2.7e-247, z = -12.2).  zeroprec lets mpmath
    return 0 at exact zeros such as (4, 4; 1; -1), where it fails otherwise."""
    with mp.workdps(dps):
        al, be, ga, zz = (mp.mpf(x) for x in (alpha, beta, gamma_c, z))
        zeroprec = 4 * mp.mp.prec
        if zz >= -0.5:
            return mp.hyp2f1(al, be, ga, zz, zeroprec=zeroprec)
        return (1 - zz) ** -al * mp.hyp2f1(al, ga - be, ga, zz / (zz - 1), zeroprec=zeroprec)


def f_kernel(a, z, dps=40):
    """F(z) = z^(-1-1/a)/(a+1) 2F1(1/2, 1/2+1/(2a); 3/2+1/(2a); -1/z^2)."""
    with mp.workdps(dps):
        aa, zz = mp.mpf(a), mp.mpf(z)
        b = mp.mpf(1) / 2 + 1 / (2 * aa)
        return zz ** (-1 - 1 / aa) / (aa + 1) * mp.hyp2f1(mp.mpf(1) / 2, b, b + 1, -1 / zz**2)


def walk_moments(a, n, q_first=1.0, dps=30):
    """(E[S_n], E[S_n^2]) for a = 2p - 1 (Bercu, J. Phys. A 51 (2018) 015201):
    E[S_n] = (2 q_first - 1) Gamma(n + a) / (Gamma(n) Gamma(1 + a)) and, for
    every q_first, E[S_{k+1}^2] = (1 + 2a/k) E[S_k^2] + 1, E[S_1^2] = 1."""
    with mp.workdps(dps):
        aa = mp.mpf(a)
        mean = (2 * mp.mpf(q_first) - 1) * mp.gamma(n + aa) / (mp.gamma(n) * mp.gamma(1 + aa))
        second = mp.mpf(1)
        for k in range(1, n):
            second = (1 + 2 * aa / k) * second + 1
        return mean, second


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


def moment_sequence_reference(a, n_max):
    """rho-scaled moments m_0 .. m_n_max in doubles, each step one np.dot of
    c_i m_i with m_{n-1} .. m_1 read through a negative-stride view, or
    beyond 10 000 terms the left-to-right sum of np.dots over chunks of at
    most 10 000 terms, the longest dot OpenBLAS sums on one thread: the
    former loop of moments.moment_sequence, kept as the oracle for its
    last-first table."""
    mt = np.zeros(n_max + 1)
    mt[0] = 1.0
    mt[1] = 1.0 / moments.rho(a)
    c = np.where(np.arange(n_max + 1) % 2 == 0, 1.0, a)
    cm = c * mt
    for n in range(2, n_max + 1):
        s = 0.0
        for i in range(1, n, 10_000):
            j = min(i + 10_000, n)
            s += np.dot(cm[i:j], mt[n - i:n - j:-1])
        mt[n] = s / (n * a - c[n])
        cm[n] = c[n] * mt[n]
    return mt


def moments_hp_reference(aa, rho_mp, n_max):
    """rho-scaled moments by the unpaired convolution, one fsum over all
    n - 1 products c_i m_i m_{n-i}: the former loop of
    limitlaw._psi_mgf_hp, kept as the oracle for its paired form."""
    mt = [mp.mpf(1), 1 / rho_mp]
    c = [mp.mpf(1), aa]
    for n in range(2, n_max + 1):
        cn = mp.mpf(1) if n % 2 == 0 else aa
        s = mp.fsum(c[i] * mt[i] * mt[n - i] for i in range(1, n))
        mt.append(s / (n * aa - cn))
        c.append(cn)
    return mt


def psi_mgf_sums(a, r, digits):
    """Psi, omega, omega' and omega'' at r, unrounded at digits + 10 digits, from
    every term up to n_max = 3 peak + 256, one fsum per sum: the former
    full-length loop of limitlaw._psi_mgf_hp, kept as the oracle for its cut form."""
    peak = (moments.rho(a) * abs(r)) ** (1.0 / a) / a if r != 0.0 else 8.0
    n_max = int(3.0 * peak + 256)
    with mp.workdps(digits + 10):
        aa = mp.mpf(a)
        rho_mp = rho(a, digits + 10)
        bits = mp.mp.prec + specfun._GUARD_BITS
        mt = [mp.mpf((m, -bits)) for m in itertools.islice(limitlaw._moments_hp(a, rho_mp, bits), n_max + 1)]
        rr = mp.mpf(r)
        b = [mt[n] / mp.gamma(1 + aa * n) for n in range(n_max + 1)]
        psi = mp.fsum(b[n] * (rho_mp * rr) ** n for n in range(n_max + 1))
        w0 = mp.fsum(b[n] * rr**n for n in range(n_max + 1))
        w1 = mp.fsum(n * b[n] * rr ** (n - 1) for n in range(1, n_max + 1))
        w2 = mp.fsum(n * (n - 1) * b[n] * rr ** (n - 2) for n in range(2, n_max + 1))
    return psi, w0, w1, w2


def psi_mgf_hp_reference(a, r, digits):
    """MgfValue of the mpmath mode from psi_mgf_sums."""
    psi, w0, w1, w2 = psi_mgf_sums(a, r, digits)
    with mp.workdps(digits + 10):
        xi = -w1 / w0
        eta2 = w2 / w0 - xi * xi
        eta = mp.sqrt(eta2) if eta2 > 0 else mp.mpf(0)
        tol = mp.mpf(10) ** (-digits + 2)
        psi_d, w0_d = float(psi), float(w0)
        return limitlaw.MgfValue(
            r=r, psi=psi_d, omega=w0_d, xi=float(xi), eta=float(eta),
            error_estimate=math.nextafter(float(abs(psi) * tol) + 0.5 * math.ulp(psi_d), math.inf),
            omega_error_estimate=math.nextafter(float(abs(w0) * tol) + 0.5 * math.ulp(w0_d), math.inf),
        )
