"""Moment sequence of the superdiffusive limit law.

The sequence {m_n} is defined by m_0 = m_1 = 1 and the quadratic
recurrence

    m_n = (n a - c_n)^(-1) * sum_{i=1}^{n-1} c_i m_i m_{n-i},

with c_i = 1 for even i and c_i = a for odd i.  It grows like
(2a/(a+1)) rho_a^n where

    rho_a = ( Gamma(1/2 + 1/(2a)) Gamma(1 - 1/(2a)) / sqrt(pi) )^a,

so everything is computed on the scale-invariant sequence
m_n / rho_a^n, which stays O(1) out to n = 5000 in doubles.  Integer
moments of the limit variable follow from E[L^n] = n! m_n / Gamma(1+an).
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import SeriesOverflowError
from .specfun import f_eval, gamma_ln, hyp2f1, rho_root

# m_2 = a/(2a-1) blows up at the diffusive boundary; the artifact refuses
# to operate closer than this
_A_MIN = 0.5 + 1e-6


def _check_a(a):
    if not (a > _A_MIN and a < 1.0):
        raise ValueError(
            f"superdiffusive moment recurrence needs a in ({_A_MIN}, 1), got {a!r}"
        )


def rho(a):
    """Exponential growth rate of {m_n} (Gamma-product form), a > 1/2."""
    if not (0.5 < a <= 10.0):
        raise ValueError(f"rho requires a in (1/2, 10], got {a!r}")
    a = float(a)
    return rho_root(a) ** a


def rho_integral(a):
    """Independent route to rho through F, without the Gamma function:

        rho_a^(1/a) = (1/a) * int_0^inf (1 - 1/sqrt(1+u^2)) u^(-1-1/a) du.

    Split at u = 1/2: the part below is 2^(1/a) (2F1(1/2, -1/(2a);
    1 - 1/(2a); -1/4) - 1) and the part above 2^(1/a) - F(1/2), with F by
    quadrature (QuadratureError if it fails).
    """
    if not (0.5 < a < 1.0):
        raise ValueError(f"rho_integral requires a in (1/2, 1), got {a!r}")
    a = float(a)
    h = hyp2f1(0.5, -0.5 / a, 1.0 - 0.5 / a, -0.25).value
    f = f_eval(a, 0.5, method="quadrature").value
    return (2.0 ** (1.0 / a) * h - f) ** a


@dataclass(frozen=True)
class MomentTable:
    """{m_n / rho_a^n} for n = 0..n_max, with the rho_a used to scale."""

    a: float
    n_max: int
    rho: float
    scaled: np.ndarray = field(repr=False)

    def unscaled(self, n):
        """m_n itself; exact to doubles for n <= 50, overflow-guarded beyond."""
        ln = math.log(self.scaled[n]) + n * math.log(self.rho)
        if ln > 700.0:
            raise SeriesOverflowError(f"m_{n} at a={self.a} exceeds double range")
        return self.scaled[n] * self.rho**n

    def asymptotic_ratio(self, n):
        """m_n (a+1) / (2a rho_a^n); tends to 1 as n grows."""
        return self.scaled[n] * (self.a + 1.0) / (2.0 * self.a)


def moment_sequence(a, n_max):
    """Run the recurrence in rho-scaled form out to n_max (>= 2)."""
    _check_a(a)
    if n_max < 2:
        raise ValueError("n_max must be >= 2")
    a = float(a)
    r = rho(a)
    # the table last-first, rev[n_max - i] = m_i, so that m_{n-1} .. m_1 is
    # a contiguous slice: np.dot hands it to ddot as it is, where a
    # negative-stride view is copied first, and sums the same products in
    # the same order
    rev = np.empty(n_max + 1)
    cm = np.empty(n_max + 1)  # c_i m_i, from i = 1
    rev[n_max] = 1.0
    rev[n_max - 1] = m = 1.0 / r
    cm[1] = a * m
    for n in range(2, n_max + 1):
        cn = a if n % 2 else 1.0
        m = float(np.dot(cm[1:n], rev[n_max - n + 1:n_max])) / (n * a - cn)
        rev[n_max - n] = m
        cm[n] = cn * m
    return MomentTable(a=a, n_max=n_max, rho=r, scaled=rev[::-1].copy())


def limit_moment_ln(a, n, table=None):
    """log E[L1^n] = log(n! m_n / Gamma(1+an)); a table given must be that
    of this a and reach n, else ValueError."""
    if n < 0:
        raise ValueError("moment order must be >= 0")
    if n == 0:
        return 0.0
    if table is None:
        table = moment_sequence(a, max(n, 2))
    elif table.a != a or n > table.n_max:
        raise ValueError(
            f"moment table of a={table.a!r} to n={table.n_max} cannot give order {n} at a={a!r}"
        )
    a = float(a)
    ln_m = math.log(table.scaled[n]) + n * math.log(table.rho)
    return gamma_ln(n + 1.0) + ln_m - gamma_ln(1.0 + a * n)


def limit_moment(a, n, table=None):
    """E[L1^n] = n! m_n / Gamma(1+an), evaluated through logs."""
    ln = limit_moment_ln(a, n, table)
    if abs(ln) > 700.0:
        raise SeriesOverflowError(
            f"E[L^{n}] at a={a} has log-magnitude {ln:.1f}; use limit_moment_ln"
        )
    return math.exp(ln)


@dataclass(frozen=True)
class LimitLawContext:
    """Per-a bundle of the limit-law constants."""

    a: float
    rho: float
    kappa: float
    delta: float
    c_pos: float
    c_neg: float


def context(a):
    """Constants rho_a, kappa_a, delta_a and the two tail prefactors.

    kappa_a = (rho_a^(2/(a+1)) / 4) ((a+1)/a)^(2a/(a+1)),
    delta_a = (1-a)/(1+a),
    c_pos   = sqrt(2/(pi (1-a^2)(1+a))) (a/rho_a)^(1/(2(1-a))),
    c_neg   = (rho_a/a)^((3a-1)/(2(1-a^2))) rho_a^(2/(a+1))
              / (sqrt(2 pi (1-a)) 2 (a+1)^delta Gamma(delta)).
    """
    _check_a(a)
    a = float(a)
    r = rho(a)
    delta = (1.0 - a) / (1.0 + a)
    kappa = (r ** (2.0 / (a + 1.0)) / 4.0) * ((a + 1.0) / a) ** (2.0 * a / (a + 1.0))
    c_pos = math.sqrt(2.0 / (math.pi * (1.0 - a * a) * (1.0 + a))) * (a / r) ** (
        1.0 / (2.0 * (1.0 - a))
    )
    c_neg = (
        (r / a) ** ((3.0 * a - 1.0) / (2.0 * (1.0 - a * a)))
        * r ** (2.0 / (a + 1.0))
        / (
            math.sqrt(2.0 * math.pi * (1.0 - a))
            * 2.0
            * (a + 1.0) ** delta
            * math.exp(gamma_ln(delta))
        )
    )
    return LimitLawContext(a=a, rho=r, kappa=kappa, delta=delta, c_pos=c_pos, c_neg=c_neg)


def asymptotic_moment_ln(ctx, n, order="leading"):
    """log of the moment asymptote 2a rho^n n! / ((a+1) Gamma(1+an)),
    optionally with the parity-dependent first correction."""
    if n < 1:
        raise ValueError("asymptotic_moment_ln needs n >= 1")
    a = ctx.a
    ln = (
        math.log(2.0 * a / (a + 1.0))
        + n * math.log(ctx.rho)
        + gamma_ln(n + 1.0)
        - gamma_ln(1.0 + a * n)
    )
    if order == "leading":
        return ln
    if order == "first_correction":
        d = ctx.delta
        poch_ratio = math.exp(gamma_ln(d + n) - gamma_ln(d) - gamma_ln(n + 1.0))
        sign = 1.0 if n % 2 == 0 else -1.0
        corr = 1.0 + ctx.kappa * poch_ratio * (sign + (a - 1.0) / (3.0 * a + 1.0))
        if not corr > 0.0:
            raise ValueError(f"asymptotic_moment_ln: correction factor {corr!r} <= 0 at a = {a!r}, n = {n}")
        return ln + math.log(corr)
    raise ValueError(f"unknown order {order!r}")


def hankel_test(table, k_max):
    """Signs of the Hankel determinants det [m_{i+j}]_{0<=i,j<=k}, k <= k_max.

    Computed on the scaled sequence: the positive diagonal scaling
    diag(rho^-i) leaves every determinant sign unchanged.  A single
    negative sign certifies that {m_n} is not a Hamburger moment
    sequence.  Magnitudes below 1e-12 of the row-max scale are reported
    as 0 (indeterminate).
    """
    if 2 * k_max > table.n_max:
        raise ValueError("hankel_test needs 2*k_max <= n_max")
    out = []
    for k in range(k_max + 1):
        idx = np.arange(k + 1)
        h = table.scaled[idx[:, None] + idx[None, :]]
        sign, logabs = np.linalg.slogdet(h)
        log_scale = float(np.sum(np.log(np.max(np.abs(h), axis=1))))
        if logabs < math.log(1e-12) + log_scale:
            out.append((k, 0))
        else:
            out.append((k, int(sign)))
    return out
