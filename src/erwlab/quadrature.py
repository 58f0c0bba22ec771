"""Adaptive Gauss-Kronrod quadrature.

A plain G7/K15 rule with greedy interval bisection: the segment with the
largest error estimate is split until the summed estimate drops below the
target.  The error of one segment is the usual (200 |K15 - G7|)^1.5
heuristic, floored at a few ulps of the segment value so the estimate
stays honest once the rule is converged.
"""

import math

from ._intake import count, real
from .errors import QuadratureError

# 15-point Kronrod nodes (positive half) with Kronrod weights, and the
# embedded 7-point Gauss weights on the shared nodes.
_XK = (
    0.991455371120813,
    0.949107912342759,
    0.864864423359769,
    0.741531185599394,
    0.586087235467691,
    0.405845151377397,
    0.207784955007898,
)
_WK = (
    0.022935322010529,
    0.063092092629979,
    0.104790010322250,
    0.140653259715525,
    0.169004726639267,
    0.190350578064785,
    0.204432940075298,
)
_WK0 = 0.209482141084728
_WG = (0.129484966168870, 0.279705391489277, 0.381830050505119)
_WG0 = 0.417959183673469


def gk15(f, a, b):
    """One G7/K15 panel on [a, b]; returns (integral, error_estimate)."""
    c = 0.5 * (a + b)
    h = 0.5 * (b - a)
    fc = f(c)
    kron = _WK0 * fc
    kron_abs = _WK0 * abs(fc)
    gauss = _WG0 * fc
    for i in range(7):
        dx = _XK[i] * h
        f1 = f(c - dx)
        f2 = f(c + dx)
        kron += _WK[i] * (f1 + f2)
        kron_abs += _WK[i] * (abs(f1) + abs(f2))
        if i % 2 == 1:
            gauss += _WG[i // 2] * (f1 + f2)
    kron *= h
    gauss *= h
    err = (200.0 * abs(kron - gauss)) ** 1.5
    # floor at the weight-rounding noise of the rule itself
    return kron, max(err, 20.0 * 2.22e-16 * abs(kron_abs * h))


def integrate(f, a, b, tol_abs=1e-12, tol_rel=1e-12, limit=512):
    """Integrate ``f`` on the finite interval [a, b].

    Returns (value, error_estimate).  Raises QuadratureError when the
    segment budget is exhausted before the estimate meets
    max(tol_abs, tol_rel * |value|).
    """
    head = "integrate requires finite endpoints (substitute first)"
    a, b = real(head, a, -math.inf, math.inf), real(head, b, -math.inf, math.inf)
    tol_abs = real("integrate requires tol_abs", tol_abs, 0.0, math.inf, "[)")
    tol_rel = real("integrate requires tol_rel", tol_rel, 0.0, math.inf, "[)")
    limit = count("integrate requires limit", limit, 1)
    segs = [(a, b, *gk15(f, a, b))]
    while True:
        value = math.fsum(s[2] for s in segs)
        err = math.fsum(s[3] for s in segs)
        if err <= max(tol_abs, tol_rel * abs(value)):
            return value, err
        if len(segs) >= limit:
            raise QuadratureError("quadrature segment budget exhausted", err)
        worst = max(range(len(segs)), key=lambda i: segs[i][3])
        lo, hi, _, _ = segs.pop(worst)
        mid = 0.5 * (lo + hi)
        segs.append((lo, mid, *gk15(f, lo, mid)))
        segs.append((mid, hi, *gk15(f, mid, hi)))
