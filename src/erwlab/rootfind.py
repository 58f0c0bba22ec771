"""Bracketed root finding: one safeguarded Newton iteration."""

from .errors import BracketingError, ConvergenceError

# steps before giving up: Newton needs a handful, and pure bisection takes
# a bracket to adjacent doubles in about 53 + log2(hi / lo) steps
_MAX_STEPS = 100


def bisect_newton(f, fprime, lo, hi, ftol):
    """Root x of f on a sign-changing bracket [lo, hi], with |f(x)| <= ftol.

    f is evaluated once at each end, then once per step; fprime is the
    analytic derivative.  Each step starts from the end with the smaller
    |f| or from the last iterate, narrows the bracket by the sign of f
    there, and takes the Newton step when it lands strictly inside the
    bracket, the midpoint otherwise.  An end with |f| <= ftol is returned
    as it is.  Otherwise raises BracketingError when f has the same sign
    at both ends, and ConvergenceError when no point meets ftol within a
    fixed step cap (ftol below f's rounding floor).
    """
    flo = f(lo)
    fhi = f(hi)
    x, fx = (lo, flo) if abs(flo) <= abs(fhi) else (hi, fhi)
    # an end that meets ftol is a root even where rounding flips its sign
    if abs(fx) > ftol and flo * fhi > 0.0:
        raise BracketingError(f"no sign change on [{lo!r}, {hi!r}]")
    for _ in range(_MAX_STEPS):
        if abs(fx) <= ftol:
            return x
        if (fx < 0.0) == (flo < 0.0):
            lo, flo = x, fx
        else:
            hi = x
        d = fprime(x)
        # x is now an end of the bracket, so a zero, infinite or NaN
        # slope bisects
        y = x - fx / d if d else x
        if not lo < y < hi:
            y = 0.5 * (lo + hi)
        x, fx = y, f(y)
    raise ConvergenceError(
        f"|f| stayed above {ftol:.3g} for {_MAX_STEPS} steps on [{lo!r}, {hi!r}]"
    )
