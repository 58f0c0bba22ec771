import math

import pytest
from numpy.testing import assert_allclose

from erwlab import quadrature, rootfind
from erwlab.errors import BracketingError, ConvergenceError, QuadratureError


def test_polynomial_exact():
    val, err = quadrature.integrate(lambda x: x * x, 0.0, 1.0)
    assert_allclose(val, 1.0 / 3.0, rtol=1e-14)
    assert abs(val - 1.0 / 3.0) <= err


def test_sine():
    val, err = quadrature.integrate(math.sin, 0.0, math.pi)
    assert_allclose(val, 2.0, rtol=1e-13)
    assert abs(val - 2.0) <= 10.0 * err + 1e-15


def test_integrable_endpoint_singularity():
    # int_0^1 x^(-1/2) dx = 2; nodes never touch the endpoint
    val, err = quadrature.integrate(lambda x: 1.0 / math.sqrt(x), 0.0, 1.0, limit=2000)
    assert abs(val - 2.0) < 1e-9


def test_budget_error_carries_estimate():
    with pytest.raises(QuadratureError) as exc:
        quadrature.integrate(lambda x: 1.0 / math.sqrt(x), 0.0, 1.0, limit=3)
    assert exc.value.achieved > 0.0


def test_infinite_endpoint_rejected():
    with pytest.raises(ValueError):
        quadrature.integrate(math.exp, 0.0, math.inf)


def _minus_sin(x):
    return -math.sin(x)


def test_bisect_newton_cosine():
    root = rootfind.bisect_newton(math.cos, _minus_sin, 1.0, 2.0, 1e-12)
    assert abs(root - math.pi / 2.0) < 1e-11


def test_bisect_newton_requires_bracket():
    with pytest.raises(BracketingError):
        rootfind.bisect_newton(math.cos, _minus_sin, 0.1, 0.2, 1e-12)


def test_bisect_newton_end_within_ftol():
    # the double nearest sqrt(2) leaves x*x - 2 = +4.4e-16, so rounding
    # hides the sign change; an end within ftol is returned all the same
    lo = math.sqrt(2.0)
    root = rootfind.bisect_newton(lambda x: x * x - 2.0, lambda x: 2.0 * x, lo, 2.0, 1e-15)
    assert root == lo
    with pytest.raises(BracketingError):
        rootfind.bisect_newton(lambda x: x * x - 2.0, lambda x: 2.0 * x, lo, 2.0, 1e-16)


def test_bisect_newton_below_rounding_floor():
    # x*x - 2 is at least 4.4e-16 in magnitude at every double
    with pytest.raises(ConvergenceError):
        rootfind.bisect_newton(lambda x: x * x - 2.0, lambda x: 2.0 * x, 1.0, 2.0, ftol=1e-16)


def test_bisect_newton_sqrt2():
    root = rootfind.bisect_newton(
        lambda x: x * x - 2.0, lambda x: 2.0 * x, 1.0, 2.0, ftol=1e-14
    )
    assert_allclose(root, math.sqrt(2.0), rtol=1e-14)
