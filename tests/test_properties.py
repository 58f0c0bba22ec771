"""Property tests: regime switches are seamless, exact rows are laws,
check_shape agrees with its loop oracle, the 17-digit CSV/JSON floats
round-trip, a CSV's one line format gives fmt's bytes, the public numeric
calls give a finite value or a typed error at both ends of the window
a in (1/2, 1) and the bytes of a Python float for a numpy scalar argument,
and psi_mgf's double-precision sums lie within their bars.

Examples are derived from the test source (derandomize) and no example
database is written, so every run checks the same cases.  Hypothesis
still caches the constants it harvests from the source; that cache goes
to the system temporary directory unless HYPOTHESIS_STORAGE_DIRECTORY
names another place, so a test run leaves nothing in the checkout.
"""

import dataclasses
import math
import os
import struct
import sys
import tempfile

os.environ.setdefault(
    "HYPOTHESIS_STORAGE_DIRECTORY", os.path.join(tempfile.gettempdir(), "erwlab-hypothesis")
)

import numpy as np  # noqa: E402
import pytest  # noqa: E402
from hypothesis import example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402
from numpy.testing import assert_allclose  # noqa: E402

from erwlab import emit, limitlaw, moments, specfun, walk  # noqa: E402
from erwlab.errors import ConvergenceError, ErwLabError, SeriesOverflowError  # noqa: E402
from oracles import (  # noqa: E402
    assert_same_report, assert_within_bar, check_shape_reference, f_kernel, hyp2f1, psi_mgf_sums)

deterministic = settings(derandomize=True, database=None, deadline=None)


@deterministic
@given(
    alpha=st.floats(-2.5, 2.5),
    beta=st.floats(-2.5, 2.5),
    gamma_c=st.floats(0.1, 4.0),
)
def test_hyp2f1_continuous_across_pfaff_switch(alpha, beta, gamma_c):
    # z = -1/2 is summed directly, the next double to its left through
    # the Pfaff transform
    series = specfun.hyp2f1(alpha, beta, gamma_c, -0.5)
    pfaff = specfun.hyp2f1(alpha, beta, gamma_c, math.nextafter(-0.5, -1.0))
    assert series.method == "series" and pfaff.method == "series-pfaff"
    gap = abs(series.value - pfaff.value)
    assert gap <= 2.0 * (series.abs_error_estimate + pfaff.abs_error_estimate) + 1e-15 * abs(series.value)


@deterministic
@given(a=st.floats(math.nextafter(0.5, 1.0), 1.0, exclude_max=True))
@example(a=math.nextafter(0.5, 1.0))
@example(a=0.5 + 1e-9)
def test_f_eval_continuous_across_regime_switch(a):
    # auto mode takes the ascending 2F1 form up to z = 1.1 and the
    # descending one beyond; the ascending form cancels like
    # Gamma(1 - 1/(2a)) as a -> 1/2, which its bar covers down to one ulp
    z_hi = math.nextafter(1.1, 2.0)
    below = specfun.f_eval(a, 1.1)
    above = specfun.f_eval(a, z_hi)
    assert below.method == "hypergeometric" and above.method == "series"
    assert abs(below.value - above.value) <= below.abs_error_estimate + above.abs_error_estimate
    for z in (1.1, z_hi):
        hyp = specfun.f_eval(a, z, method="hypergeometric")
        ser = specfun.f_eval(a, z, method="series")
        assert abs(hyp.value - ser.value) <= hyp.abs_error_estimate + ser.abs_error_estimate


@deterministic
@given(
    alpha=st.floats(-4.0, 4.0),
    beta=st.floats(-4.0, 4.0),
    gamma_c=st.floats(0.05, 6.0),
    z=st.floats(-30.0, 0.95),
)
@example(alpha=4.0, beta=4.0, gamma_c=1.0, z=-1.0)  # an exact zero
def test_hyp2f1_within_its_bar_or_typed_error(alpha, beta, gamma_c, z):
    try:
        got = specfun.hyp2f1(alpha, beta, gamma_c, z)
    except ErwLabError:
        return
    assert math.isfinite(got.value) and math.isfinite(got.abs_error_estimate)
    assert_within_bar(got.value, got.abs_error_estimate, hyp2f1(alpha, beta, gamma_c, z))


@deterministic
@given(
    a=st.floats(0.5, 1.0, exclude_min=True, exclude_max=True),
    z=st.floats(1e-3, 100.0),
    method=st.sampled_from(["auto", "hypergeometric", "series"]),
)
def test_f_eval_within_its_bar_or_typed_error(a, z, method):
    try:
        got = specfun.f_eval(a, z, method=method)
    except ErwLabError:
        return
    assert math.isfinite(got.value) and math.isfinite(got.abs_error_estimate)
    assert_within_bar(got.value, got.abs_error_estimate, f_kernel(a, z))


@deterministic
@given(a=st.floats(0.5 + 1e-6, 1.0, exclude_max=True), u=st.floats(-6.0, 6.0))
@example(a=0.5 + 1e-6, u=math.log10(1.58))  # y = 1.58; 50 ulps out of f_eval's reach
def test_f_inverse_meets_contract_or_raises(a, u):
    # a root off the residual contract is never returned; only near
    # a = 1/2, where f_eval's ascending form cancels, may it raise instead
    y = 10.0**u
    try:
        x = specfun.f_inverse(a, y)
    except ConvergenceError:
        assert a < 0.5 + 1e-3
        return
    assert abs(specfun.f_eval(a, x).value - y) <= 1e-11 * max(1.0, y)


@deterministic
@given(
    p=st.floats(0.0, 1.0),
    q_first=st.floats(0.0, 1.0),
    n=st.integers(1, 300),
)
def test_rows_are_laws_and_mixtures_reflect(p, q_first, n):
    row = walk.row_at(walk.ErwParams(p=p, q_first=q_first), n)
    assert np.all(row.probs >= 0.0)
    assert abs(row.probs.sum() - 1.0) < 1e-12
    mirror_q = 1.0 - q_first
    if q_first < 1.0 and mirror_q < 1.0:
        # the q_first-mixture reflected (k -> n - k) is the (1 - q_first)-mixture
        mirror = walk.row_at(walk.ErwParams(p=p, q_first=mirror_q), n)
        assert_allclose(row.probs[::-1], mirror.probs, rtol=1e-13, atol=1e-16)


@st.composite
def shape_rows(draw):
    # a few shared levels give exact ties, a peak plateau gives ties at
    # the mode, a geometric body gives u_k^2 = u_(k-1) u_(k+1) up to
    # rounding, relative nudges of 5e-13 and 2e-12 land on both sides of
    # the 1e-12 tie rule, and zero runs pad the tails
    shape = draw(st.sampled_from(["levels", "plateau", "geometric"]))
    if shape == "levels":
        levels = draw(st.lists(st.floats(0.0, 1.0), min_size=1, max_size=3))
        body = draw(st.lists(st.sampled_from(levels) | st.floats(0.0, 1.0),
                             min_size=1, max_size=30))
    elif shape == "plateau":
        peak = draw(st.floats(0.1, 1.0))
        body = [peak / 4, peak / 2] + [peak] * draw(st.integers(2, 8)) + [peak / 2, peak / 4]
    else:
        ratio = draw(st.floats(0.2, 5.0))
        body = [ratio**k for k in range(draw(st.integers(1, 30)))]
    size = len(body)
    nudge = draw(st.lists(st.sampled_from([0, -5, 5, -20, 20]), min_size=size, max_size=size))
    body = [v * (1.0 + k * 1e-13) for v, k in zip(body, nudge)]
    lead, trail = draw(st.integers(0, 3)), draw(st.integers(0, 3))
    return np.array([0.0] * lead + body + [0.0] * trail)


@deterministic
@given(probs=shape_rows())
@example(probs=np.array([1.0]))
@example(probs=np.array([0.0]))
@example(probs=np.array([0.5, 0.5]))
@example(probs=np.array([0.2, 0.5, 0.5 * (1.0 + 5e-13), 0.3, 0.3 * (1.0 + 2e-12), 0.1]))
def test_check_shape_matches_loop_oracle(probs):
    row = walk.DistributionRow(n=len(probs), probs=probs)
    assert_same_report(walk.check_shape(row), check_shape_reference(row))


@deterministic
@given(x=st.floats(allow_nan=False, allow_infinity=False))
@example(x=0.0)
@example(x=-0.0)
@example(x=5e-324)  # smallest subnormal
@example(x=-2.2250738585072009e-308)  # largest subnormal
@example(x=sys.float_info.max)
@example(x=-sys.float_info.max)
def test_fmt_round_trips_every_finite_double(x):
    # bit-identical, so the sign of zero counts; np.float64 is what the
    # CLI writes, a float subclass that fmt must format the same way
    for v in (x, np.float64(x)):
        assert struct.pack("<d", float(emit.fmt(v))) == struct.pack("<d", x)


@deterministic
@given(
    rows=st.lists(
        st.tuples(st.booleans(), st.integers(), st.floats(), st.text(max_size=4),
                  st.floats().map(np.float64), st.integers(-2**63, 2**63 - 1).map(np.int64)),
        max_size=4,
    )
)
def test_write_csv_lines_are_fmt_fields(rows):
    # one %-format per file from the first row's types gives fmt's bytes
    # field by field on rows that keep those types; no rows, header only
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "out.csv")
        emit.write_csv(path, ("b", "i", "f", "s", "f64", "i64"), rows, meta={"none": None})
        with open(path, encoding="utf-8", newline="") as fh:
            got = fh.read()
    lines = ["# none=", "b,i,f,s,f64,i64"] + [",".join(emit.fmt(v) for v in row) for row in rows]
    assert got == "".join(line + "\n" for line in lines)


def _floats(value):
    """Every float a result carries: itself, an array's entries or a
    dataclass's float fields."""
    if dataclasses.is_dataclass(value):
        return [v for f in dataclasses.fields(value) for v in _floats(getattr(value, f.name))]
    if isinstance(value, np.ndarray):
        return value.ravel().tolist()
    return [value] if isinstance(value, float) else []


@pytest.mark.parametrize("a", [0.5 + 1e-6, 1.0 - 1e-6])
def test_public_calls_finite_or_typed_error_at_window_edges(a):
    # each call builds its own inputs, so a typed refusal of a (context and
    # the moment recurrence require a > 1/2 + 1e-6) counts as that call's error
    calls = [
        lambda: moments.rho(a),
        lambda: moments.rho_integral(a),
        lambda: moments.context(a),
        lambda: moments.moment_sequence(a, 20),
        lambda: moments.limit_moment_ln(a, 10),
        lambda: moments.asymptotic_moment_ln(moments.context(a), 10),
        lambda: specfun.f_inverse(a, 1.0),
        lambda: limitlaw.genfun(a, 0.5 / moments.rho(a)),
        lambda: limitlaw.residuals(a, 0.5 / moments.rho(a)),
        lambda: limitlaw.eta_asymptote(a, 1.0),
        lambda: walk.scaled_density(walk.row_at(walk.ErwParams.from_a(a), 50), a, [0.5, 2.0]),
    ]
    calls += [lambda z=z: specfun.f_eval(a, z) for z in (0.5, 1.1, 5.0)]
    calls += [lambda r=r: limitlaw.psi_mgf(a, r) for r in (1.0, -1.0)]
    for x in (0.5, 2.0, 4.5, 0.0, -1.0, math.nan, math.inf):
        calls.append(lambda x=x: limitlaw.tail_ratio(moments.context(a), x))
        for side in ("positive", "negative"):
            for q in (1.0, 0.4):
                calls.append(
                    lambda x=x, side=side, q=q: limitlaw.tail(moments.context(a), x, side, q=q)
                )
    for call in calls:
        try:
            value = call()
        except (ErwLabError, ValueError):
            continue
        values = _floats(value)
        assert values and all(math.isfinite(v) for v in values), value


# every public function of specfun, moments and limitlaw that takes a real
# argument, with values for those arguments
_REAL_ARGUMENT_CALLS = {
    "gamma_ln": (specfun.gamma_ln, (0.7,)),
    "hyp2f1": (specfun.hyp2f1, (0.5, 0.3, 1.7, -0.7)),
    "mittag_leffler": (specfun.mittag_leffler, (0.7, -2.5)),
    "prabhakar": (specfun.prabhakar, (0.7, 1.3, 0.6, 2.5)),
    "prabhakar_ln": (specfun.prabhakar_ln, (0.7, 1.3, 0.6, 40.0)),
    "rho_root": (specfun.rho_root, (0.7,)),
    "f_eval": (specfun.f_eval, (0.7, 0.7)),
    "f_derivative": (specfun.f_derivative, (0.7, 0.7)),
    "f_inverse": (specfun.f_inverse, (0.7, 2.5)),
    "rho": (moments.rho, (0.7,)),
    "rho_integral": (moments.rho_integral, (0.7,)),
    "moment_sequence": (lambda a: moments.moment_sequence(a, 40), (0.7,)),
    "limit_moment_ln": (lambda a: moments.limit_moment_ln(a, 7), (0.7,)),
    "limit_moment": (lambda a: moments.limit_moment(a, 7), (0.7,)),
    "context": (moments.context, (0.7,)),
    "genfun": (limitlaw.genfun, (0.7, 0.2)),
    "residuals": (limitlaw.residuals, (0.7, 0.2, 1.3)),
    "psi_mgf": (limitlaw.psi_mgf, (0.7, -1.5)),
    "eta_asymptote": (limitlaw.eta_asymptote, (0.7, 2.5)),
    "asymptote": (lambda q: limitlaw.asymptote(moments.context(0.7), "positive", q), (0.3,)),
    "tail": (lambda x, q: limitlaw.tail(moments.context(0.7), x, "positive", q), (2.5, 0.3)),
    "tail_ratio": (lambda x: limitlaw.tail_ratio(moments.context(0.7), x), (2.5,)),
}


def _typed_bytes(value):
    """A result as types and bytes: a dataclass field by field, an array's
    dtype and bytes, any other value's type and, for a float, its bytes."""
    if dataclasses.is_dataclass(value):
        return [_typed_bytes(getattr(value, f.name)) for f in dataclasses.fields(value)]
    if isinstance(value, np.ndarray):
        return value.dtype.str, value.tobytes()
    if isinstance(value, float):
        return type(value).__name__, struct.pack("<d", value)
    return type(value).__name__, value


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("name", list(_REAL_ARGUMENT_CALLS))
def test_numpy_scalar_arguments_give_the_bytes_of_their_value(name, dtype):
    # a float32 argument computed in float32 voids every bar, and a numpy
    # float64 one returns numpy scalars; both compute as the Python float
    # of their value
    call, args = _REAL_ARGUMENT_CALLS[name]
    scalars = [dtype(v) for v in args]
    assert _typed_bytes(call(*scalars)) == _typed_bytes(call(*map(float, scalars)))


def test_numpy_scalar_beyond_the_double_range_raises_the_typed_error():
    # numpy's own power would overflow with a RuntimeWarning
    with pytest.raises(SeriesOverflowError, match="exceeds the double range"):
        specfun.f_eval(0.7, np.float64(1e-300))


@settings(derandomize=True, database=None, deadline=None, max_examples=30)
@given(a=st.floats(0.55, 0.95), r=st.floats(-10.0, 10.0))
@example(a=0.55, r=-10.0)
@example(a=0.95, r=10.0)
@example(a=0.75, r=9.86141619660524e-297)  # u^2 underflows to 0
def test_psi_mgf_within_its_bars_or_typed_error(a, r):
    try:
        got = limitlaw.psi_mgf(a, r)
    except ErwLabError:
        return
    psi, omega = psi_mgf_sums(a, r, 20)[:2]
    assert_within_bar(got.psi, got.error_estimate, psi)
    assert_within_bar(got.omega, got.omega_error_estimate, omega)
