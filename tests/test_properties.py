"""Property tests: regime switches are seamless, exact rows are laws,
check_shape agrees with its loop oracle, the 17-digit CSV/JSON floats
round-trip, a CSV's one line format gives fmt's bytes, the public numeric
calls give a finite value or a typed error at both ends of the window
a in (1/2, 1) and the bytes of a Python float for a numpy scalar argument,
every real and count argument refuses a str, a huge int or a non-integer
count with DomainError, psi_mgf's sums in double precision and in its
mpmath mode and the Mittag-Leffler and Prabhakar series lie within their
bars, and the CLI keeps its exit-code contract on odd numeric options.

Examples are derived from the test source (derandomize) and no example
database is written, so every run checks the same cases.  Hypothesis
still caches the constants it harvests from the source; that cache goes
to the system temporary directory unless HYPOTHESIS_STORAGE_DIRECTORY
names another place, so a test run leaves nothing in the checkout.
"""

import contextlib
import dataclasses
import io
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

from erwlab import cli, emit, limitlaw, moments, quadrature, specfun, walk  # noqa: E402
from erwlab.errors import (  # noqa: E402
    ConvergenceError, DomainError, ErwLabError, SeriesOverflowError)
from oracles import (  # noqa: E402
    assert_same_report, assert_within_bar, check_shape_reference, f_kernel, hyp2f1, prabhakar,
    psi_mgf_sums)

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


# every public function that takes a real argument, with values for those
# arguments
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
    "ErwParams": (lambda p, q: walk.ErwParams(p=p, q_first=q), (0.8, 0.3)),
    "ErwParams.from_a": (walk.ErwParams.from_a, (0.6, 0.3)),
    "scaled_density": (
        lambda a: walk.scaled_density(walk.row_at(walk.ErwParams(p=0.8), 50), a, [0.5]), (0.7,)),
    "integrate": (lambda *ends_tols: quadrature.integrate(math.exp, *ends_tols),
                  (0.0, 1.5, 1e-12, 1e-12)),
}

# every public function that takes a count, with values for those counts
_COUNT_ARGUMENT_CALLS = {
    "mittag_leffler": (lambda d: specfun.mittag_leffler(0.5, 1.0, precision_digits=d), (0,)),
    "prabhakar": (lambda d: specfun.prabhakar(0.7, 1.3, 0.6, 2.5, precision_digits=d), (0,)),
    "psi_mgf": (lambda d: limitlaw.psi_mgf(0.7, -1.5, precision_digits=d), (0,)),
    "moment_sequence": (lambda n: moments.moment_sequence(0.7, n), (40,)),
    "limit_moment_ln": (lambda n: moments.limit_moment_ln(0.7, n), (7,)),
    "limit_moment": (lambda n: moments.limit_moment(0.7, n), (7,)),
    "asymptotic_moment_ln": (lambda n: moments.asymptotic_moment_ln(moments.context(0.7), n), (7,)),
    "hankel_test": (lambda k: moments.hankel_test(moments.moment_sequence(0.7, 20), k), (3,)),
    "iter_rows": (lambda n: walk.iter_rows(walk.ErwParams(p=0.8), n), (5,)),
    "row_at": (lambda n: walk.row_at(walk.ErwParams(p=0.8), n), (5,)),
    "evolve_distribution": (lambda n: walk.evolve_distribution(walk.ErwParams(p=0.8), n), (5,)),
    "log_concavity_root": (walk.log_concavity_root, (1,)),
    "resolve_threads": (walk.resolve_threads, (2,)),
    "simulate_terminal": (
        lambda *counts: walk.simulate_terminal(walk.ErwParams(p=0.8), *counts), (10, 3, 7, 1)),
    "integrate": (lambda limit: quadrature.integrate(math.exp, 0.0, 1.5, limit=limit), (50,)),
}


def test_numpy_integer_counts_compute_as_python_ints():
    # a product of int64 counts would wrap where one of Python ints does not
    assert type(moments.moment_sequence(0.7, np.int64(40)).n_max) is int
    assert type(walk.row_at(walk.ErwParams(p=0.8), np.uint16(5)).n) is int


def _each_argument_replaced(args, bad):
    for i in range(len(args)):
        yield args[:i] + (bad,) + args[i + 1:]


@pytest.mark.parametrize("bad", [10**400, "0.7", b"0.7"], ids=["huge-int", "str", "bytes"])
@pytest.mark.parametrize("name", list(_REAL_ARGUMENT_CALLS))
def test_real_arguments_refuse_with_domain_error(name, bad):
    # float() parses a str and overflows on a huge int; the intake refuses both
    call, args = _REAL_ARGUMENT_CALLS[name]
    call(*args)
    for bad_args in _each_argument_replaced(args, bad):
        with pytest.raises(DomainError):
            call(*bad_args)


@pytest.mark.parametrize("bad", [2.5, "3", True], ids=["float", "str", "bool"])
@pytest.mark.parametrize("name", list(_COUNT_ARGUMENT_CALLS))
def test_count_arguments_refuse_with_domain_error(name, bad):
    call, args = _COUNT_ARGUMENT_CALLS[name]
    call(*args)
    for bad_args in _each_argument_replaced(args, bad):
        with pytest.raises(DomainError):
            call(*bad_args)


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


def _psi_mgf_hp_points():
    """30 seeded (a, r, digits), a in [0.55, 0.95], r in [-10, 10], the digits
    cycling through 6, 10, 20, 30 and 40."""
    rng = np.random.default_rng(3838)
    a = rng.uniform(0.55, 0.95, 30).tolist()
    r = rng.uniform(-10.0, 10.0, 30).tolist()
    return list(zip(a, r, [6, 10, 20, 30, 40] * 6))


@pytest.mark.parametrize("a, r, digits", _psi_mgf_hp_points())
def test_psi_mgf_mpmath_mode_within_its_bars(a, r, digits):
    # the bar is a flat |sum| 10^(2 - digits) plus half an ulp, not a
    # measured rounding: at 20 digits and more the half ulp dominates and
    # the error reaches 0.98 of the bar on these points
    got = limitlaw.psi_mgf(a, r, precision_digits=digits)
    psi, omega = psi_mgf_sums(a, r, digits + 20)[:2]
    assert_within_bar(got.psi, got.error_estimate, psi)
    assert_within_bar(got.omega, got.omega_error_estimate, omega)


@settings(derandomize=True, database=None, deadline=None, max_examples=20)
@given(
    alpha=st.floats(0.4, 1.0),
    beta=st.floats(0.5, 3.0),
    gamma_p=st.floats(0.3, 3.0),
    t=st.floats(-30.0, 30.0),
)
@example(alpha=0.6, beta=1.0, gamma_p=1.0, t=-30.0)  # the terms reach 10^13 of the value
def test_high_precision_series_within_their_bars_or_typed_error(alpha, beta, gamma_p, t):
    # z = sign(t) |t|^alpha puts the largest term near exp(|t|), on both axes
    z = math.copysign(abs(t) ** alpha, t)
    for call, params in (
        (lambda: specfun.prabhakar(alpha, beta, gamma_p, z, precision_digits=30), (alpha, beta, gamma_p)),
        (lambda: specfun.mittag_leffler(alpha, z, precision_digits=30), (alpha, 1.0, 1.0)),
    ):
        try:
            got = call()
        except ErwLabError:
            continue
        assert math.isfinite(got.value) and math.isfinite(got.abs_error_estimate)
        assert_within_bar(got.value, got.abs_error_estimate, prabhakar(*params, z))



@settings(derandomize=True, database=None, deadline=None, max_examples=40)
@given(
    alpha=st.floats(0.4, 1.0),
    beta=st.floats(0.5, 3.0),
    gamma_p=st.floats(0.3, 3.0),
    t=st.floats(-12.0, 30.0),
)
@example(alpha=1.0, beta=1.0, gamma_p=1.0, t=-12.0)  # E_1(-12) = e^-12, 2e5 times below its terms
def test_double_precision_series_within_their_bars_or_typed_error(alpha, beta, gamma_p, t):
    # against the 40-digit mode, whose own bar covers its rounding to a double
    z = math.copysign(abs(t) ** alpha, t)
    for call, name in (
        (lambda d: specfun.prabhakar(alpha, beta, gamma_p, z, precision_digits=d), "prabhakar"),
        (lambda d: specfun.mittag_leffler(alpha, z, precision_digits=d), "mittag_leffler"),
    ):
        try:
            got = call(0)
        except ErwLabError:
            continue
        ref = call(40)
        assert math.isfinite(got.value) and math.isfinite(got.abs_error_estimate)
        gap = abs(got.value - ref.value)
        assert gap <= got.abs_error_estimate + ref.abs_error_estimate, (name, got, ref)


# ---------------------------------------------------------------------------
# CLI argv: every subcommand but check, with each numeric option drawn from
# finite, infinite, NaN, negative, zero, tiny and huge values.  Counts stay
# small and --threads stays in 1..2, so that no draw starts many threads or
# runs long; 60 examples each keep the eight properties near 4 s.

cli_fuzz = settings(deterministic, max_examples=60)

# the unit interval holds most valid a, p, q and x
_NUMBERS = st.floats(0.0, 1.0) | st.floats(-3.0, 3.0) | st.sampled_from(
    [math.inf, -math.inf, math.nan, 0.0, -0.0, -1.0, 0.75, 5e-324, 1e-300, 1e300, -1e300,
     sys.float_info.max])
_PARAM = st.sampled_from(["a", "p"])


def _opt(name, value):
    # --name=value, so that argparse reads "-inf" or "-1e+300" as a value
    return f"--{name}={value}"


@st.composite
def _grids(draw):
    return f"{draw(_NUMBERS)},{draw(_NUMBERS)},{draw(st.integers(-1, 4))}"


def _run_cli(argv):
    """`erwlab argv --out <file>` keeps the CLI contract: exit code 0, 1 or
    2, no exception escaping main, no output file after a usage error."""
    with tempfile.TemporaryDirectory() as tmp:
        out = os.path.join(tmp, "out")
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            try:
                code = cli.main(argv + ["--out", out])
            except SystemExit as exc:
                code = exc.code
        assert code in (0, 1, 2), (code, err.getvalue())
        assert "Traceback" not in err.getvalue()
        if code == 2:
            assert not os.path.exists(out)


@cli_fuzz
@given(param=_PARAM, value=_NUMBERS, q=_NUMBERS, n_max=st.integers(-2, 40), all_rows=st.booleans())
def test_cli_dist_exits_by_contract(param, value, q, n_max, all_rows):
    argv = ["dist", _opt(param, value), _opt("q", q), _opt("n-max", n_max)]
    _run_cli(argv + ["--all-rows"] * all_rows)


@cli_fuzz
@given(param=_PARAM, value=_NUMBERS, q=_NUMBERS, n_max=st.integers(-2, 40))
def test_cli_shape_exits_by_contract(param, value, q, n_max):
    _run_cli(["shape", _opt(param, value), _opt("q", q), _opt("n-max", n_max)])


@cli_fuzz
@given(
    param=_PARAM, value=_NUMBERS, q=_NUMBERS, n=st.integers(-2, 60), count=st.integers(-2, 40),
    seed=st.integers(-2**70, 2**70), threads=st.sampled_from([None, 1, 2]),
    bins=st.integers(-3, 20),
)
def test_cli_simulate_exits_by_contract(param, value, q, n, count, seed, threads, bins):
    argv = ["simulate", _opt(param, value), _opt("q", q), _opt("n", n), _opt("count", count),
            _opt("seed", seed), _opt("bins", bins)]
    _run_cli(argv + ([_opt("threads", threads)] if threads else []))


@cli_fuzz
@given(a=_NUMBERS, n_max=st.integers(-2, 60))
def test_cli_moments_exits_by_contract(a, n_max):
    _run_cli(["moments", _opt("a", a), _opt("n-max", n_max)])


@cli_fuzz
@given(a=_NUMBERS | _grids())
def test_cli_rho_exits_by_contract(a):
    _run_cli(["rho", _opt("grid" if isinstance(a, str) else "a", a)])


@cli_fuzz
@given(a=_NUMBERS, grid=st.none() | _grids())
def test_cli_limit_exits_by_contract(a, grid):
    _run_cli(["limit", _opt("a", a)] + ([_opt("grid", grid)] if grid else []))


@cli_fuzz
@given(a=_NUMBERS, q=_NUMBERS, n=st.integers(-2, 80), grid=st.none() | _grids())
def test_cli_tails_exits_by_contract(a, q, n, grid):
    argv = ["tails", _opt("a", a), _opt("q", q), _opt("n", n)]
    _run_cli(argv + ([_opt("grid", grid)] if grid else []))


@cli_fuzz
@given(
    fn=st.sampled_from(
        [("gamma_ln", 0), ("hyp2f1", 3), ("mittag_leffler", 1), ("prabhakar", 3), ("f", 1),
         ("f_inverse", 1)]),
    params=st.lists(_NUMBERS, min_size=3, max_size=3), z=_NUMBERS,
    digits=st.sampled_from([0, 0, -1, 30]),
)
def test_cli_specfun_exits_by_contract(fn, params, z, digits):
    # the --params count a function takes; other counts are usage errors
    # that test_cli pins
    fn, size = fn
    params = params[:size]
    # argparse reads a --params value such as -inf or -1e+300 as an option:
    # a usage error, exit 2
    argv = ["specfun", _opt("fn", fn), _opt("z", z), _opt("precision-digits", digits)]
    _run_cli(argv + (["--params", *map(str, params)] if params else []))
