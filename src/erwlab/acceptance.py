"""The acceptance suite: every exit criterion with its pinned tolerance.

Each criterion is a plain function returning (passed, detail).  CRITERIA
pairs every function with the name it reports under, and run_all runs
them in order, timing each the same way; ``erwlab check`` prints its
results and tests/test_acceptance.py runs one test per criterion.
Criterion 8 is split into its algebraic-identity part (8a) and the
finite-n density comparison (8b).  The Monte Carlo criterion (9) runs
simulate_terminal on its default threads (ERWLAB_THREADS, else the CPU
count capped at 4); its samples do not depend on the thread count.
"""

import math
import time
from dataclasses import dataclass

import numpy as np

from . import limitlaw, moments, specfun, walk

_A_GRID = [0.55, 0.60, 0.65, 0.70, 0.75, 0.80, 0.85, 0.90, 0.95]


@dataclass(frozen=True)
class CriterionResult:
    name: str
    passed: bool
    detail: str
    seconds: float


def c01_closed_form_moments():
    """m2 = a/(2a-1), m3 = (a+1)/(2(2a-1)) to 1e-14 relative."""
    worst = 0.0
    for a in np.linspace(0.56, 0.94, 10):
        table = moments.moment_sequence(float(a), 4)
        m2 = a / (2 * a - 1)
        m3 = (a + 1) / (2 * (2 * a - 1))
        worst = max(
            worst,
            abs(table.unscaled(2) / m2 - 1.0),
            abs(table.unscaled(3) / m3 - 1.0),
        )
    return worst < 1e-14, f"max rel err {worst:.2e} (tol 1e-14)"


def c02_rho_consistency():
    """Gamma-product vs integral within 1e-8; endpoint laws approach 1
    monotonically on a = 1/2 + 10^-k and a = 1 - 10^-k, k = 2..6."""
    worst = max(abs(moments.rho(a) - moments.rho_integral(a)) for a in _A_GRID)
    near_half = [
        abs(moments.rho(0.5 + 10.0**-k) * 2.0 * math.sqrt(10.0**-k) - 1.0)
        for k in range(2, 7)
    ]
    near_one = [
        abs((moments.rho(1.0 - 10.0**-k) - 1.0) / (10.0**-k * math.log(2.0)) - 1.0)
        for k in range(2, 7)
    ]
    mono = all(x > y for x, y in zip(near_half, near_half[1:])) and all(
        x > y for x, y in zip(near_one, near_one[1:])
    )
    ok = worst < 1e-8 and mono
    return ok, (
        f"max |gamma-integral| {worst:.2e} (tol 1e-8); endpoint gaps "
        f"{near_half[-1]:.1e}/{near_one[-1]:.1e} monotone={mono}"
    )


def c03_shape_theorems():
    """Unimodality of every row n <= 500 on the p-grid; the n = 3
    log-concavity flip at the first threshold root; all four roots."""
    all_unimodal = True
    for p in np.arange(0.60, 0.951, 0.05):
        for row in walk.iter_rows(walk.ErwParams(p=p), 500):
            if not walk.check_shape(row).unimodal:
                all_unimodal = False
                break
    roots = [walk.log_concavity_root(q) for q in range(4)]
    targets = [0.61803, 0.63606, 0.67060, 0.68408]
    roots_ok = all(abs(r - t) < 5e-5 for r, t in zip(roots, targets))

    def n3_log_concave(a):
        return walk.check_shape(walk.row_at(walk.ErwParams.from_a(a), 3)).log_concave

    flip_ok = n3_log_concave(roots[0] - 1e-4) and not n3_log_concave(roots[0] + 1e-4)
    ok = all_unimodal and roots_ok and flip_ok
    return ok, (
        f"unimodal(all n<=500)={all_unimodal}, roots ok={roots_ok} "
        f"(a0={roots[0]:.6f}), n=3 flip at a0={flip_ok}"
    )


def c04_residuals():
    """|r_imp| < 1e-9 and relative FD residuals < 1e-5 on 50-point grids
    for every a; O(h^2) decay under step halving."""
    worst_imp = 0.0
    worst_rel = 0.0
    for a in _A_GRID:
        r = moments.rho(a)
        for frac in np.linspace(0.95 / 51.0, 0.95 * 50.0 / 51.0, 50):
            res = limitlaw.residuals(a, float(frac) / r)
            worst_imp = max(worst_imp, abs(res.r_imp))
            worst_rel = max(worst_rel, res.r_m_rel, res.r_sys_rel, res.r_b_rel)
    big = limitlaw.residuals(0.75, 0.5 / moments.rho(0.75), h_scale=128.0)
    half = limitlaw.residuals(0.75, 0.5 / moments.rho(0.75), h_scale=64.0)
    decay = abs(big.r_m) / max(abs(half.r_m), 1e-300)
    decay_ok = 3.0 < decay < 5.5
    ok = worst_imp < 1e-9 and worst_rel < 1e-5 and decay_ok
    return ok, (
        f"max |r_imp| {worst_imp:.2e} (tol 1e-9), max rel residual "
        f"{worst_rel:.2e} (tol 1e-5), halving ratio {decay:.2f} (expect ~4)"
    )


def c05_series_vs_closed_form():
    """|M(x) - sum_{n<=60} m_n x^n| < 1e-9 for rho x <= 0.3."""
    worst = 0.0
    for a in _A_GRID:
        table = moments.moment_sequence(a, 60)
        powers = np.arange(61)
        for frac in (0.1, 0.2, 0.3):
            x = frac / table.rho
            series = float(np.dot(table.scaled * table.rho**powers, x**powers))
            worst = max(worst, abs(limitlaw.genfun(a, x).m - series))
    return worst < 1e-9, f"max |M - series| {worst:.2e} (tol 1e-9)"


def c06_moment_asymptotics():
    """a = 2/3: leading ratio within 2% at n = 500; parity-split
    second-order limits within 10% at n = 500/501."""
    ctx = moments.context(2.0 / 3.0)
    table = moments.moment_sequence(ctx.a, 501)
    lead = abs(table.asymptotic_ratio(500) - 1.0)
    gamma_delta = math.exp(specfun.gamma_ln(ctx.delta))
    gaps = [
        abs(n ** (1.0 - ctx.delta) * (table.asymptotic_ratio(n) - 1.0)
            / (moments._first_correction(ctx, n) / gamma_delta) - 1.0)
        for n in (500, 501)
    ]
    ok = lead < 0.02 and max(gaps) < 0.10
    return ok, (
        f"|ratio-1| at n=500: {lead:.2e} (tol 0.02); parity gaps "
        f"{gaps[0]:.3f}/{gaps[1]:.3f} (tol 0.10)"
    )


def c07_mgf_asymptotics():
    """Psi(50)(a+1)/(2 exp((rho 50)^(1/a))) in [0.95, 1.05] and
    xi(100) a / 100^(1/a-1) in [-1.05, -0.95] at a = 0.75."""
    a = 0.75
    r = moments.rho(a)
    psi_ratio = limitlaw.psi_mgf(a, 50.0).psi * (a + 1.0) / (
        2.0 * math.exp((r * 50.0) ** (1.0 / a))
    )
    xi_ratio = limitlaw.psi_mgf(a, 100.0).xi * a / 100.0 ** (1.0 / a - 1.0)
    ok = 0.95 < psi_ratio < 1.05 and -1.05 < xi_ratio < -0.95
    return ok, (
        f"Psi ratio {psi_ratio:.4f} (band [0.95,1.05]); xi ratio {xi_ratio:.4f} "
        f"(band [-1.05,-0.95])"
    )


def _density_log_deviation(ctx, row):
    """max |log f_n / log tail+ - 1| over the density band [1e-8, 1e-3]."""
    x = row.scaled_support(ctx.a).astype(float)
    f = walk.scaled_density(row, ctx.a, x)
    mask = (f >= 1e-8) & (f <= 1e-3) & (x > 0)
    lt = np.array([limitlaw.tail(ctx, float(v), "positive", log=True) for v in x[mask]])
    return float(np.abs(np.log(f[mask]) / lt - 1.0).max())


def c08a_tail_ratio_identity():
    """tail+/tail- equals the closed-form ratio to 1e-12 across an x-grid.

    The stretched-exponential factors are identical on both sides and
    cancel algebraically, so the identity is checked on the
    prefactor/power route (the log route rounds the huge cancelling
    stretch terms once each, which costs ~eps * stretch * x^(1/(1-a))).
    """
    worst = 0.0
    for a in (0.55, 2.0 / 3.0, 0.75, 0.9):
        ctx = moments.context(a)
        pos = limitlaw.asymptote(ctx, "positive")
        neg = limitlaw.asymptote(ctx, "negative")
        # stretch terms that do not cancel leave the identity unbounded in x
        if (pos.stretch, pos.stretch_power) != (neg.stretch, neg.stretch_power):
            worst = math.inf
        for x in (0.5, 1.0, 2.0, 4.0, 8.0, 12.0):
            lhs = math.exp(
                math.log(pos.prefactor)
                - math.log(neg.prefactor)
                + (pos.power - neg.power) * math.log(x)
            )
            worst = max(worst, abs(lhs / limitlaw.tail_ratio(ctx, x) - 1.0))
    return worst < 1e-12, f"max rel err {worst:.2e} (tol 1e-12)"


_C08B_LADDER = (1000, 3000, 10_000, 20_000)


def c08b_density_vs_tail():
    """|log f_n(x)/log tail+(x) - 1| < 0.15 on the density band
    [1e-8, 1e-3] at a = 0.75, asserted on the ladder n = 1e3, 3e3, 1e4,
    2e4: the deviation falls strictly along the ladder and is below 0.15
    at its top.

    The gap to the asymptote is a finite-size effect of the walk: the
    worst point of the band (x ~ 4.2-4.6) lies close to the support edge
    n^(1-a) at small n (60% of it at n = 3000, 39% at n = 2e4), where
    the exact law is still depressed below the limit density.  The
    deviation measures ~0.52 / 0.27 / 0.14 / 0.10 along the ladder, so
    the bound is met only from about n = 1e4.  The rows come from one
    streamed pass that holds a single row at a time.
    """
    a = 0.75
    ctx = moments.context(a)
    devs = [
        _density_log_deviation(ctx, row)
        for row in walk.iter_rows(walk.ErwParams.from_a(a), _C08B_LADDER[-1])
        if row.n in _C08B_LADDER
    ]
    improving = all(x > y for x, y in zip(devs, devs[1:]))
    ok = improving and devs[-1] < 0.15
    return ok, (
        f"max dev {' / '.join(f'{d:.3f}' for d in devs)} at "
        f"n = {' / '.join(map(str, _C08B_LADDER))} "
        f"(tol 0.15 at n={_C08B_LADDER[-1]}), improving={improving}"
    )


def c09_monte_carlo():
    """Sample mean of n^(-a) S_n vs 1/Gamma(1+a) within 3 SE at n = 1e4,
    for a >= 0.8 also its second moment vs E[L^2] within 3 SE, and KS
    distance to the exact scaled CDF at n = 200 under the alpha = 1e-3
    bound, for a in {0.75, 0.8, 0.9}."""
    count = 100_000
    ks_bound = 3.0 * math.sqrt(math.log(2.0 / 1e-3) / (2.0 * count))
    details = []
    ok = True
    for i, a in enumerate((0.75, 0.8, 0.9)):
        params = walk.ErwParams.from_a(a)
        samples = walk.simulate_terminal(params, 10_000, count, seed=20_240_000 + i)
        target = math.exp(-specfun.gamma_ln(1.0 + a))
        se = samples.std(ddof=1) / math.sqrt(count)
        pull = abs(samples.mean() - target) / se
        ok = ok and pull < 3.0
        pull2 = float("nan")
        if a >= 0.8:
            # second moment vs E[L^2]; at a = 0.75 the finite-n bias of
            # n^(-2a) E[S_n^2] already fills the 3 SE band, so only the
            # larger a are statistically meaningful here
            sq = samples * samples
            se2 = sq.std(ddof=1) / math.sqrt(count)
            pull2 = abs(sq.mean() - moments.limit_moment(a, 2)) / se2
            ok = ok and pull2 < 3.0

        short = walk.simulate_terminal(params, 200, count, seed=20_250_000 + i)
        row = walk.row_at(params, 200)
        # scale atoms with params.a so sample and atom floats match exactly
        atoms = row.scaled_support(params.a)
        exact_cdf = np.cumsum(row.probs)
        sorted_samples = np.sort(short)
        emp_le = np.searchsorted(sorted_samples, atoms, side="right") / count
        emp_lt = np.searchsorted(sorted_samples, atoms, side="left") / count
        ks = float(
            np.maximum(
                np.abs(emp_le - exact_cdf),
                np.abs(emp_lt - np.concatenate([[0.0], exact_cdf[:-1]])),
            ).max()
        )
        ok = ok and ks < ks_bound
        details.append(
            f"a={a}: pull={pull:.2f}SE"
            + (f" pull2={pull2:.2f}SE" if not math.isnan(pull2) else "")
            + f" ks={ks:.4f}"
        )
    return ok, "; ".join(details) + f" (ks bound {ks_bound:.4f})"


def c10_specfun_identities():
    """Classical identities, all within 1e-9."""
    errs = []
    errs.append(abs(specfun.mittag_leffler(1.0, 1.0).value - math.e))
    errs.append(
        abs(
            specfun.prabhakar(0.75, 1.0, 1.0, 2.0).value
            - specfun.mittag_leffler(0.75, 2.0).value
        )
    )
    # E_{1/2}(1) = e * erfc(-1), frozen from an independent oracle
    errs.append(abs(specfun.mittag_leffler(0.5, 1.0).value - 5.008980080762283))
    for a, z in ((2.0 / 3.0, 2.0), (0.75, 0.6), (0.75, 1.4)):
        quad = specfun.f_eval(a, z, method="quadrature").value
        errs.append(abs(specfun.f_eval(a, z).value - quad))
        errs.append(abs(specfun.f_eval(a, z, method="series").value - quad))
    worst = max(errs)
    return worst < 1e-9, f"max abs err {worst:.2e} (tol 1e-9)"


def c11_hamburger_refutation():
    """Some Hankel determinant of {m_n} at a = 2/3 is negative, k <= 15."""
    table = moments.moment_sequence(2.0 / 3.0, 30)
    signs = moments.hankel_test(table, 15)
    negatives = [k for k, s in signs if s < 0]
    return bool(negatives), (
        f"negative Hankel determinants at k={negatives}" if negatives else "no negative sign found"
    )


CRITERIA = (
    ("1 closed-form moments", c01_closed_form_moments),
    ("2 rho consistency", c02_rho_consistency),
    ("3 shape theorems", c03_shape_theorems),
    ("4 implicit/ODE residuals", c04_residuals),
    ("5 series vs closed form", c05_series_vs_closed_form),
    ("6 moment asymptotics", c06_moment_asymptotics),
    ("7 MGF asymptotics", c07_mgf_asymptotics),
    ("8a tail-ratio identity", c08a_tail_ratio_identity),
    ("8b density vs tail", c08b_density_vs_tail),
    ("9 Monte Carlo agreement", c09_monte_carlo),
    ("10 special-function identities", c10_specfun_identities),
    ("11 Hamburger refutation", c11_hamburger_refutation),
)


def run_all():
    """CriterionResult of every criterion, in the order of CRITERIA, passed a Python bool."""
    results = []
    for name, crit in CRITERIA:
        t0 = time.perf_counter()
        passed, detail = crit()
        results.append(CriterionResult(name, bool(passed), detail, time.perf_counter() - t0))
    return results
