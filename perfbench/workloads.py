"""The four benchmark workloads: seeded inputs, jobs and output checks.

A workload is a list of jobs.  Every job of one workload makes the same
erwlab calls on inputs of the same size, so job times are comparable and
per-job call counts must repeat exactly.  A job receives a ``Rep`` and
reports through it: checks on outputs, and the "core" calls whose work
(walk steps, row cells or public calls) per CPU second gives the
workload's rate.

Inputs come from ``numpy.random.default_rng(seed)`` only; erwlab sees
just the generated values.  Check oracles are independent of the code
under test where a closed form exists (``math.lgamma``, ``m_2 = a/(2a-1)``).
"""

import hashlib
import math
import time
from dataclasses import dataclass
from functools import partial

import numpy as np

from erwlab import cli, limitlaw, moments, specfun, walk

# criteria that fail at the parent commit and stay counted as failed
KNOWN_RED = {"c08b density vs tail at n=3000"}


class Rep:
    """Checks, core CPU time and report values of one job repetition."""

    def __init__(self, memory, tmpdir):
        self.memory = memory  # values that must repeat across repetitions
        self.tmpdir = tmpdir
        self.checks = []
        self.core_cpu_s = 0.0
        self.work = 0
        self.report = {}

    def check(self, name, ok):
        self.checks.append((name, bool(ok)))

    def same(self, name, value):
        """Check that ``value`` equals what earlier repetitions produced."""
        self.check(f"repeat {name}", self.memory.setdefault(name, value) == value)

    def core(self, work, fn, *args, **kwargs):
        t0 = time.process_time()
        out = fn(*args, **kwargs)
        self.core_cpu_s += time.process_time() - t0
        self.work += work
        return out


@dataclass
class Workload:
    jobs: list
    warm: object  # warm(tmpdir): first calls on small inputs
    prepare: object = None  # prepare(rep): untimed checks before measuring
    # whether job CPU time follows the calibration kernel (run.calibration_s)
    calibrated: bool = True


def _sha(array):
    return hashlib.sha256(np.ascontiguousarray(array).tobytes()).hexdigest()


def _ks(samples, row, a):
    """KS distance between samples of n^(-a) S_n and an exact row (c09)."""
    atoms = row.scaled_support(a)
    exact_cdf = np.cumsum(row.probs)
    srt = np.sort(samples)
    emp_le = np.searchsorted(srt, atoms, side="right") / len(srt)
    emp_lt = np.searchsorted(srt, atoms, side="left") / len(srt)
    return float(
        np.maximum(
            np.abs(emp_le - exact_cdf),
            np.abs(emp_lt - np.concatenate([[0.0], exact_cdf[:-1]])),
        ).max()
    )


def _ks_bound(count):
    return 3.0 * math.sqrt(math.log(2.0 / 1e-3) / (2.0 * count))


def _check_rows(rep, label, rows, symmetric):
    rep.check(f"{label} rows sum to 1",
              max(abs(float(r.probs.sum()) - 1.0) for r in rows) < 1e-12)
    if symmetric:
        rep.check(f"{label} mixture rows symmetric",
                  all(np.array_equal(r.probs, r.probs[::-1]) for r in rows))


def _read_csv(path):
    """Header and data lines of an erwlab CSV, '#' metadata dropped."""
    lines = [ln for ln in path.read_bytes().split(b"\n") if ln and not ln.startswith(b"#")]
    return lines[0].decode(), lines[1:]


# ---------------------------------------------------------------------------
# mc_long: the simulator's per-step fill, gather and reduce at n = 1e4

MC_LONG_N = 10_000
# two simulator chunks of 3000 trajectories each, so both threads work
MC_LONG_COUNT = 6_000
# determinism config: the simulator splits it into chunks of 15000 and 1000
DET_N, DET_COUNT = 2_000, 16_000


def _mc_long_job(a, seed, threads, rep):
    params = walk.ErwParams.from_a(a)
    samples = rep.core(MC_LONG_N * MC_LONG_COUNT, walk.simulate_terminal,
                       params, MC_LONG_N, MC_LONG_COUNT, seed, threads=threads)
    rep.same(f"simulate sha256 a={a}", _sha(samples))
    # c09 pulls: mean against 1/Gamma(1+a); second moment against
    # E[L^2] = 2 m_2 / Gamma(1+2a), m_2 = a/(2a-1), only for a >= 0.8
    se = samples.std(ddof=1) / math.sqrt(len(samples))
    pull = abs(samples.mean() - math.exp(-math.lgamma(1.0 + a))) / se
    rep.check(f"c09 mean pull a={a}", pull < 3.0)
    rep.report[f"pull a={a}"] = pull
    if a >= 0.8:
        sq = samples * samples
        second = 2.0 * a / (2.0 * a - 1.0) * math.exp(-math.lgamma(1.0 + 2.0 * a))
        pull2 = abs(sq.mean() - second) / (sq.std(ddof=1) / math.sqrt(len(sq)))
        rep.check(f"c09 second-moment pull a={a}", pull2 < 3.0)
        rep.report[f"pull2 a={a}"] = pull2


def mc_long(seed, threads):
    rng = np.random.default_rng(seed)
    seeds = [int(s) for s in rng.integers(0, 2**63, size=4)]
    det = walk.ErwParams.from_a(0.8, q_first=0.5)

    def warm(tmpdir):
        walk.simulate_terminal(walk.ErwParams.from_a(0.75), 100, 200, seeds[3], threads=threads)

    def prepare(rep):
        # simulator determinism: thread count must not change the output
        one = _sha(walk.simulate_terminal(det, DET_N, DET_COUNT, seeds[3], threads=1))
        two = _sha(walk.simulate_terminal(det, DET_N, DET_COUNT, seeds[3], threads=threads))
        rep.check("simulate sha256 threads=1 vs threads=2", one == two)
        rep.report["determinism"] = {
            "config": f"a=0.8 q_first=0.5 n={DET_N} count={DET_COUNT}",
            "sha256_threads_1": one, f"sha256_threads_{threads}": two,
        }

    jobs = [partial(_mc_long_job, a, s, threads) for a, s in zip((0.75, 0.8, 0.9), seeds)]
    # two threads limited by memory bandwidth: their CPU time follows memory
    # contention, not the interpreter speed the calibration kernel measures
    return Workload(jobs, warm, prepare, calibrated=False)


# ---------------------------------------------------------------------------
# mc_short: `erwlab simulate` at n = 200, where per-trajectory stream set-up
# dominates, with raw samples written by emit and read back

MC_SHORT_N = 200
MC_SHORT_COUNT = 10_000
MC_SHORT_CONFIGS = ((0.75, 1.0), (0.8, 1.0), (0.9, 1.0), (0.8, 0.5))


def _simulate_cli(params, n, count, seed, threads, path):
    return cli.main(["simulate", "--p", repr(params.p), "--q", repr(params.q_first),
                     "--n", str(n), "--count", str(count), "--seed", str(seed),
                     "--threads", str(threads), "--out", str(path)])


def _mc_short_job(seeds, threads, rep):
    bound = _ks_bound(MC_SHORT_COUNT)
    for (a, q), seed in zip(MC_SHORT_CONFIGS, seeds):
        label = f"a={a} q={q}"
        params = walk.ErwParams.from_a(a, q_first=q)
        path = rep.tmpdir / f"simulate_{a}_{q}.csv"
        code = rep.core(MC_SHORT_N * MC_SHORT_COUNT, _simulate_cli,
                        params, MC_SHORT_N, MC_SHORT_COUNT, seed, threads, path)
        rep.check(f"simulate exit code {label}", code == 0)
        header, lines = _read_csv(path)
        samples = np.array(lines, dtype="S").astype(np.float64)
        rep.same(f"simulate csv sha256 {label}", hashlib.sha256(path.read_bytes()).hexdigest())
        rep.check(f"simulate csv shape {label}",
                  header == "sample" and len(samples) == MC_SHORT_COUNT)
        rows = walk.evolve_distribution(params, MC_SHORT_N)
        _check_rows(rep, label, rows, symmetric=(q == 0.5))
        # c09 KS against the exact row; atoms scaled with params.a like the samples
        ks = _ks(samples, rows[-1], params.a)
        rep.check(f"c09 ks {label}", ks < bound)
        rep.report[f"ks {label}"] = ks
    rep.report["ks bound"] = bound


def mc_short(seed, threads):
    rng = np.random.default_rng(seed)
    seeds = [int(s) for s in rng.integers(0, 2**63, size=len(MC_SHORT_CONFIGS))]

    def warm(tmpdir):
        params = walk.ErwParams.from_a(0.8, q_first=0.5)
        _simulate_cli(params, 20, 100, seeds[0], threads, tmpdir / "warm.csv")
        walk.evolve_distribution(params, 20)

    return Workload([partial(_mc_short_job, seeds, threads)], warm)


# ---------------------------------------------------------------------------
# exact_rows: exact recurrence to n = 1e4, row storage, Python-looped
# check_shape, and the shape/tails commands

ROWS_A = 0.75
ROWS_N = 10_000
DEV_AT = (1_000, 3_000, 10_000)
SHAPE_N = 500
SHAPE_P = 8
ROOT_TARGETS = (0.61803, 0.63606, 0.67060, 0.68408)


def _log_deviation(row, a, ctx):
    """max |log f_n / log tail+ - 1| on the density band [1e-8, 1e-3] (c08b)."""
    x = row.scaled_support(a).astype(float)
    f = float(row.n) ** a * row.probs / 2.0
    mask = (f >= 1e-8) & (f <= 1e-3) & (x > 0)
    lt = np.array([limitlaw.tail(ctx, float(v), "positive", log=True) for v in x[mask]])
    return float(np.abs(np.log(f[mask]) / lt - 1.0).max())


def _exact_rows_job(p_grid, rep):
    a = ROWS_A
    rows = rep.core(ROWS_N * (ROWS_N + 1) // 2, walk.evolve_distribution,
                    walk.ErwParams(p=(1.0 + a) / 2.0), ROWS_N)
    _check_rows(rep, f"a={a}", rows, symmetric=False)
    ctx = moments.context(a)
    dev = {n: _log_deviation(rows[n - 1], a, ctx) for n in DEV_AT}
    del rows
    rep.check("c08b density vs tail at n=3000", dev[3000] < 0.15 and dev[3000] < dev[1000])
    rep.report["c08b deviation"] = {str(n): v for n, v in dev.items()}

    for p in p_grid:
        rows = walk.evolve_distribution(walk.ErwParams(p=p), SHAPE_N)
        rep.check(f"c03 unimodal rows n<={SHAPE_N} p={p:.4f}",
                  all(walk.check_shape(row).unimodal for row in rows))
    roots = [walk.log_concavity_root(q) for q in range(4)]
    rep.check("c03 threshold roots",
              all(abs(r - t) < 5e-5 for r, t in zip(roots, ROOT_TARGETS)))

    shape = rep.tmpdir / "shape.csv"
    code = cli.main(["shape", "--p", repr(p_grid[0]), "--n-max", str(SHAPE_N), "--out", str(shape)])
    header, lines = _read_csv(shape)
    rep.check("shape command", code == 0 and len(lines) == SHAPE_N
              and all(ln.split(b",")[1] == b"1" for ln in lines))
    tails = rep.tmpdir / "tails.csv"
    code = cli.main(["tails", "--a", repr(a), "--n", "3000", "--out", str(tails)])
    header, lines = _read_csv(tails)
    rep.check("tails command", code == 0 and len(lines) == 33 and all(
        math.isfinite(float(v)) for ln in lines for v in ln.split(b",")[:3]))


def exact_rows(seed, threads):
    rng = np.random.default_rng(seed)
    # one p per stratum of [0.6, 0.95], the range of criterion c03
    width = 0.35 / SHAPE_P
    p_grid = [float(0.6 + (i + u) * width) for i, u in enumerate(rng.random(SHAPE_P))]

    def warm(tmpdir):
        rows = walk.evolve_distribution(walk.ErwParams(p=p_grid[0]), 50)
        walk.check_shape(rows[-1])
        limitlaw.tail(moments.context(ROWS_A), 1.0, "positive", log=True)
        cli.main(["shape", "--p", "0.8", "--n-max", "20", "--out", str(tmpdir / "warm.csv")])

    return Workload([partial(_exact_rows_job, p_grid)], warm)


# ---------------------------------------------------------------------------
# analytic: specfun, rootfind, quadrature, moments and limitlaw; no walk

A_LO, A_HI = 0.55, 0.95
RESIDUAL_POINTS = 48
INVERSE_POINTS = 48
MGF_POINTS = 12
SERIES_POINTS = 16


def _strata(rng, lo, hi, k):
    """One uniform draw in each of k equal strata of [lo, hi]."""
    return lo + (np.arange(k) + rng.random(k)) * (hi - lo) / k


def _analytic_job(inp, rep):
    call = partial(rep.core, 1)
    # c04: residuals of the defining equations (genfun -> f_inverse -> f_eval)
    worst_imp = worst_rel = 0.0
    for a, frac in inp["residuals"]:
        res = call(limitlaw.residuals, a, frac / call(moments.rho, a))
        worst_imp = max(worst_imp, abs(res.r_imp))
        worst_rel = max(worst_rel, res.r_m_rel, res.r_sys_rel, res.r_b_rel)
        rep.check(f"c04 residuals a={a:.4f} x={frac:.4f}/rho",
                  abs(res.r_imp) < 1e-9 and max(res.r_m_rel, res.r_sys_rel, res.r_b_rel) < 1e-5)
    rep.report["c04 worst r_imp"] = worst_imp
    rep.report["c04 worst rel"] = worst_rel

    # F(F^-1(y)) = y across both asymptotic regimes of y
    for a, y in inp["inverse"]:
        x = call(specfun.f_inverse, a, y)
        back = call(specfun.f_eval, a, x).value
        rep.check(f"F(F^-1(y)) a={a:.4f} y={y:.3g}", abs(back - y) <= 1e-11 * max(1.0, y))

    # moment recurrence far out, and the Hamburger refutation (c11)
    a = inp["moment_a"]
    table = call(moments.moment_sequence, a, 5000)
    rep.check(f"moment ratio n=5000 a={a:.4f}", abs(table.asymptotic_ratio(5000) - 1.0) < 0.02)
    signs = call(moments.hankel_test, call(moments.moment_sequence, 2.0 / 3.0, 30), 15)
    rep.check("c11 negative Hankel determinant", any(s < 0 for _, s in signs))

    # c02: the two rho routes, and the constant bundle
    for a in inp["rho"]:
        rho = call(moments.rho, a)
        ctx = call(moments.context, a)
        rep.check(f"c02 rho routes a={a:.4f}",
                  abs(rho - call(moments.rho_integral, a)) < 1e-8 and ctx.rho == rho)

    # Psi in double precision; one point against the high-precision mode
    for a, r in inp["mgf"]:
        v = call(limitlaw.psi_mgf, a, r)
        rep.check(f"psi_mgf finite a={a:.4f} r={r:.3f}",
                  all(math.isfinite(t) for t in (v.psi, v.omega, v.xi, v.eta)))
    a, r = inp["mgf_hp"]
    dbl = call(limitlaw.psi_mgf, a, r).psi
    hp = call(limitlaw.psi_mgf, a, r, precision_digits=30).psi
    rep.check(f"psi_mgf double vs hp a={a:.4f} r={r:.3f}", abs(dbl - hp) <= 1e-9 * abs(hp))

    # Prabhakar / Mittag-Leffler in double and high precision
    for i, (alpha, beta, gam, z) in enumerate(inp["series"]):
        dbl = call(specfun.prabhakar, alpha, beta, gam, z).value
        ml = call(specfun.mittag_leffler, alpha, z).value
        rep.check(f"series finite alpha={alpha:.4f} z={z:.3f}",
                  math.isfinite(dbl) and math.isfinite(ml))
        if i % 4 == 0:
            hp = call(specfun.prabhakar, alpha, beta, gam, z, precision_digits=30).value
            ml_hp = call(specfun.mittag_leffler, alpha, z, precision_digits=30).value
            rep.check(f"series double vs hp alpha={alpha:.4f} z={z:.3f}",
                      abs(dbl - hp) <= 1e-9 * max(1.0, abs(hp))
                      and abs(ml - ml_hp) <= 1e-9 * max(1.0, abs(ml_hp)))

    # c10 identities, all within 1e-9
    errs = [
        abs(call(specfun.mittag_leffler, 1.0, 1.0).value - math.e),
        abs(call(specfun.prabhakar, 0.75, 1.0, 1.0, 2.0).value
            - call(specfun.mittag_leffler, 0.75, 2.0).value),
        abs(call(specfun.mittag_leffler, 0.5, 1.0).value - 5.008980080762283),
    ]
    for a, z in ((2.0 / 3.0, 2.0), (0.75, 0.6), (0.75, 1.4)):
        quad = call(specfun.f_eval, a, z, method="quadrature").value
        errs.append(abs(call(specfun.f_eval, a, z).value - quad))
        h = call(specfun.hyp2f1, 0.5, 0.5 + 0.5 / a, 1.5 + 0.5 / a, -1.0 / (z * z))
        errs.append(abs(z ** (-1.0 - 1.0 / a) / (a + 1.0) * h.value - quad))
    rep.check("c10 special-function identities", max(errs) < 1e-9)


def analytic(seed, threads):
    rng = np.random.default_rng(seed)
    # c04's x range: fractions of 1/rho_a in [0.95/51, 0.95 * 50/51]
    res_a = _strata(rng, A_LO, A_HI, RESIDUAL_POINTS)
    res_x = rng.permutation(_strata(rng, 0.95 / 51.0, 0.95 * 50.0 / 51.0, RESIDUAL_POINTS))
    inv_a = _strata(rng, A_LO, A_HI, INVERSE_POINTS)
    # y from 1e-3 (large-x regime) to 1e3 (small-x regime), log-stratified
    inv_y = rng.permutation(10.0 ** _strata(rng, -3.0, 3.0, INVERSE_POINTS))
    mgf_a = _strata(rng, 0.6, 0.9, MGF_POINTS)
    mgf_r = rng.permutation(_strata(rng, -10.0, 10.0, MGF_POINTS))
    ser_alpha = _strata(rng, 0.5, 1.0, SERIES_POINTS)
    # z >= -3 keeps every alpha in [0.5, 1] inside the double-precision window
    ser_z = rng.permutation(_strata(rng, -3.0, 5.0, SERIES_POINTS))
    inp = {
        "residuals": [(float(a), float(x)) for a, x in zip(res_a, res_x)],
        "inverse": [(float(a), float(y)) for a, y in zip(inv_a, inv_y)],
        "moment_a": float(_strata(rng, 0.6, 0.9, 1)[0]),
        "rho": [float(a) for a in _strata(rng, A_LO, A_HI, 9)],
        "mgf": [(float(a), float(r)) for a, r in zip(mgf_a, mgf_r)],
        "mgf_hp": (float(_strata(rng, 0.6, 0.9, 1)[0]), float(_strata(rng, -2.0, 2.0, 1)[0])),
        "series": [(float(al), 1.0 + float(b), 0.5 + float(g), float(z))
                   for al, b, g, z in zip(ser_alpha, rng.random(SERIES_POINTS),
                                          rng.random(SERIES_POINTS), ser_z)],
    }

    def warm(tmpdir):
        limitlaw.residuals(0.75, 0.3 / moments.rho(0.75))
        limitlaw.psi_mgf(0.75, 0.5)
        specfun.prabhakar(0.75, 1.0, 1.0, 0.5, precision_digits=30)
        moments.rho_integral(0.75)

    return Workload([partial(_analytic_job, inp)], warm)


WORKLOADS = {"mc_long": mc_long, "mc_short": mc_short, "exact_rows": exact_rows, "analytic": analytic}
