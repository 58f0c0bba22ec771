"""Command-line surface.

Every subcommand writes deterministic CSV/JSON (17-significant-digit
floats, '#'-prefixed sorted metadata, seeds echoed in headers).  Exit
codes: 0 success, 1 numeric failure (failing check named on stderr),
2 usage error (argparse).
"""

import argparse
import math
import sys

import numpy as np

from . import acceptance, limitlaw, moments, specfun, walk
from .emit import write_csv, write_json
from .errors import ErwLabError


class SystemExit2(SystemExit):
    """Usage error: prints the message and exits with status 2."""

    def __init__(self, message):
        print(f"error: {message}", file=sys.stderr)
        super().__init__(2)


def _params_from(args):
    if args.a is not None:
        return walk.ErwParams.from_a(args.a, q_first=args.q)
    return walk.ErwParams(p=args.p, q_first=args.q)


def _add_param_opts(sp):
    one = sp.add_mutually_exclusive_group(required=True)
    one.add_argument("--a", type=float, help="memory scale a = 2p-1")
    one.add_argument("--p", type=float, help="memory parameter p")
    sp.add_argument("--q", type=float, default=1.0, help="first-step parameter (default 1)")
    sp.add_argument("--out", default="-", help="output path, '-' for stdout")


def _grid(spec):
    try:
        lo, hi, points = spec.split(",")
        lo, hi, points = float(lo), float(hi), int(points)
    except ValueError:
        raise SystemExit2(f"grid must be lo,hi,points, got {spec!r}") from None
    if not (lo < hi and points >= 2):
        raise SystemExit2("grid must be lo,hi,points with lo < hi and points >= 2")
    return np.linspace(lo, hi, points)


def _threads(threads=None):
    try:
        return walk.resolve_threads(threads)
    except ValueError as exc:
        raise SystemExit2(str(exc)) from None


def cmd_dist(args):
    params = _params_from(args)
    if args.all_rows:
        rows = walk.iter_rows(params, args.n_max)
    else:
        rows = [walk.row_at(params, args.n_max)]
    # streamed to the writer: one row is held at a time
    entries = (
        (row.n, k, 2 * k - row.n, float(prob))
        for row in rows
        for k, prob in zip(range(row.k_lo, row.k_lo + len(row.probs)), row.probs)
    )
    write_csv(
        args.out,
        ("n", "k", "s", "prob"),
        entries,
        meta={"command": "dist", "p": params.p, "q_first": params.q_first, "n_max": args.n_max},
    )
    return 0


def cmd_shape(args):
    params = _params_from(args)

    def reports(rows):
        for row in rows:
            rep = walk.check_shape(row)
            yield (
                row.n,
                rep.unimodal,
                rep.mode_lo,
                rep.mode_hi,
                rep.log_concave,
                rep.first_violation if rep.first_violation is not None else "",
            )

    write_csv(
        args.out,
        ("n", "unimodal", "mode_lo", "mode_hi", "log_concave", "first_violation"),
        reports(walk.iter_rows(params, args.n_max)),
        meta={"command": "shape", "p": params.p, "q_first": params.q_first, "n_max": args.n_max},
    )
    return 0


def cmd_simulate(args):
    params = _params_from(args)
    samples = walk.simulate_terminal(
        params, args.n, args.count, seed=args.seed, threads=_threads(args.threads)
    )
    meta = {
        "command": "simulate",
        "p": params.p,
        "q_first": params.q_first,
        "n": args.n,
        "count": args.count,
        "seed": args.seed,
    }
    if args.bins > 0:
        hist, edges = np.histogram(samples, bins=args.bins, density=True)
        rows = [(edges[i], edges[i + 1], hist[i]) for i in range(len(hist))]
        write_csv(args.out, ("x_left", "x_right", "density"), rows, meta=meta)
    else:
        write_csv(args.out, ("sample",), [(s,) for s in samples], meta=meta)
    return 0


def cmd_moments(args):
    a = args.a
    table = moments.moment_sequence(a, args.n_max)
    ctx = moments.context(a)
    rows = []
    log10 = math.log(10.0)
    for n in range(args.n_max + 1):
        m_log10 = (math.log(table.scaled[n]) + n * math.log(table.rho)) / log10
        lm_log10 = moments.limit_moment_ln(a, n, table) / log10 if n >= 1 else 0.0
        rows.append((n, float(table.scaled[n]), m_log10, lm_log10, table.asymptotic_ratio(n)))
    write_csv(
        args.out,
        ("n", "m_scaled", "m_log10", "limit_moment_log10", "asympt_ratio"),
        rows,
        meta={"command": "moments", "a": a, "n_max": args.n_max, "rho": ctx.rho},
    )
    return 0


def cmd_rho(args):
    if args.grid is not None:
        rows = []
        for a in _grid(args.grid):
            a = float(a)
            rg = moments.rho(a)
            ri = moments.rho_integral(a)
            rows.append((a, rg, ri, abs(rg - ri)))
        write_csv(
            args.out,
            ("a", "rho_gamma", "rho_integral", "abs_diff"),
            rows,
            meta={"command": "rho", "grid": args.grid},
        )
        return 0
    ctx = moments.context(args.a)
    write_json(
        args.out,
        {
            "a": ctx.a,
            "rho": ctx.rho,
            "rho_integral": moments.rho_integral(ctx.a),
            "kappa": ctx.kappa,
            "delta": ctx.delta,
            "c_pos": ctx.c_pos,
            "c_neg": ctx.c_neg,
        },
        meta={"command": "rho", "a": args.a},
    )
    return 0


def cmd_limit(args):
    a = args.a
    r = moments.rho(a)
    grid = _grid(args.grid) if args.grid else np.linspace(0.05, 0.90, 18) / r
    rows = []
    for x in grid:
        x = float(x)
        g = limitlaw.genfun(a, x)
        res = limitlaw.residuals(a, x)
        rows.append((x, g.g, g.a_even, g.b, g.m, res.r_imp, res.r_m))
    write_csv(
        args.out,
        ("x", "G", "A", "B", "M", "r_imp", "r_M"),
        rows,
        meta={"command": "limit", "a": a, "rho": r},
    )
    return 0


def cmd_tails(args):
    a = args.a
    ctx = moments.context(a)
    params = walk.ErwParams.from_a(a, q_first=args.q)
    row = walk.row_at(params, args.n)
    density = walk.scaled_density(row, a)
    grid = _grid(args.grid) if args.grid else np.linspace(0.5, 4.5, 33)
    rows = []
    for x in grid:
        x = float(x)
        f = float(density.pdf(x))
        rows.append(
            (
                x,
                limitlaw.tail(ctx, x, "positive", q=args.q, log=True),
                limitlaw.tail(ctx, x, "negative", q=args.q, log=True),
                math.log(f) if f > 0.0 else float("-inf"),
            )
        )
    write_csv(
        args.out,
        ("x", "tail_pos_log", "tail_neg_log", "exact_density_log"),
        rows,
        meta={"command": "tails", "a": a, "q_first": args.q, "n": args.n},
    )
    return 0


def cmd_specfun(args):
    p = args.params or []
    try:
        if args.fn == "gamma_ln":
            out = {"value": specfun.gamma_ln(args.z), "method": "lgamma"}
        elif args.fn == "digamma":
            out = {"value": specfun.digamma(args.z), "method": "asymptotic"}
        elif args.fn == "hyp2f1":
            ev = specfun.hyp2f1(p[0], p[1], p[2], args.z)
            out = ev.__dict__
        elif args.fn == "mittag_leffler":
            ev = specfun.mittag_leffler(p[0], args.z, precision_digits=args.precision_digits)
            out = ev.__dict__
        elif args.fn == "prabhakar":
            ev = specfun.prabhakar(p[0], p[1], p[2], args.z, precision_digits=args.precision_digits)
            out = ev.__dict__
        elif args.fn == "f":
            ev = specfun.f_eval(p[0], args.z)
            out = ev.__dict__
        else:  # f_inverse
            out = {"value": specfun.f_inverse(p[0], args.z), "method": "bisect-newton"}
    except IndexError:
        raise SystemExit2(f"--params is too short for {args.fn}")
    write_json(args.out, dict(out), meta={"command": "specfun", "fn": args.fn, "z": args.z})
    return 0


def cmd_check(args):
    _threads()  # a bad ERWLAB_THREADS is a usage error before any criterion runs
    results = acceptance.run_all()
    width = max(len(r.name) for r in results)
    failed = []
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        print(f"{r.name:<{width}}  {status}  [{r.seconds:7.2f}s]  {r.detail}")
        if not r.passed:
            failed.append(r.name)
    if failed:
        print(f"FAILED criteria: {', '.join(failed)}", file=sys.stderr)
        return 1
    return 0


def build_parser():
    ap = argparse.ArgumentParser(
        prog="erwlab",
        description="Exact distributions, moments, special functions and tail "
        "laws of the superdiffusive memory walk.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("dist", help="exact distribution rows as CSV (n,k,s,prob)")
    _add_param_opts(sp)
    sp.add_argument("--n-max", type=int, required=True, help="evolve rows up to this time")
    sp.add_argument("--all-rows", action="store_true", help="emit every row, not just the last")
    sp.set_defaults(func=cmd_dist)

    sp = sub.add_parser("shape", help="unimodality/log-concavity report per row")
    _add_param_opts(sp)
    sp.add_argument("--n-max", type=int, required=True)
    sp.set_defaults(func=cmd_shape)

    sp = sub.add_parser("simulate", help="Monte Carlo samples of n^(-a) S_n")
    _add_param_opts(sp)
    sp.add_argument("--n", type=int, required=True, help="walk length")
    sp.add_argument("--count", type=int, required=True, help="number of trajectories")
    sp.add_argument("--seed", type=int, required=True, help="64-bit stream seed")
    sp.add_argument("--threads", type=int, default=None,
                    help="worker threads (default: ERWLAB_THREADS or cpu count, max 4)")
    sp.add_argument("--bins", type=int, default=0,
                    help="emit a density histogram with this many bins instead of raw samples")
    sp.set_defaults(func=cmd_simulate)

    sp = sub.add_parser("moments", help="scaled moment table as CSV")
    sp.add_argument("--a", type=float, required=True)
    sp.add_argument("--n-max", type=int, required=True)
    sp.add_argument("--out", default="-")
    sp.set_defaults(func=cmd_moments)

    sp = sub.add_parser("rho", help="growth-rate constants (JSON for one a, CSV on a grid)")
    one = sp.add_mutually_exclusive_group(required=True)
    one.add_argument("--a", type=float)
    one.add_argument("--grid", help="lo,hi,points")
    sp.add_argument("--out", default="-")
    sp.set_defaults(func=cmd_rho)

    sp = sub.add_parser("limit", help="generating functions and residuals over an x-grid")
    sp.add_argument("--a", type=float, required=True)
    sp.add_argument("--grid", default=None, help="x grid as lo,hi,points (default spans (0,0.9)/rho)")
    sp.add_argument("--out", default="-")
    sp.set_defaults(func=cmd_limit)

    sp = sub.add_parser("tails", help="tail asymptotes vs the exact finite-n density")
    sp.add_argument("--a", type=float, required=True)
    sp.add_argument("--q", type=float, default=1.0)
    sp.add_argument("--n", type=int, required=True, help="row used for the exact density column")
    sp.add_argument("--grid", default=None, help="x grid as lo,hi,points")
    sp.add_argument("--out", default="-")
    sp.set_defaults(func=cmd_tails)

    sp = sub.add_parser("specfun", help="evaluate one special function, JSON output")
    sp.add_argument("--fn", required=True,
                    choices=["gamma_ln", "digamma", "hyp2f1", "mittag_leffler",
                             "prabhakar", "f", "f_inverse"])
    sp.add_argument("--params", type=float, nargs="*", default=[],
                    help="leading parameters (e.g. alpha beta gamma)")
    sp.add_argument("--z", type=float, required=True)
    sp.add_argument("--precision-digits", type=int, default=0,
                    help="0 = double precision, otherwise decimal digits of the high-precision mode")
    sp.add_argument("--out", default="-")
    sp.set_defaults(func=cmd_specfun)

    sp = sub.add_parser("check", help="run the full acceptance suite (exit 1 on any failure)")
    sp.set_defaults(func=cmd_check)
    return ap


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ErwLabError, ValueError) as exc:
        print(f"numeric failure in '{args.command}': {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
