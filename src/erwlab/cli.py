"""Command-line surface.

Every subcommand writes deterministic CSV/JSON (CSV floats to 17
significant digits, JSON floats as their shortest round-trip repr, sorted
metadata, seeds echoed in headers).  Exit codes: 0 success, 1 numeric
failure (any ErwLabError, a refused argument included, named on stderr),
2 usage error (argparse, or a check made before any work).
"""

import argparse
import math
import os
import re
import sys

import numpy as np

from . import acceptance, limitlaw, moments, specfun, walk
from .emit import fmt, write_csv, write_json
from .errors import DomainError, ErwLabError


class SystemExit2(SystemExit):
    """Usage error: prints the message and exits with status 2."""

    def __init__(self, message):
        print(f"error: {message}", file=sys.stderr)
        super().__init__(2)


def _params_from(args):
    if args.a is not None:
        return walk.ErwParams.from_a(args.a, q_first=args.q)
    return walk.ErwParams(p=args.p, q_first=args.q)


def _grid(spec):
    try:
        lo, hi, points = spec.split(",")
        lo, hi, points = float(lo), float(hi), int(points)
        if lo < hi and points >= 2:
            # an infinite end or spacing would give NaN or infinite points
            with np.errstate(over="raise", invalid="raise"):
                return np.linspace(lo, hi, points)
    except (ValueError, FloatingPointError):
        pass
    raise SystemExit2(
        f"grid must be lo,hi,points with lo < hi, points >= 2 and every point finite, got {spec!r}"
    )


def _threads(threads=None):
    try:
        return walk.resolve_threads(threads)
    except DomainError as exc:
        raise SystemExit2(str(exc)) from None


def cmd_dist(args):
    params = _params_from(args)
    if args.all_rows:
        rows = walk.iter_rows(params, args.n_max)
    else:
        rows = [walk.row_at(params, args.n_max)]
    # streamed to the writer: one row is held at a time
    entries = (
        (row.n, k, 2 * k - row.n, prob)
        for row in rows
        for k, prob in enumerate(row.probs.tolist(), row.k_lo)
    )
    write_csv(
        args.out,
        ("n", "k", "s", "prob"),
        entries,
        meta={"command": "dist", "p": params.p, "q_first": params.q_first, "n_max": args.n_max},
    )


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


def cmd_simulate(args):
    if args.bins < 0:
        raise SystemExit2(f"--bins must be >= 0, got {args.bins}")
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
        # a sample is S/n^a, one of at most n + 1 values, each formatted once;
        # never -0.0 or NaN (integer sums over a positive scale), so equal
        # values are equal doubles
        values = samples.tolist()
        text = {v: fmt(v) for v in set(values)}
        write_csv(args.out, ("sample",), zip(map(text.__getitem__, values)), meta=meta)


def cmd_moments(args):
    a = args.a
    table = moments.moment_sequence(a, args.n_max)
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
        meta={"command": "moments", "a": a, "n_max": args.n_max, "rho": table.rho},
    )


def cmd_rho(args):
    if args.grid is not None:
        rows = []
        for a in _grid(args.grid).tolist():
            rg = moments.rho(a)
            ri = moments.rho_integral(a)
            rows.append((a, rg, ri, abs(rg - ri)))
        write_csv(
            args.out,
            ("a", "rho_gamma", "rho_integral", "abs_diff"),
            rows,
            meta={"command": "rho", "grid": args.grid},
        )
        return
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


def cmd_limit(args):
    a = args.a
    r = moments.rho(a)
    grid = _grid(args.grid) if args.grid else np.linspace(0.05, 0.90, 18) / r
    rows = []
    for x in grid.tolist():
        g = limitlaw.genfun(a, x)
        res = limitlaw.residuals(a, x)
        rows.append((x, g.g, g.a_even, g.b, g.m, res.r_imp, res.r_m))
    write_csv(
        args.out,
        ("x", "G", "A", "B", "M", "r_imp", "r_M"),
        rows,
        meta={"command": "limit", "a": a, "rho": r},
    )


def cmd_tails(args):
    a = args.a
    grid = _grid(args.grid) if args.grid else np.linspace(0.5, 4.5, 33)
    ctx = moments.context(a)
    params = walk.ErwParams.from_a(a, q_first=args.q)
    row = walk.row_at(params, args.n)
    density = walk.scaled_density(row, a, grid)
    rows = []
    for x, f in zip(grid.tolist(), density.tolist()):
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


# --fn -> (number of --params, whether it has a high-precision mode,
# evaluation of (params, z, precision_digits))
_SPECFUN = {
    "gamma_ln": (0, False, lambda p, z, d: {"value": specfun.gamma_ln(z), "method": "lgamma"}),
    "hyp2f1": (3, False, lambda p, z, d: specfun.hyp2f1(*p, z).__dict__),
    "mittag_leffler": (
        1, True, lambda p, z, d: specfun.mittag_leffler(*p, z, precision_digits=d).__dict__),
    "prabhakar": (3, True, lambda p, z, d: specfun.prabhakar(*p, z, precision_digits=d).__dict__),
    "f": (1, False, lambda p, z, d: specfun.f_eval(*p, z).__dict__),
    "f_inverse": (
        1, False, lambda p, z, d: {"value": specfun.f_inverse(*p, z), "method": "bisect-newton"}),
}


def cmd_specfun(args):
    count, has_hp, evaluate = _SPECFUN[args.fn]
    if len(args.params) != count:
        raise SystemExit2(f"--fn {args.fn} takes {count} --params, got {len(args.params)}")
    if args.precision_digits < 0:
        raise SystemExit2(f"--precision-digits must be >= 0, got {args.precision_digits}")
    if args.precision_digits and not has_hp:
        raise SystemExit2(f"--fn {args.fn} has no high-precision mode: --precision-digits must be 0")
    out = evaluate(args.params, args.z, args.precision_digits)
    write_json(args.out, out, meta={"command": "specfun", "fn": args.fn, "z": args.z})


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


# argparse keywords of the options that several commands share
_SHARED = {
    "--out": {"default": "-"},
    "--a": {"type": float},
    "--q": {"type": float, "default": 1.0},
    "--n-max": {"type": int, "required": True},
    "--grid": {"help": "x grid as lo,hi,points"},
}


def _opt(flag, **keywords):
    return flag, {**_SHARED.get(flag, {}), **keywords}


# a list of options is a required group of mutually exclusive ones
_WALK = (
    [_opt("--a", help="memory scale a = 2p-1"),
     _opt("--p", type=float, help="memory parameter p")],
    _opt("--q", help="first-step parameter (default 1)"),
    _opt("--out", help="output path, '-' for stdout"),
)

# command -> (handler, help, options)
_COMMANDS = {
    "dist": (cmd_dist, "exact distribution rows as CSV (n,k,s,prob)", (
        *_WALK, _opt("--n-max", help="evolve rows up to this time"),
        _opt("--all-rows", action="store_true", help="emit every row, not just the last"))),
    "shape": (cmd_shape, "unimodality/log-concavity report per row", (*_WALK, _opt("--n-max"))),
    "simulate": (cmd_simulate, "Monte Carlo samples of n^(-a) S_n", (
        *_WALK,
        _opt("--n", type=int, required=True, help="walk length"),
        _opt("--count", type=int, required=True, help="number of trajectories"),
        _opt("--seed", type=int, required=True, help="64-bit stream seed"),
        _opt("--threads", type=int,
             help="worker threads (default: ERWLAB_THREADS or cpu count, max 4)"),
        _opt("--bins", type=int, default=0,
             help="emit a density histogram with this many bins instead of raw samples"))),
    "moments": (cmd_moments, "scaled moment table as CSV",
                (_opt("--a", required=True), _opt("--n-max"), _opt("--out"))),
    "rho": (cmd_rho, "growth-rate constants (JSON for one a, CSV on a grid)",
            ([_opt("--a"), _opt("--grid", help="lo,hi,points")], _opt("--out"))),
    "limit": (cmd_limit, "generating functions and residuals over an x-grid", (
        _opt("--a", required=True),
        _opt("--grid", help="x grid as lo,hi,points (default spans (0,0.9)/rho)"), _opt("--out"))),
    "tails": (cmd_tails, "tail asymptotes vs the exact finite-n density", (
        _opt("--a", required=True), _opt("--q"),
        _opt("--n", type=int, required=True, help="row used for the exact density column"),
        _opt("--grid"), _opt("--out"))),
    "specfun": (cmd_specfun, "evaluate one special function, JSON output", (
        _opt("--fn", required=True, choices=list(_SPECFUN)),
        _opt("--params", type=float, nargs="*", default=(),
             help="leading parameters: none for gamma_ln, alpha beta gamma for hyp2f1 and "
             "prabhakar, alpha for mittag_leffler, a for f and f_inverse"),
        _opt("--z", type=float, required=True),
        _opt("--precision-digits", type=int, default=0,
             help="0 = double precision, otherwise decimal digits of the high-precision mode "
             "(mittag_leffler and prabhakar only)"),
        _opt("--out"))),
    "check": (cmd_check, "run the full acceptance suite (exit 1 on any failure)", ()),
}


def _add_options(parser, options):
    for option in options:
        if isinstance(option, list):
            _add_options(parser.add_mutually_exclusive_group(required=True), option)
        else:
            parser.add_argument(option[0], **option[1])


# argparse reads a token that starts with "-" as an option unless it looks
# like a negative number to it, which "-2.5e-3" and "-inf" do not: no option
# of erwlab starts with "-" and a digit, ".", "inf" or "nan", so each such
# token is a value
_NEGATIVE_NUMBER = re.compile(r"-(\d|\.\d|inf(inity)?$|nan$)", re.IGNORECASE)


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    ap = argparse.ArgumentParser(
        prog="erwlab",
        description="Exact distributions, moments, special functions and tail "
        "laws of the superdiffusive memory walk.",
    )
    sub = ap.add_subparsers(dest="command", required=True)
    # the top-level parser takes no option but -h, so its first non-option
    # argument is the command: only that one gets its options
    chosen = next((arg for arg in argv if not arg.startswith("-")), None)
    for name, (_, summary, options) in _COMMANDS.items():
        sp = sub.add_parser(name, help=summary)
        sp._negative_number_matcher = _NEGATIVE_NUMBER
        if name == chosen:
            _add_options(sp, options)
    args = ap.parse_args(argv)
    # before any work, so an unwritable directory costs no computation
    folder = os.path.dirname(getattr(args, "out", "-"))  # check has no --out
    if not os.path.isdir(folder or "."):
        raise SystemExit2(f"--out names a file in {folder!r}, which is not a directory")
    try:
        # a handler returns an exit code only when it is not 0
        return _COMMANDS[args.command][0](args) or 0
    except ErwLabError as exc:
        print(f"numeric failure in '{args.command}': {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        # opening, writing or closing the output failed
        raise SystemExit2(f"cannot write the output: {exc}") from None


if __name__ == "__main__":
    sys.exit(main())
