import hashlib
import json
import math
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from erwlab import cli, moments, specfun, walk


def run(argv):
    return cli.main(argv)


def read_csv(path):
    meta = {}
    rows = []
    header = None
    for line in path.read_text().splitlines():
        if line.startswith("#"):
            key, _, val = line[1:].strip().partition("=")
            meta[key] = val
            continue
        if header is None:
            header = line.split(",")
            continue
        rows.append(line.split(","))
    return meta, header, rows


def test_dist_row_sums_to_one(tmp_path):
    out = tmp_path / "dist.csv"
    assert run(["dist", "--p", "0.8", "--n-max", "40", "--out", str(out)]) == 0
    meta, header, rows = read_csv(out)
    assert header == ["n", "k", "s", "prob"]
    assert len(rows) == 40
    assert abs(sum(float(r[3]) for r in rows) - 1.0) < 1e-12
    assert meta["command"] == "dist"


def test_dist_all_rows(tmp_path):
    out = tmp_path / "dist.csv"
    run(["dist", "--a", "0.6", "--n-max", "5", "--all-rows", "--out", str(out)])
    _, _, rows = read_csv(out)
    assert len(rows) == 1 + 2 + 3 + 4 + 5


def test_dist_all_rows_csv_sha256(tmp_path):
    out = tmp_path / "dist.csv"
    args = ["dist", "--p", "0.8", "--q", "0.4", "--n-max", "400", "--all-rows"]
    assert run(args + ["--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == (
        "931501a51f2d58b3563e89818f49e34aa85d16aee261d94d48c665c1a18eb22f"
    )


def test_dist_all_rows_streams(tmp_path):
    # the 80 200 entries at n_max = 400 take about 10 MB as Python tuples;
    # streamed, the writer holds one row and the recurrence's scratch
    out = tmp_path / "dist.csv"
    args = ["dist", "--p", "0.8", "--n-max", "400", "--all-rows", "--out", str(out)]
    tracemalloc.start()
    try:
        assert run(args) == 0
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000


def test_shape_report(tmp_path):
    out = tmp_path / "shape.csv"
    assert run(["shape", "--a", "0.7", "--n-max", "30", "--out", str(out)]) == 0
    _, header, rows = read_csv(out)
    assert header[:2] == ["n", "unimodal"]
    assert all(r[1] == "1" for r in rows)


# SHA-256 of the whole shape CSV: q_first = 1 rows past the log-concavity
# threshold, a mixture row, p > 0.85 and p < 1/2
@pytest.mark.parametrize(
    "args, digest",
    [
        (["--a", "0.7", "--n-max", "2000"],
         "5d60e8a179690d9e422e338320e1392f19c2d67d655bf3d150c1cfad385d8c23"),
        (["--p", "0.8", "--q", "0.4", "--n-max", "300"],
         "d18296c110ad1afee08910ed041c9eecb459dbdaa3b6a4774069915f38426a15"),
        (["--p", "0.9", "--n-max", "400"],
         "678f2fed2d973996363ac47e36db15010f6c9350d7543c684b7877c9415f9dc6"),
        (["--p", "0.3", "--n-max", "300"],
         "2925658e8dc93a486df8e94e9f4adae7e80d11be279d2aee36f37acfca25d0e1"),
    ],
    ids=["a0.7-n2000", "p0.8-q0.4-n300", "p0.9-n400", "p0.3-n300"],
)
def test_shape_csv_sha256(tmp_path, args, digest):
    out = tmp_path / "shape.csv"
    assert run(["shape"] + args + ["--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


def test_simulate_deterministic_bytes(tmp_path):
    args = ["simulate", "--p", "0.9", "--n", "200", "--count", "300",
            "--seed", "7", "--threads", "2"]
    out1 = tmp_path / "s1.csv"
    out2 = tmp_path / "s2.csv"
    assert run(args + ["--out", str(out1)]) == 0
    assert run(args + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    meta, header, rows = read_csv(out1)
    assert meta["seed"] == "7"
    assert header == ["sample"]
    assert len(rows) == 300


# SHA-256 of whole CSVs from every writer not pinned elsewhere: raw
# samples (the same bytes at 1, 2 and 3 threads, seed at the top of the
# key range), a histogram, the moment table, the rho grid, the limit grid,
# a single mixture row of dist, and two tails grids on mixture rows, one
# at n = 2 (k_lo = 0) with points beyond the support
_SIMULATE_ARGS = ["simulate", "--p", "0.85", "--q", "0.7", "--n", "301", "--count", "700",
                  "--seed", str(2**64 - 1)]
_SIMULATE_SHA256 = "09e70999b92407ea32d3d9fdcf8d16a7a942331246c341a8e528d22df2159ced"


@pytest.mark.parametrize(
    "args, digest",
    [
        (_SIMULATE_ARGS + ["--threads", "1"], _SIMULATE_SHA256),
        (_SIMULATE_ARGS + ["--threads", "2"], _SIMULATE_SHA256),
        (_SIMULATE_ARGS + ["--threads", "3"], _SIMULATE_SHA256),
        (["simulate", "--p", "0.92", "--n", "500", "--count", "2000", "--seed", "7",
          "--bins", "24", "--threads", "3"],
         "2c45c9317e7db77400f876d1d044ca817a8098c9ec910a14070ab6f04421f3fb"),
        (["moments", "--a", "0.6667", "--n-max", "400"],
         "817c564871bd83226ad8548b9a936c0f338c2970bad1417135783787ca9fa3b8"),
        (["rho", "--grid", "0.55,0.95,9"],
         "54544278c6e4a2914c469bb09084a71af64d9cf03b9a0c0a385d2bcb3686b912"),
        (["limit", "--a", "0.7"],
         "ba15bbc9b2232ef1bb50d5e7e9c235dd736ad49e736a1a2590c686e37b420253"),
        (["dist", "--p", "0.8", "--q", "0.4", "--n-max", "300"],
         "534a06b0542dd630e13f41367c560655a73fa54260422d1138c99aa11e9337ab"),
        (["tails", "--a", "0.6", "--q", "0.5", "--n", "2", "--grid", "0.001,3,41"],
         "237c4d7d591013c3049a375d0416316d6d1e6af70f928275358ad52216447dd4"),
        (["tails", "--a", "0.9", "--q", "0.3", "--n", "777", "--grid", "0.01,5,101"],
         "b2677bd8dbda137f0bd2f4468ddd351e12d9ee929dad4d89196b2d1c9e0a5855"),
    ],
    ids=["simulate-t1", "simulate-t2", "simulate-t3", "simulate-bins", "moments",
         "rho-grid", "limit", "dist-row", "tails-mixture-n2", "tails-q0.3-n777"],
)
def test_csv_sha256(tmp_path, args, digest):
    out = tmp_path / "out.csv"
    assert run(args + ["--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


def test_simulate_csv_parses_back_to_library_bytes(tmp_path):
    # the 17-digit CSV carries exactly the doubles simulate_terminal returns
    out = tmp_path / "s.csv"
    assert run(["simulate", "--p", "0.8", "--q", "0.6", "--n", "150", "--count", "400",
                "--seed", "21", "--out", str(out)]) == 0
    _, _, rows = read_csv(out)
    parsed = np.array([float(r[0]) for r in rows])
    params = walk.ErwParams(p=0.8, q_first=0.6)
    assert parsed.tobytes() == walk.simulate_terminal(params, 150, 400, seed=21).tobytes()


@pytest.mark.parametrize("threads", ["1", "2"])
@pytest.mark.parametrize("a, q, n, count", [(0.8, 0.5, 10_000, 300), (0.7, 0.4, 1, 9)])
def test_simulate_lines_are_17_digit_samples(tmp_path, a, q, n, count, threads):
    # each sample is formatted once per distinct value: every data line is
    # still '%.17g' of its own sample, where most samples are distinct
    # (n = 1e4) and where all are one of two values (n = 1)
    out = tmp_path / "s.csv"
    assert run(["simulate", "--a", str(a), "--q", str(q), "--n", str(n), "--count", str(count),
                "--seed", "28", "--threads", threads, "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    samples = walk.simulate_terminal(walk.ErwParams.from_a(a, q_first=q), n, count, seed=28)
    assert lines[lines.index("sample") + 1:] == ["%.17g" % v for v in samples.tolist()]


def test_simulate_histogram(tmp_path):
    out = tmp_path / "hist.csv"
    assert run(["simulate", "--p", "0.92", "--q", "1", "--n", "500", "--count", "2000",
                "--seed", "7", "--bins", "24", "--out", str(out)]) == 0
    _, header, rows = read_csv(out)
    assert header == ["x_left", "x_right", "density"]
    assert len(rows) == 24
    mass = sum((float(r[1]) - float(r[0])) * float(r[2]) for r in rows)
    assert abs(mass - 1.0) < 1e-9


def test_moments_ratio_tends_to_one(tmp_path):
    out = tmp_path / "m.csv"
    assert run(["moments", "--a", "0.6667", "--n-max", "400", "--out", str(out)]) == 0
    _, header, rows = read_csv(out)
    assert header == ["n", "m_scaled", "m_log10", "limit_moment_log10", "asympt_ratio"]
    assert abs(float(rows[-1][4]) - 1.0) < 0.02


def test_plot_scripts_read_cli_csv(tmp_path):
    # without matplotlib each script prints a text fallback; with it, it
    # writes a PNG next to its CSV in tmp_path
    moments_csv = tmp_path / "m.csv"
    hist_csv = tmp_path / "hist.csv"
    assert run(["moments", "--a", "0.75", "--n-max", "60", "--out", str(moments_csv)]) == 0
    assert run(["simulate", "--p", "0.9", "--n", "100", "--count", "400", "--seed", "3",
                "--bins", "12", "--out", str(hist_csv)]) == 0
    scripts = Path(__file__).resolve().parents[1] / "scripts"
    for script, csv in (("plot_moment_ratio.py", moments_csv), ("plot_density.py", hist_csv)):
        done = subprocess.run([sys.executable, str(scripts / script), str(csv)],
                              capture_output=True, text=True, timeout=60)
        assert done.returncode == 0, done.stderr
        assert done.stdout


def test_rho_json(tmp_path):
    out = tmp_path / "rho.json"
    assert run(["rho", "--a", "0.75", "--out", str(out)]) == 0
    data = json.loads(out.read_text())
    assert abs(data["rho"] - data["rho_integral"]) < 1e-8
    assert data["delta"] == 1.0 / 7.0


def test_stdout_is_the_default_out(tmp_path, capsys):
    # without --out a command writes to stdout the bytes it writes to a file
    out = tmp_path / "rho.json"
    assert run(["rho", "--a", "0.75", "--out", str(out)]) == 0
    assert run(["rho", "--a", "0.75"]) == 0
    assert capsys.readouterr().out == out.read_text()


def test_rho_grid(tmp_path):
    out = tmp_path / "rho.csv"
    assert run(["rho", "--grid", "0.55,0.95,5", "--out", str(out)]) == 0
    _, header, rows = read_csv(out)
    assert len(rows) == 5
    assert all(float(r[3]) < 1e-8 for r in rows)


def test_limit_csv(tmp_path):
    out = tmp_path / "lim.csv"
    assert run(["limit", "--a", "0.7", "--grid", "0.05,0.6,6", "--out", str(out)]) == 0
    _, header, rows = read_csv(out)
    assert header == ["x", "G", "A", "B", "M", "r_imp", "r_M"]
    assert all(abs(float(r[5])) < 1e-9 for r in rows)
    ms = [float(r[4]) for r in rows]
    assert ms == sorted(ms)


def test_tails_csv(tmp_path):
    out = tmp_path / "tails.csv"
    assert run(["tails", "--a", "0.75", "--n", "400", "--grid", "1.0,3.0,9",
                "--out", str(out)]) == 0
    _, header, rows = read_csv(out)
    assert header == ["x", "tail_pos_log", "tail_neg_log", "exact_density_log"]
    for r in rows:
        assert float(r[1]) > float(r[2])  # positive tail is heavier
    # near a = 1 the stretch term overflows on the default grid's upper end
    out = tmp_path / "tails_near_one.csv"
    assert run(["tails", "--a", "0.999", "--n", "200", "--out", str(out)]) == 0
    assert read_csv(out)[2][-1][1:3] == ["-inf", "-inf"]


_TAILS_SHA256 = {
    "1": "ab485364f46c37313d5700154a895fbadfcfc512b16c2283eb87dce9ee6492f8",
    "0.4": "1a0cb8c8f9e862c4af7911f92debc0c520119f3f34e007f80f9b4a8b92bab560",
    "0": "2f6eb4d41ec63e58f035e967ee897b36d86a3e6c7391deba40801f796316f821",
}


def test_tails_columns_follow_q(tmp_path):
    # the asymptote columns mix the heavy tail q and 1-q; q = 0 mirrors
    # q = 1, and each q keeps its pinned bytes
    cols = {}
    for q in ("1", "0.4", "0"):
        out = tmp_path / f"tails_{q}.csv"
        assert run(["tails", "--a", "0.75", "--n", "400", "--q", q, "--out", str(out)]) == 0
        cols[q] = [(float(r[1]), float(r[2])) for r in read_csv(out)[2]]
        assert hashlib.sha256(out.read_bytes()).hexdigest() == _TAILS_SHA256[q]
    for (pos, neg), (pos04, neg04), (pos0, neg0) in zip(cols["1"], cols["0.4"], cols["0"]):
        assert pos04 == pytest.approx(math.log(0.4) + pos, rel=1e-14, abs=1e-14)
        assert neg04 == pytest.approx(math.log(0.6) + pos, rel=1e-14, abs=1e-14)
        assert (pos0, neg0) == (neg, pos)


def test_specfun_json(tmp_path):
    out = tmp_path / "sf.json"
    assert run(["specfun", "--fn", "mittag_leffler", "--params", "1.0",
                "--z", "1.0", "--out", str(out)]) == 0
    data = json.loads(out.read_text())
    assert abs(float(data["value"]) - math.e) < 1e-12


def test_specfun_params_take_every_negative_float(tmp_path, capsys):
    # argparse alone reads -2.5e-3 and -inf as unknown options and exits 2
    out = tmp_path / "sf.json"
    assert run(["specfun", "--fn", "hyp2f1", "--params", "-2.5e-3", "1", "1",
                "--z", "0.3", "--out", str(out)]) == 0
    assert float(json.loads(out.read_text())["value"]) == specfun.hyp2f1(-2.5e-3, 1.0, 1.0, 0.3).value
    # -inf reaches f_eval, whose own DomainError exits 1
    assert run(["specfun", "--fn", "f", "--params", "-inf", "--z", "0.3"]) == 1
    assert "f_eval requires a" in capsys.readouterr().err


def test_specfun_gamma_ln_method(tmp_path):
    out = tmp_path / "gl.json"
    assert run(["specfun", "--fn", "gamma_ln", "--z", "0.25", "--out", str(out)]) == 0
    data = json.loads(out.read_text())
    assert data["method"] == "lgamma"
    assert abs(float(data["value"]) - math.log(3.6256099082219083)) < 1e-14


@pytest.mark.parametrize("fn, params, z, call", [
    ("gamma_ln", [], 0.25, lambda: specfun.gamma_ln(0.25)),
    ("f", [0.7], 8.0, lambda: specfun.f_eval(0.7, 8.0).value),  # F's series regime
    ("hyp2f1", [0.5, -0.75, 0.25], -4.0, lambda: specfun.hyp2f1(0.5, -0.75, 0.25, -4.0).value),
    ("mittag_leffler", [0.5], 3.0, lambda: specfun.mittag_leffler(0.5, 3.0).value),
    ("prabhakar", [0.6, 1.3, 0.5], -5.0, lambda: specfun.prabhakar(0.6, 1.3, 0.5, -5.0).value),
    ("f", [0.7], 1.1, lambda: specfun.f_eval(0.7, 1.1).value),
    ("f_inverse", [0.7], 1.0, lambda: specfun.f_inverse(0.7, 1.0)),
])
def test_specfun_each_fn(tmp_path, fn, params, z, call):
    out = tmp_path / "sf.json"
    argv = ["specfun", "--fn", fn, "--params", *map(str, params), "--z", str(z), "--out", str(out)]
    assert run(argv) == 0
    assert float(json.loads(out.read_text())["value"]) == call()


def test_usage_errors_exit_two(capsys):
    for argv in (["dist", "--n-max", "5"],  # neither --a nor --p
                 ["rho", "--a", "0.7", "--grid", "0.55,0.95,5"],  # both
                 ["specfun", "--fn", "hyp2f1", "--params", "0.5", "--z", "0.3"],  # too short
                 ["specfun", "--fn", "gamma_ln", "--params", "3", "--z", "1"],  # too long
                 ["specfun", "--fn", "digamma", "--z", "2.5"],  # no longer a choice
                 ["specfun", "--fn", "mittag_leffler", "--params", "0.5", "--z", "3",
                  "--precision-digits", "-5"],
                 # no high-precision mode
                 *(["specfun", "--fn", fn, "--params", *params, "--z", "3", "--precision-digits", "30"]
                   for fn, params in (("gamma_ln", []), ("hyp2f1", ["0.5", "-0.75", "0.25"]),
                                      ("f", ["0.7"]), ("f_inverse", ["0.7"]))),
                 ["simulate", "--p", "0.9", "--n", "10", "--count", "5", "--seed", "1",
                  "--threads", "0"]):
        with pytest.raises(SystemExit) as exc:
            run(argv)
        assert exc.value.code == 2
        assert capsys.readouterr().out == ""
    with pytest.raises(SystemExit) as exc:
        run(["nope"])
    assert exc.value.code == 2


@pytest.mark.parametrize("grid", ["1,2", "0.6,0.9,x", "0.6,0.9,4.5", "0.6,0.7,0.8,3",
                                  "0.9,0.6,5", "0.6,0.9,1"])
def test_malformed_grid_exits_two(grid, capsys):
    with pytest.raises(SystemExit) as exc:
        run(["rho", "--grid", grid])
    assert exc.value.code == 2
    assert "grid must be lo,hi,points" in capsys.readouterr().err


def test_tails_checks_grid_before_evolving(monkeypatch, capsys):
    def no_rows(params, n):
        raise AssertionError("row evolved before the grid was checked")

    monkeypatch.setattr(walk, "row_at", no_rows)
    with pytest.raises(SystemExit) as exc:
        run(["tails", "--a", "0.75", "--n", "20000", "--grid", "1,2"])
    assert exc.value.code == 2
    assert "grid must be lo,hi,points" in capsys.readouterr().err


def test_simulate_checks_bins_before_simulating(monkeypatch, capsys, tmp_path):
    def no_samples(*args, **kwargs):
        raise AssertionError("simulated before --bins was checked")

    monkeypatch.setattr(walk, "simulate_terminal", no_samples)
    out = tmp_path / "s.csv"
    with pytest.raises(SystemExit) as exc:
        run(["simulate", "--p", "0.8", "--n", "10", "--count", "3", "--seed", "1",
             "--bins", "-4", "--out", str(out)])
    assert exc.value.code == 2
    assert "--bins" in capsys.readouterr().err
    assert not out.exists()


def test_out_in_no_directory_exits_two_before_any_work(monkeypatch, capsys, tmp_path):
    def no_table(*args, **kwargs):
        raise AssertionError("computed before --out was checked")

    monkeypatch.setattr(moments, "moment_sequence", no_table)
    parent = tmp_path / "f.txt"
    parent.write_text("kept\n")
    with pytest.raises(SystemExit) as exc:
        run(["moments", "--a", "0.7", "--n-max", "5", "--out", str(parent / "x.csv")])
    assert exc.value.code == 2
    assert capsys.readouterr().err.splitlines() == [
        f"error: --out names a file in {str(parent)!r}, which is not a directory"]
    assert [p.name for p in tmp_path.iterdir()] == ["f.txt"]
    assert parent.read_text() == "kept\n"


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs the /dev/full device")
def test_out_that_fails_to_write_exits_two_with_one_line(capsys):
    with pytest.raises(SystemExit) as exc:
        run(["rho", "--a", "0.75", "--out", "/dev/full"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.splitlines() == ["error: cannot write the output: [Errno 28] No space left on device"]


def test_bad_thread_env_exits_two(monkeypatch, capsys):
    for env in ("abc", "-3"):
        monkeypatch.setenv("ERWLAB_THREADS", env)
        with pytest.raises(SystemExit) as exc:
            run(["simulate", "--p", "0.9", "--n", "10", "--count", "5", "--seed", "1"])
        assert exc.value.code == 2
        assert "ERWLAB_THREADS" in capsys.readouterr().err
        with pytest.raises(SystemExit) as exc:
            run(["check"])
        assert exc.value.code == 2


def test_numeric_failure_exits_one(capsys):
    # a outside the superdiffusive window is a numeric failure, not usage
    assert run(["moments", "--a", "0.4", "--n-max", "10"]) == 1
    assert "numeric failure" in capsys.readouterr().err


def test_f_beyond_double_range_exits_one_without_traceback():
    src = str(Path(cli.__file__).resolve().parents[1])
    done = subprocess.run(
        [sys.executable, "-m", "erwlab.cli", "specfun", "--fn", "f", "--params", "0.7",
         "--z", "1e-300"],
        capture_output=True, text=True, timeout=60, env={**os.environ, "PYTHONPATH": src},
    )
    assert done.returncode == 1
    assert "exceeds the double range" in done.stderr
    assert "Traceback" not in done.stderr


def test_moments_bytes_do_not_follow_the_blas_thread_count(tmp_path):
    # OpenBLAS splits a dot of more than 10 000 doubles across its threads;
    # at n_max = 12 000 the recurrence's last 2000 dots are that long
    src = str(Path(cli.__file__).resolve().parents[1])
    outs = []
    for threads in ("1", "2"):
        out = tmp_path / f"m{threads}.csv"
        done = subprocess.run(
            [sys.executable, "-m", "erwlab.cli", "moments", "--a", "0.75", "--n-max", "12000",
             "--out", str(out)],
            capture_output=True, text=True, timeout=120,
            env={**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": threads},
        )
        assert done.returncode == 0, done.stderr
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]


def test_shape_bad_n_max_writes_nothing(tmp_path):
    out = tmp_path / "shape.csv"
    assert run(["shape", "--a", "0.7", "--n-max", "0", "--out", str(out)]) == 1
    assert not out.exists()


def test_env_thread_fallback(monkeypatch):
    from erwlab import walk

    monkeypatch.setenv("ERWLAB_THREADS", "3")
    assert walk.resolve_threads(None) == 3
    assert walk.resolve_threads(2) == 2
    monkeypatch.delenv("ERWLAB_THREADS")
    assert walk.resolve_threads(None) >= 1


def test_check_table_and_exit_codes(monkeypatch, capsys):
    from erwlab import acceptance

    ok = acceptance.CriterionResult("1 stub", True, "fine", 0.01)
    bad = acceptance.CriterionResult("2 stub", False, "broken", 0.02)
    monkeypatch.setattr(acceptance, "run_all", lambda: [ok, bad])
    assert run(["check"]) == 1
    captured = capsys.readouterr()
    assert "PASS" in captured.out and "FAIL" in captured.out
    assert "2 stub" in captured.err
    monkeypatch.setattr(acceptance, "run_all", lambda: [ok])
    assert run(["check"]) == 0


def test_help_smoke(capsys):
    for cmd in ("dist", "shape", "simulate", "moments", "rho", "limit",
                "tails", "specfun", "check"):
        with pytest.raises(SystemExit) as exc:
            run([cmd, "--help"])
        assert exc.value.code == 0
        assert "--" in capsys.readouterr().out


# the options each command's --help lists: the interface a user types
_HELP_OPTIONS = {
    "dist": {"--a", "--p", "--q", "--out", "--n-max", "--all-rows"},
    "shape": {"--a", "--p", "--q", "--out", "--n-max"},
    "simulate": {"--a", "--p", "--q", "--out", "--n", "--count", "--seed", "--threads", "--bins"},
    "moments": {"--a", "--n-max", "--out"},
    "rho": {"--a", "--grid", "--out"},
    "limit": {"--a", "--grid", "--out"},
    "tails": {"--a", "--q", "--n", "--grid", "--out"},
    "specfun": {"--fn", "--params", "--z", "--precision-digits", "--out"},
    "check": set(),
}


def _help(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        run(argv)
    assert exc.value.code == 0
    return capsys.readouterr().out


def test_help_lists_every_command_and_its_options(monkeypatch, capsys):
    # option strings, not help text: argparse's layout changes between Pythons
    monkeypatch.setenv("COLUMNS", "80")
    listed = re.findall(r"^    (\w+)  ", _help(["-h"], capsys), flags=re.M)
    assert listed == list(_HELP_OPTIONS)
    for cmd, options in _HELP_OPTIONS.items():
        printed = set(re.findall(r"--[a-z][a-z-]*", _help([cmd, "--help"], capsys)))
        assert printed == options | {"--help"}, cmd


@pytest.mark.parametrize("grid", ["0,inf,2", "-inf,1,3", "0,1.7976931348623157e+308,4"])
def test_grid_with_points_beyond_the_double_range_exits_two(grid, capsys):
    # numpy would fill the grid with NaN or overflow while spacing it
    with pytest.raises(SystemExit) as exc:
        run(["rho", f"--grid={grid}"])
    assert exc.value.code == 2
    assert "every point finite" in capsys.readouterr().err
