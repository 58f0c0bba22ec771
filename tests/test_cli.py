import hashlib
import json
import math
import tracemalloc

import numpy as np
import pytest

from erwlab import cli, walk


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


def test_simulate_csv_parses_back_to_library_bytes(tmp_path):
    # the 17-digit CSV carries exactly the doubles simulate_terminal returns
    out = tmp_path / "s.csv"
    assert run(["simulate", "--p", "0.8", "--q", "0.6", "--n", "150", "--count", "400",
                "--seed", "21", "--out", str(out)]) == 0
    _, _, rows = read_csv(out)
    parsed = np.array([float(r[0]) for r in rows])
    params = walk.ErwParams(p=0.8, q_first=0.6)
    assert parsed.tobytes() == walk.simulate_terminal(params, 150, 400, seed=21).tobytes()


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


def test_rho_json(tmp_path):
    out = tmp_path / "rho.json"
    assert run(["rho", "--a", "0.75", "--out", str(out)]) == 0
    data = json.loads(out.read_text())
    assert abs(data["rho"] - data["rho_integral"]) < 1e-8
    assert data["delta"] == 1.0 / 7.0


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


def test_tails_columns_follow_q(tmp_path):
    # the asymptote columns mix the heavy tail q and 1-q; q = 0 mirrors
    # q = 1, and q = 1 keeps the unmixed bytes
    cols = {}
    for q in ("1", "0.4", "0"):
        out = tmp_path / f"tails_{q}.csv"
        assert run(["tails", "--a", "0.75", "--n", "400", "--q", q, "--out", str(out)]) == 0
        cols[q] = [(float(r[1]), float(r[2])) for r in read_csv(out)[2]]
        if q == "1":
            assert hashlib.sha256(out.read_bytes()).hexdigest() == (
                "ab485364f46c37313d5700154a895fbadfcfc512b16c2283eb87dce9ee6492f8"
            )
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


def test_specfun_gamma_ln_method(tmp_path):
    out = tmp_path / "gl.json"
    assert run(["specfun", "--fn", "gamma_ln", "--z", "0.25", "--out", str(out)]) == 0
    data = json.loads(out.read_text())
    assert data["method"] == "lgamma"
    assert abs(float(data["value"]) - math.log(3.6256099082219083)) < 1e-14


def test_usage_errors_exit_two():
    for argv in (["dist", "--n-max", "5"],  # neither --a nor --p
                 ["rho", "--a", "0.7", "--grid", "0.55,0.95,5"]):  # both
        with pytest.raises(SystemExit) as exc:
            run(argv)
        assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        run(["nope"])
    assert exc.value.code == 2


@pytest.mark.parametrize("grid", ["1,2", "0.6,0.9,x", "0.6,0.9,4.5", "0.6,0.7,0.8,3"])
def test_malformed_grid_exits_two(grid, capsys):
    with pytest.raises(SystemExit) as exc:
        run(["rho", "--grid", grid])
    assert exc.value.code == 2
    assert "grid must be lo,hi,points" in capsys.readouterr().err


def test_bad_thread_env_exits_two(monkeypatch, capsys):
    monkeypatch.setenv("ERWLAB_THREADS", "abc")
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
