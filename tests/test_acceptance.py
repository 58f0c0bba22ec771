"""Acceptance gate: one test per exit criterion, at the pinned tolerances.

Each test prints its PASS/FAIL line (visible with -s or on failure).
One more test checks that a broken premise of c08a fails its verdict.
Criterion 8b asserts its 0.15 bound on the ladder n = 1e3, 3e3, 1e4, 2e4:
the finite-n density deviation is a finite-size effect of the walk that
falls along the ladder (~0.52 / 0.27 / 0.14 / 0.10) and meets the bound
only from about n = 1e4.
"""

import dataclasses

import numpy as np

from erwlab import acceptance, limitlaw, walk


def _criterion_test(name, crit):
    def test():
        passed, detail = crit()
        print(f"{'PASS' if passed else 'FAIL'}  {name}: {detail}")
        assert passed, f"{name}: {detail}"

    return test


# one test per entry of CRITERIA, named test_criterion_NN_topic after its
# function cNN_topic, so the test names stay those of the criteria
for _name, _crit in acceptance.CRITERIA:
    globals()["test_criterion_" + _crit.__name__[1:]] = _criterion_test(_name, _crit)


def test_run_all_runs_each_criterion_in_order(monkeypatch):
    stubs = (("1 stub", lambda: (True, "fine")), ("2 stub", lambda: (False, "broken")))
    monkeypatch.setattr(acceptance, "CRITERIA", stubs)
    results = acceptance.run_all()
    assert [(r.name, r.passed, r.detail) for r in results] == [
        ("1 stub", True, "fine"), ("2 stub", False, "broken")]
    assert all(r.seconds >= 0.0 for r in results)


def test_run_all_passes_python_bools(monkeypatch):
    # c01 and c06 compare numpy floats; json cannot write a numpy bool
    monkeypatch.setattr(acceptance, "CRITERIA", (("1 stub", lambda: (np.True_, "fine")),))
    assert acceptance.run_all()[0].passed is True


def test_c03_row_not_unimodal_fails_the_verdict(monkeypatch):
    # the first such row ends the scan of its p: row 1 at each of the 8 p,
    # then the two n = 3 rows of the log-concavity flip
    seen = []

    def not_unimodal(row):
        seen.append(row.n)
        return walk.ShapeReport(False, 1, 1, True, None)

    monkeypatch.setattr(walk, "check_shape", not_unimodal)
    passed, detail = acceptance.c03_shape_theorems()
    assert not passed and detail.startswith("unimodal(all n<=500)=False")
    assert seen == [1] * 8 + [3, 3]


def test_c08a_unequal_stretch_fails_the_verdict(monkeypatch):
    # the equal stretch terms are part of the verdict, not an assert
    asymptote = limitlaw.asymptote

    def skewed(ctx, side, q=1.0):
        rec = asymptote(ctx, side, q)
        return rec if side == "positive" else dataclasses.replace(rec, stretch=2.0 * rec.stretch)

    monkeypatch.setattr(limitlaw, "asymptote", skewed)
    passed, detail = acceptance.c08a_tail_ratio_identity()
    assert not passed and detail == "max rel err inf (tol 1e-12)"
