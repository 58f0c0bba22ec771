"""Acceptance gate: one test per exit criterion, at the pinned tolerances.

Each test prints its PASS/FAIL line (visible with -s or on failure).
One more test checks that a broken premise of c08a fails its verdict.
Criterion 8b asserts its 0.15 bound on the ladder n = 1e3, 3e3, 1e4, 2e4:
the finite-n density deviation is a finite-size effect of the walk that
falls along the ladder (~0.52 / 0.27 / 0.14 / 0.10) and meets the bound
only from about n = 1e4.
"""

import dataclasses

from erwlab import acceptance, limitlaw


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


def test_c08a_unequal_stretch_fails_the_verdict(monkeypatch):
    # the equal stretch terms are part of the verdict, not an assert
    asymptote = limitlaw.asymptote

    def skewed(ctx, side, q=1.0):
        rec = asymptote(ctx, side, q)
        return rec if side == "positive" else dataclasses.replace(rec, stretch=2.0 * rec.stretch)

    monkeypatch.setattr(limitlaw, "asymptote", skewed)
    passed, detail = acceptance.c08a_tail_ratio_identity()
    assert not passed and detail == "max rel err inf (tol 1e-12)"
