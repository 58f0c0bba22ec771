"""Acceptance gate: one test per exit criterion, at the pinned tolerances.

Each test prints its PASS/FAIL line (visible with -s or on failure).
Criterion 8b asserts its 0.15 bound on the ladder n = 1e3, 3e3, 1e4, 2e4:
the finite-n density deviation is a finite-size effect of the walk that
falls along the ladder (~0.52 / 0.27 / 0.14 / 0.10) and meets the bound
only from about n = 1e4.
"""

from erwlab import acceptance


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
