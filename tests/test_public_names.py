"""The names `import erwlab` exposes, pinned: a change to how the package
loads its modules must keep every one of them."""

import types

import erwlab

_PUBLIC = [
    "BracketingError", "CancellationError", "ConsistencyError", "ConvergenceError",
    "DistributionRow", "DomainError", "ErwLabError", "ErwParams", "GenFunValue",
    "LimitLawContext", "MgfValue", "MomentTable", "QuadratureError", "Residuals", "SeriesEval",
    "SeriesOverflowError", "ShapeReport", "TailAsymptote", "asymptote", "asymptotic_moment_ln",
    "check_shape", "context", "eta_asymptote", "evolve_distribution", "f_eval", "f_inverse",
    "gamma_ln", "genfun", "hankel_test", "hyp2f1", "iter_rows", "limit_moment",
    "limit_moment_ln", "log_concavity_root", "mittag_leffler", "moment_sequence", "prabhakar",
    "prabhakar_ln", "psi_mgf", "residuals", "rho", "rho_integral", "row_at", "scaled_density",
    "simulate_terminal", "tail", "tail_ratio",
]


def test_public_names_are_pinned():
    # submodules are left out: which of them are attributes of the package
    # depends on what the test run imported before
    names = [n for n in dir(erwlab)
             if not n.startswith("_") and not isinstance(getattr(erwlab, n), types.ModuleType)]
    assert sorted(names) == _PUBLIC
    assert erwlab.__version__ == "0.1.0"


def test_domain_error_is_a_value_error_of_the_package():
    assert issubclass(erwlab.DomainError, erwlab.ErwLabError)
    assert issubclass(erwlab.DomainError, ValueError)
