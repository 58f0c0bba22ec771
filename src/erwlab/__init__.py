"""Numerics for the superdiffusive memory walk and its limit law."""

from .errors import (
    BracketingError,
    CancellationError,
    ConsistencyError,
    ConvergenceError,
    ErwLabError,
    QuadratureError,
    SeriesOverflowError,
)
from .limitlaw import (
    GenFunValue,
    MgfValue,
    Residuals,
    TailAsymptote,
    asymptote,
    eta_asymptote,
    genfun,
    psi_mgf,
    residuals,
    tail,
    tail_ratio,
)
from .moments import (
    LimitLawContext,
    MomentTable,
    asymptotic_moment,
    asymptotic_moment_ln,
    context,
    hankel_test,
    limit_moment,
    limit_moment_ln,
    moment_sequence,
    rho,
    rho_integral,
)
from .specfun import (
    SeriesEval,
    digamma,
    f_eval,
    f_inverse,
    gamma_ln,
    hyp2f1,
    mittag_leffler,
    poch_ln,
    prabhakar,
    prabhakar_ln,
)
from .walk import (
    DistributionRow,
    ErwParams,
    ShapeReport,
    StepDensity,
    check_shape,
    evolve_distribution,
    iter_rows,
    log_concavity_root,
    row_at,
    scaled_density,
    simulate_terminal,
)

__version__ = "0.1.0"
