"""Error and perturbation bounds for absolute value equations.

The package revolves around ``AveProblem`` (A x - B|x| = b and the
A x - |B x| = b variant), residual-based error intervals for trial points,
relative perturbation bounds for data changes, and transformations that
carry linear complementarity problems into AVE form so the same machinery
applies to them.
"""

__version__ = "0.1.0"

from .exceptions import (                                    # noqa: F401
    AveBoundsError,
    InapplicableBoundError,
    NonConvergenceError,
    SingularMatrixError,
)
from .numerics import (                                      # noqa: F401
    comparison_matrix,
    inverse,
    p_norm,
    positive_part,
    spectral_radius_nonneg,
)
from .core import (                                          # noqa: F401
    AveProblem,
    SolvabilityReport,
    TYPE_ONE,
    TYPE_TWO,
    residual,
    sign_diagonal,
    solvability_report,
)
from .solver import (                                        # noqa: F401
    SolveOptions,
    SolveResult,
    picard_solve,
    sign_accord_solve,
)
from .bounds import (                                        # noqa: F401
    ErrorBoundReport,
    ErrorInterval,
    NEUMANN,
    NORM_RATIO,
    SINGULAR_GAP,
    brute_force_alpha,
    error_bound_report,
    error_interval,
    identity_ave_bounds,
    lower_factor,
    upper_factor,
)
from .perturbation import (                                  # noqa: F401
    ExperimentRecord,
    Perturbation,
    PerturbBoundReport,
    componentwise_bound,
    general_relative_bound,
    perturbation_experiment,
    rhs_only_bound,
)
from .complementarity import (                               # noqa: F401
    ComplementaritySolution,
    HlcpProblem,
    LcpPerturbFactors,
    LcpProblem,
    beta_factor,
    column_w_property,
    hlcp_error_bounds,
    hlcp_perturb_bound,
    hlcp_to_ave,
    lcp_comparison_bound,
    lcp_min_residual,
    lcp_pair_bounds,
    lcp_region_bound,
    lcp_to_ave,
    recover_solution,
    region_factors,
)
from .harness import (                                       # noqa: F401
    BENCH_EPSILONS,
    BENCH_TABLES,
    ExperimentSpec,
    TableOutput,
    emit,
    gen_lattice_lcp,
    gen_perturbation,
    gen_tridiag_lcp,
    reproduce_table,
    run_experiment,
    tridiagonal,
)
