"""sparseball: optimization over the unit ball with on/off indicators.

Exact solvers for linear objectives over the indicator-ball set, submodular
valid inequalities with separation, perspective-relaxation membership and
violation certificates, the natural convex relaxation with edge rounding,
and perspective-based robust counterparts with a reproducible portfolio
experiment harness.
"""

__version__ = "0.1.0"

from .core import (
    CARD_EQ,
    CARD_LE,
    DEFAULT_TOL,
    FREE,
    MixedPoint,
    ProblemInstance,
    SolverError,
    ZFamily,
    enumerate_Z,
    is_in_X,
    load_problem_instance,
    safe_div,
    satisfies_bigM,
)
from .discrete import (
    DiscreteSolution,
    SupportSolution,
    solve_discrete_bruteforce,
    solve_discrete_sort,
    support_value,
)
from .harness import (
    ExperimentConfig,
    ExperimentRecord,
    ExperimentRun,
    emit_report,
    generate_instance,
    run_experiment,
)
from .hull import (
    CutVector,
    LinearCut,
    RelaxationSolution,
    base_inequality,
    c_alpha_membership,
    cardinality_cut,
    find_violating_alpha,
    g_value,
    p0_membership,
    perspective_membership,
    quad_reformulate,
    reported_cuts,
    rho,
    separate_submodular,
    solve_relaxation,
    submodular_cut_1,
    submodular_cut_2,
    violated_cuts,
)
from .robust import (
    CounterpartResult,
    DualCertificate,
    PortfolioPoint,
    RobustInstance,
    budgeted_value,
    ellipsoidal_value,
    fenchel_identity,
    load_robust_instance,
    optimal_multipliers,
    perspective_value,
    solve_counterpart,
    top_k_sq_sum,
    worst_case,
)
