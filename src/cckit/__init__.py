"""cckit: convex compactness at finite scale.

Bounded-in-probability sequences over finite weighted spaces, convex-set
representations with a shared projection geometry, tail-hull extraction
with escape certificates, attained minima of convex functionals,
saddle points of concave-convex payoffs, covering-family intersection
points on a simplex, and market-clearing prices — each route certified
by recomputation, never by trusting its own iteration.
"""

__version__ = "0.1.0"

from .errors import (
    BudgetExceededError,
    CCKitError,
    CurvatureError,
    DomainError,
    EmptyIntersection,
    InputError,
    KKMViolation,
    NonConvergent,
    ParseError,
    SolverError,
    SpaceMismatchError,
    Unbounded,
)
from .measure import (
    DirectSumSpace,
    ProbSpace,
    RandVar,
    direct_sum,
    epsilon_of_M,
    expectation,
    inner,
    metric_d,
    norm,
    oplus,
    phi,
    phi_midpoint_gap,
    prob_at_least,
    randvar_from_json,
    randvar_to_json,
    space_from_json,
    space_to_json,
    split_oplus,
)
from .expr import Expression
from .convex import (
    Box,
    ConvexSetRep,
    Intersection,
    Polytope,
    Sublevel,
    WeightVector,
    contains,
    convex_combine,
    project,
    project_simplex,
    set_from_json,
    set_to_json,
)
from .functionals import (
    LinearFunctional,
    PointwiseFunctional,
    QuadraticFunctional,
    functional_from_json,
)
from .komlos import (
    EscapeCertificate,
    ExtractState,
    SequenceSpec,
    combo_mass_bound,
    escape_eps,
    extract,
)
from .coercive import (
    certificate_net,
    check_growth,
    coercivity_report,
    lower_contour,
    minimize,
)
from .kkm import (
    KKMInstance,
    check_kkm_property,
    intersect_with_compact,
    sperner_solve,
)
from .saddle import (
    BilinearPayoff,
    SaddleCertificate,
    SaddleInstance,
    VerifyResult,
    build_G_family,
    payoff_from_json,
    solve_saddle,
    verify_saddle,
)
from .equilibrium import (
    CobbDouglasEconomy,
    ExcessDemandInstance,
    check_hypotheses,
    economy_from_json,
    excess_demand,
    solve_excess_demand,
    walras_check,
)

__all__ = [name for name in dir() if not name.startswith("_")]
