"""Replicator dynamics of the four-strategy asymmetric Hawk-Dove game.

Library + CLI covering payoff construction, the 4D/3D replicator vector
fields, equilibrium classification, bifurcation mapping in the (v, c)
plane, Nash verification and adaptive trajectory integration.
"""

__version__ = "0.1.0"

from .game_core import (
    DD,
    DH,
    HD,
    HH,
    Params,
    STRATEGIES,
    SimplexState,
    TOL_SIMPLEX,
    average_payoff,
    build_payoff_matrix,
    strategy_payoff,
)
from .replicator_field import (
    ReducedState,
    consistency_residual,
    field_3d,
    field_4d,
    lift,
)
from .linear_analysis import (
    Classification,
    eigenvalues,
    jacobian,
)
from .equilibrium_catalog import (
    EquilibriumId,
    EquilibriumRecord,
    catalog,
    region_predicate,
)
from .bifurcation import (
    BifurcationLine,
    GridSpec,
    LineId,
    RegionMap,
    detect_transitions,
    linearized_field,
    scan,
)
from .nash import NashReport, best_response_check, nash_report, nash_via_stability
from .two_strategy import classify_1d, correspondence, f, f_prime, simulate_hawk_share
from .integrator import (
    IntegrationConfig,
    Terminal,
    Trajectory,
    batch_integrate,
    integrate,
    random_interior_starts,
)

__all__ = [
    "__version__",
    "Params", "SimplexState", "ReducedState", "STRATEGIES",
    "HH", "HD", "DH", "DD", "TOL_SIMPLEX",
    "build_payoff_matrix", "strategy_payoff", "average_payoff",
    "field_3d", "field_4d", "consistency_residual", "lift",
    "Classification", "jacobian", "eigenvalues",
    "EquilibriumId", "EquilibriumRecord", "catalog", "region_predicate",
    "GridSpec", "RegionMap", "LineId", "BifurcationLine",
    "scan", "detect_transitions", "linearized_field",
    "NashReport", "nash_via_stability", "best_response_check", "nash_report",
    "f", "f_prime", "classify_1d", "correspondence", "simulate_hawk_share",
    "IntegrationConfig", "Trajectory", "Terminal",
    "integrate", "batch_integrate", "random_interior_starts",
]
