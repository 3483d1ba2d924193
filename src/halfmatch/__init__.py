"""Stable and popular half-integral matchings on general graphs.

Markets are multigraphs whose agents rank incident edges; matchings may
take the value 1/2. The solvers duplicate edges into strict derived
markets, stabilize there, and project back; exact-rational verifiers
and brute-force oracles certify every guarantee at desk scale.
"""

from .core import (
    Edge,
    Instance,
    InstanceError,
    MatchingError,
    MatchingStats,
    assigned_value,
    blocking_edges,
    check_matching,
    is_half_matching,
    is_saturated,
    matching_size,
    matching_stats,
    validate_instance,
    vertex_load,
)
from .cover import DoubleCover, double_cover, max_weight_cover_matching
from .engine import (
    BoundExceeded,
    StablePartitionCert,
    brute_force_max_stable,
    enumerate_half_matchings,
    iter_stable_half_matchings,
    stable_half_matching,
)
from .generate import generate_random
from .popularity import (
    DeltaResult,
    Pairing,
    PopularityVerdict,
    delta_feasible,
    delta_sensible,
    is_popular,
    is_popular_critical,
    min_cost_transport,
    vote,
)
from .reductions import (
    DerivedInstance,
    build_crit_reduction,
    build_gamma_reduction,
    build_pri_reduction,
    build_srti_reduction,
)
from .solvers import (
    DualSolution,
    InfeasibleCritical,
    VerificationFailed,
    max_weight_dual,
    solve_max_gamma,
    solve_max_pri,
    solve_max_srti,
    solve_pop_crit,
    solve_pop_maxw,
)

__version__ = "0.1.0"
