"""Priority-based school choice mechanisms and farsighted stability analysis."""

from .model import (
    SELF,
    CapacityError,
    Matching,
    Problem,
    SchoolChoiceError,
    ValidationError,
    enumerate_matchings,
    has_no_justified_envy,
    is_individually_rational,
    is_non_wasteful,
    is_pareto_efficient,
    is_stable,
    justified_envy_witnesses,
    pareto_dominates,
    sort_matchings,
)
from .mechanisms import (
    MECHANISMS,
    Cycle,
    MechanismTrace,
    run_ct,
    run_da,
    run_ettc,
    run_fct,
    run_ia,
    run_mechanism,
    run_ttc,
)
from .farsight import (
    FARSIGHTED,
    Coalition,
    MoveStep,
    PathCertificate,
    PathViolation,
    StableSetReport,
    can_enforce,
    check_stable_set,
    find_singleton_stable_sets,
    find_stable_sets,
    phi,
    phi_horizon,
    reachability_matrix,
    school_move_admissible,
    validate_path,
    validate_path_horizon,
)
from .paths import (
    build_path_to_ct,
    build_path_to_ettc,
    build_path_to_fct,
    build_path_to_ttc,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
