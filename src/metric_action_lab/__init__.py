"""Numerical lab for action functionals driven by slopes of convex energies.

The package provides concrete metric spaces, semi-convex functionals with
descending slopes, proximal (resolvent) maps, minimizing-movement gradient
flows, discretized action functionals on sampled curves, recovery-sequence
builders, and a reproducible experiment harness with certified lower
bounds.
"""

__version__ = "0.1.0"

from .spaces import (  # noqa: F401
    Point,
    SpaceHandle,
    SpaceKind,
    check_cat0,
    distance,
    euclidean,
    geodesic_point,
    half_line,
    isotonic_repair,
    quantile_1d,
    random_point,
    tripod,
)
from .functionals import (  # noqa: F401
    ClosedForm,
    FunctionalFamily,
    FunctionalSpec,
    SupFormula,
    check_lambda_convexity,
    descending_slope,
    evaluate,
    inverse_square,
    linear_half_line,
    quadratic,
    ramp,
    zero_functional,
)
from .proximal import (  # noqa: F401
    ResolventResult,
    check_bound_chain,
    check_resolvent_identity,
    check_resolvent_lipschitz,
    check_tau_continuity,
    resolvent,
    resolvent_convergence_probe,
)
from .flow import (  # noqa: F401
    check_contraction,
    check_energy_identity,
    check_evi,
    check_slope_bounds_along_flow,
    flow,
    flow_times,
)
from .curves import (  # noqa: F401
    ActionValue,
    Piece,
    SampledCurve,
    action,
    amgm_lower_bound,
    concatenate_rescale,
    curve_from_csv,
    curve_to_csv,
    geodesic_curve,
    metric_speed,
    minimize_action,
    uniform_distance,
)
from .recovery import (  # noqa: F401
    RecoveryConfig,
    RecoveryMode,
    RecoveryOutput,
    build_recovery,
    default_tau_schedule,
    piece_diagnostics,
)
from .harness import (  # noqa: F401
    ExperimentConfig,
    ExperimentReport,
    Verdict,
    build_functional,
    emit_report,
    liminf_probe,
    run_example1,
    run_example2,
    run_positive,
)
