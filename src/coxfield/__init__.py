"""Mean-field models of FCFS load balancing with Coxian job sizes.

The package has four layers: ``dist`` (phase-type distributions, the
hyperexponential-to-Coxian conversion and the decreasing-completion-rate
class), ``order`` (the state space and the comparison order the dynamics
preserve), ``mfode`` (the transient ODE, its fixed point and the
monotonicity / attraction / Lyapunov certificates) and ``sim`` (an
event-driven finite-N chain for cross-validation).  ``coxfield.cli``
exposes the same operations as a command line tool.
"""

__version__ = "0.1.0"

from .dist import (
    CompletionRateCheck,
    CoxianDistribution,
    HyperExponential,
    MomentTriple,
    SchemaError,
    SignedMixture,
    cdf,
    coxian_to_mixture,
    distribution_from_dict,
    distribution_to_dict,
    fit_hyperexp2,
    has_decreasing_completion_rates,
    hazard,
    hyperexp_to_coxian,
    moments,
    normalize_to_unit_mean,
    normalized_moments,
    pdf,
    random_coxian_decreasing,
    random_hyperexp,
    raw_moments,
    remaining_service_times,
    telescoping_rate_sum,
)
from .order import (
    LeqReport,
    MeanFieldState,
    OccupancyState,
    StateSpaceReport,
    from_occupancy,
    full_state,
    in_state_space,
    leq,
    leq_report,
    level_phase_mass,
    random_state,
    state_from_dict,
    state_space_report,
    state_to_dict,
    to_occupancy,
    upper_envelope,
    zero_state,
)
from .mfode import (
    AttractionReport,
    FixedPointError,
    FixedPointResult,
    IntegrationError,
    LyapunovReport,
    OrderPreservationReport,
    PolicyModel,
    StructureCheck,
    Trajectory,
    attraction_report,
    drift,
    fixed_point,
    fixed_point_structure_residual,
    integrate,
    lyapunov_rates,
    lyapunov_report,
    lyapunov_values,
    model_from_dict,
    model_to_dict,
    monotonicity_report,
    step_bound,
)
from .sim import (
    FixedPointComparison,
    SimConfig,
    StationaryEstimate,
    compare_to_fixed_point,
    replicate,
    simulate,
)

__all__ = [name for name in dir() if not name.startswith("_")]
