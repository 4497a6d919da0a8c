"""Mean-field models of FCFS load balancing with Coxian job sizes.

The package has four layers: ``dist`` (phase-type distributions, the
hyperexponential-to-Coxian conversion and the decreasing-completion-rate
class), ``order`` (the state space and the comparison order the dynamics
preserve), ``mfode`` (the transient ODE, its fixed point and the
monotonicity / attraction / Lyapunov certificates) and ``sim`` (an
event-driven finite-N chain for cross-validation).  ``coxfield.cli``
exposes the same operations as a command line tool and holds the JSON
document format; importing the package does not import it.
"""

__version__ = "0.1.0"

from .dist import (
    CompletionRateCheck,
    CoxianDistribution,
    HyperExponential,
    MomentTriple,
    SignedMixture,
    cdf,
    coxian_to_mixture,
    fit_hyperexp2,
    has_decreasing_completion_rates,
    hazard,
    hyperexp_to_coxian,
    moments,
    normalized_moments,
    pdf,
    raw_moments,
    remaining_service_times,
)
from .order import (
    LeqReport,
    MeanFieldState,
    StateSpaceReport,
    full_state,
    leq,
    leq_report,
    level_phase_mass,
    random_state,
    state_space_report,
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
