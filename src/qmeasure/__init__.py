"""qmeasure: error/disturbance metrics and uncertainty relations for
finite-dimensional quantum instruments."""

from .errors import QMeasureError
from .operators import (
    DensityOperator,
    HermitianOperator,
    SpectralDecomposition,
    commutator_bound,
    expectation,
    expectation_and_variance,
    jordan_product,
    spectral_decompose,
    tensor_product,
)
from .instruments import (
    IndirectModel,
    Instrument,
    KrausSet,
    solve_contextual_values,
)
from .metrics import (
    NoiseReport,
    epsilon_sq_joint,
    epsilon_sq_system,
    eta_sq_joint,
    eta_sq_system,
    is_qnd,
    is_unbiased,
    lindblad_decomposition,
    three_state_cross_term,
    unbiased_dispersion,
)
from .quasiprob import (
    QuasiDistribution,
    conditional_weak_value,
    quasi_mean_squared_difference,
    tmh_disturbance_distribution,
    tmh_error_distribution,
    weak_probe,
    weak_probe_disturbance_distribution,
    weak_probe_error_distribution,
)
from .retrodiction import (
    OutcomeKernels,
    interdictive_disturbance,
    interdictive_joint_distribution,
    outcome_kernels,
    restricted_metrics,
    retrodictive_error,
)
from .inequalities import (
    InequalityRecord,
    evaluate,
    evaluate_all,
    heisenberg_form_violation_search,
    random_sweep,
)
from .scenario import (
    Scenario,
    generate_random,
    load_scenario,
    projective_instrument,
    save_scenario,
    theta_pom_instrument,
)
from .harness import AnalysisReport, SampleRun, analyze, sample, weak_sweep

__version__ = "0.1.0"
