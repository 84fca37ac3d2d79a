"""spinledger: angular-momentum bookkeeping for quantum spin measurement.

A numerical laboratory for the question of whether quantum measurement
violates conservation laws.  The pieces:

* kernel      states over tensor-product spaces and their partial trace
* angular     the banded spin-j algebra, closed-form coherent states,
              the Bloch map
* ideal       the idealized-measurement algebra and violation taxonomy
* apparatus   an exactly conserving quantum measuring device, kept as its
              Clebsch-Gordan sector blocks (dense oracle: tests/dense_oracle.py)
* decoherence record amplification and cross-term suppression
* experiments satellite ledgers and lucky-streak post-selection
* cli         batch interface emitting CSV/JSON tables
"""

__version__ = "0.1.0"

from .angular import (
    AngularSpread,
    BlochVector,
    SpinOperators,
    angular_spread,
    bloch_vector,
    coherent_spin_state,
    spin_operators,
)
from .apparatus import (
    BranchDecomposition,
    CompositeSystem,
    ErrorAmplitudes,
    ThermalApparatus,
    bracket_magnitude_scaling,
    build_measurement_unitary,
    decompose_branches,
    extract_error_amplitudes,
    premeasure,
    thermal_orientation_uncertainty,
    verify_matching_equations,
)
from .config import NUMERICS, NumericsConfig
from .decoherence import (
    AmplifiedRecord,
    EnvironmentConfig,
    amplify_record,
    cross_term_curve,
    macroscopic_cross_term,
    overlap_decay_curve,
)
from .experiments import (
    DEFAULT_SOURCE_TILT,
    SatelliteRun,
    StreakReport,
    entangled_source_emit,
    lucky_streak_j2,
    prepare_internal_source,
    satellite_run,
)
from .ideal import (
    IdealBrackets,
    ViolationKind,
    ViolationReport,
    classify_violation,
    ideal_forced_cross_terms,
    weighted_branch_average,
)
from .kernel import ConservationError, StateVector, partial_trace
