"""Exact simulation and analysis of period finding on marked arithmetic
progressions: statevector pipelines, closed-form spectra, continued-fraction
recovery, offset search, and work-factor accounting, all at desk scale."""

from .analysis import (
    EmpiricalTrials,
    WorkfactorReport,
    monte_carlo_trials,
    verified_recovery,
    workfactor_comparison,
)
from .closedform import (
    RatioBounds,
    closed_form_at,
    closed_form_table,
    ratio_bounds,
)
from .errors import (
    BoundViolated,
    DegenerateInstance,
    InvalidProbability,
    LabelOutOfRange,
    LpqError,
    MarkedSetTooLarge,
    NonTermination,
    OverflowsLabelSpace,
    PeriodTooLarge,
    ValidationError,
    VerificationFailed,
)
from .offset import (
    OffsetSearchResult,
    amplified_measure_member,
    find_offset_counting,
    find_offset_decreasing,
    probes_accept,
)
from .oracle import OracleHandle, OracleSpec, build_oracle
from .recovery import (
    Convergent,
    RecoveryResult,
    RecoveryStatus,
    acceptance_window,
    accepted_denominators,
    d_to_y,
    recover_period,
    success_set,
)
from .simulator import (
    GroverRegister,
    GroverSchedule,
    dft,
    grover_iterate,
    grover_schedule,
    marked_mask,
    simulated_table,
    uniform_state,
)
from .spectrum import Algorithm, ProbabilityTable

__version__ = "0.1.0"
