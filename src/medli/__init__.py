"""Minimum-error discrimination for linearly independent state ensembles.

The package computes pretty good measurements, the Belavkin transform
between ensembles and its explicit inverse, simplified optimality
certificates, fixed-point detection, and certified optima with an
independent brute-force oracle.
"""

from .belavkin import (
    RoundtripReport,
    forward_map,
    inverse_map,
    roundtrip_check,
)
from .certify import (
    INCONCLUSIVE,
    NOT_OPTIMAL,
    OPTIMAL,
    CertificationReport,
    FixpointResult,
    certify_full,
    certify_simplified,
    fixpoint_check,
)
from .ensembles import (
    Ensemble,
    GeneralPOVM,
    ProjectiveMeasurement,
    detection_profile,
    measurement_elements,
    random_ensemble,
    success_probability,
    validate_ensemble,
    validate_povm,
    validate_projective,
)
from .errors import (
    BudgetExceeded,
    DimensionMismatch,
    FileFormatError,
    InvalidSignature,
    MEDError,
    NotComplete,
    NotLinearlyIndependent,
    NotOptimalPair,
    NotProjective,
    NotProjectiveAfterPGM,
    NotProjector,
    NotPSD,
    NotTwoState,
    PriorsInvalid,
    RankSignatureMismatch,
    RankSumMismatch,
    SigmaSingular,
    SolverFailed,
    StateNotDensity,
)
from .linalg import DEFAULT_TOL, Tolerances
from .pgm import pgm
from .solver import (
    SolveResult,
    generate_fixed_point,
    helstrom_comparator,
    solve,
    solve_oracle,
)

__version__ = "0.1.0"
