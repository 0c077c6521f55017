"""Exception types raised across the package."""


class MEDError(Exception):
    """Base class for every error this package raises on purpose."""


# --- low-level linear algebra ---

class NotPSD(MEDError):
    """Matrix has an eigenvalue below the positive-semidefinite tolerance."""


class NotProjector(MEDError):
    """Matrix is not an orthogonal projector within tolerance."""


# --- domain validation ---

class DimensionMismatch(MEDError):
    """Operands disagree in dimension or in the number of outcomes/states."""


class PriorsInvalid(MEDError):
    """Prior probabilities are not strictly positive or do not sum to one."""


class StateNotDensity(MEDError):
    """A state matrix is not Hermitian, PSD, and unit trace within tolerance."""


class NotLinearlyIndependent(MEDError):
    """The states' eigenvectors do not form a linearly independent spanning set."""


class RankSumMismatch(MEDError):
    """State ranks do not sum to the space dimension."""


class NotOrthogonal(MEDError):
    """Measurement projectors are not mutually orthogonal."""


class NotComplete(MEDError):
    """Measurement elements do not sum to the identity."""


class NotProjective(MEDError):
    """A projective measurement was required but the candidate is not one."""


class RankSignatureMismatch(MEDError):
    """Measurement ranks do not match the ensemble's rank signature."""


class InvalidSignature(MEDError):
    """A requested rank signature is malformed or inconsistent with the dimension."""


class FileFormatError(MEDError):
    """A JSON document does not conform to the interchange schema."""


# --- maps and measurements ---

class SigmaSingular(MEDError):
    """The ensemble average state's condition number exceeds COND_LIMIT (or it is singular)."""


class NotProjectiveAfterPGM(MEDError):
    """A unitary medli built, the PGM's or a restart's, failed its unitarity check."""


class NotOptimalPair(MEDError):
    """The supplied measurement/certificate pair is not an optimal dual pair."""


# --- solver ---

class SolverFailed(MEDError):
    """No certified optimum could be produced."""


class NotTwoState(MEDError):
    """Operation is defined only for two-state ensembles."""


class BudgetExceeded(MEDError):
    """The search budget was exhausted before convergence."""


class NoConvergence(MEDError):
    """Every solver restart failed numerically."""
