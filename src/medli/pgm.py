"""The pretty good measurement and its projective form for LI ensembles.

For an LI ensemble the PGM is the polar factor of Psi, the d x d matrix whose
columns are sqrt(p_i lambda_ik) v_ik over the range eigenpairs of every state,
so that sigma = Psi Psi^dag (Hausladen-Wootters 1994; Eldar-Forney, IEEE TIT
47, 858 (2001)). One SVD Psi = U S V^dag gives the PGM unitary W = U V^dag,
whose column blocks span the projectors, sigma^{1/2} = U S U^dag, and the
frame matrix W^dag sigma^{1/2} W = V S V^dag, without inverting sigma. Psi
is ``Ensemble.psi``: any factor of each p_i rho_i, formed by validation
from the range eigenpairs its LI test counted or kept from the factors a
map built the ensemble from, so no state is eigendecomposed here. The one test on sigma is
cond(sigma) <= COND_LIMIT, read off the same SVD, not a verdict tolerance.
Every measurement medli builds, the PGM and each solver restart's, comes
from a unitary through ``_measurement`` and is that unitary, with no
projector stack; outside input is validated by ``ensembles.rank_matched``.
"""

from __future__ import annotations

import numpy as np

from .ensembles import Ensemble, ProjectiveMeasurement, _frozen
from .errors import NotProjectiveAfterPGM, SigmaSingular
from .linalg import DEFAULT_TOL, Tolerances, herm

# Beyond this condition number of the average state, near-dependent ensembles
# are outside the stable regime: the one gate on sigma.
COND_LIMIT = 1e12


def _psi_svd(ensemble: Ensemble) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The SVD Psi = U S V^dag, behind the one gate on sigma.

    Psi is ``Ensemble.psi``, whose column blocks factor the p_i rho_i.
    Raises SigmaSingular when s_max^2 > COND_LIMIT s_min^2, a test with no
    division, so an exactly zero s_min is refused too.
    """
    u, s, vh = np.linalg.svd(ensemble.psi)
    smallest, largest = float(s[-1]) ** 2, float(s[0]) ** 2
    if largest > COND_LIMIT * smallest:
        eigs = f"eigenvalues {largest:.3e} and {smallest:.3e}"
        raise SigmaSingular(f"average state condition number above {COND_LIMIT:.0e}: {eigs}")
    return u, s, vh


def _pgm_unitary(ensemble: Ensemble) -> np.ndarray:
    """The PGM unitary W = U V^dag alone, for callers that read nothing else."""
    u, _, vh = _psi_svd(ensemble)
    return u @ vh


def _frame(s: np.ndarray, vh: np.ndarray) -> np.ndarray:
    """G = W^dag sigma^{1/2} W = V S V^dag, from the factors S and V^dag of ``_psi_svd``.

    Column block i of the PGM unitary W (``_signature_slices``) spans PGM
    projector i, so G is sigma^{1/2} in the PGM's block frame.
    """
    return herm((vh.conj().T * s) @ vh)


def _polar(ensemble: Ensemble) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(W, G, sigma^{1/2}) from one SVD of Psi; ``_measurement`` checks W when it builds from it."""
    u, s, vh = _psi_svd(ensemble)
    sigma_sqrt = herm((u * s) @ u.conj().T)
    return u @ vh, _frame(s, vh), sigma_sqrt


def pgm(ensemble: Ensemble, tol: Tolerances = DEFAULT_TOL) -> ProjectiveMeasurement:
    """Pretty good measurement of an LI ensemble, as projectors.

    Projector i is W_i W_i^dag for column block i of the polar factor W of
    Psi (``_pgm_unitary``), built by ``_measurement``.
    """
    return _measurement(_pgm_unitary(ensemble), ensemble, tol)


def _measurement(w: np.ndarray, ensemble: Ensemble, tol: Tolerances) -> ProjectiveMeasurement:
    """The projective measurement of W's column blocks, with the ensemble's ranks.

    W is a unitary medli built: the PGM's or a solver restart's. Once
    ||W^dag W - Id||_F <= tol_recon, the projectors W_i W_i^dag are
    idempotent, mutually orthogonal, complete and of the states' ranks by
    construction, so no validation pass follows; the measurement holds a
    read-only copy of the checked W. Raises NotProjectiveAfterPGM otherwise.
    """
    defect = float(np.linalg.norm(w.conj().T @ w - np.eye(ensemble.dim)))
    if defect > tol.tol_recon:
        raise NotProjectiveAfterPGM(f"unitary fails unitarity by {defect:.3e}")
    return ProjectiveMeasurement(ensemble.dim, ensemble.rank_signature, _frozen(np.array(w, dtype=complex)))
