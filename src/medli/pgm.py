"""The pretty good measurement and its projective form for LI ensembles.

For an LI ensemble the PGM is the polar factor of Psi, the d x d matrix whose
columns are sqrt(p_i lambda_ik) v_ik over the range eigenpairs of every state,
so that sigma = Psi Psi^dag (Hausladen-Wootters 1994; Eldar-Forney, IEEE TIT
47, 858 (2001)). One SVD Psi = U S V^dag gives the PGM unitary W = U V^dag,
whose column blocks span the projectors, sigma^{1/2} = U S U^dag, and the
frame matrix W^dag sigma^{1/2} W = V S V^dag, without inverting sigma. Psi
is ``Ensemble.psi``, formed by validation from the range eigenpairs its LI
test counted, so no state is eigendecomposed here.
Every measurement medli builds, the PGM and each solver restart's, comes
from a unitary through ``_measurement``; outside input is validated by
``certify.rank_matched``.
"""

from __future__ import annotations

import numpy as np

from .ensembles import Ensemble, ProjectiveMeasurement, _frozen
from .errors import NotProjectiveAfterPGM, SigmaSingular
from .linalg import DEFAULT_TOL, Tolerances, herm

# Beyond this condition number of the average state, near-dependent ensembles
# are outside the stable regime.
COND_LIMIT = 1e12


def _signature_slices(signature) -> list[slice]:
    """Consecutive coordinate blocks of sizes r_1, r_2, ..., one per state."""
    slices = []
    start = 0
    for r in signature:
        slices.append(slice(start, start + r))
        start += r
    return slices


def _projectors_from_unitary(u: np.ndarray, slices) -> list[np.ndarray]:
    """Projectors U_i U_i^dag onto the column blocks of a unitary."""
    return [herm(u[:, s] @ u[:, s].conj().T) for s in slices]


def _polar(ensemble: Ensemble, tol: Tolerances) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(W, G, sigma^{1/2}) from one SVD of Psi, with G = W^dag sigma^{1/2} W.

    Psi is ``Ensemble.psi``, built by validation from the range eigenpairs
    that fixed the rank signature. Column block i of the unitary W
    (``_signature_slices``) spans PGM projector i, so G is sigma^{1/2} in the
    PGM's block frame. Raises SigmaSingular if sigma's smallest eigenvalue
    is at most tol_psd, then if its condition number exceeds COND_LIMIT.
    W is not checked here: ``_measurement`` checks it when a measurement is
    built from it, and the fixed-point test reads only G.
    """
    u, s, vh = np.linalg.svd(ensemble.psi)
    smallest, largest = float(s[-1]) ** 2, float(s[0]) ** 2
    if smallest <= tol.tol_psd:
        raise SigmaSingular(f"average state has smallest eigenvalue {smallest:.3e}")
    if largest / smallest > COND_LIMIT:
        raise SigmaSingular(f"average state condition number {largest / smallest:.3e} too large")
    g = herm((vh.conj().T * s) @ vh)
    sigma_sqrt = herm((u * s) @ u.conj().T)
    return u @ vh, g, sigma_sqrt


def pgm(ensemble: Ensemble, tol: Tolerances = DEFAULT_TOL) -> ProjectiveMeasurement:
    """Pretty good measurement of an LI ensemble, as projectors.

    Projector i is W_i W_i^dag for column block i of the polar factor W of
    Psi, built by ``_measurement``.
    """
    w, _, _ = _polar(ensemble, tol)
    return _measurement(w, ensemble, tol)


def _measurement(w: np.ndarray, ensemble: Ensemble, tol: Tolerances) -> ProjectiveMeasurement:
    """The projective measurement of W's column blocks, with the ensemble's ranks.

    W is a unitary medli built: the PGM's or a solver restart's. Once
    ||W^dag W - Id||_F <= tol_recon, the projectors W_i W_i^dag are
    idempotent, mutually orthogonal, complete and of the states' ranks by
    construction, so no validation pass follows, and W is kept on the
    measurement as its frame (``unitary``). Raises NotProjectiveAfterPGM
    otherwise.
    """
    defect = float(np.linalg.norm(w.conj().T @ w - np.eye(ensemble.dim)))
    if defect > tol.tol_recon:
        raise NotProjectiveAfterPGM(f"unitary fails unitarity by {defect:.3e}")
    projectors = _projectors_from_unitary(w, _signature_slices(ensemble.rank_signature))
    return ProjectiveMeasurement(
        dim=ensemble.dim,
        projectors=tuple(_frozen(p) for p in projectors),
        rank_signature=ensemble.rank_signature,
        unitary=_frozen(w),
    )
