"""The ambient construction of the PGM and the inverse map, as the paper states it.

medli builds the PGM, sigma^{1/2} and each X_i in the PGM's frame, from one
SVD (:mod:`medli.pgm`, :mod:`medli.belavkin`). The helpers here build the same
objects in the ambient basis: sigma^{1/2} and sigma^{-1/2} by
eigendecomposition, the PGM as sigma^{-1/2} (p_i rho_i) sigma^{-1/2}, and the
blocks of sigma^{1/2} in a basis adapted to each projector with the Schur
complement of the range block. Tests check the frame path against them.
The package never calls the small helpers here either (the average state,
the one-matrix hermiticity check, the projector defect, positivity tests and
the NotPD error they raise, the rank count of one matrix); tests use them as
independent references.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from medli.ensembles import Ensemble, GeneralPOVM
from medli.errors import MEDError, NotProjector, NotPSD, SigmaSingular
from medli.linalg import (
    DEFAULT_TOL,
    Tolerances,
    as_square,
    herm,
    hermiticity_defect,
    rank_cutoff_mask,
)
from medli.pgm import COND_LIMIT


class NotPD(MEDError):
    """Matrix is singular or indefinite where positive definiteness is required."""


def average_state(ensemble: Ensemble) -> np.ndarray:
    """The prior-weighted average sum_i p_i rho_i; PD for LI ensembles."""
    acc = np.zeros((ensemble.dim, ensemble.dim), dtype=complex)
    for p, rho in zip(ensemble.priors, ensemble.states):
        acc += p * rho
    return herm(acc)


def check_hermitian(mat, tol: Tolerances = DEFAULT_TOL) -> np.ndarray:
    """Return the matrix, raising ValueError if it is not Hermitian within tol_herm."""
    arr = as_square(mat)
    scale = max(1.0, float(np.abs(arr).max()) if arr.size else 1.0)
    defect = float(np.abs(arr - arr.conj().T).max()) if arr.size else 0.0
    if defect > tol.tol_herm * scale:
        raise ValueError(f"matrix is not Hermitian: max entry defect {defect:.3e}")
    return arr


def rank_eps(mat, tol: Tolerances = DEFAULT_TOL) -> int:
    """Number of eigenvalues above the relative cutoff tol_rank * max|eigenvalue|.

    The cutoff scale falls back to 1 for the zero matrix, so rank_eps(0) = 0.
    """
    return int(np.sum(rank_cutoff_mask(np.linalg.eigvalsh(herm(as_square(mat))), tol)))


def min_eig(mat) -> float:
    """Smallest eigenvalue of the Hermitian part."""
    return float(np.linalg.eigvalsh(herm(mat))[0])


def is_pd(mat, tol: Tolerances = DEFAULT_TOL) -> bool:
    """True iff the smallest eigenvalue exceeds tol_psd."""
    return min_eig(mat) > tol.tol_psd


def is_psd(mat, tol: Tolerances = DEFAULT_TOL) -> bool:
    """True iff the smallest eigenvalue exceeds -tol_psd."""
    return min_eig(mat) > -tol.tol_psd


def psd_sqrt(mat, tol: Tolerances = DEFAULT_TOL) -> np.ndarray:
    """PSD square root S with S @ S = M, via eigendecomposition.

    Eigenvalues in [-tol_psd, 0) are clamped to zero so that round-off from
    upstream products cannot poison downstream PSD requirements.
    """
    arr = check_hermitian(mat, tol)
    w, v = np.linalg.eigh(herm(arr))
    if w[0] < -tol.tol_psd:
        raise NotPSD(f"smallest eigenvalue {w[0]:.3e} is below -tol_psd")
    w = np.clip(w, 0.0, None)
    return herm((v * np.sqrt(w)) @ v.conj().T)


def psd_inv_sqrt(mat, tol: Tolerances = DEFAULT_TOL) -> np.ndarray:
    """Inverse square root T with T @ M @ T = Id, for positive definite M."""
    arr = check_hermitian(mat, tol)
    w, v = np.linalg.eigh(herm(arr))
    if w[0] <= tol.tol_psd:
        raise NotPD(f"smallest eigenvalue {w[0]:.3e} is not above tol_psd")
    return herm((v / np.sqrt(w)) @ v.conj().T)


@dataclass(frozen=True)
class BlockDecomposition:
    """Blocks of a Hermitian matrix in a basis adapted to a projector.

    ``basis`` is a d x d unitary whose first ``rank`` columns span the
    projector's range; ``a_block`` is the range-range block, ``c_block`` the
    kernel-kernel block and ``b_block`` the off-diagonal block.
    """

    a_block: np.ndarray
    b_block: np.ndarray
    c_block: np.ndarray
    basis: np.ndarray
    rank: int

    def reassemble(self) -> np.ndarray:
        """Rotate the blocks back to the ambient basis."""
        r = self.rank
        inner = np.empty(self.basis.shape, dtype=complex)
        inner[:r, :r] = self.a_block
        inner[:r, r:] = self.b_block
        inner[r:, :r] = self.b_block.conj().T
        inner[r:, r:] = self.c_block
        return herm(self.basis @ inner @ self.basis.conj().T)


def projector_defect(mat) -> float:
    """||P^2 - P||_F + ||P - P^dag||_F, zero for an orthogonal projector."""
    arr = as_square(mat)
    return float(np.linalg.norm(arr @ arr - arr)) + hermiticity_defect(arr)


def projector_basis(proj: np.ndarray) -> tuple[int, np.ndarray]:
    """Rank and an adapting unitary for a projector: eigh's eigenvectors, range first.

    A stable sort on descending eigenvalue puts the range vectors first.
    Within the range and within the kernel the basis is whatever eigh
    returns, so only quantities that do not depend on it (block spectra,
    reassembly) are meaningful to compare.
    """
    w, v = np.linalg.eigh(herm(proj))
    return int(np.sum(w > 0.5)), v[:, np.argsort(-w, kind="stable")]


def block_decompose(mat, proj, tol: Tolerances = DEFAULT_TOL) -> BlockDecomposition:
    """Decompose a Hermitian matrix relative to an orthogonal projector."""
    arr = check_hermitian(mat, tol)
    p = as_square(proj)
    if p.shape != arr.shape:
        raise ValueError(f"projector shape {p.shape} != matrix shape {arr.shape}")
    defect = projector_defect(p)
    if defect > tol.tol_recon:
        raise NotProjector(f"projector defect {defect:.3e} exceeds tol_recon")
    rank, basis = projector_basis(p)
    rotated = basis.conj().T @ arr @ basis
    return BlockDecomposition(
        a_block=herm(rotated[:rank, :rank]),
        b_block=rotated[:rank, rank:].copy(),
        c_block=herm(rotated[rank:, rank:]),
        basis=basis,
        rank=rank,
    )


def schur_complement(bd: BlockDecomposition, tol: Tolerances = DEFAULT_TOL) -> np.ndarray:
    """Schur complement C - B^dag A^{-1} B of the A block.

    If the source matrix was positive definite, the complement is too.
    """
    a = bd.a_block
    if a.shape[0] == 0:
        return herm(bd.c_block)
    w = np.linalg.eigvalsh(a)
    if w[0] <= tol.tol_psd:
        raise NotPD(f"A block is singular within tolerance (min eigenvalue {w[0]:.3e})")
    if bd.c_block.shape[0] == 0:
        return bd.c_block.copy()
    return herm(bd.c_block - bd.b_block.conj().T @ np.linalg.solve(a, bd.b_block))


def pairwise_stationarity(ensemble: Ensemble, elements) -> float:
    """max over i != j of ||E_j (p_j rho_j - p_i rho_i) E_i||_F, one pair at a time."""
    weighted = ensemble.weighted_states()
    return max(
        float(np.linalg.norm(elements[j] @ (weighted[j] - weighted[i]) @ elements[i]))
        for j in range(ensemble.m)
        for i in range(ensemble.m)
        if i != j
    )


def pairwise_column_squares(ensemble: Ensemble, elements) -> float:
    """max over i of sum_{j != i} ||E_j (p_j rho_j - p_i rho_i) E_i||_F^2, one pair at a time."""
    weighted = ensemble.weighted_states()
    return max(
        sum(
            float(np.linalg.norm(elements[j] @ (weighted[j] - weighted[i]) @ elements[i])) ** 2
            for j in range(ensemble.m)
            if j != i
        )
        for i in range(ensemble.m)
    )


def outcome_sum(ensemble: Ensemble, elements) -> np.ndarray:
    """K = sum_i p_i rho_i E_i, one outcome at a time."""
    k = np.zeros((ensemble.dim, ensemble.dim), dtype=complex)
    for w, e in zip(ensemble.weighted_states(), elements):
        k += w @ e
    return k


def outcome_weights(ensemble: Ensemble, elements) -> list[float]:
    """The detection weights Tr(p_i rho_i E_i), one outcome at a time."""
    return [float(np.trace(w @ e).real) for w, e in zip(ensemble.weighted_states(), elements)]


def column_stationarity(ensemble: Ensemble, elements) -> float:
    """max over i of ||(K^dag - p_i rho_i) E_i||_F, K = sum_j p_j rho_j E_j, one outcome at a time."""
    k = outcome_sum(ensemble, elements)
    return max(
        float(np.linalg.norm((k.conj().T - w) @ e)) for w, e in zip(ensemble.weighted_states(), elements)
    )


def paper_x_ops(pre_image: Ensemble, report, sigma_sqrt: np.ndarray) -> np.ndarray:
    """The paper's X_i of an inverse map, t p_i rho_i of its pre-image with t = Tr sigma^{1/2} / Tr Z."""
    scale = float(np.trace(sigma_sqrt).real) / report.dual_value
    return scale * pre_image.weighted_states()


def pgm_general(ensemble: Ensemble, tol: Tolerances = DEFAULT_TOL) -> GeneralPOVM:
    """POVM with elements sigma^{-1/2} (p_i rho_i) sigma^{-1/2}.

    sigma is the ensemble average state and must be PD with condition number
    below COND_LIMIT, else SigmaSingular.
    """
    sigma = average_state(ensemble)
    w = np.linalg.eigvalsh(sigma)
    smallest, largest = float(w[0]), float(w[-1])
    if smallest <= tol.tol_psd:
        raise SigmaSingular(f"average state has smallest eigenvalue {smallest:.3e}")
    if largest / smallest > COND_LIMIT:
        raise SigmaSingular(f"average state condition number {largest / smallest:.3e} too large")
    t = psd_inv_sqrt(sigma, tol)
    elements = tuple(
        herm(t @ (p * rho) @ t) for p, rho in zip(ensemble.priors, ensemble.states)
    )
    return GeneralPOVM(dim=ensemble.dim, elements=elements)
