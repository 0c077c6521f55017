"""Tolerance-aware linear algebra for dense complex Hermitian matrices.

The helpers here are Hermitian parts and defects, rank tests on Hermitian
eigenvalues (of one matrix or, row by row, of a stack), seeded random
unitaries and unitary exponentials. The PGM, sigma^{1/2} and the blocks of
sigma^{1/2} in the PGM's frame come from one SVD in :mod:`medli.pgm`.
Matrices are plain complex numpy arrays; domain-level structure is validated
by the callers in :mod:`medli.ensembles`.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np

_TOL_FIELDS = ("tol_herm", "tol_psd", "tol_rank", "tol_recon", "tol_fixpoint")


@dataclass(frozen=True)
class Tolerances:
    """Numerical thresholds shared across the package.

    ``tol_rank`` is relative to the largest absolute eigenvalue; the others
    are absolute bounds on eigenvalues or Frobenius norms. Defaults leave
    double-precision headroom for chained operations (SVD -> block solve ->
    rotation back).
    """

    tol_herm: float = 1e-10
    tol_psd: float = 1e-9
    tol_rank: float = 1e-8
    tol_recon: float = 1e-8
    tol_fixpoint: float = 1e-7

    def __post_init__(self) -> None:
        for name in _TOL_FIELDS:
            value = getattr(self, name)
            if not np.isfinite(value) or value < 0:
                raise ValueError(f"{name} must be finite and nonnegative, got {value!r}")

    def replace(self, **overrides) -> "Tolerances":
        return dataclasses.replace(self, **overrides)


DEFAULT_TOL = Tolerances()


def as_square(mat) -> np.ndarray:
    arr = np.asarray(mat, dtype=complex)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {arr.shape}")
    return arr


def herm(mat) -> np.ndarray:
    """Hermitian part (M + M^dag) / 2 of a matrix, or of each matrix in a stack."""
    arr = np.asarray(mat, dtype=complex)
    return (arr + arr.conj().swapaxes(-2, -1)) / 2.0


def hermiticity_defect(mat) -> float:
    """Frobenius norm of M - M^dag."""
    arr = as_square(mat)
    return float(np.linalg.norm(arr - arr.conj().T))


def rank_eps(mat, tol: Tolerances = DEFAULT_TOL) -> int:
    """Number of eigenvalues above the relative cutoff tol_rank * max|eigenvalue|.

    The cutoff scale falls back to 1 for the zero matrix, so rank_eps(0) = 0.
    """
    return int(np.sum(rank_cutoff_mask(np.linalg.eigvalsh(herm(as_square(mat))), tol)))


def rank_cutoff_mask(eigvals: np.ndarray, tol: Tolerances = DEFAULT_TOL) -> np.ndarray:
    """Which eigenvalues lie above tol_rank * max|eigenvalue| (scale 1 if all are 0), row-wise."""
    amax = np.abs(eigvals).max(axis=-1, keepdims=True, initial=0.0)
    return np.abs(eigvals) > tol.tol_rank * np.where(amax > 0.0, amax, 1.0)


# --- seeded random material and unitary exponentials ---


def orthonormalize(mat: np.ndarray) -> np.ndarray:
    """Q factor of the QR decomposition, with column phases making diag(R) positive."""
    q, r = np.linalg.qr(mat)
    phases = np.diag(r) / np.abs(np.diag(r))
    return q * phases


def haar_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed unitary from the QR of a complex Ginibre matrix."""
    z = (rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))) / np.sqrt(2.0)
    return orthonormalize(z)


def random_hermitian(dim: int, rng: np.random.Generator) -> np.ndarray:
    z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return herm(z)


def expi_herm(hmat, t: float = 1.0) -> np.ndarray:
    """Unitary exp(i t H) for Hermitian H, via eigendecomposition."""
    w, v = np.linalg.eigh(herm(hmat))
    return (v * np.exp(1j * t * w)) @ v.conj().T
