"""Tolerance-aware linear algebra for dense complex Hermitian matrices.

Everything funnels through one primitive, the Hermitian eigendecomposition:
matrix square roots, inverse square roots, positivity and rank tests, and the
block decomposition of a matrix in a basis adapted to a projector. Matrices
are plain complex numpy arrays; domain-level structure is validated by the
callers in :mod:`medli.ensembles`.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np

from .errors import NotPD, NotProjector, NotPSD

_TOL_FIELDS = ("tol_herm", "tol_psd", "tol_rank", "tol_recon", "tol_fixpoint")


@dataclass(frozen=True)
class Tolerances:
    """Numerical thresholds shared across the package.

    ``tol_rank`` is relative to the largest absolute eigenvalue; the others
    are absolute bounds on eigenvalues or Frobenius norms. Defaults leave
    double-precision headroom for chained operations (sqrt -> Schur ->
    reassembly).
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
    """Hermitian part (M + M^dag) / 2."""
    arr = as_square(mat)
    return (arr + arr.conj().T) / 2.0


def hermiticity_defect(mat) -> float:
    """Frobenius norm of M - M^dag."""
    arr = as_square(mat)
    return float(np.linalg.norm(arr - arr.conj().T))


def projector_defect(mat) -> float:
    """||P^2 - P||_F + ||P - P^dag||_F, zero for an orthogonal projector."""
    arr = as_square(mat)
    return float(np.linalg.norm(arr @ arr - arr)) + hermiticity_defect(arr)


def check_hermitian(mat, tol: Tolerances = DEFAULT_TOL) -> np.ndarray:
    """Return the matrix, raising ValueError if it is not Hermitian within tol_herm."""
    arr = as_square(mat)
    scale = max(1.0, float(np.abs(arr).max()) if arr.size else 1.0)
    defect = float(np.abs(arr - arr.conj().T).max()) if arr.size else 0.0
    if defect > tol.tol_herm * scale:
        raise ValueError(f"matrix is not Hermitian: max entry defect {defect:.3e}")
    return arr


def min_eig(mat) -> float:
    """Smallest eigenvalue of the Hermitian part."""
    return float(np.linalg.eigvalsh(herm(mat))[0])


def is_pd(mat, tol: Tolerances = DEFAULT_TOL) -> bool:
    """True iff the smallest eigenvalue exceeds tol_psd."""
    return min_eig(mat) > tol.tol_psd


def is_psd(mat, tol: Tolerances = DEFAULT_TOL) -> bool:
    """True iff the smallest eigenvalue exceeds -tol_psd."""
    return min_eig(mat) > -tol.tol_psd


def rank_eps(mat, tol: Tolerances = DEFAULT_TOL) -> int:
    """Number of eigenvalues above the relative cutoff tol_rank * max|eigenvalue|.

    The cutoff scale falls back to 1 for the zero matrix, so rank_eps(0) = 0.
    """
    return int(np.sum(rank_cutoff_mask(np.linalg.eigvalsh(herm(mat)), tol)))


def rank_cutoff_mask(eigvals: np.ndarray, tol: Tolerances = DEFAULT_TOL) -> np.ndarray:
    """Which eigenvalues lie above tol_rank * max|eigenvalue| (scale 1 if all are 0)."""
    amax = float(np.abs(eigvals).max()) if eigvals.size else 0.0
    scale = amax if amax > 0.0 else 1.0
    return np.abs(eigvals) > tol.tol_rank * scale


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
        inner = np.block(
            [[self.a_block, self.b_block], [self.b_block.conj().T, self.c_block]]
        )
        return herm(self.basis @ inner @ self.basis.conj().T)


def _fix_column_phases(v: np.ndarray) -> np.ndarray:
    v = v.copy()
    for k in range(v.shape[1]):
        col = v[:, k]
        pivot = col[int(np.argmax(np.abs(col)))]
        if abs(pivot) > 0:
            v[:, k] = col * (pivot.conjugate() / abs(pivot))
    return v


def _lex_column_order(v: np.ndarray) -> np.ndarray:
    if v.shape[1] <= 1:
        return v
    keys = []
    for row in v:
        keys.append(np.real(row))
        keys.append(np.imag(row))
    # descending, so coordinate vectors keep their natural order
    order = np.lexsort(np.asarray(keys)[::-1])[::-1]
    return v[:, order]


def projector_basis(proj: np.ndarray) -> tuple[int, np.ndarray]:
    """Rank and a deterministic adapting unitary for a projector.

    Range vectors come first; within each eigenvalue cluster ties are broken
    by phase-fixed lexicographic ordering of the components, so repeated runs
    on the same input give identical bases.
    """
    w, v = np.linalg.eigh(herm(proj))
    order = np.argsort(-w, kind="stable")
    v = v[:, order]
    rank = int(np.sum(w > 0.5))
    v = _fix_column_phases(v)
    if rank > 1:
        v[:, :rank] = _lex_column_order(v[:, :rank])
    if v.shape[1] - rank > 1:
        v[:, rank:] = _lex_column_order(v[:, rank:])
    return rank, v


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
