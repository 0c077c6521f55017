"""Prior-weighted state ensembles, measurements, and their validators.

An ensemble is linearly independent (LI) when the union of all states'
eigenvectors (above the rank cutoff) is a linearly independent set spanning
the space; this forces the state ranks to sum to the dimension. Validators
always recompute the rank signature rather than trusting the input, since
everything downstream keys on exact ranks. The validators check all
matrices as one (m, d, d) stack; ``validate_ensemble`` forms, once, Psi from
the very range eigenpairs the LI test counted (its polar factor is the PGM,
:mod:`medli.pgm`) and the stack of weighted states p_i rho_i. Ensembles medli
builds from known factors, the two maps' outputs, go through ``_from_factors``
instead, which runs the same rank rule and LI test on the factors, with no
d x d eigendecomposition.
Each measurement is factored, E_i = L_i R_i^dag with R_i's columns orthonormal:
(V_i, V_i) for projectors, V their column basis, and (E_i, I) for a general
POVM. ``_from_basis`` alone builds projective measurements, and its one check,
V^dag V = Id, is their orthogonality and completeness. ``_pair``, the one
product of states with measurement elements, forms W L, K = (W L) R^dag and
the weights Tr(W_i E_i), W_i = p_i rho_i, by one formula for both: O(d^3)
for projectors, with no (m, d, d) stack formed.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import (
    DimensionMismatch,
    InvalidSignature,
    MEDError,
    NotComplete,
    NotLinearlyIndependent,
    NotProjective,
    NotProjector,
    NotPSD,
    PriorsInvalid,
    RankSignatureMismatch,
    RankSumMismatch,
    StateNotDensity,
)
from .linalg import (
    DEFAULT_TOL,
    Tolerances,
    as_square,
    expi_herm,
    haar_unitary,
    herm,
    random_hermitian,
    rank_cutoff_mask,
)


# random_ensemble perturbs each state by exp(i PERTURBATION H), ||H||_F <= 1.
PERTURBATION = 0.1


def _frozen(arr: np.ndarray) -> np.ndarray:
    """The array itself, made read-only; callers pass only arrays they alone hold."""
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True, eq=False)
class Ensemble:
    """Prior-weighted list of density matrices with its rank signature.

    ``psi`` is a read-only d x d matrix Psi whose column block i, of
    ``rank_signature[i]`` columns, is a factor of p_i rho_i, so Psi Psi^dag
    = sigma. Any factor will do: Psi_i -> Psi_i Q_i, Q_i unitary, moves the
    PGM unitary's blocks by the same Q_i, so ``pgm``, ``fixpoint_check`` and
    ``solve`` are invariant under this block-unitary freedom.
    ``validate_ensemble`` takes the columns sqrt(p_i lambda_ik) v_ik over the
    range eigenpairs its LI test counted; ``_from_factors`` keeps the factors
    it was given. ``weighted_states`` returns the read-only (m, d, d) stack
    of p_i rho_i.
    """

    dim: int
    priors: np.ndarray
    states: tuple[np.ndarray, ...]
    rank_signature: tuple[int, ...]
    psi: np.ndarray = field(repr=False)
    _weighted: np.ndarray = field(repr=False)

    @property
    def m(self) -> int:
        return len(self.states)

    def weighted_states(self) -> np.ndarray:
        """The read-only (m, d, d) stack of the products p_i * rho_i."""
        return self._weighted


def _projectors_from_unitary(u: np.ndarray, slices) -> np.ndarray:
    """The (m, d, d) stack of projectors U_i U_i^dag onto a unitary's column blocks."""
    return herm(np.array([u[:, s] @ u[:, s].conj().T for s in slices]))


@dataclass(frozen=True, eq=False)
class ProjectiveMeasurement:
    """Mutually orthogonal projectors summing to the identity, held as their column basis.

    ``_basis`` is a read-only d x d unitary V whose column block i spans
    projector i, Pi_i = V_i V_i^dag: the unitary medli built the measurement
    from (``pgm._measurement``), or the range eigenvectors that
    ``validate_projective`` counted in outside input. V is all either holds,
    so every reader runs the same code; serialization derives ``projectors``.
    """

    dim: int
    rank_signature: tuple[int, ...]
    _basis: np.ndarray = field(repr=False)

    @property
    def m(self) -> int:
        return len(self.rank_signature)

    @property
    def projectors(self) -> tuple[np.ndarray, ...]:
        return tuple(_frozen(_projectors_from_unitary(self._basis, _signature_slices(self.rank_signature))))

    def _factors(self) -> tuple[np.ndarray, np.ndarray, tuple[int, ...]]:
        return self._basis, self._basis, self.rank_signature


def _from_basis(basis: np.ndarray, signature: tuple[int, ...], error, tol: Tolerances) -> ProjectiveMeasurement:
    """The measurement Pi_i = V_i V_i^dag, V_i column block i of ``basis``: its one constructor.

    Its one check raises the caller's ``error`` unless V is d x d, d the sum
    of the ranks, and ||V^dag V - Id||_F <= tol_recon: then the projectors
    are orthogonal and complete. The measurement holds a read-only copy of V.
    """
    v = np.array(basis, dtype=complex)
    dim = sum(signature)
    if v.shape != (dim, dim):
        raise error(f"ranks {signature} sum to {dim}, but the basis is {v.shape[0]} x {v.shape[1]}")
    defect = float(np.linalg.norm(v.conj().T @ v - np.eye(dim)))
    if defect > tol.tol_recon:
        raise error(f"basis fails unitarity by {defect:.3e}")
    return ProjectiveMeasurement(dim, signature, _frozen(v))


@dataclass(frozen=True, eq=False)
class GeneralPOVM:
    """PSD elements summing to the identity; pre-validation input type."""

    dim: int
    elements: tuple[np.ndarray, ...]

    @property
    def m(self) -> int:
        return len(self.elements)

    def _factors(self) -> tuple[np.ndarray, np.ndarray, tuple[int, ...]]:
        return np.hstack(self.elements), np.tile(np.eye(self.dim), self.m), (self.dim,) * self.m


def measurement_elements(measurement) -> tuple[np.ndarray, ...]:
    if isinstance(measurement, ProjectiveMeasurement):
        return measurement.projectors
    if isinstance(measurement, GeneralPOVM):
        return measurement.elements
    raise TypeError(f"not a measurement: {type(measurement).__name__}")


def check_pair(ensemble: Ensemble, measurement) -> tuple[np.ndarray, np.ndarray, tuple[int, ...]]:
    """The measurement's factors L, R and block widths, if their shapes, not ``dim``, fit the states."""
    if measurement.m == ensemble.m:
        left, right, signature = factors = measurement._factors()
        if left.shape == right.shape == (ensemble.dim, sum(signature)):
            return factors
    shapes = sorted({np.shape(e) for e in measurement_elements(measurement)})
    raise DimensionMismatch(
        f"measurement ({measurement.m} outcomes, element shapes {shapes}, dim {measurement.dim}) "
        f"does not match ensemble ({ensemble.m} states, dim {ensemble.dim})"
    )


def _k_times(per_coord: np.ndarray, u: np.ndarray) -> np.ndarray:
    """M = K U for K = sum_i W_i U_i U_i^dag, U_i the column blocks of u.

    ``per_coord[a]`` is W_{l(a)}, the weighted state of coordinate a's block,
    and U_i U_i^dag u_a = u_a exactly when a lies in block i, so column a of M
    is W_{l(a)} u_a: one batched mat-vec, O(d^3). K~ = U^dag K U is U^dag M.
    """
    return (per_coord @ u.T[..., None])[..., 0].T


class _Pairing(NamedTuple):
    """The stack of W_i = p_i rho_i, the factors L, W L, their block widths, K and the weights."""

    weighted: np.ndarray
    left: np.ndarray
    wl: np.ndarray
    signature: tuple[int, ...]
    k: np.ndarray
    weights: list[float]

    def success(self, tol: Tolerances) -> float:
        """The sum of the weights; within tol_recon of [0, 1] it is clamped to it."""
        value = sum(self.weights)
        near = -tol.tol_recon <= value <= 1.0 + tol.tol_recon
        return min(max(value, 0.0), 1.0) if near else value


def _pair(ensemble: Ensemble, measurement) -> _Pairing:
    """The checked measurement's factors E_i = L_i R_i^dag paired with the states.

    Column a of W L is W_{l(a)} l_a: one ``_k_times`` batch per run of blocks
    (``_runs``), the run's k states broadcast over its columns, not copied.
    K = (W L) R^dag, and weight i sums Re(r_a^dag (W L)_a) over block i.
    """
    left, right, signature = check_pair(ensemble, measurement)
    weighted, wl = ensemble.weighted_states(), np.empty(left.shape, dtype=complex)
    for run, cols, k, r in _runs(signature):
        wl[:, cols] = _k_times(weighted[run], left[:, cols].reshape(-1, k, r)).reshape(-1, k * r)
    weights = _block_sums((right.conj() * wl).sum(axis=0).real, signature).tolist()
    return _Pairing(weighted, left, wl, signature, wl @ right.conj().T, weights)


def check_signature(dim: int, rank_signature) -> tuple[int, ...]:
    """The signature as a tuple of ints: at least two positive ranks summing to dim."""
    sig = tuple(int(r) for r in rank_signature)
    if len(sig) < 2 or any(r < 1 for r in sig) or sum(sig) != dim:
        raise InvalidSignature(f"signature {sig} is invalid for dim {dim}")
    return sig


def _signature_slices(signature) -> list[slice]:
    """Consecutive coordinate blocks of sizes r_1, r_2, ..., one per state."""
    ends = itertools.accumulate(signature)
    return [slice(end - r, end) for r, end in zip(signature, ends)]


@functools.lru_cache(maxsize=None)
def _runs(signature: tuple[int, ...]) -> tuple[tuple[slice, slice, int, int], ...]:
    """(states, coordinates, k, r) for each maximal run of k consecutive states of rank r.

    The states and their k r coordinates are slices, so a run's blocks are a
    reshape, and one batched call serves its states with nothing gathered.
    """
    runs, state, col = [], 0, 0
    for r, run in itertools.groupby(signature):
        k = len(list(run))
        runs.append((slice(state, state + k), slice(col, col + k * r), k, r))
        state, col = state + k, col + k * r
    return tuple(runs)


def _block_sums(columns: np.ndarray, signature) -> np.ndarray:
    """Per-column values summed over each column block of the signature's sizes."""
    sums = np.empty(len(signature))
    for run, cols, k, r in _runs(signature):
        sums[run] = columns[cols].reshape(k, r).sum(axis=1)
    return sums


def _block_norms2(f: np.ndarray, signature) -> np.ndarray:
    """||F_i||_F^2 for each column block F_i of f: its squared column norms, summed."""
    return _block_sums((f.real**2 + f.imag**2).sum(axis=0), signature)


def _li_ranks(ranks: np.ndarray, basis: np.ndarray, dim: int, tol: Tolerances) -> tuple[int, ...]:
    """The state ranks as a tuple, if they sum to dim and ``basis`` is a basis.

    ``basis`` lays the states' range vectors side by side, state by state:
    orthonormal within each state, so s_min / s_max of the whole reads only
    how independent the states are. Raises RankSumMismatch or
    NotLinearlyIndependent otherwise.
    """
    ranks = tuple(ranks.tolist())
    if sum(ranks) != dim:
        raise RankSumMismatch(f"state ranks {ranks} sum to {sum(ranks)}, dim is {dim}")
    svals = np.linalg.svd(basis, compute_uv=False)
    if not svals[-1] > tol.tol_rank * svals[0]:
        raise NotLinearlyIndependent(
            f"stacked range vectors have singular value ratio {svals[-1] / svals[0]:.3e}"
        )
    return ranks


def _first(bad: np.ndarray) -> int | None:
    """Index of the first True entry, None if there is none."""
    return int(np.argmax(bad)) if bad.any() else None


def _square_stack(items, what: str, nonfinite) -> np.ndarray:
    """A fresh (m, d, d) complex stack of same-shape square matrices.

    The first matrix of another shape raises DimensionMismatch, unless an
    earlier one has a non-finite entry: that raises ``nonfinite``, the
    caller's invariant class.
    """
    mats = [as_square(x) for x in items]
    dim = mats[0].shape[0] if mats else 0
    n = next((idx for idx, mat in enumerate(mats) if mat.shape != (dim, dim)), len(mats))
    stack = np.array(mats[:n], dtype=complex).reshape(n, dim, dim)
    if (idx := _first(~np.isfinite(stack).all(axis=(1, 2)))) is not None:
        raise nonfinite(f"{what} {idx} has non-finite entries")
    if n < len(mats):
        raise DimensionMismatch(f"{what} {n} has shape {mats[n].shape}, expected {(dim, dim)}")
    return stack


def _hermitian_part(stack: np.ndarray, what: str, error, tol: Tolerances) -> np.ndarray:
    """``herm`` of each matrix in the stack, after the package's one hermiticity rule.

    Matrix M is Hermitian when max|M - M^dag| <= tol_herm * max(1, max|M|),
    entrywise; ``error`` names the first matrix that is not.
    """
    defect = np.abs(stack - stack.conj().swapaxes(-2, -1)).max(axis=(-2, -1), initial=0.0)
    scale = np.abs(stack).max(axis=(-2, -1), initial=1.0)
    if (idx := _first(defect > tol.tol_herm * scale)) is not None:
        raise error(f"{what} {idx}: matrix is not Hermitian: max entry defect {defect[idx]:.3e}")
    return herm(stack)


def _check_psd(eigvals: np.ndarray, what: str, error, tol: Tolerances) -> None:
    """Raise ``error`` unless every row of stacked ascending eigenvalues is >= -tol_psd."""
    if (idx := _first(eigvals[:, 0] < -tol.tol_psd)) is not None:
        raise error(f"{what} {idx} has eigenvalue {eigvals[idx, 0]:.3e}")


def _check_complete(stack: np.ndarray, tol: Tolerances) -> None:
    defect = float(np.linalg.norm(sum(stack) - np.eye(stack.shape[-1])))
    if defect > tol.tol_recon:
        raise NotComplete(f"elements sum to identity only within {defect:.3e}")


def validate_ensemble(priors, states, tol: Tolerances = DEFAULT_TOL) -> Ensemble:
    """Check membership in the LI ensemble class and build the Ensemble.

    The states are copied into one (m, d, d) stack, and each check runs once
    over it: finiteness, hermiticity, one stacked eigendecomposition whose
    eigenvalues feed the PSD gate and the LI test, and the traces. The range
    eigenpairs the LI test counted build ``psi`` with one gather, next to the
    stack of p_i rho_i; ``states`` are read-only views of the frozen stack.
    Raises PriorsInvalid, StateNotDensity, RankSumMismatch, or
    NotLinearlyIndependent naming the first violated invariant and state.
    """
    pr = np.asarray(priors, dtype=float).flatten()
    stack = _square_stack(states, "state", StateNotDensity)
    m, dim = stack.shape[0], stack.shape[-1]
    if m < 2:
        raise DimensionMismatch(f"an ensemble needs at least 2 states, got {m}")
    if pr.shape[0] != m:
        raise DimensionMismatch(f"{pr.shape[0]} priors for {m} states")
    if not np.all(np.isfinite(pr) & (pr > 0.0)):
        raise PriorsInvalid(f"priors must be finite and strictly positive, got {pr.tolist()}")
    if abs(pr.sum() - 1.0) > tol.tol_recon:
        raise PriorsInvalid(f"priors sum to {pr.sum()!r}, not 1")
    w, v = np.linalg.eigh(_hermitian_part(stack, "state", StateNotDensity, tol))
    _check_psd(w, "state", StateNotDensity, tol)
    traces = np.trace(stack, axis1=1, axis2=2).real
    if (idx := _first(np.abs(traces - 1.0) > tol.tol_recon)) is not None:
        raise StateNotDensity(f"state {idx} has trace {float(traces[idx])!r}, not 1")
    keep = rank_cutoff_mask(w, tol)
    basis = v.transpose(1, 0, 2)[:, keep]
    ranks = _li_ranks(keep.sum(axis=1), basis, dim, tol)
    psi = basis * np.sqrt(pr[:, None] * np.clip(w, 0.0, None))[keep]
    return Ensemble(
        dim=dim,
        priors=_frozen(pr),
        states=tuple(_frozen(stack)),
        rank_signature=ranks,
        psi=_frozen(psi),
        _weighted=_frozen(pr[:, None, None] * stack),
    )


def _from_factors(f: np.ndarray, signature: tuple[int, ...], tol: Tolerances) -> Ensemble:
    """The ensemble with p_i rho_i = F_i F_i^dag / ||F||_F^2, F_i the column blocks of f.

    For ensembles medli builds and knows as factors, the outputs of the two
    maps; outside input goes through ``validate_ensemble``. No d x d matrix
    is eigendecomposed. The priors are ||F_i||_F^2 / ||F||_F^2, and the
    states F_i F_i^dag / ||F_i||_F^2 come from one batched product per run
    of equal ranks (``_runs``). One thin SVD per run, O(d r_i^2) per state,
    gives the ranks, by ``validate_ensemble``'s ``tol_rank`` rule on the
    squared singular values, and the left singular vectors, on which
    ``_li_ranks`` runs the same LI test. ``psi`` is f / ||F||_F. Raises
    StateNotDensity on a non-finite factor, then RankSumMismatch or
    NotLinearlyIndependent as ``validate_ensemble`` would.
    """
    dim = f.shape[0]
    norms2 = _block_norms2(f, signature)
    if (idx := _first(~np.isfinite(norms2))) is not None:
        raise StateNotDensity(f"state {idx} has non-finite entries")
    ranks = np.empty(len(signature), dtype=int)
    left = np.empty_like(f)
    states = np.empty((len(signature), dim, dim), dtype=complex)
    for run, cols, k, r in _runs(signature):
        blocks = f[:, cols].reshape(dim, k, r).transpose(1, 0, 2)
        u, s, _ = np.linalg.svd(blocks, full_matrices=False)
        ranks[run] = rank_cutoff_mask(s * s, tol).sum(axis=1)
        left[:, cols] = u.transpose(1, 0, 2).reshape(dim, k * r)
        states[run] = blocks @ blocks.conj().swapaxes(-2, -1)
    ranks = _li_ranks(ranks, left, dim, tol)
    total = float(norms2.sum())
    priors = norms2 / total
    states = herm(states) / norms2[:, None, None]
    return Ensemble(
        dim=dim,
        priors=_frozen(priors),
        states=tuple(_frozen(states)),
        rank_signature=ranks,
        psi=_frozen(f / np.sqrt(total)),
        _weighted=_frozen(priors[:, None, None] * states),
    )


def validate_projective(projectors, tol: Tolerances = DEFAULT_TOL) -> ProjectiveMeasurement:
    """Check outside projectors and hold them as ``_from_basis`` of their range eigenvectors.

    After ``_hermitian_part``, one stacked ``eigh`` gives each check: the
    idempotence defect ||P^2 - P||_F = sqrt(sum (lambda^2 - lambda)^2), the
    raw sum against Id, and the ranks, counted as eigenvalues above 1/2.
    Raises NotProjector, then NotComplete, also for ranges that are no basis.
    """
    stack = _square_stack(projectors, "element", NotProjector)
    if not len(stack):
        raise DimensionMismatch("a measurement needs at least one element")
    w, v = np.linalg.eigh(_hermitian_part(stack, "element", NotProjector, tol))
    defect = np.sqrt(((w * w - w) ** 2).sum(axis=1))
    if (idx := _first(defect > tol.tol_recon)) is not None:
        raise NotProjector(f"element {idx} has idempotence defect {defect[idx]:.3e}")
    _check_complete(stack, tol)
    keep = w > 0.5
    return _from_basis(v.transpose(1, 0, 2)[:, keep], tuple(keep.sum(axis=1).tolist()), NotComplete, tol)


def rank_matched(ensemble: Ensemble, measurement, tol: Tolerances = DEFAULT_TOL) -> ProjectiveMeasurement:
    """The measurement as projectors paired with the states and of their ranks.

    The pairing is checked first: DimensionMismatch if it does not pair with
    the states, projective or not. A GeneralPOVM comes from outside (a file,
    or user arrays) and is the one kind validated here, by
    ``validate_projective``: NotProjective if it is not projective. Then
    RankSignatureMismatch if its ranks differ from the states'.
    """
    check_pair(ensemble, measurement)
    if isinstance(measurement, GeneralPOVM):
        try:
            measurement = validate_projective(measurement.elements, tol)
        except MEDError as exc:
            raise NotProjective(f"measurement is not projective: {exc}") from exc
    if not isinstance(measurement, ProjectiveMeasurement):
        raise NotProjective(f"expected projectors, got {type(measurement).__name__}")
    if measurement.rank_signature != ensemble.rank_signature:
        raise RankSignatureMismatch(
            f"projector ranks {measurement.rank_signature} != state ranks "
            f"{ensemble.rank_signature}"
        )
    return measurement


def validate_povm(elements, tol: Tolerances = DEFAULT_TOL) -> GeneralPOVM:
    """Check PSD-ness and completeness of general POVM elements."""
    stack = _square_stack(elements, "element", NotPSD)
    if not len(stack):
        raise DimensionMismatch("a POVM needs at least one element")
    eigvals = np.linalg.eigvalsh(_hermitian_part(stack, "element", NotPSD, tol))
    _check_psd(eigvals, "element", NotPSD, tol)
    _check_complete(stack, tol)
    return GeneralPOVM(dim=stack.shape[-1], elements=tuple(_frozen(stack)))


def detection_profile(ensemble: Ensemble, measurement) -> list[float]:
    """Per-state detection weights Tr(p_i rho_i E_i), read off ``_pair``.

    At a fixed point of the Belavkin transform these are proportional to the
    state ranks; for rank-one signatures they are all equal.
    """
    return _pair(ensemble, measurement).weights


def success_probability(ensemble: Ensemble, measurement, tol: Tolerances = DEFAULT_TOL) -> float:
    """Average probability sum_i Tr(p_i rho_i E_i) of identifying the state.

    It is the sum of the detection weights (``detection_profile``), clamped
    to [0, 1] only when within tol_recon of the boundary: the value both
    certifiers report as ``CertificationReport.success_prob``, bit for bit.
    """
    return _pair(ensemble, measurement).success(tol)


def random_ensemble(dim: int, rank_signature, seed: int, tol: Tolerances = DEFAULT_TOL) -> Ensemble:
    """Seed-deterministic LI ensemble with the requested rank signature.

    Columns of a Haar unitary are partitioned into per-state eigenbases, each
    state gets random positive eigenvalues normalized to unit trace, then each
    state is conjugated by exp(i PERTURBATION H), H random Hermitian of
    Frobenius norm at most 1. Priors are a flat simplex sample. Each
    conjugation moves one state's range basis by at most PERTURBATION, so by
    Weyl's inequality the stacked range vectors, Haar columns at the start,
    keep s_min / s_max >= (1 - 0.1 sqrt(m)) / (1 + 0.1 sqrt(m)): linearly
    independent for every m <= 99. Beyond that, the one LI test, in the final
    ``validate_ensemble``, may raise NotLinearlyIndependent.
    """
    sig = check_signature(dim, rank_signature)
    rng = np.random.default_rng(seed)
    u = haar_unitary(dim, rng)
    states = []
    for block in _signature_slices(sig):
        cols = u[:, block]
        lam = rng.uniform(0.25, 1.0, size=cols.shape[1])
        lam /= lam.sum()
        states.append(herm((cols * lam) @ cols.conj().T))
    for i in range(len(sig)):
        gen = random_hermitian(dim, rng)
        gen /= max(1.0, float(np.linalg.norm(gen)))
        w = expi_herm(gen, PERTURBATION)
        states[i] = herm(w @ states[i] @ w.conj().T)
    priors = rng.dirichlet(np.ones(len(sig)))
    return validate_ensemble(priors, states, tol)
